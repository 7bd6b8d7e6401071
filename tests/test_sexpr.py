import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpln import SexprError, format_atom, load_kb, parse_atom
from dpln.atomspace import TYPES

from conftest import fresh_kb

SPARROW_KB = """
; a tiny inheritance chain
(InheritanceLink (stv 0.9 0.9)
    (ConceptNode "sparrow")
    (ConceptNode "bird"))
(InheritanceLink (stv 0.8 0.8)
    (ConceptNode "bird")
    (ConceptNode "animal"))
"""


def test_load_kb_interns_and_asserts():
    _, kb = fresh_kb()
    top = load_kb(kb, SPARROW_KB)
    assert len(top) == 2
    for atom_id in top:
        assert kb.type_of(atom_id) == "InheritanceLink"
        assert kb.has_asserted_tv(atom_id)
    tv = kb.get_tv(top[0])
    assert tv.strength.value == pytest.approx(0.9)
    assert tv.confidence == pytest.approx(0.9)


def test_load_kb_default_tv_when_no_stv():
    _, kb = fresh_kb()
    top = load_kb(kb, '(ConceptNode "a")')
    assert kb.has_asserted_tv(top[0])
    tv = kb.get_tv(top[0])
    assert tv.strength.value == 1.0
    assert tv.confidence == 0.0


def test_stv_position_is_flexible():
    _, kb = fresh_kb()
    a = load_kb(kb, '(InheritanceLink (ConceptNode "a") (stv 0.5 0.25) '
                    '(ConceptNode "b"))')[0]
    tv = kb.get_tv(a)
    assert tv.strength.value == pytest.approx(0.5)
    assert tv.confidence == pytest.approx(0.25)


def test_nested_stv_attaches_to_child():
    _, kb = fresh_kb()
    link = load_kb(kb, '(InheritanceLink (ConceptNode (stv 0.3 1.0) "a") '
                       '(ConceptNode "b"))')[0]
    child = kb.atom(link).outgoing[0]
    assert kb.get_tv(child).strength.value == pytest.approx(0.3)


def test_parse_atom_no_tv_attached():
    _, kb = fresh_kb()
    atom = parse_atom(kb, '(EvaluationLink (PredicateNode "green") '
                          '(ConceptNode "apple-001"))')
    assert kb.type_of(atom) == "EvaluationLink"
    assert not kb.has_asserted_tv(atom)


@pytest.mark.parametrize("target, line", [
    ('(InheritanceLink (ConceptNode (stv 0.3 0.9) "a") (ConceptNode "c"))', 1),
    ('(InheritanceLink (stv 0.3 0.9)\n(ConceptNode "a") (ConceptNode "c"))', 1),
    ('(InheritanceLink (ConceptNode "a")\n(ListLink (ListLink '
     '(ConceptNode (stv 0.3 0.9) "c"))))', 2)])
def test_parse_atom_rejects_stv_at_any_level(target, line):
    """A query writes no truth value: parsing a target with an (stv ...)
    anywhere fails at its line and leaves every asserted value as it was."""
    _, kb = fresh_kb()
    load_kb(kb, '(ConceptNode (stv 0.5 0.9) "a")\n(ConceptNode "c")')

    def asserted():
        return {a: (kb.get_tv(a).strength.value, kb.get_tv(a).confidence)
                for a in range(len(kb)) if kb.has_asserted_tv(a)}
    before = asserted()
    with pytest.raises(SexprError, match="line %d: a query cannot carry a "
                       "truth value" % line):
        parse_atom(kb, target)
    assert asserted() == before


def test_parsing_leaves_no_cyclic_garbage():
    """The parser holds no reference cycle, so the token list of a large KB
    is freed as soon as parsing ends, without a garbage collection."""
    _, kb = fresh_kb()
    text = "\n".join('(InheritanceLink (stv 0.9 0.9) (ConceptNode "a%d") '
                     '(ConceptNode "b%d"))' % (i, i) for i in range(1000))
    gc.disable()
    try:
        gc.collect()
        load_kb(kb, text)
        parse_atom(kb, '(InheritanceLink (ConceptNode "a1") (ConceptNode "b1"))')
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_parse_atom_rejects_multiple_forms():
    _, kb = fresh_kb()
    with pytest.raises(SexprError):
        parse_atom(kb, '(ConceptNode "a") (ConceptNode "b")')


def test_comments_and_whitespace():
    _, kb = fresh_kb()
    top = load_kb(kb, '; leading comment\n  (ConceptNode "a") ; trailing\n\n')
    assert len(top) == 1


def test_error_reports_line_number():
    _, kb = fresh_kb()
    with pytest.raises(SexprError) as err:
        load_kb(kb, '(ConceptNode "ok")\n(BogusLink (ConceptNode "x"))')
    assert err.value.line == 2
    assert "line 2" in str(err.value)


def test_unterminated_string():
    _, kb = fresh_kb()
    with pytest.raises(SexprError):
        load_kb(kb, '(ConceptNode "oops)')


def test_missing_close_paren():
    _, kb = fresh_kb()
    with pytest.raises(SexprError):
        load_kb(kb, '(InheritanceLink (ConceptNode "a")')


def test_node_needs_name_and_link_rejects_name():
    _, kb = fresh_kb()
    with pytest.raises(SexprError):
        load_kb(kb, "(ConceptNode)")
    with pytest.raises(SexprError):
        load_kb(kb, '(ListLink "name")')


def test_bare_symbol_rejected():
    _, kb = fresh_kb()
    with pytest.raises(SexprError):
        load_kb(kb, "(ConceptNode sparrow)")


def test_bad_stv_arity():
    _, kb = fresh_kb()
    with pytest.raises(SexprError):
        load_kb(kb, '(ConceptNode (stv 0.5) "a")')


def test_format_round_trip():
    _, kb = fresh_kb()
    src = ('(ImplicationLink (stv 0.7 0.9) (PredicateNode "apple") '
           '(PredicateNode "green"))')
    atom = load_kb(kb, src)[0]
    text = format_atom(kb, atom, with_tv=True)
    _, kb2 = fresh_kb()
    atom2 = load_kb(kb2, text)[0]
    assert format_atom(kb2, atom2, with_tv=True) == text
    tv = kb2.get_tv(atom2)
    assert tv.strength.value == pytest.approx(0.7)
    assert tv.confidence == pytest.approx(0.9)


def test_format_without_tv():
    _, kb = fresh_kb()
    atom = load_kb(kb, '(ConceptNode "sparrow")')[0]
    assert format_atom(kb, atom) == '(ConceptNode "sparrow")'


def test_lambda_implication_normalized():
    _, kb = fresh_kb()
    src = """
    (ImplicationLink (stv 0.7 0.9)
        (LambdaLink (VariableNode "$X")
            (EvaluationLink (PredicateNode "apple") (VariableNode "$X")))
        (LambdaLink (VariableNode "$X")
            (EvaluationLink (PredicateNode "green") (VariableNode "$X"))))
    """
    top = load_kb(kb, src)[0]
    atom = kb.atom(top)
    assert atom.type.name == "ImplicationLink"
    kinds = [kb.type_of(o) for o in atom.outgoing]
    assert kinds == ["PredicateNode", "PredicateNode"]
    assert kb.get_tv(top).strength.value == pytest.approx(0.7)


def test_abbreviated_implication_untouched():
    _, kb = fresh_kb()
    top = load_kb(kb, '(ImplicationLink (PredicateNode "a") '
                      '(PredicateNode "b"))')[0]
    atom = kb.atom(top)
    assert [kb.type_of(o) for o in atom.outgoing] == \
        ["PredicateNode", "PredicateNode"]


# -- property: load, format, load -------------------------------------------

_NODE_TYPES = [name for name, t in TYPES.items() if t.is_node]
_LINK_TYPES = [name for name, t in TYPES.items() if not t.is_node]
# a quoted name holds anything but the quote and a line break
_NAMES = st.text(st.characters(blacklist_characters='"\n'), max_size=6)
_STV = st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))


def _form(head, args, stv):
    if stv is not None:
        args = ["(stv %r %r)" % stv] + args
    return "(%s)" % " ".join([head] + args)


_ATOM = st.recursive(
    st.builds(lambda t, name, stv: _form(t, ['"%s"' % name], stv),
              st.sampled_from(_NODE_TYPES), _NAMES, _STV),
    lambda children: st.builds(_form, st.sampled_from(_LINK_TYPES),
                               st.lists(children, max_size=3), _STV),
    max_leaves=8)


def _shape(kb, atom_id):
    atom = kb.atom(atom_id)
    if atom.type.is_node:
        return (atom.type.name, atom.name)
    return (atom.type.name,) + tuple(_shape(kb, o) for o in atom.outgoing)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ATOM, min_size=1, max_size=6))
def test_load_format_load_round_trip(forms):
    """Formatting the loaded top-level atoms and loading that text again
    gives the same atoms, with the same truth values to format precision."""
    _, kb = fresh_kb()
    top = load_kb(kb, "\n".join(forms))
    _, again = fresh_kb()
    top2 = load_kb(again, "\n".join(format_atom(kb, a, with_tv=True) for a in top))
    assert [_shape(again, a) for a in top2] == [_shape(kb, a) for a in top]
    for a, b in zip(top, top2):
        tv, tv2 = kb.get_tv(a), again.get_tv(b)
        assert tv2.strength.value == pytest.approx(tv.strength.value, rel=1e-8)
        assert tv2.confidence == pytest.approx(tv.confidence, rel=1e-8)
