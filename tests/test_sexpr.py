import gc
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpln import SexprError, format_atom, load_kb, parse_atom
from dpln.atomspace import TYPES
from dpln.autodiff import VarRef
from dpln.sexpr import MAX_DEPTH

import sexpr_reference as reference
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
        assert kb.atom(atom_id).type.name == "InheritanceLink"
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
    assert kb.atom(atom).type.name == "EvaluationLink"
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
    """The loader holds no reference cycle, so what it builds while reading
    a large KB is freed as soon as loading ends, without a garbage collection."""
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
    with pytest.raises(SexprError, match="^line 1: expected exactly one form$"):
        parse_atom(kb, '(ConceptNode "a") (ConceptNode "b")')


@pytest.mark.parametrize("text, line", [
    ('(ConceptNode "a")\n; a comment\n  (ConceptNode "b")', 3),
    ('(ListLink\n(ConceptNode "a"))\n(ConceptNode "b")', 3)])
def test_parse_atom_names_the_line_of_the_second_form(text, line):
    _, kb = fresh_kb()
    with pytest.raises(SexprError, match="^line %d: expected exactly one "
                       "form$" % line):
        parse_atom(kb, text)


def test_second_truth_value_in_a_form_is_rejected():
    """Two (stv ...) in one form are an error, as two names are, raised at
    the second one's line; the last one no longer wins."""
    _, kb = fresh_kb()
    with pytest.raises(SexprError, match="^line 2: multiple truth values "
                       "in one form$"):
        load_kb(kb, '(ConceptNode (stv 0.5 0.5)\n(stv 0.7 0.7) "a")')
    with pytest.raises(SexprError, match="^line 1: multiple truth values "
                       "in one form$"):
        load_kb(kb, '(ListLink (ConceptNode "a") (stv 0.5 0.5) (stv 0.5 0.5))')
    # one per form is fine: the child's and the parent's are separate
    top = load_kb(kb, '(ListLink (stv 0.5 0.5) (ConceptNode (stv 0.7 0.7) "b"))')
    assert kb.get_tv(kb.atom(top[0]).outgoing[0]).strength.value == 0.7


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
    kinds = [kb.atom(o).type.name for o in atom.outgoing]
    assert kinds == ["PredicateNode", "PredicateNode"]
    assert kb.get_tv(top).strength.value == pytest.approx(0.7)


def test_abbreviated_implication_untouched():
    _, kb = fresh_kb()
    top = load_kb(kb, '(ImplicationLink (PredicateNode "a") '
                      '(PredicateNode "b"))')[0]
    atom = kb.atom(top)
    assert [kb.atom(o).type.name for o in atom.outgoing] == \
        ["PredicateNode", "PredicateNode"]


def test_a_paren_where_the_type_symbol_belongs():
    _, kb = fresh_kb()
    with pytest.raises(SexprError,
                       match=r"^line 1: expected a type symbol after '\('$"):
        load_kb(kb, "((")


@pytest.mark.parametrize("body", [
    '(InheritanceLink (VariableNode "$X") (ConceptNode "fruit"))',
    '(EvaluationLink (PredicateNode "green"))',
    '(EvaluationLink (ConceptNode "green") (VariableNode "$X"))',
    '(EvaluationLink (PredicateNode "green") (ConceptNode "c"))',
    '(EvaluationLink (PredicateNode "green") (VariableNode "$Y"))',
])
def test_lambda_implication_of_another_body_loads_unchanged(body):
    """An implication of lambdas is abbreviated only when each body is a
    binary EvaluationLink of a PredicateNode applied to its lambda's
    variable; one of another body is asserted as written."""
    _, kb = fresh_kb()
    src = ('(ImplicationLink (LambdaLink (VariableNode "$X") (EvaluationLink '
           '(PredicateNode "apple") (VariableNode "$X"))) (LambdaLink '
           '(VariableNode "$X") %s))' % body)
    top = load_kb(kb, src.replace("(ImplicationLink",
                                  "(ImplicationLink (stv 0.7 0.9)", 1))[0]
    assert top == parse_atom(kb, src)
    assert format_atom(kb, top) == format_atom(kb, parse_atom(kb, src))
    assert kb.get_tv(top).confidence == 0.9


def test_lambda_implication_of_a_non_variable_loads_unchanged():
    """A lambda that binds a ConceptNode abbreviates nothing."""
    _, kb = fresh_kb()
    src = ('(ImplicationLink (LambdaLink (ConceptNode "k") (EvaluationLink '
           '(PredicateNode "apple") (VariableNode "$X"))) (LambdaLink '
           '(VariableNode "$X") (EvaluationLink (PredicateNode "green") '
           '(VariableNode "$X"))))')
    top = load_kb(kb, src)[0]
    assert format_atom(kb, top) == src


def test_query_abbreviates_a_lambda_implication_as_load_kb_does():
    """A query in the long form is the fact in the short form, so
    ``chain --target`` finds it either way."""
    _, kb = fresh_kb()
    short = '(ImplicationLink (PredicateNode "apple") (PredicateNode "green"))'
    long = ('(ImplicationLink (LambdaLink (VariableNode "$X") (EvaluationLink '
            '(PredicateNode "apple") (VariableNode "$X"))) (LambdaLink '
            '(VariableNode "$Y") (EvaluationLink (PredicateNode "green") '
            '(VariableNode "$Y"))))')
    fact = load_kb(kb, short)[0]
    assert parse_atom(kb, long) == parse_atom(kb, short) == fact


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


# -- oracle: the loader before the one-pass rewrite -------------------------
#
# tests/sexpr_reference.py is the tokenizer, recursive parser and recursive
# builder that the one pass replaced.  On valid text both must build the same
# KB; on text with one error both must raise the same message at the same line.

def _snapshot(kb, ids):
    """Everything a load can write: the returned ids, the atom table with
    each atom's groundness and incoming set, the type index, the asserted
    truth values and every tape value, all compared exactly."""
    atoms = [(a.type.name, a.name, a.outgoing, a.is_ground, kb.incoming_of[i])
             for i, a in enumerate(map(kb.atom, range(len(kb))))]
    by_type = {name: list(kb.atoms_of_type(name)) for name in TYPES}
    tvs = {i: (kb.get_tv(i).strength.index, kb.get_tv(i).strength.value,
               kb.get_tv(i).confidence)
           for i in range(len(kb)) if kb.has_asserted_tv(i)}
    return (ids, atoms, by_type, tvs,
            [VarRef(kb.tape, i).value for i in range(len(kb.tape))])


def _outcome(loader, text):
    """The snapshot after ``loader``, or the SexprError it raised."""
    _, kb = fresh_kb()
    try:
        ids = loader(kb, text)
    except SexprError as exc:
        return str(exc)
    return _snapshot(kb, ids)


_LAMBDA_IMPL = ('(ImplicationLink (stv 0.7 0.9) (LambdaLink (VariableNode "$X") '
                '(EvaluationLink (PredicateNode "p") (VariableNode "$X"))) '
                '(LambdaLink (VariableNode "$X") (EvaluationLink '
                '(PredicateNode "q") (VariableNode "$X"))))')
_VALID_FORM = _ATOM | st.sampled_from([
    _LAMBDA_IMPL, '(ConceptNode "a;b")', '(PredicateNode ";")',
    '(ConceptNode "x\r\u2028y")', '(ConceptNode (stv 1 0) "\t")',
    '( ConceptNode "a" )', '(ConceptNode"a")',
    '(ListLink (stv 0.5\t0.9) (ConceptNode "a"))'])
# whitespace inside forms (it also lands in names, the same for both loaders)
_SPACE = st.sampled_from([" ", "\t", "\r", "\u2028", " \x0b\x1c"])
# what may separate top-level forms
_GAP = st.sampled_from(["\n", " ", "\r\n", "\n\n", '  ; (note "x\n',
                        "\t;;\n", "\u2028\n", ""])


def _join(forms, gaps):
    return gaps[0] + "".join(f + g for f, g in zip(forms, gaps[1:]))


@st.composite
def _kb_text(draw, forms=st.lists(_VALID_FORM, min_size=1, max_size=6)):
    forms = draw(forms)
    space = draw(_SPACE)
    gaps = draw(st.lists(_GAP, min_size=len(forms) + 1,
                         max_size=len(forms) + 1))
    return _join([f.replace(" ", space) for f in forms], gaps)


def _no_stv(text):
    return re.sub(r"\(stv [^()\"]*\)", "", text)


@settings(max_examples=200, deadline=None)
@given(_kb_text())
def test_valid_kb_loads_as_the_reference_does(text):
    assert _outcome(load_kb, text) == _outcome(reference.load_kb, text)


def _ladder_kb_text():
    """730 forms shaped like a large KB: 20 ladders of 4 InheritanceLinks
    over ConceptNodes that carry truth values, then 500 EvaluationLink and
    50 ImplicationLink facts whose 30 PredicateNodes recur across lines."""
    rng = random.Random(5)

    def stv():
        return "(stv %.4f 0.9)" % rng.uniform(0.05, 0.95)

    lines = []
    for k in range(20):
        names = ["L%d-%d" % (k, i) for i in range(5)]
        lines += ['(ConceptNode %s "%s")' % (stv(), n) for n in names]
        lines += ['(InheritanceLink %s (ConceptNode "%s") (ConceptNode "%s"))'
                  % (stv(), a, b) for a, b in zip(names, names[1:])]
    lines += ['(EvaluationLink %s (PredicateNode "p%d") (ConceptNode "E%d"))'
              % (stv(), rng.randrange(30), j) for j in range(500)]
    lines += ['(ImplicationLink %s (PredicateNode "p%d") (PredicateNode "p%d"))'
              % (stv(), rng.randrange(30), rng.randrange(30)) for _ in range(50)]
    return "\n".join(lines) + "\n"


def test_a_large_kb_loads_as_the_reference_does():
    """The loader's unchecked interning builds what the reference's public
    interning builds, at a scale where names recur, well inside 1 s (a load
    takes milliseconds)."""
    text = _ladder_kb_text()
    start = time.perf_counter()
    got = _outcome(load_kb, text)
    elapsed = time.perf_counter() - start
    assert got == _outcome(reference.load_kb, text)
    assert len(got[0]) == 730
    assert elapsed < 1.0


@settings(max_examples=100, deadline=None)
@given(_VALID_FORM, _SPACE)
def test_query_parses_as_the_reference_does(form, space):
    """With or without (stv ...): with, both raise at the first one."""
    for text in (form.replace(" ", space), _no_stv(form)):
        assert _outcome(parse_atom, text) == _outcome(reference.parse_atom, text)


# Forms with exactly one error.  "any" forms may also sit inside a link;
# "top" ones are errors only at top level; "end" ones only at the end.
_BAD_FORMS = [
    ("any", '(BogusLink (ConceptNode "a"))'),
    ("any", '(ConceptNode)'),
    ("any", '(ConceptNode "a"\n(ConceptNode "b"))'),
    ("any", '(ListLink "a" (ConceptNode "b"))'),
    ("any", '(ConceptNode "a" "b")'),
    ("any", '(ConceptNode a)'),
    ("any", '(ConceptNode (stv 0.5) "a")'),
    ("any", '(ConceptNode (stv 0.5 0.5 0.5) "a")'),
    ("any", '(ConceptNode (stv x 0.5) "a")'),
    ("any", '(ConceptNode\n(stv 1.5 0.5) "a")'),
    ("any", '(ConceptNode (stv nan 0.5) "a")'),
    ("any", '(ConceptNode (stv "a" 0.5) "a")'),
    ("any", '(ConceptNode (stv (ConceptNode "b") 0.5) "a")'),
    ("any", '((ConceptNode "a"))'),
    ("any", '((stv 0.5 0.5))'),
    ("any", '(ConceptNode (stv 1.5 0.5) "a")'),
    ("any", '(ConceptNode (stv (stv 0.5 0.5) 0.5) "a")'),
    ("any", '("a")'),
    ("any", '(\n)'),
    ("any", '(ConceptNode "a)\n'),
    ("any", "(ListLink " * MAX_DEPTH + '(ConceptNode "a")' + ")" * MAX_DEPTH),
    ("top", "(stv 0.5 0.5)"),
    ("top", ")"),
    ("top", '"x"'),
    ("top", "x"),
    ("end", '(ListLink (ConceptNode "a")'),
    ("end", "(ListLink\n  ("),
    ("end", "("),
]


@st.composite
def _one_error(draw, query=False):
    """Text with one error: a bad form, maybe inside a link among valid
    children, and (for a KB) valid forms before and after it."""
    where, bad = draw(st.sampled_from(_BAD_FORMS))
    valid = _VALID_FORM.map(_no_stv) if query else _VALID_FORM
    if where == "any" and draw(st.booleans()):
        gaps = draw(st.lists(_GAP, min_size=2, max_size=2))
        before, after = draw(st.lists(valid, max_size=2)), draw(
            st.lists(valid, max_size=2))
        bad = "(ListLink %s%s%s%s)" % (" ".join(before), gaps[0], bad,
                                       gaps[1] + " ".join(after))
    if query:
        return bad
    forms = draw(st.lists(_VALID_FORM, max_size=3))
    forms.append(bad)
    if where != "end":
        forms += draw(st.lists(_VALID_FORM, max_size=3))
    gaps = draw(st.lists(_GAP, min_size=len(forms) + 1,
                         max_size=len(forms) + 1))
    if where == "end":
        gaps[-1] = ""
    return _join(forms, gaps)


@settings(max_examples=300, deadline=None)
@given(_one_error())
def test_one_error_is_reported_as_the_reference_does(text):
    message = _outcome(reference.load_kb, text)
    assert isinstance(message, str)
    assert _outcome(load_kb, text) == message


@settings(max_examples=150, deadline=None)
@given(_one_error(query=True))
def test_one_query_error_is_reported_as_the_reference_does(text):
    message = _outcome(reference.parse_atom, text)
    assert isinstance(message, str)
    assert _outcome(parse_atom, text) == message


_SOUP = st.lists(st.sampled_from([
    "(", ")", " ", "\n", "\t", "\r", "\u2028", ";", '"', '"a"', '"$P"',
    "stv", "0.5", "1", "-1", "nan", "1e999", "(stv 0.5 0.5)", "ConceptNode",
    "PredicateNode", "VariableNode", "EvaluationLink", "ImplicationLink",
    "InheritanceLink", "LambdaLink", "NotLink", "AndLink", "ListLink",
    "BindLink"]), max_size=40).map("".join) | st.text(max_size=60)


@settings(max_examples=400, deadline=None)
@given(_SOUP)
def test_token_soup_raises_iff_the_reference_does(text):
    """Any text: the loader raises iff the reference does, and only a
    SexprError (checked by ``_outcome``); what loads is the same.  The one
    exception is a second (stv ...) in a form, where the reference let the
    last one win."""
    for loader, ref in ((load_kb, reference.load_kb),
                        (parse_atom, reference.parse_atom)):
        got, want = _outcome(loader, text), _outcome(ref, text)
        if isinstance(got, str) and got.endswith(
                "multiple truth values in one form"):
            continue
        assert isinstance(got, str) == isinstance(want, str)
        if not isinstance(got, str):
            assert got == want
