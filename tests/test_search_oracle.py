"""The backward search against ``prover_reference``, the plain recursion
that specifies its proofs and their order."""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dpln import ChainConfig, chainer, load_kb, make_rule_set, parse_atom
from dpln.chainer import Leaf

from conftest import fresh_kb
from prover_reference import Reference, chainer_proof, term

_CONCEPTS = ['(ConceptNode "c%d")' % i for i in range(3)]
_PREDICATES = ['(PredicateNode "p%d")' % i for i in range(2)]
_EVALS = ['(EvaluationLink %s %s)' % (p, c) for p in _PREDICATES for c in _CONCEPTS]
# every fact a rule of make_rule_set or the pair rule reads, cycles allowed;
# evaluations, which modus ponens and the connectives read, drawn most often
_FACT_TEXTS = (['(InheritanceLink %s %s)' % (a, b) for a in _CONCEPTS for b in _CONCEPTS]
               + _EVALS * 3 + ['(NotLink %s)' % e for e in _EVALS]
               + ['(ImplicationLink %s %s)' % (p, q) for p in _PREDICATES
                  for q in _PREDICATES])
# $T and $V are the target's own; the others are also variables of a rule:
# modus ponens' $P and $X, negation's $CA, deduction's $DY, the pair rule's $A
_VARIABLE_NAMES = ["$T", "$V", "$P", "$X", "$CA", "$DY", "$A"]
_KINDS = ["InheritanceLink", "EvaluationLink", "ImplicationLink", "AndLink", "OrLink",
          "NotLink", "ListLink"]


@st.composite
def _target(draw, names, nesting=2, kinds=tuple(_KINDS)):
    """A link whose argument places hold a node or one of ``names``; an
    operand of a connective or a ListLink may be, within ``nesting``,
    another such link, most often an evaluation: up to two variables,
    repeats and nesting allowed."""
    def place(pool):
        kind = draw(st.sampled_from(["variable", "pool"]
                                    + ["link"] * (nesting > 0 and pool is _EVALS) * 2))
        if kind == "variable":
            return '(VariableNode "%s")' % draw(st.sampled_from(names))
        if kind == "link":
            return draw(_target(names, nesting - 1, _KINDS + ["EvaluationLink"] * 5))
        return draw(st.sampled_from(pool))
    kind = draw(st.sampled_from(kinds))
    if kind == "InheritanceLink":
        args = [place(_CONCEPTS), place(_CONCEPTS)]
    elif kind == "EvaluationLink":
        args = [place(_PREDICATES), place(_CONCEPTS)]
    elif kind == "ImplicationLink":
        args = [place(_PREDICATES), place(_PREDICATES)]
    else:
        args = [place(_EVALS) for _ in range(1 if kind == "NotLink" else 2)]
    return "(%s %s)" % (kind, " ".join(args))


_EVAL = '(EvaluationLink %s %s)'
_V = '(VariableNode "%s")'
# nested and repeated shapes a random target seldom proves: a variable
# inside an operand, the rule's own name there, a repeat across operands
_SHAPES = ['(NotLink %s)' % (_EVAL % (_PREDICATES[0], _V % "$V")),
           '(NotLink %s)' % (_EVAL % (_V % "$P", _CONCEPTS[0])),
           '(NotLink %s)' % (_EVAL % (_V % "$CA", _V % "$X")),
           '(AndLink %s %s)' % (_EVAL % (_PREDICATES[0], _V % "$V"),
                                _EVAL % (_PREDICATES[1], _V % "$V")),
           '(OrLink %s %s)' % (_EVAL % (_V % "$CB", _CONCEPTS[1]), _V % "$CA"),
           '(ListLink %s %s)' % (_V % "$T", _V % "$T"),
           '(ListLink %s %s)' % (_EVAL % (_PREDICATES[0], _V % "$A"), _V % "$A"),
           '(ListLink %s %s)' % ((_EVAL % (_PREDICATES[0], _V % "$V"),) * 2),
           '(ListLink %s %s)' % (_V % "$V", _EVAL % (_PREDICATES[0], _V % "$V")),
           '(ListLink (NotLink %s) %s)' % (_EVAL % (_V % "$P", _CONCEPTS[0]), _V % "$T")]


@st.composite
def _case(draw):
    names = draw(st.lists(st.sampled_from(_VARIABLE_NAMES), min_size=1, max_size=2,
                          unique=True))
    facts = draw(st.lists(st.tuples(st.sampled_from(_FACT_TEXTS),
                                    st.sampled_from([0.2, 0.5, 0.9])),
                          min_size=3, max_size=10, unique_by=lambda f: f[0]))
    target = draw(st.one_of(_target(names), st.sampled_from(_SHAPES)))
    return facts, target, draw(st.integers(1, 3))


def _kb(facts):
    """Valued c0-c2, each fact at confidence 0.9, make_rule_set and the pair
    rule of ``test_chainer._nested_kb``: ListLink($A, $A) from the premise $A."""
    _, kb = fresh_kb()
    load_kb(kb, "".join('(ConceptNode (stv %s 0.9) "c%d")\n' % (s, i)
                        for i, s in enumerate([0.3, 0.5, 0.8])) + "".join(
        "%s (stv %s 0.9) %s\n" % (text.split(" ", 1)[0], s, text.split(" ", 1)[1])
        for text, s in facts))
    a = kb.node("VariableNode", "$A")
    pair = chainer.Rule(kb, name="pair", variables=[(a, None)], premises=[a],
                        conclusion=kb.link("ListLink", a, a),
                        formula=lambda inputs: inputs[0])
    return kb, make_rule_set(kb) + [pair]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_case())
# a typed variable a rule binds in its first premise: modus ponens' $P to a
# ConceptNode, and the conjunction's $CA to a fact of another type
@example(case=([('(ImplicationLink (ConceptNode "c0") (PredicateNode "p1"))', 0.9),
                ('(EvaluationLink (ConceptNode "c0") (ConceptNode "c1"))', 0.5),
                ('(ImplicationLink (PredicateNode "p0") (PredicateNode "p1"))', 0.2),
                ('(EvaluationLink (PredicateNode "p0") (ConceptNode "c1"))', 0.9)],
               '(EvaluationLink (PredicateNode "p1") (ConceptNode "c1"))', 1))
@example(case=([('(InheritanceLink (ConceptNode "c0") (ConceptNode "c1"))', 0.9),
                ('(EvaluationLink (PredicateNode "p0") (ConceptNode "c1"))', 0.5)],
               '(AndLink (VariableNode "$T") (VariableNode "$V"))', 1))
def test_prove_equals_the_reference_prover(case):
    """On small random KBs, cycles allowed, at depths 1-3, for targets with
    up to two variables, repeated, nested or named as a rule's own: ``prove``
    gives the reference's proofs in its order, with the same target
    bindings, rule names, rule bindings, conclusions, terms and leaves; each
    replays to the reference's strength; a ground target's ``first_proofs``
    trace is its first derivation, else its fact, else None; and the KB's
    asserted atoms and their strengths are unchanged."""
    facts, text, depth = case
    kb, rules = _kb(facts)
    target = parse_atom(kb, text)
    asserted = {a: tv.strength.value for a, tv in kb.tvs.items()}
    expected = Reference(kb, rules).proofs(term(kb, target), depth)
    config = ChainConfig(max_depth=depth)
    (got,) = chainer.prove(kb, rules, [target], config)
    assert [({("?", kb.atom(v).name): term(kb, a) for v, a in b.items()},
             chainer_proof(kb, t)) for b, t in got] == [
        (b, proof) for b, proof, _ in expected]
    memo: dict = {}
    assert [t.replay(kb, memo).value for _, t in got] == [s for _, _, s in expected]
    if kb.atom(target).is_ground:
        (first,) = chainer.first_proofs(kb, rules, [target], config)
        proofs = [proof for _, proof, _ in expected]
        derived = [p for p in proofs if p[0] != "leaf"]
        assert (None if first is None else chainer_proof(kb, first)) == (
            derived[0] if derived else proofs[0] if proofs else None)
        assert first is None or type(first) is Leaf or first == next(
            t for _, t in got if type(t) is not Leaf)
    assert {a: tv.strength.value for a, tv in kb.tvs.items()} == asserted
