import functools
import itertools
import math
import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpln import (ChainConfig, ChainError, Derivation, Leaf,
                  MatchError, TruthValue, UnknownAtomError, apply_rule,
                  backward_chain, format_atom, forward_chain, load_kb,
                  make_deduction_rule, make_modus_ponens_rule, make_rule_set,
                  match, parse_atom, substitute, variables_in)
from dpln import AtomSpace, chainer, deduction_strength
from dpln.atomspace import DEFAULT_CONFIDENCE, DEFAULT_STRENGTH, TYPES
from dpln.chainer import MAX_SEARCH_DEPTH, Constant, Rule
from dpln.pattern import candidates

from conftest import (finite_diff_grads, fresh_kb, set_strength,
                      tall_implication_kb)

APPLE_KB = """
(ImplicationLink (stv 0.6 0.9)
    (PredicateNode "apple")
    (PredicateNode "green"))
(EvaluationLink (stv 1.0 1.0)
    (PredicateNode "apple")
    (ConceptNode "apple-001"))
"""

SPARROW_KB = """
(InheritanceLink (stv 1.0 1.0) (ConceptNode "sparrow") (ConceptNode "bird"))
(InheritanceLink (stv 1.0 1.0) (ConceptNode "bird") (ConceptNode "animal"))
"""


def _mp_binding(kb, rule):
    var_p, var_q, var_x = (v for v, _ in rule.variables)
    return {var_p: kb.node("PredicateNode", "apple"),
            var_q: kb.node("PredicateNode", "green"),
            var_x: kb.node("ConceptNode", "apple-001")}


def test_apply_rule_modus_ponens():
    _, kb = fresh_kb()
    load_kb(kb, APPLE_KB)
    rule = make_modus_ponens_rule(kb)
    conclusion, out, trace = apply_rule(kb, rule, _mp_binding(kb, rule))
    assert kb.atom(conclusion).type.name == "EvaluationLink"
    # P(A)=1 leaves only the P(B|A) term
    assert out.value == pytest.approx(0.6)
    assert kb.get_tv(conclusion).strength is out
    assert isinstance(trace, Derivation)
    assert len(trace.premises) == 2


def test_apply_rule_deduction_certainty():
    _, kb = fresh_kb()
    load_kb(kb, SPARROW_KB)
    rule = make_deduction_rule(kb)
    var_x, var_y, var_z = (v for v, _ in rule.variables)
    binding = {var_x: kb.node("ConceptNode", "sparrow"),
               var_y: kb.node("ConceptNode", "bird"),
               var_z: kb.node("ConceptNode", "animal")}
    conclusion, out, _ = apply_rule(kb, rule, binding)
    assert out.value == pytest.approx(1.0)
    names = [kb.atom(o).name for o in kb.atom(conclusion).outgoing]
    assert names == ["sparrow", "animal"]


def test_apply_rule_confidence_is_min_of_premises():
    _, kb = fresh_kb()
    load_kb(kb, APPLE_KB)
    rule = make_modus_ponens_rule(kb)
    conclusion, _, _ = apply_rule(kb, rule, _mp_binding(kb, rule))
    assert kb.get_tv(conclusion).confidence == pytest.approx(0.9)


def test_apply_rule_missing_binding():
    _, kb = fresh_kb()
    load_kb(kb, APPLE_KB)
    rule = make_modus_ponens_rule(kb)
    binding = _mp_binding(kb, rule)
    del binding[rule.variables[2][0]]  # drop $X
    with pytest.raises(ChainError):
        apply_rule(kb, rule, binding)


def test_apply_rule_and_substitute_check_the_binding_ids():
    """Both intern through the unchecked AtomSpace._link, yet a binding
    value the KB does not hold still raises UnknownAtomError, and the KB
    does not grow."""
    _, kb = fresh_kb()
    load_kb(kb, APPLE_KB)
    rule = make_modus_ponens_rule(kb)
    for bad in (len(kb), -1, 2.0, None):
        binding = _mp_binding(kb, rule)
        binding[rule.variables[2][0]] = bad  # $X
        size = len(kb)
        with pytest.raises(UnknownAtomError):
            apply_rule(kb, rule, binding)
        with pytest.raises(UnknownAtomError):
            substitute(kb, rule.premises[1], binding)
        assert len(kb) == size


def test_forward_chain_sparrow():
    _, kb = fresh_kb()
    load_kb(kb, SPARROW_KB)
    rule = make_deduction_rule(kb)
    new_atoms, traces = forward_chain(kb, [rule],
                                      ChainConfig(max_steps=10, seed=0))
    derived = {format_atom(kb, a) for a in new_atoms}
    assert ('(InheritanceLink (ConceptNode "sparrow") '
            '(ConceptNode "animal"))') in derived
    assert len(traces) == len(new_atoms)


def test_forward_chain_empty_kb():
    _, kb = fresh_kb()
    rule = make_deduction_rule(kb)
    new_atoms, traces = forward_chain(kb, [rule], ChainConfig(max_steps=5))
    assert new_atoms == [] and traces == []


def test_forward_chain_requires_rules():
    _, kb = fresh_kb()
    with pytest.raises(ChainError):
        forward_chain(kb, [], ChainConfig())


def test_forward_chain_transitive_closure():
    """Closure of a 3-link chain vs brute-force transitive closure."""
    _, kb = fresh_kb()
    names = ["a", "b", "c", "d"]
    load_kb(kb, "\n".join(
        '(InheritanceLink (stv 1.0 1.0) (ConceptNode "%s") (ConceptNode "%s"))'
        % (x, y) for x, y in zip(names, names[1:])))
    rule = make_deduction_rule(kb)
    new_atoms, _ = forward_chain(kb, [rule],
                                 ChainConfig(max_steps=50, seed=3))
    derived = set()
    for a in new_atoms:
        out = kb.atom(a).outgoing
        derived.add((kb.atom(out[0]).name, kb.atom(out[1]).name))

    edges = set(zip(names, names[1:]))
    closure = set(edges)
    while True:
        extra = {(x, z) for (x, y) in closure for (y2, z) in closure if y == y2}
        if extra <= closure:
            break
        closure |= extra
    assert derived == closure - edges
    assert derived == {("a", "c"), ("b", "d"), ("a", "d")}


def test_backward_query_leaves_forward_chain_as_on_a_fresh_kb():
    """A backward query interns atoms but asserts none, so no chainer reads
    them as facts: a depth-3 query for Inh(a, d), which interns Inh(a, c),
    Inh(b, d) and Inh(c, d) unproved, leaves a later forward_chain returning
    the atoms, and leaving every asserted truth value, it does on a fresh KB."""
    def forward(query_first):
        _, kb = fresh_kb()
        load_kb(kb, """
        (InheritanceLink (stv 0.9 0.8) (ConceptNode "a") (ConceptNode "b"))
        (InheritanceLink (stv 0.8 0.9) (ConceptNode "b") (ConceptNode "c"))
        (ConceptNode (stv 0.5 0.9) "d")
        """)
        rules = [make_deduction_rule(kb)]
        if query_first:
            target = parse_atom(kb, '(InheritanceLink (ConceptNode "a") '
                                    '(ConceptNode "d"))')
            size = len(kb)
            assert backward_chain(kb, rules, target, ChainConfig(max_depth=3)) == []
            assert len(kb) > size  # the query interned its subgoals
        new_atoms, _ = forward_chain(kb, rules, ChainConfig(max_steps=50, seed=0))
        return ([format_atom(kb, a) for a in new_atoms],
                sorted(format_atom(kb, a, with_tv=True) for a in kb.tvs))
    fresh = forward(False)
    assert fresh[0] == ['(InheritanceLink (ConceptNode "a") (ConceptNode "c"))']
    assert forward(True) == fresh


def test_forward_chain_determinism():
    def run(seed):
        _, kb = fresh_kb()
        load_kb(kb, SPARROW_KB)
        rules = make_rule_set(kb)
        new_atoms, _ = forward_chain(kb, rules,
                                     ChainConfig(max_steps=8, seed=seed))
        return [format_atom(kb, a, with_tv=True) for a in new_atoms]

    assert run(11) == run(11)


def _rematch_forward_chain(kb, rules, config):
    """The oracle for ``forward_chain``: the loop it had before it kept its
    pending list, re-matching every rule over the whole KB on every step."""
    rng = random.Random(config.seed)
    applied = set()
    new_atoms, traces = [], []
    for _ in range(config.max_steps):
        pending = []
        for ri, rule in enumerate(rules):
            for binding in match(kb, rule.variables, rule.premises):
                key = (ri, tuple(sorted(binding.items())))
                if key in applied:
                    continue
                pending.append((ri, binding, key))
        if not pending:
            break
        rng.shuffle(pending)
        ri, binding, key = pending[0]
        applied.add(key)
        asserted = len(kb.tvs)
        conclusion, _, trace = chainer.apply_rule(kb, rules[ri], binding)
        if len(kb.tvs) > asserted:
            new_atoms.append(conclusion)
            traces.append(trace)
    return new_atoms, traces


def _eager_forward_chain(kb, rules, config):
    """The oracle for ``forward_chain``'s lazy first step: its loop with an
    eager pool, a list of every (rule, binding) pair the first step's
    whole-query matches give, drawn by swapping with the last entry."""
    rng = random.Random(config.seed)
    feeds = [{dict(rule.variables).get(p) if kb.atom(p).type.name == "VariableNode"
              else kb.atom(p).type.name for p in rule.premises} for rule in rules]
    pending, new_atoms, traces = [], [], []
    fresh = None  # the atom the last firing asserted for the first time
    for step in range(config.max_steps):
        for ri, rule in enumerate(rules):
            if step == 0 or fresh is not None and feeds[ri] & {
                    None, kb.atoms[fresh].type.name}:
                pending.extend((ri, b) for b in match(
                    kb, rule.variables, rule.premises, fresh))
        if not pending:
            break
        i = rng.randrange(len(pending))
        pending[i], pending[-1] = pending[-1], pending[i]
        ri, binding = pending.pop()
        asserted = len(kb.tvs)
        conclusion, _, trace = chainer.apply_rule(kb, rules[ri], binding)
        fresh = conclusion if len(kb.tvs) > asserted else None
        if fresh is not None:
            new_atoms.append(conclusion)
            traces.append(trace)
    return new_atoms, traces


# Modus ponens derives Eval(q, x), Eval(r, x) and Eval(r, y), which the
# connective rules then combine, and re-derives the asserted Eval(q, y);
# deduction closes a -> b -> c -> d and re-derives the asserted Inh(a, c).
CLOSURE_KB = """
(InheritanceLink (stv 0.9 0.8) (ConceptNode "a") (ConceptNode "b"))
(InheritanceLink (stv 0.8 0.9) (ConceptNode "b") (ConceptNode "c"))
(InheritanceLink (stv 0.7 0.7) (ConceptNode "c") (ConceptNode "d"))
(InheritanceLink (stv 0.6 0.9) (ConceptNode "a") (ConceptNode "c"))
(ConceptNode (stv 0.5 0.9) "b")
(ConceptNode (stv 0.4 0.9) "c")
(ImplicationLink (stv 0.9 0.9) (PredicateNode "p") (PredicateNode "q"))
(ImplicationLink (stv 0.7 0.8) (PredicateNode "q") (PredicateNode "r"))
(EvaluationLink (stv 0.8 0.9) (PredicateNode "p") (ConceptNode "x"))
(EvaluationLink (stv 0.6 0.9) (PredicateNode "p") (ConceptNode "y"))
(EvaluationLink (stv 0.5 0.5) (PredicateNode "q") (ConceptNode "y"))
"""


@pytest.mark.parametrize("duplicated", [False, True])
def test_forward_chain_equals_full_rematch(monkeypatch, duplicated):
    """The kept pool fires only pairs a full re-match of the KB offers at
    that step, each (rule, binding) pair once; when it runs empty a full
    re-match offers no unfired pair, and the fired keys and new atoms are
    those of re-matching everything on every step.  ``duplicated`` adds a
    second deduction rule and two trainable modus ponens rules, both named
    "trainable-modus-ponens": rules that share a name still fire apart."""
    fired = []
    apply = chainer.apply_rule

    def recording(kb, rule, binding):
        assert binding in list(match(kb, rule.variables, rule.premises))
        key = (rule, tuple(sorted(binding.items())))
        assert key not in fired
        fired.append(key)
        return apply(kb, rule, binding)
    monkeypatch.setattr(chainer, "apply_rule", recording)

    def run(chain, seed):
        _, kb = fresh_kb()
        load_kb(kb, CLOSURE_KB)
        rules = make_rule_set(kb)
        if duplicated:
            rules += [make_deduction_rule(kb)] + [
                make_modus_ponens_rule(kb, weights=[kb.tape.parameter(0.0) for _ in range(4)])
                for _ in range(2)]
        fired.clear()
        new_atoms, traces = chain(kb, rules, ChainConfig(max_steps=200, seed=seed))
        assert len(fired) < 200  # the list ran empty
        offered = {(rule, tuple(sorted(binding.items())))
                   for rule in rules
                   for binding in match(kb, rule.variables, rule.premises)}
        assert offered == set(fired)
        assert [t.conclusion for t in traces] == new_atoms
        text = functools.partial(format_atom, kb)
        keys = {(rules.index(rule), frozenset((text(v), text(a)) for v, a in binding))
                for rule, binding in fired}
        return keys, {text(a) for a in new_atoms}, kb, new_atoms, len(fired)

    for seed in range(5):
        keys, shapes, kb, new_atoms, firings = run(_rematch_forward_chain, seed)
        assert run(chainer.forward_chain, seed)[:2] == (keys, shapes)
        # the KB exercises what the kept pool must get right
        assert firings > len(new_atoms)  # some firings re-derived an atom
        assert '(InheritanceLink (ConceptNode "a") (ConceptNode "d"))' in shapes
        derived_evals = {a for a in new_atoms
                         if kb.atom(a).type.name == "EvaluationLink"}
        assert len(derived_evals) == 3
        assert any(kb.atom(a).type.name == "AndLink"
                   and set(kb.atom(a).outgoing) <= derived_evals
                   for a in new_atoms)


def _independent(kb, rule):
    """Whether no two of the rule's premises share a variable."""
    found = [variables_in(kb, p) for p in rule.premises]
    return sum(map(len, found)) == len(set().union(*found))


def test_forward_chain_matches_only_rules_a_new_atom_can_feed(monkeypatch):
    """After the first step matches every rule, a step matches a rule's delta
    only if the atom the last firing asserted first, ``new``, has a type one
    of its premises can take: a link's own type, a bare variable's declared
    one, or any for an untyped bare variable.  Every delta it skips is
    empty.  Most firings on CLOSURE_KB assert an AndLink, OrLink or NotLink,
    which only the added rule's untyped premise takes, so most rules are
    skipped."""
    calls, firings = [], []
    real_match, real_apply = chainer.match, chainer.apply_rule

    def matching(kb, variables, clauses, new=None):
        calls.append((variables, clauses, new))
        return real_match(kb, variables, clauses, new)

    def applying(kb, rule, binding):
        step = calls[firings[-1][1] if firings else 0:]
        if step:  # the rules this step skipped had nothing to add
            new, called = step[-1][2], {tuple(c) for _, c, _ in step}
            assert all(real_match(kb, r.variables, r.premises, new) == []
                       for r in rules if tuple(r.premises) not in called
                       and not {(p,) for p in r.premises} <= called)
        firings.append((rule, len(calls)))
        return real_apply(kb, rule, binding)
    monkeypatch.setattr(chainer, "match", matching)
    monkeypatch.setattr(chainer, "apply_rule", applying)
    _, kb = fresh_kb()
    load_kb(kb, CLOSURE_KB)
    p, q, v = (kb.node("VariableNode", n) for n in ("$P", "$Q", "$V"))
    rules = make_rule_set(kb) + [chainer.Rule(
        kb, name="list-any", variables=[(p, "PredicateNode"), (q, None), (v, None)],
        premises=[kb.link("ImplicationLink", p, q), v],
        conclusion=kb.link("ListLink", p, v), formula=lambda inputs: inputs[0])]
    forward_chain(kb, rules, ChainConfig(max_steps=200, seed=3))

    def premise_types(variables, clauses):
        typed = dict(variables)
        return {typed.get(c) if kb.atom(c).type.name == "VariableNode"
                else kb.atom(c).type.name for c in clauses}
    # the first step matches each premise of a rule whose premises share no
    # variable on its own, and any other rule whole
    first = [c for r in rules for c in (
        [(p,) for p in r.premises] if _independent(kb, r) else [tuple(r.premises)])]
    assert [(tuple(c), new) for _, c, new in calls[:len(first)]] == [
        (c, None) for c in first]
    for variables, clauses, new in calls[len(first):]:
        assert new is not None and premise_types(variables, clauses) & {
            kb.atom(new).type.name, None}
    assert len(calls) < len(rules) * len(firings) / 2
    assert rules[-1] in {rule for rule, _ in firings}


def test_forward_chain_checks_every_rule_on_its_first_step():
    """A premise variable missing from the rule's variables still raises
    MatchError, even where no atom in the KB has the premise's type: the
    first step matches every rule through the checked ``match``."""
    _, kb = fresh_kb()
    load_kb(kb, SPARROW_KB)
    x, y = kb.node("VariableNode", "$X"), kb.node("VariableNode", "$Y")
    undeclared = chainer.Rule(
        kb, name="undeclared", variables=[(x, None)],
        premises=[kb.link("ListLink", x, y)],
        conclusion=kb.link("InheritanceLink", y, x),
        formula=lambda inputs: inputs[0])
    with pytest.raises(MatchError, match=r"\$Y"):
        forward_chain(kb, [make_deduction_rule(kb), undeclared],
                      ChainConfig(max_steps=5))


_ARGUMENTS = {  # link type -> the ground atoms each argument place draws from
    "InheritanceLink": (['(ConceptNode "c%d")' % i for i in range(3)],) * 2,
    "EvaluationLink": (['(PredicateNode "p%d")' % i for i in range(3)],
                       ['(ConceptNode "x%d")' % i for i in range(2)]),
    "ImplicationLink": (['(PredicateNode "p%d")' % i for i in range(3)],) * 2,
}
# $X is also a deduction and modus ponens variable
_VARIABLES = ['(VariableNode "$T")', '(VariableNode "$X")']
_VALUED_CONCEPTS = "".join('(ConceptNode (stv %s 0.9) "c%d")\n' % (s, i)
                           for i, s in enumerate([0.3, 0.5, 0.8]))


@st.composite
def _link_text(draw, variables=False):
    kind = draw(st.sampled_from(sorted(_ARGUMENTS)))
    args = [draw(st.sampled_from(pool + (_VARIABLES if variables else [])))
            for pool in _ARGUMENTS[kind]]
    return "(%s %s)" % (kind, " ".join(args))


def _kb_text(facts):
    """Valued c0-c2, then each (link text, strength) fact at confidence 0.9."""
    lines = []
    for text, s in facts:
        head, rest = text.split(" ", 1)
        lines.append("%s (stv %s 0.9) %s\n" % (head, s, rest))
    return _VALUED_CONCEPTS + "".join(lines)


_facts = st.lists(st.tuples(_link_text(), st.sampled_from([0.2, 0.5, 0.9])),
                  min_size=1, max_size=10)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(facts=_facts,
       picks=st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True),
       seed=st.integers(0, 2 ** 16))
def test_forward_chain_fires_each_pair_once(facts, picks, seed):
    """On random KBs, with a sublist of make_rule_set and a random seed, one
    forward_chain call never hands apply_rule the same (rule, binding)
    twice: each match delta brings only bindings no earlier one brought."""
    _, kb = fresh_kb()
    load_kb(kb, _kb_text(facts))
    all_rules = make_rule_set(kb)
    fired = []
    apply = chainer.apply_rule

    def recording(kb, rule, binding):
        fired.append((rule, tuple(sorted(binding.items()))))
        return apply(kb, rule, binding)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(chainer, "apply_rule", recording)
        forward_chain(kb, [all_rules[i] for i in picks],
                      ChainConfig(max_steps=60, seed=seed))
    assert len(fired) == len(set(fired))


def _segment_rules(kb):
    """Rules whose first-step segments have shapes make_rule_set lacks: three
    mutually independent typed premises, a ground premise beside a variable
    one, a premise type no atom has until negation fires (an empty segment,
    placed between nonempty ones), and two premises joined on a variable."""
    e, i, m, n, x, y, z = (kb.node("VariableNode", v) for v in (
        "$E", "$I", "$M", "$N", "$X", "$Y", "$Z"))
    c0 = kb.node("ConceptNode", "c0")
    kb.set_tv(c0, kb.get_tv(c0))  # a fact, for the ground premise to match
    first = lambda inputs: inputs[0]
    return [
        chainer.Rule(kb, name="three", variables=[
            (e, "EvaluationLink"), (i, "InheritanceLink"), (m, "ImplicationLink")],
            premises=[e, i, m], conclusion=kb.link("ListLink", e, i, m), formula=first),
        chainer.Rule(kb, name="empty", variables=[(e, "EvaluationLink"), (n, None)],
                     premises=[e, kb.link("NotLink", n)],
                     conclusion=kb.link("ListLink", n, e), formula=first),
        chainer.Rule(kb, name="ground", variables=[(e, "EvaluationLink")],
                     premises=[c0, e], conclusion=kb.link("ListLink", c0, e),
                     formula=first),
        chainer.Rule(kb, name="joined", variables=[(x, None), (y, None), (z, None)],
                     premises=[kb.link("InheritanceLink", x, y),
                               kb.link("InheritanceLink", z, y)],
                     conclusion=kb.link("ListLink", x, z), formula=first),
    ]


def _firings(chain, text, picks, seed, steps):
    """What ``chain`` fires on the KB ``text`` with the rules at ``picks`` of
    make_rule_set + _segment_rules: each (rule index, binding items), the
    new atoms, the traces' conclusions, and each new atom's strength and
    confidence."""
    _, kb = fresh_kb()
    load_kb(kb, text)
    all_rules = make_rule_set(kb) + _segment_rules(kb)
    rules, fired = [all_rules[i] for i in picks], []
    apply = chainer.apply_rule

    def recording(kb, rule, binding):
        fired.append((rules.index(rule), list(binding.items())))
        return apply(kb, rule, binding)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(chainer, "apply_rule", recording)
        new_atoms, traces = chain(kb, rules, ChainConfig(max_steps=steps, seed=seed))
    tvs = [(kb.get_tv(a).strength.value, kb.get_tv(a).confidence) for a in new_atoms]
    return fired, new_atoms, [t.conclusion for t in traces], tvs


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(facts=_facts,
       picks=st.lists(st.integers(0, 8), min_size=1, max_size=9, unique=True),
       seed=st.integers(0, 2 ** 16))
def test_lazy_first_step_fires_the_eager_pools_sequence(facts, picks, seed):
    """On random KBs, with a random sublist of make_rule_set and the
    segment-shape rules and a random seed, the lazy pool fires the eager
    pool's (rule, binding) sequence, binding key order included, and
    derives the same atoms with the same strengths and confidences."""
    text = _kb_text(facts)
    assert (_firings(forward_chain, text, picks, seed, 60)
            == _firings(_eager_forward_chain, text, picks, seed, 60))


@pytest.mark.parametrize("seed", range(4))
def test_lazy_first_step_until_the_pool_runs_empty(seed):
    """Every segment shape of _segment_rules, the empty one between nonempty
    ones, with make_rule_set: drawn until the pool is empty, so every entry
    the swap moved is drawn, the lazy pool fires the eager one's sequence."""
    picks = [5, 0, 6, 1, 7, 2, 3, 4, 8]
    fired, *rest = _firings(forward_chain, CLOSURE_KB, picks, seed, 5000)
    assert 100 < len(fired) < 5000  # the pool ran empty
    rule_of = [picks[ri] for ri, _ in fired]
    assert set(rule_of) == set(range(9))
    # "empty" (6) has no NotLink at the first step: it fires on deltas only
    assert rule_of.index(6) > rule_of.index(4)  # after fuzzy-negation
    assert [fired, *rest] == list(_firings(_eager_forward_chain, CLOSURE_KB,
                                           picks, seed, 5000))


def test_forward_chain_first_step_bindings_grow_linearly(monkeypatch):
    """The first step matches each premise of fuzzy-conjunction and
    fuzzy-disjunction on its own, so the bindings its ``match`` calls build
    grow with the number of EvaluationLinks, not with its square."""
    def first_step_bindings(n):
        _, kb = fresh_kb()
        load_kb(kb, "".join(
            '(EvaluationLink (stv 0.5 0.9) (PredicateNode "p%d") (ConceptNode "x%d"))\n'
            % (k % 5, k) for k in range(n)))
        calls = []

        def counting(kb, variables, clauses, new=None):
            out = real_match(kb, variables, clauses, new)
            calls.append((new, len(out)))
            return out
        monkeypatch.setattr(chainer, "match", counting)
        forward_chain(kb, make_rule_set(kb), ChainConfig(max_steps=1))
        assert calls and all(new is None for new, _ in calls)
        return sum(size for _, size in calls)
    real_match = chainer.match
    assert first_step_bindings(40) == 2 * first_step_bindings(20)


def test_commit_confidence_is_the_minimum_over_the_leaves():
    """commit's confidence is min over trace.leaves(), 0.0 for none, through
    a nested Derivation; an unasserted leaf reads 0.0, and a leaf id the KB
    does not hold raises UnknownAtomError."""
    _, kb = fresh_kb()
    load_kb(kb, CLOSURE_KB)
    rule, strength = make_deduction_rule(kb), kb.tape.constant(0.5)
    ab, bc, cd, ac = (parse_atom(kb, '(InheritanceLink (ConceptNode "%s") '
                                     '(ConceptNode "%s"))' % tuple(pair))
                      for pair in ("ab", "bc", "cd", "ac"))
    target = parse_atom(kb, '(InheritanceLink (ConceptNode "a") (ConceptNode "d"))')

    def committed(premises):
        trace = Derivation(rule, {}, target, premises, [])
        want = min((kb.get_tv(leaf.atom).confidence for leaf in trace.leaves()),
                   default=0.0)
        chainer.commit(kb, trace, strength)
        assert kb.get_tv(target).confidence == want
        return want

    inner = Derivation(rule, {}, ac, [Leaf(ab), Leaf(bc)], [])
    assert committed([inner, Leaf(cd)]) == 0.7
    assert committed([Leaf(cd), inner]) == 0.7
    assert committed([Derivation(rule, {}, ac, [inner], []), Leaf(bc)]) == 0.8
    assert committed([inner, Leaf(kb.node("ConceptNode", "unvalued"))]) == 0.0
    assert committed([]) == 0.0
    with pytest.raises(UnknownAtomError):
        chainer.commit(kb, Derivation(rule, {}, target, [inner, Leaf(len(kb))], []),
                       strength)


def test_leaves_walks_a_trace_deeper_than_the_recursion_limit():
    """leaves() yields the premise leaves in order from one generator, so a
    trace nested deeper than Python's recursion limit walks, and commit
    reads its confidences through it."""
    _, kb = fresh_kb()
    load_kb(kb, CLOSURE_KB)
    rule = make_deduction_rule(kb)
    ab, bc, cd = (parse_atom(kb, '(InheritanceLink (ConceptNode "%s") '
                                 '(ConceptNode "%s"))' % tuple(pair))
                  for pair in ("ab", "bc", "cd"))
    trace, depth = Derivation(rule, {}, ab, [Leaf(bc)], []), sys.getrecursionlimit() + 100
    for i in range(depth):
        trace = Derivation(rule, {}, ab, [Leaf(ab), trace, Leaf(cd)] if i % 2
                           else [trace], [])
    atoms = [leaf.atom for leaf in trace.leaves()]
    assert atoms == [ab] * (depth // 2) + [bc] + [cd] * (depth // 2)
    target = kb.node("ConceptNode", "deep")
    chainer.commit(kb, Derivation(rule, {}, target, [trace], []),
                   kb.tape.constant(0.5))
    assert kb.get_tv(target).confidence == min(
        kb.get_tv(atom).confidence for atom in (ab, bc, cd))


def test_backward_chain_modus_ponens():
    _, kb = fresh_kb()
    load_kb(kb, APPLE_KB)
    rule = make_modus_ponens_rule(kb)
    target = parse_atom(kb, '(EvaluationLink (PredicateNode "green") '
                            '(ConceptNode "apple-001"))')
    results = backward_chain(kb, [rule], target, ChainConfig(max_depth=2))
    assert len(results) == 1
    binding, strength, trace = results[0]
    assert strength.value == pytest.approx(0.6 + 0.2 * 0.0)
    assert isinstance(trace, Derivation)
    leaf_atoms = {leaf.atom for leaf in trace.leaves()}
    impl = kb.find_link("ImplicationLink",
                        [kb.node("PredicateNode", "apple"),
                         kb.node("PredicateNode", "green")])
    assert impl in leaf_atoms


def test_backward_chain_depth0_stored_ref():
    _, kb = fresh_kb()
    top = load_kb(kb, SPARROW_KB)
    rule = make_deduction_rule(kb)
    results = backward_chain(kb, [rule], top[0], ChainConfig(max_depth=2))
    leaves = [r for r in results if isinstance(r[2], Leaf)]
    assert len(leaves) == 1
    _, strength, trace = leaves[0]
    assert strength is kb.get_tv(top[0]).strength


def test_backward_chain_sparrow_leaf_set():
    _, kb = fresh_kb()
    top = load_kb(kb, SPARROW_KB)
    rule = make_deduction_rule(kb)
    target = parse_atom(kb, '(InheritanceLink (ConceptNode "sparrow") '
                            '(ConceptNode "animal"))')
    results = backward_chain(kb, [rule], target, ChainConfig(max_depth=2))
    derivations = [t for _, _, t in results if isinstance(t, Derivation)]
    assert len(derivations) == 1
    assert {leaf.atom for leaf in derivations[0].leaves()} == set(top)


def test_backward_chain_underivable():
    _, kb = fresh_kb()
    load_kb(kb, SPARROW_KB)
    rule = make_deduction_rule(kb)
    target = parse_atom(kb, '(InheritanceLink (ConceptNode "animal") '
                            '(ConceptNode "sparrow"))')
    assert backward_chain(kb, [rule], target, ChainConfig(max_depth=3)) == []


def test_backward_chain_variable_target():
    _, kb = fresh_kb()
    load_kb(kb, APPLE_KB)
    rule = make_modus_ponens_rule(kb)
    target = parse_atom(kb, '(EvaluationLink (PredicateNode "green") '
                            '(VariableNode "$W"))')
    results = backward_chain(kb, [rule], target, ChainConfig(max_depth=2))
    assert len(results) == 1
    binding, strength, _ = results[0]
    var_w = kb.node("VariableNode", "$W")
    assert kb.atom(binding[var_w]).name == "apple-001"


# Inh(a, b) and Inh(b, a): deduction derives Inh(a, a) and Inh(b, b), which a
# target with one variable in both argument places must find.
TWO_FACT_KB = """
(ConceptNode (stv 0.4 0.9) "a")
(ConceptNode (stv 0.7 0.9) "b")
(InheritanceLink (stv 0.9 0.8) (ConceptNode "a") (ConceptNode "b"))
(InheritanceLink (stv 0.6 0.9) (ConceptNode "b") (ConceptNode "a"))
"""


def _rows(results):
    return [(_serialize(t), s.value) for _, s, t in results]


def test_repeated_target_variable_gets_the_ground_proofs():
    """Inh($T, $T) at depth 2: the proofs binding $T to a are those of the
    ground Inh(a, a), with the same rule names, leaf atoms, replayed
    strengths and order; likewise for b."""
    _, kb = fresh_kb()
    load_kb(kb, TWO_FACT_KB)
    rules = make_rule_set(kb)
    config = ChainConfig(max_depth=2)
    var = kb.node("VariableNode", "$T")
    got = backward_chain(kb, rules, kb.link("InheritanceLink", var, var), config)
    assert len(got) == 4
    for name in ("a", "b"):
        c = kb.node("ConceptNode", name)
        ground = kb.link("InheritanceLink", c, c)
        expected = backward_chain(kb, rules, ground, config)
        assert len(expected) == 2
        mine = [r for r in got if r[0] == {var: c}]
        assert all(t.conclusion == ground for _, _, t in mine)
        assert _rows(mine) == _rows(expected)


# four valued concepts and nine Inh links among them, with cycles
CYCLE_KB = "".join('(ConceptNode (stv %s 0.9) "%s")\n' % (s, c)
                   for c, s in zip("abcd", [0.4, 0.7, 0.5, 0.6])) + "".join(
    '(InheritanceLink (stv 0.8 0.9) (ConceptNode "%s") (ConceptNode "%s"))\n'
    % tuple(pair) for pair in ["ab", "bc", "cd", "da", "ba", "cb", "dc", "ac", "bd"])


def test_repeated_target_variable_prunes_from_its_first_occurrence(monkeypatch):
    """Inh($T, $T) at depth 3 derives no more than the four ground Inh(x, x)
    queries together, each on a fresh table: the deduction premises see $T's
    second place as its first.  Its proofs binding $T to x are Inh(x, x)'s,
    in order."""
    calls = []
    derive = chainer._derive

    def counting(*args):
        calls.append(1)
        return derive(*args)
    monkeypatch.setattr(chainer, "_derive", counting)
    _, kb = fresh_kb()
    load_kb(kb, CYCLE_KB)
    rules, config = make_rule_set(kb), ChainConfig(max_depth=3)
    var = kb.node("VariableNode", "$T")
    got = backward_chain(kb, rules, kb.link("InheritanceLink", var, var), config)
    lifted, calls[:] = len(calls), []
    expected = 0
    for name in "abcd":
        kb.subgoal_table = None
        c = kb.node("ConceptNode", name)
        ground = backward_chain(kb, rules, kb.link("InheritanceLink", c, c), config)
        assert _rows([r for r in got if r[0] == {var: c}]) == _rows(ground)
        expected += len(ground)
    assert len(got) == expected > 0
    assert lifted <= len(calls)


def _dispatch_run(monkeypatch, dispatch):
    """backward_chain with all five rules, at depth 2, on CYCLE_KB and
    APPLE_KB's facts, of ground, lifted and bare-variable targets.  Returns
    each target's (binding, strength, proof shape) rows, and the top-level
    ``_match_conclusion`` calls per ``lanes`` call on an Inheritance
    pattern."""
    match, nested, tops, lanes = chainer._match_conclusion, [0], [], []

    def counting(kb, c, t, *args):
        tops.extend([kb.atom(t).type.name] * (not nested[0]))
        nested[0] += 1
        try:
            return match(kb, c, t, *args)
        finally:
            nested[0] -= 1
    search_lanes = chainer._Search.lanes

    def counted(self, kb, pattern, depth):
        lanes.extend([kb.atom(pattern).type.name] * (depth >= 1))
        return search_lanes(self, kb, pattern, depth)
    monkeypatch.setattr(chainer, "_match_conclusion", counting)
    monkeypatch.setattr(chainer._Search, "lanes", counted)
    _, kb = fresh_kb()
    load_kb(kb, CYCLE_KB + APPLE_KB)
    rules, config = make_rule_set(kb), ChainConfig(max_depth=2)
    if not dispatch:  # a table that tries every rule on every pattern type
        kb.subgoal_table = chainer._Search(rules)
        kb.subgoal_table.typed = dict.fromkeys(TYPES, tuple(rules))
    var = kb.node("VariableNode", "$T")
    targets = [kb.link("InheritanceLink", *(kb.node("ConceptNode", n) for n in "ac")),
               kb.link("InheritanceLink", var, var),
               parse_atom(kb, '(EvaluationLink (PredicateNode "green") '
                              '(VariableNode "$W"))'), var]
    rows = [[(b, s.value, _serialize(t)) for b, s, t in
             backward_chain(kb, rules, target, config)] for target in targets]
    return rows, tops.count("InheritanceLink") / lanes.count("InheritanceLink")


def test_rule_dispatch_by_conclusion_type_keeps_every_proof(monkeypatch):
    """The subgoal table tries only the rules whose conclusion has the
    pattern's type: the proofs, their bindings, strengths, shapes and order
    are those of a search that tries every rule, and an Inheritance subgoal
    makes one top-level ``_match_conclusion`` call, not five."""
    with monkeypatch.context() as patched:
        everything, tried = _dispatch_run(patched, dispatch=False)
    rows, dispatched = _dispatch_run(monkeypatch, dispatch=True)
    assert rows == everything and all(rows)
    assert (tried, dispatched) == (5, 1)


def test_repeated_target_variable_over_two_subtrees_is_unified():
    """A repeated target variable that meets two different non-variable
    subtrees of a conclusion, as ListLink($T, $T) meets ListLink(Not($a),
    Not($b)), is not settled by the match: the proofs of ListLink($T, $T)
    are those whose conclusions unify with it, each that of its instance."""
    _, kb = fresh_kb()
    a, b, t = (kb.node("VariableNode", n) for n in ("$a", "$b", "$T"))
    evals = [kb.link("EvaluationLink", kb.node("PredicateNode", p),
                     kb.node("ConceptNode", "x")) for p in "pq"]
    for e, s in zip(evals, (0.3, 0.6)):
        set_strength(kb, e, s)
    rule = chainer.Rule(
        kb, name="pair", variables=[(a, "EvaluationLink"), (b, "EvaluationLink")],
        premises=[a, b], conclusion=kb.link("ListLink", kb.link("NotLink", a),
                                            kb.link("NotLink", b)),
        formula=lambda inputs: inputs[0])
    config = ChainConfig(max_depth=1)
    got = backward_chain(kb, [rule], kb.link("ListLink", t, t), config)
    negations = [kb.link("NotLink", e) for e in evals]
    assert [binding for binding, _, _ in got] == [{t: n} for n in negations]
    kb.subgoal_table = None
    for proof, n in zip(got, negations):
        instance = kb.link("ListLink", n, n)
        assert proof[2].conclusion == instance
        assert _rows([proof]) == _rows(backward_chain(kb, [rule], instance, config))


def test_repeated_target_variable_binds_a_rule_variable_to_a_subtree():
    """ListLink($T, $T) against a rule concluding ListLink(Not($a), $b) from
    premises [$a, $b] binds $b to Not($a), the rule variable to the other
    subtree, not to itself: with make_rule_set, it has 1 proof at depth 1
    (Not(Eval(p, x)) asserted) and 3 at depth 2 (negation derives
    Not(Eval(p, x)) and Not(Eval(q, x)) too), each its instance's."""
    _, kb = fresh_kb()
    a, b, t = (kb.node("VariableNode", n) for n in ("$a", "$b", "$T"))
    evals = [kb.link("EvaluationLink", kb.node("PredicateNode", p),
                     kb.node("ConceptNode", "x")) for p in "pq"]
    for atom, s in zip([*evals, kb.link("NotLink", evals[0])], (0.3, 0.6, 0.4)):
        set_strength(kb, atom, s)
    pairnot = chainer.Rule(
        kb, name="pairnot", variables=[(a, "EvaluationLink"), (b, None)],
        premises=[a, b], conclusion=kb.link("ListLink", kb.link("NotLink", a), b),
        formula=lambda inputs: inputs[1])
    rules, target = [pairnot] + make_rule_set(kb), kb.link("ListLink", t, t)
    for depth, proofs, negated in ((1, 1, evals[:1]), (2, 3, evals)):
        kb.subgoal_table = None
        got = _instance_proofs(kb, rules, target, ChainConfig(max_depth=depth))
        assert len(got) == proofs
        assert {binding[t] for binding, _, _ in got} == {
            kb.link("NotLink", e) for e in negated}


def test_repeated_target_variable_aliasing_an_earlier_premise_variable():
    """ListLink($T, $T) against a rule concluding ListLink($b, $a) from
    premises [$a, $b] aliases $a, a typed variable of the first premise
    that its term Not($a) also reads, to $b: each proof binds both to one
    EvaluationLink, reads Not(e) as its term, and is its instance's."""
    _, kb = fresh_kb()
    a, b, t = (kb.node("VariableNode", n) for n in ("$a", "$b", "$T"))
    evals = [kb.link("EvaluationLink", kb.node("PredicateNode", p),
                     kb.node("ConceptNode", "x")) for p in "pq"]
    for e, s in zip(evals, (0.3, 0.6)):
        set_strength(kb, e, s)
    set_strength(kb, kb.link("InheritanceLink", *(kb.node("ConceptNode", c)
                                                  for c in "xy")), 0.5)
    set_strength(kb, kb.link("NotLink", evals[0]), 0.4)
    rule = chainer.Rule(
        kb, name="swap", variables=[(a, "EvaluationLink"), (b, "EvaluationLink")],
        premises=[a, b], conclusion=kb.link("ListLink", b, a),
        formula=lambda inputs: inputs[2], terms=[(kb.link("NotLink", a), 0.1)])
    config = ChainConfig(max_depth=1)
    got = backward_chain(kb, [rule], kb.link("ListLink", t, t), config)
    assert [binding for binding, _, _ in got] == [{t: e} for e in evals]
    assert [s.value for _, s, _ in got] == [0.4, 0.1]
    kb.subgoal_table = None
    for proof, e in zip(got, evals):
        assert proof[2].binding == {a: e, b: e}
        instance = kb.link("ListLink", e, e)
        assert _rows([proof]) == _rows(backward_chain(kb, [rule], instance, config))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(facts=_facts, target=_link_text(variables=True),
       depth=st.integers(1, 3))
def test_variable_target_proofs_are_their_instances_proofs(facts, target,
                                                           depth):
    """On random Inh/Eval/Impl KBs under the full rule set, at depths 1-3,
    for a target with 0-2 variables (repeats allowed): the proofs with
    binding b are the proofs of substitute(target, b), in order, with the
    same replayed strengths, and every instance with a proof is among them."""
    _, kb = fresh_kb()
    load_kb(kb, _kb_text(facts))
    rules = make_rule_set(kb)
    target = parse_atom(kb, target)
    config = ChainConfig(max_depth=depth)
    variables = sorted(variables_in(kb, target))
    got = {}
    for b, s, t in backward_chain(kb, rules, target, config):
        instance = substitute(kb, target, b)
        assert sorted(b) == variables and t.conclusion == instance
        got.setdefault(instance, []).append((_serialize(t), s.value))
    kb.subgoal_table = None  # the instances are searched in a fresh table
    nodes = [a for a in range(len(kb))
             if kb.atom(a).type.is_node and kb.atom(a).is_ground]
    for values in itertools.product(nodes, repeat=len(variables)):
        instance = substitute(kb, target, dict(zip(variables, values)))
        assert got.pop(instance, []) == _rows(
            backward_chain(kb, rules, instance, config))
    assert got == {}


_EVAL_V = '(EvaluationLink (PredicateNode "p%d") (VariableNode "$V"))'
_CONNECTIVE_TARGETS = ['(AndLink %s (VariableNode "$V"))',
                       '(OrLink (VariableNode "$V") %s)',
                       '(NotLink (VariableNode "$V"))',
                       '(NotLink %s)' % (_EVAL_V % 0),
                       '(AndLink %s %s)' % (_EVAL_V % 0, _EVAL_V % 1),
                       '(OrLink %%s %s)' % (_EVAL_V % 1)]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(facts=_facts, operand=_link_text(), shape=st.sampled_from(
    _CONNECTIVE_TARGETS), depth=st.integers(1, 2))
def test_connective_target_proofs_are_their_instances_proofs(facts, operand,
                                                            shape, depth):
    """On random Inh/Eval/Impl KBs under the full rule set, at depths 1-2,
    for And(e, $V), Or($V, e) or Not($V), with e any ground link, and for
    $V inside an operand, as in Not(Eval(p0, $V)), And(Eval(p0, $V),
    Eval(p1, $V)) or Or(e, Eval(p1, $V)): the proofs with binding b are the
    proofs of substitute(target, b), in order, with the same replayed
    strengths; every operand of a proved instance is an EvaluationLink, as
    the connectives' operand types demand; and every instance with a proof
    is among them."""
    _, kb = fresh_kb()
    load_kb(kb, _kb_text(facts))
    rules = make_rule_set(kb)
    target = parse_atom(kb, shape.replace("%s", operand))
    var = kb.node("VariableNode", "$V")
    config = ChainConfig(max_depth=depth)
    got = {}
    for b, s, t in backward_chain(kb, rules, target, config):
        assert list(b) == [var]
        instance = substitute(kb, target, b)
        assert {kb.atom(o).type.name for o in kb.atom(instance).outgoing} == {
            "EvaluationLink"}
        assert t.conclusion == instance
        got.setdefault(instance, []).append((_serialize(t), s.value))
    kb.subgoal_table = None  # the instances are searched in a fresh table
    for atom in [a for a in range(len(kb)) if kb.atom(a).is_ground]:
        instance = substitute(kb, target, {var: atom})
        assert got.pop(instance, []) == _rows(
            backward_chain(kb, rules, instance, config))
    assert got == {}


def _nested_kb(n):
    """n facts Eval(p<i mod 2>, x<i>) at (stv 0.8 0.9), Impl(p0, p1) at (stv
    0.9 0.9) and Eval(p1, Not(x0)) at (stv 0.7 0.9), under make_rule_set
    and a rule concluding ListLink($A, $A) from the premise $A."""
    _, kb = fresh_kb()
    load_kb(kb, "".join(
        '(EvaluationLink (stv 0.8 0.9) (PredicateNode "p%d") (ConceptNode "x%d"))\n'
        % (i % 2, i) for i in range(n)) +
        '(ImplicationLink (stv 0.9 0.9) (PredicateNode "p0") (PredicateNode "p1"))\n'
        '(EvaluationLink (stv 0.7 0.9) (PredicateNode "p1") '
        '(NotLink (ConceptNode "x0")))')
    a = kb.node("VariableNode", "$A")
    pair = chainer.Rule(kb, name="pair", variables=[(a, None)], premises=[a],
                        conclusion=kb.link("ListLink", a, a),
                        formula=lambda inputs: inputs[0])
    return kb, make_rule_set(kb) + [pair]


def _instance_proofs(kb, rules, target, config):
    """backward_chain's proofs of target, checked to be, for each binding
    b, the proofs of substitute(target, b), in order, with the same
    replayed strengths, and to hold every instance that has a proof."""
    variables = sorted(variables_in(kb, target))
    got = {}
    results = backward_chain(kb, rules, target, config)
    for b, s, t in results:
        instance = substitute(kb, target, b)
        assert sorted(b) == variables and t.conclusion == instance
        got.setdefault(instance, []).append((_serialize(t), s.value))
    kb.subgoal_table = None  # the instances are searched in a fresh table
    ground = [a for a in range(len(kb)) if kb.atom(a).is_ground]
    for values in itertools.product(ground, repeat=len(variables)):
        instance = substitute(kb, target, dict(zip(variables, values)))
        assert got.pop(instance, []) == _rows(
            backward_chain(kb, rules, instance, config))
    assert got == {}
    return results


_EVAL = '(EvaluationLink (PredicateNode "p%d") (VariableNode "%s"))'
_GROUND = '(EvaluationLink (PredicateNode "p0") (ConceptNode "x%d"))'


@pytest.mark.parametrize("shape", ['(NotLink %s)' % (_EVAL % (1, "$V")),
                                   '(AndLink %s %s)' % (_EVAL % (0, "$V"),
                                                        _EVAL % (1, "$V"))])
def test_nested_target_subtree_is_searched_as_a_premise(monkeypatch, shape):
    """A rule variable meeting a target subtree that holds a variable, as
    negation's $CA meets Eval(p1, $V), is bound to it: the premise is
    solved as Eval(p1, $V), not as $CA, every provable atom.  On 40 facts
    at depth 2 that takes at most 200 _derive calls (3,566 and 13,531 when
    the premise was $CA), and the proofs are those of each instance."""
    kb, rules = _nested_kb(40)
    calls = []
    derive = chainer._derive

    def counting(*args):
        calls.append(1)
        return derive(*args)
    monkeypatch.setattr(chainer, "_derive", counting)
    target, config = parse_atom(kb, shape), ChainConfig(max_depth=2)
    assert backward_chain(kb, rules, target, config)
    assert len(calls) <= 200
    monkeypatch.undo()
    kb.subgoal_table = None
    assert _instance_proofs(kb, rules, target, config)


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("shape, proofs", [
    # the subtree holds the rule's own variable: $CA, $CB, modus ponens' $P
    ('(NotLink %s)' % (_EVAL % (1, "$CA")), [4, 7]),
    ('(AndLink %s %s)' % (_EVAL % (0, "$CB"), _EVAL % (1, "$CB")), [0, 3]),
    ('(EvaluationLink (PredicateNode "p1") (NotLink (VariableNode "$P")))', [1, 1]),
    # ListLink($A, $A) meets the same partial twice, two partials, or a
    # partial and a variable
    ('(ListLink %s %s)' % (_EVAL % (0, "$V"), _EVAL % (0, "$V")), [3, 3]),
    ('(ListLink %s %s)' % (_EVAL % (0, "$V"), _EVAL % (1, "$V")), [0, 0]),
    ('(ListLink %s %s)' % (_EVAL % (0, "$V"), _EVAL % (0, "$W")), [3, 3]),
    ('(ListLink %s (VariableNode "$W"))' % (_EVAL % (0, "$V")), [3, 3]),
    ('(ListLink (VariableNode "$W") %s)' % (_EVAL % (1, "$V")), [4, 7]),
    # the occurs check: $V would stand for Eval(p0, $V)
    ('(ListLink (VariableNode "$V") %s)' % (_EVAL % (0, "$V")), [0, 0]),
    # a partial, then the ground atom that its alias must match
    *[('(ListLink %s %s)' % (_EVAL % (0, "$V"), _GROUND % x), proofs)
      for x, proofs in ((0, [1, 1]), (2, [1, 1]), (1, [0, 0]))]])
def test_nested_target_clash_and_repeat_shapes_get_their_instances_proofs(
        shape, proofs, depth):
    """A subtree holding one of the rule's own variables is not bound to the
    rule variable (a target's $P is not modus ponens' $P), nor is a rule
    variable already bound: the premise is solved as before.  Either way,
    and for a subtree bound and then met again, or bound as an alias and
    then met by a ground atom, the proofs are those of each instance."""
    kb, rules = _nested_kb(6)
    results = _instance_proofs(kb, rules, parse_atom(kb, shape),
                               ChainConfig(max_depth=depth))
    assert len(results) == proofs[depth - 1]


def _closed_form_deduction(s_ab, s_bc, s_b, s_c):
    if s_b >= 1.0 - 1e-6:
        return s_c
    cond = (s_c - s_b * s_bc) / (1.0 - s_b)
    cond = min(1.0, max(0.0, cond))
    return min(1.0, max(0.0, s_ab * s_bc + (1.0 - s_ab) * cond))


def test_trace_matches_closed_form_composite():
    """Two chained deductions equal direct float evaluation within 1e-12."""
    _, kb = fresh_kb()
    names = ["a", "b", "c", "d"]
    concepts = {n: kb.node("ConceptNode", n) for n in names}
    term = {"a": 0.60, "b": 0.55, "c": 0.50, "d": 0.45}
    link = {}
    for x, y in zip(names, names[1:]):
        link[(x, y)] = kb.link("InheritanceLink", concepts[x], concepts[y])
        set_strength(kb, link[(x, y)], 0.8)
    for n in names:
        set_strength(kb, concepts[n], term[n])
    rule = make_deduction_rule(kb)
    target = parse_atom(kb, '(InheritanceLink (ConceptNode "a") '
                            '(ConceptNode "d"))')
    results = backward_chain(kb, [rule], target, ChainConfig(max_depth=3))
    assert results
    s_ac = _closed_form_deduction(0.8, 0.8, term["b"], term["c"])
    s_ad_left = _closed_form_deduction(s_ac, 0.8, term["c"], term["d"])
    s_bd = _closed_form_deduction(0.8, 0.8, term["c"], term["d"])
    s_ad_right = _closed_form_deduction(0.8, s_bd, term["b"], term["d"])
    expected = {round(s_ad_left, 12), round(s_ad_right, 12)}
    got = {round(r[1].value, 12) for r in results}
    assert got <= expected
    for _, strength, _ in results:
        assert min(abs(strength.value - e)
                   for e in (s_ad_left, s_ad_right)) <= 1e-12


def test_trace_replay_reproduces_value():
    _, kb = fresh_kb()
    load_kb(kb, SPARROW_KB)
    rule = make_deduction_rule(kb)
    target = parse_atom(kb, '(InheritanceLink (ConceptNode "sparrow") '
                            '(ConceptNode "animal"))')
    results = backward_chain(kb, [rule], target, ChainConfig(max_depth=2))
    _, before, derivation = next(r for r in results
                                 if isinstance(r[2], Derivation))
    replayed = derivation.replay(kb, {})
    assert abs(replayed.value - before.value) <= 1e-12


def test_gradient_connectivity_three_step_chain():
    """backward() from a 3-step deduction conclusion reaches all 4 leaves."""
    tape, kb = fresh_kb()
    names = ["a", "b", "c", "d", "e"]
    concepts = {n: kb.node("ConceptNode", n) for n in names}
    term = {"a": 0.60, "b": 0.55, "c": 0.50, "d": 0.45, "e": 0.40}
    for n in names:
        set_strength(kb, concepts[n], term[n])
    links = []
    for x, y in zip(names, names[1:]):
        l = kb.link("InheritanceLink", concepts[x], concepts[y])
        kb.set_tv(l, TruthValue(tape.parameter(0.8), 1.0))
        links.append(l)
    rule = make_deduction_rule(kb)
    target = parse_atom(kb, '(InheritanceLink (ConceptNode "a") '
                            '(ConceptNode "e"))')
    results = backward_chain(kb, [rule], target, ChainConfig(max_depth=3))
    full = next(s for _, s, t in results
                if {leaf.atom for leaf in t.leaves()} == set(links))
    tape.backward(full)
    for l in links:
        assert kb.get_tv(l).strength.grad != 0.0
    tape.zero_grads()


def test_backward_chain_soundness():
    """Every trace leaf predates the chaining call."""
    _, kb = fresh_kb()
    names = ["a", "b", "c", "d"]
    load_kb(kb, "\n".join(
        '(InheritanceLink (stv 0.9 1.0) (ConceptNode "%s") (ConceptNode "%s"))'
        % (x, y) for x, y in zip(names, names[1:])))
    rule = make_deduction_rule(kb)
    target = parse_atom(kb, '(InheritanceLink (ConceptNode "a") '
                            '(ConceptNode "d"))')
    asserted_before = {a for a in range(len(kb)) if kb.has_asserted_tv(a)}
    results = backward_chain(kb, [rule], target, ChainConfig(max_depth=3))
    assert results
    for _, _, trace in results:
        for leaf in trace.leaves():
            assert leaf.atom in asserted_before


def _serialize(trace):
    if isinstance(trace, Leaf):
        return ("leaf", trace.atom)
    return (trace.rule.name, tuple(_serialize(c) for c in trace.premises))


def _oracle_proofs(kb, facts, inh, a, c, depth, concepts):
    """Independent proof enumeration for the deduction rule."""
    proofs = []
    fact = inh.get((a, c))
    if fact is not None and fact in facts:
        proofs.append(("leaf", fact))
    if depth >= 1:
        for b in concepts:
            lefts = _oracle_proofs(kb, facts, inh, a, b, depth - 1, concepts)
            if not lefts:
                continue
            rights = _oracle_proofs(kb, facts, inh, b, c, depth - 1, concepts)
            for l in lefts:
                for r in rights:
                    proofs.append(("deduction", (l, r)))
    return proofs


def test_backward_chain_matches_proof_enumeration():
    """Backward proof sets equal brute-force enumeration at depth <= 3."""
    rng = random.Random(31)
    names = ["a", "b", "c", "d"]
    for _ in range(10):
        pairs = set()
        while len(pairs) < rng.randrange(3, 6):
            pairs.add((rng.choice(names), rng.choice(names)))
        for na, nc in itertools.product(names, repeat=2):
            _, kb = fresh_kb()
            concepts = {n: kb.node("ConceptNode", n) for n in names}
            inh = {}
            for x, y in sorted(pairs):
                l = kb.link("InheritanceLink", concepts[x], concepts[y])
                set_strength(kb, l, 0.9)
                inh[(concepts[x], concepts[y])] = l
            facts = set(inh.values())
            rule = make_deduction_rule(kb)
            target = kb.link("InheritanceLink", concepts[na], concepts[nc])
            got = sorted(_serialize(t) for _, _, t in
                         backward_chain(kb, [rule], target,
                                        ChainConfig(max_depth=3)))
            expected = sorted(_oracle_proofs(kb, facts, inh, concepts[na],
                                             concepts[nc], 3,
                                             list(concepts.values())))
            assert got == expected


CLOBBER_KB = """
(ImplicationLink (stv 0.8 1.0) (PredicateNode "A") (PredicateNode "B"))
(ImplicationLink (stv 0.9 1.0) (PredicateNode "B") (PredicateNode "C"))
(EvaluationLink (stv 0.5 1.0) (PredicateNode "A") (ConceptNode "x"))
(EvaluationLink (stv 0.95 1.0) (PredicateNode "B") (ConceptNode "x"))
"""


def _asserted_tvs(kb):
    return {a: kb.get_tv(a) for a in range(len(kb)) if kb.has_asserted_tv(a)}


def test_backward_chain_reads_premises_from_child_traces():
    """Each proof's value follows its own premises, and the KB is untouched:
    the proof through the asserted B(x) = 0.95 gives 0.9*0.95 + 0.2*0.05,
    the one that derives B(x) from A(x) gives 0.9*0.5 + 0.2*0.5."""
    _, kb = fresh_kb()
    load_kb(kb, CLOBBER_KB)
    before = _asserted_tvs(kb)
    b_x = parse_atom(kb, '(EvaluationLink (PredicateNode "B") (ConceptNode "x"))')
    target = parse_atom(kb, '(EvaluationLink (PredicateNode "C") '
                            '(ConceptNode "x"))')
    results = backward_chain(kb, [make_modus_ponens_rule(kb)], target,
                             ChainConfig(max_depth=3))
    assert sorted(round(s.value, 12) for _, s, _ in results) == [0.55, 0.865]
    assert kb.get_tv(b_x).strength.value == 0.95
    assert not kb.has_asserted_tv(target)
    assert _asserted_tvs(kb) == before


def test_backward_chain_is_repeatable():
    """A second identical query finds the same proofs with the same strengths
    and leaves every asserted truth value as it was."""
    _, kb = fresh_kb()
    names = ["a", "b", "c", "d", "e"]
    lines = ['(ConceptNode (stv %.2f 1.0) "%s")' % (0.6 - 0.05 * i, n)
             for i, n in enumerate(names)]
    lines += ['(InheritanceLink (stv 0.8 0.9) (ConceptNode "%s") '
              '(ConceptNode "%s"))' % (x, y) for x, y in zip(names, names[1:])]
    load_kb(kb, "\n".join(lines))
    before = _asserted_tvs(kb)
    values = {a: tv.strength.value for a, tv in before.items()}
    rule = make_deduction_rule(kb)
    target = parse_atom(kb, '(InheritanceLink (ConceptNode "a") '
                            '(ConceptNode "e"))')
    runs = []
    for _ in range(2):
        results = backward_chain(kb, [rule], target, ChainConfig(max_depth=3))
        runs.append(sorted((_serialize(t), s.value) for _, s, t in results))
        assert _asserted_tvs(kb) == before
        assert {a: tv.strength.value for a, tv in before.items()} == values
    assert runs[0] == runs[1]
    assert len(runs[0]) == 5


def test_derivation_terms_are_trace_inputs():
    """Every formula input is a trace node.  An asserted term atom is a Leaf
    term that backward reaches; an unasserted one is a Constant holding the
    rule's default.  All of them replay after a tape rollback, and leaves()
    still lists only the premise facts."""
    tape, kb = fresh_kb()
    a, b, c, d = (kb.node("ConceptNode", n) for n in "abcd")
    values = {"ab": 0.9, "bc": 0.8, "b": 0.4, "c": 0.6}
    refs = {k: tape.parameter(v) for k, v in values.items()}
    ab, bc = kb.link("InheritanceLink", a, b), kb.link("InheritanceLink", b, c)
    bd = kb.link("InheritanceLink", b, d)
    for atom, key in [(ab, "ab"), (bc, "bc"), (b, "b"), (c, "c")]:
        kb.set_tv(atom, TruthValue(refs[key], 1.0))
    set_strength(kb, bd, 0.7)
    load_kb(kb, """
    (ImplicationLink (stv 0.6 1.0) (PredicateNode "apple") (PredicateNode "green"))
    (ImplicationLink (stv 0.45 1.0)
        (NotLink (PredicateNode "apple")) (PredicateNode "green"))
    (ImplicationLink (stv 0.6 1.0) (PredicateNode "apple") (PredicateNode "red"))
    (EvaluationLink (stv 0.5 1.0) (PredicateNode "apple") (ConceptNode "x"))
    """)
    deduction = make_deduction_rule(kb)
    mp = make_modus_ponens_rule(kb, neg_conditional=0.25)
    mark = tape.mark()

    def derive(rule, target_text):
        target = parse_atom(kb, target_text)
        results = backward_chain(kb, [rule], target, ChainConfig(max_depth=1))
        return next(r[1:] for r in results if isinstance(r[2], Derivation))

    valued_s, valued = derive(deduction, '(InheritanceLink (ConceptNode "a") '
                                         '(ConceptNode "c"))')
    assert [type(t) for t in valued.terms] == [Leaf, Leaf]
    assert [t.atom for t in valued.terms] == [b, c]
    assert [leaf.atom for leaf in valued.leaves()] == [ab, bc]
    tape.backward(valued_s)
    inputs = valued.premises + valued.terms
    expected = finite_diff_grads(lambda t, r: deduction_strength(*r),
                                 list(values.values()))
    assert [t.replay(kb, {}).grad for t in inputs] == pytest.approx(expected, abs=1e-6)
    assert any(g != 0.0 for g in expected[2:])
    tape.zero_grads()

    unvalued_s, unvalued = derive(deduction, '(InheritanceLink (ConceptNode "a") '
                                             '(ConceptNode "d"))')
    assert isinstance(unvalued.terms[0], Leaf)
    assert isinstance(unvalued.terms[1], Constant)
    assert unvalued.terms[1].value == 1.0
    assert [leaf.atom for leaf in unvalued.leaves()] == [ab, bd]

    green_s, green = derive(mp, '(EvaluationLink (PredicateNode "green") '
                                '(ConceptNode "x"))')
    (neg,) = green.terms
    assert isinstance(neg, Leaf) and neg.replay(kb, {}).value == 0.45
    assert kb.atom(kb.atom(neg.atom).outgoing[0]).type.name == "NotLink"
    assert green_s.value == pytest.approx(0.6 * 0.5 + 0.45 * 0.5)
    red_s, red = derive(mp, '(EvaluationLink (PredicateNode "red") (ConceptNode "x"))')
    (default,) = red.terms
    assert isinstance(default, Constant) and default.value == 0.25
    assert red_s.value == pytest.approx(0.6 * 0.5 + 0.25 * 0.5)
    assert len(list(green.leaves())) == len(list(red.leaves())) == 2

    traces = [valued, unvalued, green, red]
    before = [s.value for s in (valued_s, unvalued_s, green_s, red_s)]
    tape.reset_to(mark)
    memo = {}
    replayed = [t.replay(kb, memo) for t in traces]
    assert [r.value for r in replayed] == before
    for trace in traces:
        for term in trace.terms:
            assert term.replay(kb, memo).index < len(tape)
    tape.backward(replayed[0])
    assert [t.replay(kb, {}).grad for t in inputs] == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("zeros", [(-0.0, 0.0), (0.0, -0.0)])
def test_constant_replay_keeps_the_two_signed_zeros_apart(zeros):
    """A term default of -0.0 and one of 0.0, replayed in either order,
    each replay their own zero, and again from the tape's cache."""
    tape, kb = fresh_kb()
    defaults = [Constant(z) for z in zeros]
    for _ in range(2):
        replayed = [c.replay(kb, {}) for c in defaults]
        assert replayed[0].index != replayed[1].index
        assert [math.copysign(1.0, r.value) for r in replayed] == [
            math.copysign(1.0, z) for z in zeros]


def test_rules_sharing_a_name_replay_apart():
    """Two trainable modus ponens rules, both named
    "trainable-modus-ponens", with different weights: the replay memo keys
    an application by its rule object, so the second rule's proof has that
    rule's own value."""
    tape, kb = fresh_kb()
    load_kb(kb, """
    (ImplicationLink (stv 0.8 1.0) (PredicateNode "p") (PredicateNode "q"))
    (EvaluationLink (stv 0.9 1.0) (PredicateNode "p") (ConceptNode "a"))
    """)
    w1, w2 = ([tape.parameter(0.0) for _ in range(4)] for _ in range(2))
    w2[3].value = 3.0
    rules = [make_modus_ponens_rule(kb, weights=w) for w in (w1, w2)]
    assert rules[0].name == rules[1].name
    target = parse_atom(kb, '(EvaluationLink (PredicateNode "q") (ConceptNode "a"))')
    config = ChainConfig(max_depth=1)
    ((_, alone, _),) = backward_chain(kb, rules[1:], target, config)
    assert alone.value == pytest.approx(1.0 / (1.0 + math.exp(-3.0)))
    both = backward_chain(kb, rules, target, config)
    assert [s.value for _, s, _ in both] == [0.5, alone.value]


def test_rule_rejects_a_shape_lifting_would_change():
    """A rule is rejected when made if it has no premise (the search walks
    its last premise's column), its conclusion is a variable, has a
    variable no premise has, or a premise has a non-ground link or a
    repeated variable as argument.  Made without that last check, a rule
    with the premise Eval($p, Not($x)) still gives a lifted query
    Eval(p, $T) the proofs of Eval(p, g) that the ground query finds: the
    inner step leaves its rule variable unbound against the partial
    pattern Eval(p, Not($x)) and unifies its conclusion with it."""
    tape, kb = fresh_kb()
    p, x, y = (kb.node("VariableNode", n) for n in ("$p", "$x", "$y"))
    ev = functools.partial(kb.link, "EvaluationLink")
    nested = ev(p, kb.link("NotLink", x))
    shapes = {"variable conclusion": ([ev(p, x)], x),
              "unbound conclusion variable": ([ev(p, x)], ev(p, y)),
              "non-ground link argument": ([nested], ev(p, x)),
              "repeated variable": ([kb.link("InheritanceLink", x, x), ev(p, y)],
                                    ev(p, x)),
              "no premise": ([], ev(kb.node("PredicateNode", "q"),
                                    kb.node("ConceptNode", "g")))}
    for name, (premises, conclusion) in shapes.items():
        with pytest.raises(ChainError, match="rule %s: not of the shape" % name):
            chainer.Rule(kb, name=name, variables=[], premises=premises,
                         conclusion=conclusion, formula=lambda inputs: inputs[0])
    ok = chainer.Rule(kb, name="ok", variables=[], conclusion=ev(p, y),
                      premises=[ev(p, x), kb.link("InheritanceLink", x, y), x],
                      formula=lambda inputs: inputs[0])
    assert ok.conclusion == ev(p, y)

    class Unchecked(chainer.Rule):
        def check_shape(self, kb, args):
            pass
    rule = Unchecked(kb, name="not", variables=[], premises=[nested],
                     conclusion=ev(p, x), formula=lambda inputs: inputs[0])
    pred, g = kb.node("PredicateNode", "p"), kb.node("ConceptNode", "g")
    set_strength(kb, ev(pred, kb.link("NotLink", kb.link("NotLink", g))), 0.5)
    config = ChainConfig(max_depth=2)
    (ground,) = chainer.prove(kb, [rule], [ev(pred, g)], config)
    lifted_var = kb.node("VariableNode", "$T")
    (lifted,) = chainer.prove(kb, [rule], [ev(pred, lifted_var)], config)
    assert len(ground) == 1
    assert [t for b, t in lifted if b[lifted_var] == g] == [t for _, t in ground]


def test_chain_config_validation():
    """Each mode checks only the bound it reads, and rejects a bound that
    is not an int with ChainError: a depth of 1.5 would key the subgoal
    table at 1.5 and 0.5."""
    _, kb = fresh_kb()
    load_kb(kb, SPARROW_KB)
    rule = make_deduction_rule(kb)
    with pytest.raises(ChainError, match="max_steps must be >= 1"):
        forward_chain(kb, [rule], ChainConfig(max_steps=0))
    for steps in (2.5, True):  # a bool is no int: True would run one step
        with pytest.raises(ChainError, match="max_steps must be an int"):
            forward_chain(kb, [rule], ChainConfig(max_steps=steps))
    assert forward_chain(kb, [rule], ChainConfig(max_depth=0))[0]
    target = parse_atom(kb, '(InheritanceLink (ConceptNode "sparrow") '
                            '(ConceptNode "animal"))')
    with pytest.raises(ChainError, match="max_depth must be >= 1"):
        backward_chain(kb, [rule], target, ChainConfig(max_depth=0))
    for depth in (1.5, "3", True):
        with pytest.raises(ChainError, match="max_depth must be an int"):
            backward_chain(kb, [rule], target, ChainConfig(max_depth=depth))
        with pytest.raises(ChainError, match="max_depth must be an int"):
            chainer.first_proofs(kb, [rule], [target], ChainConfig(max_depth=depth))
    assert kb.subgoal_table is None or not kb.subgoal_table.memo
    assert backward_chain(kb, [rule], target, ChainConfig(max_steps=0))
    assert backward_chain(kb, [rule], target, ChainConfig(max_steps=2.5))


class _StoreNothing(dict):
    def __setitem__(self, key, value):
        pass


def test_backward_chain_memoizes_every_subgoal(monkeypatch):
    """On a deduction ladder, each (pattern, depth) subgoal, variable-bearing
    ones included, is solved once, with the same proofs, bindings,
    strengths and order as a search whose memo never stores."""
    _, kb = fresh_kb()
    n = 6
    lines = ['(ConceptNode (stv 0.5 0.9) "c%d")' % i for i in range(n + 1)]
    lines += ['(InheritanceLink (stv 0.9 0.9) (ConceptNode "c%d") '
              '(ConceptNode "c%d"))' % (i, i + 1) for i in range(n)]
    load_kb(kb, "\n".join(lines))
    rules = [make_deduction_rule(kb)]
    solved = []
    solve, init = chainer._Search.solve, chainer._Search.__init__

    def counting(self, kb, pattern, depth):
        if (pattern, depth) not in self.memo:
            solved.append((pattern, depth))
        return solve(self, kb, pattern, depth)

    def forgetful(self, rules):
        init(self, rules)
        self.memo = _StoreNothing()
    monkeypatch.setattr(chainer._Search, "solve", counting)

    # Inh(c0, ck) has Catalan(k - 1) proofs
    for text, proofs in [('(InheritanceLink (ConceptNode "c0") '
                          '(ConceptNode "c6"))', 42),
                         ('(InheritanceLink (ConceptNode "c0") '
                          '(VariableNode "$Z"))', 1 + 1 + 2 + 5 + 14 + 42)]:
        target = parse_atom(kb, text)
        solved.clear()
        kb.subgoal_table = None  # each search starts from an empty table
        got = _proofs(kb, rules, target, n)
        assert len(got) == proofs
        assert len(solved) == len(set(solved))
        assert any(not kb.atom(p).is_ground for p, _ in solved)
        with monkeypatch.context() as m:
            m.setattr(chainer._Search, "__init__", forgetful)
            solved.clear()
            kb.subgoal_table = None
            assert _proofs(kb, rules, target, n) == got
            assert len(solved) > len(set(solved))


def _scan_every_atom(kb, pattern, binding):
    """The reference candidate pool: every asserted ground atom, in id order."""
    return [a for a in range(len(kb))
            if kb.atom(a).is_ground and kb.has_asserted_tv(a)]


def _proofs(kb, rules, target, depth):
    return [(sorted(b.items()), s.value, _serialize(t))
            for b, s, t in backward_chain(kb, rules, target,
                                          ChainConfig(max_depth=depth))]


def _assert_same_as_full_scan(monkeypatch, kb, rules, target, depth):
    """Same proofs, bindings, strengths and order as a search whose depth-0
    facts come from scanning every atom (kept if asserted and unifiable)."""
    got = _proofs(kb, rules, target, depth)
    with monkeypatch.context() as m:
        m.setattr(chainer, "candidates", _scan_every_atom)
        kb.subgoal_table = None  # search again, not reuse got's table
        expected = _proofs(kb, rules, target, depth)
    assert got and got == expected


def test_backward_chain_short_type_index_long_incoming(monkeypatch):
    """Impl($P, red) with three ImplicationLinks and many EvaluationLinks
    over red: the type index is the shorter pool."""
    _, kb = fresh_kb()
    lines = ['(ImplicationLink (stv %s 1.0) (PredicateNode "%s") '
             '(PredicateNode "%s"))' % (s, p, q) for s, p, q in
             [(0.7, "apple", "red"), (0.4, "banana", "red"),
              (0.6, "apple", "green")]]
    lines += ['(EvaluationLink (stv 1.0 1.0) (PredicateNode "red") '
              '(ConceptNode "c%d"))' % i for i in range(40)]
    lines += ['(EvaluationLink (stv %s 1.0) (PredicateNode "%s") '
              '(ConceptNode "x"))' % (s, p)
              for s, p in [(0.9, "apple"), (0.3, "banana")]]
    load_kb(kb, "\n".join(lines))
    rules = make_rule_set(kb)
    red = kb.node("PredicateNode", "red")
    subgoal = kb.link("ImplicationLink", kb.node("VariableNode", "$P"), red)
    impls = [a for a in kb.atoms_of_type("ImplicationLink")
             if kb.atom(a).is_ground]
    assert len(impls) < len(kb.incoming_of[red])
    assert candidates(kb, subgoal, {}) == impls
    for target in ['(EvaluationLink (PredicateNode "red") (ConceptNode "x"))',
                   '(EvaluationLink (PredicateNode "red") '
                   '(VariableNode "$Y"))']:
        _assert_same_as_full_scan(monkeypatch, kb, rules,
                                  parse_atom(kb, target), 2)


def test_backward_chain_long_type_index_short_incoming(monkeypatch):
    """Inh(a0, $Y) on a ladder among many Inheritance distractors: the
    incoming set of a0 is the shorter pool."""
    _, kb = fresh_kb()
    lines = ['(InheritanceLink (stv %.2f 1.0) (ConceptNode "a%d") '
             '(ConceptNode "a%d"))' % (0.9 - 0.05 * i, i, i + 1)
             for i in range(5)]
    lines += ['(InheritanceLink (stv 0.5 1.0) (ConceptNode "d%d") '
              '(ConceptNode "e%d"))' % (i, i) for i in range(40)]
    lines.append('(InheritanceLink (stv 0.8 1.0) (ConceptNode "a0") '
                 '(ConceptNode "a3"))')
    load_kb(kb, "\n".join(lines))
    rules = [make_deduction_rule(kb)]
    a0 = kb.node("ConceptNode", "a0")
    subgoal = kb.link("InheritanceLink", a0, kb.node("VariableNode", "$Y"))
    from_a0 = [a for a in kb.incoming_of[a0] if kb.atom(a).is_ground]
    assert len(kb.incoming_of[a0]) < len(kb.atoms_of_type("InheritanceLink"))
    assert candidates(kb, subgoal, {}) == from_a0
    for target in ['(InheritanceLink (ConceptNode "a0") (ConceptNode "a5"))',
                   '(InheritanceLink (ConceptNode "a0") (VariableNode "$Z"))']:
        _assert_same_as_full_scan(monkeypatch, kb, rules,
                                  parse_atom(kb, target), 3)


def _valued_ladder(n):
    """A deduction ladder c0 -> ... -> cn whose ConceptNodes are valued, so
    every deduction term is a Leaf."""
    _, kb = fresh_kb()
    lines = ['(ConceptNode (stv 0.5 0.9) "c%d")' % i for i in range(n + 1)]
    lines += ['(InheritanceLink (stv 0.9 0.9) (ConceptNode "c%d") '
              '(ConceptNode "c%d"))' % (i, i + 1) for i in range(n)]
    load_kb(kb, "\n".join(lines))
    return kb


def _count_formula_calls(rules):
    """Wraps each rule's formula; the returned list gets one (rule name,
    input record indices) key per call."""
    calls = []
    for rule in rules:
        def counted(inputs, formula=rule.formula, name=rule.name):
            calls.append((name, tuple(v.index for v in inputs)))
            return formula(inputs)
        rule.formula = counted
    return calls


def _nodes(trace):
    """Every node of a trace as a tree: a subproof shared by two parents
    is visited under each."""
    yield trace
    for child in getattr(trace, "premises", []) + getattr(trace, "terms", []):
        yield from _nodes(child)


def _counting_interns(monkeypatch):
    """Counts AtomSpace._link calls from here on: every link is interned
    there, through intern_link or unchecked."""
    calls = []
    intern = AtomSpace._link

    def counting(self, *args):
        calls.append(args)
        return intern(self, *args)
    monkeypatch.setattr(AtomSpace, "_link", counting)
    return calls


def test_search_interns_only_new_atoms(monkeypatch):
    """Counts only, no timing.  On a KB shaped like fruit-colors (two
    fruits, n instances each, both Impl(fruit, color) asserted, every target
    interned), a lifted Eval(color, $lifted) query derives each instance
    once, 2n calls to _derive, and interns only atoms it adds: asked again
    on a fresh table it interns nothing.  A ground deduction query asked
    again on a fresh table interns nothing and leaves the KB's size alone."""
    derived = []
    derive = chainer._derive

    def counting(*args):
        derived.append(1)
        return derive(*args)
    monkeypatch.setattr(chainer, "_derive", counting)
    n = 20
    _, kb = fresh_kb()
    color = kb.node("PredicateNode", "red")
    for fruit in ("apple", "banana"):
        pred = kb.node("PredicateNode", fruit)
        for i in range(n):
            instance = kb.node("ConceptNode", "%s-%03d" % (fruit, i))
            set_strength(kb, kb.link("EvaluationLink", pred, instance), 1.0)
            kb.link("EvaluationLink", color, instance)
        set_strength(kb, kb.link("ImplicationLink", pred, color), 0.5)
    rules = [make_modus_ponens_rule(kb)]
    lifted = kb.link("EvaluationLink", color, kb.node("VariableNode", "$lifted"))
    config = ChainConfig(max_depth=1)
    interned = _counting_interns(monkeypatch)
    size = len(kb)
    (first,) = chainer.prove(kb, rules, [lifted], config)
    assert len(interned) == len(kb) - size  # each call added an atom
    kb.subgoal_table = None
    derived.clear()
    interned.clear()
    size = len(kb)
    (again,) = chainer.prove(kb, rules, [lifted], config)
    assert len(derived) == 2 * n == len(again)
    assert interned == [] and len(kb) == size
    assert [(b, t.conclusion) for b, t in again] == [
        (b, t.conclusion) for b, t in first]

    kb = _valued_ladder(5)
    rules = [make_deduction_rule(kb)]
    target = parse_atom(kb, '(InheritanceLink (ConceptNode "c0") '
                            '(ConceptNode "c5"))')
    first = _proofs(kb, rules, target, 5)
    kb.subgoal_table = None
    interned.clear()
    size = len(kb)
    assert _proofs(kb, rules, target, 5) == first
    assert interned == [] and len(kb) == size


def _check_lifted_walk(monkeypatch, make_rule, depth=3):
    """On a KB of fruit-colors' shape (two fruits, 6 instances each, both
    Impl(fruit, red) asserted), first_proofs over the second fruit's
    targets, Eval(red, instance), with the rule ``make_rule(kb)`` and
    max_depth ``depth``: the search walks one lane per target, binding $X
    to its instance, and builds one Derivation per target, none for the
    first fruit's instances; each trace is prove's first derivation of its
    target."""
    _, kb = fresh_kb()
    color = kb.node("PredicateNode", "red")
    targets = {}
    for fruit in ("apple", "banana"):
        pred = kb.node("PredicateNode", fruit)
        for i in range(6):
            instance = kb.node("ConceptNode", "%s-%03d" % (fruit, i))
            set_strength(kb, kb.link("EvaluationLink", pred, instance), 1.0)
            targets.setdefault(fruit, []).append(
                kb.link("EvaluationLink", color, instance))
        set_strength(kb, kb.link("ImplicationLink", pred, color), 0.5)
    rules, config = [make_rule(kb)], ChainConfig(max_depth=depth)
    walked, built = [], []
    lanes = chainer._Search.lanes

    def counting(self, kb, pattern, depth, *args):
        for lane in lanes(self, kb, pattern, depth, *args):
            walked.append(lane[2])
            yield lane

    class Counted(Derivation):
        def __init__(self, *args):
            built.append(args[2])
            super().__init__(*args)
    monkeypatch.setattr(chainer._Search, "lanes", counting)
    monkeypatch.setattr(chainer, "Derivation", Counted)
    traces = chainer.first_proofs(kb, rules, targets["banana"], config)
    monkeypatch.undo()
    kb.subgoal_table = None
    first = [next(t for _, t in proofs if isinstance(t, Derivation))
             for proofs in chainer.prove(kb, rules, targets["banana"], config)]
    assert [(t.rule, t.binding, t.conclusion, t.premises, t.terms) for t in traces] == [
        (t.rule, t.binding, t.conclusion, t.premises, t.terms) for t in first]
    var_x = kb.node("VariableNode", "$X")
    instances = [kb.atoms[t].outgoing[1] for t in targets["banana"]]
    assert [full[var_x] for full in walked] == instances
    assert built == targets["banana"]


def test_lifted_lanes_walk_only_the_group_targets(monkeypatch):
    """Counts only, no timing, of fruit-colors' modus ponens: its prefix,
    Impl(fruit, red), leaves $lifted to the Eval column, which is filtered
    member by member."""
    _check_lifted_walk(monkeypatch, make_modus_ponens_rule)


def test_a_prefix_binding_the_lifted_variable_elsewhere_skips_its_column(monkeypatch):
    """Modus ponens with its premises swapped, Eval($P, $X) first: each
    prefix binds $X, the lifted variable, and a prefix binding it to the
    first fruit's instance skips its whole Impl column, so no lane and no
    Derivation is built outside the group; each trace is still prove's
    first derivation of its target.  At depth 1 the prefixes are facts, so
    every lane walked and every Derivation built is the lifted query's."""
    def eval_first(kb):
        mp = make_modus_ponens_rule(kb)
        return Rule(kb, name="mp-eval-first", variables=mp.variables,
                    premises=mp.premises[::-1], conclusion=mp.conclusion,
                    formula=lambda inputs: mp.formula([inputs[1], inputs[0],
                                                       *inputs[2:]]),
                    terms=mp.terms)
    _check_lifted_walk(monkeypatch, eval_first, 1)


def test_a_skipped_prefix_leaves_its_column_unsolved():
    """Modus ponens with its premises swapped, Eval($P, $X) first, at depth
    2: first_proofs of the apple instances' Eval(red, a_i) skips each
    prefix binding $X to a banana instance before its column is solved, so
    the table holds no entry for Impl(banana, red); each trace is still
    prove's first derivation of its target."""
    _, kb = fresh_kb()
    red = kb.node("PredicateNode", "red")
    targets = []
    for fruit in ("apple", "banana"):
        pred = kb.node("PredicateNode", fruit)
        for i in range(3):
            instance = kb.node("ConceptNode", "%s-%d" % (fruit, i))
            set_strength(kb, kb.link("EvaluationLink", pred, instance), 1.0)
            if fruit == "apple":
                targets.append(kb.link("EvaluationLink", red, instance))
        set_strength(kb, kb.link("ImplicationLink", pred, red), 0.5)
    mp = make_modus_ponens_rule(kb)
    rules = [Rule(kb, name="mp-eval-first", variables=mp.variables,
                  premises=mp.premises[::-1], conclusion=mp.conclusion,
                  formula=lambda inputs: mp.formula([inputs[1], inputs[0],
                                                     *inputs[2:]]),
                  terms=mp.terms)]
    config = ChainConfig(max_depth=2)
    traces = chainer.first_proofs(kb, rules, targets, config)
    banana_red = kb.find_link("ImplicationLink",
                              [kb.node("PredicateNode", "banana"), red])
    assert all(pattern != banana_red for pattern, _ in kb.subgoal_table.memo)
    kb.subgoal_table = None
    first = [next(t for _, t in proofs if isinstance(t, Derivation))
             for proofs in chainer.prove(kb, rules, targets, config)]
    assert [(t.rule, t.binding, t.conclusion, t.premises, t.terms) for t in traces] == [
        (t.rule, t.binding, t.conclusion, t.premises, t.terms) for t in first]


def test_a_ground_node_in_a_conclusion_meets_only_itself():
    """Eval(apple, $X) |- Eval(green, $X): a target naming another
    predicate, or of another arity, matches no conclusion and has no
    proof; Eval(green, x) has one."""
    _, kb = fresh_kb()
    load_kb(kb, APPLE_KB)
    var_x = kb.node("VariableNode", "$X")
    ev = lambda *args: kb.link("EvaluationLink", *args)
    apple, green, red = (kb.node("PredicateNode", n) for n in ("apple", "green", "red"))
    rule = Rule(kb, name="apple-is-green", variables=[(var_x, "ConceptNode")],
                premises=[ev(apple, var_x)], conclusion=ev(green, var_x),
                formula=lambda inputs: inputs[0])
    x = kb.node("ConceptNode", "apple-001")
    proofs = chainer.prove(kb, [rule], [ev(red, x), ev(green, x, x), ev(green, x)],
                           ChainConfig(max_depth=2))
    assert [len(p) for p in proofs] == [0, 0, 1]


def test_unasserted_leaf_reads_the_default_truth_value():
    """A Leaf over an atom with no truth value replays to the default
    strength, and commit reads its default confidence; a Leaf over an id
    the KB does not hold, or one that is not an int, raises
    UnknownAtomError in both, as get_tv does."""
    _, kb = fresh_kb()
    load_kb(kb, APPLE_KB)
    rule = make_modus_ponens_rule(kb)
    asserted = next(iter(kb.tvs))
    unvalued = kb.node("ConceptNode", "unvalued")
    target = kb.link("EvaluationLink", kb.node("PredicateNode", "green"), unvalued)
    assert Leaf(unvalued).replay(kb, {}).value == DEFAULT_STRENGTH
    chainer.commit(kb, Derivation(rule, {}, target, [Leaf(unvalued)], []),
                   kb.tape.constant(0.5))
    assert kb.get_tv(target).confidence == DEFAULT_CONFIDENCE
    for bad in (len(kb), -1, float(asserted), [asserted]):
        with pytest.raises(UnknownAtomError):
            Leaf(bad).replay(kb, {})
        with pytest.raises(UnknownAtomError):
            chainer.commit(kb, Derivation(rule, {}, target, [Leaf(bad)], []),
                           kb.tape.constant(0.5))


def test_schema_is_expanded_once_per_table(monkeypatch):
    """Counts only, no timing.  With Impl(p, q), Impl(q, r), Impl(q, s), n
    facts Eval(p, x) and a fact Eval(q, x0), the column of p facts gives
    Eval(q, $X) at depth 2 one prefix of n lanes, which its table entry
    holds derived, as (binding, trace) pairs, after n _derive calls;
    Eval(r, $V) and Eval(s, $V) at depth 3 both read that entry as a
    premise's solutions.
    _derive runs once per derivation, 3n + 2 times, as in the per-instance
    search (terms read per lane), and both give the same proofs in the same
    order."""
    derived = []
    derive = chainer._derive

    def counting(*args):
        derived.append(1)
        return derive(*args)
    monkeypatch.setattr(chainer, "_derive", counting)
    n = 6
    _, kb = fresh_kb()
    p, q, r, s = (kb.node("PredicateNode", name) for name in "pqrs")
    for a, b, strength in [(p, q, 0.7), (q, r, 0.6), (q, s, 0.5)]:
        set_strength(kb, kb.link("ImplicationLink", a, b), strength, 0.9)
    xs = [kb.node("ConceptNode", "x%d" % i) for i in range(n)]
    for i, x in enumerate(xs):
        set_strength(kb, kb.link("EvaluationLink", p, x), 0.1 + 0.1 * i, 0.8)
    set_strength(kb, kb.link("EvaluationLink", q, xs[0]), 0.3)
    rule = make_modus_ponens_rule(kb)
    x_var = rule.variables[2][0]
    (entry,) = chainer.prove(kb, [rule], [kb.link("EvaluationLink", q, x_var)],
                             ChainConfig(max_depth=2))
    assert [type(e) is tuple for e in entry] == [True] * (n + 1)
    assert len(derived) == n

    var = kb.node("VariableNode", "$V")
    targets = [kb.link("EvaluationLink", c, var) for c in (r, s)]
    got = [_proofs(kb, [rule], t, 3) for t in targets]  # one table
    assert [len(g) for g in got] == [n + 1, n + 1]
    assert len(derived) == 3 * n + 2
    derived.clear()
    kb.subgoal_table = None
    rule.hoist = False
    assert [_proofs(kb, [rule], t, 3) for t in targets] == got
    assert len(derived) == 3 * n + 2


def test_structural_search_writes_no_tape_record():
    """prove only builds traces: no formula call and no tape record until
    replay, and trace nodes carry no strength field for replay to set."""
    kb = _valued_ladder(6)
    load_kb(kb, APPLE_KB)
    rules = make_rule_set(kb)
    calls = _count_formula_calls(rules)
    targets = [parse_atom(kb, text) for text in [
        '(InheritanceLink (ConceptNode "c0") (ConceptNode "c6"))',
        '(InheritanceLink (ConceptNode "c1") (VariableNode "$Z"))',
        '(EvaluationLink (PredicateNode "green") (ConceptNode "apple-001"))',
        '(AndLink (EvaluationLink (PredicateNode "apple") (ConceptNode '
        '"apple-001")) (EvaluationLink (PredicateNode "green") (ConceptNode '
        '"apple-001")))']]
    records = len(kb.tape)
    proofs = chainer.prove(kb, rules, targets, ChainConfig(max_depth=6))
    assert len(kb.tape) == records and calls == []
    assert [len(p) for p in proofs] == [42, 1 + 1 + 2 + 5 + 14, 1, 1]
    nodes = [n for p in proofs for _, trace in p for n in _nodes(trace)]
    assert {type(n) for n in nodes} == {Leaf, Constant, Derivation}
    assert not any(hasattr(n, "strength") for n in nodes)
    for p in proofs:
        for _, trace in p:
            trace.replay(kb, {})
    assert calls


def test_backward_chain_replays_each_formula_key_once():
    """On the valued n = 6 ladder, two queries through one subgoal table
    make one formula call per distinct (rule, input records) key of their
    derivations, the union of both queries' keys: the table's replay memo
    collapses the applications that many proofs and both queries share
    (and, as the ladder's equal strengths are one cached constant record,
    those with equal inputs)."""
    kb = _valued_ladder(6)
    rule = make_deduction_rule(kb)
    calls, outputs = [], {}
    formula = rule.formula

    def counted(inputs):
        out = formula(inputs)
        calls.append((rule.name, tuple(v.index for v in inputs)))
        outputs[calls[-1]] = out.index
        return out
    rule.formula = counted

    def record(trace):  # a trace's output record, read from the calls made
        if isinstance(trace, Derivation):
            return outputs[trace.rule.name, tuple(record(c) for c in
                                                  trace.premises + trace.terms)]
        if isinstance(trace, Leaf):
            return kb.get_tv(trace.atom).strength.index
        return kb.tape.constant(trace.value).index
    derivations = []
    for text in ['(InheritanceLink (ConceptNode "c0") (ConceptNode "c6"))',
                 '(InheritanceLink (ConceptNode "c0") (VariableNode "$Z"))']:
        results = backward_chain(kb, [rule], parse_atom(kb, text),
                                 ChainConfig(max_depth=6))
        derivations += [n for _, _, t in results for n in _nodes(t)
                        if isinstance(n, Derivation)]
    size = len(kb.tape)
    keys = {(n.rule.name, tuple(record(c) for c in n.premises + n.terms))
            for n in derivations}
    assert len(kb.tape) == size  # every input was a record already
    assert len(calls) == len(set(calls)) == len(keys)
    assert set(calls) == keys
    assert len(keys) < len(derivations)


def test_tall_proof_at_max_search_depth():
    """A 200-link implication chain under modus ponens alone: at
    MAX_SEARCH_DEPTH, backward_chain returns the one proof of the chain's
    end, 200 applications tall, replayed to the closed-form strength without
    a RecursionError."""
    n = MAX_SEARCH_DEPTH
    _, kb = fresh_kb()
    load_kb(kb, tall_implication_kb(n))
    rule = make_modus_ponens_rule(kb)
    target = parse_atom(kb, '(EvaluationLink (PredicateNode "p%d") '
                            '(ConceptNode "x"))' % n)
    ((binding, strength, trace),) = backward_chain(
        kb, [rule], target, ChainConfig(max_depth=MAX_SEARCH_DEPTH))
    assert binding == {}
    height = 0
    node = trace
    while isinstance(node, Derivation):
        height += 1
        node = node.premises[1]
    assert height == n and node.atom == kb.find_link(
        "EvaluationLink", [kb.node("PredicateNode", "p0"),
                           kb.node("ConceptNode", "x")])
    assert len(list(trace.leaves())) == n + 1
    expected = 1.0
    for _ in range(n):
        expected = 0.9 * expected + 0.2 * (1.0 - expected)
    assert strength.value == pytest.approx(expected, abs=1e-12)
