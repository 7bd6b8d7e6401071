"""The KB's subgoal table, shared by backward-chaining calls: it is reused
while the asserted set and the rule list are unchanged, and every result
equals a search through a fresh table.  Its replay memo serves a repeated
query without a formula call, and every value it returns is the one a fresh
KB gives after parameter writes, tape resets, new strengths and traced
losses."""

import gc
import random
import weakref

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpln import (AtomSpace, ChainConfig, Leaf, Tape, TruthValue, apply_rule,
                  backward_chain, load_kb, make_deduction_rule, make_rule_set,
                  parse_atom)
from dpln import chainer
from dpln.autodiff import trace_loss
from dpln.training import cross_entropy, fit, sgd_step

from conftest import fresh_kb, set_strength


def _shape(trace):
    """Rule, binding and conclusion of a trace, with every term as its atom
    or default, recursively."""
    if isinstance(trace, Leaf):
        return ("leaf", trace.atom)
    if isinstance(trace, chainer.Constant):
        return ("default", trace.value)
    return (trace.rule.name, sorted(trace.binding.items()), trace.conclusion,
            [_shape(c) for c in trace.premises], [_shape(t) for t in trace.terms])


def _summary(results):
    return [(sorted(b.items()), s.value, _shape(t)) for b, s, t in results]


def _results(kb, rules, target, depth):
    return _summary(backward_chain(kb, rules, target, ChainConfig(max_depth=depth)))


def _fresh_results(kb, rules, target, depth):
    """The same query through a fresh table; the KB's table is restored."""
    kept = kb.subgoal_table
    kb.subgoal_table = None
    try:
        return _results(kb, rules, target, depth)
    finally:
        kb.subgoal_table = kept


def _count_new_subgoals(monkeypatch):
    """Patches the search to record each (pattern, depth) it computes
    rather than finds in its table."""
    computed = []
    solve = chainer._Search.solve

    def counting(self, kb, pattern, depth):
        if (pattern, depth) not in self.memo:
            computed.append((pattern, depth))
        return solve(self, kb, pattern, depth)
    monkeypatch.setattr(chainer._Search, "solve", counting)
    return computed


LADDER = "\n".join(
    ['(ConceptNode (stv 0.5 0.9) "c%d")' % i for i in range(5)]
    + ['(InheritanceLink (stv 0.9 0.9) (ConceptNode "c%d") (ConceptNode "c%d"))'
       % (i, i + 1) for i in range(4)])
TOP = '(InheritanceLink (ConceptNode "c0") (ConceptNode "c4"))'


def test_repeated_query_computes_no_new_subgoal(monkeypatch):
    """A repeated query on an unchanged KB is answered from the table; a
    new unasserted atom keeps it, and one new assertion ends it at once."""
    _, kb = fresh_kb()
    load_kb(kb, LADDER)
    rules = make_rule_set(kb)
    computed = _count_new_subgoals(monkeypatch)
    target = parse_atom(kb, TOP)
    first = _results(kb, rules, target, 4)
    assert len(first) == 5 and computed
    computed.clear()
    parse_atom(kb, '(InheritanceLink (ConceptNode "c0") (ConceptNode "new"))')
    assert _results(kb, rules, target, 4) == first
    assert computed == []
    set_strength(kb, kb.node("ConceptNode", "c5"), 0.5)
    assert kb.subgoal_table is None
    assert _results(kb, rules, target, 4) == first
    assert computed


def test_other_rule_list_starts_a_fresh_table(monkeypatch):
    """The table belongs to one rule list, by the identity of its Rule
    objects: a copy of the list reuses it, a sublist does not."""
    _, kb = fresh_kb()
    load_kb(kb, LADDER)
    rules = make_rule_set(kb)
    computed = _count_new_subgoals(monkeypatch)
    target = parse_atom(kb, TOP)
    full = _results(kb, rules, target, 4)
    computed.clear()
    assert _results(kb, list(rules), target, 4) == full
    assert computed == []
    assert _results(kb, rules[2:], target, 4) == []  # no deduction rule
    assert computed
    computed.clear()
    assert _results(kb, rules, target, 4) == full
    assert computed


def test_strength_change_keeps_the_table(monkeypatch):
    """Setting a new strength on an asserted atom keeps the table object,
    and the next replay reads the new value."""
    _, kb = fresh_kb()
    load_kb(kb, LADDER)
    rules = make_rule_set(kb)
    computed = _count_new_subgoals(monkeypatch)
    target = parse_atom(kb, '(InheritanceLink (ConceptNode "c0") (ConceptNode "c2"))')
    ((_, before, _),) = _results(kb, rules, target, 2)
    computed.clear()
    table = kb.subgoal_table
    set_strength(kb, parse_atom(kb, '(ConceptNode "c1")'), 0.25, 0.9)
    assert kb.subgoal_table is table
    ((_, after, shape),) = _results(kb, rules, target, 2)
    assert computed == []
    assert after != before
    assert _fresh_results(kb, rules, target, 2) == [([], after, shape)]


def test_dropped_kb_is_freed_without_gc():
    """With the cycle collector off, a queried KB dies with its last
    reference: its table holds no reference back to it."""
    gc.disable()
    try:
        kb = AtomSpace(Tape())
        load_kb(kb, LADDER)
        rules = make_rule_set(kb)
        assert backward_chain(kb, rules, parse_atom(kb, TOP), ChainConfig(max_depth=4))
        assert kb.subgoal_table is not None
        ref = weakref.ref(kb)
        del kb
        assert ref() is None
    finally:
        gc.enable()


# -- the table's replay memo: every value is a fresh KB's -----------------

def _param_chain(edges):
    """Criterion 6's shape: the deduction chain c0 -> ... -> c<n> with
    constant concept strengths and one tape parameter per edge, valued
    ``edges``.  Returns the KB, its rules, the parameters and Inh(c0, c<n>)."""
    tape, kb = fresh_kb()
    concepts = [kb.node("ConceptNode", "c%d" % i) for i in range(len(edges) + 1)]
    for i, c in enumerate(concepts):
        set_strength(kb, c, 0.6 - 0.05 * i)
    params = [tape.parameter(s) for s in edges]
    for x, y, p in zip(concepts, concepts[1:], params):
        kb.set_tv(kb.link("InheritanceLink", x, y), TruthValue(p, 1.0))
    return kb, [make_deduction_rule(kb)], params, kb.link(
        "InheritanceLink", concepts[0], concepts[-1])


def _query(kb, rules, target):
    return [s for _, s, _ in backward_chain(kb, rules, target, ChainConfig(max_depth=3))]


def _query_loss(kb, rules, target):
    """A loss that queries: every proof's strength against the label 1."""
    strengths = _query(kb, rules, target)
    return cross_entropy(strengths, [1.0] * len(strengths))


def _values(kb, rules, target):
    return [s.value for s in _query(kb, rules, target)]


def _fresh(edges):
    """The query's strengths on a fresh chain valued ``edges``."""
    kb, rules, _, target = _param_chain(edges)
    return _values(kb, rules, target)


def test_parameter_writes_reach_the_next_query():
    """After a query, a parameter's value set in place and then an SGD step
    each give the next query a fresh KB's strengths."""
    kb, rules, params, target = _param_chain([0.8] * 4)
    first = _values(kb, rules, target)
    params[0].value = 0.2
    assert _values(kb, rules, target) == _fresh([p.value for p in params]) != first
    kb.tape.backward(_query(kb, rules, target)[-1])
    before = [p.value for p in params]
    sgd_step(params, 0.5)
    assert [p.value for p in params] != before
    assert _values(kb, rules, target) == _fresh([p.value for p in params])


def test_a_tape_reset_below_a_query_leaves_no_stale_strength():
    """A reset to a mark below a query's records, and new records in their
    place: the next query returns live VarRefs with a fresh KB's values."""
    edges = [0.8, 0.7, 0.6, 0.5]
    kb, rules, _, target = _param_chain(edges)
    mark = kb.tape.mark()
    assert _values(kb, rules, target) == _fresh(edges)
    kb.tape.reset_to(mark)
    for i in range(60):  # reuse the discarded indices
        kb.tape.constant(0.001 * i)
    assert _values(kb, rules, target) == _fresh(edges)


def test_a_new_strength_on_an_asserted_leaf_is_read():
    """``set_tv`` of a new strength on an asserted edge: the next query
    reads it, as a fresh KB does."""
    edges = [0.8, 0.7, 0.6, 0.5]
    kb, rules, _, target = _param_chain(edges)
    first = _values(kb, rules, target)
    c1 = kb.node("ConceptNode", "c1")
    edge = kb.link("InheritanceLink", kb.node("ConceptNode", "c0"), c1)
    kb.set_tv(edge, TruthValue(kb.tape.constant(0.3), 1.0))
    assert _values(kb, rules, target) == _fresh([0.3] + edges[1:]) != first


def test_a_traced_loss_that_queries_compiles_after_a_warm_up_query():
    """A query outside the loss first, then ``trace_loss`` of a loss that
    queries: it compiles, and after the parameters move its replay gives
    the loss and grads of a re-trace."""
    kb, rules, params, target = _param_chain([0.8, 0.7, 0.6, 0.5])
    tape = kb.tape
    _query(kb, rules, target)
    mark = tape.mark()
    loss, replay = trace_loss(params, lambda: _query_loss(kb, rules, target))
    for p, x in zip(params, [0.6, 0.9, 0.4, 0.7]):
        p.value = x
    tape.zero_grads()
    assert replay()
    replayed = [loss.value] + [p.grad for p in params]
    tape.reset_to(mark)
    tape.zero_grads()
    fresh = _query_loss(kb, rules, target)
    tape.backward(fresh)
    assert replayed == [fresh.value] + [p.grad for p in params]


def test_fit_on_a_loss_that_queries_matches_fresh_steps():
    """``fit`` after a warm-up query: each step's loss and the final
    parameters are those of plain SGD steps, each on a fresh KB."""
    edges, rate = [0.8, 0.7, 0.6, 0.5], 0.1
    kb, rules, params, target = _param_chain(edges)
    _query(kb, rules, target)
    losses = fit(params, lambda: _query_loss(kb, rules, target), rate, 4)
    expected = []
    for _ in range(4):
        other, other_rules, other_params, other_target = _param_chain(edges)
        loss = _query_loss(other, other_rules, other_target)
        other.tape.backward(loss)
        expected.append(loss.value)
        edges = [p.value - rate * p.grad for p in other_params]
    assert losses == expected
    assert [p.value for p in params] == edges


def _ladders(count, length, seed=0):
    """KB text of ``count`` deduction ladders of ``length`` edges, with
    seeded strengths, and every ground query of span 1 to ``length``."""
    rng = random.Random(seed)
    lines, queries = [], []
    stv = lambda: "(stv %.3f 0.9)" % rng.uniform(0.05, 0.95)
    for k in range(count):
        names = ["L%d-%d" % (k, i) for i in range(length + 1)]
        lines += ['(ConceptNode %s "%s")' % (stv(), n) for n in names]
        lines += ['(InheritanceLink %s (ConceptNode "%s") (ConceptNode "%s"))'
                  % (stv(), a, b) for a, b in zip(names, names[1:])]
        queries += ['(InheritanceLink (ConceptNode "%s") (ConceptNode "%s"))'
                    % (names[i], names[j])
                    for i in range(length) for j in range(i + 1, length + 1)]
    return "\n".join(lines), queries


def test_repeated_passes_add_no_record_atom_or_formula_call():
    """Passes 2-5 of the same queries on a ladder KB add no tape record and
    no atom, make no formula call and return pass 1's strengths, the same
    records."""
    _, kb = fresh_kb()
    text, queries = _ladders(6, 4)
    load_kb(kb, text)
    rules = make_rule_set(kb)
    calls = []
    for rule in rules:
        rule.formula = lambda inputs, f=rule.formula: calls.append(1) or f(inputs)
    targets = [parse_atom(kb, q) for q in queries]

    def run():
        return [[(s.index, s.value) for _, s, _ in backward_chain(
            kb, rules, t, ChainConfig(max_depth=3))] for t in targets]
    first = run()
    sizes = len(kb.tape), len(kb), len(calls)
    assert calls and any(len(r) > 1 for r in first)
    for _ in range(4):
        assert run() == first
        assert (len(kb.tape), len(kb), len(calls)) == sizes


# -- property: the shared table answers as a fresh one --------------------

CONCEPTS = 5
PREDICATES = 3
ENTITIES = 2

_concept = st.integers(0, CONCEPTS - 1).map(lambda i: '(ConceptNode "c%d")' % i)
_pred = st.integers(0, PREDICATES - 1).map(lambda i: '(PredicateNode "p%d")' % i)
_entity = st.integers(0, ENTITIES - 1).map(lambda i: '(ConceptNode "x%d")' % i)
_inh = st.builds(lambda a, b: "(InheritanceLink %s %s)" % (a, b), _concept, _concept)
_eval = st.builds(lambda p, x: "(EvaluationLink %s %s)" % (p, x), _pred, _entity)
_impl = st.builds(lambda p, q: "(ImplicationLink %s %s)" % (p, q), _pred, _pred)
_fact = st.one_of(_inh, _eval, _impl, _concept)
_strength = st.sampled_from([0.2, 0.5, 0.9])

_target = st.one_of(
    _inh, _eval,
    _concept.map(lambda a: '(InheritanceLink %s (VariableNode "$T"))' % a),
    _pred.map(lambda p: '(EvaluationLink %s (VariableNode "$T"))' % p),
    _entity.map(lambda x: '(EvaluationLink (VariableNode "$T") %s)' % x),
    st.builds(lambda a, b: "(AndLink %s %s)" % (a, b), _eval, _eval))

_op = st.one_of(
    st.tuples(st.just("query"), _target, st.integers(1, 4),
              st.sampled_from(["all", "deduction", "no-deduction"])),
    st.tuples(st.just("restrength"), st.integers(0, 10**6), _strength),
    st.tuples(st.just("assert"), _fact, _strength),
    st.tuples(st.just("load"), st.lists(st.tuples(_fact, _strength),
                                        min_size=1, max_size=3)),
    st.tuples(st.just("apply"), st.integers(0, 10**6)))


def _with_stv(text, s):
    head, rest = text.split(" ", 1)
    return "%s (stv %s 0.9) %s" % (head, s, rest)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(facts=st.lists(st.tuples(_fact, _strength), min_size=3, max_size=14),
       ops=st.lists(_op, min_size=1, max_size=10))
def test_shared_table_equals_fresh_search(facts, ops):
    """Random KBs and random interleavings of queries (ground and variable
    targets, depths 1-4, the full rule set or a sublist), strength changes
    on asserted atoms, new assertions, load_kb additions and rule
    firings.  Each query op asks every query so far again, and each answer
    has the bindings, replayed strengths and trace shapes of a search
    through a fresh table, in the same order."""
    tape, kb = fresh_kb()
    load_kb(kb, "\n".join(_with_stv(f, s) for f, s in facts))
    rules = make_rule_set(kb)
    sublists = {"all": rules, "deduction": rules[1:2],
                "no-deduction": rules[:1] + rules[2:]}
    asked = []  # (target, depth, rules) of every query op so far
    firable = []  # (rule, binding) of every derivation found so far
    for op in ops:
        kind = op[0]
        if kind == "query":
            _, text, depth, which = op
            asked.append((parse_atom(kb, text), depth, sublists[which]))
            # ask them all again: earlier subgoals are what a table keeps
            for target, depth, rule_list in asked:
                got = backward_chain(kb, rule_list, target,
                                     ChainConfig(max_depth=depth))
                assert _summary(got) == _fresh_results(kb, rule_list, target, depth)
                firable += [(t.rule, t.binding) for _, _, t in got
                            if not isinstance(t, Leaf)]
        elif kind == "restrength":
            asserted = [a for a in range(len(kb)) if kb.has_asserted_tv(a)]
            atom = asserted[op[1] % len(asserted)]
            count = len(kb.tvs)
            kb.set_tv(atom, TruthValue(tape.constant(op[2]), 0.9))
            assert len(kb.tvs) == count
        elif kind == "assert":
            set_strength(kb, parse_atom(kb, op[1]), op[2], 0.9)
        elif kind == "load":
            load_kb(kb, "\n".join(_with_stv(f, s) for f, s in op[1]))
        elif firable:
            apply_rule(kb, *firable[op[1] % len(firable)])
