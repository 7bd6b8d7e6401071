import itertools
import random
import sys

import pytest

from dpln import (MatchError, UnknownAtomError, load_kb, match, substitute,
                  unify, variables_in)
from dpln.pattern import candidates, lookup

from conftest import fresh_kb


def _chain_kb():
    _, kb = fresh_kb()
    load_kb(kb, """
    (InheritanceLink (ConceptNode "sparrow") (ConceptNode "bird"))
    (InheritanceLink (ConceptNode "bird") (ConceptNode "animal"))
    """)
    return kb


def test_unify_two_variables():
    kb = _chain_kb()
    x = kb.node("VariableNode", "$X")
    y = kb.node("VariableNode", "$Y")
    pattern = kb.link("InheritanceLink", x, y)
    ground = kb.find_link("InheritanceLink",
                          [kb.node("ConceptNode", "sparrow"),
                           kb.node("ConceptNode", "bird")])
    binding = unify(kb, pattern, ground)
    assert binding == {x: kb.node("ConceptNode", "sparrow"),
                       y: kb.node("ConceptNode", "bird")}


def test_unify_repeated_variable_conflict():
    kb = _chain_kb()
    x = kb.node("VariableNode", "$X")
    pattern = kb.link("InheritanceLink", x, x)
    ground = kb.find_link("InheritanceLink",
                          [kb.node("ConceptNode", "sparrow"),
                           kb.node("ConceptNode", "bird")])
    assert unify(kb, pattern, ground) is None


def test_unify_repeated_variable_consistent():
    _, kb = fresh_kb()
    a = kb.node("ConceptNode", "a")
    ground = kb.link("ListLink", a, a)
    x = kb.node("VariableNode", "$X")
    pattern = kb.link("ListLink", x, x)
    assert unify(kb, pattern, ground) == {x: a}


def test_unify_stops_at_identical_subtrees():
    """A subtree shared by pattern and ground atom is one interned id, so
    unify does not walk it: a ListLink nested deeper than the recursion
    limit unifies without a RecursionError."""
    _, kb = fresh_kb()
    deep = kb.node("ConceptNode", "t")
    for _ in range(sys.getrecursionlimit() + 100):
        deep = kb.link("ListLink", deep)
    y = kb.node("VariableNode", "$Y")
    c = kb.node("ConceptNode", "c")
    pattern = kb.link("InheritanceLink", deep, y)
    ground = kb.link("InheritanceLink", deep, c)
    assert unify(kb, pattern, ground) == {y: c}

def test_unify_type_constraint():
    _, kb = fresh_kb()
    concept = kb.node("ConceptNode", "a")
    pred = kb.node("PredicateNode", "p")
    x = kb.node("VariableNode", "$X")
    assert unify(kb, x, concept, None, {x: "PredicateNode"}) is None
    assert unify(kb, x, pred, None, {x: "PredicateNode"}) == {x: pred}


def test_unify_does_not_mutate_input_binding():
    kb = _chain_kb()
    x = kb.node("VariableNode", "$X")
    y = kb.node("VariableNode", "$Y")
    pattern = kb.link("InheritanceLink", x, y)
    ground = kb.atoms_of_type("InheritanceLink")[0]
    before = {}
    unify(kb, pattern, ground, before)
    assert before == {}


def test_unify_ground_side_with_variables_fails():
    _, kb = fresh_kb()
    x = kb.node("VariableNode", "$X")
    a = kb.node("ConceptNode", "a")
    partial = kb.link("ListLink", x, a)
    assert unify(kb, x, partial) is None


def test_unify_links_of_different_arity_fails():
    _, kb = fresh_kb()
    x, a = kb.node("VariableNode", "$X"), kb.node("ConceptNode", "a")
    assert unify(kb, kb.link("ListLink", x), kb.link("ListLink", a, a)) is None
    assert unify(kb, kb.link("ListLink", x, x), kb.link("ListLink", a)) is None


def test_match_chain():
    kb = _chain_kb()
    x = kb.node("VariableNode", "$X")
    y = kb.node("VariableNode", "$Y")
    z = kb.node("VariableNode", "$Z")
    bindings = match(kb, [(x, None), (y, None), (z, None)],
                     [kb.link("InheritanceLink", x, y),
                      kb.link("InheritanceLink", y, z)])
    assert bindings == [{x: kb.node("ConceptNode", "sparrow"),
                         y: kb.node("ConceptNode", "bird"),
                         z: kb.node("ConceptNode", "animal")}]


def test_match_empty_kb():
    _, kb = fresh_kb()
    x = kb.node("VariableNode", "$X")
    y = kb.node("VariableNode", "$Y")
    assert match(kb, [(x, None), (y, None)],
                 [kb.link("InheritanceLink", x, y)]) == []


def test_match_two_chains():
    _, kb = fresh_kb()
    load_kb(kb, """
    (InheritanceLink (ConceptNode "sparrow") (ConceptNode "bird"))
    (InheritanceLink (ConceptNode "bird") (ConceptNode "animal"))
    (InheritanceLink (ConceptNode "trout") (ConceptNode "fish"))
    (InheritanceLink (ConceptNode "fish") (ConceptNode "animal"))
    """)
    x = kb.node("VariableNode", "$X")
    y = kb.node("VariableNode", "$Y")
    z = kb.node("VariableNode", "$Z")
    bindings = match(kb, [(x, None), (y, None), (z, None)],
                     [kb.link("InheritanceLink", x, y),
                      kb.link("InheritanceLink", y, z)])
    assert len(bindings) == 2
    names = sorted(kb.atom(b[x]).name for b in bindings)
    assert names == ["sparrow", "trout"]


def test_match_undeclared_variable():
    kb = _chain_kb()
    x = kb.node("VariableNode", "$X")
    y = kb.node("VariableNode", "$Y")
    with pytest.raises(MatchError):
        match(kb, [(x, None)], [kb.link("InheritanceLink", x, y)])


def test_match_empty_clause_list():
    _, kb = fresh_kb()
    with pytest.raises(MatchError):
        match(kb, [], [])


def _brute_force_match(kb, variables, clauses, atoms, present):
    """All |ground atoms|^|vars| assignments, checked clause by clause.

    ``atoms`` are the atom ids the KB held before the queries, the values a
    variable may take; ``present`` is the set of those asserted, the KB
    facts.  substitute may intern fresh links during enumeration, and those
    never count."""
    ground_atoms = [a for a in sorted(atoms) if kb.atom(a).is_ground]
    constraints = {v: t for v, t in variables if t is not None}
    var_ids = [v for v, _ in variables]
    found = []
    for combo in itertools.product(ground_atoms, repeat=len(var_ids)):
        binding = dict(zip(var_ids, combo))
        if any(kb.atom(binding[v]).type.name != t
               for v, t in constraints.items()):
            continue
        if all(substitute(kb, clause, binding) in present
               for clause in clauses):
            found.append(binding)
    return found


def _random_kb(rng):
    _, kb = fresh_kb()
    nodes = [kb.node("ConceptNode", "n%d" % i) for i in range(4)]
    for _ in range(rng.randrange(3, 7)):
        link = kb.link("InheritanceLink", rng.choice(nodes), rng.choice(nodes))
        if rng.random() < 0.6:
            kb.set_tv(link, kb.get_tv(link))
    return kb, set(range(len(kb))), set(kb.tvs)


def test_match_completeness_brute_force():
    """match equals exhaustive assignment enumeration over the asserted
    atoms of small KBs, so it never matches an unasserted one; with ``new``
    = an atom it gives, each once, the bindings under which some clause is
    that atom."""
    rng = random.Random(13)
    key = lambda b: tuple(sorted(b.items()))
    unasserted = 0
    for _ in range(20):
        kb, atoms, present = _random_kb(rng)
        unasserted += len(kb.atoms_of_type("InheritanceLink")) - len(present)
        x = kb.node("VariableNode", "$X")
        y = kb.node("VariableNode", "$Y")
        z = kb.node("VariableNode", "$Z")
        # each query a (variables, clauses) pair
        chain = ([(x, None), (y, None), (z, None)],
                 [kb.link("InheritanceLink", x, y),
                  kb.link("InheritanceLink", y, z)])
        pair = ([(x, "InheritanceLink"), (y, "InheritanceLink")], [x, y])
        # all matching before the brute force, which may intern links
        runs = [(query, new, list(map(key, match(kb, *query, new=new))))
                for query in (chain, pair)
                for new in [None] + rng.sample(range(len(kb)), 4)]
        for query, new, got in runs:
            expected = [b for b in _brute_force_match(kb, *query, atoms, present)
                        if new is None or any(substitute(kb, c, b) == new
                                              for c in query[1])]
            assert len(got) == len(set(got))
            assert set(got) == set(map(key, expected))
    assert unasserted > 0  # some KB held a link that is no fact


def test_match_bare_variable_clauses_brute_force():
    """A bare-variable clause binds each of its candidates directly.  Typed,
    untyped, or bound by an earlier link clause, match still equals
    exhaustive enumeration over the asserted atoms, without ``new`` and
    with random atoms as ``new``, with distinct bindings."""
    rng = random.Random(29)
    key = lambda b: tuple(sorted(b.items()))
    unasserted = 0
    for _ in range(20):
        kb, atoms, present = _random_kb(rng)
        unasserted += len(kb.atoms_of_type("InheritanceLink")) - len(present)
        x = kb.node("VariableNode", "$X")
        y = kb.node("VariableNode", "$Y")
        z = kb.node("VariableNode", "$Z")
        untyped = [(x, None), (y, None), (z, None)]
        queries = [  # (variables, clauses) pairs
            (untyped[:2], [kb.link("InheritanceLink", x, y), y]),
            ([untyped[0], untyped[2]], [z, kb.link("InheritanceLink", x, z)]),
            ([(x, "ConceptNode"), (y, None), (z, "InheritanceLink")],
             [x, z, kb.link("InheritanceLink", x, y), y]),
        ]
        # all matching before the brute force, which may intern links
        runs = [(query, new, list(map(key, match(kb, *query, new=new))))
                for query in queries
                for new in [None] + rng.sample(range(len(kb)), 4)]
        for query, new, got in runs:
            expected = [b for b in _brute_force_match(kb, *query, atoms, present)
                        if new is None or any(substitute(kb, c, b) == new
                                              for c in query[1])]
            assert len(got) == len(set(got))
            assert set(got) == set(map(key, expected))
    assert unasserted > 0  # some KB held a link that is no fact


def test_match_soundness_and_purity():
    kb = _chain_kb()
    size = len(kb)
    x = kb.node("VariableNode", "$X")
    y = kb.node("VariableNode", "$Y")
    clause = kb.link("InheritanceLink", x, y)
    size_with_query = len(kb)
    for binding in match(kb, [(x, None), (y, None)], [clause]):
        inst = substitute(kb, clause, binding)
        assert inst < size  # already present before the query was built
    assert len(kb) == size_with_query  # match interned nothing


def test_instantiate():
    kb = _chain_kb()
    x = kb.node("VariableNode", "$X")
    z = kb.node("VariableNode", "$Z")
    template = kb.link("InheritanceLink", x, z)
    binding = {x: kb.node("ConceptNode", "sparrow"),
               z: kb.node("ConceptNode", "animal")}
    inst = kb.link("InheritanceLink",
                   kb.node("ConceptNode", "sparrow"),
                   kb.node("ConceptNode", "animal"))
    assert substitute(kb, template, binding) == inst


def test_instantiate_ground_template_idempotent():
    kb = _chain_kb()
    ground = kb.atoms_of_type("InheritanceLink")[0]
    assert substitute(kb, ground, {}) == ground


def test_variables_in():
    kb = _chain_kb()
    x = kb.node("VariableNode", "$X")
    y = kb.node("VariableNode", "$Y")
    nested = kb.link("ListLink", kb.link("InheritanceLink", x, y), x)
    assert variables_in(kb, nested) == {x, y}
    assert variables_in(kb, kb.atoms_of_type("InheritanceLink")[0]) == set()


def test_lookup_finds_without_interning():
    kb = _chain_kb()
    x = kb.node("VariableNode", "$X")
    template = kb.link("InheritanceLink", x, kb.node("ConceptNode", "bird"))
    negated = kb.link("NotLink", template)
    size = len(kb)
    sparrow = kb.node("ConceptNode", "sparrow")
    bird = kb.node("ConceptNode", "bird")
    assert lookup(kb, template, {x: sparrow}) == substitute(kb, template,
                                                            {x: sparrow})
    assert lookup(kb, x, {x: bird}) == bird
    assert lookup(kb, template, {x: bird}) is None
    assert lookup(kb, negated, {x: sparrow}) is None
    assert len(kb) == size


def test_match_bindings_distinct_in_candidate_order():
    """Without a dedup pass, match still returns each binding once, in
    candidate id order: for a repeated-variable clause, and for two clauses
    anchored at the same atom."""
    _, kb = fresh_kb()
    load_kb(kb, """
    (ListLink (ConceptNode "a") (ConceptNode "a"))
    (ListLink (ConceptNode "a") (ConceptNode "b"))
    (ListLink (ConceptNode "b") (ConceptNode "b"))
    (InheritanceLink (ConceptNode "a") (ConceptNode "b"))
    (InheritanceLink (ConceptNode "a") (ConceptNode "a"))
    """)
    a = kb.node("ConceptNode", "a")
    b = kb.node("ConceptNode", "b")
    x = kb.node("VariableNode", "$X")
    y = kb.node("VariableNode", "$Y")
    repeated = [kb.link("ListLink", x, x), kb.link("ListLink", x, y)]
    shared = [kb.link("InheritanceLink", a, x), kb.link("InheritanceLink", a, y)]
    for clauses, expected in [
            (repeated, [(a, a), (a, b), (b, b)]),
            (shared, [(b, b), (b, a), (a, b), (a, a)])]:
        got = match(kb, [(x, None), (y, None)], clauses)
        assert [(bd[x], bd[y]) for bd in got] == expected
        assert len({tuple(sorted(bd.items())) for bd in got}) == len(got)


def test_candidates_typed_variable_takes_its_type_index():
    """A typed bare variable draws exactly the asserted ground atoms of its
    type, in id order, not an unasserted one; an unknown type name has none
    (and raises nothing)."""
    _, kb = fresh_kb()
    load_kb(kb, """
    (EvaluationLink (PredicateNode "p") (ConceptNode "a"))
    (InheritanceLink (ConceptNode "a") (ConceptNode "b"))
    (EvaluationLink (PredicateNode "q") (ConceptNode "b"))
    """)
    x = kb.node("VariableNode", "$X")
    kb.link("EvaluationLink", kb.node("PredicateNode", "p"), x)
    unasserted = kb.link("EvaluationLink", kb.node("PredicateNode", "r"),
                         kb.node("ConceptNode", "c"))
    evals = [a for a in range(len(kb))
             if kb.atom(a).type.name == "EvaluationLink"
             and kb.atom(a).is_ground and kb.has_asserted_tv(a)]
    assert len(evals) == 2 and unasserted not in evals
    assert candidates(kb, x, {}, {x: "EvaluationLink"}) == evals
    assert candidates(kb, x, {}, {x: "NoSuchLink"}) == []
    assert match(kb, [(x, "NoSuchLink")], [x]) == []


def test_match_new_must_be_an_atom_of_the_kb():
    """``new`` is checked as the clauses are: an id the KB does not hold, or
    a bool, raises UnknownAtomError.  An unasserted ``new`` is no fact, so
    no binding has a clause that is it."""
    kb = _chain_kb()
    x = kb.node("VariableNode", "$X")
    y = kb.node("VariableNode", "$Y")
    query = ([(x, None), (y, None)], [kb.link("InheritanceLink", x, y)])
    for bad in (-1, len(kb), True):
        with pytest.raises(UnknownAtomError):
            match(kb, *query, new=bad)
    sparrow, animal = kb.node("ConceptNode", "sparrow"), kb.node("ConceptNode", "animal")
    unasserted = kb.link("InheritanceLink", sparrow, animal)
    assert match(kb, *query, new=unasserted) == []
    kb.set_tv(unasserted, kb.get_tv(unasserted))
    assert match(kb, *query, new=unasserted) == [{x: sparrow, y: animal}]


def test_public_helpers_reject_ids_the_kb_does_not_hold():
    """unify, substitute and variables_in raise UnknownAtomError for an id
    below 0 or at len(kb), on every id argument, instead of reading some
    other atom; valid ids still work as before."""
    kb = _chain_kb()
    x = kb.node("VariableNode", "$X")
    pattern = kb.link("InheritanceLink", kb.node("ConceptNode", "sparrow"), x)
    ground = kb.find_link("InheritanceLink",
                          [kb.node("ConceptNode", "sparrow"),
                           kb.node("ConceptNode", "bird")])
    for bad in (-1, len(kb)):
        calls = [lambda: unify(kb, bad, ground), lambda: unify(kb, pattern, bad),
                 lambda: substitute(kb, bad, {}), lambda: variables_in(kb, bad)]
        for call in calls:
            with pytest.raises(UnknownAtomError):
                call()
    size = len(kb)
    assert unify(kb, pattern, ground) == {x: kb.node("ConceptNode", "bird")}
    assert substitute(kb, pattern, {x: kb.node("ConceptNode", "bird")}) == ground
    assert variables_in(kb, pattern) == {x}
    assert len(kb) == size
