"""Forward and backward rule chaining over the knowledge base.

The search builds structure and replay evaluates: backward search only
builds traces, and ``replay`` calls each rule's differentiable formula on
the replayed strengths of its premise and term traces, so a chain of
applications builds one computation graph from KB leaf strengths to the
conclusion.  Traces are not changed once the search builds them: a search
result depends only on the rules and on which atoms are asserted, so each
KB keeps one subgoal table across calls; ``AtomSpace.set_tv`` ends it on a
new assertion and ``prove`` on another rule list.  The table holds proofs
only; ``first_proofs``, which ``training`` reads through, derives just the
lanes its targets read.  The search interns only new atoms and reads atom
ids unchecked; only ``apply_rule`` writes truth values.
"""

from __future__ import annotations

import random
from dataclasses import InitVar, dataclass, field
from typing import Callable

from .atomspace import AtomSpace, TruthValue
from .autodiff import VarRef
# unify is not called here: perfbench/tests/test_perfbench.py reads
# dpln.chainer.unify, and tests/test_benchmark_names.py guards that name
from .pattern import (Binding, Query, _substitute, _unify, candidates, lookup,
                      match, substitute, unify, variables_in)


# Deepest max_depth the backward search accepts: the search (and later a
# replay) recurses twice per level and unify once per level of atom nesting
# (up to sexpr.MAX_DEPTH, which the loader enforces without recursing), well
# under Python's recursion limit of 1000.
MAX_SEARCH_DEPTH = 200


class ChainError(Exception):
    pass


@dataclass(eq=False)
class Rule:
    """Premise patterns, a conclusion template, terms and a strength formula,
    atoms of ``kb``.  Rules compare and hash by identity.

    Each term is a (pattern, default) pair: an atom over the rule's variables
    whose strength is a further formula input, and the strength read when
    that atom is absent or unasserted.  ``formula`` takes the premise
    strengths, then the term strengths.  No rule concludes a term atom.  The
    conclusion is not a variable, its variables occur in premises, and each
    of one or more premises is a variable or a link of ground atoms and
    distinct variables: ``first_proofs`` lifts its queries on that shape,
    which construction checks."""

    kb: InitVar[AtomSpace]
    name: str
    variables: list[tuple[int, str | None]]
    premises: list[int]
    conclusion: int
    formula: Callable[[list[VarRef]], VarRef]
    terms: list[tuple[int, float]] = field(default_factory=list)
    # for the search: typed variables in a premise but the last, the other
    # typed ones, and whether those premises bind every term variable
    early: list[tuple[int, str]] = field(init=False, default_factory=list)
    late: list[tuple[int, str]] = field(init=False, default_factory=list)
    hoist: bool = field(init=False, default=False)

    def __post_init__(self, kb: AtomSpace):
        atoms, free = kb.atoms, variables_in(kb, self.conclusion)
        args = [[o for o in atoms[p].outgoing or [p] if not atoms[o].is_ground]
                for p in self.premises]
        bound = set().union(*args)
        if self.conclusion in free or not free <= bound or not args or any(
                sorted(a) != sorted(variables_in(kb, p))
                for a, p in zip(args, self.premises)):
            raise ChainError("rule %s: not of the shape Rule states" % self.name)
        before = set().union(*args[:-1])
        for v, t in self.variables:
            if t is not None and v in bound:
                (self.early if v in before else self.late).append((v, t))
        self.hoist = all(variables_in(kb, p) <= before for p, _ in self.terms)


@dataclass(frozen=True, slots=True)
class Leaf:
    """Trace leaf: an asserted KB atom contributing its stored strength, as
    a premise fact or as a rule term."""

    atom: int

    @property
    def conclusion(self) -> int:
        return self.atom

    def leaves(self):
        yield self

    def replay(self, kb: AtomSpace, memo: dict) -> VarRef:
        return kb.get_tv(self.atom).strength


@dataclass(frozen=True)
class Constant:
    """Trace leaf: the default a rule term reads when its atom is absent or
    unasserted."""

    value: float

    def replay(self, kb: AtomSpace, memo: dict) -> VarRef:
        return kb.tape.constant(self.value)


@dataclass(slots=True)
class Derivation:
    """Trace node: one rule application over child traces."""

    rule: Rule
    binding: Binding
    conclusion: int
    premises: list  # child traces (Leaf or Derivation)
    terms: list  # one Leaf or Constant per rule term

    def leaves(self):
        for child in self.premises:
            yield from child.leaves()

    def replay(self, kb: AtomSpace, memo: dict) -> VarRef:
        """Evaluates the trace bottom-up from current KB strengths, the only
        place a formula runs, and returns the conclusion's strength; writes
        nothing.  ``memo`` collapses repeated applications with identical
        inputs within one pass (keyed by rule and input record indices)."""
        inputs = [child.replay(kb, memo) for child in self.premises + self.terms]
        key = (self.rule, tuple(v.index for v in inputs))
        out = memo.get(key)
        if out is None:
            out = self.rule.formula(inputs)
            memo[key] = out
        return out


@dataclass(eq=False, slots=True)
class Schema:
    """The search's record of one prefix's derivations over its column: the
    rule, the prefix's binding and traces, the terms it read, the last
    premise's table entry, ``seen`` (see ``_match_conclusion``), and the
    aliases ``same`` and ``late`` type checks, which run per lane."""

    rule: Rule
    binding: Binding  # the prefix's
    premises: list  # the prefix's traces
    terms: list | None  # None: read per lane
    column: list
    seen: dict
    same: Binding
    late: list


InferenceTrace = Leaf | Derivation


def _derive(kb: AtomSpace, rule: Rule, binding: Binding, premises: list,
            terms: list | None = None) -> Derivation:
    """The rule applied to the premise traces, unvalued: no formula call and
    no tape record, and the one place a Derivation is built but the lanes
    ``first_proofs`` reads.  Reads the terms unless given them; interns the
    conclusion only if it is new; keeps ``binding`` itself."""
    if terms is None:
        terms = [_term(kb, pattern, default, binding) for pattern, default in rule.terms]
    conclusion = _substitute(kb, rule.conclusion, binding)
    return Derivation(rule, binding, conclusion, premises, terms)


def _term(kb: AtomSpace, pattern: int, default: float, binding: Binding):
    """The term's Leaf if its atom exists and is asserted, else its default."""
    atom = lookup(kb, pattern, binding)
    return Leaf(atom) if atom is not None and atom in kb.tvs else Constant(default)


def commit(kb: AtomSpace, trace: Derivation, strength: VarRef) -> None:
    """Writes ``strength``, the derivation's replayed output, into its
    conclusion's TV (latest wins); confidence is the minimum over the
    leaves' confidences."""
    confidence = min((kb.get_tv(leaf.atom).confidence for leaf in trace.leaves()),
                     default=0.0)
    kb.set_tv(trace.conclusion, TruthValue(strength, confidence))


@dataclass
class ChainConfig:
    max_steps: int = 100
    max_depth: int = 5
    seed: int = 0


def apply_rule(kb: AtomSpace, rule: Rule,
               binding: Binding) -> tuple[int, VarRef, Derivation]:
    """Fires one grounded rule instance on the stored premise strengths and
    commits the conclusion: its strength is the replayed formula output, so
    gradients flow through it; its confidence the minimum over premises."""
    leaves = []
    for premise in rule.premises:
        missing = variables_in(kb, premise) - set(binding)
        if missing:
            names = sorted(kb.atom(v).name for v in missing)
            raise ChainError("binding does not ground premise variable(s): %s"
                             % ", ".join(names))
        leaves.append(Leaf(substitute(kb, premise, binding)))
    trace = _derive(kb, rule, dict(binding), leaves)
    strength = trace.replay(kb, {})
    commit(kb, trace, strength)
    return trace.conclusion, strength, trace


def forward_chain(kb: AtomSpace, rules: list[Rule],
                  config: ChainConfig) -> tuple[list[int], list[Derivation]]:
    """Applies rules premises-to-conclusions for up to max_steps steps.

    Pending (rule, binding) pairs form an unordered pool kept across steps
    (semi-naive evaluation): after a firing, only bindings in which some
    premise matches an atom it interned are added.  That suffices because
    ``match`` tests atom presence, not truth values, and the KB only grows.
    Each step draws one entry with the seeded RNG and moves the last entry
    into its place.  A (rule, binding) pair enters the pool, so fires, at
    most once: each binding's newest premise atom lies in one match delta.
    Returns the atoms that did not exist before chaining, with traces.
    """
    if not rules:
        raise ChainError("forward_chain needs a nonempty rule list")
    if config.max_steps < 1:
        raise ChainError("max_steps must be >= 1")
    rng = random.Random(config.seed)
    queries = [Query(variables=list(rule.variables), clauses=list(rule.premises))
               for rule in rules]
    pending: list[tuple[int, Binding]] = []  # (rule index, binding)
    new_atoms: list[int] = []
    traces: list[Derivation] = []

    since = 0  # atoms from here on have not been matched yet
    for _ in range(config.max_steps):
        if since < len(kb):
            for ri, query in enumerate(queries):
                pending.extend((ri, binding) for binding in match(kb, query, since))
        if not pending:
            break
        i = rng.randrange(len(pending))
        pending[i], pending[-1] = pending[-1], pending[i]
        ri, binding = pending.pop()
        since = len(kb)
        conclusion, _, trace = apply_rule(kb, rules[ri], binding)
        if conclusion >= since:
            new_atoms.append(conclusion)
            traces.append(trace)
    return new_atoms, traces


# -- backward chaining -----------------------------------------------------

def _match_conclusion(kb: AtomSpace, c: int, t: int, rb: Binding,
                      seen: dict) -> bool:
    """Unifies a rule conclusion ``c`` with a target pattern ``t`` into the
    rule binding ``rb``.  A target variable matches any subtree; ``seen``
    maps it to the first, which its later subtrees must equal: a rule
    variable among them is bound to a ground one, or else to the variable
    of another, its alias until the premises bind that one.  Such a repeat
    sets ``seen[None]``, True if it aliases."""
    ca = kb.atoms[c]
    ta = kb.atoms[t]
    if ta.type.name == "VariableNode":
        first = seen.setdefault(t, c)
        if first == c:
            return True
        seen.setdefault(None, False)
        a, b = _root(rb, first), _root(rb, c)
        if kb.atoms[b].type.name != "VariableNode":
            a, b = b, a
        if a == b or kb.atoms[b].type.name != "VariableNode":  # no variable
            return a == b or not (kb.atoms[a].is_ground and kb.atoms[b].is_ground)
        if kb.atoms[a].is_ground or kb.atoms[a].type.name == "VariableNode":
            rb[b] = a
            seen[None] = True  # solve_premises resolves the aliases
        return True
    if ca.type.name == "VariableNode":
        if not ta.is_ground:
            return False  # rule variable against a partial pattern
        bound = rb.get(c)
        if bound is None:
            rb[c] = t
            return True
        return bound == t if kb.atoms[bound].is_ground else _match_conclusion(
            kb, bound, t, rb, seen)  # an alias: match the variable it stands for
    if ca.type.name != ta.type.name:
        return False
    if ca.type.is_node:
        return ca.name == ta.name
    if len(ca.outgoing) != len(ta.outgoing):
        return False
    return all(_match_conclusion(kb, co, to, rb, seen)
               for co, to in zip(ca.outgoing, ta.outgoing))


def _root(rb: Binding, v: int) -> int:
    """What ``rb`` binds the rule variable ``v`` to, through its aliases."""
    while v in rb:
        v = rb[v]
    return v


class _Search:
    """A KB's table of solved subgoals, keyed by (pattern, depth), and of
    each pattern's depth-0 facts, for one rule list (``prove`` checks
    ``rules``) until ``set_tv`` ends it.  An entry holds proofs only,
    (binding, trace) pairs; each column is walked once per prefix
    (``schemas``).  It holds no reference to the KB, and its methods are not
    nested closures: no reference cycle keeps a dropped KB alive until a
    garbage collection."""

    def __init__(self, rules: list[Rule]):
        self.rules = tuple(rules)
        self.memo: dict[tuple[int, int], list[tuple[Binding, InferenceTrace]]] = {}
        self.facts: dict[int, list] = {}

    def solve(self, kb: AtomSpace, pattern: int,
              depth: int) -> list[tuple[Binding, InferenceTrace]]:
        """Facts, then rule derivations, proving ``pattern`` within
        ``depth``, in (rule, premise solutions) order: each schema's lanes
        in column order, less those failing a ``late`` check, through
        ``_derive``.  A binding is read off the conclusion match, but a
        target repeating a variable is unified with it, dropping failures."""
        memo = self.memo
        if (pattern, depth) in memo:
            return memo[pattern, depth]
        if pattern not in self.facts:  # the same at any depth
            self.facts[pattern] = _facts(kb, pattern)
        results = list(self.facts[pattern])
        for s in self.schemas(kb, pattern, depth):
            repeated = None in s.seen
            for sub_binding, trace in s.column:
                full = {**s.binding, **sub_binding}
                if s.same:
                    full.update((v, full[a]) for v, a in s.same.items())
                if s.late and any(kb.atoms[full[v]].type.name != t for v, t in s.late):
                    continue
                # ground: Rule makes the premises bind every conclusion variable
                proof = _derive(kb, s.rule, full, s.premises + [trace], s.terms)
                b = _unify(kb, pattern, proof.conclusion) if repeated else {
                    t: full[c] if c in full else _substitute(kb, c, full)
                    for t, c in s.seen.items()}
                if b is not None:
                    results.append((b, proof))
        memo[pattern, depth] = results
        return results

    def schemas(self, kb: AtomSpace, pattern: int, depth: int) -> list[Schema]:
        """One Schema per rule whose conclusion matches ``pattern`` and per
        solution of its premises but the last within ``depth - 1`` (a
        prefix) with a nonempty column, in that order; a prefix's checks and
        terms run once for its column."""
        schemas = []
        for rule in self.rules if depth >= 1 else ():
            rb, seen = {}, {}
            if not _match_conclusion(kb, rule.conclusion, pattern, rb, seen):
                continue
            same, prefixes = self.solve_premises(kb, rule, rb, depth - 1,
                                                 seen.get(None, False))
            # an alias is left out of the prefixes: check and read it per proof
            early, late, hoist = (rule.early, rule.late, rule.hoist) if not same else (
                (), rule.early + rule.late, False)
            for binding, traces, column in prefixes:
                if not column or any(
                        kb.atoms[binding[v]].type.name != t for v, t in early):
                    continue
                terms = [_term(kb, p, d, binding)
                         for p, d in rule.terms] if hoist else None
                schemas.append(Schema(rule, binding, traces, terms, column, seen,
                                      same, late))
        return schemas

    def solve_premises(self, kb: AtomSpace, rule: Rule, rb: Binding, depth: int,
                       aliased: bool):
        """Solves the premises but the last; returns the aliases and, per
        solution (a prefix), its binding, traces and last-premise column.

        A subgoal's solutions bind only its own variables, which the
        substitution left unbound, so merging them never conflicts.  With
        ``aliased``, ``rb`` binds a rule variable to another, which the
        premises then take in its place; the aliases map it to that one."""
        premises, same = rule.premises, {}
        if aliased:
            rb = {v: _root(rb, v) for v in rb}
            same = {v: a for v, a in rb.items() if not kb.atoms[a].is_ground}
            rb = {v: a for v, a in rb.items() if v not in same}
            premises = [_substitute(kb, p, same) for p in premises]
        solutions = [(rb, [])]
        for premise in premises[:-1]:
            next_solutions = []
            for binding, traces in solutions:
                p = _substitute(kb, premise, binding)
                for sub_binding, trace in self.solve(kb, p, depth):
                    next_solutions.append(({**binding, **sub_binding},
                                           traces + [trace]))
            solutions = next_solutions
        return same, [(b, ts, self.solve(kb, _substitute(kb, premises[-1], b), depth))
                      for b, ts in solutions]


def _facts(kb: AtomSpace, pattern: int) -> list[tuple[Binding, Leaf]]:
    """Depth 0: the asserted facts unifying with ``pattern``.  A link of
    ground atoms and distinct variables, as ``Rule``'s premises and lifted
    queries are, is read by position, one pass per place, with no ``unify``."""
    atoms, p = kb.atoms, kb.atoms[pattern]
    if p.is_ground:  # its own one candidate
        return [({}, Leaf(pattern))] if pattern in kb.tvs else []
    cands = [c for c in candidates(kb, pattern, {}) if c in kb.tvs]
    free = [(i, o) for i, o in enumerate(p.outgoing) if not atoms[o].is_ground]
    if p.type.is_node or len({o for _, o in free}) < len(free) or any(
            atoms[o].type.name != "VariableNode" for _, o in free):
        return [(b, Leaf(c)) for c in cands if (b := _unify(kb, pattern, c)) is not None]
    rows = [(c, atoms[c].outgoing) for c in cands if atoms[c].type is p.type
            and len(atoms[c].outgoing) == len(p.outgoing)]
    for i, o in enumerate(p.outgoing):
        if atoms[o].is_ground:
            rows = [(c, got) for c, got in rows if got[i] == o]
    results = [({}, Leaf(c)) for c, _ in rows]
    for i, v in free:
        for (b, _), (_, got) in zip(results, rows):
            b[v] = got[i]
    return results


def _table(kb: AtomSpace, rules: list[Rule], targets: list[int],
           config: ChainConfig) -> _Search:
    """The KB's subgoal table for ``rules``, after the depth and id checks."""
    if config.max_depth < 1:
        raise ChainError("max_depth must be >= 1")
    if config.max_depth > MAX_SEARCH_DEPTH:
        raise ChainError("max_depth must be <= %d" % MAX_SEARCH_DEPTH)
    for target in targets:
        kb.atom(target)  # the one id check: the search reads ids unchecked
    search = kb.subgoal_table
    if search is None or search.rules != tuple(rules):
        search = kb.subgoal_table = _Search(rules)
    return search


def prove(kb: AtomSpace, rules: list[Rule], targets: list[int],
          config: ChainConfig) -> list[list[tuple[Binding, InferenceTrace]]]:
    """Unvalued proofs of each target (no formula runs), in
    ``backward_chain``'s order, from the KB's one subgoal table.  The search
    reads which atoms are asserted, but no strength, and asserts nothing; a
    new assertion ends the table, and a fresh one replaces it unless
    ``rules`` holds the same Rule objects in the same order.  The returned
    lists and bindings belong to the table: callers must treat them as
    read-only."""
    search = _table(kb, rules, targets, config)
    return [search.solve(kb, target, config.max_depth) for target in targets]


def first_proofs(kb: AtomSpace, rules: list[Rule], targets: list[int],
                 config: ChainConfig) -> list[InferenceTrace | None]:
    """Each ground target's first rule derivation within max_depth, else its
    fact, else None, as ``prove``'s proofs of it give them.  Distinct
    targets of one link type that differ only in their last argument, like
    ``Eval(color, instance)``, make one query with ``$lifted`` there; for
    ``Rule``'s shape, its proofs binding ``$lifted`` to a target's argument
    are the ground query's, in order.  The query's facts and schemas come
    from the table, but its derivations are not expanded into it: lanes are
    indexed by answer, found with ``lookup``, and only a target's first lane
    that passes the ``late`` checks becomes a Derivation, reading the terms
    its rule does not hoist.  No query repeats a variable, so no lane has
    aliases or a pattern to unify."""
    search = _table(kb, rules, targets, config)  # ids checked before interning $lifted
    groups: dict = {}  # (link type, all outgoing but the last) -> its targets
    for t in targets:
        atom = kb.atoms[t]
        key = (atom.type.name, atom.outgoing[:-1]) if atom.outgoing else t
        groups.setdefault(key, {})[t] = None
    var = kb.node("VariableNode", "$lifted")
    found: dict = {}  # target -> its first derivation, else its fact
    for key, ts in groups.items():
        by_last = {kb.atoms[t].outgoing[-1]: t for t in ts} if len(ts) > 1 else None
        query = kb.intern_link(key[0], [*key[1], var]) if by_last else [*ts][0]
        for _, leaf in search.solve(kb, query, 0):
            if leaf.atom in ts:
                found.setdefault(leaf.atom, leaf)
        for s in search.schemas(kb, query, config.max_depth):
            c = s.seen.get(var)
            for b, trace in s.column:
                full = {**s.binding, **b}
                t = by_last.get(lookup(kb, c, full)) if by_last else query
                if t is None or type(found.get(t)) is Derivation or any(
                        kb.atoms[full[v]].type.name != n for v, n in s.late):
                    continue
                terms = s.terms if s.terms is not None else [
                    _term(kb, p, d, full) for p, d in s.rule.terms]
                found[t] = Derivation(s.rule, full, t, s.premises + [trace], terms)
    return [found.get(t) for t in targets]


def backward_chain(kb: AtomSpace, rules: list[Rule], target: int,
                   config: ChainConfig) -> list[tuple[Binding, VarRef, InferenceTrace]]:
    """All ways the target is derivable within max_depth.

    Depth 0 covers targets directly asserted in the KB; deeper results apply a
    rule whose conclusion unifies with the target and whose premises are
    recursively derivable.  Results are deterministic: KB facts first, then
    rules in the given order.

    ``prove`` finds the traces through the KB's subgoal table, then one memo
    replays them all, so a shared application calls its formula once.
    Read-only: it interns only new atoms and values no conclusion, so every
    leaf is an asserted fact.
    """
    (proofs,) = prove(kb, rules, [target], config)
    memo: dict = {}
    return [(dict(binding), trace.replay(kb, memo), trace)
            for binding, trace in proofs]
