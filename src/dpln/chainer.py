"""Forward and backward rule chaining over the knowledge base.

The search builds structure and replay evaluates: backward search only
builds traces, and ``replay`` calls each rule's differentiable formula on
the replayed strengths of its premise and term traces, so a chain of
applications builds one computation graph from KB leaf strengths to the
conclusion.  Traces are not changed once the search builds them: a search
result depends only on the rules and on which atoms are asserted, so each
KB keeps one subgoal table across calls; ``AtomSpace.set_tv`` ends it on a
new assertion and ``prove`` on another rule list.  The table holds proofs
and ``backward_chain``'s replay memo; one walk, ``_Search.lanes``, yields a
rule's derivations, which ``solve`` stores and ``first_proofs``, which
``training`` reads through, picks from.  The search interns only new atoms;
it, replay and ``commit`` read the KB's tables unchecked, and only
``apply_rule`` writes truth values.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Callable
from math import prod

from .atomspace import AtomSpace, TruthValue
from .autodiff import VarRef
# unify is not called here: perfbench/tests/test_perfbench.py reads
# dpln.chainer.unify, and tests/test_benchmark_names.py guards that name
from .pattern import (Binding, _substitute, _unify_into, _variables_in, candidates,
                      lookup, match, unify, variables_in)


# Deepest max_depth the backward search accepts: the search (and later a
# replay) recurses twice per level and unify once per level of atom nesting
# (up to sexpr.MAX_DEPTH, which the loader enforces without recursing), well
# under Python's recursion limit of 1000.
MAX_SEARCH_DEPTH = 200


class ChainError(Exception):
    pass


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

    def __init__(self, kb: AtomSpace, name: str, variables: list[tuple[int, str | None]],
                 premises: list[int], conclusion: int,
                 formula: Callable[[list[VarRef]], VarRef],
                 terms: list[tuple[int, float]] | None = None):
        self.name, self.variables, self.premises = name, variables, premises
        self.conclusion, self.formula = conclusion, formula
        self.terms = [] if terms is None else terms
        atoms = kb.atoms
        args = [[o for o in atoms[p].outgoing or [p] if not atoms[o].is_ground]
                for p in premises]
        self.args = [set(a) for a in args]  # premise variables
        self.own = set().union(*[variables_in(kb, p) for p in premises])  # all it binds
        self.check_shape(kb, args)
        # for the search: the typed variables, and whether the premises but
        # the last bind every term variable
        self.typed = [(v, t) for v, t in variables if t is not None and v in self.own]
        before = set().union(*args[:-1])
        self.hoist = all(variables_in(kb, p) <= before for p, _ in self.terms)

    def check_shape(self, kb: AtomSpace, args: list[list[int]]) -> None:
        """Raises ChainError unless the rule has the shape its docstring
        states; ``args`` lists each premise's variable arguments."""
        free = variables_in(kb, self.conclusion)
        if self.conclusion in free or not free <= set().union(*args) or not args or any(
                sorted(a) != sorted(variables_in(kb, p))
                for a, p in zip(args, self.premises)):
            raise ChainError("rule %s: not of the shape Rule states" % self.name)


class Leaf:
    """Trace leaf: an asserted KB atom contributing its stored strength, as
    a premise fact or as a rule term."""

    __slots__ = ("atom",)

    def __init__(self, atom: int):
        self.atom = atom

    def __eq__(self, other):
        return other.__class__ is Leaf and self.atom == other.atom

    def __hash__(self):
        return hash(self.atom)

    @property
    def conclusion(self) -> int:
        return self.atom

    def leaves(self):
        yield self

    def replay(self, kb: AtomSpace, memo: dict) -> VarRef:
        return _tv(kb, self.atom).strength


class Constant:
    """Trace leaf: the default a rule term reads when its atom is absent or
    unasserted."""

    def __init__(self, value: float):
        self.value = value

    def __eq__(self, other):
        return other.__class__ is Constant and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def replay(self, kb: AtomSpace, memo: dict) -> VarRef:
        return kb.tape.constant(self.value)


class Derivation:
    """Trace node: one rule application over child traces.  Compares field
    by field and is unhashable."""

    __slots__ = ("rule", "binding", "conclusion", "premises", "terms")

    def __init__(self, rule: Rule, binding: Binding, conclusion: int,
                 premises: list, terms: list):
        self.rule, self.binding, self.conclusion = rule, binding, conclusion
        self.premises = premises  # child traces (Leaf or Derivation)
        self.terms = terms  # one Leaf or Constant per rule term

    def __eq__(self, other):
        return other.__class__ is Derivation and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def leaves(self):
        """The premise leaves in order, from one stack however deep the trace."""
        todo = [self]
        while todo:
            node = todo.pop()
            if type(node) is Derivation:
                todo.extend(reversed(node.premises))
            else:
                yield node

    def replay(self, kb: AtomSpace, memo: dict) -> VarRef:
        """Evaluates the trace bottom-up from current KB strengths, the only
        place a formula runs, and returns the conclusion's strength; writes
        nothing.  ``memo`` collapses repeated applications with identical
        inputs (keyed by rule and input record indices): within one pass,
        or over the ``backward_chain`` calls a subgoal table serves."""
        inputs = [c.replay(kb, memo) for cs in (self.premises, self.terms) for c in cs]
        key = (self.rule, *[v.index for v in inputs])
        out = memo.get(key)
        if out is None:
            out = self.rule.formula(inputs)
            memo[key] = out
        return out


InferenceTrace = Leaf | Derivation


def _tv(kb: AtomSpace, atom) -> TruthValue:
    """``kb.get_tv(atom)``, read from the table if the atom is asserted."""
    return type(atom) is int and kb.tvs.get(atom) or kb.get_tv(atom)


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
    confidence = min((_tv(kb, leaf.atom).confidence for leaf in trace.leaves()),
                     default=0.0)
    kb.set_tv(trace.conclusion, TruthValue(strength, confidence))


class ChainConfig:
    def __init__(self, max_steps: int = 100, max_depth: int = 5, seed: int = 0):
        self.max_steps, self.max_depth, self.seed = max_steps, max_depth, seed


def apply_rule(kb: AtomSpace, rule: Rule,
               binding: Binding) -> tuple[int, VarRef, Derivation]:
    """Fires one grounded rule instance on the stored premise strengths and
    commits the conclusion: its strength is the replayed formula output, so
    gradients flow through it; its confidence the minimum over premises."""
    leaves = []
    for premise, args in zip(rule.premises, rule.args):
        if not binding.keys() >= args:
            names = sorted(kb.atom(v).name for v in args - binding.keys())
            raise ChainError("binding does not ground premise variable(s): %s"
                             % ", ".join(names))
        for v in args:  # _substitute interns links of them unchecked
            kb.atom(binding[v])
        leaves.append(Leaf(_substitute(kb, premise, binding)))
    trace = _derive(kb, rule, dict(binding), leaves)
    strength = trace.replay(kb, {})
    commit(kb, trace, strength)
    return trace.conclusion, strength, trace


def forward_chain(kb: AtomSpace, rules: list[Rule],
                  config: ChainConfig) -> tuple[list[int], list[Derivation]]:
    """Applies rules premises-to-conclusions for up to max_steps steps.

    Pending (rule, binding) pairs form an unordered pool kept across steps
    (semi-naive evaluation).  The first step gives each rule one segment of
    the pool: the cross product of one ``match`` per premise when no two
    premises share a variable, else of one ``match`` of the whole query.
    An entry is decoded only when drawn: its index, read in mixed radix over
    the factor lengths, picks one binding per factor, merged in clause
    order, which is the binding, key order included, that ``match``'s
    nested loop puts at that index.  A firing asserts only its conclusion,
    so after one that asserts an atom for the first time, only bindings in
    which some premise matches that atom are added.  No binding is missed:
    ``match`` takes asserted atoms, and the asserted set only grows.  An
    atom a backward query interned is not asserted, so it is no premise.
    Such a delta is matched only for a rule with a premise that can take
    the new atom's type: its own type, or a bare variable's declared type,
    any for an untyped one.  The skip is exact: a premise only ever matches
    atoms of that type, so the other rules' deltas are empty.  Each step
    draws one entry with the seeded RNG and moves the last entry into its
    place; an undecoded one moves as its first-step position, so a draw
    decodes at most one entry.  A (rule, binding) pair enters the pool, so
    fires, at most once: in the first step if its premises were facts
    before chaining, else in the delta of its last asserted premise.
    Returns the atoms first asserted during chaining, with traces.
    """
    if not rules:
        raise ChainError("forward_chain needs a nonempty rule list")
    if type(config.max_steps) is not int:
        raise ChainError("max_steps must be an int")
    if config.max_steps < 1:
        raise ChainError("max_steps must be >= 1")
    rng = random.Random(config.seed)
    # the atom types each rule's premises match; None: any type
    feeds = [{dict(rule.variables).get(p) if kb.atom(p).type.name == "VariableNode"
              else kb.atom(p).type.name for p in rule.premises} for rule in rules]
    segments, starts, n = [], [], 0  # per rule: its factors, its first position
    for rule in rules:
        segments.append([match(kb, rule.variables, [p]) for p in rule.premises]
                        if sum(map(len, rule.args)) == len(set().union(*rule.args))
                        else [match(kb, rule.variables, rule.premises)])
        starts.append(n)
        n += prod(map(len, segments[-1]))
    pool: dict = {}  # position -> a delta's (rule index, binding), or a position
    new_atoms: list[int] = []
    traces: list[Derivation] = []

    fresh = None  # the atom the last firing asserted for the first time
    for _ in range(config.max_steps):
        if fresh is not None:
            kinds = {None, kb.atoms[fresh].type.name}
            for ri, rule in enumerate(rules):
                if not feeds[ri].isdisjoint(kinds):
                    for binding in match(kb, rule.variables, rule.premises, fresh):
                        pool[n] = (ri, binding)
                        n += 1
        if not n:
            break
        i = rng.randrange(n)
        n -= 1
        entry, last = pool.get(i, i), pool.pop(n, n)
        if i < n:
            pool[i] = last
        if type(entry) is int:  # a segment position; an empty segment has none
            ri = bisect_right(starts, entry) - 1
            j, binding = entry - starts[ri], {}
            for factor in reversed(segments[ri]):  # the last varies fastest
                j, k = divmod(j, len(factor))
                binding = {**factor[k], **binding}
        else:
            ri, binding = entry
        asserted = len(kb.tvs)
        conclusion, _, trace = apply_rule(kb, rules[ri], binding)
        fresh = conclusion if len(kb.tvs) > asserted else None
        if fresh is not None:
            new_atoms.append(conclusion)
            traces.append(trace)
    return new_atoms, traces


# -- backward chaining -----------------------------------------------------

def _match_conclusion(kb: AtomSpace, c: int, t: int, rb: Binding, seen: dict,
                      rule: Rule, pattern: int) -> bool:
    """Unifies ``rule``'s conclusion subtree ``c`` with the ``pattern``'s
    subtree ``t`` into ``rb``, their variables kept apart: a target variable
    maps to the subtree it first meets (``seen``) and is unified with each
    later one; a rule variable meeting a subtree that holds one is unified
    with it renamed apart."""
    ta = kb.atoms[t]
    if ta.is_ground:
        return _unify_into(kb, c, t, rb, {})
    if ta.type.name == "VariableNode":
        return (first := seen.setdefault(t, c)) == c or _unify_into(kb, c, first, rb, {})
    ca = kb.atoms[c]
    if ca.type.name != "VariableNode":
        if ca.type is not ta.type or len(ca.outgoing) != len(ta.outgoing):
            return False
        for co, to in zip(ca.outgoing, ta.outgoing):
            if not _match_conclusion(kb, co, to, rb, seen, rule, pattern):
                return False
        return True
    # standardize apart: a pattern variable the rule also uses gets a fresh name
    taken, apart = {kb.atoms[v].name for v in rule.own | _variables_in(kb, pattern)}, {}
    for v in sorted(_variables_in(kb, pattern)):
        name = kb.atoms[v].name
        while v in rule.own and name in taken:
            name += "'"
        taken.add(name)
        apart[v] = kb.node("VariableNode", name)
    return all(_match_conclusion(kb, apart[v], v, rb, seen, rule, pattern)
               for v in _variables_in(kb, t)) and _unify_into(
        kb, c, _substitute(kb, t, apart), rb, {})


class _Search:
    """A KB's table of solved subgoals, keyed by (pattern, depth), for one
    rule list (``prove`` checks ``rules``) until ``set_tv`` ends it.  An
    entry holds proofs, (binding, trace) pairs: the depth-0 entry a pattern's
    facts, read as ``match`` reads a clause, and each deeper one starts from
    them.  ``replays`` is ``backward_chain``'s replay memo, valid while the
    tape's resets and parameter values are ``stamp``.  The table holds no
    reference to the KB, and its methods are not nested closures: no
    reference cycle keeps a dropped KB alive until a garbage collection."""

    def __init__(self, rules: list[Rule]):
        self.rules = tuple(rules)
        self.memo: dict[tuple[int, int], list[tuple[Binding, InferenceTrace]]] = {}
        self.typed: dict[str, tuple[Rule, ...]] = {}  # pattern type -> rules
        self.replays, self.stamp = {}, None

    def solve(self, kb: AtomSpace, pattern: int,
              depth: int) -> list[tuple[Binding, InferenceTrace]]:
        """Facts, then rule derivations, proving ``pattern`` within
        ``depth``: one per lane, through ``_derive``.  A derivation's answer
        binds each target variable to its term (``seen``) under the lane's
        binding, and its binding keeps the rule's variables only."""
        memo = self.memo
        if (pattern, depth) in memo:
            return memo[pattern, depth]
        results = list(self.solve(kb, pattern, 0)) if depth else [
            (b, Leaf(c)) for c in candidates(kb, pattern, {})
            if _unify_into(kb, pattern, c, b := {}, {})]
        for rule, seen, full, traces, trace, terms in self.lanes(kb, pattern, depth):
            # ground: Rule makes the premises bind every conclusion variable
            b = {t: _substitute(kb, c, full) for t, c in seen.items()}
            if len(full) > len(rule.own):  # the lane bound target variables too
                full = {v: full[v] for v in rule.own}
            results.append((b, _derive(kb, rule, full, traces + [trace], terms)))
        memo[pattern, depth] = results
        return results

    def lanes(self, kb: AtomSpace, pattern: int, depth: int, lifted=None, wanted=None):
        """Yields (rule, seen, binding, prefix traces, lane trace, terms or
        None) per rule derivation of ``pattern`` within ``depth``, in (rule,
        premise solutions) order, as the walk finds it.  The premises are
        solved under the unifier of the conclusion with the pattern: per
        solution of all but the last (a prefix), the last one's table entry
        (its column), solved when the prefix is walked, gives the lanes,
        which share the terms the prefix decides (``Rule.hoist``) and check
        each typed variable (``Rule.typed``).  Solutions bind only variables
        the unifier left unbound, so merges never conflict; a lane fills in
        each variable it bound to a term holding others (``same``).  With
        ``wanted``, a prefix binding the rule variable at ``lifted`` to an
        answer outside it is skipped before its column is solved, and a lane
        binding it so before the merge."""
        name = kb.atoms[pattern].type.name  # no rule of another type matches
        if name not in self.typed:
            self.typed[name] = tuple(r for r in self.rules if name in (
                "VariableNode", kb.atoms[r.conclusion].type.name))
        for rule in self.typed[name] if depth >= 1 else ():
            rb, seen = {}, {}
            if not _match_conclusion(kb, rule.conclusion, pattern, rb, seen,
                                     rule, pattern):
                continue
            premises, same = rule.premises, {}
            for value in rb.values():  # a plain loop: any() costs a frame per match
                if not kb.atoms[value].is_ground:  # a repeated or nested target variable
                    for _ in rb:  # resolve the chains, a link a pass
                        rb = {v: _substitute(kb, a, rb) for v, a in rb.items()}
                    same = {v: a for v, a in rb.items() if not kb.atoms[a].is_ground}
                    premises = [_substitute(kb, p, rb) for p in premises]
                    break
            prefixes = [(rb, [])]
            for premise in premises[:-1]:
                prefixes = [({**b, **sb}, ts + [t]) for b, ts in prefixes for sb, t
                            in self.solve(kb, _substitute(kb, premise, b), depth - 1)]
            hoist = rule.hoist and not same
            x = seen.get(lifted) if wanted and not same else None
            x = x if x in rule.own else None  # a compound answer: the caller looks it up
            for binding, traces in prefixes:
                if x in binding and binding[x] not in wanted:
                    continue
                column = self.solve(kb, _substitute(kb, premises[-1], binding), depth - 1)
                if x is not None and x not in binding:
                    column = [(b, t) for b, t in column if b[x] in wanted]
                if not column:
                    continue
                terms = [_term(kb, p, d, binding)
                         for p, d in rule.terms] if hoist else None
                for sub_binding, trace in column:
                    full = {**binding, **sub_binding}
                    if same:
                        full.update((v, _substitute(kb, a, full))
                                    for v, a in same.items())
                    if rule.typed and any(
                            kb.atoms[full[v]].type.name != t for v, t in rule.typed):
                        continue
                    yield rule, seen, full, traces, trace, terms


def _table(kb: AtomSpace, rules: list[Rule], targets: list[int],
           config: ChainConfig) -> _Search:
    """The KB's subgoal table for ``rules``, after the depth and id checks."""
    if type(config.max_depth) is not int:
        raise ChainError("max_depth must be an int")
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
    are the ground query's, in order.  Its facts are the targets asserted
    and its lanes come from the table, its derivations not expanded into
    it: only the lanes of the group's answers are walked, by answer
    (``lookup``), and only a target's first lane becomes a Derivation,
    reading the terms its rule does not hoist; no query repeats or nests a
    variable, so a lane binds the rule's variables only.  The caller checks
    the target ids, as ``training`` does with each target's groundness."""
    search = _table(kb, rules, (), config)
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
        found.update({t: Leaf(t) for t in ts if candidates(kb, t, {}) == [t]})
        for rule, seen, full, traces, trace, terms in search.lanes(
                kb, query, config.max_depth, var, by_last):
            t = by_last.get(lookup(kb, seen[var], full)) if by_last else query
            if t is not None and type(found.get(t)) is not Derivation:
                found[t] = Derivation(rule, full, t, traces + [trace], terms or [
                    _term(kb, p, d, full) for p, d in rule.terms])
    return [found.get(t) for t in targets]


def backward_chain(kb: AtomSpace, rules: list[Rule], target: int,
                   config: ChainConfig) -> list[tuple[Binding, VarRef, InferenceTrace]]:
    """All ways the target is derivable within max_depth.

    Depth 0 covers targets directly asserted in the KB; deeper results apply a
    rule whose conclusion unifies with the target and whose premises are
    recursively derivable.  Results are deterministic: KB facts first, then
    rules in the given order.

    The KB's subgoal table gives the traces, and its replay memo values
    them: a distinct rule application calls its formula once per table, so
    a repeated query returns the same VarRefs and adds no tape record.  A
    tape reset or a parameter's new value drops the memo, and a new
    strength is a new record, so a new key; while ``trace_loss`` traces, a
    fresh memo replays.  It values no conclusion, so every leaf is an
    asserted fact.  It interns the subgoal patterns and conclusions it
    meets, ground ones included, proved or not, but asserts none, so no
    chainer reads them as facts.
    """
    search = _table(kb, rules, [target], config)
    proofs, tape, memo = search.solve(kb, target, config.max_depth), kb.tape, {}
    if tape._reads is None:  # not while trace_loss traces
        stamp = (tape.resets, [tape._values[i] for i in tape._param_indices])
        if stamp != search.stamp:
            search.replays, search.stamp = {}, stamp
        memo = search.replays
    return [(dict(b), trace.replay(kb, memo), trace) for b, trace in proofs]
