"""A plain reference prover: the specification of ``chainer.prove``'s
proofs, their content and their order, written for clarity, not speed.
Kept in the tests only, as the oracle ``test_search_oracle.py`` checks the
subgoal table, its lifted and hoisted lanes and its unifier against.

A term is ("?", key) for a variable, (type, name) for a node and (type,
child, ...) for a link.  ``Reference.proofs(goal, depth)`` lists a goal's
proofs: first the asserted facts that unify with it, in id order; then,
if ``depth`` >= 1, each rule's derivations, rules in list order.  A
derivation renames the rule's variables apart, unifies its conclusion with
the goal (a most general unifier, with an occurs check), solves the
premises in order, each under the substitution so far, within ``depth`` -
1, and keeps the solutions whose typed variables have their types: a
rule's derivations come in the order of its premises' solutions, the first
premise's varying slowest.  A term reads its atom's leaf if that atom is
asserted, else its default.  Each proof carries its strength, the rule
formulas evaluated on float constants of a tape of its own.
"""

from __future__ import annotations

import itertools

from dpln.autodiff import Tape
from dpln.chainer import Leaf


def term(kb, atom_id: int) -> tuple:
    """The atom as a term."""
    atom = kb.atom(atom_id)
    if atom.type.name == "VariableNode":
        return ("?", atom.name)
    if atom.type.is_node:
        return (atom.type.name, atom.name)
    return (atom.type.name, *[term(kb, o) for o in atom.outgoing])


def _is_var(t) -> bool:
    return t[0] == "?"


def _children(t) -> tuple:
    return () if _is_var(t) or type(t[1]) is str else t[1:]


def variables(t) -> list:
    """The variables of t, in first-occurrence order."""
    if _is_var(t):
        return [t]
    return list(dict.fromkeys(v for c in _children(t) for v in variables(c)))


def resolve(t, s: dict, chains: bool = True):
    """t with each bound variable replaced by its value, through chains
    unless ``chains`` is False: then a simultaneous renaming."""
    if _is_var(t):
        return (resolve(s[t], s) if chains else s[t]) if t in s else t
    if not _children(t):
        return t
    return (t[0], *[resolve(c, s, chains) for c in _children(t)])


def _occurs(v, t, s) -> bool:
    t = resolve(t, s)
    return v == t or any(_occurs(v, c, s) for c in _children(t))


def unify(a, b, s: dict) -> dict | None:
    """A most general unifier of a and b extending the triangular s, or None."""
    a, b = resolve(a, s), resolve(b, s)
    if a == b:
        return s
    if _is_var(b):
        a, b = b, a
    if _is_var(a):
        return None if _occurs(a, b, s) else {**s, a: b}
    if a[0] != b[0] or len(a) != len(b) or not _children(a) or not _children(b):
        return None
    for x, y in zip(_children(a), _children(b)):
        s = unify(x, y, s)
        if s is None:
            return None
    return s


class Reference:
    """The proofs of goals over ``kb``'s asserted atoms and ``rules``."""

    def __init__(self, kb, rules):
        self.kb, self.rules = kb, rules
        self.facts = [(term(kb, a), a) for a in sorted(kb.tvs) if kb.atom(a).is_ground]
        self.asserted = dict(self.facts)  # ground term -> atom id
        self.memo: dict = {}
        self.apart = itertools.count()  # one tag per rule application
        self.floats = Tape()  # the formulas read constants of it

    def proofs(self, goal, depth: int) -> list:
        """[(binding, proof, strength)]: the binding maps each variable of
        the goal to a ground term; a proof is ("leaf", fact) or (rule name,
        {rule variable name: term}, conclusion, terms, premise proofs), a
        term being ("leaf", fact) or ("const", default)."""
        vs = variables(goal)
        canon = resolve(goal, {v: ("?", i) for i, v in enumerate(vs)}, chains=False)
        if (canon, depth) not in self.memo:
            self.memo[canon, depth] = self._solve(canon, depth)
        return [(dict(zip(vs, values)), proof, strength)
                for values, proof, strength in self.memo[canon, depth]]

    def _solve(self, goal, depth: int) -> list:
        vs = variables(goal)
        out = []
        for fact, atom in self.facts:
            s = unify(goal, fact, {})
            if s is not None:
                out.append(([resolve(v, s) for v in vs], ("leaf", fact),
                            self.kb.tvs[atom].strength.value))
        for rule in self.rules if depth >= 1 else ():
            tag = next(self.apart)

            def rename(t):
                if _is_var(t):
                    return ("?", t[1], tag)
                return (t[0], *map(rename, _children(t))) if _children(t) else t
            premises = [rename(term(self.kb, p)) for p in rule.premises]
            own = dict.fromkeys(v for p in premises for v in variables(p))
            types = [(rename(term(self.kb, v)), t) for v, t in rule.variables
                     if t is not None and rename(term(self.kb, v)) in own]
            s = unify(rename(term(self.kb, rule.conclusion)), goal, {})
            if s is None:
                continue
            for s, proofs, strengths in self._premises(premises, types, s, depth - 1):
                terms, inputs = [], list(strengths)
                for pattern, default in rule.terms:
                    atom = self.asserted.get(resolve(rename(term(self.kb, pattern)), s))
                    terms.append(("const", default) if atom is None
                                 else ("leaf", term(self.kb, atom)))
                    inputs.append(default if atom is None
                                  else self.kb.tvs[atom].strength.value)
                strength = rule.formula([self.floats.constant(x) for x in inputs]).value
                binding = {v[1]: resolve(v, s) for v in own}
                conclusion = resolve(rename(term(self.kb, rule.conclusion)), s)
                out.append(([resolve(v, s) for v in vs], (
                    rule.name, binding, conclusion, tuple(terms), tuple(proofs)),
                    strength))
        return out

    def _premises(self, premises, types, s, depth):
        """Yields (substitution, premise proofs, their strengths) per
        solution of the premises in order, typed variables checked."""
        if any(not _is_var(v) and v[0] != t for v, t in
               ((resolve(v, s), t) for v, t in types)):
            return
        if not premises:
            yield s, [], []
            return
        for binding, proof, strength in self.proofs(resolve(premises[0], s), depth):
            for s2, proofs, strengths in self._premises(
                    premises[1:], types, {**s, **binding}, depth):
                yield s2, [proof, *proofs], [strength, *strengths]


def chainer_proof(kb, trace) -> tuple:
    """A chainer trace as the reference writes a proof: its binding kept to
    the rule's variables, by name."""
    if type(trace) is Leaf:
        return ("leaf", term(kb, trace.atom))
    own = {v for p in trace.rule.premises for v in _variable_ids(kb, p)}
    return (trace.rule.name,
            {kb.atom(v).name: term(kb, a) for v, a in trace.binding.items() if v in own},
            term(kb, trace.conclusion),
            tuple(("leaf", term(kb, t.atom)) if type(t) is Leaf else ("const", t.value)
                  for t in trace.terms),
            tuple(chainer_proof(kb, p) for p in trace.premises))


def _variable_ids(kb, atom_id: int):
    atom = kb.atom(atom_id)
    if atom.type.name == "VariableNode":
        yield atom_id
    for o in atom.outgoing:
        yield from _variable_ids(kb, o)
