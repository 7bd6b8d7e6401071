"""Pattern matching: find all groundings of variable-bearing query graphs.

Variables are VariableNodes identified by name; a Binding maps variable atom
ids to ground atom ids.  ``candidates`` picks the atoms a clause may match,
for ``match`` and for the backward chainer's depth-0 facts: a ground clause
is its own candidate, a typed bare variable draws from its type's index, and
a link takes the shorter of its type's index and the incoming set of its
first ground (or bound) argument.  Both lists are in id order, so the choice
never changes the order of results.  ``match``, ``unify``, ``substitute`` and
``variables_in`` check atom ids; the underscored forms they call, which
``match`` and the search use inside their loops, do not.
"""

from __future__ import annotations

from bisect import bisect_left

from .atomspace import TYPES, AtomSpace

Binding = dict  # variable atom id -> ground atom id


class MatchError(Exception):
    pass


def variables_in(kb: AtomSpace, atom_id: int) -> set[int]:
    """All VariableNode ids occurring in the atom."""
    kb.atom(atom_id)
    return _variables_in(kb, atom_id)


def _variables_in(kb: AtomSpace, atom_id: int) -> set[int]:
    atom = kb.atoms[atom_id]
    if atom.is_ground:
        return set()
    if atom.type.name == "VariableNode":
        return {atom_id}
    out: set[int] = set()
    for oid in atom.outgoing:
        out |= _variables_in(kb, oid)
    return out


def unify(kb: AtomSpace, pattern: int, ground: int,
          binding: Binding | None = None,
          constraints: dict[int, str] | None = None) -> Binding | None:
    """Extends ``binding`` so the pattern matches the ground atom, or None.

    The ground side must not contain variables; the input binding is never
    mutated.  A variable with a type constraint only binds atoms of exactly
    that type.
    """
    kb.atom(pattern)
    kb.atom(ground)
    return _unify(kb, pattern, ground, binding, constraints)


def _unify(kb, pattern, ground, binding=None, constraints=None):
    if not kb.atoms[ground].is_ground:
        return None
    result = dict(binding) if binding else {}
    if _unify_into(kb, pattern, ground, result, constraints or {}):
        return result
    return None


def _unify_into(kb, pattern, ground, binding, constraints) -> bool:
    if pattern == ground:  # interned: equal ids are equal subtrees
        return True
    p = kb.atoms[pattern]
    if p.type.name == "VariableNode":
        bound = binding.get(pattern)
        if bound is not None:
            return bound == ground
        want = constraints.get(pattern)
        if want is not None and kb.atoms[ground].type.name != want:
            return False
        binding[pattern] = ground
        return True
    g = kb.atoms[ground]
    if p.type.name != g.type.name:
        return False
    if p.type.is_node:
        return p.name == g.name
    if len(p.outgoing) != len(g.outgoing):
        return False
    for po, go in zip(p.outgoing, g.outgoing):
        if not _unify_into(kb, po, go, binding, constraints):
            return False
    return True


def candidates(kb: AtomSpace, clause: int, binding: Binding,
               constraints: dict[int, str] | None = None) -> list[int]:
    """Ground atoms that may unify with one clause under a partial binding,
    in id order: the one index both ``match`` and ``backward_chain`` use."""
    atoms = kb.atoms
    c = atoms[clause]
    if c.is_ground:
        return [clause]
    if c.type.name == "VariableNode":
        bound = binding.get(clause)
        if bound is not None:
            return [bound]
        want = (constraints or {}).get(clause)
        if want is None:
            pool = range(len(kb))
        elif want in TYPES:
            pool = kb.atoms_of_type(want)
        else:
            return []
        return [i for i in pool if atoms[i].is_ground]
    pool = kb.atoms_of_type(c.type.name)
    for oid in c.outgoing:
        anchor = binding.get(oid, oid)
        if atoms[anchor].is_ground:
            incoming = kb.incoming_of[anchor]
            if len(incoming) < len(pool):
                pool = incoming
            break
    return [i for i in pool
            if atoms[i].is_ground and atoms[i].type.name == c.type.name]


def match(kb: AtomSpace, variables: list[tuple[int, str | None]],
          clauses: list[int], since: int = 0) -> list[Binding]:
    """All bindings under which every clause is an atom present in the KB
    and some clause is an atom with id >= ``since``, each once.  Each
    variable pair is (VariableNode id, type name or None): the clauses may
    use only those variables, and one with a type binds only atoms of
    exactly that type.

    With ``since`` = 0 that is every binding, in candidate id order.  A
    later ``since`` gives the delta of a grown KB: for each clause d, the
    clauses before d match atoms below ``since``, clause d a newer atom and
    later clauses any atom.  Clause d is enumerated first, over the new
    atoms, so the delta is a join against the old atoms, not a re-match.
    Bindings are distinct: a full binding fixes the atom each clause matched.
    """
    if not clauses:
        raise MatchError("query has no clauses")
    constraints = dict(variables)
    for clause in clauses:
        kb.atom(clause)  # the id check; everything below reads unchecked
        undeclared = _variables_in(kb, clause) - constraints.keys()
        if undeclared:
            names = sorted(kb.atom(v).name for v in undeclared)
            raise MatchError("undeclared variable(s) in clause: %s" % ", ".join(names))

    results: list[Binding] = []
    end = len(kb)
    # with since = 0 no atom lies below it, so only d = 0 can match
    for d in range(len(clauses) if since > 0 else 1):
        # (clause, lowest id, id bound) in the order they are enumerated
        plan = ([(clauses[d], since, end)]
                + [(c, 0, since) for c in clauses[:d]]
                + [(c, 0, end) for c in clauses[d + 1:]])
        _extend(kb, plan, constraints, 0, {}, results)
    return results


def _extend(kb: AtomSpace, plan: list[tuple[int, int, int]],
            constraints: dict[int, str], ci: int, binding: Binding,
            results: list[Binding]) -> None:
    """Appends each extension of ``binding`` that matches plan steps ci
    onward, each clause to an atom id in [lo, hi).  A module function, not
    a closure: a recursive closure is a reference cycle, which would keep
    the KB alive until a full garbage collection."""
    if ci == len(plan):
        results.append(binding)
        return
    clause, lo, hi = plan[ci]
    pool = candidates(kb, clause, binding, constraints)
    pool = pool[bisect_left(pool, lo):bisect_left(pool, hi)]
    if clause not in binding and kb.atoms[clause].type.name == "VariableNode":
        # candidates are ground atoms of its type: each binds it without unify
        extended = ({**binding, clause: cand} for cand in pool)
        if ci + 1 == len(plan):
            results.extend(extended)
        else:
            for nb in extended:
                _extend(kb, plan, constraints, ci + 1, nb, results)
        return
    for cand in pool:
        nb = _unify(kb, clause, cand, binding, constraints)
        if nb is not None:
            _extend(kb, plan, constraints, ci + 1, nb, results)


def substitute(kb: AtomSpace, template: int, binding: Binding) -> int:
    """Replaces bound variables, keeps unbound ones, interns only new atoms;
    checks the template's id and the binding's."""
    for atom in (template, *binding.values()):
        kb.atom(atom)
    return _substitute(kb, template, binding)


def _substitute(kb: AtomSpace, template: int, binding: Binding) -> int:
    atom = kb.atoms[template]
    if atom.is_ground:  # every node but a variable
        return template
    if atom.type.name == "VariableNode":
        return binding.get(template, template)
    out = tuple([_substitute(kb, oid, binding) for oid in atom.outgoing])
    if out == atom.outgoing:
        return template
    found = kb._index.get((atom.type.name, out))
    return kb._link(atom.type, out) if found is None else found


def lookup(kb: AtomSpace, template: int, binding: Binding) -> int | None:
    """The atom ``substitute`` would give, found without interning anything;
    None if it is not in the KB."""
    atom = kb.atoms[template]
    if atom.is_ground:  # every node but a variable
        return template
    if atom.type.name == "VariableNode":
        return binding.get(template, template)
    out = []
    for oid in atom.outgoing:
        found = lookup(kb, oid, binding)
        if found is None:
            return None
        out.append(found)
    return kb._index.get((atom.type.name, tuple(out)))

