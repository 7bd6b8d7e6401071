"""Pattern matching: find all groundings of variable-bearing query graphs.

Variables are VariableNodes identified by name; a Binding maps variable atom
ids to atom ids, ground ones but in ``_unify_into``, the one unifier.
``candidates`` picks the facts, asserted atoms, a clause may match, for
``match`` and the backward chainer's depth-0 facts: a ground clause is its
own candidate, a typed bare variable draws from its type's index, and a
link takes the shorter of its type's index and the incoming set of its
first ground (or bound) argument.  Both lists are in id order, so the
choice never changes the order of results.  ``match``, ``unify``,
``substitute`` and ``variables_in`` check atom ids; the underscored forms
they call, which ``match`` and the search use inside their loops, do not.
"""

from __future__ import annotations

from .atomspace import TYPES, AtomSpace

Binding = dict  # variable atom id -> atom id


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
    """Extends ``binding`` so the pattern matches the ground atom, which
    holds no variable, or None; never mutates the input binding.  A variable
    with a type constraint only binds atoms of exactly that type."""
    kb.atom(pattern)
    kb.atom(ground)
    return _unify(kb, pattern, ground, binding, constraints)


def _unify(kb, pattern, ground, binding=None, constraints=None):
    result = dict(binding) if binding else {}
    return result if kb.atoms[ground].is_ground and _unify_into(
        kb, pattern, ground, result, constraints or {}) else None


def _unify_into(kb, a, b, binding, constraints) -> bool:
    """Unifies ``a`` and ``b`` into ``binding``, a bound variable read through
    its chain; a variable binds no term it occurs in, nor, if typed in
    ``constraints``, an atom of another type."""
    if a == b:  # interned: equal ids are equal subtrees
        return True
    x, y = kb.atoms[a], kb.atoms[b]
    if x.type.name == "VariableNode":
        bound = binding.get(a)
        if bound is not None:  # distinct ground atoms never unify: no call
            return bound == b or not (y.is_ground and kb.atoms[bound].is_ground) and (
                _unify_into(kb, bound, b, binding, constraints))
        if not y.is_ground:
            if b in binding:
                return _unify_into(kb, a, binding[b], binding, constraints)
            if _occurs(kb, a, b, binding):
                return False
        want = constraints.get(a)
        if want is not None and y.type.name != want:
            return False
        binding[a] = b
        return True
    if x.type is not y.type or x.is_ground and y.is_ground or len(
            x.outgoing) != len(y.outgoing):  # a variable b is of another type
        return y.type.name == "VariableNode" and _unify_into(kb, b, a, binding, constraints)
    for xo, yo in zip(x.outgoing, y.outgoing):
        if not _unify_into(kb, xo, yo, binding, constraints):
            return False
    return True


def _occurs(kb: AtomSpace, v: int, t: int, binding: Binding) -> bool:
    """Whether the variable ``v`` occurs in ``t`` under ``binding``."""
    return t == v or any(_occurs(kb, v, o, binding) for o in (
        [binding[t]] if t in binding else kb.atoms[t].outgoing))


def candidates(kb: AtomSpace, clause: int, binding: Binding,
               constraints: dict[int, str] | None = None) -> list[int]:
    """The facts, asserted ground atoms, that may unify with one clause under
    a partial binding, in id order: the one index of ``match`` and the search."""
    atoms, tvs = kb.atoms, kb.tvs
    c = atoms[clause]
    if c.is_ground or clause in binding:  # the clause itself, or its value
        atom = binding.get(clause, clause)
        return [atom] if atom in tvs else []
    if c.type.name == "VariableNode":
        want = (constraints or {}).get(clause)
        if want is None:
            pool = range(len(kb))
        elif want in TYPES:
            pool = kb.atoms_of_type(want)
        else:
            return []
        return [i for i in pool if atoms[i].is_ground and i in tvs]
    pool = kb.atoms_of_type(c.type.name)
    for oid in c.outgoing:
        anchor = binding.get(oid, oid)
        if atoms[anchor].is_ground:
            incoming = kb.incoming_of[anchor]
            if len(incoming) < len(pool):
                pool = incoming
            break
    return [i for i in pool if atoms[i].is_ground
            and atoms[i].type.name == c.type.name and i in tvs]


def match(kb: AtomSpace, variables: list[tuple[int, str | None]],
          clauses: list[int], new: int | None = None) -> list[Binding]:
    """All bindings under which every clause is an asserted atom, each once,
    in candidate id order.  Each variable pair is (VariableNode id, type
    name or None): the clauses may use only those variables, and one with a
    type binds only atoms of exactly that type.

    With ``new``, an atom id, only the bindings under which some clause is
    ``new``: the delta a newly asserted atom adds.  For each clause d that
    unifies with it, the clauses before d match other atoms and later
    clauses any atom, so each binding comes from its first clause that is
    ``new``.  Clause d binds first, so the delta is a join against the
    other atoms, not a re-match.
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
    if new is None:
        _extend(kb, [(c, None) for c in clauses], constraints, 0, {}, results)
        return results
    kb.atom(new)
    for d, clause in enumerate(clauses):
        seed = _unify(kb, clause, new, None, constraints)
        if seed is not None:  # the first step: candidates decides if new is a fact
            plan = ([(new, None)] + [(c, new) for c in clauses[:d]]
                    + [(c, None) for c in clauses[d + 1:]])
            _extend(kb, plan, constraints, 0, seed, results)
    return results


def _extend(kb: AtomSpace, plan: list[tuple[int, int | None]],
            constraints: dict[int, str], ci: int, binding: Binding,
            results: list[Binding]) -> None:
    """Appends each extension of ``binding`` that matches plan steps ci
    onward, each (clause, skip) step to a candidate other than ``skip``.  A
    module function, not a closure: a recursive closure is a reference
    cycle, which would keep the KB alive until a full garbage collection."""
    if ci == len(plan):
        results.append(binding)
        return
    clause, skip = plan[ci]
    pool = candidates(kb, clause, binding, constraints)
    if clause not in binding and kb.atoms[clause].type.name == "VariableNode":
        # candidates are ground atoms of its type: each binds it without unify
        extended = ({**binding, clause: cand} for cand in pool if cand != skip)
        if ci + 1 == len(plan):
            results.extend(extended)
        else:
            for nb in extended:
                _extend(kb, plan, constraints, ci + 1, nb, results)
        return
    for cand in pool:
        nb = _unify(kb, clause, cand, binding, constraints) if cand != skip else None
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

