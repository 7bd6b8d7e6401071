"""Interned hypergraph knowledge base.

Atoms are nodes (type + name) or links (type + ordered outgoing atoms) and
are interned: re-inserting an existing key returns the same integer id.
Truth-value strengths are VarRefs on an autodiff tape, so every strength read
by a rule formula participates in the computation graph.
"""

from __future__ import annotations

from .autodiff import Tape, VarRef


class AtomSpaceError(Exception):
    pass


class UnknownTypeError(AtomSpaceError):
    pass


class UnknownAtomError(AtomSpaceError):
    pass


class AtomType:
    def __init__(self, name: str, is_node: bool):
        self.name = name
        self.is_node = is_node  # OpenCog's naming rule: a node type's name ends in "Node"


TYPES: dict[str, AtomType] = {name: AtomType(name, name.endswith("Node")) for name in [
    "ConceptNode",
    "PredicateNode",
    "NumberNode",
    "VariableNode",
    "TypeNode",
    "InheritanceLink",
    "ImplicationLink",
    "EvaluationLink",
    "AndLink",
    "OrLink",
    "NotLink",
    "ListLink",
    "LambdaLink",
]}


def _atom_type(name: str) -> AtomType:
    try:
        return TYPES[name]
    except KeyError:
        raise UnknownTypeError("unknown atom type %r" % name) from None


class Atom:
    __slots__ = ("type", "name", "outgoing", "is_ground")

    def __init__(self, type: AtomType, name: str | None = None,
                 outgoing: tuple[int, ...] = (), is_ground: bool = True):
        self.type = type
        self.name = name              # node kinds only
        self.outgoing = outgoing      # link kinds only
        self.is_ground = is_ground    # False iff a VariableNode occurs below


class TruthValue:
    """Strength is a live VarRef; confidence is a plain static scalar."""

    def __init__(self, strength: VarRef, confidence: float = 0.0):
        strength.tape.check_unit(strength, AtomSpaceError, "strength")
        if not 0.0 <= confidence <= 1.0:
            raise AtomSpaceError("confidence %g outside [0, 1]" % confidence)
        self.strength = strength
        self.confidence = confidence


DEFAULT_STRENGTH = 1.0
DEFAULT_CONFIDENCE = 0.0


class AtomSpace:
    """The interned store; an atom's id is its index in ``atoms``.

    A fresh atom is unasserted and reads the default truth value (1.0,
    0.0).  ``set_tv`` asserts an atom, which both chainers use to tell
    stated facts from atoms interned as query patterns or templates, and
    ends the chainer's subgoal table, built from the asserted set, when that
    set grows.  Unchecked, ``pattern`` and ``chainer`` read ``atoms``, ``tvs``,
    ``incoming_of`` and ``_index``; they intern by ``_link``, ``sexpr`` by
    ``_node`` and ``_link``.
    """

    def __init__(self, tape: Tape):
        self.tape = tape
        self.atoms: list[Atom] = []  # by id; read-only outside this class
        self._index: dict[tuple, int] = {}  # (type name, node name or outgoing) -> id
        self.incoming_of: list[list[int]] = []  # by id, like atoms; read-only
        self._by_type: dict[str, list[int]] = {}
        self.tvs: dict[int, TruthValue] = {}  # the asserted atoms; read-only
        self.subgoal_table = None  # chainer's; set_tv ends it

    def __len__(self) -> int:
        return len(self.atoms)

    # -- interning --------------------------------------------------------

    def intern_node(self, type_name: str, name: str) -> int:
        t = _atom_type(type_name)
        if not t.is_node:
            raise AtomSpaceError("%s is a link kind, not a node kind" % type_name)
        return self._node(type_name, name)

    def _node(self, type_name: str, name: str) -> int:
        """``intern_node`` unchecked: a node type name of TYPES."""
        existing = self._index.get((type_name, name))
        if existing is not None:
            return existing
        i = len(self.atoms)
        self.atoms.append(Atom(TYPES[type_name], name, (), type_name != "VariableNode"))
        self.incoming_of.append([])
        self._index[type_name, name] = i
        self._by_type.setdefault(type_name, []).append(i)
        return i

    def _checked_link(self, type_name: str, outgoing: list[int]) -> tuple[AtomType, tuple]:
        t = _atom_type(type_name)
        if t.is_node:
            raise AtomSpaceError("%s is a node kind, not a link kind" % type_name)
        out = tuple(outgoing)
        for oid in out:
            self.atom(oid)  # raises UnknownAtomError
        return t, out

    def intern_link(self, type_name: str, outgoing: list[int]) -> int:
        return self._link(*self._checked_link(type_name, outgoing))

    def _link(self, t: AtomType, out: tuple[int, ...]) -> int:
        """``intern_link`` unchecked: a link type of TYPES, ids this KB gave."""
        # Acyclicity holds by construction: outgoing ids must already exist,
        # and ids are assigned in insertion order, so a link's id is strictly
        # greater than everything it (transitively) contains.
        key = (t.name, out)
        existing = self._index.get(key)
        if existing is not None:
            return existing
        i = len(self.atoms)
        ground = True
        for oid in out:
            if not self.atoms[oid].is_ground:
                ground = False
                break
        self.atoms.append(Atom(t, None, out, ground))  # positional: half the cost
        self.incoming_of.append([])
        self._index[key] = i
        self._by_type.setdefault(t.name, []).append(i)
        for oid in set(out):
            self.incoming_of[oid].append(i)
        return i

    def find_link(self, type_name: str, outgoing: list[int]) -> int | None:
        """The link's id, or None; checks its input as ``intern_link`` does."""
        t, out = self._checked_link(type_name, outgoing)
        return self._index.get((t.name, out))

    # -- access -----------------------------------------------------------

    def atom(self, atom_id: int) -> Atom:
        """The atom with this id, or UnknownAtomError; the public methods
        and the search's entry points check ids here, not the search."""
        if type(atom_id) is int and 0 <= atom_id < len(self.atoms):
            return self.atoms[atom_id]
        raise UnknownAtomError("unknown atom id %r" % (atom_id,))

    def atoms_of_type(self, type_name: str) -> list[int]:
        """The index list itself, in id order, not a copy: read-only."""
        _atom_type(type_name)
        return self._by_type.get(type_name, [])

    # -- truth values -----------------------------------------------------

    def set_tv(self, atom_id: int, tv: TruthValue) -> None:
        """Asserts the atom; asserting a new one ends the subgoal table."""
        self.atom(atom_id)
        if atom_id not in self.tvs:
            self.subgoal_table = None
        self.tvs[atom_id] = tv

    def get_tv(self, atom_id: int) -> TruthValue:
        self.atom(atom_id)
        tv = self.tvs.get(atom_id)
        if tv is None:
            # not stored: a cached default would go stale on a tape reset
            tv = TruthValue(self.tape.constant(DEFAULT_STRENGTH), DEFAULT_CONFIDENCE)
        return tv

    def has_asserted_tv(self, atom_id: int) -> bool:
        self.atom(atom_id)
        return atom_id in self.tvs

    # -- convenience constructors -----------------------------------------

    def node(self, type_name: str, name: str) -> int:
        return self.intern_node(type_name, name)

    def link(self, type_name: str, *outgoing: int) -> int:
        return self.intern_link(type_name, list(outgoing))
