import random

import pytest

from dpln import (AtomSpaceError, AutodiffError, TruthValue, UnknownAtomError,
                  UnknownTypeError)

from conftest import fresh_kb


def test_intern_node_identity():
    _, kb = fresh_kb()
    a = kb.intern_node("ConceptNode", "sparrow")
    b = kb.intern_node("ConceptNode", "sparrow")
    assert a == b


def test_intern_node_distinct_names():
    _, kb = fresh_kb()
    assert kb.intern_node("ConceptNode", "sparrow") != \
        kb.intern_node("ConceptNode", "bird")


def test_intern_node_rejects_link_kind():
    _, kb = fresh_kb()
    with pytest.raises(AtomSpaceError):
        kb.intern_node("InheritanceLink", "x")


def test_intern_node_unknown_type():
    _, kb = fresh_kb()
    with pytest.raises(UnknownTypeError):
        kb.intern_node("NoSuchNode", "x")


def test_intern_link_identity_and_order():
    _, kb = fresh_kb()
    s = kb.intern_node("ConceptNode", "sparrow")
    b = kb.intern_node("ConceptNode", "bird")
    l1 = kb.intern_link("InheritanceLink", [s, b])
    l2 = kb.intern_link("InheritanceLink", [s, b])
    l3 = kb.intern_link("InheritanceLink", [b, s])
    assert l1 == l2
    assert l1 != l3
    assert kb.atom(l1).outgoing == (s, b)


def test_intern_link_rejects_node_kind_and_dangling():
    _, kb = fresh_kb()
    s = kb.intern_node("ConceptNode", "s")
    kb.intern_node("ConceptNode", "t")
    with pytest.raises(AtomSpaceError):
        kb.intern_link("ConceptNode", [s])
    with pytest.raises(UnknownAtomError):
        kb.intern_link("ListLink", [s, 999])
    # a bool is no atom id, though True == 1 and False == 0
    with pytest.raises(UnknownAtomError, match="unknown atom id False"):
        kb.atom(False)
    with pytest.raises(UnknownAtomError, match="unknown atom id True"):
        kb.intern_link("InheritanceLink", [True, False])
    assert len(kb) == 2


def test_find_link_checks_its_input_as_intern_link_does():
    """A bad type name, a node kind or an unknown id raises, as it does in
    intern_link, rather than reading as "no such link"; a good query that
    misses returns None and interns nothing."""
    _, kb = fresh_kb()
    a = kb.intern_node("ConceptNode", "a")
    with pytest.raises(UnknownTypeError):
        kb.find_link("Bogus", [a])
    with pytest.raises(AtomSpaceError) as err:
        kb.find_link("ConceptNode", [a])
    assert type(err.value) is AtomSpaceError
    with pytest.raises(UnknownAtomError):
        kb.find_link("InheritanceLink", [99, "x"])
    assert kb.find_link("InheritanceLink", [a, a]) is None and len(kb) == 1
    link = kb.intern_link("InheritanceLink", [a, a])
    assert kb.find_link("InheritanceLink", (a, a)) == link


def test_evaluation_link_shape():
    _, kb = fresh_kb()
    pred = kb.intern_node("PredicateNode", "apple")
    inst = kb.intern_node("ConceptNode", "apple-001")
    ev = kb.intern_link("EvaluationLink", [pred, inst])
    assert kb.atom(ev).type.name == "EvaluationLink"
    assert kb.atom(ev).outgoing == (pred, inst)


def test_set_get_tv_roundtrip():
    tape, kb = fresh_kb()
    pred = kb.intern_node("PredicateNode", "apple")
    inst = kb.intern_node("ConceptNode", "apple-001")
    ev = kb.intern_link("EvaluationLink", [pred, inst])
    kb.set_tv(ev, TruthValue(tape.constant(1.0), 1.0))
    tv = kb.get_tv(ev)
    assert tv.strength.value == 1.0
    assert tv.confidence == 1.0


def test_set_tv_last_write_wins():
    tape, kb = fresh_kb()
    a = kb.intern_node("ConceptNode", "a")
    kb.set_tv(a, TruthValue(tape.constant(0.7), 0.9))
    kb.set_tv(a, TruthValue(tape.constant(0.3), 0.5))
    assert kb.get_tv(a).strength.value == 0.3


def test_set_tv_unknown_atom():
    tape, kb = fresh_kb()
    with pytest.raises(UnknownAtomError):
        kb.set_tv(42, TruthValue(tape.constant(0.5), 0.5))
    with pytest.raises(UnknownAtomError):
        kb.get_tv(42)


def test_default_tv():
    _, kb = fresh_kb()
    a = kb.intern_node("ConceptNode", "a")
    tv = kb.get_tv(a)
    assert tv.strength.value == 1.0
    assert tv.confidence == 0.0
    assert not kb.has_asserted_tv(a)


def test_default_tv_survives_tape_reset():
    """A default read after a mark is not cached, so a reset cannot leave a
    stale strength that later reads an unrelated record."""
    tape, kb = fresh_kb()
    a = kb.intern_node("ConceptNode", "a")
    mark = tape.mark()
    assert kb.get_tv(a).strength.value == 1.0
    tape.reset_to(mark)
    tape.parameter(0.25)
    assert kb.get_tv(a).strength.value == 1.0
    assert not kb.has_asserted_tv(a)


def test_tv_strength_stored_by_reference():
    tape, kb = fresh_kb()
    a = kb.intern_node("ConceptNode", "a")
    p = tape.parameter(0.5)
    kb.set_tv(a, TruthValue(p, 1.0))
    p.value = 0.25
    assert kb.get_tv(a).strength.value == 0.25


def test_the_default_strength_cannot_be_set():
    """An unasserted atom's default strength is the tape's shared constant
    1.0, the strength of every fact asserted at 1.0: setting it raises
    rather than rewrite them."""
    tape, kb = fresh_kb()
    a, b = kb.intern_node("ConceptNode", "a"), kb.intern_node("ConceptNode", "b")
    kb.set_tv(b, TruthValue(tape.constant(1.0), 0.9))
    with pytest.raises(AutodiffError, match="not a parameter"):
        kb.get_tv(a).strength.value = 0.0
    assert kb.get_tv(b).strength.value == 1.0


def test_tv_range_validation():
    tape, kb = fresh_kb()
    with pytest.raises(AtomSpaceError):
        TruthValue(tape.constant(1.5), 0.5)
    with pytest.raises(AtomSpaceError):
        TruthValue(tape.constant(0.5), 1.5)


def test_incoming():
    _, kb = fresh_kb()
    s = kb.intern_node("ConceptNode", "sparrow")
    b = kb.intern_node("ConceptNode", "bird")
    a = kb.intern_node("ConceptNode", "animal")
    l1 = kb.intern_link("InheritanceLink", [s, b])
    assert kb.incoming_of[s] == [l1]
    assert kb.incoming_of[a] == []
    l2 = kb.intern_link("ListLink", [s, a])
    assert kb.incoming_of[s] == [l1, l2]


def test_atoms_of_type():
    _, kb = fresh_kb()
    a = kb.intern_node("ConceptNode", "a")
    b = kb.intern_node("ConceptNode", "b")
    kb.intern_node("ConceptNode", "a")  # duplicate interning
    assert kb.atoms_of_type("ConceptNode") == [a, b]
    assert kb.atoms_of_type("PredicateNode") == []
    with pytest.raises(UnknownTypeError):
        kb.atoms_of_type("Nope")


def test_interning_idempotence_property():
    """Stored atom count equals the number of distinct interning keys."""
    rng = random.Random(99)
    _, kb = fresh_kb()
    keys = set()
    node_ids = []
    for _ in range(300):
        if node_ids and rng.random() < 0.4:
            out = tuple(rng.choice(node_ids) for _ in range(2))
            kb.intern_link("ListLink", list(out))
            keys.add(("ListLink", out))
        else:
            name = "n%d" % rng.randrange(40)
            node_ids.append(kb.intern_node("ConceptNode", name))
            keys.add(("ConceptNode", name))
    assert len(kb) == len(keys)


def test_referential_closure():
    rng = random.Random(5)
    _, kb = fresh_kb()
    ids = [kb.intern_node("ConceptNode", "n%d" % i) for i in range(10)]
    for _ in range(50):
        ids.append(kb.intern_link("ListLink",
                                  [rng.choice(ids), rng.choice(ids)]))
    for atom_id in range(len(kb)):
        for oid in kb.atom(atom_id).outgoing:
            assert kb.atom(oid) is not None
            assert oid < atom_id  # acyclic by construction
