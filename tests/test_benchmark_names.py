"""The dpln names the benchmark under ``perfbench/`` reads or wraps.

The benchmark's own suite is not part of this one, so a deletion that
removed one of these names could break every benchmark run while these
tests stayed green.  This file imports nothing from ``perfbench/``.
"""

import importlib
import inspect

from dpln.atomspace import AtomSpace
from dpln.autodiff import Tape
from dpln.chainer import ChainConfig, Derivation, Leaf, backward_chain
from dpln.cli import ExperimentConfig

MODULE_FUNCTIONS = [
    ("chainer", "unify"), ("chainer", "backward_chain"),
    ("chainer", "forward_chain"), ("chainer", "apply_rule"),
    ("pattern", "unify"), ("pattern", "substitute"), ("pattern", "match"),
    ("training", "sgd_step"), ("training", "train"),
    ("training", "cross_entropy"),
    ("cli", "run_fruit_colors"), ("cli", "run_learn_formula"),
    ("cli", "write_report"), ("rules", "make_rule_set"),
    ("sexpr", "load_kb"), ("sexpr", "parse_atom"), ("sexpr", "format_atom"),
    ("chainer", "ChainConfig"),
    # the formulas the tracer counts: it skips a missing name silently, so a
    # rename would zero rules.formula_calls with nothing failing
    ("rules", "modus_ponens_strength"), ("rules", "deduction_strength"),
    ("rules", "fuzzy_and"), ("rules", "fuzzy_or"), ("rules", "fuzzy_not"),
    ("rules", "trainable_mp_strength"),
]

# the tracer wraps these through the class dict, and the workloads call
# AtomSpace.atom, so they must be defined on the class itself
CLASS_METHODS = [
    (AtomSpace, "has_asserted_tv"), (AtomSpace, "set_tv"),
    (AtomSpace, "intern_node"), (AtomSpace, "intern_link"),
    (AtomSpace, "atoms_of_type"), (AtomSpace, "atom"), (Tape, "reset_to"),
    (Tape, "backward"),
    (Derivation, "replay"), (Derivation, "leaves"),
]

# what the fruit-colors and learn-formula workloads pass ExperimentConfig
EXPERIMENT_FIELDS = {
    "experiment", "fruits", "colors", "true_probabilities", "n_samples",
    "lr", "steps", "seed", "out_dir", "grid_size", "heldout_size",
    "neg_conditional",
}


def test_module_functions_exist():
    missing = [
        "%s.%s" % (module, name) for module, name in MODULE_FUNCTIONS
        if not callable(getattr(importlib.import_module("dpln." + module),
                                name, None))]
    assert missing == []


def test_class_methods_exist():
    missing = ["%s.%s" % (cls.__name__, name) for cls, name in CLASS_METHODS
               if not callable(cls.__dict__.get(name))]
    assert missing == []


def test_experiment_config_fields_exist():
    params = inspect.signature(ExperimentConfig).parameters
    fields = {name for name, p in params.items() if p.kind is p.POSITIONAL_OR_KEYWORD}
    assert EXPERIMENT_FIELDS - fields == set()


def test_atom_and_trace_attributes_exist():
    """perfbench's checks read ``type.is_node``, ``type.name``, ``name`` and
    ``outgoing`` off atoms, and ``rule.name``, ``premises``, ``leaves()`` and a
    leaf's ``atom`` off the traces ``backward_chain`` returns."""
    from dpln.rules import make_rule_set
    from dpln.sexpr import load_kb, parse_atom
    kb = AtomSpace(Tape())
    ab, bc = load_kb(kb, """
    (InheritanceLink (stv 0.9 0.8) (ConceptNode "a") (ConceptNode "b"))
    (InheritanceLink (stv 0.8 0.9) (ConceptNode "b") (ConceptNode "c"))
    """)
    target = parse_atom(kb, '(InheritanceLink (ConceptNode "a") (ConceptNode "c"))')
    atom = kb.atom(target)
    node = kb.atom(atom.outgoing[0])
    assert (atom.type.name, atom.type.is_node) == ("InheritanceLink", False)
    assert (node.type.name, node.type.is_node, node.name) == ("ConceptNode", True, "a")
    (_, _, trace), = backward_chain(kb, make_rule_set(kb), target,
                                    ChainConfig(max_depth=1))
    assert isinstance(trace, Derivation) and trace.rule.name == "deduction"
    assert [(type(p), p.atom) for p in trace.premises] == [(Leaf, ab), (Leaf, bc)]
    assert [leaf.atom for leaf in trace.leaves()] == [ab, bc]


def test_fit_calls_sgd_step_once_per_step_through_the_module(monkeypatch):
    """perfbench times fruit-colors and learn-formula steps by wrapping
    ``training.sgd_step``, so ``fit`` must look it up on the module, once a
    step."""
    from dpln import training
    calls = []
    step = training.sgd_step

    def counting(params, learning_rate):
        calls.append(learning_rate)
        step(params, learning_rate)
    monkeypatch.setattr(training, "sgd_step", counting)
    tape = Tape()
    p = tape.parameter(0.5)
    training.fit([p], lambda: tape.mul(p, p), 0.25, 7)
    assert calls == [0.25] * 7


def test_match_wrapped_at_its_import_sites_sees_every_forward_binding():
    """perfbench reads ``pattern.bindings`` and ``chainer.firings_per_binding``
    from a wrapper it puts in every module attribute that holds
    ``pattern.match``, ``dpln.chainer.match`` among them.  So ``forward_chain``
    must get the bindings it fires through that name, never through an
    unchecked helper the wrapper cannot see."""
    import dpln
    from dpln import chainer, pattern
    from dpln.rules import make_rule_set
    from dpln.sexpr import load_kb
    original, sizes, fired = pattern.match, [], []

    def wrapped(*args, **kwargs):
        out = original(*args, **kwargs)
        sizes.append(len(out))
        return out
    modules = [dpln] + [importlib.import_module("dpln." + m) for m in (
        "autodiff", "atomspace", "sexpr", "pattern", "chainer", "rules",
        "training", "cli")]
    undo = [(mod, name) for mod in modules
            for name, value in list(vars(mod).items()) if value is original]
    assert (chainer, "match") in undo
    apply = chainer.apply_rule
    try:
        for mod, name in undo:
            setattr(mod, name, wrapped)
        chainer.apply_rule = lambda *args: fired.append(args) or apply(*args)
        kb = AtomSpace(Tape())
        load_kb(kb, """
        (ImplicationLink (stv 0.9 0.9) (PredicateNode "p") (PredicateNode "q"))
        (EvaluationLink (stv 0.8 0.9) (PredicateNode "p") (ConceptNode "x"))
        (InheritanceLink (stv 0.9 0.8) (ConceptNode "a") (ConceptNode "b"))
        (InheritanceLink (stv 0.8 0.9) (ConceptNode "b") (ConceptNode "c"))
        """)
        chainer.forward_chain(kb, make_rule_set(kb),
                              chainer.ChainConfig(max_steps=30, seed=1))
    finally:
        chainer.apply_rule = apply
        for mod, name in undo:
            setattr(mod, name, original)
    assert fired and sum(sizes) >= len(fired)
