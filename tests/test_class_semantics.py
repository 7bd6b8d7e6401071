"""What callers rely on of dpln's record classes: equality, hashing, fresh
defaults and construction-time checks; and that ``import dpln.cli`` loads
none of the machinery that building them by decorator would need."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpln
from dpln import AtomSpaceError, TruthValue
from dpln.chainer import Constant, Derivation, Leaf, Rule
from dpln.cli import ConfigError, ExperimentConfig
from dpln.rules import make_deduction_rule
from dpln.training import LabeledExample, TrainConfig, TrainError

from conftest import fresh_kb


def test_leaf_and_constant_compare_and_hash_by_value():
    assert Leaf(3) == Leaf(3) and Leaf(3) != Leaf(4)
    assert hash(Leaf(3)) == hash(Leaf(3))
    assert Constant(0.5) == Constant(0.5) and Constant(0.5) != Constant(0.25)
    assert hash(Constant(0.5)) == hash(Constant(0.5))
    assert len({Leaf(1), Leaf(1), Constant(1.0), Constant(1.0)}) == 2
    assert Leaf(1) != Constant(1.0)


def test_derivation_compares_field_by_field_and_is_unhashable():
    _, kb = fresh_kb()
    rule = make_deduction_rule(kb)

    def derivation(conclusion):
        return Derivation(rule, {}, conclusion, [Leaf(1), Leaf(2)], [Constant(0.5)])

    assert derivation(7) == derivation(7)
    assert derivation(7) != derivation(8)
    assert derivation(7) != Derivation(rule, {}, 7, [Leaf(1)], [Constant(0.5)])
    with pytest.raises(TypeError):
        hash(derivation(7))


def test_rule_compares_and_hashes_by_identity():
    _, kb = fresh_kb()
    a, b = make_deduction_rule(kb), make_deduction_rule(kb)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2


def test_default_lists_are_fresh_per_instance():
    one, two = ExperimentConfig(), ExperimentConfig()
    assert one.fruits == ["apple", "banana"] and one.fruits is not two.fruits
    assert one.colors == ["yellow", "red", "green"] and one.colors is not two.colors
    assert one.true_probabilities == {} and one.true_probabilities is not two.true_probabilities
    one.fruits.append("cherry")
    assert ExperimentConfig().fruits == ["apple", "banana"]
    _, kb = fresh_kb()
    x = kb.node("VariableNode", "$X")
    p, q = kb.node("PredicateNode", "p"), kb.node("PredicateNode", "q")

    def rule():
        return Rule(kb, name="r", variables=[(x, None)],
                    premises=[kb.link("EvaluationLink", p, x)],
                    conclusion=kb.link("EvaluationLink", q, x),
                    formula=lambda inputs: inputs[0])

    a, b = rule(), rule()
    assert a.terms == [] and a.terms is not b.terms


def test_empty_fruit_list_is_kept():
    cfg = ExperimentConfig(fruits=[])
    assert cfg.fruits == []
    with pytest.raises(ConfigError, match="fruits must be nonempty"):
        cfg.validate_fruit()


def test_construction_time_errors():
    _, kb = fresh_kb()
    with pytest.raises(AtomSpaceError, match=r"strength 1.5 outside \[0, 1\]"):
        TruthValue(kb.tape.constant(1.5), 0.5)
    with pytest.raises(AtomSpaceError, match=r"confidence 2 outside \[0, 1\]"):
        TruthValue(kb.tape.constant(0.5), 2.0)
    with pytest.raises(TrainError, match=r"label must lie in \[0, 1\], got 1.5"):
        LabeledExample(0, 1.5)
    with pytest.raises(TrainError, match=r"label must lie in \[0, 1\], got nan"):
        LabeledExample(0, float("nan"))
    with pytest.raises(TrainError, match="learning_rate must be positive and finite"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(TrainError, match="steps must be an int >= 1"):
        TrainConfig(steps=2.0)
    with pytest.raises(TrainError, match=r"chain_depth must lie in \[1, 200\]"):
        TrainConfig(chain_depth=0)


def test_import_loads_no_dataclass_machinery():
    """The record classes are written out by hand, so ``import dpln.cli``
    (the cost of every command) loads neither ``dataclasses`` nor what it
    pulls in; ``tomllib`` and ``dpln.replay`` still wait for first use."""
    names = ["dataclasses", "inspect", "typing", "tomllib", "dpln.replay"]
    code = "import sys, dpln.cli; print([n for n in %r if n in sys.modules])" % names
    env = dict(os.environ, PYTHONPATH=str(Path(dpln.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "[]\n"
