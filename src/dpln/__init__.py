"""Differentiable probabilistic-logic inference engine.

Rules chain over a hypergraph knowledge base; every rule formula is built
from scalar autodiff operations, so chained inference yields one computation
graph and gradient descent can learn premise truth values and rule-formula
weights from labeled conclusions.
"""

from .atomspace import (Atom, AtomSpace, AtomSpaceError, AtomType, TruthValue,
                        UnknownAtomError, UnknownTypeError)
from .autodiff import AutodiffError, Tape, VarRef
from .chainer import (ChainConfig, ChainError, Derivation, InferenceTrace,
                      Leaf, Rule, apply_rule, backward_chain, forward_chain)
from .pattern import Binding, MatchError, match, substitute, unify, variables_in
from .rules import (deduction_strength, fuzzy_and, fuzzy_not, fuzzy_or,
                    make_deduction_rule, make_modus_ponens_rule, make_rule_set,
                    modus_ponens_strength, trainable_mp_strength)
from .sexpr import SexprError, format_atom, load_kb, parse_atom
from .training import (LabeledExample, LearnableStrength, TrainConfig,
                       TrainError, UnderivableTargetError, cross_entropy,
                       empirical_frequency, fit, predict, sgd_step, train)

__version__ = "0.1.0"
