"""Loss construction and gradient-descent training.

Learnable truth-value strengths are parametrized as the sigmoid of an
unconstrained logit, so they stay strictly inside (0, 1) no matter how large
the optimizer steps are.  ``fit`` is the one training loop: it traces the
loss once and replays that trace as compiled code, with range checks and
branches as guards, and traces it again only after a branch flips.
``train`` runs the proof search once, for all its targets
through the KB's subgoal table, and each step's loss replays the traces;
it drops the table when its commits will assert a new conclusion.  Targets
differing only in their last argument make one lifted query (``first_proofs``).
``predict`` reads, through the same traces, the strengths ``train`` fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .atomspace import AtomSpace, TruthValue
from .autodiff import Tape, VarRef, sigmoid, trace_loss
from .chainer import (MAX_SEARCH_DEPTH, ChainConfig, Derivation, Rule, commit,
                      first_proofs)


class TrainError(Exception):
    pass


class UnderivableTargetError(TrainError):
    def __init__(self, index: int):
        super().__init__("example %d: target is not derivable" % index)
        self.index = index


@dataclass
class LabeledExample:
    target: int    # ground conclusion atom to infer
    label: float   # its target strength in [0, 1]; 0 or 1 for a hard label

    def __post_init__(self):
        if not 0.0 <= self.label <= 1.0:  # also rejects nan
            raise TrainError("label must lie in [0, 1], got %r" % (self.label,))


def _check_schedule(learning_rate: float, steps: int) -> None:
    if not 0.0 < learning_rate < math.inf:  # also rejects nan
        raise TrainError("learning_rate must be positive and finite")
    if steps < 1:
        raise TrainError("steps must be >= 1")


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    steps: int = 2000
    chain_depth: int = 3

    def __post_init__(self):
        _check_schedule(self.learning_rate, self.steps)
        if not 1 <= self.chain_depth <= MAX_SEARCH_DEPTH:
            raise TrainError("chain_depth must lie in [1, %d]" % MAX_SEARCH_DEPTH)


class LearnableStrength:
    """A truth-value strength exposed as sigmoid(theta) of a trainable logit."""

    def __init__(self, tape: Tape, init: float = 0.5):
        if not 0.0 < init < 1.0:
            raise TrainError("initial strength must be strictly inside (0, 1)")
        self.tape = tape
        self.theta = tape.parameter(math.log(init / (1.0 - init)))
        self.kb: AtomSpace | None = None
        self.atom: int | None = None

    def attach(self, kb: AtomSpace, atom: int) -> None:
        """Asserts ``atom`` at the current strength (one ``refresh``)."""
        self.kb = kb
        self.atom = atom
        self.refresh()

    def refresh(self) -> VarRef:
        """Traces sigmoid(theta) on the tape and pushes it into the attached
        atom's truth value, at confidence 1."""
        s = self.tape.sigmoid(self.theta)
        if self.kb is not None and self.atom is not None:
            self.kb.set_tv(self.atom, TruthValue(s, 1.0))
        return s

    def value(self) -> float:
        """Current strength as a plain float (no tape record)."""
        return sigmoid(self.theta.value)


def cross_entropy(preds: list[VarRef], labels: list[float]) -> VarRef:
    """Mean cross-entropy -(1/n) sum_i [y_i log p_i + (1 - y_i) log(1 - p_i)]
    as a VarRef.

    Labels lie in [0, 1]; a label of 0 or 1 contributes its single log term.
    Examples that share a prediction record and a label make one term,
    scaled by their count, in first-seen order.
    """
    if len(preds) != len(labels):
        raise TrainError("preds and labels differ in length")
    if not preds:
        raise TrainError("cross_entropy needs at least one example")
    # (tape, record, label) -> [pred, count]; with the tape in the key, a
    # pred from another tape keeps its own term and the tape rejects it
    merged: dict = {}
    for p, y in zip(preds, labels):
        if not 0.0 <= y <= 1.0:
            raise TrainError("labels must lie in [0, 1], got %r" % (y,))
        merged.setdefault((p.tape, p.index, y), [p, 0])[1] += 1
    tape = preds[0].tape
    total = None
    for (_, _, y), (p, count) in merged.items():
        if 0.0 < y < 1.0:
            term = tape.add(tape.mul(tape.constant(y), tape.log(p)),
                            tape.mul(tape.constant(1.0 - y),
                                     tape.log(tape.one_minus(p))))
        elif y:  # 1
            term = tape.log(p)
        else:  # 0
            term = tape.log(tape.one_minus(p))
        if count != 1:
            term = tape.mul(tape.constant(float(count)), term)
        total = term if total is None else tape.add(total, term)
    return tape.mul(tape.constant(1.0 / len(preds)), tape.neg(total))


def sgd_step(params: list[VarRef], learning_rate: float) -> None:
    """Plain SGD: value -= lr * grad for every parameter."""
    for p in params:
        p.value = p.value - learning_rate * p.grad


def fit(params: list[VarRef], loss_fn: Callable[[], VarRef],
        learning_rate: float, steps: int) -> list[float]:
    """The training loop: gradient descent on ``loss_fn()`` over ``params``.

    Step 0 traces and compiles the loss (``trace_loss``) from the tape
    length on entry.  Every step runs the compiled replay, one list
    operation per lane of isomorphic records, which writes only the loss
    value and the grads of ``params``, calls ``sgd_step`` once and zeroes
    those grads.  The tape is rolled back to its length on entry before
    returning.  Returns the loss of every step.

    ``loss_fn`` may branch on a record with ``Tape.at_least``, never on a
    ``value`` computed from ``params``: when a branch flips, the replay
    misses and that step traces ``loss_fn`` again.  A range check
    (``Tape.check_unit``) that fails on step k raises on step k.  Raises
    TrainError unless the rate is positive and finite and steps >= 1.
    """
    if not params:
        raise TrainError("params must be nonempty")
    _check_schedule(learning_rate, steps)
    tape = params[0].tape
    mark = tape.mark()
    losses = []
    replay = None
    for _ in range(steps):
        if replay is None or not replay():
            tape.reset_to(mark)
            loss, replay = trace_loss(params, loss_fn)
            replay()
        sgd_step(params, learning_rate)
        losses.append(loss.value)
        for p in params:
            tape._grads[p.index] = 0.0
    tape.reset_to(mark)
    return losses


def empirical_frequency(dataset: list[LabeledExample]) -> float:
    """Fraction of positive labels; the analytic optimum of the CE loss."""
    if not dataset:
        raise TrainError("empty dataset")
    return sum(ex.label for ex in dataset) / len(dataset)


def _find_traces(kb: AtomSpace, rules: list[Rule],
                 dataset: list[LabeledExample], depth: int):
    """The trace ``train`` replays for each example: the target's first rule
    derivation, so the prediction depends on the premises, else its first KB
    lookup (``first_proofs``, which lifts the targets' queries); unvalued, as
    ``train`` replays them.  Raises TrainError at the first target that is
    not ground, before the search runs or writes to the KB."""
    for i, ex in enumerate(dataset):
        if not kb.atom(ex.target).is_ground:
            raise TrainError("example %d: target is not ground" % i)
    traces = first_proofs(kb, rules, [ex.target for ex in dataset],
                          ChainConfig(max_depth=depth))
    if None in traces:
        raise UnderivableTargetError(traces.index(None))
    return traces


def _replay(kb: AtomSpace, traces: list) -> list[VarRef]:
    """Each trace's strength from current KB strengths, with one memo."""
    memo: dict = {}
    return [trace.replay(kb, memo) for trace in traces]


def predict(kb: AtomSpace, rules: list[Rule], dataset: list[LabeledExample],
            depth: int) -> list[VarRef]:
    """The strength ``train`` replays for each example, from the trace
    ``_find_traces`` picks: its first derivation, else its KB lookup.  Reads
    no label and writes no truth value; raises TrainError at the first example
    whose target has a variable or neither (UnderivableTargetError)."""
    return _replay(kb, _find_traces(kb, rules, dataset, depth))


def train(kb: AtomSpace, rules: list[Rule], dataset: list[LabeledExample],
          params: list[VarRef], config: TrainConfig,
          learnables: list[LearnableStrength] = ()) -> list[float]:
    """Fits ``params`` to the dataset's labels through its inference traces
    and returns the loss of every step, as ``fit`` does.

    The proof search runs once up front and only builds traces; replaying
    them against the current truth values in each step's loss builds the
    formula graph as a fresh search would on a structurally unchanged KB.
    Each step refreshes the learnable strengths, asserted since ``attach``,
    and takes the mean cross-entropy over the examples against their
    labels, 0, 1 or soft.  Every target must be ground (``_find_traces``).
    """
    if not params:
        raise TrainError("params must be nonempty")
    if not dataset:
        raise TrainError("dataset must be nonempty")
    traces = _find_traces(kb, rules, dataset, config.chain_depth)
    if any(not kb.has_asserted_tv(t.conclusion) for t in traces):
        kb.subgoal_table = None  # the commits end it: free it for the fit
    labels = [ex.label for ex in dataset]

    def loss() -> VarRef:
        for ls in learnables:
            ls.refresh()
        return cross_entropy(_replay(kb, traces), labels)

    losses = fit(params, loss, config.learning_rate, config.steps)

    # leave the KB holding conclusion strengths for the final parameter values
    for ls in learnables:
        ls.refresh()
    for trace, strength in zip(traces, _replay(kb, traces)):
        if isinstance(trace, Derivation):
            commit(kb, trace, strength)
    return losses
