"""Loss construction and gradient-descent training.

Learnable truth-value strengths are parametrized as the sigmoid of an
unconstrained logit, so they stay strictly inside (0, 1) no matter how large
the optimizer steps are.  ``fit`` is the one training loop: it traces the
loss once and runs its steps as compiled code, with range checks and
branches as guards, and traces it again only after a branch flips.
``train`` runs the proof search once, for all its targets
through the KB's subgoal table, and each step's loss replays the traces;
it writes no conclusion, only its learnables' strengths.  Targets
differing only in their last argument make one lifted query (``first_proofs``).
``predict`` reads, through the same traces, the strengths ``train`` fits.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .atomspace import AtomSpace, TruthValue
from .autodiff import AutodiffError, Tape, VarRef, sigmoid, trace_loss
from .chainer import MAX_SEARCH_DEPTH, ChainConfig, Rule, first_proofs


class TrainError(Exception):
    pass


class UnderivableTargetError(TrainError):
    def __init__(self, index: int):
        super().__init__("example %d: target is not derivable" % index)
        self.index = index


class LabeledExample:
    def __init__(self, target: int, label: float):
        if not 0.0 <= label <= 1.0:  # also rejects nan
            raise TrainError("label must lie in [0, 1], got %r" % (label,))
        self.target = target  # ground conclusion atom to infer
        self.label = label    # its target strength in [0, 1], hard (0 or 1) or soft


def _check_schedule(learning_rate: float, steps: int) -> None:
    if not 0.0 < learning_rate < math.inf:  # also rejects nan
        raise TrainError("learning_rate must be positive and finite")
    if type(steps) is not int or steps < 1:  # a float would fail mid-fit
        raise TrainError("steps must be an int >= 1")


class TrainConfig:
    def __init__(self, learning_rate: float = 0.1, steps: int = 2000, chain_depth: int = 3):
        _check_schedule(learning_rate, steps)
        if type(chain_depth) is not int or not 1 <= chain_depth <= MAX_SEARCH_DEPTH:
            raise TrainError("chain_depth must lie in [1, %d] and be an int" % MAX_SEARCH_DEPTH)
        self.learning_rate, self.steps, self.chain_depth = learning_rate, steps, chain_depth


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

    Labels lie in [0, 1], hard or soft alike.  Examples merge by prediction
    record: each record makes one term a log p + b log(1 - p), with a the sum
    of its labels y and b of their 1 - y, added in example order; a zero
    weight adds a signed zero and its adjoint is skipped.  One ``Tape.sum``
    adds the terms in first-seen order, and one product scales it by -1/n.
    """
    if len(preds) != len(labels):
        raise TrainError("preds and labels differ in length")
    if not preds:
        raise TrainError("cross_entropy needs at least one example")
    # (tape, record) -> [pred, a, b]; with the tape in the key, a pred from
    # another tape keeps its own term and the tape rejects it
    merged: dict = {}
    for p, y in zip(preds, labels):
        if not 0.0 <= y <= 1.0:
            raise TrainError("labels must lie in [0, 1], got %r" % (y,))
        weights = merged.setdefault((p.tape, p.index), [p, 0.0, 0.0])
        weights[1] += y
        weights[2] += 1.0 - y
    tape = preds[0].tape
    terms = [tape.add(tape.mul(tape.constant(a), tape.log(p)),
                      tape.mul(tape.constant(b), tape.log(tape.one_minus(p))))
             for p, a, b in merged.values()]
    return tape.mul(tape.constant(-1.0 / len(preds)), tape.sum(terms))


def sgd_step(params: list[VarRef], learning_rate: float) -> None:
    """Plain SGD: value -= lr * grad for every parameter, written through
    the tape's lists.  Raises AutodiffError for a stale parameter or a record
    that is not one, such as a constant, which its cache shares."""
    for p in params:
        tape, i = p.tape, p.index
        if i not in tape._param_indices:
            p._check_live()
            raise AutodiffError("record %d is not a parameter" % i)
        tape._values[i] -= learning_rate * tape._grads[i]


def fit(params: list[VarRef], loss_fn: Callable[[], VarRef],
        learning_rate: float, steps: int) -> list[float]:
    """The training loop: gradient descent on ``loss_fn()`` over ``params``.

    Step 0 traces and compiles the loss (``trace_loss``) from the tape
    length on entry, and the replay's step loop, one generated function for
    a short loss, runs the steps: each writes only the loss value and the
    grads of ``params``, records the loss, calls ``sgd_step``, which this
    module's name holds, so a wrapper put there sees every step, and zeroes
    those grads by index.  The grads are zeroed on entry too.  The tape is
    rolled back to its length on entry before returning.  Returns the loss
    of every step, before its update.

    ``loss_fn`` may branch on a record with ``Tape.at_least``, never on a
    ``value`` computed from ``params``: when a branch flips, the loop stops
    at that step, having written no grad, and ``fit`` traces ``loss_fn``
    again and resumes there.  A range check
    (``Tape.check_unit``) that fails on step k raises on step k.  Raises
    TrainError, before tracing, unless ``params`` are distinct parameters,
    the rate is positive and finite and steps an int >= 1; AutodiffError for a
    stale parameter or one of another tape.
    """
    if not params:
        raise TrainError("params must be nonempty")
    _check_schedule(learning_rate, steps)
    tape = params[0].tape
    for p in params:
        tape._one(p)
    indices = [p.index for p in params]
    if len(set(indices)) < len(indices) or not tape._param_indices.issuperset(indices):
        raise TrainError("params must be distinct parameters")
    mark, losses, k = tape.mark(), [], 0
    for i in indices:  # a grad an earlier backward left
        tape._grads[i] = 0.0
    while k < steps:  # a flipped branch: trace again and resume at its step
        tape.reset_to(mark)
        k = trace_loss(params, loss_fn)[1](k, steps, sgd_step, learning_rate, losses)
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
    ``train`` replays them.  Checks each target's id and groundness once,
    here, before the search runs or writes to the KB: UnknownAtomError or
    TrainError at the first that fails."""
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
    Writes no truth value but its learnables', at their final strengths.
    """
    if not params:
        raise TrainError("params must be nonempty")
    if not dataset:
        raise TrainError("dataset must be nonempty")
    traces = _find_traces(kb, rules, dataset, config.chain_depth)
    labels = [ex.label for ex in dataset]

    def loss() -> VarRef:
        for ls in learnables:
            ls.refresh()
        return cross_entropy(_replay(kb, traces), labels)

    losses = fit(params, loss, config.learning_rate, config.steps)
    for ls in learnables:  # fit rolled the tape back: record the final strengths
        ls.refresh()
    return losses
