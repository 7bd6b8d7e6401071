"""Loss construction and gradient-descent training.

Learnable truth-value strengths are parametrized as the sigmoid of an
unconstrained logit, so they stay strictly inside (0, 1) no matter how large
the optimizer steps are.  The computation graph is re-traced from the KB on
every step; only the proof search (which is purely structural) is cached
across steps.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field

from .atomspace import AtomSpace, TruthValue
from .autodiff import Tape, VarRef
from .chainer import ChainConfig, Derivation, Rule, backward_chain, commit

log = logging.getLogger(__name__)


class TrainError(Exception):
    pass


class UnderivableTargetError(TrainError):
    def __init__(self, index: int):
        super().__init__("example %d: target is not derivable" % index)
        self.index = index


@dataclass
class LabeledExample:
    target: int  # ground conclusion atom to infer
    label: int   # 0 or 1

    def __post_init__(self):
        if self.label not in (0, 1):
            raise TrainError("label must be 0 or 1, got %r" % (self.label,))


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    steps: int = 2000
    log_every: int = 0
    chain_depth: int = 3

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise TrainError("learning_rate must be positive")
        if self.steps < 1:
            raise TrainError("steps must be >= 1")


class LearnableStrength:
    """A truth-value strength exposed as sigmoid(theta) of a trainable logit."""

    def __init__(self, tape: Tape, init: float = 0.5, name: str | None = None):
        if not 0.0 < init < 1.0:
            raise TrainError("initial strength must be strictly inside (0, 1)")
        self.tape = tape
        self.theta = tape.parameter(math.log(init / (1.0 - init)), name=name)
        self.kb: AtomSpace | None = None
        self.atom: int | None = None
        self.confidence = 1.0
        self._cached: tuple[int, VarRef] | None = None

    def attach(self, kb: AtomSpace, atom: int, confidence: float = 1.0) -> None:
        self.kb = kb
        self.atom = atom
        self.confidence = confidence

    def refresh(self) -> VarRef:
        """Re-traces sigmoid(theta) on the current tape epoch and pushes it
        into the attached atom's truth value."""
        cached = self._cached
        if cached is not None and cached[0] == self.tape.epoch:
            return cached[1]
        s = self.tape.sigmoid(self.theta)
        self._cached = (self.tape.epoch, s)
        if self.kb is not None and self.atom is not None:
            self.kb.set_tv(self.atom, TruthValue(s, self.confidence))
        return s

    def value(self) -> float:
        """Current strength as a plain float (no tape record)."""
        t = self.theta.value
        return 1.0 / (1.0 + math.exp(-t)) if t >= 0 else \
            math.exp(t) / (1.0 + math.exp(t))


def cross_entropy(preds: list[VarRef], labels: list[float]) -> VarRef:
    """-sum_i [y_i log p_i + (1 - y_i) log(1 - p_i)] as a VarRef.

    Labels lie in [0, 1]; a label of 0 or 1 contributes its single log term.
    Identical (prediction, label) pairs are grouped and scaled by their count,
    which is exact and keeps the tape small when many examples share one
    prediction.
    """
    if len(preds) != len(labels):
        raise TrainError("preds and labels differ in length")
    if not preds:
        raise TrainError("cross_entropy needs at least one example")
    tape = preds[0].tape
    indices = [p.index for p in preds]
    counts = Counter(zip(indices, labels))
    for _, y in counts:
        if not 0.0 <= y <= 1.0:
            raise TrainError("labels must lie in [0, 1], got %r" % (y,))
    refs = dict(zip(indices, preds))
    total = None
    for (idx, y), count in counts.items():
        p = refs[idx]
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
    return tape.neg(total)


def sgd_step(params: list[VarRef], learning_rate: float) -> None:
    """Plain SGD: value -= lr * grad for every parameter."""
    for p in params:
        p.value = p.value - learning_rate * p.grad


def empirical_frequency(dataset: list[LabeledExample]) -> float:
    """Fraction of positive labels; the analytic optimum of the CE loss."""
    if not dataset:
        raise TrainError("empty dataset")
    return sum(ex.label for ex in dataset) / len(dataset)


@dataclass
class TrainReport:
    loss_curve: list[float] = field(default_factory=list)
    params: dict[str, float] = field(default_factory=dict)
    learned_strengths: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "loss_curve": list(self.loss_curve),
            "params": dict(self.params),
            "learned_strengths": dict(self.learned_strengths),
        }


def _find_traces(kb: AtomSpace, rules: list[Rule],
                 dataset: list[LabeledExample], depth: int):
    """One backward-chaining pass per example; prefers rule derivations over
    plain KB lookups so the prediction depends on the premises."""
    cfg = ChainConfig(max_depth=depth)
    traces = []
    for i, ex in enumerate(dataset):
        results = backward_chain(kb, rules, ex.target, cfg)
        chosen = None
        for _, _, trace in results:
            if isinstance(trace, Derivation):
                chosen = trace
                break
        if chosen is None and results:
            chosen = results[0][2]
        if chosen is None:
            raise UnderivableTargetError(i)
        traces.append(chosen)
    return traces


def train(kb: AtomSpace, rules: list[Rule], dataset: list[LabeledExample],
          params: list[VarRef], config: TrainConfig,
          learnables: list[LearnableStrength] = ()) -> TrainReport:
    """Gradient-descent loop over re-traced inference graphs.

    Per step: roll the tape back to the leaf checkpoint, refresh learnable
    strengths, replay every example's inference trace, build the (mean)
    cross-entropy loss, backpropagate, apply SGD and zero the grads.

    The proof search runs once up front; its traces are replayed against the
    current truth values each step, which rebuilds the formula graph exactly
    as a fresh search would on a structurally unchanged KB.
    """
    if not params:
        raise TrainError("params must be nonempty")
    if not dataset:
        raise TrainError("dataset must be nonempty")
    tape = kb.tape
    mark = tape.mark()
    traces = _find_traces(kb, rules, dataset, config.chain_depth)
    labels = [ex.label for ex in dataset]
    inv_n = 1.0 / len(dataset)

    report = TrainReport()
    # Examples whose traces land on the same tape record compute the same
    # prediction on every re-trace (replay is deterministic), so after the
    # first step only one representative trace per group is replayed.
    group_of: list[int] = []
    group_reps: list = []

    for step in range(config.steps):
        tape.reset_to(mark)
        for ls in learnables:
            ls.refresh()
        memo: dict = {}
        if step == 0:
            index_to_group: dict[int, int] = {}
            for trace in traces:
                pred = trace.replay(kb, memo)
                gi = index_to_group.get(pred.index)
                if gi is None:
                    gi = len(group_reps)
                    index_to_group[pred.index] = gi
                    group_reps.append(trace)
                group_of.append(gi)
            group_preds = [group_reps[gi].strength for gi in range(len(group_reps))]
        else:
            group_preds = [trace.replay(kb, memo) for trace in group_reps]
        preds = [group_preds[gi] for gi in group_of]
        loss = cross_entropy(preds, labels)
        # mean-normalized so the step size is independent of dataset size
        loss = tape.mul(tape.constant(inv_n), loss)
        tape.backward(loss)
        sgd_step(params, config.learning_rate)
        report.loss_curve.append(loss.value)
        tape.zero_grads()
        if config.log_every and (step + 1) % config.log_every == 0:
            log.info("step %d: loss %.6f", step + 1, loss.value)

    # leave the KB holding conclusion strengths for the final parameter values
    tape.reset_to(mark)
    for ls in learnables:
        ls.refresh()
    memo = {}
    for trace in traces:
        trace.replay(kb, memo)
        if isinstance(trace, Derivation):
            commit(kb, trace)

    for i, p in enumerate(params):
        name = tape.param_names.get(p.index, "param_%d" % i)
        report.params[name] = p.value
    for ls in learnables:
        if ls.kb is not None and ls.atom is not None:
            from .sexpr import format_atom
            report.learned_strengths[format_atom(ls.kb, ls.atom)] = ls.value()
    return report
