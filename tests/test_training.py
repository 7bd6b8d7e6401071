import math
import random
import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpln import (AtomSpace, AtomSpaceError, AutodiffError, ChainConfig,
                  Derivation, LabeledExample,
                  LearnableStrength, Leaf, Tape, TrainConfig, TrainError,
                  TruthValue,
                  UnderivableTargetError, UnknownAtomError, backward_chain,
                  cross_entropy, empirical_frequency, fit, fuzzy_not,
                  load_kb, make_deduction_rule, make_modus_ponens_rule,
                  make_rule_set, parse_atom, predict, sgd_step, train,
                  trainable_mp_strength)
from dpln import chainer, cli, training
from dpln.autodiff import trace_loss
from dpln.chainer import MAX_SEARCH_DEPTH, prove
from dpln.rules import (DEDUCTION_EPS, FormulaError, deduction_strength,
                        modus_ponens_strength)

from conftest import finite_diff_grads, fresh_kb, generated_code
from cross_entropy_reference import cross_entropy as reference_cross_entropy


def test_cross_entropy_half():
    t = Tape()
    loss = cross_entropy([t.constant(0.5)], [1])
    assert loss.value == pytest.approx(math.log(2), abs=1e-9)


def test_cross_entropy_perfect_prediction():
    t = Tape()
    loss = cross_entropy([t.constant(1.0 - 1e-9)], [1])
    assert loss.value == pytest.approx(0.0, abs=1e-6)


def test_cross_entropy_hand_sum():
    t = Tape()
    p = t.constant(0.75)
    loss = cross_entropy([p, p, p, p], [1, 1, 1, 0])
    expected = (3 * -math.log(0.75) - math.log(0.25)) / 4
    assert loss.value == pytest.approx(expected, abs=1e-9)
    assert loss.value == pytest.approx(2.2493 / 4, abs=5e-5)


def test_cross_entropy_grouping_matches_ungrouped():
    """Predictions that share records (merged into count-scaled terms),
    the same predictions as one record per example, and a naive
    per-example mean agree, in value and in gradient."""
    rng = random.Random(8)
    picks = [(rng.randrange(2), rng.randrange(2)) for _ in range(40)]
    labels = [y for _, y in picks]
    t = Tape()
    shared = [t.parameter(0.2), t.parameter(0.7)]
    merged = cross_entropy([shared[k] for k, _ in picks], labels)
    u = Tape()
    leaves = [u.parameter(0.2), u.parameter(0.7)]
    # one_minus(one_minus(x)) is a fresh record per example with x's value
    apart = cross_entropy([u.one_minus(u.one_minus(leaves[k])) for k, _ in picks],
                          labels)
    naive = sum(-math.log(shared[k].value) if y else -math.log(1 - shared[k].value)
                for k, y in picks) / len(picks)
    assert merged.value == pytest.approx(apart.value, abs=1e-12)
    assert apart.value == pytest.approx(naive, abs=1e-12)
    t.backward(merged)
    u.backward(apart)
    for a, b in zip(shared, leaves):
        assert a.grad == pytest.approx(b.grad, abs=1e-12)


def test_cross_entropy_merges_repeated_predictions():
    """500 examples on one prediction record with both labels make one term
    for the record: the tape grows exactly as for 4 such examples, and the
    loss is the per-example mean."""
    grown = []
    for n in (4, 500):
        t = Tape()
        p = t.parameter(0.3)
        labels = [i % 2 for i in range(n)]
        before = len(t)
        loss = cross_entropy([p] * n, labels)
        grown.append(len(t) - before)
        naive = sum(-math.log(0.3) if y else -math.log(0.7) for y in labels) / n
        assert loss.value == pytest.approx(naive, abs=1e-12)
    assert grown[1] == grown[0]


def test_cross_entropy_fractional_labels():
    """A label y in (0, 1) gives -(y log p + (1 - y) log(1 - p)); 0 and 1 give
    the same value as their single log term."""
    t = Tape()
    p = t.constant(0.6)
    loss = cross_entropy([p, p], [0.25, 1.0])
    expected = (-(0.25 * math.log(0.6) + 0.75 * math.log(0.4))
                - math.log(0.6)) / 2
    assert loss.value == pytest.approx(expected, abs=1e-12)
    assert cross_entropy([p], [1.0]).value == cross_entropy([p], [1]).value


_SATURATED = (-800.0, -40.0, 40.0, 800.0)  # p = 0.0, 4e-18, 1.0 and 1.0


def _cross_entropy_runs(loss_fn, logits, examples, moved):
    """The loss and the grads of the logits, as ``Tape.backward`` gives them
    and as ``trace_loss``'s replay gives them after the logits move to
    ``moved``.  Each prediction is the sigmoid of its example's logit."""
    t = Tape()
    params = [t.parameter(x) for x in logits]

    def loss():
        preds = [t.sigmoid(p) for p in params]
        return loss_fn([preds[j] for j, _ in examples], [y for _, y in examples])
    eager = loss()
    t.backward(eager)
    runs = [[eager.value] + [p.grad for p in params]]
    t.reset_to(len(params))
    t.zero_grads()
    replayed, replay = trace_loss(params, loss)
    for p, x in zip(params, moved):
        p.value = x
    assert replay()
    return runs + [[replayed.value] + [p.grad for p in params]]


def _cross_entropy_case(rng, labels_of):
    """Random logits, saturated ones among them, for 1 to 5 records, each
    with the examples ``labels_of(rng)`` gives it, shuffled."""
    n = rng.randint(1, 5)
    logit = lambda: rng.choice(_SATURATED) if rng.random() < 0.3 else rng.uniform(-6, 6)
    examples = [(j, y) for j in range(n) for y in labels_of(rng)]
    rng.shuffle(examples)
    return [logit() for _ in range(n)], examples, [logit() for _ in range(n)]


def test_cross_entropy_matches_the_per_label_reference_bit_for_bit():
    """One term per record gives the value and grads of the former loss, one
    term per (record, label) pair, bit for bit, eagerly and replayed, when
    each record carries one label value: a hard label at any count or one
    fractional label, with p at 0.0 and 1.0 among them.  A record that
    carries both labels sums its terms in another order: within 1e-12."""
    rng = random.Random(39)
    same = (lambda r: [float(r.randrange(2))] * r.randint(1, 4),
            lambda r: [r.random()],
            lambda r: [float(r.randrange(2))] * r.randint(1, 4)
            if r.random() < 0.5 else [r.random()])
    for _ in range(60):
        for labels_of in same:
            case = _cross_entropy_case(rng, labels_of)
            ours, ref = (_cross_entropy_runs(f, *case)
                         for f in (cross_entropy, reference_cross_entropy))
            assert [[x.hex() for x in run] for run in ours] == \
                [[x.hex() for x in run] for run in ref], case
        case = _cross_entropy_case(rng, lambda r: [float(r.randrange(2)) for _ in
                                                  range(r.randint(2, 4))])
        ours, ref = (_cross_entropy_runs(f, *case)
                     for f in (cross_entropy, reference_cross_entropy))
        for a, b in zip(ours, ref):
            assert a == pytest.approx(b, rel=0, abs=1e-12), case


def test_cross_entropy_errors():
    t = Tape()
    with pytest.raises(TrainError):
        cross_entropy([t.constant(0.5)], [1, 0])
    with pytest.raises(TrainError):
        cross_entropy([], [])
    with pytest.raises(TrainError):
        cross_entropy([t.constant(0.5)], [2])
    with pytest.raises(TrainError):
        cross_entropy([t.constant(0.5)], [float("nan")])
    with pytest.raises(TrainError):
        cross_entropy([t.constant(0.5)] * 2, [1])
    # a record of another tape with an index already seen is not merged
    other = Tape()
    with pytest.raises(AutodiffError, match="different tape"):
        cross_entropy([t.constant(0.5), other.constant(0.5)], [1, 1])


def test_sgd_step_update():
    t = Tape()
    p = t.parameter(1.0)
    loss = t.mul(p, p)  # grad 2.0 at p=1
    t.backward(loss)
    sgd_step([p], 0.1)
    assert p.value == pytest.approx(0.8)


def test_sgd_step_zero_grad_unchanged():
    t = Tape()
    p = t.parameter(1.0)
    sgd_step([p], 0.1)
    assert p.value == 1.0


def test_sgd_accumulation_hazard():
    t = Tape()
    p = t.parameter(1.0)
    loss = t.mul(p, p)
    t.backward(loss)
    t.backward(loss)  # no zero_grads in between: grads double
    sgd_step([p], 0.1)
    assert p.value == pytest.approx(1.0 - 0.1 * 4.0)


def test_sgd_step_rejects_a_constant_and_leaves_its_cache():
    """A constant is cached per value and shared by every reader: sgd_step
    raises for it, naming the record, and the cached 0.5 stays 0.5.  A
    stale parameter still raises its own error."""
    t = Tape()
    c, p = t.constant(0.5), t.parameter(1.0)
    t.backward(t.mul(c, p))
    with pytest.raises(AutodiffError, match="record %d is not a parameter" % c.index):
        sgd_step([c], 0.1)
    assert t.constant(0.5).value == 0.5 and p.value == 1.0
    mark = t.mark()
    q = t.parameter(2.0)
    t.reset_to(mark)
    with pytest.raises(AutodiffError, match="stale"):
        sgd_step([q], 0.1)


def test_empirical_frequency():
    mk = lambda labels: [LabeledExample(0, y) for y in labels]
    assert empirical_frequency(mk([1] * 75 + [0] * 25)) == pytest.approx(0.75)
    assert empirical_frequency(mk([0, 0, 0])) == 0.0
    assert empirical_frequency(mk([1, 0, 1])) == pytest.approx(2 / 3)
    with pytest.raises(TrainError):
        empirical_frequency([])


def test_labeled_example_validation():
    for label in (0.5, 0.0):
        assert LabeledExample(0, label).label == label
    for label in (2, -0.1, 1.5, float("nan")):
        with pytest.raises(TrainError):
            LabeledExample(0, label)


def test_train_config_validation():
    for lr in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(TrainError, match="learning_rate"):
            TrainConfig(learning_rate=lr)
    with pytest.raises(TrainError):
        TrainConfig(steps=0)


def test_train_config_rejects_chain_depth_out_of_range():
    """A chain depth the search would reject fails when the config is made,
    before train writes any learnable into the KB."""
    for depth in (0, -1, MAX_SEARCH_DEPTH + 1, 2.5, True):
        with pytest.raises(TrainError, match="chain_depth must lie in"):
            TrainConfig(chain_depth=depth)
    for depth in (1, MAX_SEARCH_DEPTH):
        assert TrainConfig(chain_depth=depth).chain_depth == depth


def test_learnable_strength_init_and_value():
    t = Tape()
    ls = LearnableStrength(t, init=0.25)
    assert ls.value() == pytest.approx(0.25)
    with pytest.raises(TrainError):
        LearnableStrength(t, init=0.0)
    with pytest.raises(TrainError):
        LearnableStrength(t, init=1.0)


def test_learnable_strength_refresh_updates_tv():
    t, kb = fresh_kb()
    atom = kb.node("ConceptNode", "a")
    ls = LearnableStrength(t, init=0.5)
    ls.attach(kb, atom)
    s = ls.refresh()
    assert kb.get_tv(atom).strength is s
    assert kb.get_tv(atom).confidence == 1.0
    mark = t.mark()
    ls.theta.value = 2.0
    t.reset_to(mark)
    s2 = ls.refresh()
    assert s2.value == pytest.approx(1 / (1 + math.exp(-2.0)))
    assert kb.get_tv(atom).strength is s2


def test_fit_minimizes_and_rolls_back():
    """fit traces the loss from the tape length on entry and leaves the tape
    at that length."""
    t = Tape()
    p = t.parameter(3.0)
    mark = t.mark()
    losses = fit([p], lambda: t.mul(t.sub(p, t.constant(1.0)),
                                    t.sub(p, t.constant(1.0))), 0.25, 20)
    assert len(losses) == 20
    assert losses[0] == pytest.approx(4.0)
    assert all(b < a for a, b in zip(losses, losses[1:]))
    assert p.value == pytest.approx(1.0, abs=1e-5)
    assert len(t) == mark
    with pytest.raises(TrainError, match="steps"):
        fit([p], lambda: p, 0.25, 0)
    with pytest.raises(TrainError):
        fit([], lambda: p, 0.1, 1)



@pytest.mark.parametrize("learning_rate, steps", [
    (math.nan, 2), (math.inf, 2), (0.0, 2), (-0.1, 2), (0.1, -3), (0.1, 2.5),
    (0.1, True)])
def test_fit_rejects_a_bad_rate_or_step_count(learning_rate, steps):
    """The rate and step count TrainConfig rejects, fit rejects too, before
    it traces or steps: the parameter keeps its value."""
    t = Tape()
    p = t.parameter(0.3)
    with pytest.raises(TrainError):
        TrainConfig(learning_rate=learning_rate, steps=steps)
    with pytest.raises(TrainError):
        fit([p], lambda: t.mul(p, p), learning_rate, steps)
    assert p.value == 0.3
    assert len(t) == 1


def test_fit_rejects_a_constant_or_a_repeated_parameter():
    """A constant is no parameter: fit raises before it traces, so the
    cached constant keeps its value.  A parameter listed twice would step
    twice a step; fit raises and it does not move."""
    t = Tape()
    c, r = t.constant(2.0), t.parameter(1.0)
    calls = []
    for params in ([c], [r, r], [r, c]):
        with pytest.raises(TrainError, match="distinct parameters"):
            fit(params, lambda: calls.append(1) or t.mul(c, r), 0.1, 2)
    assert calls == []
    assert t.constant(2.0).value == 2.0 and r.value == 1.0


def test_fit_reports_each_loss_before_its_update():
    """A loss that is the parameter itself reads the value before the step
    moves it: 0.5, then 0.5 - 0.1, then that minus 0.1."""
    t = Tape()
    q = t.parameter(0.5)
    assert fit([q], lambda: q, 0.1, 3) == [0.5, 0.5 - 0.1, 0.5 - 0.1 - 0.1]


def test_fit_zeroes_a_grad_left_by_an_earlier_backward():
    """A grad of 5.0 that Tape.backward left does not leak into step 0:
    u * u from u = 1 at rate 0.1 steps to 0.8, then 0.64."""
    t = Tape()
    u = t.parameter(1.0)
    t.backward(t.mul(t.constant(5.0), u))
    assert u.grad == 5.0
    fit([u], lambda: t.mul(u, u), 0.1, 2)
    assert u.value == (1.0 - 0.1 * 2.0) - 0.1 * (2.0 * (1.0 - 0.1 * 2.0))
    assert u.grad == 0.0


def test_fruit_colors_loss_compiles_to_one_function_of_locals(monkeypatch, tmp_path):
    """Each of fruit-colors' six fits compiles its loss to one function, in
    which every value and term is a local or a literal: no line reads or
    writes the scratch list w."""
    compiled = generated_code(monkeypatch).calls
    cli.run_fruit_colors(cli.ExperimentConfig(
        experiment="fruit-colors", true_probabilities={
            "apple": {"yellow": 0.1, "red": 0.2, "green": 0.7},
            "banana": {"yellow": 0.8, "red": 0.1, "green": 0.1}},
        n_samples=50, steps=2, seed=1, out_dir=str(tmp_path)))
    assert len(compiled) == 6
    for blocks, run in compiled:
        assert len(run) == 1
        assert blocks and not any("w[" in block for block in blocks), blocks


def test_fruit_colors_walks_one_lane_per_target(monkeypatch, tmp_path):
    """Counts only, no timing.  Each of fruit-colors' six fits walks one
    lane of the search per target: its lifted query walks no instance of
    the other fruit, whose Impl(fruit, color) the banana fits also hold."""
    walked = []
    lanes = chainer._Search.lanes

    def counting(*args):
        for lane in lanes(*args):
            walked.append(lane)
            yield lane
    monkeypatch.setattr(chainer._Search, "lanes", counting)
    cfg = cli.ExperimentConfig(
        experiment="fruit-colors", true_probabilities={
            "apple": {"yellow": 0.1, "red": 0.2, "green": 0.7},
            "banana": {"yellow": 0.8, "red": 0.1, "green": 0.1}},
        n_samples=50, steps=2, seed=1, out_dir=str(tmp_path))
    cli.run_fruit_colors(cfg)
    assert len(walked) == len(cfg.fruits) * len(cfg.colors) * cfg.n_samples


def _retrace_fit(params, loss_fn, learning_rate, steps):
    """fit's loop with a fresh trace of the loss every step: the reference
    that fit's compiled replay must match bit for bit."""
    tape = params[0].tape
    mark = tape.mark()
    losses = []
    for _ in range(steps):
        tape.reset_to(mark)
        loss = loss_fn()
        tape.backward(loss)
        training.sgd_step(params, learning_rate)
        losses.append(loss.value)
        tape.zero_grads()
    tape.reset_to(mark)
    return losses


def _fit_both(build, values, learning_rate, steps):
    """Runs fit and _retrace_fit on ``build(tape, params)`` from fresh tapes.
    Returns each one's losses, final parameter values and loss_fn calls."""
    runs = []
    for train_loop in (fit, _retrace_fit):
        t = Tape()
        params = [t.parameter(v) for v in values]
        calls = []

        def loss():
            calls.append(1)
            return build(t, params)
        losses = train_loop(params, loss, learning_rate, steps)
        runs.append((losses, [p.value for p in params], len(calls)))
    return runs


def test_fit_replay_matches_retrace_on_learn_formula():
    """A learn-formula fit traces its loss once and replays it; losses and
    weights are bit-identical to re-tracing every step."""
    grid = [i / 4 for i in range(5)]
    points = [(x, y) for x in grid for y in grid]
    targets = [y * x + 0.2 * (1.0 - x) for x, y in points]

    def build(t, params):
        return cross_entropy([trainable_mp_strength(t.constant(x),
                                                    t.constant(y), params)
                              for x, y in points], targets)

    compiled, retraced = _fit_both(build, [0.1, -0.2, 0.3, 0.0], 2.0, 40)
    assert compiled[2] == 1 and retraced[2] == 40
    assert compiled[:2] == retraced[:2]


def test_fit_replay_matches_retrace_across_clamps():
    """div, sub, clamp01 and a log whose input crosses the log's clamp at 1
    replay bit-identically."""
    def build(t, params):
        p, q = params
        x = t.div(t.sub(p, t.constant(0.2)), q)
        y = t.clamp01(t.sub(x, t.constant(0.5)))
        return t.add(t.neg(t.log(x)), t.mul(t.constant(0.5), t.mul(y, y)))

    compiled, retraced = _fit_both(build, [0.6, 0.8], 0.5, 60)
    assert compiled[2] == 1
    assert compiled[:2] == retraced[:2]
    t = Tape()
    params = [t.parameter(0.6), t.parameter(0.8)]
    xs = []

    def observed():  # reads values, so only a re-trace may run it
        p, q = params
        xs.append((p.value - 0.2) / q.value)
        return build(t, params)
    _retrace_fit(params, observed, 0.5, 60)
    assert min(xs) < 1.0 < max(xs)


def test_fit_retraces_a_loss_that_branches_on_a_parameter():
    """A loss that branches on a parameter with at_least is replayed until
    the branch flips; fit then traces it again, once per flip, and matches
    re-tracing every step."""
    outcomes = []

    def build(t, params):
        p, = params
        positive = t.at_least(p, 0.0)
        outcomes.append(positive)
        d = t.sub(p, t.constant(-1.0 if positive else 1.0))
        return t.mul(d, d)

    compiled, retraced = _fit_both(build, [0.9], 0.05, 12)
    assert compiled[:2] == retraced[:2]
    steps = outcomes[compiled[2]:]  # the re-trace's branch on every step
    flips = sum(a != b for a, b in zip(steps, steps[1:]))
    assert set(steps) == {True, False}  # both branches ran
    assert compiled[2] == 1 + flips < retraced[2] == 12


@pytest.mark.parametrize("start, slope", [(1.0 - 3e-6, -1.0),
                                          (1.0 - 5e-7, 1.0)],
                         ids=["rising", "falling"])
def test_fit_follows_deduction_across_its_saturation_test(monkeypatch, start,
                                                          slope):
    """A raw parameter as deduction's middle term, driven across the
    saturation test s_b >= 1 - DEDUCTION_EPS by a linear term: fit replays
    until the test flips, traces the loss again, and matches _retrace_fit
    bit for bit on every step.  Its closure runs once plus once per flip."""
    def build(t, params):
        c = t.constant
        return t.add(deduction_strength(c(0.8), c(0.7), params[0], c(0.6)),
                     t.mul(c(slope), params[0]))

    trajectory = []
    sgd = training.sgd_step

    def recording(params, learning_rate):
        sgd(params, learning_rate)
        trajectory.append(params[0].value)
    monkeypatch.setattr(training, "sgd_step", recording)
    compiled, retraced = _fit_both(build, [start], 2.5e-7, 10)
    assert trajectory[:10] == trajectory[10:]
    assert compiled[:2] == retraced[:2]
    saturated = [s_b >= 1.0 - DEDUCTION_EPS for s_b in [start] + trajectory[:9]]
    flips = sum(a != b for a, b in zip(saturated, saturated[1:]))
    assert saturated[0] is (slope > 0) and flips >= 1
    assert compiled[2] == 1 + flips


def test_fit_rejects_a_loss_that_reads_a_parameter_dependent_value():
    """A loss closure that reads the value of a record computed from a
    parameter could branch on it unseen: fit raises, naming at_least."""
    t = Tape()
    p = t.parameter(0.3)

    def loss():
        s = t.sigmoid(p)
        return t.mul(s, t.constant(s.value))
    with pytest.raises(AutodiffError, match="Tape.at_least"):
        fit([p], loss, 0.1, 5)
    assert p.value == 0.3


def test_fit_replay_raises_division_by_zero_at_its_step():
    """p falls by exactly 1 per step, so 1/(p - 1) divides by zero on step 2;
    its zero weight keeps it out of the gradient."""
    for train_loop in (fit, _retrace_fit):
        t = Tape()
        p = t.parameter(3.0)

        def loss():
            inv = t.div(t.constant(1.0), t.sub(p, t.constant(1.0)))
            return t.add(p, t.mul(t.constant(0.0), inv))
        with pytest.raises(AutodiffError):
            train_loop([p], loss, 1.0, 5)
        assert p.value == 1.0


def _fail_both(build, values, learning_rate, steps):
    """Runs fit and _retrace_fit as _fit_both does, each expected to raise.
    Returns each one's error class and message, final parameter values and
    loss_fn calls."""
    runs = []
    for train_loop in (fit, _retrace_fit):
        t = Tape()
        params = [t.parameter(v) for v in values]
        calls = []

        def loss():
            calls.append(1)
            return build(t, params)
        with pytest.raises(Exception) as err:
            train_loop(params, loss, learning_rate, steps)
        runs.append((err.type, str(err.value), [p.value for p in params],
                     len(calls)))
    return runs


def test_fit_replay_raises_a_failing_range_check_at_its_step(monkeypatch):
    """x = p/2 rises by 1/8 per step and leaves [0, 1] on step 5.  The
    compiled replay re-tests the range check of fuzzy_not (FormulaError) or
    of a TruthValue (AtomSpaceError) and raises what a re-trace raises, on
    the same step, with the same parameter values.  Both losses have the
    constant grad -1/2, which the replay adds as a literal."""
    sources = generated_code(monkeypatch)

    def negated(t, params):
        return fuzzy_not(t.mul(t.constant(0.5), params[0]))

    def asserted(t, params):
        x = t.mul(t.constant(0.5), params[0])
        return t.one_minus(TruthValue(x, 1.0).strength)

    for build, error, label in ((negated, FormulaError, "fuzzy_not input"),
                                (asserted, AtomSpaceError, "strength")):
        compiled, retraced = _fail_both(build, [1.0], 0.5, 20)
        assert compiled[2] == retraced[2] == [2.25]
        assert compiled[:2] == retraced[:2] == (
            error, "%s 1.125 outside [0, 1]" % label)
        assert compiled[3] == 1 and retraced[3] == 6
    assert sources.count("g[0] += -0.5") == 2, sources


def test_fit_replay_raises_the_first_failure_in_trace_order():
    """p rises by 1/4 per step; on step 5 both the range check of p - 1/2
    and the division by p - 7/4 fail, and fit raises whichever of the two
    its loss traced first, as a re-trace does."""
    def build(t, params, guard_first):
        p, = params
        guarded = lambda: fuzzy_not(t.sub(p, t.constant(0.5)))
        divided = lambda: t.div(t.constant(1.0), t.sub(p, t.constant(1.75)))
        loss = t.neg(p)
        for term in (guarded, divided) if guard_first else (divided, guarded):
            loss = t.add(loss, t.mul(t.constant(0.0), term()))
        return loss

    for guard_first, error in ((True, FormulaError), (False, AutodiffError)):
        compiled, retraced = _fail_both(
            lambda t, params: build(t, params, guard_first), [0.5], 0.25, 20)
        assert compiled[0] is retraced[0] is error
        assert compiled[1:3] == retraced[1:3]
        assert compiled[2] == [1.75]
        assert compiled[3] == 1 and retraced[3] == 6


def _replay_fit(params, loss_fn, learning_rate, steps):
    """fit's steps as a Python loop over trace_loss's replay(): a miss
    traces the loss again, then each step records the loss, calls
    training.sgd_step and zeroes the grads.  The reference that fit's
    generated step loop must match bit for bit."""
    tape = params[0].tape
    mark, losses, replay = tape.mark(), [], None
    tape.zero_grads()
    for _ in range(steps):
        if replay is None or not replay():
            tape.reset_to(mark)
            loss, replay = trace_loss(params, loss_fn)
            assert replay()
        losses.append(loss.value)
        training.sgd_step(params, learning_rate)
        tape.zero_grads()
    tape.reset_to(mark)
    return losses


def _loop_both(monkeypatch, build, values, learning_rate, steps):
    """Runs fit and _replay_fit on ``build(tape, params)`` from fresh tapes.
    Returns for each one its losses in hex, or the class and message of what
    it raised, its final parameter values in hex and grads, and its calls of
    the loss closure and of ``training.sgd_step``."""
    runs, sgd = [], training.sgd_step
    for train_loop in (fit, _replay_fit):
        t = Tape()
        params = [t.parameter(v) for v in values]
        calls, stepped = [], []
        monkeypatch.setattr(training, "sgd_step", lambda ps, lr: stepped.append(
            sgd(ps, lr)))

        def loss():
            calls.append(1)
            return build(t, params)
        try:
            out = [x.hex() for x in train_loop(params, loss, learning_rate, steps)]
        except Exception as error:
            out = (type(error), str(error))
        runs.append((out, [p.value.hex() for p in params], [p.grad for p in params],
                     len(calls), len(stepped)))
    return runs


def _branching(t, params):
    """(p + 1)^2 while p >= 0, else (p - 1)^2: from 0.9 at rate 0.05, p
    falls below 0 on step 7 and then crosses 0 on every step."""
    p, = params
    d = t.sub(p, t.constant(-1.0 if t.at_least(p, 0.0) else 1.0))
    return t.mul(d, d)


def test_fit_loop_resumes_at_the_step_its_branch_flipped(monkeypatch):
    """The generated loop stops at the step where the branch flips, having
    written no grad; fit traces the loss again and resumes there.  Losses,
    parameters and grads match the Python loop bit for bit, and each calls
    training.sgd_step exactly once a step."""
    looped, reference = _loop_both(monkeypatch, _branching, [0.9], 0.05, 12)
    assert looped == reference and looped[4] == 12
    assert looped[2] == [0.0] and 1 < looped[3] < 12


def test_fit_loop_raises_a_range_check_after_as_many_updates(monkeypatch):
    """x = p / 2 rises by 1/8 a step and leaves [0, 1] on step 5: the loop
    raises fuzzy_not's error there, after exactly 5 updates, as the Python
    loop does."""
    looped, reference = _loop_both(monkeypatch, lambda t, params: fuzzy_not(
        t.mul(t.constant(0.5), params[0])), [1.0], 0.5, 20)
    assert looped == reference
    assert looped[0] == (FormulaError, "fuzzy_not input 1.125 outside [0, 1]")
    assert looped[1] == [(2.25).hex()] and looped[4] == 5


def test_fit_loop_calls_the_chunks_of_a_long_loss(monkeypatch):
    """A loss of more than _CHUNK blocks compiles to chunk functions that
    the loop calls in turn; its branch guard lies in the second chunk, whose
    flip the loop returns.  The results match the Python loop bit for bit."""
    from dpln import replay as compiled
    sources = generated_code(monkeypatch)

    def build(t, params):
        x = t.sigmoid(params[0])
        for k in range(40):
            x = t.mul(x, t.constant(1.0 + k / 640))
        return t.add(_branching(t, params), t.mul(t.constant(1e-3), x))
    looped, reference = _loop_both(monkeypatch, build, [0.9], 0.05, 12)
    assert looped == reference and looped[4] == 12 and 1 < looped[3] < 12
    blocks, functions = sources.calls[0]
    assert len(blocks) > compiled._CHUNK and len(functions) == 3
    assert [b for b, block in enumerate(blocks) if "guards[" in block][0] >= compiled._CHUNK


def test_fit_loop_of_one_step(monkeypatch):
    """One step: the loop replays once, records the loss, steps once and
    zeroes the grad, as the Python loop does."""
    looped, reference = _loop_both(monkeypatch, lambda t, params: t.mul(
        t.sigmoid(params[0]), params[1]), [0.3, -0.7], 0.5, 1)
    assert looped == reference and looped[3:] == (1, 1)
    assert looped[2] == [0.0, 0.0]


def test_each_fit_compiles_its_step_loop_once(monkeypatch, tmp_path):
    """Counts only, no timing.  Each fit compiles one source, its step loop
    with the replay inside: one a fit for fruit-colors' six fits and for
    learn-formula's one, so set-up compiles no second function.  The loop
    gets the step function as an argument and names no sgd_step itself."""
    sources = generated_code(monkeypatch)
    cli.run_fruit_colors(cli.ExperimentConfig(
        experiment="fruit-colors", true_probabilities={
            "apple": {"yellow": 0.1, "red": 0.2, "green": 0.7},
            "banana": {"yellow": 0.8, "red": 0.1, "green": 0.1}},
        n_samples=50, steps=2, seed=1, out_dir=str(tmp_path)))
    assert sources.fits == [1] * 6 and len(sources.compiles) == 6
    cli.run_learn_formula(cli.ExperimentConfig(
        experiment="learn-formula", lr=2.0, steps=2, grid_size=11,
        heldout_size=2, out_dir=str(tmp_path / "learn-formula")))
    assert sources.fits == [1] * 7 and len(sources.compiles) == 7
    assert all("for k in range(k, n):" in source and "sgd_step" not in source
               for source in sources.compiles)
    for _, (loop,) in sources.calls:
        assert training.sgd_step not in loop.__globals__.values()


# -- constant adjoints: terms that no parameter changes, computed once ---------

def test_a_zero_constant_factor_folds_the_adjoints_behind_it(monkeypatch):
    """0 * sigmoid(2p): every adjoint behind the zero factor is 0, so the
    replay computes no sigmoid partial, and fit matches a re-trace bit for
    bit."""
    sources = generated_code(monkeypatch)

    def build(t, params):
        p, = params
        squashed = t.sigmoid(t.mul(p, t.constant(2.0)))
        return t.add(t.mul(p, p), t.mul(t.constant(0.0), squashed))
    compiled, retraced = _fit_both(build, [0.7], 0.3, 20)
    assert compiled[2] == 1 and compiled[:2] == retraced[:2]
    assert any("exp(" in block for block in sources), sources
    assert not any("(1.0 - " in block for block in sources), sources


def test_a_constant_adjoint_reaches_a_parameter_directly(monkeypatch):
    """c * p for three constants, one lane, and 0.25 * q: p's grad is a
    constant, added as one literal, and q's adds its constant term to the
    term of q * q; fit matches a re-trace bit for bit."""
    sources = generated_code(monkeypatch)

    def build(t, params):
        p, q = params
        return t.sum([t.mul(t.constant(c), p) for c in (0.5, -2.0, 3.0)]
                     + [t.mul(t.constant(0.25), q), t.mul(q, q)])
    compiled, retraced = _fit_both(build, [0.7, -0.4], 0.3, 20)
    assert compiled[2] == 1 and compiled[:2] == retraced[:2]
    assert "g[0] += 1.5" in sources, sources
    assert any("0.25" in block and "g[1]" in block for block in sources), sources


def test_a_constant_adjoint_that_is_not_finite_stays_a_slot(monkeypatch):
    """1e300 * (1e10 * (sigmoid(p) * 1e-300)) has a finite value, but the
    adjoint of the inner product, 1e300 * 1e10, is inf, which no literal
    writes: the replay reads it from w, and fit matches a re-trace bit for
    bit, the inf grad and the nan that follows included."""
    sources = generated_code(monkeypatch)

    def build(t, params):
        tiny = t.mul(t.sigmoid(params[0]), t.constant(1e-300))
        return t.mul(t.constant(1e300), t.mul(t.constant(1e10), tiny))
    compiled, retraced = _fit_both(build, [0.3], 0.1, 3)
    assert compiled[2] == 1
    assert [[x.hex() for x in xs] for xs in compiled[:2]] == [
        [x.hex() for x in xs] for xs in retraced[:2]]
    assert math.isnan(compiled[0][-1])
    assert any(block.split(" = ")[-1].startswith("w[") and "(1.0 - " in block
               for block in sources), sources


def test_a_folded_loss_retraces_when_its_branch_flips(monkeypatch):
    """3 * s or -s for s = sigmoid(p), chosen by s >= 0.5: the constant
    adjoint of s needs no zero test, each flip makes the replay miss and fit
    trace again, and the results equal a re-trace's."""
    sources = generated_code(monkeypatch)
    outcomes = []

    def build(t, params):
        s = t.sigmoid(params[0])
        outcomes.append(t.at_least(s, 0.5))
        return t.mul(t.constant(3.0 if outcomes[-1] else -1.0), s)
    compiled, retraced = _fit_both(build, [0.3], 0.5, 12)
    assert compiled[:2] == retraced[:2]
    steps = outcomes[compiled[2]:]
    flips = sum(a != b for a, b in zip(steps, steps[1:]))
    assert set(steps) == {True, False}
    assert compiled[2] == 1 + flips < retraced[2] == 12
    assert any(block.startswith("s") and " = 3.0 * (" in block
               and " if " not in block for block in sources), sources


def test_a_repeated_range_check_is_one_test_that_raises_the_first(monkeypatch):
    """A TruthValue and then fuzzy_not check the same x = p / 2: the replay
    tests x once, and when x leaves [0, 1] fit raises the first check's
    class and label, on the step and with the values of a re-trace."""
    sources = generated_code(monkeypatch)

    def build(t, params):
        x = TruthValue(t.mul(t.constant(0.5), params[0]), 1.0).strength
        return t.neg(fuzzy_not(x))
    compiled, retraced = _fail_both(build, [1.0], 0.5, 20)
    assert compiled[:3] == retraced[:3] == (
        AtomSpaceError, "strength -0.125 outside [0, 1]", [-0.25])
    assert sum(block.count("raise unit_error") for block in sources) == 1


def _counting(train_loop, calls):
    """``train_loop`` with every call of its loss closure counted."""
    def loop(params, loss_fn, learning_rate, steps):
        def counted():
            calls.append(1)
            return loss_fn()
        return train_loop(params, counted, learning_rate, steps)
    return loop


def _train_both(monkeypatch, setup, steps):
    """Runs ``train`` on ``setup()`` with fit and with _retrace_fit.  Returns
    each one's loss curve, learned strength, final strength of every target
    in the KB, and loss closure calls."""
    runs = []
    for train_loop in (fit, _retrace_fit):
        tape, kb, rule, learnable, dataset = setup()
        calls = []
        monkeypatch.setattr(training, "fit", _counting(train_loop, calls))
        losses = train(kb, [rule], dataset, [learnable.theta],
                       TrainConfig(learning_rate=0.5, steps=steps),
                       learnables=[learnable])
        runs.append((losses, learnable.value(),
                     [kb.get_tv(ex.target).strength.value for ex in dataset],
                     len(calls)))
    return runs


def test_train_compiles_a_fruit_colors_fit(monkeypatch):
    """fruit-colors' shape: a sigmoid strength whose range checks are replay
    guards, so train's loss is traced once and replayed, bit-identical to
    re-tracing it every step."""
    compiled, retraced = _train_both(
        monkeypatch, lambda: _fruit_setup(0.7, 20, seed=4), 50)
    assert compiled[3] == 1 and retraced[3] == 50
    assert compiled[0] == retraced[0]
    assert compiled[1:3] == retraced[1:3]


def test_run_joint_compiles(monkeypatch, tmp_path):
    """joint's range checks on sigmoid strengths are replay guards: its loss
    is traced once, and the result equals re-tracing it every step."""
    results, counts = [], []
    for train_loop in (fit, _retrace_fit):
        calls = []
        monkeypatch.setattr(training, "fit", _counting(train_loop, calls))
        results.append(cli.run_joint(cli.ExperimentConfig(
            experiment="joint", lr=2.0, steps=30, seed=7,
            out_dir=str(tmp_path / str(len(results))))))
        counts.append(len(calls))
    assert counts == [1, 30]
    assert results[0] == results[1]


def _learn_formula_blocks(monkeypatch, tmp_path):
    """The code blocks of learn-formula's compiled loss on the 11x11 grid."""
    sources = generated_code(monkeypatch)
    cli.run_learn_formula(cli.ExperimentConfig(
        experiment="learn-formula", lr=2.0, steps=2, grid_size=11,
        heldout_size=2, out_dir=str(tmp_path)))
    return sources


def test_learn_formula_loss_compiles_to_lanes(monkeypatch, tmp_path):
    """learn-formula's 11x11 loss, 1,802 records, compiles to at most 400
    generated lines (56): its 121 isomorphic grid points share lanes, a
    chain of lanes is one comprehension and its sum is one sum record; code
    per record took 7,346 lines."""
    sources = _learn_formula_blocks(monkeypatch, tmp_path)
    statements = sum(block.count("\n") + 1 for block in sources)
    assert 0 < statements <= 400


def test_learn_formula_chains_fuse_into_one_comprehension(monkeypatch, tmp_path):
    """The chain from the four weights to the sigmoid is one comprehension,
    and the four weights' grads are added in one loop over the sigmoid's
    adjoint column, an accumulator each, with no list of their terms.  The
    constant adjoints between the loss and the logs are computed at compile
    time, so no adjoint list repeats one value, and there are fewer blocks
    than the 32 that computed them on every step."""
    sources = _learn_formula_blocks(monkeypatch, tmp_path)
    assert any("exp(" in block and "\n" not in block
               and all("(v[%d],)" % p in block for p in range(4)) for block in sources)
    grads = [block for block in sources if "g[" in block]
    assert len(grads) == 1 and grads[0].count("for ") == 1, grads
    assert sorted(p for _, p in re.findall(
        r"if (a\d): g\[(\d)\] \+= \1", grads[0])) == ["0", "1", "2", "3"], grads
    assert "for t in reversed(w[" not in grads[0], grads
    assert not any(re.search(r"\[\w+\] \* \d", block) for block in sources), sources
    assert len(sources) < 32


def test_learn_formula_loss_reads_whole_lanes(monkeypatch, tmp_path):
    """Each grid point's cross-entropy term has one shape whatever its label,
    so the 121 points' records form whole lanes: no block slices a column
    (``w[k][i:j]``) or pads one (``[0.0]``), and the loss is 18 blocks.  A
    term shape per label split the lanes into 120 and 119 members."""
    sources = _learn_formula_blocks(monkeypatch, tmp_path)
    assert not any(re.search(r"w\[\d+\]\[\d*:\d*\]", block) or "[0.0]" in block
                   for block in sources), sources
    assert len(sources) <= 18, sources


def test_learn_formula_adjoint_columns_fuse_into_the_sigmoid_loop(monkeypatch, tmp_path):
    """Counts only, no timing.  The term columns of the two logs and of the
    one_minus are each read by one lane alone, so they are computed in the
    loop of the sigmoid's adjoint: no block only negates a list, and the
    loss is at most 15 blocks, where a list per column took 18.  joint's
    loss has the same two chains, and fewer blocks than the 54 they took."""
    sources = _learn_formula_blocks(monkeypatch, tmp_path)
    assert len(sources.calls) == 1 and len(sources) <= 15, sources
    assert not any("[-d for d in w[" in block for block in sources), sources
    cli.run_joint(cli.ExperimentConfig(experiment="joint", lr=2.0, steps=2,
                                       out_dir=str(tmp_path / "joint")))
    (joint, _), = sources.calls[1:]
    assert len(joint) < 54, joint
    assert not any("[-d for d in w[" in block for block in joint), joint


def test_learn_formula_sigmoid_terms_fuse_into_the_grad_loop(monkeypatch, tmp_path):
    """Counts only, no timing.  The sigmoid's term column reaches the four
    weights' grads through add lanes, which pass it on unchanged, so the one
    grad loop that reads it computes it: no list is written that only a
    grad loop reads, and the loss is at most 14 blocks, where that list took
    15."""
    sources = _learn_formula_blocks(monkeypatch, tmp_path)
    assert len(sources) <= 14, sources
    for made in set(re.findall(r"^(w\[\d+\]) = \[", "\n".join(sources), re.M)):
        readers = [b for b in sources if b.count(made) > b.count(made + " = [")]
        assert any("g[" not in b for b in readers), (made, readers)


def _deep_chain(tape, edge, n=6):
    """ConceptNodes c0...cn at (stv 0.5 0.9), each Inh(ci, ci+1) asserted
    by ``edge(kb, i, atom)``, the deduction rule, and the targets Inh(ci,
    cj), j >= i + 2, derived through 2 to n edges: 15 at n = 6."""
    kb = AtomSpace(tape)
    nodes = [kb.node("ConceptNode", "c%d" % i) for i in range(n + 1)]
    for node in nodes:
        kb.set_tv(node, TruthValue(tape.constant(0.5), 0.9))
    for i in range(n):
        edge(kb, i, kb.link("InheritanceLink", nodes[i], nodes[i + 1]))
    targets = [kb.link("InheritanceLink", nodes[i], nodes[j])
               for i in range(n + 1) for j in range(i + 2, n + 1)]
    return kb, [make_deduction_rule(kb)], targets


def _deep_chain_predictions(tape, strengths):
    """The targets' predicted strengths, one edge per strength given."""
    kb, rules, targets = _deep_chain(tape, lambda kb, i, atom: kb.set_tv(
        atom, TruthValue(strengths[i], 1.0)), len(strengths))
    return predict(kb, rules, [LabeledExample(t, 0.5) for t in targets], len(strengths))


def _fit_deep_chain(n, init):
    """A chain of n learnable edges at ``init``, its targets labelled with
    exact deduction over true edges drawn from [0.6, 0.95] (seed 0), fit by
    one train call at chain_depth n, lr 0.5, 2,000 steps: the losses, the
    fitted and the true edge strengths."""
    rng = random.Random(0)
    true = [rng.uniform(0.6, 0.95) for _ in range(n)]
    tape = Tape()
    labels = [p.value for p in _deep_chain_predictions(
        tape, [tape.constant(s) for s in true])]
    tape = Tape()
    edges = [LearnableStrength(tape, init) for _ in range(n)]
    kb, rules, targets = _deep_chain(tape, lambda kb, i, atom: edges[i].attach(kb, atom), n)
    losses = train(kb, rules, [LabeledExample(t, y) for t, y in zip(targets, labels)],
                   [e.theta for e in edges],
                   TrainConfig(learning_rate=0.5, steps=2000, chain_depth=n), edges)
    return losses, [e.value() for e in edges], true


@pytest.mark.parametrize("n", [4, 6])
def test_premise_strengths_are_learned_through_a_deduction_chain(n):
    """The paper's claim past one application: training through deduction
    chains of up to n steps recovers every learnable edge of the chain to
    within 0.03 of its true strength (0.0106 at n = 4, 0.0146 at n = 6)."""
    losses, fitted, true = _fit_deep_chain(n, 0.7)
    assert losses[-1] < losses[0]
    assert max(abs(f - s) for f, s in zip(fitted, true)) <= 0.03


def test_a_deduction_chain_at_one_half_is_a_saddle():
    """With every edge and node at 0.5, each target predicts 0.5, and both
    partials of deduction vanish (s_bc - cond = 0 and s_ab - (1 - s_ab) s_b
    / (1 - s_b) = 0): no edge moves from 0.5, and every loss is ln 2."""
    losses, fitted, _ = _fit_deep_chain(6, 0.5)
    assert fitted == [0.5] * 6
    assert max(abs(loss - math.log(2)) for loss in losses) <= 1e-12


def test_train_recovers_the_edges_of_a_six_step_chain(monkeypatch):
    """Training through deep chains: 15 targets labelled at the true edge
    strengths fit 6 learnable edges, from 0.7, to within 0.02 of them in
    one train call at chain_depth 6.  The step-0 loss gradient of each edge
    logit is the finite difference's, and each target's first_proofs trace
    is the first Derivation prove gives for it."""
    rng = random.Random(0)
    true = [rng.uniform(0.6, 0.95) for _ in range(6)]
    tape = Tape()
    labels = [p.value for p in _deep_chain_predictions(
        tape, [tape.constant(s) for s in true])]

    tape = Tape()
    edges = [LearnableStrength(tape, 0.7) for _ in range(6)]
    kb, rules, targets = _deep_chain(tape, lambda kb, i, atom: edges[i].attach(kb, atom))
    config = ChainConfig(max_depth=6)
    assert chainer.first_proofs(kb, rules, targets, config) == [
        next(t for _, t in proofs if type(t) is Derivation)
        for proofs in prove(kb, rules, targets, config)]
    grads, step = [], training.sgd_step

    def first_grads(params, learning_rate):
        if not grads:
            grads.append([p.grad for p in params])
        step(params, learning_rate)
    monkeypatch.setattr(training, "sgd_step", first_grads)
    losses = train(kb, rules, [LabeledExample(t, y) for t, y in zip(targets, labels)],
                   [e.theta for e in edges],
                   TrainConfig(learning_rate=0.5, steps=2000, chain_depth=6), edges)
    assert losses[-1] < losses[0]
    assert max(abs(e.value() - s) for e, s in zip(edges, true)) <= 0.02
    numeric = finite_diff_grads(lambda t, logits: cross_entropy(
        _deep_chain_predictions(t, [t.sigmoid(x) for x in logits]), labels),
        [math.log(0.7 / 0.3)] * 6)
    for analytic, n in zip(grads[0], numeric):
        assert abs(analytic - n) <= 1e-5 + 1e-4 * abs(analytic)


def test_a_six_step_chain_loss_compiles_to_at_most_286_blocks(monkeypatch):
    """One step on the 15 targets of six learnable edges compiles the loss
    once, to at most 286 blocks of replay code."""
    sources = generated_code(monkeypatch)
    tape = Tape()
    edges = [LearnableStrength(tape, 0.7) for _ in range(6)]
    kb, rules, targets = _deep_chain(tape, lambda kb, i, atom: edges[i].attach(kb, atom))
    train(kb, rules, [LabeledExample(t, 0.5) for t in targets], [e.theta for e in edges],
          TrainConfig(learning_rate=0.5, steps=1, chain_depth=6), edges)
    assert len(sources.calls) == 1
    assert len(sources) <= 286


def test_train_retraces_deduction_on_a_learnable_middle_term(monkeypatch):
    """Deduction branches on its middle term's strength (the saturation
    test) with at_least, a replay guard: with that strength learnable, the
    loss is traced once, and the results equal _retrace_fit's."""
    def setup():
        tape, kb = fresh_kb()
        a, b, c = (kb.node("ConceptNode", n) for n in "abc")
        for atom, s in ((kb.link("InheritanceLink", a, b), 0.8),
                        (kb.link("InheritanceLink", b, c), 0.7), (c, 0.6)):
            kb.set_tv(atom, TruthValue(tape.constant(s), 0.9))
        learnable = LearnableStrength(tape, init=0.5)
        learnable.attach(kb, b)
        dataset = [LabeledExample(kb.link("InheritanceLink", a, c), 1)]
        return tape, kb, make_deduction_rule(kb), learnable, dataset

    compiled, retraced = _train_both(monkeypatch, setup, 20)
    assert compiled[3] == 1 and retraced[3] == 20
    assert compiled[0] == retraced[0]
    assert compiled[1:3] == retraced[1:3]
    assert compiled[0][-1] < compiled[0][0]


def test_learnable_strength_stays_in_unit_interval():
    """sigmoid parametrization keeps the strength in (0,1) under large,
    adversarial gradient steps."""
    t = Tape()
    ls = LearnableStrength(t, init=0.5)
    rng = random.Random(9)
    mark = t.mark()
    for step in range(2000):
        t.reset_to(mark)
        s = ls.refresh()
        # alternate pushing toward each boundary
        loss = t.log(s) if step % 2 else t.log(t.one_minus(s))
        t.backward(loss)
        sgd_step([ls.theta], 1.0 + rng.random())
        t.zero_grads()
        assert 0.0 < ls.value() < 1.0


def _fruit_setup(p_green, n, seed):
    """Single fruit / single color instance KB plus labeled dataset."""
    tape, kb = fresh_kb()
    rng = random.Random(seed)
    fruit = kb.node("PredicateNode", "apple")
    color = kb.node("PredicateNode", "green")
    impl = kb.link("ImplicationLink", fruit, color)
    learnable = LearnableStrength(tape, init=0.5)
    learnable.attach(kb, impl)
    learnable.refresh()
    dataset = []
    for i in range(n):
        inst = kb.node("ConceptNode", "apple-%03d" % (i + 1))
        ev = kb.link("EvaluationLink", fruit, inst)
        kb.set_tv(ev, TruthValue(tape.constant(1.0), 1.0))
        target = kb.link("EvaluationLink", color, inst)
        dataset.append(LabeledExample(target, 1 if rng.random() < p_green else 0))
    rule = make_modus_ponens_rule(kb)
    return tape, kb, rule, learnable, dataset


def test_train_converges_to_empirical_frequency():
    tape, kb, rule, learnable, dataset = _fruit_setup(0.7, 200, seed=7)
    cfg = TrainConfig(learning_rate=0.1, steps=1500)
    losses = train(kb, [rule], dataset, [learnable.theta], cfg,
                   learnables=[learnable])
    target = empirical_frequency(dataset)
    assert abs(learnable.value() - target) <= 0.01
    assert len(losses) == 1500 and losses[-1] < losses[0]


def test_train_all_positive_saturates():
    tape, kb, rule, learnable, dataset = _fruit_setup(1.1, 60, seed=1)
    assert all(ex.label == 1 for ex in dataset)
    cfg = TrainConfig(learning_rate=0.5, steps=1500)
    train(kb, [rule], dataset, [learnable.theta], cfg, learnables=[learnable])
    assert learnable.value() >= 0.99


def test_train_loss_windowed_monotone():
    tape, kb, rule, learnable, dataset = _fruit_setup(0.6, 100, seed=3)
    cfg = TrainConfig(learning_rate=0.1, steps=400)
    curve = train(kb, [rule], dataset, [learnable.theta], cfg,
                  learnables=[learnable])
    assert len(curve) == 400
    window = [sum(curve[i:i + 10]) / 10 for i in range(0, len(curve) - 10)]
    for earlier, later in zip(window, window[1:]):
        assert later <= earlier + 1e-9


def test_train_final_kb_state_matches_report():
    tape, kb, rule, learnable, dataset = _fruit_setup(0.5, 80, seed=5)
    cfg = TrainConfig(learning_rate=0.1, steps=300)
    train(kb, [rule], dataset, [learnable.theta], cfg, learnables=[learnable])
    impl = kb.find_link("ImplicationLink",
                        [kb.node("PredicateNode", "apple"),
                         kb.node("PredicateNode", "green")])
    assert kb.get_tv(impl).strength.value == pytest.approx(learnable.value())
    # a conclusion stays an output: predict reads it at the final strength
    pred = dataset[0].target
    assert pred not in kb.tvs
    (s,) = predict(kb, [rule], dataset[:1], cfg.chain_depth)
    assert s.value == pytest.approx(learnable.value() * 1.0 + 0.2 * 0.0)


def test_train_two_groups_mixed_labels_loss_is_example_mean():
    """Instances with P(A) = 0.4 and P(A) = 1.0 give two prediction groups,
    each with both labels; the first loss is the mean over examples."""
    tape, kb = fresh_kb()
    fruit = kb.node("PredicateNode", "apple")
    color = kb.node("PredicateNode", "green")
    impl = kb.link("ImplicationLink", fruit, color)
    learnable = LearnableStrength(tape, init=0.5)
    learnable.attach(kb, impl)
    learnable.refresh()
    dataset, expected = [], 0.0
    for i, (p_a, label) in enumerate([(0.4, 1), (1.0, 0), (0.4, 0), (1.0, 1),
                                      (0.4, 0), (1.0, 1), (1.0, 1)]):
        inst = kb.node("ConceptNode", "apple-%03d" % (i + 1))
        kb.set_tv(kb.link("EvaluationLink", fruit, inst),
                  TruthValue(tape.constant(p_a), 1.0))
        dataset.append(LabeledExample(kb.link("EvaluationLink", color, inst),
                                      label))
        p = 0.5 * p_a + 0.2 * (1.0 - p_a)
        expected -= math.log(p) if label else math.log(1.0 - p)
    expected /= len(dataset)
    losses = train(kb, [make_modus_ponens_rule(kb)], dataset,
                   [learnable.theta], TrainConfig(learning_rate=0.1, steps=3),
                   learnables=[learnable])
    assert abs(losses[0] - expected) <= 1e-12
    assert losses[1] < losses[0]


def test_train_deduction_reads_default_term_strengths():
    """Deduction's term strengths of ConceptNodes without a truth value are
    read during the proof search; they must still read the default 1.0 after
    the tape is rolled back, so deduction falls back to s_c = 1."""
    tape, kb = fresh_kb()
    a, b, c = (kb.node("ConceptNode", n) for n in "abc")
    ab = kb.link("InheritanceLink", a, b)
    kb.set_tv(kb.link("InheritanceLink", b, c),
              TruthValue(tape.constant(0.8), 0.9))
    learnable = LearnableStrength(tape, init=0.9)
    learnable.attach(kb, ab)
    learnable.refresh()
    target = kb.link("InheritanceLink", a, c)
    train(kb, [make_deduction_rule(kb)], [LabeledExample(target, 1)],
          [learnable.theta], TrainConfig(learning_rate=0.1, steps=50),
          learnables=[learnable])
    assert kb.get_tv(target).strength.value == 1.0


def test_train_learns_term_strength():
    """A learnable on a rule term (modus ponens' Impl(Not(A), B)) that is
    attached but not yet refreshed still trains: attach asserts it, so the
    proof search resolves the term to it."""
    tape, kb = fresh_kb()
    a, b = kb.node("PredicateNode", "a"), kb.node("PredicateNode", "b")
    x = kb.node("ConceptNode", "x")
    kb.set_tv(kb.link("ImplicationLink", a, b), TruthValue(tape.constant(0.6), 1.0))
    kb.set_tv(kb.link("EvaluationLink", a, x), TruthValue(tape.constant(0.5), 1.0))
    learnable = LearnableStrength(tape, init=0.5)
    learnable.attach(kb, kb.link("ImplicationLink", kb.link("NotLink", a), b))
    train(kb, [make_modus_ponens_rule(kb)],
          [LabeledExample(kb.link("EvaluationLink", b, x), 1)],
          [learnable.theta], TrainConfig(learning_rate=0.5, steps=50),
          learnables=[learnable])
    assert learnable.value() == pytest.approx(0.92863, abs=1e-5)


def test_attach_makes_a_learnable_a_fact_the_search_reads():
    """attach alone asserts the learnable: predict derives a target through
    a learnable premise, and reads a learnable term, not its default."""
    tape, kb = fresh_kb()
    a, b = kb.node("PredicateNode", "A"), kb.node("PredicateNode", "B")
    x = kb.node("ConceptNode", "x")
    kb.set_tv(kb.link("EvaluationLink", a, x), TruthValue(tape.constant(0.5), 1.0))
    rules = [make_modus_ponens_rule(kb)]
    examples = [LabeledExample(kb.link("EvaluationLink", b, x), 1)]
    ab = kb.link("ImplicationLink", a, b)
    LearnableStrength(tape, init=0.7).attach(kb, ab)
    (s,) = predict(kb, rules, examples, 1)
    assert s.value == pytest.approx(0.7 * 0.5 + 0.2 * 0.5)  # 0.45
    kb.set_tv(ab, TruthValue(tape.constant(0.9), 1.0))
    LearnableStrength(tape, init=0.6).attach(
        kb, kb.link("ImplicationLink", kb.link("NotLink", a), b))
    (s,) = predict(kb, rules, examples, 1)
    assert s.value == pytest.approx(0.9 * 0.5 + 0.6 * 0.5)  # 0.75


def test_train_underivable_target_reports_index():
    """train and predict both name the first example with no trace."""
    tape, kb, rule, learnable, dataset = _fruit_setup(0.5, 5, seed=2)
    orphan = kb.link("EvaluationLink",
                     kb.node("PredicateNode", "ripe"),
                     kb.node("ConceptNode", "nowhere"))
    dataset.insert(3, LabeledExample(orphan, 1))
    dataset.insert(5, LabeledExample(orphan, 0))
    with pytest.raises(UnderivableTargetError) as err:
        predict(kb, [rule], dataset, 3)
    assert err.value.index == 3
    cfg = TrainConfig(learning_rate=0.1, steps=10)
    with pytest.raises(UnderivableTargetError) as err:
        train(kb, [rule], dataset, [learnable.theta], cfg,
              learnables=[learnable])
    assert err.value.index == 3


def test_predict_reads_the_strengths_train_replays():
    """predict gives each example the strength of the trace train replays:
    the first derivation's, also for a target that is asserted too, else
    the lookup's for a target that is only a fact; after train, the same
    traces at the fitted strength.  It writes no truth value: the asserted
    set and every TV stay as they were."""
    tape, kb, rule, learnable, dataset = _fruit_setup(0.5, 6, seed=8)
    kb.set_tv(dataset[2].target, TruthValue(tape.constant(0.9), 0.8))
    inst = kb.atoms[dataset[3].target].outgoing[1]
    fact = kb.link("EvaluationLink", kb.node("PredicateNode", "apple"), inst)
    dataset.insert(4, LabeledExample(fact, 1))  # at 1.0, not derivable
    tvs = dict(kb.tvs)

    strengths = [s.value for s in predict(kb, [rule], dataset, 3)]
    assert kb.tvs.keys() == tvs.keys()
    assert all(kb.tvs[a] is tv for a, tv in tvs.items())
    derived = 0.5 * 1.0 + 0.2 * 0.0  # modus ponens at s = 0.5, P(A) = 1
    assert strengths == pytest.approx([derived] * 4 + [1.0] + [derived] * 2)

    train(kb, [rule], dataset, [learnable.theta], TrainConfig(steps=20),
          learnables=[learnable])
    assert kb.tvs.keys() == tvs.keys()
    after = [s.value for s in predict(kb, [rule], dataset, 3)]
    derived = learnable.value() * 1.0 + 0.2 * 0.0
    assert after == pytest.approx([derived] * 4 + [1.0] + [derived] * 2)
    assert after != strengths


def test_train_requires_params_and_data():
    tape, kb, rule, learnable, dataset = _fruit_setup(0.5, 5, seed=2)
    cfg = TrainConfig(steps=1)
    with pytest.raises(TrainError):
        train(kb, [rule], dataset, [], cfg)
    with pytest.raises(TrainError):
        train(kb, [rule], [], [learnable.theta], cfg)


def test_train_rejects_non_ground_target(monkeypatch):
    """A target with a variable is rejected by train and predict alike,
    naming its example, before the search runs and before anything is
    written to the KB."""
    tape, kb, rule, learnable, dataset = _fruit_setup(0.5, 4, seed=3)
    green = kb.node("PredicateNode", "green")
    dataset.insert(2, LabeledExample(
        kb.link("EvaluationLink", green, kb.node("VariableNode", "$V")), 1))
    monkeypatch.setattr(training, "first_proofs", None)  # any search call fails
    tvs = {a: kb.get_tv(a) for a in range(len(kb)) if kb.has_asserted_tv(a)}
    for call in (lambda: train(kb, [rule], dataset, [learnable.theta],
                               TrainConfig(steps=3), learnables=[learnable]),
                 lambda: predict(kb, [rule], dataset, 1)):
        with pytest.raises(TrainError, match="example 2: target is not ground"):
            call()
    assert {a: kb.get_tv(a) for a in range(len(kb))
            if kb.has_asserted_tv(a)} == tvs


def test_train_keeps_the_kbs_subgoal_table(monkeypatch):
    """A train call asserts no conclusion, so the subgoal table its search
    builds outlives the call: three train calls fit, and a later predict
    searches, through one table."""
    tape, kb, rule, learnable, dataset = _fruit_setup(0.5, 6, seed=5)
    tables = []
    fit = training.fit

    def recording(*args):
        tables.append(kb.subgoal_table)
        return fit(*args)
    monkeypatch.setattr(training, "fit", recording)
    for _ in range(3):
        train(kb, [rule], dataset, [learnable.theta], TrainConfig(steps=3),
              learnables=[learnable])
    predict(kb, [rule], dataset, 3)
    tables.append(kb.subgoal_table)
    assert tables[0] is not None
    assert all(table is tables[0] for table in tables)


@pytest.mark.parametrize("bad", [-1, "len", "x"], ids=["minus-one", "len", "str"])
def test_search_entry_points_reject_an_unknown_target_id(bad):
    """backward_chain, predict and train raise UnknownAtomError for a
    target id the KB does not hold, as the AtomSpace methods do: -1 must
    not read the last atom."""
    tape, kb, rule, learnable, dataset = _fruit_setup(0.5, 3, seed=1)
    target = len(kb) if bad == "len" else bad
    with pytest.raises(UnknownAtomError):
        backward_chain(kb, [rule], target, ChainConfig(max_depth=2))
    dataset.insert(1, LabeledExample(target, 1))
    with pytest.raises(UnknownAtomError):
        predict(kb, [rule], dataset, 2)
    with pytest.raises(UnknownAtomError):
        train(kb, [rule], dataset, [learnable.theta], TrainConfig(steps=3),
              learnables=[learnable])


def test_train_checks_each_target_id_once(monkeypatch):
    """Counts only, no timing.  A train call checks each target's id once,
    with its groundness, before the search: AtomSpace.atom sees each
    example's target once, not again at the search's entry nor after the
    fit, which writes only the learnable's truth value."""
    tape, kb, rule, learnable, dataset = _fruit_setup(0.5, 6, seed=5)
    seen, searched, atom, fit = Counter(), [], AtomSpace.atom, training.fit

    def counting(self, atom_id):
        seen[atom_id] += 1
        return atom(self, atom_id)
    monkeypatch.setattr(AtomSpace, "atom", counting)
    monkeypatch.setattr(training, "fit", lambda *args: searched.append(
        Counter(seen)) or fit(*args))
    train(kb, [rule], dataset, [learnable.theta], TrainConfig(steps=2),
          learnables=[learnable])
    targets = Counter(ex.target for ex in dataset)
    assert all(searched[0][t] == n for t, n in targets.items()), searched
    assert all(seen[t] == n for t, n in targets.items()), seen


def _trace_shape(trace):
    """Rule, binding, conclusion and leaf atoms of a trace, recursively,
    with each term as its atom or default."""
    if isinstance(trace, Leaf):
        return ("leaf", trace.atom)
    return (trace.rule.name, sorted(trace.binding.items()), trace.conclusion,
            [_trace_shape(c) for c in trace.premises],
            [("leaf", t.atom) if isinstance(t, Leaf) else ("default", t.value)
             for t in trace.terms])


def test_shared_table_traces_match_per_target_search(monkeypatch):
    """Every train call's one-table search picks, for every example, the
    trace a backward_chain per target through a fresh table would pick: same rule, binding,
    conclusion, terms and leaf atoms, and the same replayed strength.  The
    KB is fruit-colors-shaped, and the later calls reach the conclusions of
    earlier calls as depth-0 facts: after each fit the test commits what
    its traces replay, as a caller that wants conclusions in the KB does."""
    tape, kb = fresh_kb()
    rng = random.Random(11)
    pred = {n: kb.node("PredicateNode", n)
            for n in ("apple", "banana", "red", "green", "ripe")}
    instances = []
    for fruit in ("apple", "banana"):
        for i in range(12):
            inst = kb.node("ConceptNode", "%s-%03d" % (fruit, i))
            kb.set_tv(kb.link("EvaluationLink", pred[fruit], inst),
                      TruthValue(tape.constant(rng.choice([1.0, 0.8])), 1.0))
            instances.append((fruit, inst))
    rules = [make_modus_ponens_rule(kb)]
    committed = set()
    picked = Counter()
    find = training._find_traces

    def checking(kb, rules, dataset, depth):
        traces = find(kb, rules, dataset, depth)
        for trace, ex in zip(traces, dataset):
            kb.subgoal_table = None  # a fresh search per target
            results = backward_chain(kb, rules, ex.target,
                                     ChainConfig(max_depth=depth))
            _, strength, fresh = next(
                (r for r in results if isinstance(r[2], Derivation)), results[0])
            assert _trace_shape(trace) == _trace_shape(fresh)
            assert trace.replay(kb, {}).value == strength.value
            leaves = {leaf.atom for leaf in trace.leaves()}
            picked[type(trace).__name__, bool(leaves & committed)] += 1
        return traces
    monkeypatch.setattr(training, "_find_traces", checking)

    def fit_pair(antecedent, consequent, targets, depth=3):
        learnable = LearnableStrength(tape, init=0.5)
        learnable.attach(kb, kb.link("ImplicationLink", pred[antecedent],
                                     pred[consequent]))
        dataset = [LabeledExample(t, rng.randrange(2)) for t in targets]
        derived = [t for t in targets if not kb.has_asserted_tv(t)]
        train(kb, rules, dataset, [learnable.theta],
              TrainConfig(steps=5, chain_depth=depth), learnables=[learnable])
        traces = find(kb, rules, dataset, depth)
        for trace, strength in zip(traces, training._replay(kb, traces)):
            if isinstance(trace, Derivation):
                chainer.commit(kb, trace, strength)
        committed.update(derived)

    # fruit-colors: one fit per fruit x color pair
    for fruit in ("apple", "banana"):
        for color in ("red", "green"):
            fit_pair(fruit, color, [kb.link("EvaluationLink", pred[color], inst)
                                    for f, inst in instances if f == fruit])
    # the colors committed above are now facts, and also still derivable
    targets = [kb.link("EvaluationLink", pred[c], inst)
               for _, inst in instances for c in ("ripe", "red")]
    targets += [kb.link("EvaluationLink", pred[f], inst)
                for f, inst in instances[::5]]  # facts, not derivable
    fit_pair("red", "ripe", targets)
    fit_pair("green", "ripe", targets, depth=1)
    # ripe is derived from the committed color facts in both fits
    assert picked == Counter({("Derivation", False): 4 * 12 + 2 * 24,
                              ("Derivation", True): 2 * 24,
                              ("Leaf", False): 2 * 5})


def test_train_call_adds_a_bounded_number_of_atoms():
    """A fruit-colors-shaped train call interns a few query atoms, however
    many examples it has: the search asks no premise pattern per target,
    also in the fits where the other fruit's implication is asserted."""
    growth = {}
    for n in (20, 200):
        tape, kb = fresh_kb()
        pred = {f: kb.node("PredicateNode", f)
                for f in ("apple", "banana", "red", "green")}
        instances = {f: [kb.node("ConceptNode", "%s-%03d" % (f, i)) for i in range(n)]
                     for f in ("apple", "banana")}
        for f, insts in instances.items():
            for inst in insts:
                kb.set_tv(kb.link("EvaluationLink", pred[f], inst),
                          TruthValue(tape.constant(1.0), 1.0))
        rule = make_modus_ponens_rule(kb)
        growth[n] = []
        for fruit in ("apple", "banana"):
            for color in ("red", "green"):
                learnable = LearnableStrength(tape, init=0.5)
                learnable.attach(kb, kb.link("ImplicationLink", pred[fruit],
                                             pred[color]))
                dataset = [LabeledExample(kb.link("EvaluationLink", pred[color], i),
                                          i % 2) for i in instances[fruit]]
                before = len(kb)
                train(kb, [rule], dataset, [learnable.theta], TrainConfig(steps=2),
                      learnables=[learnable])
                growth[n].append(len(kb) - before)
    assert growth[20] == growth[200]
    assert max(growth[200]) <= 5


def _per_target_find_traces(kb, rules, dataset, depth):
    """The reference for ``training._find_traces``: its per-target search
    before lifting, one ground query per example."""
    targets = [ex.target for ex in dataset]
    traces = []
    for i, proofs in enumerate(prove(kb, rules, targets, ChainConfig(max_depth=depth))):
        if not proofs:
            raise UnderivableTargetError(i)
        traces.append(next((t for _, t in proofs if isinstance(t, Derivation)),
                           proofs[0][1]))
    return traces


def _two_fruit_kb(n, rng):
    """Eval(fruit, x) for two fruits of n instances each, at strengths and
    confidences drawn from ``rng``, and each instance's Eval(red, x)."""
    tape, kb = fresh_kb()
    pred = {f: kb.node("PredicateNode", f) for f in ("apple", "banana", "red")}
    targets = {}
    for f in ("apple", "banana"):
        targets[f] = []
        for i in range(n):
            x = kb.node("ConceptNode", "%s-%03d" % (f, i))
            kb.set_tv(kb.link("EvaluationLink", pred[f], x),
                      TruthValue(tape.constant(rng.choice([0.2, 0.5, 1.0])),
                                 rng.choice([0.3, 0.8, 1.0])))
            targets[f].append(kb.link("EvaluationLink", pred["red"], x))
    return tape, kb, pred, targets


def test_train_call_derives_as_often_at_any_instance_count(monkeypatch):
    """Counts only, no timing.  On a fruit-colors-shaped KB, two fruits of
    n instances each and both Impl(fruit, red) asserted, one train call on
    apple's Eval(red, x) targets makes as many _derive calls at n = 200 as
    at n = 20: the lifted query's columns of Eval(fruit, x) facts are
    walked lane by lane, and only each example's first lane is built."""
    derived = []
    derive = chainer._derive

    def counting(*args):
        derived.append(1)
        return derive(*args)
    monkeypatch.setattr(chainer, "_derive", counting)
    counts = {}
    for n in (20, 200):
        rng = random.Random(3)
        tape, kb, pred, targets = _two_fruit_kb(n, rng)
        kb.set_tv(kb.link("ImplicationLink", pred["banana"], pred["red"]),
                  TruthValue(tape.constant(0.4), 1.0))
        learnable = LearnableStrength(tape, init=0.5)
        learnable.attach(kb, kb.link("ImplicationLink", pred["apple"], pred["red"]))
        dataset = [LabeledExample(t, rng.randrange(2)) for t in targets["apple"]]
        derived.clear()
        train(kb, [make_modus_ponens_rule(kb)], dataset, [learnable.theta],
              TrainConfig(steps=2), learnables=[learnable])
        counts[n] = len(derived)
    assert counts[20] == counts[200]


def test_lane_commits_match_the_per_target_search(monkeypatch):
    """Lane leaves at differing confidences, below and above their prefix
    leaf's: each trace train fits through a lifted query's lane replays,
    after the fit, to the strength that the per-target reference
    _per_target_find_traces gives, and its leaves' minimum confidence,
    which commit would write, is the reference's.  The lanes are read off
    the walk, not the table: that run makes no _derive call."""
    derive = chainer._derive

    def run(find):
        rng = random.Random(5)
        tape, kb, pred, targets = _two_fruit_kb(8, rng)
        for f, strength, confidence in [("apple", 0.7, 0.6), ("banana", 0.4, 0.9)]:
            kb.set_tv(kb.link("ImplicationLink", pred[f], pred["red"]),
                      TruthValue(tape.constant(strength), confidence))
        weights = [tape.parameter(0.0) for _ in range(4)]
        asked = targets["apple"] + targets["banana"]
        dataset = [LabeledExample(t, rng.randrange(2)) for t in asked]
        derived, found = [], []

        def counting(*args):
            derived.append(1)
            return derive(*args)
        with monkeypatch.context() as m:
            m.setattr(training, "_find_traces",
                      lambda *args: found.extend(find(*args)) or found)
            m.setattr(chainer, "_derive", counting)
            train(kb, [make_modus_ponens_rule(kb, weights=weights)], dataset,
                  weights, TrainConfig(steps=3, chain_depth=1))
        return len(derived), [
            (s.value, min(kb.get_tv(leaf.atom).confidence for leaf in t.leaves()))
            for t, s in zip(found, training._replay(kb, found))]

    lane_derives, got = run(training._find_traces)
    reference_derives, expected = run(_per_target_find_traces)
    assert lane_derives == 0 < reference_derives
    assert got == expected
    assert {c for _, c in got} == {0.3, 0.6, 0.8, 0.9}


def _fruit_colors_case():
    """Two fruits, Impl(apple, red) learnable and Impl(banana, red) a
    fact, every Eval(red, x) a target, one of them also asserted."""
    rng = random.Random(4)
    tape, kb, pred, targets = _two_fruit_kb(10, rng)
    kb.set_tv(kb.link("ImplicationLink", pred["banana"], pred["red"]),
              TruthValue(tape.constant(0.4), 1.0))
    kb.set_tv(targets["apple"][0], TruthValue(tape.constant(0.9), 0.8))
    learnable = LearnableStrength(tape, init=0.5)
    learnable.attach(kb, kb.link("ImplicationLink", pred["apple"], pred["red"]))
    dataset = [LabeledExample(t, rng.randrange(2))
               for t in targets["apple"] + targets["banana"]]
    return kb, [make_modus_ponens_rule(kb)], dataset, [learnable.theta], [learnable], 3


def _trainable_mp_case():
    """Trainable modus ponens weights over two asserted implications."""
    rng = random.Random(6)
    tape, kb, pred, targets = _two_fruit_kb(6, rng)
    for f, strength in [("apple", 0.7), ("banana", 0.4)]:
        kb.set_tv(kb.link("ImplicationLink", pred[f], pred["red"]),
                  TruthValue(tape.constant(strength), 1.0))
    weights = [tape.parameter(0.0) for _ in range(4)]
    dataset = [LabeledExample(t, rng.randrange(2))
               for t in targets["apple"] + targets["banana"]]
    rules = [make_modus_ponens_rule(kb, weights=weights)]
    return kb, rules, dataset, weights, [], 1


@pytest.mark.parametrize("case", [_fruit_colors_case, _trainable_mp_case],
                         ids=["fruit-colors", "trainable-mp"])
def test_train_writes_no_truth_value_but_its_learnables(case):
    """A train call leaves the asserted set, and every truth value object
    but its learnables', as it found them: conclusions are outputs of the
    fit, not facts it writes."""
    kb, rules, dataset, params, learnables, depth = case()
    tvs = dict(kb.tvs)
    train(kb, rules, dataset, params, TrainConfig(steps=5, chain_depth=depth),
          learnables=learnables)
    own = {ls.atom for ls in learnables}
    assert kb.tvs.keys() == tvs.keys()
    assert all(kb.tvs[a] is tv for a, tv in tvs.items() if a not in own)
    for ls in learnables:
        assert kb.tvs[ls.atom].strength.value == pytest.approx(ls.value())



def test_lifted_answers_that_are_compound_rule_terms():
    """A rule concluding Eval($Q, Not($X)) answers the lifted query
    Eval(q, $lifted) with the rule term Not($X): each target still gets the
    Derivation the per-target reference picks, with the modus ponens
    strength at P(B|not A) = 0.2."""
    tape, kb = fresh_kb()
    p, q, var_p, var_q, var_x = (kb.node(t, n) for t, n in [
        ("PredicateNode", "p"), ("PredicateNode", "q"), ("VariableNode", "$P"),
        ("VariableNode", "$Q"), ("VariableNode", "$X")])
    rule = chainer.Rule(
        kb, name="negated-modus-ponens",
        variables=[(var_p, "PredicateNode"), (var_q, "PredicateNode"),
                   (var_x, "ConceptNode")],
        premises=[kb.link("ImplicationLink", var_p, var_q),
                  kb.link("EvaluationLink", var_p, var_x)],
        conclusion=kb.link("EvaluationLink", var_q, kb.link("NotLink", var_x)),
        formula=lambda i: modus_ponens_strength(i[1], i[0], i[2]),
        terms=[(kb.link("ImplicationLink", kb.link("NotLink", var_p), var_q), 0.2)])
    kb.set_tv(kb.link("ImplicationLink", p, q), TruthValue(tape.constant(0.7), 0.9))
    dataset = []
    for i, strength in enumerate([0.2, 0.4, 0.6]):
        x = kb.node("ConceptNode", "x%d" % i)
        kb.set_tv(kb.link("EvaluationLink", p, x), TruthValue(tape.constant(strength), 0.9))
        dataset.append(LabeledExample(
            kb.link("EvaluationLink", q, kb.link("NotLink", x)), 1))
    got = _traces_or_index(training._find_traces, kb, [rule], dataset, 1)
    expected = _traces_or_index(_per_target_find_traces, kb, [rule], dataset, 1)
    assert [_trace_shape(t) for t in got] == [_trace_shape(t) for t in expected]
    assert all(isinstance(t, Derivation) for t in got)
    assert [t.replay(kb, {}).value for t in got] == pytest.approx([0.3, 0.4, 0.5])


def test_lifted_column_with_an_instance_of_the_wrong_type():
    """Modus ponens wants a ConceptNode instance: in a column of Eval(apple, x)
    facts where one x is a PredicateNode, the other targets derive as the
    per-target reference derives them, and the odd target raises
    UnderivableTargetError at its own index, as the reference does."""
    tape, kb, rule, learnable, dataset = _fruit_setup(0.5, 4, seed=4)
    apple, green = (kb.node("PredicateNode", n) for n in ("apple", "green"))
    odd = kb.node("PredicateNode", "apple-odd")
    kb.set_tv(kb.link("EvaluationLink", apple, odd), TruthValue(tape.constant(1.0), 1.0))
    dataset.insert(2, LabeledExample(kb.link("EvaluationLink", green, odd), 1))
    for find in (training._find_traces, _per_target_find_traces):
        assert _traces_or_index(find, kb, [rule], dataset, 2) == 2
    others = dataset[:2] + dataset[3:]
    got, expected = (_traces_or_index(find, kb, [rule], others, 2)
                     for find in (training._find_traces, _per_target_find_traces))
    assert all(isinstance(t, Derivation) for t in got)
    assert [_trace_shape(t) for t in got] == [_trace_shape(t) for t in expected]


def test_subgoal_table_holds_proofs_only():
    """After predict on a five-instance lifted group, every entry of the
    KB's subgoal table is a list of (binding, trace) pairs."""
    tape, kb, rule, learnable, dataset = _fruit_setup(0.5, 5, seed=6)
    predict(kb, [rule], dataset, 3)
    memo = kb.subgoal_table.memo
    assert memo and all(type(e) is tuple for entry in memo.values() for e in entry)


def _traces_or_index(find, kb, rules, dataset, depth):
    """find's traces through a fresh table, or the index it raised."""
    kb.subgoal_table = None
    try:
        return find(kb, rules, dataset, depth)
    except UnderivableTargetError as e:
        return e.index


_concept = st.integers(0, 3).map(lambda i: '(ConceptNode "c%d")' % i)
_pred = st.integers(0, 2).map(lambda i: '(PredicateNode "p%d")' % i)
_entity = st.integers(0, 3).map(lambda i: '(ConceptNode "x%d")' % i)
_inh = st.builds(lambda a, b: "(InheritanceLink %s %s)" % (a, b), _concept, _concept)
_eval = st.builds(lambda p, x: "(EvaluationLink %s %s)" % (p, x), _pred, _entity)
_impl = st.builds(lambda p, q: "(ImplicationLink %s %s)" % (p, q), _pred, _pred)
_fact = st.tuples(st.one_of(_inh, _eval, _impl, _concept),
                  st.sampled_from([0.2, 0.5, 0.9]))


# chains for modus ponens and deduction to derive along, random facts aside
LIFTING_BASE = "\n".join(
    ['(ImplicationLink (stv 0.7 0.9) (PredicateNode "p%d") (PredicateNode "p%d"))'
     % (i, i + 1) for i in range(2)]
    + ['(EvaluationLink (stv 0.8 0.9) (PredicateNode "p0") (ConceptNode "x%d"))'
       % i for i in range(3)]
    + ['(InheritanceLink (stv 0.6 0.9) (ConceptNode "c%d") (ConceptNode "c%d"))'
       % (i, i + 1) for i in range(3)]) + "\n"


def _with_stv(text, s):
    head, rest = text.split(" ", 1)
    return "%s (stv %s 0.9) %s" % (head, s, rest)


# one group: targets that differ only in their last argument
_group = st.one_of(
    st.builds(lambda p, xs: ["(EvaluationLink %s %s)" % (p, x) for x in xs],
              _pred, st.lists(_entity, min_size=1, max_size=4)),
    st.builds(lambda a, bs: ["(InheritanceLink %s %s)" % (a, b) for b in bs],
              _concept, st.lists(_concept, min_size=1, max_size=4)),
    st.builds(lambda p, qs: ["(ImplicationLink %s %s)" % (p, q) for q in qs],
              _pred, st.lists(_pred, min_size=1, max_size=3)),
    st.lists(_concept, min_size=1, max_size=2))
_targets = st.lists(_group, min_size=1, max_size=4).flatmap(
    lambda groups: st.permutations([t for g in groups for t in g]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(facts=st.lists(_fact, max_size=16), targets=_targets,
       rule_picks=st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True),
       depth=st.integers(1, 3), lifted_first=st.booleans())
def test_lifted_traces_match_the_per_target_search(facts, targets, rule_picks,
                                                    depth, lifted_first):
    """On random Eval/Impl/Inh KBs, with rules drawn from make_rule_set
    (in drawn order) and depths 1-3, the lifted _find_traces raises
    UnderivableTargetError at the per-target reference's index, or picks
    its traces, with the same shapes and replayed strengths; so it does on
    the derivable examples alone.  Datasets repeat targets and mix groups
    of one and of many.  Each lifted query's proofs binding its variable
    to a target's last argument are that target's ground proofs, in order."""
    tape, kb = fresh_kb()
    load_kb(kb, LIFTING_BASE + "\n".join(_with_stv(f, s) for f, s in facts))
    all_rules = make_rule_set(kb)
    rules = [all_rules[i] for i in rule_picks]
    dataset = [LabeledExample(parse_atom(kb, t), 1) for t in targets]

    def both(dataset):
        order = [training._find_traces, _per_target_find_traces]
        got = {find: _traces_or_index(find, kb, rules, dataset, depth)
               for find in (order if lifted_first else order[::-1])}
        lifted, reference = got[order[0]], got[order[1]]
        if isinstance(reference, int):
            assert lifted == reference
        else:
            assert ([_trace_shape(t) for t in lifted]
                    == [_trace_shape(t) for t in reference])
            assert ([t.replay(kb, {}).value for t in lifted]
                    == [t.replay(kb, {}).value for t in reference])

    both(dataset)
    config = ChainConfig(max_depth=depth)
    var = kb.node("VariableNode", "$T")
    derivable = []
    for ex in dataset:
        (ground,) = prove(kb, rules, [ex.target], config)
        derivable += [ex] if ground else []
        atom = kb.atom(ex.target)
        if atom.outgoing:
            pattern = kb.link(atom.type.name, *atom.outgoing[:-1], var)
            (lifted,) = prove(kb, rules, [pattern], config)
            assert ([_trace_shape(t) for b, t in lifted if b[var] == atom.outgoing[-1]]
                    == [_trace_shape(t) for _, t in ground])
    if derivable:
        both(derivable)
