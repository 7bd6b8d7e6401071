import random

import pytest

from dpln import AtomSpace, Tape, TruthValue
from dpln.cli import ExperimentConfig, run_learn_formula

FD_STEP = 1e-6


def finite_diff_grads(build, values):
    """Central-difference gradients of a scalar function of leaf values.

    ``build(tape, refs) -> VarRef`` constructs the expression on a fresh tape
    from leaf refs created for ``values``.  Independent of backward().
    """
    grads = []
    for i in range(len(values)):
        shifted = list(values)
        shifted[i] = values[i] + FD_STEP
        hi = _eval(build, shifted)
        shifted[i] = values[i] - FD_STEP
        lo = _eval(build, shifted)
        grads.append((hi - lo) / (2 * FD_STEP))
    return grads


def _eval(build, values):
    tape = Tape()
    refs = [tape.parameter(v) for v in values]
    return build(tape, refs).value


def analytic_grads(build, values):
    tape = Tape()
    refs = [tape.parameter(v) for v in values]
    out = build(tape, refs)
    tape.backward(out)
    return out.value, [r.grad for r in refs]


def assert_grads_close(build, values, atol=1e-5, rtol=1e-4):
    _, analytic = analytic_grads(build, values)
    numeric = finite_diff_grads(build, values)
    for a, n in zip(analytic, numeric):
        assert abs(a - n) <= atol + rtol * abs(a), (
            "gradient mismatch: analytic %.10g vs central-diff %.10g" % (a, n))


class GeneratedCode(list):
    """Every block of code the replay compiles, in order; ``calls`` keeps
    each compile call apart, as its blocks and the functions made of them.
    ``compiles`` holds every source that ``autodiff`` compiles, and
    ``fits`` how many of them each ``training.fit`` call made."""

    def __init__(self):
        super().__init__()
        self.calls, self.compiles, self.fits = [], [], []


def generated_code(monkeypatch):
    """The GeneratedCode that receives what the replay compiles."""
    from dpln import autodiff, replay, training
    sources, compile_blocks, fit = GeneratedCode(), replay._functions, training.fit

    def recording(blocks, *args):
        sources.extend(blocks)
        sources.calls.append((blocks, compile_blocks(blocks, *args)))
        return sources.calls[-1][1]

    def compiling(source, namespace):
        sources.compiles.append(source)
        exec(source, namespace)

    def fitting(*args):
        before = len(sources.compiles)
        try:
            return fit(*args)
        finally:
            sources.fits.append(len(sources.compiles) - before)
    monkeypatch.setattr(replay, "_functions", recording)
    monkeypatch.setattr(autodiff, "exec", compiling, raising=False)
    monkeypatch.setattr(training, "fit", fitting)
    return sources


def fresh_kb():
    tape = Tape()
    return tape, AtomSpace(tape)


def set_strength(kb, atom, s, c=1.0):
    kb.set_tv(atom, TruthValue(kb.tape.constant(s), c))


def tall_implication_kb(n: int) -> str:
    """KB text of the chain Impl(p0, p1), ..., Impl(p<n-1>, p<n>) at strength
    0.9, with Eval(p0, x) asserted at 1.0, and Eval(p<n-1>, y) too, so
    Eval(p<n>, y) is one link from a fact though the search for it descends
    the whole chain."""
    lines = ['(ImplicationLink (stv 0.9 1.0) (PredicateNode "p%d") '
             '(PredicateNode "p%d"))' % (i, i + 1) for i in range(n)]
    lines += ['(EvaluationLink (stv 1.0 1.0) (PredicateNode "p%d") '
              '(ConceptNode "%s"))' % (i, x) for i, x in ((0, "x"), (n - 1, "y"))]
    return "\n".join(lines) + "\n"


def interior(rng: random.Random, lo=0.05, hi=0.95):
    return lo + (hi - lo) * rng.random()


@pytest.fixture(scope="session")
def learn_formula_fit(tmp_path_factory):
    """The 5000-step learn-formula fit at the acceptance config, run once for
    the tests that check it (criterion 2 and the trainable-formula test)."""
    cfg = ExperimentConfig(experiment="learn-formula", lr=2.0, steps=5000,
                           grid_size=11, heldout_size=21, neg_conditional=0.2,
                           out_dir=str(tmp_path_factory.mktemp("learn-formula")))
    return run_learn_formula(cfg)
