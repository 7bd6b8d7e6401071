import gc
import math
import random
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpln import (AtomSpace, AutodiffError, Tape, TrainError,
                  fit, make_modus_ponens_rule)
from dpln.autodiff import LOG_EPS, OPS, UNIT_TOL, sigmoid, trace_loss

from conftest import (analytic_grads, assert_grads_close, finite_diff_grads,
                      generated_code, interior)


def test_constant_value_and_flag():
    t = Tape()
    c = t.constant(0.5)
    assert c.value == 0.5
    assert not c.requires_grad


def test_constant_grad_computed_but_not_parameter():
    t = Tape()
    c = t.constant(0.5)
    loss = t.mul(c, c)
    t.backward(loss)
    assert c.grad == pytest.approx(1.0)
    assert c.index not in [p.index for p in t.parameters]


def test_constant_rejects_non_finite():
    t = Tape()
    with pytest.raises(AutodiffError):
        t.constant(float("nan"))
    with pytest.raises(AutodiffError):
        t.parameter(float("inf"))


@pytest.mark.parametrize("zeros", [(-0.0, 0.0), (0.0, -0.0)])
def test_constant_keeps_the_two_signed_zeros_apart(zeros):
    """-0.0 == 0.0, yet each zero is its own constant record, in either
    order, and a second call with either returns that zero's record."""
    t = Tape()
    first, second = (t.constant(z) for z in zeros)
    assert first.index != second.index
    assert [math.copysign(1.0, r.value) for r in (first, second)] == [
        math.copysign(1.0, z) for z in zeros]
    assert [t.constant(z).index for z in zeros] == [first.index, second.index]
    assert t.constant(0.5).index == t.constant(0.5).index


def test_parameter_distinct_refs():
    t = Tape()
    a = t.parameter(0.3)
    b = t.parameter(0.3)
    assert a.index != b.index
    assert a.requires_grad and b.requires_grad
    assert len(t.parameters) == 2


def test_setting_a_value_that_is_not_a_parameter_raises():
    """Constants are cached per value, so setting one would rewrite every
    reader of that value; a computed record is recomputed from its inputs.
    Either raises and leaves the value as it was."""
    t = Tape()
    c = t.constant(2.0)
    computed = t.mul(c, t.parameter(0.5))
    for ref in (c, computed):
        before = ref.value
        with pytest.raises(AutodiffError, match="not a parameter"):
            ref.value = 3.0
        assert ref.value == before
    assert t.constant(2.0).value == 2.0


def test_trace_loss_declines_a_loss_that_sets_a_parameter():
    """A traced loss that sets a parameter's value gets the error of one
    that reads it: the replay could not repeat the write."""
    t = Tape()
    p = t.parameter(0.5)

    def loss():
        p.value = 0.25
        return t.mul(p, p)
    with pytest.raises(AutodiffError, match="read or set the value of record %d"
                       % p.index):
        trace_loss([p], loss)


def test_parameter_sgd_updates_value():
    t = Tape()
    p = t.parameter(0.0)
    loss = t.mul(p, p)
    t.backward(loss)
    p.value = p.value - 0.1 * p.grad
    assert p.value == 0.0  # grad of x^2 at 0 is 0


def test_mul_product_rule():
    t = Tape()
    a, b = t.constant(2.0), t.constant(3.0)
    out = t.mul(a, b)
    assert out.value == 6.0
    t.backward(out)
    assert a.grad == pytest.approx(3.0)
    assert b.grad == pytest.approx(2.0)


def test_one_minus():
    t = Tape()
    a = t.constant(0.3)
    out = t.one_minus(a)
    assert out.value == pytest.approx(0.7)
    t.backward(out)
    assert a.grad == pytest.approx(-1.0)


def test_fanout_accumulation():
    t = Tape()
    x = t.parameter(5.0)
    out = t.add(x, x)
    t.backward(out)
    assert x.grad == pytest.approx(2.0)


def test_div_by_zero_raises():
    t = Tape()
    with pytest.raises(AutodiffError):
        t.div(t.constant(1.0), t.constant(0.0))


def test_tape_mismatch_raises():
    t1, t2 = Tape(), Tape()
    with pytest.raises(AutodiffError):
        t1.add(t1.constant(1.0), t2.constant(1.0))


def test_sigmoid_at_zero():
    t = Tape()
    x = t.parameter(0.0)
    s = t.sigmoid(x)
    assert s.value == pytest.approx(0.5)
    t.backward(s)
    assert x.grad == pytest.approx(0.25)


def test_log_at_one():
    t = Tape()
    x = t.parameter(1.0)
    out = t.log(x)
    assert out.value == 0.0
    t.backward(out)
    assert x.grad == pytest.approx(1.0)


def test_log_clamps_saturated_input():
    t = Tape()
    x = t.parameter(0.0)  # below the clamp floor
    out = t.log(x)
    assert out.value == pytest.approx(math.log(1e-7))
    t.backward(out)
    assert x.grad == 0.0  # zero gradient outside the clamp interval


def test_sigmoid_linear_composite_matches_finite_differences():
    # sigmoid(w0*x*y + w3) at w0=1, x=0.5, y=0.8, w3=0
    def build(t, refs):
        w0, x, y, w3 = refs
        return t.sigmoid(t.add(t.mul(w0, t.mul(x, y)), w3))

    values = [1.0, 0.5, 0.8, 0.0]
    t = Tape()
    refs = [t.parameter(v) for v in values]
    out = build(t, refs)
    assert out.value == pytest.approx(0.598688, abs=1e-6)
    assert_grads_close(build, values)


def test_backward_loss_mul_self():
    t = Tape()
    a = t.parameter(3.0)
    loss = t.mul(a, a)
    t.backward(loss)
    assert a.grad == pytest.approx(6.0)


def test_backward_on_constant_leaves_grads_zero():
    t = Tape()
    a = t.parameter(2.0)
    c = t.constant(1.0)
    t.backward(c)
    assert a.grad == 0.0


def test_backward_accumulates_without_zero():
    t = Tape()
    a = t.parameter(3.0)
    loss = t.mul(a, a)
    t.backward(loss)
    t.backward(loss)
    assert a.grad == pytest.approx(12.0)
    t.zero_grads()
    assert a.grad == 0.0


def test_stale_ref_after_reset():
    t = Tape()
    a = t.parameter(1.0)
    mark = t.mark()
    b = t.add(a, a)
    t.reset_to(mark)
    assert a.value == 1.0
    with pytest.raises(AutodiffError):
        b.value


def test_reset_to_rejects_a_negative_mark():
    """A negative mark would slice records off the end and drop every
    parameter from the parameter set; it raises and changes nothing."""
    t = Tape()
    a, b = t.parameter(1.0), t.parameter(2.0)
    t.add(a, b)
    with pytest.raises(AutodiffError, match="outside"):
        t.reset_to(-1)
    assert len(t) == 3
    assert [p.index for p in t.parameters] == [0, 1]


def test_reset_keeps_parameters_below_mark():
    t = Tape()
    a = t.parameter(1.0)
    mark = t.mark()
    t.parameter(2.0)
    t.reset_to(mark)
    assert [p.index for p in t.parameters] == [a.index]


def test_dropped_tape_with_parameters_is_freed_without_gc():
    """A tape holding parameters is not in a reference cycle, also after a
    compiled fit: dropping its last reference frees it at once, with the
    cycle collector off."""
    gc.disable()
    try:
        kb = AtomSpace(Tape())
        rule = make_modus_ponens_rule(kb, weights=[kb.tape.parameter(0.0) for _ in range(4)])
        params = kb.tape.parameters
        assert len(params) == 4
        calls = []

        def loss():
            calls.append(1)
            return kb.tape.mul(params[0], params[0])
        fit(params, loss, 0.1, 3)
        assert len(calls) == 1  # steps 1 and 2 ran the compiled replay
        tape = weakref.ref(kb.tape)
        del kb, rule, params, loss
        assert tape() is None
    finally:
        gc.enable()


def _random_expression(rng):
    """A random ~20-op scalar expression over 4 leaves, safe everywhere:
    div denominators are bounded away from 0 and log inputs squashed."""
    ops = rng.choices(["add", "sub", "mul", "div", "neg", "one_minus",
                       "log", "sigmoid"], k=20)
    picks = [(rng.randrange(100), rng.randrange(100)) for _ in range(20)]

    def build(t, refs):
        pool = list(refs)
        for op, (i, j) in zip(ops, picks):
            a = pool[i % len(pool)]
            b = pool[j % len(pool)]
            if op == "add":
                r = t.add(a, b)
            elif op == "sub":
                r = t.sub(a, b)
            elif op == "mul":
                r = t.mul(a, b)
            elif op == "div":
                r = t.div(a, t.add(t.sigmoid(b), t.constant(0.5)))
            elif op == "neg":
                r = t.neg(a)
            elif op == "one_minus":
                r = t.one_minus(a)
            elif op == "log":
                r = t.log(t.add(t.mul(t.sigmoid(a), t.constant(0.9)),
                                t.constant(0.05)))
            else:
                r = t.sigmoid(a)
            pool.append(r)
        total = pool[len(refs)]
        for r in pool[len(refs) + 1:]:
            total = t.add(total, r)
        return t.sigmoid(total)  # keep magnitudes tame for the FD oracle

    return build


def test_random_expressions_match_finite_differences():
    rng = random.Random(20240)
    for _ in range(25):
        build = _random_expression(rng)
        values = [interior(rng, -0.9, 0.9) for _ in range(4)]
        _, analytic = analytic_grads(build, values)
        numeric = finite_diff_grads(build, values)
        for a, n in zip(analytic, numeric):
            assert abs(a - n) <= 1e-5 + 1e-5 * max(abs(a), abs(n)) + 1e-5


def test_determinism_bit_identical():
    def run():
        t = Tape()
        a = t.parameter(0.3)
        b = t.parameter(0.7)
        out = t.sigmoid(t.mul(t.add(a, b), t.log(b)))
        t.backward(out)
        return out.value, a.grad, b.grad

    assert run() == run()


def test_primitive_gradient_checks_many_points():
    """Every primitive vs central differences at >= 100 interior points."""
    rng = random.Random(7)
    unary = {
        "neg": lambda t, r: t.neg(r[0]),
        "one_minus": lambda t, r: t.one_minus(r[0]),
        "log": lambda t, r: t.log(r[0]),
        "sigmoid": lambda t, r: t.sigmoid(r[0]),
        "clamp01": lambda t, r: t.clamp01(r[0]),
    }
    binary = {
        "add": lambda t, r: t.add(r[0], r[1]),
        "sub": lambda t, r: t.sub(r[0], r[1]),
        "mul": lambda t, r: t.mul(r[0], r[1]),
        "div": lambda t, r: t.div(r[0], r[1]),
    }
    for name, build in unary.items():
        for _ in range(100):
            x = interior(rng)  # interior of [0,1]: inside log/clamp intervals
            assert_grads_close(build, [x])
    for name, build in binary.items():
        for _ in range(100):
            x, y = interior(rng), interior(rng, 0.2, 0.95)
            assert_grads_close(build, [x, y])


def _branchy(t, p):
    s = t.sigmoid(p)
    return t.mul(s, s) if s.value > 0.5 else s


def test_trace_loss_declines_what_it_cannot_replay():
    """trace_loss raises, naming the fix, for a loss that reads a value that
    a fit parameter reaches or uses such a record from before the call.
    Everything else compiles: records that no fit parameter reaches keep
    their traced value, and the replay matches a re-trace."""
    t = Tape()
    p, q = t.parameter(0.5), t.parameter(0.25)  # p is fit, q is not
    c = t.constant(2.0)
    derived = t.sigmoid(p)  # records traced before the loss
    other = t.sigmoid(q)
    declined = {
        "reads a parameter": lambda: t.mul(p, t.constant(p.value)),
        "reads a value computed from one": lambda: _branchy(t, p),
        "uses a derived record from before": lambda: t.mul(derived, p),
        "returns a derived record from before": lambda: derived,
        "guards a derived record from before":
            lambda: t.mul(p, c) if t.at_least(derived, 0.5) else p,
    }
    for name, loss_fn in declined.items():
        mark = t.mark()
        fix = "at_least" if name.startswith("reads") else "inside the loss"
        with pytest.raises(AutodiffError, match=fix):
            trace_loss([p], loss_fn)
        t.reset_to(mark)
    compiled = {
        "creates a parameter": lambda: t.mul(p, t.parameter(3.0)),
        "depends on no parameter": lambda: t.mul(c, c),
        "reads a value no fit parameter reaches":
            lambda: t.mul(p, t.constant(other.value)),
        "uses a record from before that no fit parameter reaches":
            lambda: t.mul(other, p),
        "returns another parameter": lambda: q,
        "returns the parameter": lambda: p,
    }
    for name, loss_fn in compiled.items():
        mark = t.mark()
        loss, replay = trace_loss([p], loss_fn)
        p.value = 0.75
        t.zero_grads()
        assert replay(), name
        replayed = loss.value, p.grad
        t.reset_to(mark)
        t.zero_grads()
        fresh = loss_fn()
        t.backward(fresh)
        assert replayed == (fresh.value, p.grad), name
        t.reset_to(mark)
        p.value = 0.5


def test_check_unit_raises_and_compiles_as_a_guard():
    """check_unit passes values within UNIT_TOL of [0, 1] and raises the
    given class otherwise; unlike a read, it does not stop trace_loss from
    compiling, and a check on a constant leaves no guard in the replay."""
    t = Tape()
    for x in (-UNIT_TOL, 0.0, 0.5, 1.0 + UNIT_TOL):
        t.check_unit(t.constant(x), ValueError, "x")
    with pytest.raises(ValueError, match=r"^x 1.5 outside \[0, 1\]$"):
        t.check_unit(t.constant(1.5), ValueError, "x")
    with pytest.raises(KeyError):
        t.check_unit(t.constant(-1e-6), KeyError, "x")
    p = t.parameter(0.25)

    def loss_fn():
        t.check_unit(t.constant(0.5), ValueError, "constant")
        s = t.add(p, p)
        t.check_unit(s, ValueError, "sum")
        double = t.add(s, s)
        t.check_unit(double, ValueError, "double")  # after the last record
        return double
    loss, replay = trace_loss([p], loss_fn)
    p.value = 0.125
    assert replay()
    assert loss.value == 0.5
    p.value = 0.375
    with pytest.raises(ValueError, match=r"^double 1.5 outside"):
        replay()
    p.value = 0.75
    with pytest.raises(ValueError, match=r"^sum 1.5 outside"):
        replay()


def test_at_least_compiles_as_a_branch_guard():
    """at_least returns the threshold test; in a traced loss it is a branch
    guard, and a replay whose outcome flips stops at it, before the records
    traced after it and before any grad, and returns False."""
    t = Tape()
    p = t.parameter(0.25)
    assert t.at_least(p, 0.25) and not t.at_least(p, 0.5)

    def loss_fn():
        s = t.add(p, p)
        return t.mul(s, s) if t.at_least(s, 1.0) else t.neg(s)
    loss, replay = trace_loss([p], loss_fn)
    assert loss.value == -0.5
    p.value = 0.375
    assert replay()
    assert (loss.value, p.grad) == (-0.75, -2.0)
    p.value = 0.5
    t.zero_grads()
    assert replay() is False
    assert (loss.value, p.grad) == (-0.75, 0.0)


def _clamped_expression(t, refs):
    """div, sub, clamp01 and logs whose inputs leave [1e-7, 1] for some
    parameter values."""
    a, b, c, d = refs
    q = t.div(t.sub(a, b), t.add(t.sigmoid(c), t.constant(0.5)))
    return t.add(t.log(t.clamp01(t.mul(q, d))),
                 t.mul(t.log(t.add(q, t.constant(0.5))), t.one_minus(d)))


def test_replay_matches_retrace_bit_for_bit():
    """After the parameters move, a replay of the traced graph gives the same
    loss and grads, bit for bit, as tracing the graph afresh."""
    rng = random.Random(31)
    builds = [_random_expression(rng) for _ in range(20)]
    builds.append(_clamped_expression)
    for build in builds:
        t = Tape()
        refs = [t.parameter(interior(rng, -0.9, 0.9)) for _ in range(4)]
        loss, replay = trace_loss(refs, lambda: build(t, refs))
        for _ in range(5):
            for r in refs:
                r.value = interior(rng, -2.0, 2.0)
            fresh = Tape()
            fresh_refs = [fresh.parameter(r.value) for r in refs]
            fresh_loss = build(fresh, fresh_refs)
            fresh.backward(fresh_loss)
            t.zero_grads()
            assert replay()
            assert loss.value == fresh_loss.value
            assert [r.grad for r in refs] == [r.grad for r in fresh_refs]


@pytest.mark.parametrize("adds", [2, 3])
def test_a_fold_of_adds_replays_bit_for_bit_with_no_accumulate(monkeypatch, adds):
    """A left fold of two or three adds compiles to the statements of its
    lanes, no ``accumulate``, and replays bit for bit what a re-trace
    gives."""
    sources = generated_code(monkeypatch)

    def build(tape, refs):
        a, b, c = refs
        total = tape.mul(a, b)
        for term in [tape.sigmoid(c), tape.mul(b, c), tape.log(tape.clamp01(a))][:adds]:
            total = tape.add(total, term)
        return tape.mul(total, total)
    t = Tape()
    refs = [t.parameter(x) for x in (0.3, -0.4, 0.7)]
    loss, replay = trace_loss(refs, lambda: build(t, refs))
    assert sources and not any("accumulate(" in block for block in sources)
    for values in [(0.5, 0.25, -1.5), (0.9, -2.0, 0.1)]:
        for r, x in zip(refs, values):
            r.value = x
        t.zero_grads()
        fresh = Tape()
        fresh_refs = [fresh.parameter(x) for x in values]
        fresh_loss = build(fresh, fresh_refs)
        fresh.backward(fresh_loss)
        assert replay()
        assert _bits([loss.value]) == _bits([fresh_loss.value])
        assert _bits(r.grad for r in refs) == _bits(r.grad for r in fresh_refs)


def _summed(tape, refs, how):
    """A loss over 21 terms, totalled by ``Tape.sum`` or by a chain of adds:
    a repeated input, constants, and more terms than one statement adds."""
    a, b, c = refs
    terms = [tape.mul(a, b), tape.sigmoid(c), a, tape.constant(1e16),
             tape.log(tape.clamp01(b)), tape.constant(-1e16), a] * 3
    total = tape.sum(terms) if how == "sum" else terms[0]
    for term in terms[1:] if how == "adds" else ():
        total = tape.add(total, term)
    return tape.mul(total, tape.mul(c, total))


def test_sum_adds_left_to_right_as_a_chain_of_adds_does():
    """1e16 + 1.0 rounds to 1e16, so the sum is 0.0, as the adds give; a
    compensated sum (``math.fsum``, or builtin ``sum`` since Python 3.12)
    gives 1.0."""
    t = Tape()
    refs = [t.constant(x) for x in (1e16, 1.0, -1e16)]
    assert math.fsum(r.value for r in refs) == 1.0
    assert t.sum(refs).value == t.add(t.add(*refs[:2]), refs[2]).value == 0.0
    p = t.parameter(0.5)
    total = t.sum([p])
    t.backward(total)
    assert total.value == 0.5 and p.grad == 1.0


def test_sum_matches_a_chain_of_adds_bit_for_bit():
    """``Tape.sum``'s eager value, replayed value and grads, eager and
    replayed, equal those of a chain of adds bit for bit."""
    rng = random.Random(5)
    tapes = {how: Tape() for how in ("sum", "adds")}
    params = {how: [t.parameter(x) for x in (0.3, -0.4, 0.7)]
              for how, t in tapes.items()}
    traced = {how: trace_loss(params[how], lambda how=how: _summed(
        tapes[how], params[how], how)) for how in tapes}
    assert _bits([traced["sum"][0].value]) == _bits([traced["adds"][0].value])
    for _ in range(5):
        values = [interior(rng, -2.0, 2.0) for _ in range(3)]
        got = {}
        for how, (loss, replay) in traced.items():
            for p, x in zip(params[how], values):
                p.value = x
            tapes[how].zero_grads()
            assert replay()
            fresh = Tape()
            fresh_params = [fresh.parameter(x) for x in values]
            fresh_loss = _summed(fresh, fresh_params, how)
            fresh.backward(fresh_loss)
            got[how] = [_bits([loss.value, fresh_loss.value]),
                        _bits(p.grad for p in params[how]),
                        _bits(p.grad for p in fresh_params)]
        assert got["sum"] == got["adds"]
        assert got["sum"][1] == got["sum"][2]


@pytest.mark.parametrize("case", ["parameter", "record", "lane", "loss"])
def test_a_one_input_sum_replays_as_its_input(monkeypatch, case):
    """A sum of one input is that input, bit for bit, so the replay reads
    the input where the sum is read and copies nothing into a local or a
    slot; values and grads equal a fresh trace's, a zero's sign included."""
    def build(t, refs):
        a, b = refs
        if case == "parameter":
            return t.mul(t.sum([a]), b)
        if case == "record":
            return t.mul(t.sum([t.mul(a, b)]), t.constant(3.0))
        if case == "lane":
            return t.sum([t.mul(t.sum([t.mul(a, t.constant(c))]), b) for c in (0.5, 2.0)])
        return t.sum([t.mul(a, b)])
    sources = generated_code(monkeypatch)
    t = Tape()
    refs = [t.parameter(0.5), t.parameter(0.25)]
    loss, replay = trace_loss(refs, lambda: build(t, refs))
    copies = [line for block in sources for line in block.split("\n") if re.fullmatch(
        r"(s\d+|w\[\d+\](\[\d+\])?) = (s\d+|[vw]\[\d+\](\[\d+\])?)", line)]
    assert copies == []
    for inputs in [(0.5, -0.25), (-0.0, 1.0), (0.0, -0.0), (-1.5, 2.0)]:
        for r, x in zip(refs, inputs):
            r.value = x
        t.zero_grads()
        assert replay()
        fresh = Tape()
        fresh_refs = [fresh.parameter(x) for x in inputs]
        fresh_loss = build(fresh, fresh_refs)
        fresh.backward(fresh_loss)
        assert _bits([loss.value]) == _bits([fresh_loss.value]), inputs
        assert _bits(r.grad for r in refs) == _bits(r.grad for r in fresh_refs), inputs


def test_sum_rejects_no_input_and_a_ref_of_another_tape():
    t = Tape()
    with pytest.raises(AutodiffError, match="at least one input"):
        t.sum([])
    with pytest.raises(AutodiffError, match="different tape"):
        t.sum([t.constant(1.0), Tape().constant(2.0)])


def test_every_op_of_the_table_is_a_rendered_tape_method():
    rendered = {name for name, f in vars(Tape).items()
                if getattr(f, "__code__", None) is not None
                and f.__code__.co_filename == "<string>"}
    assert rendered == set(OPS)
    assert Tape.log.__doc__.startswith("Natural log of the input clamped")
    assert Tape.clamp01.__doc__.startswith("Clamp into [0, 1]")


# inputs per op at the edges of its expressions: both branches of the
# stable sigmoid, log below LOG_EPS, inside [LOG_EPS, 1] and above 1,
# clamp01 below, inside and above [0, 1], and div by a zero denominator
EDGE_INPUTS = {
    "add": [(0.25, -0.5), (-3.0, 3.0)],
    "sub": [(0.25, -0.5), (-3.0, -3.0)],
    "mul": [(0.25, -0.5), (-3.0, 0.0)],
    "div": [(0.25, -0.5), (-3.0, 1e-3), (0.5, 0.0), (0.5, -0.0),
            (1.0, 1e-170)],
    "neg": [(0.25,), (-3.0,)],
    "one_minus": [(0.25,), (1.5,)],
    "log": [(-0.5,), (0.0,), (LOG_EPS / 2,), (LOG_EPS,), (0.3,), (1.0,),
            (1.0 + 1e-12,), (1.5,)],
    "sigmoid": [(-800.0,), (-2.0,), (-1e-300,), (0.0,), (2.0,), (800.0,)],
    "clamp01": [(-0.5,), (-0.0,), (0.0,), (0.5,), (1.0,), (1.5,)],
    # x * 1.0 for a captured 1.0, which the replay compiles to x itself
    "times_one": [(0.25,), (-0.0,), (0.0,), (-3.0,), (5e-324,), (1e308,)],
    # (x * 1.0) * y + (x * 1.0) * z: the adjoint 3y + 3z passes x * 1.0
    # as itself, -0.0 for y = z = -0.0, nan for 3y = inf and 3z = -inf
    "adjoint_times_one": [(0.25, 0.5, -2.0), (0.25, -0.0, -0.0), (0.25, -0.0, 0.0),
                          (0.25, 1e308, -1e308), (-0.0, 1e308, -1e308)],
    # log(1 - x c) (y + z) for c = 0.5 and 2.0: the term columns of the logs
    # and the one_minus are computed in x's grad loop, where the logs'
    # adjoint 3y + 3z is 0.0, -0.0 or nan, and 1 - x c leaves [LOG_EPS, 1]
    "fused_log": [(0.25, 0.5, -2.0), (0.25, 0.0, 0.0), (0.25, -0.0, -0.0),
                  (0.25, 1e308, -1e308), (1.0, 0.5, -2.0), (-1.0, 0.5, -2.0),
                  (1.0, -0.0, -0.0), (-1.0, 1e308, -1e308)],
}


def _bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("op", sorted(EDGE_INPUTS))
def test_replay_matches_the_eager_op_bit_for_bit_at_edge_inputs(op):
    """For each op, a product with the constant 1.0 and term columns
    computed in a grad loop, a replay traced at an interior point gives the
    values and grads of the eager op at every edge input, bit for bit, and
    raises the eager op's error where that raises."""
    def build(tape, refs):
        if op == "adjoint_times_one":
            x = tape.mul(refs[0], tape.constant(1.0))
            z = tape.add(tape.mul(x, refs[1]), tape.mul(x, refs[2]))
        elif op == "fused_log":
            logs = [tape.log(tape.one_minus(tape.mul(refs[0], tape.constant(c))))
                    for c in (0.5, 2.0)]
            z = tape.sum([tape.add(tape.mul(u, refs[1]), tape.mul(u, refs[2]))
                          for u in logs])
        else:
            z = tape.mul(refs[0], tape.constant(1.0)) if op == "times_one" else (
                getattr(tape, op)(*refs))
        return tape.mul(z, tape.constant(3.0))
    t = Tape()
    refs = [t.parameter(0.5) for _ in EDGE_INPUTS[op][0]]
    loss, replay = trace_loss(refs, lambda: build(t, refs))
    for inputs in EDGE_INPUTS[op]:
        for r, x in zip(refs, inputs):
            r.value = x
        t.zero_grads()
        fresh = Tape()
        fresh_refs = [fresh.parameter(x) for x in inputs]
        try:
            fresh_loss = build(fresh, fresh_refs)
        except AutodiffError as error:
            with pytest.raises(AutodiffError) as replayed:
                replay()
            assert str(replayed.value) == str(error), inputs
            continue
        fresh.backward(fresh_loss)
        assert replay(), inputs
        assert _bits([loss.value]) == _bits([fresh_loss.value]), inputs
        assert (_bits(r.grad for r in refs)
                == _bits(r.grad for r in fresh_refs)), inputs


def test_float_sigmoid_is_the_tape_op():
    t = Tape()
    for (x,) in EDGE_INPUTS["sigmoid"]:
        assert _bits([sigmoid(x)]) == _bits([t.sigmoid(t.constant(x)).value])


def test_repr_of_records_in_a_traced_loss_is_not_a_read():
    """repr reads the record's value without logging a read, so a loss
    that prints its records still compiles and replays."""
    t = Tape()
    p = t.parameter(0.5)
    shown = []

    def loss_fn():
        s = t.sigmoid(p)
        shown.append("%r %r" % (p, s))
        return t.mul(s, s)
    loss, replay = trace_loss([p], loss_fn)
    assert shown == ["VarRef(0, value=0.5) VarRef(1, value=0.622459)"]
    p.value = -1.0
    assert replay()
    fresh = Tape()
    s = fresh.sigmoid(fresh.parameter(-1.0))
    assert loss.value == fresh.mul(s, s).value


def _stale_parameter(t):
    mark = t.mark()
    p = t.parameter(0.5)
    t.reset_to(mark)
    return p


# trace_loss's parameter lists it rejects before tracing, and the message
BAD_PARAMS = {
    "empty": (lambda t: [], "at least one parameter"),
    "stale": (lambda t: [t.parameter(0.5), _stale_parameter(t)], "stale VarRef"),
    "another tape": (lambda t: [t.parameter(0.5), Tape().parameter(0.25)],
                     "different tape"),
}


@pytest.mark.parametrize("case", sorted(BAD_PARAMS))
def test_trace_loss_rejects_bad_params_before_tracing(case):
    t = Tape()
    make, message = BAD_PARAMS[case]
    params = make(t)
    calls = []
    with pytest.raises(AutodiffError, match=message):
        trace_loss(params, lambda: calls.append(1) or t.constant(1.0))
    assert calls == []


@pytest.mark.parametrize("case", sorted(BAD_PARAMS))
def test_fit_rejects_bad_params_before_tracing(case):
    """fit refuses an empty list itself; a stale parameter or one of another
    tape reaches trace_loss, which raises before the loss is traced, so no
    parameter moves."""
    t = Tape()
    make, message = BAD_PARAMS[case]
    params = make(t)
    values = [p.tape._values[p.index] for p in params if p.tape is not t]
    calls = []

    def loss_fn():
        calls.append(1)
        return t.mul(params[-1], params[-1])
    with pytest.raises(TrainError if case == "empty" else AutodiffError,
                       match="nonempty" if case == "empty" else message):
        fit(params, loss_fn, 0.1, 3)
    assert calls == []
    assert values == [p.tape._values[p.index] for p in params if p.tape is not t]


# -- lanes: random graphs of isomorphic copies --------------------------------

_CONSTANTS = [0.25, 0.5, 2.0, -1.0, 1e-3, 0.0]
_STEP_OPS = ["add", "sub", "mul", "div", "neg", "one_minus", "log",
             "sigmoid", "clamp01"]


def _step(t, op, a, b):
    if op == "div":  # a denominator bounded away from 0
        return t.div(a, t.add(t.sigmoid(b), t.constant(0.5)))
    if op == "log":
        return t.log(t.sigmoid(a))
    return getattr(t, op)(a, b) if len(OPS[op].partials) == 2 else getattr(t, op)(a)


def _tiny_division(t, params, c):
    """An infinite partial meets a zero adjoint: d(c / y)/dy overflows for
    y = p * 1e-160, and the quotient's adjoint is 0."""
    y = t.mul(params[0], t.constant(1e-160))
    return t.mul(t.div(t.constant(c), y), t.constant(0.0))


def _guarded(t, params, c):
    """A range check and a branch; params[0] and params[-1] each feed
    other lanes too."""
    s = t.sigmoid(t.add(params[0], t.constant(c)))
    t.check_unit(s, ValueError, "s")
    return t.mul(s, params[-1]) if t.at_least(s, 0.5) else t.add(s, params[-1])


def _fan_out(t, params, c):
    """A record with four terms in its adjoint, which adds them in reverse
    record order."""
    s = t.sigmoid(t.mul(params[0], t.constant(c)))
    return t.add(t.mul(s, params[-1]), t.sub(t.log(s), t.mul(s, s)))


def _fusible_chain(t, params, c):
    """Two copies of a chain whose every intermediate feeds one consumer, so
    their lanes can be inlined into one comprehension up to the sigmoid."""
    def chain(c):
        x = t.add(t.mul(params[0], t.constant(c)), t.neg(params[-1]))
        x = t.mul(t.one_minus(x), t.constant(0.5))
        return t.sigmoid(t.sub(x, t.clamp01(params[0])))
    return t.add(chain(c), chain(c + 1.0))


def _cross_entropy(t, params, c):
    """c log(s) + (1 - c) log(1 - s) for s = sigmoid(p0 c + p-1): copies
    make lanes whose log term columns are computed, through the one_minus
    two levels deep, in the loop of the sigmoid's adjoint."""
    s = t.sigmoid(t.add(t.mul(params[0], t.constant(c)), params[-1]))
    return t.add(t.mul(t.constant(c), t.log(s)),
                 t.mul(t.constant(1.0 - c), t.log(t.one_minus(s))))


@st.composite
def _lane_graphs(draw):
    """k copies each of a few shapes over shared parameters, interleaved,
    each with its own constant from a small pool, summed by a left fold of
    adds or, when no partial sum is reused or probed, maybe by Tape.sum."""
    n_params = draw(st.integers(1, 3))
    steps = st.tuples(st.sampled_from(_STEP_OPS), st.integers(0, 9),
                      st.integers(0, 9))
    shapes = draw(st.lists(st.lists(steps, min_size=1, max_size=5),
                           min_size=1, max_size=3))
    specials = draw(st.lists(st.sampled_from([_tiny_division, _guarded, _fan_out,
                                              _fusible_chain, _cross_entropy]),
                             max_size=3, unique=True))
    copies = draw(st.lists(st.tuples(
        st.integers(0, len(shapes) + len(specials) - 1),
        st.sampled_from(_CONSTANTS)), min_size=1, max_size=14))
    values = st.lists(st.floats(-3.0, 3.0), min_size=n_params,
                      max_size=n_params)
    # partial sums of the fold that the loss also uses, or that only a
    # branch reads, if any
    reuse, probe = (draw(st.none() | st.integers(0, len(copies) - 1))
                    for _ in range(2))
    summed = draw(st.booleans())
    return (shapes, specials, copies, reuse, probe, summed), draw(values), draw(
        st.lists(values, min_size=1, max_size=3))


def _lane_loss(t, params, graph):
    shapes, specials, copies, reuse, probe, summed = graph
    terms = []
    for which, c in copies:
        if which < len(shapes):
            pool = [*params, t.constant(c)]
            for op, i, j in shapes[which]:
                pool.append(_step(t, op, pool[i % len(pool)], pool[j % len(pool)]))
            terms.append(pool[-1])
        else:
            terms.append(specials[which - len(shapes)](t, params, c))
    total = terms[0]
    sums = [total]
    if summed and reuse is None and probe is None:
        total = t.sum(terms)
    else:
        for term in terms[1:]:
            total = t.add(total, term)
            sums.append(total)
    if reuse is not None:
        total = t.sub(total, t.mul(sums[reuse], params[0]))
    scale = 1.0 / len(terms)
    if probe is not None and t.at_least(t.mul(sums[probe], t.constant(0.5)), 0.0):
        scale *= 2.0
    return t.mul(t.constant(scale), t.neg(total))


@settings(max_examples=150, deadline=None)
@given(graph=_lane_graphs())
def test_lane_replay_matches_a_fresh_trace_bit_for_bit(graph):
    """After the parameters move, a replay gives the loss and every grad of
    a fresh eager trace and backward, bit for bit; it raises what that trace
    raises, and a miss writes nothing."""
    graph, start, moves = graph
    t = Tape()
    params = [t.parameter(x) for x in start]

    def loss_fn():
        return _lane_loss(t, params, graph)
    try:
        loss, replay = trace_loss(params, loss_fn)
    except (AutodiffError, ValueError):
        return  # the traced point itself fails
    for values in moves:
        for p, x in zip(params, values):
            p.value = x
        t.zero_grads()
        written = _bits([loss.value] + [p.grad for p in params])
        fresh = Tape()
        fresh_params = [fresh.parameter(x) for x in values]
        try:
            outcome = replay()
        except (AutodiffError, ValueError) as error:
            with pytest.raises(type(error)) as again:
                _lane_loss(fresh, fresh_params, graph)
            assert str(again.value) == str(error)
            continue
        if not outcome:
            assert _bits([loss.value] + [p.grad for p in params]) == written
            continue
        fresh_loss = _lane_loss(fresh, fresh_params, graph)
        fresh.backward(fresh_loss)
        assert _bits([loss.value]) == _bits([fresh_loss.value])
        assert _bits(p.grad for p in params) == _bits(p.grad for p in fresh_params)


# -- lane fusion: a lane inlined into the one lane that reads it -------------

def _two_readers(t, p, cs):
    """Each product is read by a neg and by a one_minus."""
    products = [t.mul(p, c) for c in cs]
    return [t.add(t.neg(m), t.one_minus(m)) for m in products]


def _squared(t, p, cs):
    """mul(s, s): one record reads each sum twice, and its partials read it."""
    sums = [t.add(p, c) for c in cs]
    return [t.mul(s, s) for s in sums]


def _times_a_reached_value(t, p, cs):
    """mul(s, 1 - p): the partial of the reached 1 - p reads s."""
    sums = [t.add(p, c) for c in cs]
    return [t.mul(s, t.one_minus(p)) for s in sums]


def _divided(t, p, cs):
    """A div, which can raise, between p and a neg."""
    quotients = [t.div(p, c) for c in cs]
    return [t.neg(q) for q in quotients]


def _logged_sigmoid(t, p, cs):
    """A sigmoid, whose code binds a name and whose partial reads its own
    value, feeding a log."""
    squashed = [t.sigmoid(t.mul(p, c)) for c in cs]
    return [t.log(s) for s in squashed]


def _checked_after_its_reader(t, p, cs):
    """Products that a neg lane reads whole, and a range check then reads
    one of, in the same guard segment."""
    products = [t.mul(t.sigmoid(p), c) for c in cs]
    negs = [t.neg(m) for m in products]
    t.check_unit(products[0], ValueError, "product")
    return negs


def _summed_too(t, p, cs):
    """Products that a neg lane reads whole, and the loss's sum reads one of."""
    products = [t.mul(p, c) for c in cs]
    return [t.neg(m) for m in products] + products[:1]


# the case and the op of its middle lane, which keeps its own comprehension
_UNFUSED = {"two readers": (_two_readers, "mul"), "mul(s, s)": (_squared, "add"),
            "partial of another input": (_times_a_reached_value, "add"),
            "div": (_divided, "div"), "sigmoid into log": (_logged_sigmoid, "sigmoid"),
            "checked after its reader": (_checked_after_its_reader, "mul"),
            "summed too": (_summed_too, "mul")}


def _three_copies(build):
    """A loss over three copies of ``build`` with the constants 0.5, 0.25
    and 2.0, summed."""
    return lambda t, p: t.sum(build(t, p, [t.constant(c) for c in (0.5, 0.25, 2.0)]))


def _comprehension(op):
    """The start of a list comprehension that computes ``op`` alone."""
    return "[%s for " % OPS[op].value.format(x="x", y="y")


def _assert_replay_matches_a_fresh_trace(loss_fn, values):
    t = Tape()
    p = t.parameter(values[0])
    loss, replay = trace_loss([p], lambda: loss_fn(t, p))
    for x in values:
        p.value = x
        t.zero_grads()
        fresh = Tape()
        q = fresh.parameter(x)
        fresh_loss = loss_fn(fresh, q)
        fresh.backward(fresh_loss)
        assert replay()
        assert _bits([loss.value, p.grad]) == _bits([fresh_loss.value, q.grad])


@pytest.mark.parametrize("case", sorted(_UNFUSED))
def test_a_lane_that_cannot_be_inlined_keeps_its_comprehension(monkeypatch, case):
    """A lane read by more than one lane or by a partial, one that can raise
    or binds a name, and one that a guard or a sum reads a member of each
    keep their own comprehension, and the replay matches a re-trace bit for
    bit."""
    build, op = _UNFUSED[case]
    sources = generated_code(monkeypatch)
    _assert_replay_matches_a_fresh_trace(_three_copies(build), [0.3, 0.7, -1.2])
    assert any(_comprehension(op) in block for block in sources), sources


def _negated_products(t, p, cs):
    """Products that only a neg lane reads."""
    return [t.neg(t.mul(p, c)) for c in cs]


def _guard_between(t, p, cs):
    """A range check that holds between the products and the negs that
    read them."""
    products = [t.mul(p, c) for c in cs]
    t.check_unit(t.sigmoid(p), ValueError, "s")
    return [t.neg(m) for m in products]


def _failing_check_between(t, p, cs):
    """A range check on p, which fails once p leaves [0, 1], between the
    products and the negs that read them."""
    products = [t.mul(p, c) for c in cs]
    t.check_unit(p, ValueError, "p")
    return [t.neg(m) for m in products]


def _branch_between(t, p, cs):
    """A branch on p >= 0.5, which adds 1 - p to the loss, between the
    products and the negs that read them."""
    products = [t.mul(p, c) for c in cs]
    above = t.at_least(p, 0.5)
    return [t.neg(m) for m in products] + ([t.one_minus(p)] if above else [])


def _replay_outcomes(loss_fn, values):
    """The replay's outcome at each of ``values`` of its parameter, traced at
    the first: True when the loss and the grad match a fresh trace's bit for
    bit, False for a miss that wrote nothing, or the class of the error it
    raised, which the fresh trace raised with the same message."""
    t = Tape()
    p = t.parameter(values[0])
    loss, replay = trace_loss([p], lambda: loss_fn(t, p))
    outcomes = []
    for x in values:
        p.value = x
        t.zero_grads()
        written = _bits([loss.value, p.grad])
        fresh = Tape()
        q = fresh.parameter(x)
        try:
            outcome = replay()
        except (AutodiffError, ValueError) as error:
            with pytest.raises(type(error)) as again:
                loss_fn(fresh, q)
            assert str(again.value) == str(error)
            outcomes.append(type(error))
            continue
        if outcome:
            fresh_loss = loss_fn(fresh, q)
            fresh.backward(fresh_loss)
            assert _bits([loss.value, p.grad]) == _bits([fresh_loss.value, q.grad])
        else:
            assert _bits([loss.value, p.grad]) == written
        outcomes.append(outcome)
    return outcomes


# the case and the replay's outcomes at p = 0.3, where it is traced, 0.7 and -1.2
_FUSED = {"no guard": (_negated_products, [True, True, True]),
          "guard between": (_guard_between, [True, True, True]),
          "failing check between": (_failing_check_between, [True, True, ValueError]),
          "flipped branch between": (_branch_between, [True, False, True])}


@pytest.mark.parametrize("case", sorted(_FUSED))
def test_a_lane_read_by_one_lane_alone_is_inlined(monkeypatch, case):
    """Products that only a neg lane reads are computed inside its
    comprehension, across a guard too.  A range check that fails raises
    what a re-trace raises, a branch that flips reports a miss and writes
    nothing, and otherwise the replay matches a re-trace bit for bit."""
    build, outcomes = _FUSED[case]
    sources = generated_code(monkeypatch)
    assert _replay_outcomes(_three_copies(build), [0.3, 0.7, -1.2]) == outcomes
    assert not any(_comprehension("mul") in block for block in sources), sources
    assert any("[-(" in block for block in sources), sources


def test_term_columns_at_other_places_in_each_adjoint_stay_lists(monkeypatch):
    """Two sigmoids, each read by a log, a one_minus and a product, the
    second in another order: each adds its three terms in its own reverse
    record order, so no term column is a column of the sigmoids' adjoint
    and none is computed in their loop, and the replay matches a re-trace
    bit for bit."""
    def loss_fn(t, p):
        reads = {"log": t.log, "one_minus": t.one_minus, "mul": lambda s: t.mul(s, p)}
        terms = []
        for c, order in ((0.5, ("log", "one_minus", "mul")),
                         (2.0, ("mul", "log", "one_minus"))):
            s = t.sigmoid(t.mul(p, t.constant(c)))
            terms += [reads[r](s) for r in order]
        return t.sum(terms)
    sources = generated_code(monkeypatch)
    _assert_replay_matches_a_fresh_trace(loss_fn, [0.3, 0.7, -1.2, 2.9])
    sigmoid = [block for block in sources if " * (1.0 - z" in block]
    assert sigmoid and not any("1.0 / " in block for block in sigmoid), sources


def _adjoint_read_twice(t, p, cs):
    """log(a b) for a = p c and b = p + c: the product's adjoint feeds both
    its partials."""
    return [t.log(t.mul(t.mul(p, c), t.add(p, c))) for c in cs]


def _partial_shared(t, p, cs):
    """m m for m = (1 - p c) + p: the add's two inputs share the term
    column of its partial 1.0, and p has other terms."""
    return [t.mul(m, m) for m in [t.add(t.one_minus(t.mul(p, c)), p) for c in cs]]


@pytest.mark.parametrize("build", [_adjoint_read_twice, _partial_shared])
def test_a_term_column_read_twice_stays_one_list(monkeypatch, build):
    """A term column that a lane would compute in both its partials, or
    that two inputs share, is computed once, in a list, and the replay
    matches a re-trace bit for bit."""
    sources = generated_code(monkeypatch)
    _assert_replay_matches_a_fresh_trace(_three_copies(build), [0.3, 0.7, -1.2])
    assert sum(block.count("1.0 / ") for block in sources) == (
        build is _adjoint_read_twice), sources


def test_a_term_column_that_a_grad_loop_reads_by_member_stays_a_list(monkeypatch):
    """log(p c + p): the add passes the log's term column on to the
    products, whose adjoint loop reads it whole, and to p, whose grad loop
    reads it member by member, so it stays a list, and the replay matches a
    re-trace bit for bit."""
    sources = generated_code(monkeypatch)
    _assert_replay_matches_a_fresh_trace(_three_copies(
        lambda t, p, cs: [t.log(t.add(t.mul(p, c), p)) for c in cs]), [0.3, 0.7, -1.2])
    assert any("[d * (1.0 / x if " in block for block in sources), sources


def test_a_lane_adds_a_grad_only_when_it_makes_all_its_terms():
    """p's terms come from a lane of two products, one of which no loss
    reads, and from a sigmoid: as many as the lane has members, yet its
    grad adds both, as a re-trace does."""
    def loss_fn(t, p):
        live, _ = t.mul(p, t.constant(0.5)), t.mul(p, t.constant(2.0))
        return t.add(t.neg(live), t.sigmoid(p))
    _assert_replay_matches_a_fresh_trace(loss_fn, [0.3, 0.7, -1.2])


@pytest.mark.parametrize("op", sorted(OPS))
def test_an_inlined_op_matches_the_eager_op_bit_for_bit_at_edge_inputs(
        monkeypatch, op):
    """Two copies of each op, read by a lane of negs: every op but the two
    that raise or bind a name is inlined there, and the replay gives the
    values and grads of the eager ops at every edge input, bit for bit, or
    raises their error."""
    def build(tape, refs):
        return tape.sum([tape.mul(tape.neg(getattr(tape, op)(*refs)),
                                  tape.constant(c)) for c in (3.0, 0.5)])
    sources = generated_code(monkeypatch)
    t = Tape()
    refs = [t.parameter(0.5) for _ in OPS[op].partials]
    loss, replay = trace_loss(refs, lambda: build(t, refs))
    assert any(_comprehension(op) in block for block in sources) == (
        op in ("div", "sigmoid"))
    for inputs in EDGE_INPUTS[op]:
        for r, x in zip(refs, inputs):
            r.value = x
        t.zero_grads()
        fresh = Tape()
        fresh_refs = [fresh.parameter(x) for x in inputs]
        try:
            fresh_loss = build(fresh, fresh_refs)
        except AutodiffError as error:
            with pytest.raises(AutodiffError) as replayed:
                replay()
            assert str(replayed.value) == str(error), inputs
            continue
        fresh.backward(fresh_loss)
        assert replay(), inputs
        assert _bits([loss.value]) == _bits([fresh_loss.value]), inputs
        assert (_bits(r.grad for r in refs)
                == _bits(r.grad for r in fresh_refs)), inputs


# -- scalars in locals: lone values and terms across function boundaries -----

def _long_chain(t, p):
    """A sigmoid s, 40 products of one member each, every one reading the
    last and a constant, and a final product with s: s's value is read at
    the start of the forward pass and again by the last functions'
    partials."""
    s = x = t.sigmoid(p)
    for k in range(40):
        x = t.mul(x, t.constant(1.0 + k / 64))
    return t.mul(x, s)


def test_a_local_read_across_a_function_boundary_replays_bit_for_bit(monkeypatch):
    """A replay of more blocks than one function holds keeps a lone value
    that two functions use in a slot of w, and one that a single function
    uses in a local, and replays bit for bit what a re-trace gives."""
    from dpln import replay as compiled
    sources = generated_code(monkeypatch)
    _assert_replay_matches_a_fresh_trace(_long_chain, [0.3, 0.7, -1.2, 30.0])
    assert len(sources.calls[0][1]) > 2
    target = sources[0].split(" = ")[0]  # the sigmoid's value
    assert target.startswith("w[") and any(
        target in block for block in sources[compiled._CHUNK:]), sources
    assert any(block.startswith("s") for block in sources), sources


def test_a_lone_constant_that_is_not_finite_replays_bit_for_bit():
    """A captured inf, the product of two constants, has no literal: the
    replay reads it from w and matches a re-trace bit for bit."""
    def loss_fn(t, p):
        inf = t.mul(t.constant(1e200), t.constant(1e200))
        return t.add(t.mul(p, p), t.clamp01(t.mul(p, inf)))
    _assert_replay_matches_a_fresh_trace(loss_fn, [0.3, -0.7, 0.0])


def test_a_product_with_one_compiles_to_its_factor(monkeypatch):
    """x * 1.0 and 1.0 * x are x for every float, so the replay computes
    neither product, and it matches a re-trace bit for bit; x + 0.0 keeps
    its add, since -0.0 + 0.0 is 0.0."""
    sources = generated_code(monkeypatch)

    def loss_fn(t, p):
        s = t.mul(t.mul(t.constant(1.0), t.sigmoid(p)), t.constant(1.0))
        return t.mul(t.add(s, t.constant(0.0)), p)
    _assert_replay_matches_a_fresh_trace(loss_fn, [0.3, -0.7, 0.0])
    forward = sources[:[b.startswith("v[") for b in sources].index(True)]
    assert not any("* 1.0" in b or "1.0 *" in b for b in forward), forward
    assert any("+ 0.0" in b for b in forward), forward


@pytest.mark.parametrize("op, lo", [("log", LOG_EPS), ("clamp01", 0.0)])
def test_clamps_are_min_max_for_every_float(op, lo):
    """The clamps of log and clamp01, written as comparisons, give what
    min(max(x, lo), 1.0) gives at every edge, -0.0, infinities and nan
    included."""
    t = Tape()
    p = t.parameter(0.5)
    for x in (-math.inf, -1.0, -0.0, 0.0, 5e-324, lo / 2, lo, 0.3, 1.0,
              1.0 + 1e-12, 2.0, math.inf, math.nan):
        p.value = x
        clamped = min(max(x, lo), 1.0)
        want = math.log(clamped) if op == "log" else clamped
        got = getattr(t, op)(p).value
        assert _bits([got]) == _bits([want]) and (
            math.copysign(1.0, got) == math.copysign(1.0, want)), x
