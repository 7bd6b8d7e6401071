"""Tests for the benchmark itself (not part of the tier-1 suite).

    python -m pytest perfbench/tests -q

Workloads run here at reduced sizes; the command-line tests run the real
forward-closure workload for about a second.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from dpln import AtomSpace, Tape, load_kb  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "fruit-colors": lambda: workloads.FruitColors(n_samples=100, steps=800),
    "learn-formula": workloads.LearnFormula,
    "query-mix": lambda: workloads.QueryMix(ladders=6),
    "forward-closure": lambda: workloads.ForwardClosure(steps=12),
}

COUNTERS = [m["name"] for m in SPEC["per_layer"]
            if m["unit"] != "s" and m["name"] != "trace.overhead_ratio"]


def _traced(name, tmp_path, seed=3):
    values, [ref] = harness.traced(SMALL[name](), seed, str(tmp_path / name))
    return values, ref


def test_spec_lists_every_workload_and_tracer_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(tracer.TIMERS) <= per_layer
    for module in tracer.MODULES:
        assert any(n.startswith(module + ".") for n in per_layer), module


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_counters_repeat_and_self_times_add_up(name, tmp_path):
    first, ref = _traced(name, tmp_path)
    second, _ = _traced(name, tmp_path)
    assert ref.failed == 0
    assert {k: first[k] for k in COUNTERS} == {k: second[k] for k in COUNTERS}
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    total = sum(first[name] for name in tracer.TIMERS)
    assert total == pytest.approx(first["trace.wall_s"], rel=1e-9)
    assert first["trace.overhead_ratio"] > 0


def test_tracer_restores_every_patched_site(tmp_path):
    import dpln.chainer
    import dpln.training
    before = (dpln.chainer.unify, dpln.training.sgd_step,
              dpln.AtomSpace.has_asserted_tv, dpln.Tape.backward)
    _traced("forward-closure", tmp_path)
    assert before == (dpln.chainer.unify, dpln.training.sgd_step,
                      dpln.AtomSpace.has_asserted_tv, dpln.Tape.backward)


def test_untraced_reports_every_end_to_end_metric(tmp_path):
    values, rounds = harness.untraced(SMALL["forward-closure"](), 1, 0.0,
                                      str(tmp_path))
    assert len(rounds) == 1
    for m in SPEC["end_to_end"]:
        assert values[m["name"]] > 0, m["name"]


def test_untraced_makes_the_fixed_number_of_rounds(tmp_path):
    wl = SMALL["forward-closure"]()
    wl.rounds = 3
    _, rounds = harness.untraced(wl, 1, 1e9, str(tmp_path))
    assert len(rounds) == 3


@pytest.mark.parametrize("name", ["fruit-colors", "learn-formula",
                                  "forward-closure"])
def test_op_times_add_up_to_the_timed_call(name, tmp_path):
    meter = speed.Speedometer()
    r = workloads.run_round(SMALL[name](), 2, str(tmp_path), check=False,
                            speed=meter)
    assert len(meter.times) > 1 and meter.spent > 0
    assert len(r.ends) == len(r.latencies) > 1
    # call_s is the call's wall time less kernel samples, taken end to end
    assert sum(r.latencies) == pytest.approx(r.call_s, rel=1e-9)


def test_scale_follows_the_nearest_kernel_samples():
    meter = speed.Speedometer()
    meter.times = [float(i) for i in range(30)]
    meter.kernel_s = [speed.REFERENCE_S] * 15 + [2 * speed.REFERENCE_S] * 15
    assert meter.scale(2.0) == 1.0
    assert meter.scale(27.5) == 0.5
    assert meter.scale(99.0) == 0.5
    with pytest.raises(RuntimeError):
        speed.Speedometer().scale(0.0)


def test_generators_depend_only_on_the_seed():
    q = lambda seed: workloads.query_mix_inputs(seed, 3, 4, ((0, 2),), 5, 10, 4)
    f = lambda seed: workloads.forward_closure_inputs(seed, 6, 3, 4, 5, 2)[0]
    assert q(1) == q(1) and q(1)[0] != q(2)[0]
    assert f(1) == f(1) and f(1) != f(2)


# -- each correctness check fails on a corrupted result --------------------

def test_fruit_colors_check(tmp_path):
    from dpln.cli import run_fruit_colors
    wl = SMALL["fruit-colors"]()
    result = run_fruit_colors(wl.build(5, str(tmp_path)))
    assert workloads.check_fruit_colors(result, wl.n_samples) == 0
    result["pairs"][2]["learned"] += 0.02
    assert workloads.check_fruit_colors(result, wl.n_samples) == 1
    # a dropped pair fails itself and, through the frequency sum, its fruit
    del result["pairs"][0]
    assert workloads.check_fruit_colors(result, wl.n_samples) == 3


def test_learn_formula_check():
    # the weights a 1000-step run reports; its own held-out mean is 0.0146774
    good = {"w0": 4.58517063, "w1": -0.950894269, "w2": 0.216777942,
            "w3": -1.48241112}
    assert workloads.heldout_mean_error(good) == pytest.approx(0.0146774, abs=1e-7)
    assert workloads.heldout_mean_error(good) <= workloads.HELDOUT_MEAN_GATE
    bad = dict(good, w3=good["w3"] + 0.3)
    assert workloads.heldout_mean_error(bad) > workloads.HELDOUT_MEAN_GATE


def test_query_mix_check(tmp_path):
    from dpln import ChainConfig, backward_chain, parse_atom
    wl = SMALL["query-mix"]()
    kb, rule_set, facts, _ = wl.build(4, str(tmp_path))
    oracle = workloads.LadderOracle(facts)
    a, c = "L0-0", "L0-4"
    expected = oracle.proofs(a, c, workloads.QUERY_DEPTH)
    assert len(expected) == 5   # Catalan(3) bracketings of four steps
    before = workloads.asserted_inheritance(kb)
    target = parse_atom(kb, workloads.inheritance(a, c))
    results = backward_chain(kb, rule_set, target,
                             ChainConfig(max_depth=workloads.QUERY_DEPTH))
    assert workloads.query_ok(kb, results, before, expected)
    assert not workloads.query_ok(kb, results[1:], before, expected)
    leaf = next(results[0][2].leaves()).atom
    assert not workloads.query_ok(kb, results, before - {leaf}, expected)
    results[0][1].tape._values[results[0][1].index] = 1.5
    assert not workloads.query_ok(kb, results, before, expected)


def test_forward_closure_check():
    text, model = workloads.forward_closure_inputs(2, 6, 3, 4, 6, 2)
    kb = AtomSpace(Tape())
    load_kb(kb, text)
    a, b = model.taxonomy[0]
    down = kb.link("InheritanceLink", kb.node("ConceptNode", b),
                   kb.node("ConceptNode", a))
    assert not model.justified(workloads.atom_shape(kb, down))
    (p, x), (q, y) = sorted(model.evals)[:2]
    pair = kb.link("AndLink",
                   kb.link("EvaluationLink", kb.node("PredicateNode", p),
                           kb.node("ConceptNode", x)),
                   kb.link("EvaluationLink", kb.node("PredicateNode", q),
                           kb.node("ConceptNode", y)))
    assert workloads.check_forward(kb, [pair], [("r", ()), ("s", ())], model) == 0
    assert workloads.check_forward(kb, [pair, down], [("r", ())], model) == 1
    assert workloads.check_forward(kb, [pair], [("r", ()), ("r", ())], model) == 1


# -- the command line ------------------------------------------------------

def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric_with_its_unit(trace):
    p = _run(ROOT, "--workload", "forward-closure", "--seed", "1",
             "--seconds", "1", "--trace", trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in declared}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".out"))
    p = _run(tmp_path, "--workload", "query-mix", "--seed", "1",
             "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert "{" not in p.stdout
