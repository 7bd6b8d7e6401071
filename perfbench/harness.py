"""Untraced and traced measurement of one workload in this process."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer
import workloads
from speed import REFERENCE_S, Speedometer

SETUPS = 15  # set-ups per untraced run; setup_s is their median

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# Run in a fresh interpreter: the time to import dpln (with the CLI), and the
# median kernel time around it, since that process may run on another core.
IMPORT_PROBE = """
import statistics, time
from speed import kernel
def timed(fn):
    t = time.perf_counter(); fn(); return time.perf_counter() - t
before = [timed(kernel) for _ in range(5)]
t = time.perf_counter()
import dpln.cli
import_s = time.perf_counter() - t
after = [timed(kernel) for _ in range(5)]
print(import_s, statistics.median(before + after))
"""


def import_seconds() -> float:
    """Time to import dpln in a fresh interpreter, scaled to the reference
    speed by that interpreter's own kernel samples."""
    path = os.pathsep.join((str(SRC), str(BENCH)))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True, timeout=60)
    import_s, kernel_s = map(float, out.stdout.split())
    return import_s * REFERENCE_S / kernel_s


def end_to_end(rounds, setups, speed) -> dict[str, float]:
    """Metric values over all rounds of a run, every time scaled to the
    reference speed (see speed.py).

    Set-up is the median of the run's set-ups.  Throughput is the number of
    ops over their summed times.  Rounds repeat the same ops in the same
    order, so p50 is the median over the ops of each op's median over the
    rounds: pooled, it would often fall in a sparse stretch between the
    costs of two kinds of op and jump with small shifts.  p90 pools every op
    of every round, so that at least ten ops lie beyond it.  The unscaled
    wall-time throughput and the median host speed (reference kernel time
    over measured kernel time) are printed but not gated.
    """
    per_round = [[t * speed.scale(end) for t, end in zip(r.latencies, r.ends)]
                 for r in rounds]
    if len({len(ops) for ops in per_round}) != 1:
        raise RuntimeError("rounds ran different numbers of operations")
    scaled = [t for ops in per_round for t in ops]
    per_op = [statistics.median(times) for times in zip(*per_round)]
    wall = sum(r.call_s for r in rounds)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(scaled) / sum(scaled),
        "op_ms.p50": statistics.median(per_op) * 1e3,
        "op_ms.p90": statistics.quantiles(scaled, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall.ops_per_s": len(scaled) / wall,
        "host.speed": statistics.median(speed.scale(t) for t in speed.times),
    }


def untraced(workload, seed: int, seconds: float, out_dir: str):
    """``workload.rounds`` rounds, each a set-up and a pass over the ops,
    then set-ups alone until there are ``SETUPS``.  ``seconds`` is a
    ceiling: the run stops early, after at least one round, if the next
    round or set-up would end after it.  Returns (end-to-end metric values,
    rounds)."""
    speed = Speedometer()
    setups, rounds = [], []
    start = perf_counter()
    while len(setups) < max(workload.rounds, SETUPS):
        t0 = speed.sample()
        import_s = import_seconds()
        if len(rounds) < workload.rounds:
            r = workloads.run_round(workload, seed, out_dir, speed=speed)
            rounds.append(r)
            build_s, build_end = r.build_s, r.build_end
        else:
            b0 = perf_counter()
            workload.build(seed, out_dir)
            build_end = perf_counter()
            build_s = build_end - b0
        setups.append(import_s + build_s * speed.scale(build_end))
        now = speed.sample()
        if now - start + (now - t0) > seconds:
            break
    return end_to_end(rounds, setups, speed), rounds


def traced(workload, seed: int, out_dir: str):
    """One checked untraced round as the reference, then one round under the
    tracer.  Returns (per-layer metric values, [reference round])."""
    ref = workloads.run_round(workload, seed, out_dir)
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.run(workloads.run_round, workload, seed, out_dir, False)
    finally:
        tr.uninstall()
    values = tr.metrics()
    values["trace.overhead_ratio"] = tr.wall_s / ref.work_s
    return values, [ref]
