"""Benchmark for dpln: one workload per run, in this process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Untraced (``--trace 0``) it makes the workload's fixed number of rounds
(set-up plus the workload's timed calls) and then set-ups alone, fewer only
if they would run past S seconds, checks every output, and reports the
end-to-end metrics named in BENCHMARK.json, with every time scaled to a
reference host speed (see speed.py).  Traced (``--trace 1``) it runs one checked
untraced round as the reference, then one round under the tracer, and reports
the per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
show the same figures for a reader.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"

PLURAL = {"step": "steps", "query": "queries", "firing": "firings"}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dpln" / "__init__.py").is_file():
        print("error: no dpln sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dpln
    if Path(dpln.__file__).resolve().parent != SRC / "dpln":
        print("error: imported dpln from %s, not %s" % (dpln.__file__, SRC),
              file=sys.stderr)
        return 2
    import harness
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    out_dir = str(OUT_DIR / args.workload)
    if args.trace:
        values, rounds = harness.traced(workload, args.seed, out_dir)
        declared, labels = spec["per_layer"], {}
    else:
        values, rounds = harness.untraced(workload, args.seed, args.seconds,
                                          out_dir)
        declared, op = spec["end_to_end"], workload.op
        labels = {"ops_per_s": "%s_per_s" % PLURAL[op]}
        labels.update(("op_ms.p%d" % q, "%s_ms.p%d" % (op, q)) for q in (50, 90))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    planned = "" if args.trace else " of %d" % workload.rounds
    print("%s seed %d%s: %d%s round(s), %d operations timed"
          % (args.workload, args.seed, " traced" if args.trace else "",
             len(rounds), planned, sum(len(r.latencies) for r in rounds)))
    for name, m in metrics.items():
        print("  %-34s %14.6g %s" % (labels.get(name, name), m["value"], m["unit"]))
    for name in sorted(set(values) - set(metrics)):
        print("  %-34s %14.6g (not gated)" % (labels.get(name, name), values[name]))
    print("  %-34s %14.6g (%d failed of %d)"
          % ("error_rate", failed / attempted, failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
