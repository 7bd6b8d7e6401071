"""Seed-7 runs of the three experiments, short ones and fruit-colors at the
benchmark's scale, must write exactly the ``report.json`` and ``loss.csv``
stored under ``tests/golden/``, and compile exactly the replay code in its
``compiled.txt``: the blocks each compile hands ``replay._functions``, with
``w[...]`` slots and ``s<k>`` locals numbered by first appearance.

A change that is meant to alter no output keeps these bytes, and one meant
to alter no generated code keeps ``compiled.txt`` too.  When a change alters
either on purpose, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and say why in the commit.
"""

import re
import sys
from pathlib import Path

import pytest

from dpln import replay
from dpln.cli import (ExperimentConfig, run_fruit_colors, run_joint,
                      run_learn_formula)

GOLDEN = Path(__file__).parent / "golden"
FILES = ("report.json", "loss.csv", "compiled.txt")

RUNS = {
    "fruit-colors": (run_fruit_colors, dict(
        fruits=["apple", "banana"], colors=["yellow", "red", "green"],
        true_probabilities={
            "apple": {"yellow": 0.1, "red": 0.2, "green": 0.7},
            "banana": {"yellow": 0.8, "red": 0.1, "green": 0.1},
        },
        n_samples=50, lr=0.1, steps=100)),
    # perfbench's fruit-colors config at seed 7: the scale where lifted
    # queries make columns of hundreds of lanes
    "fruit-colors-500": (run_fruit_colors, dict(
        fruits=["apple", "banana"], colors=["yellow", "red", "green"],
        true_probabilities={
            "apple": {"yellow": 0.1, "red": 0.2, "green": 0.7},
            "banana": {"yellow": 0.8, "red": 0.1, "green": 0.1},
        },
        n_samples=500, lr=0.1, steps=2000)),
    "learn-formula": (run_learn_formula, dict(lr=2.0, steps=100)),
    "joint": (run_joint, dict(lr=2.0, steps=100)),
}


def renumbered(blocks: list[str]) -> str:
    """One compile's blocks, a slot k, read as ``w[k]`` or the local
    ``s<k>``, numbered by its first appearance."""
    slots = {}

    def slot(m):
        k = slots.setdefault(m[1] or m[2], len(slots))
        return "w[%d]" % k if m[1] else "s%d" % k
    return "".join(re.sub(r"\bw\[(\d+)\]|\bs(\d+)\b", slot, block) + "\n"
                   for block in blocks)


def run(name: str, out_dir: Path) -> None:
    runner, fields = RUNS[name]
    compiles, functions = [], replay._functions

    def recording(blocks, *args):
        compiles.append(renumbered(blocks))
        return functions(blocks, *args)
    replay._functions = recording
    try:
        runner(ExperimentConfig(experiment=name, seed=7, out_dir=str(out_dir),
                                **fields))
    finally:
        replay._functions = functions
    (out_dir / "compiled.txt").write_text("".join(
        "# compile %d\n%s" % c for c in enumerate(compiles)))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden(name, tmp_path):
    run(name, tmp_path)
    for filename in FILES:
        assert (tmp_path / filename).read_bytes() == \
            (GOLDEN / name / filename).read_bytes(), "%s/%s" % (name, filename)


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(RUNS):
        run(name, GOLDEN / name)
