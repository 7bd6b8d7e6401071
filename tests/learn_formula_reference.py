"""The learn-formula experiment as it was before it ran through the KB:
its own loss closure of ``trainable_mp_strength`` calls on tape constants,
one ``fit`` call, and an eager held-out loop.  Kept in the tests only, as
the oracle that ``test_cli.py`` checks ``dpln.cli.run_learn_formula``
against.
"""

from __future__ import annotations

from dpln.autodiff import Tape
from dpln.cli import ConfigError, ExperimentConfig, _eq1, write_report
from dpln.rules import trainable_mp_strength
from dpln.training import cross_entropy, fit


def run_learn_formula(cfg: ExperimentConfig) -> dict:
    if cfg.grid_size < 1 or cfg.heldout_size < 2:
        raise ConfigError("grid sizes must be sensible (>=1 / >=2)")
    tape = Tape()
    weights = [tape.parameter(0.0) for _ in range(4)]
    grid = [i / (cfg.grid_size - 1) if cfg.grid_size > 1 else 0.5
            for i in range(cfg.grid_size)]
    points = [(x, y) for x in grid for y in grid]
    targets = [_eq1(x, y, cfg.neg_conditional) for x, y in points]

    def loss():
        preds = [trainable_mp_strength(tape.constant(x), tape.constant(y), weights)
                 for x, y in points]
        return cross_entropy(preds, targets)

    losses = fit(weights, loss, cfg.lr, cfg.steps) if cfg.steps else []

    held = [i / (cfg.heldout_size - 1) for i in range(cfg.heldout_size)]
    errors = []
    for x in held:
        for y in held:
            pred = trainable_mp_strength(tape.constant(x), tape.constant(y),
                                         weights)
            errors.append(abs(pred.value - _eq1(x, y, cfg.neg_conditional)))
    result = {
        "experiment": "learn-formula",
        "seed": cfg.seed, "lr": cfg.lr, "steps": cfg.steps,
        "grid_size": cfg.grid_size, "heldout_size": cfg.heldout_size,
        "neg_conditional": cfg.neg_conditional,
        "weights": {"w%d" % i: w.value for i, w in enumerate(weights)},
        "max_abs_error": max(errors) if errors else 0.0,
        "mean_abs_error": sum(errors) / len(errors) if errors else 0.0,
    }
    write_report(cfg.out_dir, result, list(enumerate(losses)))
    return result
