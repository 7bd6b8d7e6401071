"""Command-line experiment runner.

Commands:
    dpln fruit-colors  --config F [overrides]   learn implication strengths
    dpln learn-formula --config F [overrides]   fit the sigmoid-linear formula
    dpln joint         --config F [overrides]   learn formula + strengths
    dpln chain --kb F (--target S | --forward)  run the chainer on a KB file

Configs are TOML files of flat keys (dotted keys or tables for
``probabilities``); command-line flags win over the file.
Exit codes: 0 success or ``--help``, 1 validation/parse error (a malformed
command line too), 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import sys

from .atomspace import TYPES, AtomSpace, TruthValue
from .autodiff import Tape, VarRef
from .chainer import ChainConfig, ChainError, backward_chain, forward_chain
from .rules import DEFAULT_NEG_CONDITIONAL, make_modus_ponens_rule, make_rule_set
from .sexpr import SexprError, format_atom, load_kb, parse_atom
from .training import (LabeledExample, LearnableStrength, TrainConfig,
                       empirical_frequency, predict, train)


class ConfigError(Exception):
    pass


# -- config files ----------------------------------------------------------

# A TOML string or comment, whose brackets do not nest, or one bracket.
# Compiled on first use: only a config that nests too deeply needs it.
_TOML_BRACKET = (r'"""(?:\\[\s\S]|[^\\])*?"""' r"|'''[\s\S]*?'''"
                 r'|"(?:\\.|[^"\\\n])*"' r"|'[^'\n]*'|#.*|[][{}]")


def _deepest_line(text: str) -> int:
    """The line where bracket depth first peaks, outside strings and comments."""
    depth = peak = peak_at = 0
    for m in re.finditer(_TOML_BRACKET, text):
        tok = m.group()
        if tok in ("[", "{"):
            depth += 1
            if depth > peak:
                peak, peak_at = depth, m.start()
        elif tok in ("]", "}"):
            depth -= 1
    return text.count("\n", 0, peak_at) + 1


def parse_config_text(text: str) -> dict:
    """The TOML config ``text`` as a dict.  Raises ConfigError for bad
    TOML, with tomllib's "(at line L, column C)", or for nesting too deep,
    with the line where the nesting is deepest."""
    import tomllib  # here: at module level it slows `import dpln.cli`
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(str(exc)) from None
    except RecursionError:
        raise ConfigError("config nests too deeply (at line %d)"
                          % _deepest_line(text)) from None


class ExperimentConfig:
    def __init__(self, experiment: str = "", fruits: list[str] | None = None,
                 colors: list[str] | None = None, true_probabilities: dict | None = None,
                 n_samples: int = 500, lr: float = 0.1, steps: int = 2000, seed: int = 0,
                 out_dir: str = "out", neg_conditional: float = DEFAULT_NEG_CONDITIONAL,
                 grid_size: int = 11, heldout_size: int = 21):
        self.experiment = experiment
        self.fruits = ["apple", "banana"] if fruits is None else fruits
        self.colors = ["yellow", "red", "green"] if colors is None else colors
        self.true_probabilities = {} if true_probabilities is None else true_probabilities
        self.n_samples, self.lr, self.steps, self.seed = n_samples, lr, steps, seed
        self.out_dir, self.neg_conditional = out_dir, neg_conditional
        self.grid_size, self.heldout_size = grid_size, heldout_size

    @classmethod
    def load(cls, path: str | None, overrides: dict,
             defaults: dict | None = None) -> "ExperimentConfig":
        data = {}
        if path is not None:
            with open(path, encoding="utf-8-sig") as fh:
                data = parse_config_text(fh.read())
        cfg = cls()
        for key, value in (defaults or {}).items():
            setattr(cfg, key, value)
        mapping = {
            "fruits": "fruits", "colors": "colors", "n_samples": "n_samples",
            "lr": "lr", "steps": "steps", "seed": "seed", "out": "out_dir",
            "probabilities": "true_probabilities",
            "neg_conditional": "neg_conditional", "grid_size": "grid_size",
            "heldout_size": "heldout_size",
        }
        for key, value in data.items():
            if key not in mapping:
                raise ConfigError("unknown config key %r" % key)
            _check_type(key, value, getattr(cfg, mapping[key]))
            setattr(cfg, mapping[key], value)
        for key, value in overrides.items():
            if value is not None:
                setattr(cfg, key, value)
        if not 0.0 <= cfg.neg_conditional <= 1.0:
            raise ConfigError("neg_conditional must lie in [0, 1]")
        if not 0.0 < cfg.lr < math.inf:
            raise ConfigError("lr must be positive and finite")
        if cfg.steps < 0:
            raise ConfigError("steps must be >= 0")
        return cfg

    def validate_fruit(self) -> None:
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if not self.fruits:
            raise ConfigError("fruits must be nonempty")
        if not self.colors:
            raise ConfigError("colors must be nonempty")
        names = self.fruits + self.colors
        repeated = [n for i, n in enumerate(names) if n in names[:i]]
        if repeated:
            raise ConfigError("fruits and colors must all differ: %r repeats"
                              % repeated[0])
        for fruit in self.fruits:
            probs = self.true_probabilities.get(fruit)
            if not isinstance(probs, dict):
                raise ConfigError("probabilities.%s missing" % fruit)
            missing = [c for c in self.colors if c not in probs]
            if missing:
                raise ConfigError("probabilities.%s missing color(s): %s"
                                  % (fruit, ", ".join(missing)))
            for c in self.colors:  # the range test also rejects nan
                if type(probs[c]) not in (int, float) or not 0 <= probs[c] <= 1:
                    raise ConfigError("probabilities.%s.%s must be a number in "
                                      "[0, 1], got %r" % (fruit, c, probs[c]))
            total = sum(float(probs[c]) for c in self.colors)
            if abs(total - 1.0) > 1e-9:
                raise ConfigError("probabilities.%s sum to %.12g, expected 1"
                                  % (fruit, total))


def _check_type(key: str, value, default) -> None:
    """Rejects a config value whose type differs from the field default's;
    an int may stand for a float, and list items must match too."""
    expected = type(default)
    ok = type(value) is expected or (expected is float and type(value) is int)
    if ok and expected is list and default:
        ok = all(type(v) is type(default[0]) for v in value)
    if not ok:
        raise ConfigError("config key %r: expected %s, got %r"
                          % (key, expected.__name__, value))


# -- report helpers --------------------------------------------------------

def _round9(obj):
    """Fixes floats to 9 significant digits for byte-stable reports."""
    if isinstance(obj, float):
        return float("%.9g" % obj)
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round9(v) for v in obj]
    return obj


def write_report(out_dir: str, report: dict, loss_rows: list[tuple[int, float]]):
    os.makedirs(out_dir or ".", exist_ok=True)  # "" is the current directory
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(_round9(report), fh, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, "loss.csv"), "w", newline="") as fh:  # csv.writer's bytes
        fh.write("step,loss\r\n" + "".join("%d,%.9g\r\n" % row for row in loss_rows))


# -- experiments -----------------------------------------------------------

def run_fruit_colors(cfg: ExperimentConfig) -> dict:
    """Samples fruit instances, learns one implication strength per
    fruit x color pair, and compares each against the empirical frequency."""
    cfg.validate_fruit()
    tape = Tape()
    kb = AtomSpace(tape)
    rng = random.Random(cfg.seed)
    evaluation = TYPES["EvaluationLink"]  # for kb._link, over ids kb just gave

    instances: dict[str, list[tuple[int, str]]] = {}
    for fruit in cfg.fruits:
        pred = kb.node("PredicateNode", fruit)
        instances[fruit] = []
        probs = [float(cfg.true_probabilities[fruit][c]) for c in cfg.colors]
        colors = rng.choices(cfg.colors, weights=probs, k=cfg.n_samples)
        for i, color in enumerate(colors):
            concept = kb.node("ConceptNode", "%s-%03d" % (fruit, i + 1))
            kb.set_tv(kb._link(evaluation, (pred, concept)),
                      TruthValue(tape.constant(1.0), 1.0))
            instances[fruit].append((concept, color))

    mp_rule = make_modus_ponens_rule(kb, cfg.neg_conditional)
    pairs = []
    loss_totals = [0.0] * cfg.steps
    for fruit in cfg.fruits:
        for color in cfg.colors:
            impl = kb.link("ImplicationLink",
                           kb.node("PredicateNode", fruit),
                           kb.node("PredicateNode", color))
            learnable = LearnableStrength(tape, init=0.5)
            learnable.attach(kb, impl)
            dataset = []
            color_pred = kb.node("PredicateNode", color)
            for concept, sampled in instances[fruit]:
                target = kb._link(evaluation, (color_pred, concept))
                dataset.append(LabeledExample(target, 1 if sampled == color else 0))
            tc = TrainConfig(learning_rate=cfg.lr, steps=cfg.steps)
            losses = train(kb, [mp_rule], dataset, [learnable.theta], tc,
                           learnables=[learnable])
            loss_totals = [a + b for a, b in zip(loss_totals, losses)]
            learned = learnable.value()
            empirical = empirical_frequency(dataset)
            pairs.append({
                "fruit": fruit, "color": color,
                "learned": learned, "empirical": empirical,
                "abs_diff": abs(learned - empirical),
            })

    result = {
        "experiment": "fruit-colors",
        "seed": cfg.seed, "n_samples": cfg.n_samples,
        "lr": cfg.lr, "steps": cfg.steps,
        "pairs": pairs,
        "max_abs_diff": max(p["abs_diff"] for p in pairs),
    }
    write_report(cfg.out_dir, result, list(enumerate(loss_totals)))
    return result


def _eq1(p_a: float, p_bga: float, p_bgna: float) -> float:
    return p_bga * p_a + p_bgna * (1.0 - p_a)


def facts(kb: AtomSpace, neg_conditional: float, name: str, p_bga: float,
          p_as, learnable: LearnableStrength | None = None) -> list:
    """Asserts Impl(A, B), at p_bga or else by attaching ``learnable``, and
    Eval(A, x) at each P(A); returns each target Eval(B, x), labeled with its
    exact strength at P(B|A) = p_bga."""
    a, b = (kb.node("PredicateNode", name + end) for end in ("-A", "-B"))
    impl = kb.link("ImplicationLink", a, b)
    if learnable is None:
        kb.set_tv(impl, TruthValue(kb.tape.constant(p_bga), 1.0))
    else:
        learnable.attach(kb, impl)
    examples = []
    for p_a in p_as:
        x = kb.node("ConceptNode", "x-%g" % p_a)
        kb.set_tv(kb.link("EvaluationLink", a, x),
                  TruthValue(kb.tape.constant(p_a), 1.0))
        examples.append(LabeledExample(kb.link("EvaluationLink", b, x),
                                       _eq1(p_a, p_bga, neg_conditional)))
    return examples


def grid(kb: AtomSpace, neg_conditional: float, prefix: str, p_as,
         p_bgas) -> list:
    """Asserts one ``facts`` column per P(B|A), named ``prefix-j``; returns
    the examples P(A)-major."""
    columns = [facts(kb, neg_conditional, "%s-%d" % (prefix, j), p_bga, p_as)
               for j, p_bga in enumerate(p_bgas)]
    return [ex for row in zip(*columns) for ex in row]


def _train_and_score(kb: AtomSpace, weights: list[VarRef], learnables: list,
                     dataset: list, heldout: list, cfg: ExperimentConfig):
    """Trains ``weights`` (the formula's four parameters) and ``learnables``
    on ``dataset`` through trainable modus ponens at depth 1, no call at 0
    steps; returns the losses, each held-out error, read through ``predict``
    as ``train`` reads its own, and the report's weights, w0 to w3."""
    rules = [make_modus_ponens_rule(kb, weights=weights)]
    params = weights + [ls.theta for ls in learnables]
    losses = (train(kb, rules, dataset, params,
                    TrainConfig(cfg.lr, cfg.steps, chain_depth=1), learnables)
              if cfg.steps else [])
    errors = [abs(s.value - ex.label)
              for s, ex in zip(predict(kb, rules, heldout, 1), heldout)]
    return losses, errors, {"w%d" % i: w.value for i, w in enumerate(weights)}


def run_learn_formula(cfg: ExperimentConfig) -> dict:
    """Fits the trainable sigmoid-linear formula to exact modus ponens
    targets by one ``train`` call through the KB, as joint does; reports
    the error on a held-out grid asserted under names of its own, read
    through ``predict`` over the same traces that ``train`` fits."""
    if cfg.grid_size < 1 or cfg.heldout_size < 2:
        raise ConfigError("grid sizes must be sensible (>=1 / >=2)")
    kb = AtomSpace(Tape())
    weights = [kb.tape.parameter(0.0) for _ in range(4)]
    train_axis, held_axis = ([i / (n - 1) if n > 1 else 0.5 for i in range(n)]
                             for n in (cfg.grid_size, cfg.heldout_size))
    dataset = grid(kb, cfg.neg_conditional, "train", train_axis, train_axis)
    heldout = grid(kb, cfg.neg_conditional, "heldout", held_axis, held_axis)
    losses, errors, report_weights = _train_and_score(kb, weights, [], dataset,
                                                      heldout, cfg)
    result = {
        "experiment": "learn-formula",
        "seed": cfg.seed, "lr": cfg.lr, "steps": cfg.steps,
        "grid_size": cfg.grid_size, "heldout_size": cfg.heldout_size,
        "neg_conditional": cfg.neg_conditional,
        "weights": report_weights,
        "max_abs_error": max(errors),
        "mean_abs_error": sum(errors) / len(errors),
    }
    write_report(cfg.out_dir, result, list(enumerate(losses)))
    return result


def run_joint(cfg: ExperimentConfig) -> dict:
    """Learns the formula weights and hidden implication strengths together,
    in one ``train`` call through the KB and the trainable modus ponens
    rule; gates held-out prediction error, read through ``predict`` over the
    same traces that ``train`` fits, and reports (but does not gate) how far
    the learned strengths drift from their generating values."""
    tape = Tape()
    kb = AtomSpace(tape)
    weights = [tape.parameter(0.0) for _ in range(4)]
    rng = random.Random(cfg.seed)
    neg = cfg.neg_conditional

    dataset = grid(kb, neg, "known", (0.25, 0.5, 0.75, 1.0),
                   (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8))
    learnables = [LearnableStrength(tape, init=0.5) for _ in range(6)]
    true_strengths = [0.15 + 0.7 * rng.random() for _ in learnables]
    heldout = []
    for k, (ls, s_true) in enumerate(zip(learnables, true_strengths)):
        # P(A) 0.6, 0.8 and 1.0 train; 0.7 and 0.9 are held out
        examples = facts(kb, neg, "hidden-%d" % k, s_true,
                         (0.6, 0.8, 1.0, 0.7, 0.9), ls)
        dataset += examples[:3]
        heldout += examples[3:]
    heldout += grid(kb, neg, "midpoint", (0.3, 0.6, 0.9), (0.25, 0.45, 0.65))
    losses, held_errors, report_weights = _train_and_score(
        kb, weights, learnables, dataset, heldout, cfg)
    result = {
        "experiment": "joint",
        "seed": cfg.seed, "lr": cfg.lr, "steps": cfg.steps,
        "weights": report_weights,
        "learned_strengths": [ls.value() for ls in learnables],
        "true_strengths": true_strengths,
        "strength_abs_deviation": [abs(ls.value() - s) for ls, s
                                   in zip(learnables, true_strengths)],
        "max_heldout_abs_error": max(held_errors),
        "mean_heldout_abs_error": sum(held_errors) / len(held_errors),
    }
    write_report(cfg.out_dir, result, list(enumerate(losses)))
    return result


def run_chain(kb_path: str, target: str | None, forward: bool,
              steps: int, depth: int, seed: int) -> int:
    """Loads a KB file and runs the chainer, printing derived atoms."""
    config = ChainConfig(max_steps=steps, max_depth=depth, seed=seed)
    kb = AtomSpace(Tape())
    with open(kb_path, encoding="utf-8-sig") as fh:
        load_kb(kb, fh.read())
    rules = make_rule_set(kb)
    if forward:
        new_atoms, _ = forward_chain(kb, rules, config)
        for atom in new_atoms:
            print(format_atom(kb, atom, with_tv=True))
        return 0
    target_id = parse_atom(kb, target)
    for _, strength, trace in backward_chain(kb, rules, target_id, config):
        print("%s ; strength %.9g" % (format_atom(kb, trace.conclusion),
                                      strength.value))
    return 0


# -- entry point -----------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", default=None)
    sub.add_argument("--lr", type=float, default=None)
    sub.add_argument("--steps", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", dest="out_dir", default=None)


class _Parser(argparse.ArgumentParser):  # its subparsers are _Parsers too
    def error(self, message):  # a usage error is an input error: exit 1
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpln", description="Differentiable PLN runner")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("fruit-colors", "learn-formula", "joint"):
        _add_common(subs.add_parser(name))
    chain = subs.add_parser("chain")
    chain.add_argument("--kb", required=True)
    mode = chain.add_mutually_exclusive_group(required=True)
    mode.add_argument("--target", default=None)
    mode.add_argument("--forward", action="store_true")
    chain.add_argument("--steps", type=int, default=100)
    chain.add_argument("--depth", type=int, default=5)
    chain.add_argument("--seed", type=int, default=0)
    return parser


_EXPERIMENT_DEFAULTS = {
    "learn-formula": dict(lr=2.0, steps=5000),
    "joint": dict(lr=2.0, steps=5000),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "chain":
            return run_chain(args.kb, args.target, args.forward,
                             args.steps, args.depth, args.seed)
        overrides = {"lr": args.lr, "steps": args.steps, "seed": args.seed,
                     "out_dir": args.out_dir}
        cfg = ExperimentConfig.load(args.config, overrides,
                                    defaults=_EXPERIMENT_DEFAULTS.get(args.command))
        runner = {"fruit-colors": run_fruit_colors,
                  "learn-formula": run_learn_formula,
                  "joint": run_joint}[args.command]
        runner(cfg)
        return 0
    except (ConfigError, SexprError, ChainError, OSError,
            UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError:  # a chain's backward search grows with --depth
        print("error: out of memory" + "; try a smaller --depth" * (
            args.command == "chain"), file=sys.stderr)
        return 1
    except Exception as exc:
        print("internal error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
