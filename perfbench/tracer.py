"""Per-layer tracing for the benchmark, installed from outside ``src/``.

The tracer wraps public functions and methods of the eight dpln modules at
every import site (module attributes that hold the same function object), so
calls made through ``dpln.cli``, ``dpln.training`` or ``dpln.chainer`` are all
seen.  It records two kinds of data:

* counters: exact call and outcome counts for hot leaf calls (``unify``,
  ``has_asserted_tv``, ``intern_*``, ...), never one span each;
* self times: coarse boundaries (an experiment call, ``backward_chain``,
  ``Tape.backward``, ...) and the formula calls keep a stack of open frames;
  each frame's duration minus the time its child frames cover is added to
  that boundary's self time.  The root frame is the benchmark itself, so the
  self times add up to the traced wall time.

Nothing is patched until ``install`` is called, and ``uninstall`` restores
every attribute it replaced.
"""

from __future__ import annotations

import types
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("autodiff", "atomspace", "sexpr", "pattern", "chainer", "rules",
           "training", "cli")

FORMULAS = ("modus_ponens_strength", "deduction_strength", "fuzzy_and",
            "fuzzy_or", "fuzzy_not", "trainable_mp_strength")

# self-time metrics; the root frame is the benchmark's own code
TIMERS = ("autodiff.backward_s", "sexpr.load_kb_s", "sexpr.parse_atom_s",
          "pattern.match_s", "chainer.backward_chain_s",
          "chainer.forward_chain_s", "chainer.replay_s", "rules.formula_s",
          "training.train_s", "training.cross_entropy_s",
          "training.sgd_step_s", "cli.experiment_s", "cli.soft_ce_loss_s",
          "cli.write_report_s", "bench.self_s")
ROOT = "bench.self_s"


def dpln_modules() -> list[types.ModuleType]:
    """The ``dpln`` package and its eight modules: every import site."""
    import importlib
    pkg = importlib.import_module("dpln")
    return [pkg] + [importlib.import_module("dpln." + m) for m in MODULES]


def patch_sites(modules, original, replacement) -> list[tuple]:
    """Replaces ``original`` by ``replacement`` in every module attribute that
    holds it; returns (module, name, old) entries for ``restore``."""
    undo = []
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, name, value))
                setattr(mod, name, replacement)
    return undo


def restore(undo: list[tuple]) -> None:
    for obj, name, old in reversed(undo):
        setattr(obj, name, old)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Counters and self times over the eight dpln modules."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list[list[float]] = []
        self._undo: list[tuple] = []
        self._tapes: list = []
        self._spaces: list = []
        self._discarded = 0       # tape records dropped by reset_to
        self._replay_depth = 0
        self._forward_depth = 0
        self.wall_s = 0.0

    # -- install ----------------------------------------------------------

    def install(self, modules=None) -> None:
        modules = modules or dpln_modules()
        pkg = modules[0]
        c = self.counts

        def patch(module, name, wrap):
            original = getattr(getattr(pkg, module), name, None)
            if original is not None:
                self._undo.extend(patch_sites(modules, original, wrap(original)))

        def method(cls, name, wrap):
            self._undo.append((cls, name, cls.__dict__[name]))
            setattr(cls, name, wrap(cls.__dict__[name]))

        def span(metric, after=None):
            return lambda f: self._timed(metric, f, after)

        def counted(counter):
            return lambda f: self._counted(counter, f)

        patch("sexpr", "load_kb", span(
            "sexpr.load_kb_s", lambda a, out: c.update(atoms_loaded=len(out))))
        patch("sexpr", "parse_atom", span("sexpr.parse_atom_s"))
        patch("pattern", "match", span(
            "pattern.match_s", lambda a, out: c.update(match=1, bindings=len(out))))
        patch("pattern", "unify", self._unify)
        patch("pattern", "substitute", counted("substitute"))
        patch("chainer", "backward_chain", span(
            "chainer.backward_chain_s", lambda a, out: c.update(proofs=len(out))))
        patch("chainer", "forward_chain", self._forward)
        patch("chainer", "apply_rule", self._apply_rule)
        for name in FORMULAS:
            patch("rules", name, lambda f: self._counted(
                "formula", self._timed("rules.formula_s", f)))
        patch("training", "train", span("training.train_s"))
        patch("training", "cross_entropy", span("training.cross_entropy_s"))
        patch("training", "sgd_step", span(
            "training.sgd_step_s", lambda a, out: c.update(steps=1)))
        patch("cli", "run_fruit_colors", span("cli.experiment_s"))
        patch("cli", "run_learn_formula", span("cli.experiment_s"))
        # the CLI's own copy of the loss, used by learn-formula and joint
        patch("cli", "_soft_ce_loss", span("cli.soft_ce_loss_s"))
        patch("cli", "write_report", span("cli.write_report_s", self._report_written))

        space, tape = pkg.atomspace.AtomSpace, pkg.autodiff.Tape
        method(space, "has_asserted_tv", counted("has_asserted_tv"))
        method(space, "set_tv", counted("set_tv"))
        method(space, "intern_node", counted("intern"))
        method(space, "intern_link", counted("intern"))
        method(space, "__init__", lambda f: self._registering(f, self._spaces))
        method(tape, "__init__", lambda f: self._registering(f, self._tapes))
        method(tape, "reset_to", self._reset_to)
        method(tape, "backward", span("autodiff.backward_s"))
        method(pkg.chainer.Derivation, "replay", self._replay)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def run(self, fn, *args, **kwargs):
        """Calls fn inside the root frame and adds to the traced wall time."""
        frame = [0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            self.wall_s += dt
            self.self_s[ROOT] += dt - frame[0]

    # -- wrappers ---------------------------------------------------------

    def _timed(self, metric: str, fn, after=None):
        """Wraps fn in a frame whose self time is added to ``metric``;
        ``after(args, result)`` updates counters once the call returns."""
        stack, self_s = self._stack, self.self_s

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[metric] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _counted(self, counter: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _registering(self, init, registry):
        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            registry.append(obj)
        return wrapper

    def _reset_to(self, reset_to):
        def wrapper(tape, mark):
            self._discarded += max(len(tape) - mark, 0)
            return reset_to(tape, mark)
        return wrapper

    def _unify(self, unify):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["unify"] += 1
            out = unify(*args, **kwargs)
            if out is not None:
                counts["unify_hits"] += 1
            return out
        return wrapper

    def _apply_rule(self, apply_rule):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["apply_rule"] += 1
            if self._forward_depth:
                counts["firings"] += 1
            return apply_rule(*args, **kwargs)
        return wrapper

    def _forward(self, forward_chain):
        timed = self._timed("chainer.forward_chain_s", forward_chain)

        def wrapper(*args, **kwargs):
            self._forward_depth += 1
            try:
                return timed(*args, **kwargs)
            finally:
                self._forward_depth -= 1
        return wrapper

    def _replay(self, replay):
        """Times outermost replays.  Every Derivation.replay call either finds
        its key in the memo or adds exactly one entry, so hits are the calls
        that did not grow it."""
        counts = self.counts
        timed = self._timed("chainer.replay_s", replay)

        def wrapper(trace, kb, memo):
            counts["replay"] += 1
            if self._replay_depth:
                return replay(trace, kb, memo)
            before = len(memo)
            self._replay_depth += 1
            try:
                return timed(trace, kb, memo)
            finally:
                self._replay_depth -= 1
                counts["replay_misses"] += len(memo) - before
        return wrapper

    def _report_written(self, args, out) -> None:
        out_dir = Path(args[0])
        self.counts["report_bytes"] += sum(
            p.stat().st_size for p in out_dir.iterdir() if p.is_file())

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c = self.counts
        records = self._discarded + sum(len(t) for t in self._tapes)
        m = {
            "autodiff.records": records,
            "autodiff.records_per_step": _ratio(records, c["steps"]),
            "atomspace.has_asserted_tv_calls": c["has_asserted_tv"],
            "atomspace.set_tv_calls": c["set_tv"],
            "atomspace.intern_calls": c["intern"],
            "atomspace.atoms": sum(len(kb) for kb in self._spaces),
            "sexpr.atoms_loaded": c["atoms_loaded"],
            "pattern.match_calls": c["match"],
            "pattern.bindings": c["bindings"],
            "pattern.unify_calls": c["unify"],
            "pattern.unify_hit_ratio": _ratio(c["unify_hits"], c["unify"]),
            "pattern.substitute_calls": c["substitute"],
            "chainer.proofs": c["proofs"],
            "chainer.apply_rule_calls": c["apply_rule"],
            "chainer.proofs_per_apply": _ratio(c["proofs"], c["apply_rule"]),
            "chainer.firings": c["firings"],
            "chainer.firings_per_binding": _ratio(c["firings"], c["bindings"]),
            "chainer.replay_memo_hit_ratio": _ratio(
                c["replay"] - c["replay_misses"], c["replay"]),
            "rules.formula_calls": c["formula"],
            "training.steps": c["steps"],
            "cli.report_bytes": c["report_bytes"],
            "trace.wall_s": self.wall_s,
        }
        m.update((name, self.self_s.get(name, 0.0)) for name in TIMERS)
        return m
