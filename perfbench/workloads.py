"""The benchmark's four workloads: seeded inputs, one measured round, checks.

Each workload has ``build(seed, out_dir)``, the set-up before the first timed
call, ``run(ctx, check, speed)``, which makes the timed calls, with a
kernel sample (see speed.py) between ops when ``speed`` is given, and returns
a ``Round``, and ``rounds``, the fixed number of rounds an untraced run makes
(set from the first baseline so that they take about 20 s there).
Generated inputs reach the program only as KB text through ``sexpr.load_kb``
and query text through ``sexpr.parse_atom``.

The correctness checks recompute what they need from the generator's own
data and the paper's formulas, not from dpln internals.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from dpln import chainer, cli, rules, sexpr, training
from dpln.atomspace import AtomSpace
from dpln.autodiff import Tape

from tracer import dpln_modules, patch_sites, restore


@dataclass
class Round:
    """One set-up plus one pass over a workload's operations."""

    build_s: float = 0.0     # set-up in this process: inputs, load_kb, rules
    build_end: float = 0.0   # clock when the set-up ended
    call_s: float = 0.0      # wall time of the timed calls, less kernel runs
    latencies: list[float] = field(default_factory=list)  # s per operation
    ends: list[float] = field(default_factory=list)       # clock at each op's end
    attempted: int = 0       # operations checked
    failed: int = 0          # operations that failed a check

    @property
    def work_s(self) -> float:
        return self.build_s + self.call_s


def tick(speed) -> float:
    """The clock, after a kernel sample when one is due (see speed.py)."""
    return speed.tick() if speed is not None else perf_counter()


class OpClock:
    """Times every call to ``module.name``, patched at all its import sites,
    from the end of the previous one to its own end, less the kernel samples
    taken in between; ``key(args)``, when given, is recorded for each call.
    With a ``speed`` meter, a sample is due at each op's end and after each
    call to a ``sample_after`` function, so long ops are sampled inside."""

    def __init__(self, module, name: str, speed, key=None, sample_after=()):
        self.module, self.name, self.speed, self.key = module, name, speed, key
        self.sample_after = sample_after if speed is not None else ()
        self.stamps: list[tuple[float, float]] = []  # (clock, kernel time so far)
        self.keys: list = []

    def _stamp(self) -> None:
        self.stamps.append((perf_counter(),
                            self.speed.spent if self.speed else 0.0))

    def __enter__(self) -> "OpClock":
        original = getattr(self.module, self.name)

        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            self._stamp()
            if self.key is not None:
                self.keys.append(self.key(args))
            tick(self.speed)
            return out
        self._undo = patch_sites(dpln_modules(), original, wrapper)
        for module, name in self.sample_after:
            fn = getattr(module, name)
            self._undo += patch_sites(dpln_modules(), fn,
                                      _sampled(fn, self.speed))
        tick(self.speed)
        self._stamp()
        return self

    def __exit__(self, *exc) -> None:
        restore(self._undo)

    @property
    def ops(self) -> int:
        return len(self.stamps) - 1

    def timed(self, r: Round, end: float) -> Round:
        """Fills in ``r``'s op times.  The last op also takes what runs after
        it up to ``end``, so the op times add up to ``r.call_s``: the call's
        wall time less the kernel samples."""
        spent = self.speed.spent if self.speed else 0.0
        t0, k0 = self.stamps[0]
        if self.ops:
            self.stamps[-1] = (end, spent)
        pairs = list(zip(self.stamps, self.stamps[1:]))
        r.latencies = [(e - s) - (ke - ks) for (s, ks), (e, ke) in pairs]
        r.ends = [e for _, (e, _) in pairs]
        r.call_s = (end - t0) - (spent - k0)
        return r


def _sampled(fn, speed):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        speed.tick()
        return out
    return wrapper


def _stv(rng: random.Random) -> str:
    """A truth value whose strength lies strictly inside (0, 1)."""
    return "(stv %.4f 0.9)" % rng.uniform(0.05, 0.95)


def inheritance(a: str, b: str, tv: str = "") -> str:
    tv = tv + " " if tv else ""
    return '(InheritanceLink %s(ConceptNode "%s") (ConceptNode "%s"))' % (tv, a, b)


# -- fruit-colors ----------------------------------------------------------

FRUIT_PROBABILITIES = {
    "apple": {"yellow": 0.1, "red": 0.2, "green": 0.7},
    "banana": {"yellow": 0.8, "red": 0.1, "green": 0.1},
}
FRUIT_TOLERANCE = 0.01
FRUIT_SAMPLES = 500
FRUIT_STEPS = 2000


def check_fruit_colors(result: dict, n_samples: int) -> int:
    """Failed pairs: learned strength more than 0.01 from the empirical
    frequency, a frequency that is not a count over n_samples, a fruit whose
    frequencies do not sum to 1, or a pair missing from the report."""
    pairs = result["pairs"]
    totals: dict[str, float] = defaultdict(float)
    for p in pairs:
        totals[p["fruit"]] += p["empirical"]
    expected = sum(len(c) for c in FRUIT_PROBABILITIES.values())
    failed = max(expected - len(pairs), 0)
    for p in pairs:
        count = p["empirical"] * n_samples
        ok = (abs(p["learned"] - p["empirical"]) <= FRUIT_TOLERANCE
              and 0.0 < p["learned"] < 1.0
              and abs(count - round(count)) < 1e-6
              and abs(totals[p["fruit"]] - 1.0) < 1e-9)
        failed += not ok
    return failed


class FruitColors:
    """``cli.run_fruit_colors`` at the acceptance config; one op = one step."""

    op = "step"
    rounds = 3

    def __init__(self, n_samples: int = FRUIT_SAMPLES, steps: int = FRUIT_STEPS):
        self.n_samples, self.steps = n_samples, steps

    def build(self, seed: int, out_dir: str):
        fruits = list(FRUIT_PROBABILITIES)
        return cli.ExperimentConfig(
            experiment="fruit-colors", fruits=fruits,
            colors=list(FRUIT_PROBABILITIES[fruits[0]]),
            true_probabilities=FRUIT_PROBABILITIES, n_samples=self.n_samples,
            lr=0.1, steps=self.steps, seed=seed, out_dir=out_dir)

    def run(self, cfg, check: bool, speed=None) -> Round:
        with OpClock(training, "sgd_step", speed,
                     sample_after=[(chainer, "backward_chain")]) as clock:
            result = cli.run_fruit_colors(cfg)
            end = perf_counter()
        failed = check_fruit_colors(result, self.n_samples) if check else 0
        return clock.timed(Round(attempted=len(FRUIT_PROBABILITIES) * len(cfg.colors),
                                 failed=failed), end)


# -- learn-formula ---------------------------------------------------------

NEG_CONDITIONAL = 0.2
HELDOUT_SIZE = 21
HELDOUT_MEAN_GATE = 0.02
LEARN_STEPS = 1000


def heldout_mean_error(weights: dict, size: int = HELDOUT_SIZE) -> float:
    """Mean |sigmoid-linear rule - exact modus ponens| on a size x size grid.

    The rule is sigmoid(w0*a*b + w1*a + w2*b + w3) for P(A) = a and
    P(B|A) = b; exact modus ponens is b*a + P(B|not A)*(1 - a).
    """
    w0, w1, w2, w3 = (weights["w%d" % i] for i in range(4))
    grid = [i / (size - 1) for i in range(size)]
    total = 0.0
    for a in grid:
        for b in grid:
            z = w0 * a * b + w1 * a + w2 * b + w3
            pred = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else \
                math.exp(z) / (1.0 + math.exp(z))
            total += abs(pred - (b * a + NEG_CONDITIONAL * (1.0 - a)))
    return total / (size * size)


class LearnFormula:
    """``cli.run_learn_formula`` on the 11x11 grid; one op = one step.  The
    grid is fixed, so the seed does not change the inputs."""

    op = "step"
    rounds = 7

    def build(self, seed: int, out_dir: str):
        return cli.ExperimentConfig(
            experiment="learn-formula", lr=2.0, steps=LEARN_STEPS, seed=seed,
            grid_size=11, heldout_size=HELDOUT_SIZE,
            neg_conditional=NEG_CONDITIONAL, out_dir=out_dir)

    def run(self, cfg, check: bool, speed=None) -> Round:
        with OpClock(training, "sgd_step", speed) as clock:
            result = cli.run_learn_formula(cfg)
            end = perf_counter()
        failed = 0
        if check:
            failed = int(heldout_mean_error(result["weights"]) > HELDOUT_MEAN_GATE)
        return clock.timed(Round(attempted=1, failed=failed), end)


# -- query-mix -------------------------------------------------------------

QUERY_LADDERS = 40
LADDER_LENGTH = 4
QUERY_PATTERN = ((0, 2), (3, 1), (0, 4), (1, 3))   # (start, span) per stage
QUERY_PREDICATES = 40
QUERY_EVALUATIONS = 2500
QUERY_IMPLICATIONS = 300
QUERY_DEPTH = 3


def query_mix_inputs(seed: int, ladders: int, length: int, pattern,
                     predicates: int, evaluations: int, implications: int):
    """KB text, the ladder facts as (a, b) name pairs, and the query list.

    Ladder k is the chain L<k>-0 -> ... -> L<k>-<length> of InheritanceLinks;
    its ConceptNodes carry strengths inside (0, 1), so deduction evaluates
    its formula.  EvaluationLinks and ImplicationLinks are distractors.
    Each ladder is queried once per ``pattern`` entry (start, span), rotated
    by the ladder's index; queries go out stage by stage, with the ladders of
    a stage in seeded order.
    """
    rng = random.Random(seed)
    lines, facts = [], set()
    for k in range(ladders):
        names = ["L%d-%d" % (k, i) for i in range(length + 1)]
        lines += ['(ConceptNode %s "%s")' % (_stv(rng), n) for n in names]
        for a, b in zip(names, names[1:]):
            lines.append(inheritance(a, b, _stv(rng)))
            facts.add((a, b))
    for j in range(evaluations):
        lines.append('(EvaluationLink %s (PredicateNode "p%d") (ConceptNode "E%d"))'
                     % (_stv(rng), rng.randrange(predicates), j))
    pairs = [(p, q) for p in range(predicates) for q in range(predicates) if p != q]
    for p, q in rng.sample(pairs, implications):
        lines.append('(ImplicationLink %s (PredicateNode "p%d") (PredicateNode "p%d"))'
                     % (_stv(rng), p, q))
    queries = []
    for stage in range(len(pattern)):
        order = list(range(ladders))
        rng.shuffle(order)
        for k in order:
            start, span = pattern[(stage + k) % len(pattern)]
            queries.append(("L%d-%d" % (k, start), "L%d-%d" % (k, start + span)))
    return "\n".join(lines) + "\n", facts, queries


class LadderOracle:
    """All deduction proof trees of height <= depth over the generator's
    ladder facts, enumerated without the KB."""

    def __init__(self, facts):
        self.facts = set(facts)
        self.succ: dict[str, list[str]] = defaultdict(list)
        for a, b in sorted(facts):
            self.succ[a].append(b)
        self._memo: dict = {}

    def _reach(self, a: str) -> list[str]:
        seen, todo = [], list(self.succ[a])
        while todo:
            x = todo.pop()
            if x not in seen:
                seen.append(x)
                todo += self.succ[x]
        return seen

    def proofs(self, a: str, c: str, depth: int) -> frozenset:
        key = (a, c, depth)
        if key not in self._memo:
            out = set()
            if (a, c) in self.facts:
                out.add(inheritance(a, c))
            if depth >= 1:
                for b in self._reach(a):
                    lefts = self.proofs(a, b, depth - 1)
                    rights = self.proofs(b, c, depth - 1) if lefts else ()
                    out.update(("deduction", l, r) for l in lefts for r in rights)
            self._memo[key] = frozenset(out)
        return self._memo[key]


def proof_shape(kb: AtomSpace, trace):
    """A trace as nested tuples of rule names over leaf atoms' KB text."""
    if isinstance(trace, chainer.Leaf):
        return sexpr.format_atom(kb, trace.atom)
    return (trace.rule.name,) + tuple(proof_shape(kb, c) for c in trace.premises)


def asserted_inheritance(kb: AtomSpace) -> set[int]:
    return {a for a in kb.atoms_of_type("InheritanceLink") if kb.has_asserted_tv(a)}


def query_ok(kb: AtomSpace, results, asserted_before: set[int],
             expected: frozenset) -> bool:
    """Every strength lies in [0, 1], every leaf was asserted before the
    call, and the proofs include every expected one."""
    found = set()
    for _, strength, trace in results:
        if not 0.0 <= strength.value <= 1.0:
            return False
        if any(leaf.atom not in asserted_before for leaf in trace.leaves()):
            return False
        found.add(proof_shape(kb, trace))
    return expected <= found


class QueryMix:
    """Closed loop, one client: ground InheritanceLink queries of mixed span
    through ``parse_atom`` and ``backward_chain`` against one shared KB."""

    op = "query"
    rounds = 4

    def __init__(self, ladders: int = QUERY_LADDERS):
        self.ladders = ladders

    def build(self, seed: int, out_dir: str):
        text, facts, queries = query_mix_inputs(
            seed, self.ladders, LADDER_LENGTH, QUERY_PATTERN, QUERY_PREDICATES,
            QUERY_EVALUATIONS, QUERY_IMPLICATIONS)
        kb = AtomSpace(Tape())
        sexpr.load_kb(kb, text)
        return kb, rules.make_rule_set(kb), facts, queries

    def run(self, ctx, check: bool, speed=None) -> Round:
        kb, rule_set, facts, queries = ctx
        config = chainer.ChainConfig(max_depth=QUERY_DEPTH)
        oracle = LadderOracle(facts)
        r = Round(attempted=len(queries))
        for a, c in queries:
            before = asserted_inheritance(kb) if check else None
            t0 = perf_counter()
            target = sexpr.parse_atom(kb, inheritance(a, c))
            results = chainer.backward_chain(kb, rule_set, target, config)
            end = perf_counter()
            r.latencies.append(end - t0)
            r.ends.append(end)
            tick(speed)
            if check:
                r.failed += not query_ok(kb, results, before,
                                         oracle.proofs(a, c, QUERY_DEPTH))
        r.call_s = sum(r.latencies)
        return r


# -- forward-closure -------------------------------------------------------

CLOSURE_CONCEPTS = 40
CLOSURE_PREDICATES = 12
CLOSURE_ENTITIES = 24
CLOSURE_EVALUATIONS = 48
CLOSURE_IMPLICATIONS = 6
CLOSURE_STEPS = 60


def forward_closure_inputs(seed: int, concepts: int, predicates: int,
                           entities: int, evaluations: int, implications: int):
    """KB text plus the generator's facts: a random taxonomy tree of
    InheritanceLinks (child -> parent), distinct EvaluationLinks over
    predicates x entities, and distinct ImplicationLinks between predicates."""
    rng = random.Random(seed)
    lines = ['(ConceptNode %s "T%d")' % (_stv(rng), i) for i in range(concepts)]
    taxonomy = [("T%d" % i, "T%d" % rng.randrange(i)) for i in range(1, concepts)]
    lines += [inheritance(a, b, _stv(rng)) for a, b in taxonomy]
    evals = rng.sample([("P%d" % p, "X%d" % e) for p in range(predicates)
                        for e in range(entities)], evaluations)
    lines += ['(EvaluationLink %s (PredicateNode "%s") (ConceptNode "%s"))'
              % (_stv(rng), p, x) for p, x in evals]
    impls = rng.sample([("P%d" % p, "P%d" % q) for p in range(predicates)
                        for q in range(predicates) if p != q], implications)
    lines += ['(ImplicationLink %s (PredicateNode "%s") (PredicateNode "%s"))'
              % (_stv(rng), p, q) for p, q in impls]
    return "\n".join(lines) + "\n", ClosureModel(taxonomy, evals, impls)


def _closure(edges, start: str) -> set[str]:
    succ = defaultdict(list)
    for a, b in edges:
        succ[a].append(b)
    seen, todo = set(), [start]
    while todo:
        for y in succ[todo.pop()]:
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


class ClosureModel:
    """Which atoms the generator's facts justify under the rule set."""

    def __init__(self, taxonomy, evals, impls):
        self.taxonomy, self.impls = taxonomy, impls
        self.evals = set(evals)

    def justified_eval(self, shape) -> bool:
        """A fact, or Eval(Q, X) with Q implied by a predicate of X."""
        if len(shape) != 3 or shape[0] != "EvaluationLink":
            return False
        (_, q), (_, x) = shape[1], shape[2]
        return (q, x) in self.evals or any(
            q in _closure(self.impls, p) for p, y in self.evals if y == x)

    def justified(self, shape) -> bool:
        kind, args = shape[0], shape[1:]
        if kind == "InheritanceLink":
            (_, a), (_, b) = args
            return b in _closure(self.taxonomy, a)
        if kind == "EvaluationLink":
            return self.justified_eval(shape)
        if kind in ("AndLink", "OrLink") and len(args) == 2 or \
                kind == "NotLink" and len(args) == 1:
            return all(self.justified_eval(a) for a in args)
        return False


def atom_shape(kb: AtomSpace, atom_id: int):
    """(type, name) for a node, (type, *children) for a link."""
    atom = kb.atom(atom_id)
    if atom.type.is_node:
        return (atom.type.name, atom.name)
    return (atom.type.name,) + tuple(atom_shape(kb, o) for o in atom.outgoing)


def firing_key(args) -> tuple:
    """(rule name, binding) of one ``apply_rule(kb, rule, binding, ...)``."""
    return args[1].name, tuple(sorted(args[2].items()))


def check_forward(kb: AtomSpace, new_atoms, firings, model: ClosureModel) -> int:
    """Failed firings: repeats of a (rule, binding) pair plus new atoms that
    the generator's facts do not justify."""
    repeats = len(firings) - len(set(firings))
    return repeats + sum(not model.justified(atom_shape(kb, a)) for a in new_atoms)


class ForwardClosure:
    """``forward_chain`` with the full rule set on a small generated KB; one
    op = one firing (rule application)."""

    op = "firing"
    rounds = 6

    def __init__(self, steps: int = CLOSURE_STEPS):
        self.steps = steps

    def build(self, seed: int, out_dir: str):
        text, model = forward_closure_inputs(
            seed, CLOSURE_CONCEPTS, CLOSURE_PREDICATES, CLOSURE_ENTITIES,
            CLOSURE_EVALUATIONS, CLOSURE_IMPLICATIONS)
        kb = AtomSpace(Tape())
        sexpr.load_kb(kb, text)
        config = chainer.ChainConfig(max_steps=self.steps, seed=seed)
        return kb, rules.make_rule_set(kb), config, model

    def run(self, ctx, check: bool, speed=None) -> Round:
        kb, rule_set, config, model = ctx
        with OpClock(chainer, "apply_rule", speed, key=firing_key) as clock:
            new_atoms, _ = chainer.forward_chain(kb, rule_set, config)
            end = perf_counter()
        firings = clock.ops
        failed = check_forward(kb, new_atoms, clock.keys, model) if check else 0
        return clock.timed(Round(attempted=firings, failed=min(failed, firings)),
                           end)


WORKLOADS = {
    "fruit-colors": FruitColors,
    "learn-formula": LearnFormula,
    "query-mix": QueryMix,
    "forward-closure": ForwardClosure,
}


def run_round(workload, seed: int, out_dir: str, check: bool = True,
              speed=None) -> Round:
    """Set-up, then the timed calls; the set-up time lands in ``build_s``.
    With a ``speed`` meter, kernel samples run between the timed ops."""
    t0 = perf_counter()
    ctx = workload.build(seed, out_dir)
    build_end = perf_counter()
    r = workload.run(ctx, check, speed)
    r.build_s, r.build_end = build_end - t0, build_end
    return r
