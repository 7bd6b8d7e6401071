"""Scalar reverse-mode autodiff on an append-only tape.

Every truth-value strength in the engine is a scalar, so the tape records
scalar operations only.  Local partial derivatives are computed at forward
time; ``backward`` is a single reverse sweep over the record list.

The tape supports checkpoint/rollback (``mark`` / ``reset_to``) so a training
loop can keep leaf parameters alive while it re-traces the formula graph.
``trace_loss`` compiles a traced graph once into straight-line Python that
recomputes it in place; ``check_unit`` range checks and ``at_least``
branches become guards in that code.
"""

from __future__ import annotations

import math
from typing import Callable

LOG_EPS = 1e-7
# slack of ``Tape.check_unit``: values within it of [0, 1] pass
UNIT_TOL = 1e-9


class AutodiffError(Exception):
    pass


class VarRef:
    """Handle to one record on a tape."""

    __slots__ = ("tape", "index")

    def __init__(self, tape: "Tape", index: int):
        self.tape = tape
        self.index = index

    @property
    def value(self) -> float:
        self._check_live()
        if self.tape._reads is not None:
            self.tape._reads.append(self.index)
        return self.tape._values[self.index]

    @value.setter
    def value(self, x: float) -> None:
        self._check_live()
        if self.tape._reads is not None:
            self.tape._reads.append(self.index)
        self.tape._values[self.index] = x

    @property
    def grad(self) -> float:
        self._check_live()
        return self.tape._grads[self.index]

    @property
    def requires_grad(self) -> bool:
        self._check_live()
        return self.index in self.tape._param_indices

    def _check_live(self) -> None:
        if self.index >= len(self.tape._values):
            raise AutodiffError(
                "stale VarRef: record %d was discarded by a tape reset" % self.index
            )

    def __repr__(self):
        if self.index < len(self.tape._values):
            return "VarRef(%d, value=%g)" % (self.index, self.value)
        return "VarRef(%d, stale)" % self.index


def _stable_sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


class Tape:
    """Append-only record list; input indices always precede their record."""

    def __init__(self):
        self._values: list[float] = []
        self._grads: list[float] = []
        # per record: (opcode, input, partial) or (opcode, input, partial,
        # input, partial), the opcode being the method name; () for leaves
        self._deps: list[tuple] = []
        self._param_indices: set[int] = set()
        self._const_cache: dict[float, int] = {}
        # indices whose value was read or set while trace_loss traces
        self._reads: list[int] | None = None
        # check_unit and at_least calls made while trace_loss traces, in
        # order: (record count, tested index, guard statement, its payload)
        self._guards: list[tuple] | None = None

    def __len__(self) -> int:
        return len(self._values)

    @property
    def parameters(self) -> list[VarRef]:
        """The trainable leaves, in index order.  Not stored: VarRefs point
        back at the tape, so a stored list would make a reference cycle."""
        return [VarRef(self, i) for i in sorted(self._param_indices)]

    # -- construction -----------------------------------------------------

    def _record(self, value: float, rec: tuple) -> VarRef:
        i = len(self._values)
        self._values.append(value)
        self._grads.append(0.0)
        self._deps.append(rec)
        return VarRef(self, i)

    def constant(self, x: float) -> VarRef:
        """Leaf with requires_grad=False.  Cached per value."""
        x = float(x)
        if not math.isfinite(x):
            raise AutodiffError("constant must be finite, got %r" % x)
        idx = self._const_cache.get(x)
        if idx is not None:
            return VarRef(self, idx)
        ref = self._record(x, ())
        self._const_cache[x] = ref.index
        return ref

    def parameter(self, x: float) -> VarRef:
        """Trainable leaf; each call creates a distinct record."""
        x = float(x)
        if not math.isfinite(x):
            raise AutodiffError("parameter must be finite, got %r" % x)
        ref = self._record(x, ())
        self._param_indices.add(ref.index)
        return ref

    def _pair(self, a: VarRef, b: VarRef) -> None:
        if a.tape is not self or b.tape is not self:
            raise AutodiffError("VarRefs belong to a different tape")
        a._check_live()
        b._check_live()

    def _one(self, a: VarRef) -> None:
        if a.tape is not self:
            raise AutodiffError("VarRef belongs to a different tape")
        a._check_live()

    def add(self, a: VarRef, b: VarRef) -> VarRef:
        self._pair(a, b)
        return self._record(self._values[a.index] + self._values[b.index],
                            ("add", a.index, 1.0, b.index, 1.0))

    def sub(self, a: VarRef, b: VarRef) -> VarRef:
        self._pair(a, b)
        return self._record(self._values[a.index] - self._values[b.index],
                            ("sub", a.index, 1.0, b.index, -1.0))

    def mul(self, a: VarRef, b: VarRef) -> VarRef:
        self._pair(a, b)
        va, vb = self._values[a.index], self._values[b.index]
        return self._record(va * vb, ("mul", a.index, vb, b.index, va))

    def div(self, a: VarRef, b: VarRef) -> VarRef:
        self._pair(a, b)
        va, vb = self._values[a.index], self._values[b.index]
        if vb == 0.0:
            raise AutodiffError("division by zero")
        return self._record(va / vb, ("div", a.index, 1.0 / vb,
                                      b.index, -va / (vb * vb)))

    def neg(self, a: VarRef) -> VarRef:
        self._one(a)
        return self._record(-self._values[a.index], ("neg", a.index, -1.0))

    def one_minus(self, a: VarRef) -> VarRef:
        self._one(a)
        return self._record(1.0 - self._values[a.index],
                            ("one_minus", a.index, -1.0))

    def log(self, a: VarRef) -> VarRef:
        """Natural log of the input clamped into [LOG_EPS, 1].

        The clamp keeps the loss finite when a probability saturates; its
        gradient is zero outside the clamp interval.
        """
        self._one(a)
        x = self._values[a.index]
        v = min(max(x, LOG_EPS), 1.0)
        partial = 1.0 / v if LOG_EPS <= x <= 1.0 else 0.0
        return self._record(math.log(v), ("log", a.index, partial))

    def sigmoid(self, a: VarRef) -> VarRef:
        self._one(a)
        s = _stable_sigmoid(self._values[a.index])
        return self._record(s, ("sigmoid", a.index, s * (1.0 - s)))

    def clamp01(self, a: VarRef) -> VarRef:
        """Clamp into [0, 1]; identity gradient inside, zero outside."""
        self._one(a)
        x = self._values[a.index]
        v = min(max(x, 0.0), 1.0)
        partial = 1.0 if 0.0 <= x <= 1.0 else 0.0
        return self._record(v, ("clamp01", a.index, partial))

    # -- range checks -----------------------------------------------------

    def check_unit(self, a: VarRef, error: type, label: str) -> None:
        """Raises ``error("<label> <value> outside [0, 1]")`` unless a's
        value lies within ``UNIT_TOL`` of [0, 1].

        The check reads no ``value``, so a traced loss that makes it still
        compiles: ``trace_loss`` keeps it as a guard that the replay re-tests
        at the same point of every step.
        """
        i = a.index
        values = self._values
        if a.tape is not self or i >= len(values):
            self._one(a)
        v = values[i]
        if not -UNIT_TOL <= v <= 1.0 + UNIT_TOL:
            raise _unit_error(error, label, v)
        if self._guards is not None:
            self._guards.append((len(values), i, _UNIT_GUARD, (error, label)))

    def at_least(self, a: VarRef, bound: float) -> bool:
        """Whether a's value is >= bound.  A loss may branch on this, but
        not on a ``value``: ``trace_loss`` keeps the test as a branch guard,
        and the replay reports a miss when its outcome flips."""
        self._one(a)
        outcome = self._values[a.index] >= bound
        if self._guards is not None:
            self._guards.append((len(self._values), a.index,
                                 _BRANCH_GUARD[outcome], bound))
        return outcome

    # -- gradients --------------------------------------------------------

    def backward(self, loss: VarRef) -> None:
        """Accumulate d(loss)/d(var) into every grad reachable from loss.

        Grads add up across calls; use ``zero_grads`` between steps.
        """
        self._one(loss)
        n = loss.index + 1
        adjoint = [0.0] * n
        adjoint[loss.index] = 1.0
        deps = self._deps
        for i in range(loss.index, -1, -1):
            a = adjoint[i]
            if a == 0.0:
                continue
            rec = deps[i]
            if rec:
                adjoint[rec[1]] += a * rec[2]
                if len(rec) > 3:
                    adjoint[rec[3]] += a * rec[4]
        grads = self._grads
        for i in range(n):
            if adjoint[i] != 0.0:
                grads[i] += adjoint[i]

    def zero_grads(self) -> None:
        self._grads = [0.0] * len(self._values)

    # -- re-tracing support -----------------------------------------------

    def mark(self) -> int:
        """Checkpoint: record count to roll back to with ``reset_to``."""
        return len(self._values)

    def reset_to(self, mark: int) -> None:
        """Discard all records at index >= mark.

        Parameters and constants created before the mark survive; VarRefs
        pointing past the mark become stale.
        """
        if mark > len(self._values):
            raise AutodiffError("mark %d is past the end of the tape" % mark)
        del self._values[mark:]
        del self._grads[mark:]
        del self._deps[mark:]
        self._param_indices = {i for i in self._param_indices if i < mark}
        self._const_cache = {v: i for v, i in self._const_cache.items() if i < mark}


def _unit_error(error: type, label: str, value: float) -> Exception:
    return error("%s %g outside [0, 1]" % (label, value))


# -- compiled replay ----------------------------------------------------------

# Per opcode, the statement that recomputes a record {0} from its inputs {1}
# and {2} in the value list ``v``, and per input the term ``backward`` adds
# to that input's adjoint, for the record's adjoint ``d``.  Both are written
# exactly as the Tape methods compute them (a partial of 1 or -1 is left
# out: it multiplies exactly), so a replay gives bit-identical values and
# grads.  Generated code is built from these strings and integer
# indices alone.
_FORWARD = {
    "add": "v[{0}] = v[{1}] + v[{2}]",
    "sub": "v[{0}] = v[{1}] - v[{2}]",
    "mul": "v[{0}] = v[{1}] * v[{2}]",
    "div": "if v[{2}] == 0.0: raise AutodiffError('division by zero')\n"
           "    v[{0}] = v[{1}] / v[{2}]",
    "neg": "v[{0}] = -v[{1}]",
    "one_minus": "v[{0}] = 1.0 - v[{1}]",
    "log": "v[{0}] = log(min(max(v[{1}], LOG_EPS), 1.0))",
    "sigmoid": "x = v[{1}]; v[{0}] = "
               "1.0 / (1.0 + exp(-x)) if x >= 0 else exp(x) / (1.0 + exp(x))",
    "clamp01": "v[{0}] = min(max(v[{1}], 0.0), 1.0)",
}
_ADJOINT = {
    "add": ("d", "d"),
    "sub": ("d", "-d"),
    "mul": ("d * v[{2}]", "d * v[{1}]"),
    "div": ("d * (1.0 / v[{2}])", "d * (-v[{1}] / (v[{2}] * v[{2}]))"),
    "neg": ("-d",),
    "one_minus": ("-d",),
    "log": ("d * (1.0 / v[{1}] if LOG_EPS <= v[{1}] <= 1.0 else 0.0)",),
    "sigmoid": ("d * (v[{0}] * (1.0 - v[{0}]))",),
    "clamp01": ("d * (1.0 if 0.0 <= v[{1}] <= 1.0 else 0.0)",),
}
# the replayed guards on value {0}, given guard {1}'s payload in ``guards``:
# the (error class, label) of a check_unit, or the bound of an at_least
_UNIT_GUARD = ("if not -UNIT_TOL <= v[{0}] <= 1.0 + UNIT_TOL: "
               "raise unit_error(*guards[{1}], v[{0}])")
_BRANCH_GUARD = {True: "if not v[{0}] >= guards[{1}]: return False",
                 False: "if v[{0}] >= guards[{1}]: return False"}
# records per generated function: small sources keep compile memory flat
_CHUNK = 64


def trace_loss(params: list[VarRef], loss_fn: Callable[[], VarRef]
               ) -> tuple[VarRef, Callable[[], bool]]:
    """Calls ``loss_fn()`` once and compiles the graph it traced.

    Returns ``(loss, replay)``.  ``replay()`` recomputes in place every
    record traced here that one of ``params`` reaches, then adds
    d(loss)/d(parameter) into their grads: values and grads are
    bit-identical to re-tracing ``loss_fn``.  Other records keep their
    traced values.  Each ``check_unit`` and ``at_least`` on a value that a
    parameter reaches is a guard, re-tested at its place in the trace: a
    failing range check raises what a re-trace would, and an ``at_least``
    whose outcome flips stops the replay there, before any later record or
    grad, and makes it return False, a miss.  Otherwise it returns True.

    Raises AutodiffError when ``loss_fn`` reads or sets the ``value`` of a
    record that a parameter reaches, or uses one from before the call.
    """
    tape = params[0].tape
    mark = len(tape)
    tape._reads, tape._guards = reads, guards = [], []
    try:
        loss = loss_fn()
    finally:
        tape._reads = tape._guards = None
    tape._one(loss)
    return loss, _compile(tape, params, mark, loss.index, set(reads), guards)


def _compile(tape: Tape, params: list[VarRef], mark: int, loss: int,
             reads: set[int], guards: list[tuple]) -> Callable[[], bool]:
    deps = tape._deps
    indices = sorted({p.index for p in params})
    # adjoint slot of every parameter and every record that depends on one;
    # the walk starts at the first parameter to find such records from
    # before the call as well
    slot = {i: n for n, i in enumerate(indices)}
    for i in range(indices[0], len(deps)):
        if any(j in slot for j in deps[i][1::2]):
            slot[i] = len(slot)
    read = reads & slot.keys()
    if read:
        raise AutodiffError("the loss read or set the value of record %d, "
                            "which a parameter reaches: branch with "
                            "Tape.at_least" % min(read))
    before = {i for i in slot if i < mark and deps[i]}
    stale = before and before & {loss, *(g[1] for g in guards),
                                 *(j for rec in deps[mark:] for j in rec[1::2])}
    if stale:
        raise AutodiffError("the loss uses record %d, computed from a "
                            "parameter before the loss was traced; compute "
                            "it inside the loss" % min(stale))

    # a guard on a value that no parameter reaches cannot fail later; the
    # others go before the first record traced after them
    guards = [g for g in guards if g[1] in slot]
    forward, n = [], 0
    for i in [i for i in slot if i >= mark]:
        while n < len(guards) and guards[n][0] <= i:
            forward.append("    " + guards[n][2].format(guards[n][1], n))
            n += 1
        forward.append("    " + _FORWARD[deps[i][0]].format(i, *deps[i][1::2]))
    forward += ["    " + g[2].format(g[1], k)
                for k, g in enumerate(guards[n:], n)]
    backward = []
    needed = {loss} & slot.keys()  # records with a path to the loss
    for i in range(loss, mark - 1, -1):
        if i not in needed:
            continue
        rec = deps[i]
        inputs = rec[1::2]
        lines = ["    d = g[%d]" % slot[i], "    if d:"]
        for j, term in zip(inputs, _ADJOINT[rec[0]]):
            if j in slot:
                needed.add(j)
                lines.append("        g[%d] += %s" % (slot[j],
                                                     term.format(i, *inputs)))
        backward.append("\n".join(lines))
    run_forward = _functions(forward, "v", [g[3] for g in guards])
    run_backward = _functions(backward, "v, g")
    grad_slots = [(p, slot[p]) for p in indices if p in needed]
    # a loss that no parameter reaches gets a spare slot
    size, out = len(slot) + 1, slot.get(loss, len(slot))

    def replay() -> bool:
        values = tape._values
        for f in run_forward:
            if f(values) is False:
                return False
        adjoint = [0.0] * size
        adjoint[out] = 1.0
        for f in run_backward:
            f(values, adjoint)
        grads = tape._grads
        for i, s in grad_slots:
            if adjoint[s] != 0.0:
                grads[i] += adjoint[s]
        return True
    return replay


def _functions(blocks: list[str], args: str,
               guards: list = ()) -> list[Callable]:
    """Compiles the code blocks into functions of ``_CHUNK`` blocks each,
    with ``guards`` holding each guard's payload.  The functions are taken
    out of their namespace, so none of them is in a reference cycle."""
    namespace = {"__builtins__": {}, "AutodiffError": AutodiffError,
                 "LOG_EPS": LOG_EPS, "UNIT_TOL": UNIT_TOL, "exp": math.exp,
                 "log": math.log, "max": max, "min": min,
                 "unit_error": _unit_error, "guards": guards}
    functions = []
    for start in range(0, len(blocks), _CHUNK):
        body = "\n".join(blocks[start:start + _CHUNK])
        exec("def f(%s):\n%s" % (args, body), namespace)
        functions.append(namespace.pop("f"))
    return functions
