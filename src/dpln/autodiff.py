"""Scalar reverse-mode autodiff on an append-only tape.

Every truth-value strength in the engine is a scalar, so the tape records
scalar operations only.  Local partial derivatives are computed at forward
time; ``backward`` is a single reverse sweep over the record list.

``OPS`` is the one definition of every operation but ``Tape.sum``: its value
and its partial derivatives as Python expressions.  The ``Tape`` methods
(``add``, ...) are rendered from it at import, and the compiled replay too.

The tape supports checkpoint/rollback (``mark`` / ``reset_to``) so a training
loop can keep leaf parameters alive while it re-traces the formula graph.
``trace_loss`` compiles a traced graph once (``dpln.replay``) into Python
that runs a fit's steps in one loop, recomputing it a lane of isomorphic
records at a time and writing only the loss value and the grads;
``check_unit`` range checks and ``at_least`` branches become its guards.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable

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
        if self.index not in self.tape._param_indices:  # a constant is shared
            raise AutodiffError("record %d is not a parameter" % self.index)
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
        # reads the list, not ``value``: a repr inside a traced loss is no read
        values = self.tape._values
        if self.index < len(values):
            return "VarRef(%d, value=%g)" % (self.index, values[self.index])
        return "VarRef(%d, stale)" % self.index


# The one definition of every op: its value in the inputs {x} and {y}, per
# input the partial derivative in the inputs and the value {z}, and the
# docstring of its Tape method.  The Tape methods and the compiled replay are
# rendered from these strings alone, so they compute bit-identical values
# and grads.  ``fail`` raises AutodiffError.
Op = namedtuple("Op", "value partials doc", defaults=(None,))
OPS = {
    "add": Op("{x} + {y}", ("1.0", "1.0")),
    "sub": Op("{x} - {y}", ("1.0", "-1.0")),
    "mul": Op("{x} * {y}", ("{y}", "{x}")),
    # y * y, not y: y's partial divides by it, and it is 0 for y = 1e-170
    "div": Op("{x} / {y} if {y} * {y} != 0.0 else fail('division by zero')",
              ("1.0 / {y}", "-{x} / ({y} * {y})")),
    "neg": Op("-{x}", ("-1.0",)),
    "one_minus": Op("1.0 - {x}", ("-1.0",)),
    # the clamps are min(max(x, lo), 1.0) written out: the same value for
    # every float, nan and -0.0 included, without two builtin calls
    "log": Op("log(LOG_EPS if {x} < LOG_EPS else 1.0 if {x} > 1.0 else {x})",
              ("1.0 / {x} if LOG_EPS <= {x} <= 1.0 else 0.0",),
              """Natural log of the input clamped into [LOG_EPS, 1].

        The clamp keeps the loss finite when a probability saturates; its
        gradient is zero outside the clamp interval.
        """),
    "sigmoid": Op("1.0 / (1.0 + exp(-{x})) if {x} >= 0 "
                  "else (e := exp({x})) / (1.0 + e)", ("{z} * (1.0 - {z})",)),
    "clamp01": Op("0.0 if {x} < 0.0 else 1.0 if {x} > 1.0 else {x}",
                  ("1.0 if 0.0 <= {x} <= 1.0 else 0.0",),
                  "Clamp into [0, 1]; identity gradient inside, zero outside."),
}


class Tape:
    """Append-only record list; input indices always precede their record."""

    def __init__(self):
        self._values: list[float] = []
        self._grads: list[float] = []
        # per record: (opcode, input, partial, input, partial, ...), the
        # opcode being the method name; () for leaves
        self._deps: list[tuple] = []
        self._param_indices: set[int] = set()
        self._const_cache: dict[float | str, int] = {}
        self.resets = 0  # reset_to calls: an index names one record between two
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
        """Leaf with requires_grad=False.  Cached per value, a zero by its
        repr, since -0.0 == 0.0."""
        x = float(x)
        if not math.isfinite(x):
            raise AutodiffError("constant must be finite, got %r" % x)
        idx = self._const_cache.get(x or repr(x))
        if idx is not None:
            return VarRef(self, idx)
        ref = self._record(x, ())
        self._const_cache[x or repr(x)] = ref.index
        return ref

    def parameter(self, x: float) -> VarRef:
        """Trainable leaf; each call creates a distinct record."""
        x = float(x)
        if not math.isfinite(x):
            raise AutodiffError("parameter must be finite, got %r" % x)
        ref = self._record(x, ())
        self._param_indices.add(ref.index)
        return ref

    def _one(self, a: VarRef) -> None:
        if a.tape is not self:
            raise AutodiffError("VarRef belongs to a different tape")
        a._check_live()

    def sum(self, refs: list[VarRef]) -> VarRef:
        """The inputs added left to right, one record: bit for bit what a
        chain of ``add`` calls gives (builtin ``sum`` may compensate)."""
        if not refs:
            raise AutodiffError("sum needs at least one input")
        values, z = self._values, None
        for a in refs:
            self._one(a)
            z = values[a.index] if z is None else z + values[a.index]
        return self._record(z, ("sum", *(x for a in refs for x in (a.index, 1.0))))

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
            for j, partial in zip(rec[1::2], rec[2::2]):
                adjoint[j] += a * partial
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
        if not 0 <= mark <= len(self._values):
            raise AutodiffError("mark %d is outside the tape's [0, %d]"
                                % (mark, len(self._values)))
        self.resets += 1
        del self._values[mark:]
        del self._grads[mark:]
        del self._deps[mark:]
        self._param_indices = {i for i in self._param_indices if i < mark}
        self._const_cache = {v: i for v, i in self._const_cache.items() if i < mark}


def _unit_error(error: type, label: str, value: float) -> Exception:
    return error("%s %g outside [0, 1]" % (label, value))


# -- rendering the op table ---------------------------------------------------

def _fail(message: str):
    raise AutodiffError(message)


# all that generated code may name besides its arguments and ``guards``
_NAMESPACE = {"__builtins__": {}, "__name__": __name__, "fail": _fail,
              "LOG_EPS": LOG_EPS, "UNIT_TOL": UNIT_TOL, "exp": math.exp,
              "len": len, "log": math.log, "range": range, "reversed": reversed,
              "unit_error": _unit_error, "zip": zip}
# blocks per generated function: small sources keep compile memory flat,
# and a short loss is one function
_CHUNK = 32


def _functions(blocks: list[str], frame: str, guards: list = ()) -> list[Callable]:
    """Compiles ``frame``, the source of ``def f(<args>):`` with a line
    ``{}`` where the code blocks go, with ``guards`` holding each guard's
    payload.  Past ``_CHUNK`` blocks, each ``_CHUNK`` blocks are a function
    of f's arguments, which f calls in their place, returning what one
    returns unless None.  Returns f and then those functions, taken out of
    their namespace, so none of them is in a reference cycle."""
    namespace, chunks, at = dict(_NAMESPACE, guards=guards), {}, frame.index("{}")
    for start in range(0, len(blocks), _CHUNK) if len(blocks) > _CHUNK else ():
        body = "\n".join(blocks[start:start + _CHUNK]).replace("\n", "\n    ")
        exec("%s\n    %s" % (frame[:frame.index(":") + 1], body), namespace)
        chunks["c%d" % len(chunks)] = namespace.pop("f")
    calls = ["if (r := %s%s) is not None: return r" % (c, frame[5:frame.index(")") + 1])
             for c in chunks]
    scope = dict(namespace, **chunks)  # f's globals, which no chunk reads
    exec(frame.replace("{}", "\n".join(calls or blocks).replace(
        "\n", "\n" + frame[frame.rindex("\n", 0, at) + 1:at])), scope)
    return [scope.pop("f"), *chunks.values()]


def _method(name: str, op: Op) -> Callable:
    """The Tape method of ``op``: checks its VarRefs a and b, ``_one``'s
    checks inlined, reads their values x and y, and records the value z
    with each input's partial."""
    refs = "ab"[:len(op.partials)]
    deps = "".join(", %s.index, %s" % (r, p.format(x="x", y="y", z="z"))
                   for r, p in zip(refs, op.partials))
    body = ["values = self._values"] + [
        "if %s.tape is not self or %s.index >= len(values): self._one(%s)"
        % (r, r, r) for r in refs] + [
            "%s = %s" % (", ".join("xy"[:len(refs)]), ", ".join(
                "values[%s.index]" % r for r in refs)),
            "z = " + op.value.format(x="x", y="y"),
            "return self._record(z, (%r%s))" % (name, deps)]
    method, = _functions(["\n".join(body)], "def f(self, %s):\n    {}" % ", ".join(refs))
    method.__name__, method.__qualname__ = name, "Tape." + name
    method.__doc__ = op.doc
    return method


for _name, _op in OPS.items():
    setattr(Tape, _name, _method(_name, _op))

# the logistic function on a float, as ``Tape.sigmoid`` computes it
sigmoid, = _functions(["return " + OPS["sigmoid"].value.format(x="x")], "def f(x):\n    {}")


# -- compiled replay ----------------------------------------------------------

# the replayed guards on the value {0}, given guard {1}'s payload in
# ``guards``: the (error class, label) of a check_unit, or the bound of an
# at_least, which returns the step k of the replay's loop when it flips
_UNIT_GUARD = ("if not -UNIT_TOL <= {0} <= 1.0 + UNIT_TOL: "
               "raise unit_error(*guards[{1}], {0})")
_BRANCH_GUARD = {True: "if not {0} >= guards[{1}]: return k",
                 False: "if {0} >= guards[{1}]: return k"}


def trace_loss(params: list[VarRef], loss_fn: Callable[[], VarRef]
               ) -> tuple[VarRef, Callable[..., bool | int]]:
    """Calls ``loss_fn()`` once and compiles the graph it traced.

    Returns ``(loss, replay)``.  ``replay()`` recomputes every record traced
    here that one of ``params`` reaches and adds d(loss)/d(parameter) into
    their grads, bit-identical to re-tracing ``loss_fn``; it writes only the
    loss value and those grads.  Isomorphic records form lanes, one list
    comprehension each; a list of values or terms that one loop alone reads,
    whole and in order, is computed in it, a lane's values only if their op
    neither raises nor binds a name.
    Adjoint terms that no parameter changes are computed here, once, and a
    lone value is a local, one function for a short loss (``dpln.replay``).
    Each ``check_unit`` and ``at_least`` on a value that a parameter reaches
    is a guard, re-tested once at its place in the trace: a failing range
    check raises what a re-trace would, and an ``at_least`` whose outcome
    flips makes the replay return False, a miss, writing nothing, else True.

    ``replay(k, n, step, rate, losses)`` runs steps k to n - 1 in that code,
    the step loop: each replays, appends the loss to ``losses``, calls
    ``step(params, rate)`` and zeroes the grads of ``params``; it returns n,
    or the step where a branch flipped, having written no grad there.

    Raises AutodiffError for no ``params``, a stale one or one of another
    tape, and when ``loss_fn`` reads or sets the ``value`` of a record that
    a parameter reaches or uses one from before the call.
    """
    if not params:
        raise AutodiffError("trace_loss needs at least one parameter")
    tape = params[0].tape
    for p in params:
        tape._one(p)
    mark = len(tape)
    tape._reads, tape._guards = reads, guards = [], []
    try:
        loss = loss_fn()
    finally:
        tape._reads = tape._guards = None
    tape._one(loss)
    # imported here: at module level it slows `import dpln`
    from .replay import compile_replay
    return loss, compile_replay(tape, params, mark, loss.index, set(reads),
                                guards)
