"""Scalar reverse-mode autodiff on an append-only tape.

Every truth-value strength in the engine is a scalar, so the tape records
scalar operations only.  Local partial derivatives are computed at forward
time; ``backward`` is a single reverse sweep over the record list.

The tape supports checkpoint/rollback (``mark`` / ``reset_to``) so a training
loop can keep leaf parameters alive while re-tracing the formula graph on
every step.
"""

from __future__ import annotations

import math

LOG_EPS = 1e-7


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
        return self.tape._values[self.index]

    @value.setter
    def value(self, x: float) -> None:
        self._check_live()
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
        # per record: tuple of (input_index, local_partial) pairs; () for leaves
        self._deps: list[tuple] = []
        self._param_indices: set[int] = set()
        self.param_names: dict[int, str] = {}
        self._const_cache: dict[float, int] = {}

    def __len__(self) -> int:
        return len(self._values)

    @property
    def parameters(self) -> list[VarRef]:
        """The trainable leaves, in index order.  Not stored: VarRefs point
        back at the tape, so a stored list would make a reference cycle."""
        return [VarRef(self, i) for i in sorted(self._param_indices)]

    # -- construction -----------------------------------------------------

    def _record(self, value: float, deps: tuple) -> VarRef:
        i = len(self._values)
        self._values.append(value)
        self._grads.append(0.0)
        self._deps.append(deps)
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

    def parameter(self, x: float, name: str | None = None) -> VarRef:
        """Trainable leaf; each call creates a distinct record."""
        x = float(x)
        if not math.isfinite(x):
            raise AutodiffError("parameter must be finite, got %r" % x)
        ref = self._record(x, ())
        self._param_indices.add(ref.index)
        if name is not None:
            self.param_names[ref.index] = name
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
                            ((a.index, 1.0), (b.index, 1.0)))

    def sub(self, a: VarRef, b: VarRef) -> VarRef:
        self._pair(a, b)
        return self._record(self._values[a.index] - self._values[b.index],
                            ((a.index, 1.0), (b.index, -1.0)))

    def mul(self, a: VarRef, b: VarRef) -> VarRef:
        self._pair(a, b)
        va, vb = self._values[a.index], self._values[b.index]
        return self._record(va * vb, ((a.index, vb), (b.index, va)))

    def div(self, a: VarRef, b: VarRef) -> VarRef:
        self._pair(a, b)
        va, vb = self._values[a.index], self._values[b.index]
        if vb == 0.0:
            raise AutodiffError("division by zero")
        return self._record(va / vb,
                            ((a.index, 1.0 / vb), (b.index, -va / (vb * vb))))

    def neg(self, a: VarRef) -> VarRef:
        self._one(a)
        return self._record(-self._values[a.index], ((a.index, -1.0),))

    def one_minus(self, a: VarRef) -> VarRef:
        self._one(a)
        return self._record(1.0 - self._values[a.index], ((a.index, -1.0),))

    def log(self, a: VarRef) -> VarRef:
        """Natural log of the input clamped into [LOG_EPS, 1].

        The clamp keeps the loss finite when a probability saturates; its
        gradient is zero outside the clamp interval.
        """
        self._one(a)
        x = self._values[a.index]
        v = min(max(x, LOG_EPS), 1.0)
        partial = 1.0 / v if LOG_EPS <= x <= 1.0 else 0.0
        return self._record(math.log(v), ((a.index, partial),))

    def sigmoid(self, a: VarRef) -> VarRef:
        self._one(a)
        s = _stable_sigmoid(self._values[a.index])
        return self._record(s, ((a.index, s * (1.0 - s)),))

    def clamp01(self, a: VarRef) -> VarRef:
        """Clamp into [0, 1]; identity gradient inside, zero outside."""
        self._one(a)
        x = self._values[a.index]
        v = min(max(x, 0.0), 1.0)
        partial = 1.0 if 0.0 <= x <= 1.0 else 0.0
        return self._record(v, ((a.index, partial),))

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
            for j, partial in deps[i]:
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
        if mark > len(self._values):
            raise AutodiffError("mark %d is past the end of the tape" % mark)
        del self._values[mark:]
        del self._grads[mark:]
        del self._deps[mark:]
        self._param_indices = {i for i in self._param_indices if i < mark}
        self.param_names = {i: n for i, n in self.param_names.items() if i < mark}
        self._const_cache = {v: i for v, i in self._const_cache.items() if i < mark}
