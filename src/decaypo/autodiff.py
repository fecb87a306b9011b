"""Minimal deterministic reverse-mode autodiff over dense float64 arrays.

The primitive set is fixed and small on purpose: matmul, add, elementwise
multiply, scalar scale, sum, weighted sum, square, logsigmoid, sigmoid,
log1mexp, a log-softmax gather, a row gather and a segmented causal running
mean. That is exactly what the toy policy model and the preference losses
need, and it keeps the finite-difference oracle in the tests exhaustive.

The primitives of the model's forward pass (row gather, causal mean,
logsigmoid and the log-softmax gather) also take plain arrays; they then
compute the same values and return plain arrays, recording nothing. With
numpy's own operators for the rest, one forward definition serves a taped
pass and a tape-free one, and both do the same arithmetic.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit


class Tape:
    """Ordered record of operations; recording order is topological order.

    As a context manager the tape empties itself on exit: that breaks the
    Tape.nodes -> Tensor.tape cycle, so the recorded arrays are freed when
    the caller drops its tensors, not at the next cyclic garbage collection.
    """

    def __init__(self):
        self.nodes: list[Tensor] = []

    def __enter__(self) -> "Tape":
        return self

    def __exit__(self, *exc) -> None:
        self.nodes.clear()

    def _record(self, tensor: "Tensor") -> "Tensor":
        self.nodes.append(tensor)
        return tensor


class Tensor:
    """A float64 array recorded on a tape.

    ``parents`` and ``vjps`` are parallel: ``vjps[i](g)`` maps the output
    cotangent to the cotangent of ``parents[i]``.
    """

    __slots__ = ("value", "tape", "is_leaf", "parents", "vjps")

    def __init__(self, value, tape, is_leaf=False, parents=(), vjps=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.tape = tape
        self.is_leaf = is_leaf
        self.parents = parents
        self.vjps = vjps
        tape._record(self)

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


def leaf(tape: Tape, value) -> Tensor:
    """Record an input whose gradient will be reported."""
    return Tensor(value, tape, is_leaf=True)


def constant(tape: Tape, value) -> Tensor:
    """Record a value that does not participate in differentiation."""
    return Tensor(value, tape)


def _join(a: Tensor, b: Tensor, elementwise: str = "") -> Tape:
    """The tape both operands share; an ``elementwise`` op also needs equal shapes."""
    if a.tape is not b.tape:
        raise ValueError("operands recorded on different tapes")
    if elementwise and a.value.shape != b.value.shape:
        raise ValueError(f"shape mismatch in {elementwise}: {a.value.shape} vs {b.value.shape}")
    return a.tape


def as_tensor(tape: Tape, x) -> Tensor:
    if isinstance(x, Tensor):
        if x.tape is not tape:
            raise ValueError("tensor belongs to a different tape")
        return x
    return constant(tape, x)


def _value(a) -> np.ndarray:
    return a.value if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64)


def _unary(a, value: np.ndarray, vjp):
    """``value`` recorded as the one child of ``a`` with ``vjp``, or, when
    ``a`` is a plain array, ``value`` itself."""
    return Tensor(value, a.tape, parents=(a,), vjps=(vjp,)) if isinstance(a, Tensor) else value


def add(a: Tensor, b: Tensor) -> Tensor:
    tape = _join(a, b, "add")
    return Tensor(a.value + b.value, tape, parents=(a, b),
                  vjps=(lambda g: g, lambda g: g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    tape = _join(a, b, "sub")
    return Tensor(a.value - b.value, tape, parents=(a, b),
                  vjps=(lambda g: g, lambda g: -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    tape = _join(a, b, "mul")
    av, bv = a.value, b.value
    return Tensor(av * bv, tape, parents=(a, b),
                  vjps=(lambda g: g * bv, lambda g: g * av))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return Tensor(a.value * c, a.tape, parents=(a,), vjps=(lambda g: g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    tape = _join(a, b)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ValueError(f"bad matmul shapes: {av.shape} @ {bv.shape}")
    return Tensor(av @ bv, tape, parents=(a, b),
                  vjps=(lambda g: g @ bv.T, lambda g: av.T @ g))


def gather_rows(a, idx):
    """Rows ``a[idx]`` of a matrix, or entries of a vector; repeated indices
    accumulate gradient."""
    av = _value(a)
    idx = np.asarray(idx, dtype=np.int64)
    if av.ndim not in (1, 2) or idx.ndim != 1:
        raise ValueError(f"bad gather_rows shapes: {av.shape}[{idx.shape}]")
    if np.any(idx < 0) or np.any(idx >= av.shape[0]):
        raise ValueError("row index out of range")

    def vjp(g):
        # Scatter-add: the sums np.add.at would form, in the same order,
        # but bincount does them in one vectorized pass.
        cols = 1 if av.ndim == 1 else av.shape[1]
        flat = (idx[:, None] * cols + np.arange(cols)).ravel()
        return np.bincount(flat, weights=g.ravel(), minlength=av.size).reshape(av.shape)

    return _unary(a, av[idx], vjp)


def _segment_cumsum(x: np.ndarray, bounds) -> np.ndarray:
    """Cumulative sum down the rows of ``x``, restarting at every bound."""
    out = np.empty_like(x)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        np.cumsum(x[lo:hi], axis=0, out=out[lo:hi])
    return out


def causal_mean(a, bounds=None):
    """Row i is the mean of the rows from the start of its segment to i.

    ``bounds`` are the segment offsets 0 = b_0 <= b_1 <= ... <= b_k = n of a
    matrix of n packed sequences (default one segment, (0, n)). Each segment
    is a cumulative sum divided by 1, 2, ..., exactly as if it stood alone.
    """
    av = _value(a)
    if av.ndim != 2:
        raise ValueError(f"causal_mean needs a matrix, got shape {av.shape}")
    n = av.shape[0]
    bounds = np.asarray((0, n) if bounds is None else bounds, dtype=np.int64)
    if bounds.ndim != 1 or bounds[:1].tolist() != [0] or bounds[-1] != n \
            or np.any(np.diff(bounds) < 0):
        raise ValueError(f"segment bounds must rise from 0 to {n}, got {bounds.tolist()}")
    starts = np.repeat(bounds[:-1], np.diff(bounds))
    counts = (np.arange(1, n + 1) - starts).astype(np.float64)[:, None]
    back = (n - bounds[::-1]).tolist()  # the same segments, rows reversed
    return _unary(a, _segment_cumsum(av, bounds.tolist()) / counts,
                  lambda g: _segment_cumsum((g / counts)[::-1], back)[::-1])


def arraysum(a: Tensor) -> Tensor:
    return Tensor(np.sum(a.value), a.tape, parents=(a,),
                  vjps=(lambda g: np.full(a.value.shape, float(g)),))


def weighted_sum(a: Tensor, w) -> Tensor:
    """sum(w * a) with constant weights w (same shape as a)."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != a.value.shape:
        raise ValueError(f"weight shape {w.shape} does not match {a.value.shape}")
    return Tensor(np.sum(w * a.value), a.tape, parents=(a,),
                  vjps=(lambda g: float(g) * w,))


def square(a: Tensor) -> Tensor:
    av = a.value
    return Tensor(av * av, a.tape, parents=(a,), vjps=(lambda g: g * 2.0 * av,))


def _logsigmoid(x: np.ndarray) -> np.ndarray:
    # log sigma(x) = -softplus(-x); logaddexp keeps it overflow-free.
    return -np.logaddexp(0.0, -x)


def logsigmoid(a):
    av = _value(a)
    if not np.all(np.isfinite(av)):
        raise ValueError("logsigmoid requires finite input")
    return _unary(a, _logsigmoid(av), lambda g: g * expit(-av))


def sigmoid(a: Tensor) -> Tensor:
    s = expit(a.value)
    return Tensor(s, a.tape, parents=(a,), vjps=(lambda g: g * s * (1.0 - s),))


def log1mexp(a: Tensor) -> Tensor:
    """log(1 - exp(x)) for x < 0, branch-stable."""
    av = a.value
    if np.any(av >= 0.0):
        raise ValueError("log1mexp requires strictly negative input")
    out = np.where(av > -np.log(2.0), np.log(-np.expm1(av)), np.log1p(-np.exp(av)))
    e = np.exp(av)
    return Tensor(out, a.tape, parents=(a,), vjps=(lambda g: g * (-e / (1.0 - e)),))


def log_softmax_gather(logits, targets):
    """Row-wise log-softmax of ``logits`` (T x V) evaluated at ``targets``."""
    lv = _value(logits)
    if lv.ndim != 2:
        raise ValueError("logits must be a T x V matrix")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim != 1 or targets.shape[0] != lv.shape[0]:
        raise ValueError("targets must have one index per logits row")
    if np.any(targets < 0) or np.any(targets >= lv.shape[1]):
        raise ValueError("target index out of vocabulary range")
    m = np.max(lv, axis=1, keepdims=True)
    z = lv - m
    lse = m[:, 0] + np.log(np.sum(np.exp(z), axis=1))
    rows = np.arange(lv.shape[0])
    out = lv[rows, targets] - lse

    def vjp(g):
        dl = -g[:, None] * np.exp(lv - lse[:, None])
        dl[rows, targets] += g
        return dl

    return _unary(logits, out, vjp)


def gradients(output: Tensor, inputs=None):
    """Reverse-mode gradients of a scalar output.

    Returns a dict mapping each requested input tensor (default: every leaf
    on the tape) to its gradient array. Non-participating inputs map to
    exact zeros. Traversal follows recording order reversed, so two runs on
    identical inputs are bit-identical.
    """
    if output.value.shape != ():
        raise ValueError("gradients requires a scalar output")
    tape = output.tape
    grads: dict[int, np.ndarray] = {id(output): np.array(1.0)}
    for node in reversed(tape.nodes):
        g = grads.get(id(node))
        if g is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            pg = vjp(g)
            acc = grads.get(id(parent))
            if acc is None:
                grads[id(parent)] = np.asarray(pg, dtype=np.float64).copy()
            else:
                acc += pg
    if inputs is None:
        inputs = [t for t in tape.nodes if t.is_leaf]
    return {t: grads.get(id(t), np.zeros(t.value.shape)) for t in inputs}
