"""Minimal deterministic reverse-mode autodiff over dense float64 arrays.

The primitive set is fixed and small on purpose, eleven functions: add,
mul, scale, matmul, weighted_sum (whole or per segment), logsigmoid,
sigmoid, log1mexp, log_softmax_gather, gather_rows and causal_mean, a
segmented causal running mean. That is exactly what the toy policy model
and the preference losses need, and it keeps the finite-difference oracle
in the tests exhaustive. A difference is add(a, -b), a - b's bits in IEEE.

Every primitive takes tensors or plain arrays. A plain operand is a
constant: it gets no gradient and no node. A call with no tensor operand
computes the same value and returns it as a plain array, recording nothing.
So one definition, of the model's forward pass or of a loss, serves a taped
pass and a tape-free one, and both do the same arithmetic.

The tape records edges, not values, so a value lives while its tensor or a
vjp that captured it does. The backward pass drops each cotangent once its
vjps have run, and never writes to one: a vjp may return its input
unchanged, so gradients accumulate out of place, and only an array that
would be returned for two inputs is copied. logsigmoid is min(x, 0) -
log1p(exp(-|x|)) in one scratch array (``_logsigmoid``, which the decoder
calls too), and nan where x is not finite, the one case it copies x. A
taped call keeps e = exp(-|x|) and the mask x < 0 for its vjp, sigma(-x) =
where(x < 0, 1, e) / (1 + e), so the backward pass takes no second exp.
"""

from __future__ import annotations

import numpy as np


class Tape:
    """Ordered record of operations, one Node per recorded tensor, and its
    leaf tensors; recording order is topological order. As a context manager
    the tape empties itself on exit: that breaks the Tape.leaves -> Tensor.tape
    cycle, so the tape and the arrays its vjps captured are freed when the
    caller drops its tensors, not at the next cyclic garbage collection.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.leaves: list[Tensor] = []

    def __enter__(self) -> "Tape":
        return self

    def __exit__(self, *exc) -> None:
        self.nodes.clear()
        self.leaves.clear()

    def _record(self, node: "Node") -> None:
        self.nodes.append(node)


class Node:
    """A recorded tensor's edges, never its value: ``vjps[i](g)`` maps the
    tensor's cotangent g to that of ``parents[i]``, another Node."""

    __slots__ = ("parents", "vjps")

    def __init__(self, parents, vjps):
        self.parents, self.vjps = parents, vjps


class Tensor:
    """A float64 array and its Node on a tape."""

    __slots__ = ("value", "tape", "node")

    def __init__(self, value, tape, parents=(), vjps=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.tape = tape
        self.node = Node(parents, vjps)
        tape._record(self.node)

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


def leaf(tape: Tape, value) -> Tensor:
    """Record an input whose gradient will be reported."""
    tape.leaves.append(Tensor(value, tape))
    return tape.leaves[-1]


def constant(tape: Tape, value) -> Tensor:
    """Record a value that does not participate in differentiation."""
    return Tensor(value, tape)


def _value(a) -> np.ndarray:
    return a.value if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64)


def _node(value, *edges):
    """The result of a primitive: ``value`` recorded with one edge per tensor
    operand, or, when no operand is a tensor, ``value`` as a plain array.

    ``edges`` are (operand, vjp) pairs. A plain operand is a constant and
    gets no edge; tensor operands must share one tape.
    """
    tape = None
    parents = vjps = ()
    for a, vjp in edges:
        if isinstance(a, Tensor):
            if tape is None:
                tape = a.tape
            elif a.tape is not tape:
                raise ValueError("operands recorded on different tapes")
            parents += (a.node,)
            vjps += (vjp,)
    if tape is None:
        return np.asarray(value, dtype=np.float64)
    return Tensor(value, tape, parents=parents, vjps=vjps)


def _elementwise(name: str, a, b):
    av, bv = _value(a), _value(b)
    if av.shape != bv.shape:
        raise ValueError(f"shape mismatch in {name}: {av.shape} vs {bv.shape}")
    return av, bv


def add(a, b):
    av, bv = _elementwise("add", a, b)
    return _node(av + bv, (a, lambda g: g), (b, lambda g: g))


def mul(a, b):
    av, bv = _elementwise("mul", a, b)
    return _node(av * bv, (a, lambda g: g * bv), (b, lambda g: g * av))


def scale(a, c: float):
    c = float(c)
    return _node(_value(a) * c, (a, lambda g: g * c))


def matmul(a, b):
    av, bv = _value(a), _value(b)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ValueError(f"bad matmul shapes: {av.shape} @ {bv.shape}")
    return _node(av @ bv, (a, lambda g: g @ bv.T), (b, lambda g: av.T @ g))


def gather_rows(a, idx):
    """Rows ``a[idx]`` of a matrix, or entries of a vector; repeated indices
    accumulate gradient."""
    av = _value(a)
    idx = np.asarray(idx, dtype=np.int64)
    if av.ndim not in (1, 2) or idx.ndim != 1:
        raise ValueError(f"bad gather_rows shapes: {av.shape}[{idx.shape}]")
    if np.any(idx < 0) or np.any(idx >= av.shape[0]):
        raise ValueError("row index out of range")
    shape, size = av.shape, av.size  # not av: the vjp keeps no value alive

    def vjp(g):
        # Scatter-add: the sums np.add.at would form, in the same order,
        # but bincount does them in one vectorized pass.
        cols = 1 if len(shape) == 1 else shape[1]
        flat = (idx[:, None] * cols + np.arange(cols)).ravel()
        return np.bincount(flat, weights=g.ravel(), minlength=size).reshape(shape)

    return _node(av[idx], (a, vjp))


def _segment_cumsum(x: np.ndarray, bounds) -> np.ndarray:
    """Cumulative sum down the rows of the matrix ``x``, restarting at every
    bound. At an even width with contiguous rows it runs on a complex128 view,
    two columns to an entry: complex addition is the IEEE addition of each
    part, so every entry gets the same additions in the same order, and the
    same bits, at half the elements per call."""
    out = np.empty(x.shape)
    if x.shape[1] % 2 == 0 and x.strides[1] == x.itemsize:
        x, out_view = x.view(np.complex128), out.view(np.complex128)
    else:
        out_view = out
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        np.cumsum(x[lo:hi], axis=0, out=out_view[lo:hi])
    return out


def _segments(bounds, n: int) -> np.ndarray:
    """Checked segment offsets 0 = b_0 <= ... <= b_k = n of n rows (default (0, n))."""
    bounds = np.asarray((0, n) if bounds is None else bounds, dtype=np.int64)
    if bounds.ndim != 1 or bounds[:1].tolist() != [0] or bounds[-1] != n \
            or np.any(np.diff(bounds) < 0):
        raise ValueError(f"segment bounds must rise from 0 to {n}, got {bounds.tolist()}")
    return bounds


def causal_mean(a, bounds=None):
    """Row i is the mean of the rows from the start of its segment to i.

    ``bounds`` are the segment offsets of a matrix of n packed sequences
    (``_segments``). Each segment is a cumulative sum divided by 1, 2, ...,
    exactly as if it stood alone.
    """
    av = _value(a)
    if av.ndim != 2:
        raise ValueError(f"causal_mean needs a matrix, got shape {av.shape}")
    n = av.shape[0]
    bounds = _segments(bounds, n)
    starts = np.repeat(bounds[:-1], np.diff(bounds))
    counts = (np.arange(1, n + 1) - starts).astype(np.float64)[:, None]
    back = (n - bounds[::-1]).tolist()  # the same segments, rows reversed
    return _node(_segment_cumsum(av, bounds.tolist()) / counts,
                 (a, lambda g: _segment_cumsum((g / counts)[::-1], back)[::-1]))


def weighted_sum(a, w, bounds=None):
    """sum(w * a) with constant weights w (same shape as a), added in index
    order as a chain of adds would (0 when empty). With ``bounds``, segment
    offsets of a vector (``_segments``), the vector of one np.sum per
    segment, each with the bits it has standing alone."""
    av, w = _value(a), np.asarray(w, dtype=np.float64)
    if w.shape != av.shape:
        raise ValueError(f"weight shape {w.shape} does not match {av.shape}")
    if bounds is None:
        total = np.cumsum(w * av)
        return _node(total[-1] if total.size else 0.0, (a, lambda g: float(g) * w))
    if av.ndim != 1:
        raise ValueError(f"segmented weighted_sum needs a vector, got shape {av.shape}")
    bounds, x = _segments(bounds, len(av)), w * av
    return _node([np.sum(x[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])],
                 (a, lambda g: np.repeat(g, np.diff(bounds)) * w))


# Read-only 0-d operands for _logsigmoid: a Python float operand costs each
# ufunc call a scalar conversion, as much as the arithmetic on the one-row
# arrays of a decoder step.
_ZERO, _MINUS_ONE = np.zeros(()), np.full((), -1.0)
_ZERO.flags.writeable = _MINUS_ONE.flags.writeable = False


def _logsigmoid(x: np.ndarray, exp_out: np.ndarray | None = None) -> np.ndarray:
    """log sigma(x) = min(x, 0) - log1p(exp(-|x|)), from vectorized ufuncs
    working in place on one scratch array; exp(-|x|) <= 1, so no x
    overflows. When given, ``exp_out`` (shaped like x) keeps exp(-|x|)."""
    e = np.copysign(x, _MINUS_ONE, out=exp_out)
    np.exp(e, out=e)
    out = np.minimum(x, _ZERO)
    out -= np.log1p(e, out=e if exp_out is None else None)
    return out


def logsigmoid(a):
    av = _value(a)
    if not np.isfinite(av).all():  # nan, and a nan gradient, where not finite
        av = np.where(np.isfinite(av), av, np.nan)
    if not isinstance(a, Tensor):
        return _node(_logsigmoid(av))
    e = np.empty_like(av)
    out, negative = _logsigmoid(av, e), av < 0.0

    def vjp(g):
        # sigma(-x) = where(x < 0, 1, e) / (1 + e) with the forward's
        # e = exp(-|x|); e <= 1, so the numerator is maximum(e, x < 0).
        s = np.maximum(e, negative)
        s /= 1.0 + e
        s *= g
        return s

    return _node(out, (a, vjp))


def sigmoid(a):
    # exp(-x) overflows to inf for x < -709, and 1 / inf is the right limit, 0.
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-_value(a)))
    return _node(s, (a, lambda g: g * s * (1.0 - s)))


def log1mexp(a):
    """log(1 - exp(x)) for x < 0, branch-stable."""
    av = _value(a)
    if np.any(av >= 0.0):
        raise ValueError("log1mexp requires strictly negative input")
    out = np.where(av > -np.log(2.0), np.log(-np.expm1(av)), np.log1p(-np.exp(av)))
    e = np.exp(av)
    return _node(out, (a, lambda g: g * (-e / (1.0 - e))))


def row_logsumexp(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(row))) of each row of a plain matrix, shifted by the row
    maximum so that no exp overflows: the one log-softmax normaliser."""
    m = np.max(x, axis=1)
    e = x - m[:, None]
    return m + np.log(np.sum(np.exp(e, out=e), axis=1))


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
    lse = row_logsumexp(lv)
    rows = np.arange(lv.shape[0])
    out = lv[rows, targets] - lse

    def vjp(g):
        dl = lv - lse[:, None]
        np.exp(dl, out=dl)
        dl *= -g[:, None]
        dl[rows, targets] += g
        return dl

    return _node(out, (logits, vjp))


def gradients(output: Tensor, inputs=None):
    """Reverse-mode gradients of a scalar output.

    Returns a dict mapping each requested input tensor (default: every leaf
    on the tape) to its gradient array. Non-participating inputs map to
    exact zeros. Traversal follows recording order reversed, so two runs on
    identical inputs are bit-identical. A node's cotangent is dropped once
    its vjps have run, unless it is an input's.
    """
    if output.value.shape != ():
        raise ValueError("gradients requires a scalar output")
    tape = output.tape
    inputs = list(tape.leaves) if inputs is None else inputs
    kept = {t.node for t in inputs}
    grads = {output.node: np.array(1.0)}
    for node in reversed(tape.nodes):
        g = grads.get(node) if node in kept else grads.pop(node, None)
        if g is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            # Out of place: a vjp may hand back g itself, so a cotangent can
            # be shared between nodes and must never be written to.
            grads[parent] = grads[parent] + vjp(g) if parent in grads else vjp(g)
    out, returned = {}, set()
    for t in inputs:
        g = grads.get(t.node)
        if g is None:
            g = np.zeros(t.value.shape)
        elif id(g) in returned:   # the same array reached two inputs
            g = np.array(g, dtype=np.float64)
        else:
            returned.add(id(g))
            g = np.asarray(g, dtype=np.float64)
        out[t] = g
    return out
