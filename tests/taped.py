"""Taped elementwise ops for the tests' reference graphs.

The library records each layer, head loss and the weighted total as one
fused node.  The graphs of small ops those nodes replaced are the tests'
oracles, so the small ops live here: ``add``, ``sub``, ``mul``,
``matmul``, ``relu``, ``tsum``, ``tmean``, ``getitem``, ``concat`` and
``gather_rows`` are the library's former ops, each one ``_make`` node;
``matmul`` takes the library's own product and gradient helpers, which now
act on arrays.  Broadcasting follows numpy rules, and the gradients sum
back down to each operand's shape.
"""
from typing import Sequence

import numpy as np

from mafn.errors import ContractError, DimensionError, NumericError
from mafn.tensor import Tensor, _make, _matmul_grads, _product, _unbroadcast


def _broadcast(ufunc, a: Tensor, b: Tensor, op: str) -> np.ndarray:
    """``ufunc`` on both operands' data; a shape clash raises DimensionError."""
    try:
        return ufunc(a.data, b.data)
    except ValueError:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast(np.add, a, b, "add")
    return _make(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)), "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast(np.subtract, a, b, "sub")
    return _make(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)), "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast(np.multiply, a, b, "mul")
    return _make(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
        "mul",
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return _make(_product(a.data, b.data), (a, b), lambda g: _matmul_grads(g, a.data, b.data), "matmul")


def relu(x: Tensor) -> Tensor:
    # subgradient at exactly 0 is 0
    out = np.maximum(x.data, 0.0)
    return _make(out, (x,), lambda g: (g * (x.data > 0.0),), "relu")


def _axis_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


def tsum(x: Tensor, axis=None) -> Tensor:
    axes = _axis_tuple(axis, x.ndim)
    out = x.data.sum(axis=axes or None)
    kept = tuple(1 if a in axes else n for a, n in enumerate(x.shape))   # the gradient before it broadcasts
    return _make(out, (x,), lambda g: (np.broadcast_to(g.reshape(kept), x.shape),), "sum")


def tmean(x: Tensor, axis=None) -> Tensor:
    axes = _axis_tuple(axis, x.ndim)
    count = int(np.prod([x.shape[a] for a in axes])) if axes else 1
    out = x.data.mean(axis=axes or None)
    kept = tuple(1 if a in axes else n for a, n in enumerate(x.shape))
    return _make(out, (x,), lambda g: (np.broadcast_to(g.reshape(kept), x.shape) / count,), "mean")


_BASIC_INDEX = (int, np.integer, slice, type(None), type(Ellipsis))


def getitem(x: Tensor, idx) -> Tensor:
    """Basic indexing only (ints, slices, ``...``, ``None``): each output
    element has its own source element, so the gradient is a slice assignment."""
    for item in idx if isinstance(idx, tuple) else (idx,):
        if isinstance(item, bool) or not isinstance(item, _BASIC_INDEX):
            raise ContractError(f"getitem of {type(item).__name__}: use gather_rows for an array index")
    out = x.data[idx]

    def grad_fn(g):
        buf = np.zeros_like(x.data)
        buf[idx] = g
        return (buf,)

    return _make(out, (x,), grad_fn, "getitem")


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along ``axis``; the gradient splits back by slice."""
    ts = list(tensors)
    if not ts:
        raise ContractError("concat of zero tensors")
    ndim = ts[0].ndim
    ax = axis % ndim if ndim else 0
    ref = list(ts[0].shape)
    for t in ts[1:]:
        if t.ndim != ndim:
            raise DimensionError(f"concat rank mismatch: {ts[0].shape} vs {t.shape}")
        other = list(t.shape)
        if ref[:ax] + ref[ax + 1 :] != other[:ax] + other[ax + 1 :]:
            raise DimensionError(f"concat off-axis dims differ: {ts[0].shape} vs {t.shape} on axis {axis}")
    out = np.concatenate([t.data for t in ts], axis=ax)
    offsets = np.cumsum([t.shape[ax] for t in ts])[:-1]

    def grad_fn(g):
        return tuple(np.split(g, offsets, axis=ax))

    return _make(out, tuple(ts), grad_fn, "concat")


def gather_rows(table: Tensor, ids) -> Tensor:
    """Row lookup ``table[ids]`` for an integer id array of any shape.

    Gradient accumulates into the looked-up rows only; repeated ids sum.
    """
    if table.ndim != 2:
        raise DimensionError(f"gather_rows needs a 2-d table, got {table.shape}")
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ContractError("gather_rows ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ContractError(
            f"gather_rows id out of range [0, {table.shape[0]}): min {ids.min()}, max {ids.max()}"
        )
    out = table.data[ids]

    def grad_fn(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids, g)
        return (buf,)

    return _make(out, (table,), grad_fn, "gather_rows")


# -- composites the references and gradient checks share -----------------------------


def taped_tanh(x: Tensor) -> Tensor:
    """A taped tanh: the attention reference graph's nonlinearity, and a
    smooth op for the tape's own gradient tests."""
    out = np.tanh(x.data)
    return _make(out, (x,), lambda g: (g * (1.0 - out * out),), "tanh")


def taped_square(x: Tensor) -> Tensor:
    """The taped square the losses used; its backward is ``(g * 2.0) * x``."""
    return _make(x.data * x.data, (x,), lambda g: (g * 2.0 * x.data,), "square")


def sum_of_squares(x: Tensor) -> Tensor:
    """A smooth scalar loss of ``x`` for gradient checks."""
    return tsum(mul(x, x))


def weighted_sum(x: Tensor, weight) -> Tensor:
    """``(x * weight).sum()`` for a constant ``weight``: a scalar whose
    gradient with respect to ``x`` is ``weight``."""
    return tsum(mul(x, Tensor(weight)))


def taped_log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """The taped log-softmax the state loss used."""
    if np.isnan(x.data).any():
        raise NumericError("log_softmax input contains NaN")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return _make(out, (x,), lambda g: (g - np.exp(out) * g.sum(axis=axis, keepdims=True),), "log_softmax")


def negated(x: Tensor) -> Tensor:
    """``-x`` as the tape recorded it: a product with a 0-d -1."""
    return mul(x, Tensor(-1.0))


def divided(x: Tensor, d: float) -> Tensor:
    """``x / d`` as the tape recorded it: a product with a 0-d reciprocal."""
    return mul(x, Tensor(1.0 / float(d)))
