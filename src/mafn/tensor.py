"""Dense float64 tensors with reverse-mode automatic differentiation.

Every forward operation records a node on a dynamic tape (parent links plus
a closure computing parent gradients from the output gradient).  Calling
``backward()`` on a scalar tensor topologically sorts the tape and pushes
gradients back, accumulating additively into the leaves' ``.grad`` so
repeated backward passes without zeroing sum their contributions.  Each
layer records one node (``embed_beside``, the state embedding's rows
appended to its input, ``dense``, ``conv1d`` with its bias and ReLU,
``additive_attention``, ``lstm_scan``), and so do the four head losses and
their weighted sum ``total_loss``, through ``_make``; each node's backward
repeats the arithmetic of the graph of small ops it replaced, bit for bit.
There is no general elementwise algebra.

All data is float64: the finite-difference checks this package leans on
need double precision.

Graphs are single-threaded.  Tensors with no live graph references may be
handed between threads freely.
"""
from __future__ import annotations

import contextlib
import itertools
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / validation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """An n-dimensional float64 array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn", "_op")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple = (),
        _grad_fn: Optional[Callable] = None,
        _op: str = "",
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._grad_fn = _grad_fn
        self._op = _op

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    # -- gradient bookkeeping ------------------------------------------------

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Backpropagate from this scalar through the recorded tape.

        Gradients accumulate additively into ``.grad`` of every leaf on the
        path (a tensor no operation produced), so a second call without
        zeroing doubles them exactly.  Intermediate results keep no ``.grad``.
        """
        if self.data.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise ContractError("backward() on a tensor produced by untracked operations")
        order = topo_order(self)
        adjoint = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = adjoint.pop(id(node), None)
            if g is None:
                continue
            if node._grad_fn is None:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g
                continue
            for parent, pg in zip(node._parents, node._grad_fn(g)):
                if not parent.requires_grad:
                    continue
                prev = adjoint.get(id(parent))
                adjoint[id(parent)] = pg if prev is None else prev + pg

    def reshape(self, shape):
        return reshape(self, shape)


def parameter(data) -> Tensor:
    """A leaf tensor that collects gradients (model weights)."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def topo_order(root: Tensor) -> list:
    """Topologically ordered compute graph reachable from ``root``.

    Parents appear before children; one backward traversal over the reversed
    list visits each node exactly once.
    """
    order: list = []
    seen: set = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def _make(data, parents, grad_fn, op: str) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _grad_fn=grad_fn, _op=op)
    return Tensor(data)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``; operands that do not multiply raise DimensionError."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    try:
        return a @ b
    except ValueError:
        raise DimensionError(f"matmul batch dimensions disagree: {a.shape} @ {b.shape}") from None


def _matmul_grads(g: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    ga = _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape)
    gb = _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)
    return ga, gb


def _affine(a: np.ndarray, w: np.ndarray, b: Tensor, relu: bool, parents: tuple, op: str,
            to_parents=lambda *grads: grads) -> Tensor:
    """``a @ w + b`` for a (n_out,) bias, through a ReLU when ``relu``, as
    one tape node of ``parents``.  The backward repeats the taped matmul,
    add and ReLU: the mask product, the matmul's two products and the bias
    gradient summed down to ``b``, which ``to_parents`` maps to the parents'."""
    if b.shape != w.shape[-1:]:
        raise DimensionError(f"{op} bias {b.shape} does not fit weights {w.shape}")
    y = _product(a, w) + b.data

    def grad_fn(g):
        if relu:
            g = g * (y > 0.0)
        return to_parents(*_matmul_grads(g, a, w), _unbroadcast(g, b.shape))

    return _make(np.maximum(y, 0.0) if relu else y, parents, grad_fn, op)


def dense(x: Tensor, W: Tensor, b: Tensor, relu: bool) -> Tensor:
    """``x @ W + b`` for a (n_out,) bias, through a ReLU when ``relu``, as
    one tape node."""
    return _affine(x.data, W.data, b, relu, (x, W, b), "dense")


# -- shape surgery ---------------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = x.data.reshape(shape)
    return _make(out, (x,), lambda g: (g.reshape(x.shape),), "reshape")


def embed_beside(x: Tensor, table: Tensor, ids) -> Tensor:
    """``x`` (..., D) with the (K, m) ``table``'s rows of the integer ``ids``
    (...) appended on the last axis, (..., D + m), as one tape node of
    ``(x, table)``.  The backward splits the gradient at column D; the
    table's part accumulates into the looked-up rows, repeated ids summing."""
    if table.ndim != 2:
        raise DimensionError(f"embed_beside needs a 2-d table, got {table.shape}")
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ContractError("embed_beside ids must be integers")
    if x.ndim == 0 or ids.shape != x.shape[:-1]:
        raise DimensionError(f"embed_beside ids {ids.shape} do not match input {x.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ContractError(
            f"embed_beside id out of range [0, {table.shape[0]}): min {ids.min()}, max {ids.max()}"
        )
    D = x.shape[-1]
    out = np.empty(ids.shape + (D + table.shape[1],))
    out[..., :D] = x.data
    out[..., D:] = table.data[ids]

    def grad_fn(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids, g[..., D:])
        return g[..., :D], buf

    return _make(out, (x, table), grad_fn, "embed_beside")


# -- convolution and attention -----------------------------------------------------


def conv1d(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """Same-padded (``(kernel-1)//2`` zeros on the left) stride-1 convolution
    of (B, T, C) ``x`` with (kernel, C, F) ``W``, plus the (F,) bias ``b``,
    through a ReLU, as one tape node: one matmul over a strided view of the
    padded input, with :func:`dense`'s bias, ReLU and matmul gradients.  The
    backward sums one zero buffer per tap in tap order, bit-equal to a graph
    of tap slices, a bias add and a ReLU."""
    if x.ndim != 3 or x.shape[2] != W.shape[1]:
        raise DimensionError(f"conv1d input must be (B, T, {W.shape[1]}), got {x.shape}")
    (B, t_len, C), (kernel, _, n_filters) = x.shape, W.shape
    if kernel > 2 * t_len:
        raise ContractError(f"kernel {kernel} too long for window {t_len}")
    p = (kernel - 1) // 2
    xp = np.zeros((B, t_len + kernel - 1, C))
    xp[:, p : p + t_len] = x.data
    cols = np.ndarray((B, t_len, kernel * C), xp.dtype, buffer=xp, strides=xp.strides).copy()

    def to_parents(g_cols, g_w, g_b):
        dxp = None
        for j in range(kernel):
            buf = np.zeros_like(xp)
            buf[:, j : j + t_len] = g_cols[..., j * C : (j + 1) * C]
            dxp = buf if dxp is None else dxp + buf
        return dxp[:, p : p + t_len], g_w.reshape(W.shape), g_b

    return _affine(cols, W.data.reshape(kernel * C, n_filters), b, True, (x, W, b), "conv1d", to_parents)


def additive_attention(h: Tensor, Wh: Tensor, s: Tensor, Ws: Tensor, v: Tensor):
    """Context (B, H), one tape node, and constant weights (B, T) of attention
    over (B, T, H) states: a max-shifted softmax over time of the scores
    ``tanh(h Wh + s Ws) v``.  The backward repeats the taped graph's
    arithmetic, a (B, T, 1) broadcast multiply and batch-then-time sums."""
    if h.ndim != 3 or h.shape[2] != Wh.shape[0]:
        raise DimensionError(f"attention input must be (B, T, {Wh.shape[0]}), got {h.shape}")
    B, t_len, _ = h.shape
    query = s.data @ Ws.data
    pre = np.tanh(h.data @ Wh.data + query)
    scores = (pre @ v.data).reshape(B, t_len)
    if np.isnan(scores).any():
        raise NumericError("softmax input contains NaN")
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    w3 = w.reshape(B, t_len, 1)

    def grad_fn(g):
        g = np.broadcast_to(g.reshape(B, 1, -1), h.shape)
        dw = _unbroadcast(g * h.data, w3.shape).reshape(B, t_len)
        dscores = (w * (dw - (dw * w).sum(axis=-1, keepdims=True))).reshape(B, t_len, 1)
        dpre = (dscores @ v.data.T) * (1.0 - pre * pre)
        dquery = _unbroadcast(dpre, query.shape)
        return (g * w3 + dpre @ Wh.data.T, _unbroadcast(np.swapaxes(h.data, -1, -2) @ dpre, Wh.shape),
                dquery @ Ws.data.T, s.data.T @ dquery, _unbroadcast(np.swapaxes(pre, -1, -2) @ dscores, v.shape))

    return _make((w3 * h.data).sum(axis=(1,)), (h, Wh, s, Ws, v), grad_fn, "additive_attention"), Tensor(w)


# -- recurrence -----------------------------------------------------------------------


def _scan_order(a: np.ndarray, direction: int) -> np.ndarray:
    """Time-major ``a`` in the order direction ``direction`` scans it: the
    second direction runs right to left.  Its own inverse."""
    return a[::-1] if direction else a


def lstm_scan(directions: Sequence[tuple], steps: int) -> Tensor:
    """One or two LSTM unrolls as one tape node; returns hidden states
    (B, steps, dirs * H), the directions' blocks side by side.

    Each direction is a tuple ``(x, W_x, hc0, W_h, b)``: ``x`` is a
    (B, steps, F) sequence or a (B, F) input held over every step (the
    decoders' context), ``hc0`` the (B, 2H) initial state ``[h0 | c0]``, and
    every direction has the same shapes.  The scan reads ``h0`` and ``c0`` as
    views of its halves, and its backward returns one ``[dh0 | dc0]``.  The scan
    projects its own input, ``x @ W_x`` as per-batch (steps, F) @ (F, 4H)
    products or one (B, F) @ (F, 4H), into its time-step-major buffer; its
    backward returns ``dx`` and ``dW_x`` from the same products, the weight's
    summed over the batch, so the tape holds no projection.  The first
    direction scans left to right, a second right to left; both keep the
    input's time order in the output.  Gates are stacked in i, f, g, o column
    order; each step computes ``z = (xw_t + h @ W_h) + b``,
    ``c = f * c + i * g`` and ``h = o * tanh(c)``.  The directions share one
    time loop, so each step is one set of numpy calls; with the tape off it
    reuses one gate, cell and tanh(c) slot, its views made once.  The backward
    is backpropagation through time in numpy over gate-major factors, each
    step's block rewritten in place as (dirs, B, 4H) rows for its matmuls.
    """
    dirs = len(directions)
    if dirs not in (1, 2):
        raise ContractError(f"lstm_scan runs one or two directions, got {dirs}")
    n, B = directions[0][3].shape[0], directions[0][2].shape[0]
    const = directions[0][0].ndim == 2
    for x, W_x, hc0, W_h, b in directions:
        if (steps < 1 or x.shape[:-1] != ((B,) if const else (B, steps)) or W_x.shape != (x.shape[-1], 4 * n)
                or W_h.shape != (n, 4 * n) or b.shape != (4 * n,) or hc0.shape != (B, 2 * n)):
            raise DimensionError(
                f"lstm_scan: x {x.shape}, W_x {W_x.shape}, hc0 {hc0.shape}, W_h {W_h.shape} and "
                f"b {b.shape} do not fit {steps} steps of batch {B}, hidden {n}"
            )
    # time-step-major buffers: scan step k of every direction sits at index k,
    # so each step's (dirs, B, ...) block is contiguous.  The pre-activations
    # z hold the gates as (4, H) blocks of each row; the activations are
    # gate-major, so the cell and hidden updates read contiguous blocks
    xs = np.empty((1 if const else steps, dirs, B, 4 * n))
    for d, (x, W_x, *_) in enumerate(directions):
        xs[:, d] = _scan_order((x.data @ W_x.data).reshape(B, -1, 4 * n).transpose(1, 0, 2), d)
    hc0, W_h, b = (np.array([d[j].data for d in directions]) for j in range(2, 5))
    h0, c0, b = hc0[..., :n], hc0[..., n:], b[:, None]
    record = _grad_enabled and any(t.requires_grad for direction in directions for t in direction)
    slots = steps if record else 1
    gates = np.empty((slots, 4, dirs, B, n))  # i, f, g, o activations
    cells = np.empty((slots, dirs, B, n))
    tanh_c = np.empty((slots, dirs, B, n))
    hidden = np.empty((steps, dirs, B, n))
    h, c = h0, c0
    z, cand, i_cand = np.empty((dirs, B, 4, n)), np.empty((dirs, B, n)), np.empty((dirs, B, n))
    z_rows, z_g, one = z.reshape(dirs, B, 4 * n), z[..., 2, :], np.ones(())
    i, f, g, o = gates.transpose(1, 0, 2, 3, 4)
    history = (gates.transpose(0, 2, 3, 1, 4), i, f, g, o, cells, tanh_c)
    per_step = zip(*history) if record else itertools.repeat(tuple(a[0] for a in history))
    inputs = itertools.repeat(xs[0]) if const else xs
    # at batch 1 a step costs numpy call overhead, not arithmetic: functions
    # bound to locals, outputs passed positionally, the constant 1 a 0-d array
    matmul, add, multiply, divide, negative, exp, tanh = np.matmul, np.add, np.multiply, np.divide, np.negative, np.exp, np.tanh
    for (act, i_k, f_k, g_k, o_k, c_k, tc_k), x_k, h_k in zip(per_step, inputs, hidden):
        matmul(h, W_h, z_rows)
        add(x_k, z_rows, z_rows)
        add(z_rows, b, z_rows)
        tanh(z_g, cand)
        # sigmoid 1 / (1 + exp(-z)) into the gate-major slot; the candidate block takes tanh
        negative(z, z)
        exp(z, z)
        add(z, one, z)
        divide(one, z, act)
        if record:
            g_k[...] = cand
        c = multiply(f_k, c, c_k)
        add(c, multiply(i_k, cand, i_cand), c)
        tanh(c, tc_k)
        h = multiply(o_k, tc_k, h_k)

    def grad_fn(grad):
        by_dir = grad.reshape(B, steps, dirs, n).transpose(2, 1, 0, 3)
        gs = np.stack([_scan_order(by_dir[d], d) for d in range(dirs)], axis=1)
        # d(loss)/d(pre-activation) is dc times these for i, f, g and dh for
        # o, built in place as g·i(1-i), c_prev·f(1-f), i(1-g²) and
        # tanh(c)·o(1-o) in the gates' own gate-major layout
        dz = np.empty((steps, 4, dirs, B, n))
        s_i, s_f, s_g, s_o = dz.transpose(1, 0, 2, 3, 4)
        subtract, multiply = np.subtract, np.multiply
        multiply(g, multiply(i, subtract(1.0, i, s_i), s_i), s_i)
        multiply(f, subtract(1.0, f, s_f), s_f)
        multiply(c0, s_f[0], s_f[0])
        multiply(cells[:-1], s_f[1:], s_f[1:])
        multiply(i, subtract(1.0, multiply(g, g, s_g), s_g), s_g)
        multiply(tanh_c, multiply(o, subtract(1.0, o, s_o), s_o), s_o)
        dc_dh = multiply(tanh_c, tanh_c)
        multiply(o, subtract(1.0, dc_dh, dc_dh), dc_dh)
        dh = np.zeros((dirs, B, n))
        dc = np.zeros((dirs, B, n))
        W_hT = W_h.transpose(0, 2, 1)
        # step k's (4, dirs, B, H) block is contiguous: the loop scales it, then
        # rewrites the same memory as (dirs, B, 4H) rows for the recurrent matmul
        rows = dz.reshape(steps, dirs, B, 4 * n)
        for k in range(steps - 1, -1, -1):
            dh += gs[k]
            dc += dh * dc_dh[k]
            dz[k, :3] *= dc
            dz[k, 3] *= dh
            dc *= f[k]
            rows[k] = dz[k].transpose(1, 2, 0, 3).reshape(dirs, B, 4 * n)  # the reshape copies
            dh = rows[k] @ W_hT
        del gs, dc_dh                        # free before the tail allocates
        grads = []
        for d, (x, W_x, *_) in enumerate(directions):
            dz_d = np.ascontiguousarray(rows[:, d])  # no copy with one direction
            h_prev = np.concatenate([h0[d][None], hidden[:-1, d]])
            dW_h, db = h_prev.reshape(-1, n).T @ dz_d.reshape(-1, 4 * n), dz_d.sum(axis=(0, 1))
            if const:
                dxw = dz_d.sum(axis=0)
            else:
                # BLAS reads each batch's (steps, 4H) block in place only at a positive
                # row stride, so the right-to-left direction's steps are swapped in place
                for j in range(steps // 2 if d else 0):
                    dz_d[[j, -1 - j]] = dz_d[[-1 - j, j]]
                dxw = dz_d.transpose(1, 0, 2)
            dW_x = _unbroadcast(np.swapaxes(x.data, -1, -2) @ dxw, W_x.shape)
            grads += [dxw @ W_x.data.T, dW_x, np.concatenate([dh[d], dc[d]], axis=1), dW_h, db]
            del dz_d, dxw                    # before the next direction's copy
        return grads

    out = np.concatenate([_scan_order(hidden[:, d], d).transpose(1, 0, 2) for d in range(dirs)], axis=2)
    return _make(out, tuple(t for direction in directions for t in direction), grad_fn, "lstm_scan")
