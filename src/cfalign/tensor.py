"""Minimal reverse-mode autodiff on dense float64 tensors.

Values are float64 numpy arrays. Per-pixel values are feature-major: a (d, n)
array holds one column per pixel, so a layer is ``w.T @ x`` and every sum
over pixels is a sum along contiguous rows. Differentiable operations record
nodes onto an explicit :class:`Graph` tape (define-by-run); insertion order is
a valid topological order, and :func:`backward` replays the tape once in
reverse. Ops executed with no graph active are forward-only, which is what
evaluation and finite differencing use.

Each layer and loss is one node with a hand-written backward. The tape ops
here are the layers' `affine` and `batch_norm_relu`, and `transpose`, which
gives the losses their rows. The per-op chains they are pinned against, with
the ``EPS`` clamps of log, div and sqrt, live in ``tests/chain_ops.py``.
Batch norm keeps the chain's guard: its standard deviation is clamped below
by ``EPS``. A ReLU is the last step of the layer it follows, in place on
that layer's output: ``affine`` takes it on request and ``batch_norm_relu``
always, so each layer with its activation is one node and one output array.

Buffer contract. A graph may carry an :class:`ArrayPool`; training gives
each step's graph the one pool of its run. Under a pooled graph every array
:func:`buffer` draws is lent until :meth:`ArrayPool.reclaim`, which
training calls when the step ends, except that :func:`backward` hands a
node's output data and gradient back as soon as it has passed the node:
every reader of them came later on the tape. The root's output is never
handed back early. Without a pool, or with no graph active, every array is
fresh.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Mapping

import numpy as np

from .errors import ContractError, DimensionError

EPS = 1e-12

__all__ = [
    "EPS",
    "Tensor",
    "Graph",
    "ArrayPool",
    "Node",
    "backward",
    "record",
    "accum",
    "accum_scratch",
    "buffer",
    "zero_grads",
    "grad_check",
    "transpose",
    "affine",
    "batch_norm_relu",
    "write_container",
    "read_container",
]


class Tensor:
    """A dense float64 array plus an optional gradient of the same shape."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


@dataclass
class Node:
    """One recorded operation: tag, input tensors, output and its backward."""

    tag: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward: Callable[[np.ndarray], None]


class ArrayPool:
    """Free float64 arrays by shape, lent to the tapes of one training run.

    `take` lends an array of unspecified contents; `give` takes an array
    back only if this pool lent it, so any array may be offered; `reclaim`
    takes back every array still lent. A lent array is referenced from
    here, so no other object can share its id.
    """

    def __init__(self) -> None:
        self._free: dict[tuple[int, ...], list[np.ndarray]] = {}
        self._lent: dict[int, np.ndarray] = {}
        self.misses = 0  # takes that had to allocate a new array

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        free = self._free.get(shape)
        if free:
            a = free.pop()
        else:
            a = np.empty(shape)
            self.misses += 1
        self._lent[id(a)] = a
        return a

    def give(self, a: np.ndarray | None) -> bool:
        """Take `a` back if this pool lent it; returns whether it did."""
        if a is None or self._lent.pop(id(a), None) is None:
            return False
        self._free.setdefault(a.shape, []).append(a)
        return True

    def reclaim(self) -> None:
        """Take back every array still lent."""
        for a in self._lent.values():
            self._free.setdefault(a.shape, []).append(a)
        self._lent.clear()

    @property
    def held(self) -> int:
        """Arrays waiting to be lent again."""
        return sum(len(free) for free in self._free.values())

    @property
    def lent(self) -> int:
        """Arrays lent and not yet given back."""
        return len(self._lent)


@dataclass
class Graph:
    """Append-only tape of nodes. Use as a context manager to make it active.

    With a `pool`, the tape's arrays are drawn from it (see the module's
    buffer contract).
    """

    nodes: list[Node] = field(default_factory=list)
    pool: ArrayPool | None = None

    def __enter__(self) -> "Graph":
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _GRAPH_STACK.pop()
        assert popped is self, "graph stack corrupted"

    def __len__(self) -> int:
        return len(self.nodes)


_GRAPH_STACK: list[Graph] = []


def _active() -> Graph | None:
    return _GRAPH_STACK[-1] if _GRAPH_STACK else None


def buffer(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 array, lent by the active graph's pool when
    there is one."""
    g = _active()
    if g is not None and g.pool is not None:
        return g.pool.take(shape)
    return np.empty(shape)


def accum(t: Tensor, g: np.ndarray) -> None:
    """Add `g` into t.grad (allocated on first use); a no-op for constants."""
    if not t.requires_grad:
        return
    if t.grad is None:
        # bitwise `zeros + g` in one pass: IEEE addition commutes, so a -0.0
        # in g still becomes +0.0
        t.grad = np.add(g, 0.0, out=buffer(t.data.shape))
    else:
        t.grad += g


def accum_scratch(t: Tensor, g: np.ndarray) -> None:
    """:func:`accum` for a backward's own scratch `g`, drawn by :func:`buffer`
    and read by nothing after this call: on the first store `g` becomes
    t.grad, otherwise it is added in.

    Never pass an array the backward was handed, such as its incoming
    gradient: `losses.total_objective` hands that one on to its first input.
    """
    if t.requires_grad and t.grad is None:
        t.grad = np.add(g, 0.0, out=g)  # the `+ 0.0` of accum, in place
        return
    accum(t, g)


def record(tag: str, inputs: tuple[Tensor, ...], out: Tensor, bwd: Callable) -> None:
    """Append a node to the active graph when `out` needs a gradient.

    `bwd(out.grad)` must push the input gradients through :func:`accum`;
    every op in this module and the fused ones elsewhere go through here.
    """
    g = _active()
    if g is not None and out.requires_grad:
        g.nodes.append(Node(tag, inputs, out, bwd))


# ---------------------------------------------------------------------------
# linear ops


def transpose(x: Tensor) -> Tensor:
    """The (n, d) view of a (d, n) tensor, or back; its gradient is a view too."""
    out = Tensor(x.data.T, x.requires_grad)

    def bwd(g):
        accum(x, g.T)

    record("transpose", (x,), out, bwd)
    return out


def affine(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """``w.T @ x + b[:, None]`` for (k, n) inputs and a (k, m) weight, as
    one node; same rounding as the matmul-and-add chain of
    ``tests/chain_ops.py``. With `relu`, the node also applies the ReLU of
    that chain's ``relu`` op, in place on its output.

    The weight keeps its (d_in, d_out) storage and the product reads it
    through a transposed view.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[0] != w.data.shape[0]:
        raise DimensionError(
            f"affine needs (k,m) weights over (k,n) inputs, got {w.data.shape} and {x.data.shape}"
        )
    requires_grad = x.requires_grad or w.requires_grad or b.requires_grad
    y = np.matmul(w.data.T, x.data, out=buffer((w.data.shape[1], x.data.shape[1])))
    y += b.data[:, None]  # in place: no second (m, n) array
    if relu:
        np.maximum(y, 0.0, out=y)  # maximum, not where: NaN propagates
    out = Tensor(y, requires_grad)

    def bwd(g):
        if relu:
            g = _relu_grad(g, y)
        # bias, then input, then weight: the accumulation order of the chain
        accum(b, g.sum(axis=1))
        if x.requires_grad:  # pixel inputs need no gradient
            accum_scratch(x, np.matmul(w.data, g, out=buffer(x.data.shape)))
        accum(w, x.data @ g.T)

    record("affine", (x, w, b), out, bwd)
    return out


def _relu_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The gradient reaching a ReLU's input, from `g` at its output `y`, in
    a buffer: the chain's ``g * mask``, then the ``+ 0.0`` of its first
    store. ``y > 0`` holds exactly where the input was above 0 (at -0.0,
    +0.0 and NaN inputs too), so the subgradient at 0 is taken as 0."""
    gm = np.multiply(g, y > 0, out=buffer(y.shape))
    return np.add(gm, 0.0, out=gm)


# ---------------------------------------------------------------------------
# batch normalization


def batch_norm_relu(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of a (d, n) tensor over its n pixels by the batch
    mean and population variance, scale by `gamma`, shift by `beta` and
    apply a ReLU in place, as one node tagged ``batch_norm``.

    Every call normalizes by its own batch; no statistics are kept across
    calls.
    """
    if x.data.ndim != 2:
        raise DimensionError(f"batch_norm_relu needs a (d, n) tensor, got shape {x.data.shape}")
    d, n = x.data.shape
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise DimensionError(
            f"batch_norm_relu scale/shift must have shape ({d},), got {gamma.data.shape} and {beta.data.shape}"
        )
    g_col, b_col = gamma.data[:, None], beta.data[:, None]
    requires_grad = x.requires_grad or gamma.requires_grad or beta.requires_grad
    # bitwise `mean(axis=1, keepdims=True)`, which divides the same sum by n
    m = x.data.sum(axis=1, keepdims=True) / n
    c = np.subtract(x.data, m, out=buffer(x.data.shape))
    # one buffer holds c * c, then q = c / safe, which the backward reads
    q = np.multiply(c, c, out=buffer(x.data.shape))
    v = q.sum(axis=1, keepdims=True) / n
    safe = np.maximum(np.sqrt(np.maximum(v + eps, 0.0)), EPS)
    np.divide(c, safe, out=q)
    y = np.multiply(g_col, q, out=buffer(x.data.shape))
    y += b_col
    np.maximum(y, 0.0, out=y)  # the ReLU, as in `affine`
    out = Tensor(y, requires_grad)

    def bwd(g):
        # the ReLU's backward, whose `+ 0.0` is also the batch norm's first
        # step (adding 0.0 twice rounds as adding it once); then the chain
        # mean, sub, mul, mean, add, sqrt, div, mul, add in reverse, in
        # place on that copy of g and on q. Each of the chain's intermediate
        # gradients started from zeros, so each is `0.0 + ...`, which turns a
        # -0.0 into +0.0 where the chain did. Two are left out, on the (d, n)
        # gradients gq = g * gamma and gq / safe: a zero's sign in them
        # reaches only gs, which is `0.0 + -sum` and so never -0.0, and x's
        # gradient, which ends with `+ gm`, also never -0.0. A negation is
        # taken after its sum or quotient, since sum(-a) == -sum(a) and
        # (-a) * b / s == -(a * b / s)
        gc = _relu_grad(g, y)
        accum(beta, gc.sum(axis=1))
        accum(gamma, np.multiply(gc, q, out=q).sum(axis=1))
        if not x.requires_grad:
            return
        gc *= g_col
        np.multiply(gc, c, out=q)
        np.divide(q, safe * safe, out=q)
        gs = 0.0 + -q.sum(axis=1, keepdims=True)
        gc /= safe
        gv = 0.0 + (0.0 + gs * 0.5 / safe)  # sqrt, then add eps
        gsq = 0.0 + gv / n
        term = np.multiply(gsq, c, out=q)  # c * c hands the same term to both factors
        gc += term
        gc += term
        gm = (0.0 + -gc.sum(axis=1, keepdims=True)) / n
        accum_scratch(x, gc)
        accum(x, gm)

    record("batch_norm", (x, gamma, beta), out, bwd)
    return out


# ---------------------------------------------------------------------------
# backward pass and gradient checking


def backward(root: Tensor, graph: Graph) -> None:
    """Seed d(root)/d(root) = 1 and replay the tape once in reverse order.

    With a pooled graph, each node's output data and gradient go back to
    the pool once backward has passed it, except the root's output.
    """
    if root.data.size != 1:
        raise ContractError(f"backward needs a scalar root, got shape {root.data.shape}")
    root.grad = np.ones_like(root.data)
    pool = graph.pool
    for node in reversed(graph.nodes):
        out = node.output
        if out.grad is not None:
            node.backward(out.grad)
        if pool is None:
            continue
        # every reader of `out` came later on the tape and has run
        if out is not root:
            pool.give(out.data)
            if pool.give(out.grad):
                out.grad = None


def zero_grads(params: Iterable[Tensor]) -> None:
    """Drop each gradient."""
    for p in params:
        p.grad = None


def grad_check(fn: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max over coordinates of |analytic - central difference| / max(1, |a|, |n|).

    `fn` must be a pure scalar-valued function of `x`; it is re-evaluated
    forward-only (no tape) for the finite differences.
    """
    if not x.requires_grad:
        raise ContractError("grad_check target must have requires_grad=True")
    x.grad = None
    with Graph() as g:
        y = fn(x)
        if y.data.size != 1:
            raise ContractError(f"grad_check needs a scalar-valued fn, got shape {y.data.shape}")
        backward(y, g)
    analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)
    x.grad = None

    flat = x.data.ravel()
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn(x).item()
        flat[i] = orig - h
        fm = fn(x).item()
        flat[i] = orig
        numeric[i] = (fp - fm) / (2.0 * h)
    numeric = numeric.reshape(x.data.shape)

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    if analytic.size == 0:
        return 0.0
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# container files: one JSON header line, then per tensor u32 rank, u32
# extents and f64 values, all little-endian


def write_container(path: str | Path, header: dict, arrays: Mapping[str, np.ndarray]) -> None:
    """Write `header` plus a "tensors" list naming `arrays` in order, then the arrays.

    Every array is stored as float64 (integer labels and bool flags widen).
    """
    header = {**header, "tensors": list(arrays)}
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for array in arrays.values():
            a = np.asarray(array, dtype=np.float64)
            fh.write(struct.pack(f"<{a.ndim + 1}I", a.ndim, *a.shape))
            fh.write(np.ascontiguousarray(a, dtype="<f8"))


def read_container(path: str | Path, fmt: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container whose header has format tag `fmt`: (header, arrays by name).

    A path that cannot be opened raises ContractError naming it, and so does
    malformed input: a header line that is not a UTF-8 JSON object (nesting
    past the recursion limit or an integer too long to convert included),
    another format tag, no list of distinct tensor names, a tensor declaring
    more bytes than the file has left (checked before any read), a NaN or
    infinite value in any tensor, or bytes after the last tensor.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ContractError(f"cannot open {path}: {exc.strerror}") from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # decode errors are ValueErrors
            raise ContractError(f"{path} does not start with a JSON header line: {exc}") from exc
        if not isinstance(header, dict):
            raise ContractError(f"{path} header is not a JSON object")
        if header.get("format") != fmt:
            raise ContractError(f"{path} has format {header.get('format')!r}, expected {fmt!r}")
        names = header.get("tensors")
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ContractError(f"{path} header lacks a list of tensor names")
        if len(set(names)) != len(names):
            raise ContractError(f"{path} header names a tensor twice")
        arrays = {name: _read_array(fh, size, f"{path} tensor {name!r}") for name in names}
        if fh.tell() != size:
            raise ContractError(f"{path} has {size - fh.tell()} bytes after its last tensor")
    return header, arrays


def _read_array(fh: BinaryIO, size: int, what: str) -> np.ndarray:
    def room(n: int) -> int:
        if n > size - fh.tell():
            raise ContractError(f"{what} declares {n} more bytes, file has {size - fh.tell()} left")
        return n

    (rank,) = struct.unpack("<I", fh.read(room(4)))
    if rank > 32:
        raise ContractError(f"{what} has implausible rank {rank}")
    shape = struct.unpack(f"<{rank}I", fh.read(room(4 * rank)))
    values = np.empty(room(8 * math.prod(shape)) // 8, dtype="<f8")
    fh.readinto(values)
    if not np.isfinite(values).all():
        raise ContractError(f"{what} holds a NaN or infinite value")
    return values.astype(np.float64, copy=False).reshape(shape)
