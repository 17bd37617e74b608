"""Minimal reverse-mode autodiff on dense float64 tensors.

Values are numpy arrays in row-major order. Differentiable operations record
nodes onto an explicit :class:`Graph` tape (define-by-run); insertion order is
a valid topological order, and :func:`backward` replays the tape once in
reverse. Ops executed with no graph active are forward-only, which is what
evaluation and finite differencing use.

Each layer and loss is one node with a hand-written backward. The per-op
chains they are pinned against, with the ``EPS`` clamps of log, div and
sqrt, live in ``tests/chain_ops.py``. Batch norm keeps the chain's guard:
its standard deviation is clamped below by ``EPS``.

Buffer contract. A graph may carry an :class:`ArrayPool`; training gives
each step's graph the one pool of its run. Under a pooled graph, the output
arrays of the recorded layers (``affine``, ``relu``, ``softmax``,
``batch_norm``), every gradient :func:`accum` allocates, the full-size
log-probabilities the cross-entropy and entropy forwards keep for their
backwards, and the full-size scratch of the relu, affine and loss backwards
come from the pool. Such a
scratch array becomes the input's gradient when it is the first to reach
that input (:func:`accum_scratch`), instead of being copied into a second
pool array. :func:`backward` hands a node's output data and gradient back
as soon as it has passed that node, which it can because every reader of
them came later on the tape. So inside a pooled graph an intermediate's
``data`` and ``grad`` are valid only until ``backward`` has passed its
node; after that the array may hold another tensor's values. The root and
every leaf (parameters, inputs) are never handed back by ``backward``;
parameter gradients return through :func:`zero_grads`. Without a pool, or
with no graph active, every array is fresh and stays valid for as long as
it is referenced.
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
from .kernels import col_sum, row_max, row_sum

EPS = 1e-12

__all__ = [
    "EPS",
    "Tensor",
    "Graph",
    "ArrayPool",
    "Node",
    "RunningStats",
    "backward",
    "record",
    "accum",
    "accum_scratch",
    "buffer",
    "release",
    "zero_grads",
    "grad_check",
    "add",
    "scale",
    "affine",
    "relu",
    "softmax",
    "batch_norm",
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
    """One recorded operation: tag, input tensors, output, and its backward."""

    tag: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward: Callable[[np.ndarray], None]


class ArrayPool:
    """Free float64 arrays by shape, lent to the tapes of one training run.

    `take` lends an array of unspecified contents; `give` takes an array
    back only if this pool lent it, so any array may be offered. A lent
    array is referenced from here, so no other object can share its id.
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

    @property
    def held(self) -> int:
        """Arrays waiting to be lent again."""
        return sum(len(free) for free in self._free.values())


@dataclass
class Graph:
    """Append-only tape of nodes. Use as a context manager to make it active.

    With a `pool`, the tape's arrays are drawn from it and handed back
    during :func:`backward` (see the module's buffer contract).
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


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def buffer(shape: tuple[int, ...], on_tape: bool = True) -> np.ndarray:
    """An uninitialised float64 array; lent by the active graph's pool when
    there is one and the array belongs to its tape (`on_tape`)."""
    g = _active()
    if on_tape and g is not None and g.pool is not None:
        return g.pool.take(shape)
    return np.empty(shape)


def release(a: np.ndarray) -> None:
    """Hand `a` back to the active graph's pool if that pool lent it."""
    g = _active()
    if g is not None and g.pool is not None:
        g.pool.give(a)


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
    t.grad, otherwise it is added in and handed back to the pool.

    Never pass an array the backward was handed, such as its incoming
    gradient: `add` hands the same one to both of its inputs.
    """
    if t.requires_grad and t.grad is None:
        t.grad = np.add(g, 0.0, out=g)  # the `+ 0.0` of accum, in place
        return
    accum(t, g)
    release(g)


def record(tag: str, inputs: tuple[Tensor, ...], out: Tensor, bwd: Callable) -> None:
    """Append a node to the active graph when `out` needs a gradient.

    `bwd(out.grad)` must push the input gradients through :func:`accum`;
    every op in this module and the fused ones elsewhere go through here.
    """
    g = _active()
    if g is not None and out.requires_grad:
        g.nodes.append(Node(tag, inputs, out, bwd))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = col_sum(g)
    for ax, extent in enumerate(shape):
        if extent == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and linear ops


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data, a.requires_grad or b.requires_grad)

    def bwd(g):
        accum(a, _unbroadcast(g, a.data.shape))
        accum(b, _unbroadcast(g, b.data.shape))

    record("add", (a, b), out, bwd)
    return out


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(x.data * c, x.requires_grad)

    def bwd(g):
        accum(x, g * c)

    record("scale", (x,), out, bwd)
    return out


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node; same rounding as ``add(matmul(x, w), b)``."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise DimensionError(f"affine needs (n,k)@(k,m), got {x.data.shape} @ {w.data.shape}")
    requires_grad = x.requires_grad or w.requires_grad or b.requires_grad
    y = np.matmul(x.data, w.data, out=buffer((x.data.shape[0], w.data.shape[1]), requires_grad))
    y += b.data  # in place: no second (n, m) array
    out = Tensor(y, requires_grad)

    def bwd(g):
        # bias, then input, then weight: the accumulation order of the chain
        accum(b, _unbroadcast(g, b.data.shape))
        if x.requires_grad:  # pixel inputs need no gradient
            accum_scratch(x, np.matmul(g, w.data.T, out=buffer(x.data.shape)))
        accum(w, x.data.T @ g)

    record("affine", (x, w, b), out, bwd)
    return out


def relu(x: Tensor) -> Tensor:
    # maximum (not where) so NaN propagates instead of flushing to 0
    out = Tensor(np.maximum(x.data, 0.0, out=buffer(x.data.shape, x.requires_grad)), x.requires_grad)

    def bwd(g):
        # the mask is built here, so a forward-only pass never allocates it;
        # the subgradient at 0 is taken as 0
        accum_scratch(x, np.multiply(g, x.data > 0, out=buffer(x.data.shape)))

    record("relu", (x,), out, bwd)
    return out


def softmax(x: Tensor) -> Tensor:
    """Numerically stable softmax along the last axis; rows sum to 1 exactly up to rounding.

    The array is flattened to rows for the row kernels, which repeat the
    ``max``/``sum(axis=-1)`` form bit for bit.
    """
    rows = x.data.reshape(-1, x.data.shape[-1])
    # z, exp(z) and p share one buffer: the in-place steps round as the
    # out-of-place ones do and allocate one (n, k) array, not three
    y = buffer(x.data.shape, x.requires_grad)
    p = y.reshape(rows.shape)
    np.subtract(rows, row_max(rows)[:, None], out=p)
    np.exp(p, out=p)
    np.divide(p, row_sum(p)[:, None], out=p)
    out = Tensor(y, x.requires_grad)

    def bwd(g):
        g = g.reshape(p.shape)
        gx = g * p
        dot = row_sum(gx)[:, None]
        np.subtract(g, dot, out=gx)
        np.multiply(gx, p, out=gx)
        accum(x, gx.reshape(x.data.shape))

    record("softmax", (x,), out, bwd)
    return out


# ---------------------------------------------------------------------------
# batch normalization


@dataclass
class RunningStats:
    """Exponential running mean/variance of a batch norm's batches.

    Training folds each batch into them and checkpoints keep them; no code
    in the package reads them back.
    """

    mean: np.ndarray
    var: np.ndarray
    momentum: float = 0.1

    @classmethod
    def for_dim(cls, dim: int, momentum: float = 0.1) -> "RunningStats":
        return cls(mean=np.zeros(dim), var=np.ones(dim), momentum=momentum)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running: RunningStats | None = None,
    eps: float = 1e-5,
) -> Tensor:
    """Normalize columns of an (n, d) tensor by the batch mean and population
    variance, fold them into `running` and record one node.

    The running statistics are written to checkpoints, but nothing in the
    package reads them: every forward normalizes by its own batch.
    """
    if x.data.ndim != 2:
        raise DimensionError(f"batch_norm needs an (n, d) tensor, got shape {x.data.shape}")
    d = x.data.shape[1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise DimensionError(
            f"batch_norm scale/shift must have shape ({d},), got {gamma.data.shape} and {beta.data.shape}"
        )
    n = x.data.shape[0]
    # bitwise `mean(axis=0)`, which divides the same sum by n
    m = col_sum(x.data) / n
    c = x.data - m
    v = col_sum(c * c) / n
    if running is not None:
        k = running.momentum
        running.mean = (1.0 - k) * running.mean + k * m
        running.var = (1.0 - k) * running.var + k * v
    safe = np.maximum(np.sqrt(np.maximum(v + eps, 0.0)), EPS)
    q = c / safe
    requires_grad = x.requires_grad or gamma.requires_grad or beta.requires_grad
    y = np.multiply(gamma.data, q, out=buffer(x.data.shape, requires_grad))
    y += beta.data
    out = Tensor(y, requires_grad)

    def bwd(g):
        # the chain mean, sub, mul, mean, add, sqrt, div, mul, add in reverse;
        # each of its intermediate gradients started from zeros, so each is
        # `0.0 + ...` here, which turns a -0.0 into +0.0 where the chain did
        g = 0.0 + g
        accum(beta, _unbroadcast(g, (d,)))
        accum(gamma, _unbroadcast(g * q, (d,)))
        if not x.requires_grad:
            return
        gq = 0.0 + g * gamma.data
        gc = 0.0 + gq / safe
        gs = 0.0 + _unbroadcast(-gq * c / (safe * safe), (d,))
        gv = 0.0 + (0.0 + gs * 0.5 / safe)  # sqrt, then add eps
        gsq = 0.0 + gv / n
        term = gsq * c  # c * c hands the same term to both factors
        gc += term
        gc += term
        accum(x, gc)
        accum(x, (0.0 + _unbroadcast(-gc, (d,))) / n)

    record("batch_norm", (x, gamma, beta), out, bwd)
    return out


# ---------------------------------------------------------------------------
# backward pass and gradient checking


def backward(root: Tensor, graph: Graph) -> None:
    """Seed d(root)/d(root) = 1 and replay the tape once in reverse order.

    With a pooled graph, each node's output data and gradient go back to
    the pool once its backward has run, except the root's.
    """
    if root.data.size != 1:
        raise ContractError(f"backward needs a scalar root, got shape {root.data.shape}")
    root.grad = np.ones_like(root.data)
    pool = graph.pool
    for node in reversed(graph.nodes):
        out = node.output
        if out.grad is not None:
            node.backward(out.grad)
        # every reader of `out` came later on the tape and has run
        if pool is not None and out is not root:
            pool.give(out.data)
            if pool.give(out.grad):
                out.grad = None


def zero_grads(params: Iterable[Tensor], pool: ArrayPool | None = None) -> None:
    """Drop each gradient, handing it back to `pool` if the pool lent it."""
    for p in params:
        if pool is not None:
            pool.give(p.grad)
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
    malformed input: a header line that is not a UTF-8 JSON object, another
    format tag, no list of distinct tensor names, a tensor declaring more
    bytes than the file has left (checked before any read), a NaN or infinite
    value in any tensor, or bytes after the last tensor.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ContractError(f"cannot open {path}: {exc.strerror}") from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
