"""Dense tensor core with reverse-mode differentiation.

Only the operations the segmentation model actually needs are implemented.
Shapes are explicit (no broadcasting), buffers are plain numpy arrays, and
compute is 32-bit by default; float64 inputs (gradient checking) stay 64-bit
through every op.

A :class:`Tape` records every differentiable op executed inside its context
in execution order, which is automatically a topological order; `backward`
replays it once in reverse, releasing each node as it is consumed. Tapes are
single-owner: one active tape per thread, no nesting.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import EmptySequenceError, ParameterError, ShapeError

_state = threading.local()


class Tensor:
    """Row-major dense array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "tape", "node_id")

    def __init__(self, data, requires_grad=False, dtype=None):
        if dtype is None and isinstance(data, (np.ndarray, np.floating)) \
                and data.dtype in (np.float32, np.float64):
            self.data = np.asarray(data)  # preserve the op-chain dtype (32- or 64-bit)
        else:
            self.data = np.asarray(data, dtype=dtype or np.float32)
        self.grad = None
        self.requires_grad = requires_grad
        self.tape = None      # tape this tensor was produced on, if any
        self.node_id = None   # index of the producing node on that tape

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class TapeNode:
    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op, inputs, output, backward_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of differentiable ops; context manager, single-owner."""

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        if getattr(_state, "tape", None) is not None:
            raise RuntimeError("a tape is already active on this thread")
        _state.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.tape = None
        return False


def active_tape():
    return getattr(_state, "tape", None)


def _tracked(t):
    return isinstance(t, Tensor) and (t.requires_grad or t.tape is active_tape() and t.tape is not None)


def record(op, inputs, output, backward_fn):
    """Record a custom differentiable op on the active tape.

    `backward_fn(dout)` must return one gradient array (or None) per input.
    Returns `output` for chaining; a no-op when no tape is active or no
    input participates in differentiation.
    """
    tape = active_tape()
    if tape is not None and any(_tracked(t) for t in inputs):
        node = TapeNode(op, list(inputs), output, backward_fn)
        output.tape = tape
        output.node_id = len(tape.nodes)
        tape.nodes.append(node)
    return output


def backward(tape, loss):
    """Reverse sweep: populate grads of every participating tensor.

    The loss must be scalar. Gradients accumulate additively across fan-out.
    Each node is popped off the tape as it is consumed, so the activations
    its backward closure holds are freed during the sweep and the finished
    tape pins nothing.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    loss.grad = np.ones_like(loss.data)
    nodes = tape.nodes
    while nodes:
        node = nodes.pop()
        dout = node.output.grad
        if dout is None:
            continue
        grads = node.backward_fn(dout)
        for t, g in zip(node.inputs, grads):
            if g is None:
                continue
            if t.requires_grad or t.node_id is not None:
                t.accumulate_grad(g)


# ---------------------------------------------------------------------------
# ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out = Tensor(a.data @ b.data)

    def bwd(dout):
        return dout @ b.data.T, a.data.T @ dout

    return record("matmul", [a, b], out, bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data + b.data)
    return record("add", [a, b], out, lambda dout: (dout, dout))


def add_row(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-k row vector to every row of an n x k matrix."""
    if x.data.ndim != 2 or b.data.shape != (x.data.shape[1],):
        raise ShapeError(f"add_row shape mismatch: {x.data.shape} + {b.data.shape}")
    out = Tensor(x.data + b.data[None, :])
    return record("add_row", [x, b], out, lambda dout: (dout, dout.sum(axis=0)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data * b.data)
    return record("mul", [a, b], out, lambda dout: (dout * b.data, dout * a.data))


def scale(x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data * c)
    return record("scale", [x], out, lambda dout: (dout * c,))


def relu(x: Tensor) -> Tensor:
    gate = x.data > 0
    out = Tensor(np.where(gate, x.data, 0.0))
    return record("relu", [x], out, lambda dout: (dout * gate,))


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())
    return record("sum_all", [x], out, lambda dout: (np.full_like(x.data, float(dout)),))


def concat_cols(tensors) -> Tensor:
    n = tensors[0].data.shape[0]
    for t in tensors:
        if t.data.ndim != 2 or t.data.shape[0] != n:
            raise ShapeError("concat_cols requires matrices with equal row counts")
    widths = [t.data.shape[1] for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=1))
    splits = np.cumsum(widths)[:-1]

    def bwd(dout):
        return tuple(np.split(dout, splits, axis=1))

    return record("concat_cols", list(tensors), out, bwd)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction for stability."""
    if x.data.ndim != 2 or x.data.shape[0] < 1 or x.data.shape[1] < 1:
        raise ShapeError(f"softmax_rows requires a nonempty n x K matrix, got {x.data.shape}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y)

    def bwd(dout):
        return ((dout - (dout * y).sum(axis=1, keepdims=True)) * y,)

    return record("softmax_rows", [x], out, bwd)


def dropout(x: Tensor, rate: float, rng=None, training: bool = True) -> Tensor:
    """Inverted dropout; returns x itself at inference or rate 0. `rng` is a
    seed or Generator."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    keep = rng.random(x.data.shape) >= rate
    mask = keep.astype(x.data.dtype) / (1.0 - rate)
    out = Tensor(x.data * mask)
    return record("dropout", [x], out, lambda dout: (dout * mask,))


def dilated_conv1d(x: Tensor, kernel: Tensor, dilation: int) -> Tensor:
    """Temporal conv over an n x c_in sequence, kernel 3 x c_in x c_out.

    Symmetric zero padding of `dilation` frames keeps the output length n.
    """
    if x.data.ndim != 2 or x.data.shape[0] == 0:
        raise EmptySequenceError(f"dilated_conv1d needs a nonempty n x c matrix, got {x.data.shape}")
    if not isinstance(dilation, (int, np.integer)) or dilation < 1:
        raise ParameterError(f"dilation must be a positive integer, got {dilation}")
    if kernel.data.ndim != 3 or kernel.data.shape[0] != 3 or kernel.data.shape[1] != x.data.shape[1]:
        raise ShapeError(
            f"kernel must be 3 x c_in x c_out with c_in={x.data.shape[1]}, got {kernel.data.shape}"
        )
    n = x.data.shape[0]
    d = int(dilation)
    xd = x.data
    k0, k1, k2 = kernel.data[0], kernel.data[1], kernel.data[2]

    def shifted(sign):
        # shifted(-1)[t] = x[t-d], shifted(+1)[t] = x[t+d], zeros out of range
        out = np.zeros_like(xd)
        if d < n:
            if sign < 0:
                out[d:] = xd[: n - d]
            else:
                out[: n - d] = xd[d:]
        return out

    xm, xp = shifted(-1), shifted(+1)
    y = xm @ k0 + xd @ k1 + xp @ k2
    out = Tensor(y)

    def bwd(dout):
        dk = np.stack([xm.T @ dout, xd.T @ dout, xp.T @ dout])
        dx = dout @ k1.T
        if d < n:
            # y[t] took x[t-d] through k0 -> scatter back to t-d
            dx[: n - d] += dout[d:] @ k0.T
            dx[d:] += dout[: n - d] @ k2.T
        return dx, dk

    return record("dilated_conv1d", [x, kernel], out, bwd)


def chunked_attention(q: Tensor, k: Tensor, v: Tensor, window: int) -> Tensor:
    """Scaled dot-product attention inside consecutive chunks of `window` rows.

    The last chunk may be shorter; no attention crosses chunk boundaries.
    """
    if q.data.ndim != 2 or q.data.shape[0] == 0:
        raise EmptySequenceError("chunked_attention needs a nonempty sequence")
    if not (q.data.shape == k.data.shape == v.data.shape):
        raise ShapeError(
            f"q/k/v shapes differ: {q.data.shape}, {k.data.shape}, {v.data.shape}"
        )
    if window < 1:
        raise ParameterError(f"window must be >= 1, got {window}")
    n, h = q.data.shape
    w = min(int(window), n)
    pad = (-n) % w
    nc = (n + pad) // w
    inv_scale = 1.0 / math.sqrt(h)

    def chunks(a):
        if pad:
            a = np.concatenate([a, np.zeros((pad, a.shape[1]), dtype=a.dtype)])
        return a.reshape(nc, w, h)

    qc, kc, vc = chunks(q.data), chunks(k.data), chunks(v.data)
    s = (qc @ kc.transpose(0, 2, 1)) * inv_scale
    if pad:
        s[-1, :, w - pad:] = -np.inf  # padded keys never attended
    s -= s.max(axis=2, keepdims=True)
    e = np.exp(s)
    a = e / e.sum(axis=2, keepdims=True)
    o = (a @ vc).reshape(-1, h)[:n]
    out = Tensor(o)

    def bwd(dout):
        do = chunks(np.ascontiguousarray(dout))
        dv = (a.transpose(0, 2, 1) @ do).reshape(-1, h)[:n]
        da = do @ vc.transpose(0, 2, 1)
        ds = (da - (da * a).sum(axis=2, keepdims=True)) * a
        dq = ((ds @ kc) * inv_scale).reshape(-1, h)[:n]
        dk = ((ds.transpose(0, 2, 1) @ qc) * inv_scale).reshape(-1, h)[:n]
        return dq, dk, dv

    return record("chunked_attention", [q, k, v], out, bwd)


# ---------------------------------------------------------------------------
# gradient checking


def finite_difference_check(fn, inputs, eps=1e-4, seed=0):
    """Max relative error of analytic vs central-difference gradients.

    `fn(*inputs)` must be a deterministic tensor function; the output is
    reduced to a scalar through a random fixed projection. Inputs should be
    64-bit tensors with requires_grad set on every argument under test.
    Relative error is |a - b| / max(|a|, |b|, 1e-8), maximized over all
    coordinates of all checked inputs.
    """
    rng = np.random.default_rng(seed)
    for t in inputs:
        t.zero_grad()
        t.tape = None
        t.node_id = None

    with Tape() as tape:
        out = fn(*inputs)
        proj = rng.standard_normal(out.data.shape)
        loss = sum_all(mul(out, Tensor(proj, dtype=out.data.dtype)))
    backward(tape, loss)

    def scalar_eval():
        return float((proj * fn(*inputs).data).sum())

    worst = 0.0
    for t in inputs:
        if not t.requires_grad:
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = scalar_eval()
            flat[i] = orig - eps
            f_minus = scalar_eval()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(analytic.reshape(-1)[i])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
