"""Dense tensor core with reverse-mode differentiation.

Only the operations the segmentation model actually needs are implemented.
Shapes are explicit (no broadcasting), buffers are plain numpy arrays, and
compute is 32-bit by default; float64 inputs stay 64-bit through every op.

A :class:`Tape` records every differentiable op executed inside its context
in execution order, which is automatically a topological order; `backward`
replays it once in reverse, releasing each node as it is consumed. Tapes are
single-owner: one active tape per thread, no nesting.

A recorded node holds only what its backward reads. Its `output` is the
gradient of the op's output (None until backward reaches it), not the output
tensor; its inputs are the producing nodes, leaf tensors that require a
gradient, or None for constants; and each op's closure keeps only the arrays
its backward reads. So an activation lives during forward only while some
backward needs it, and after `backward` only leaf tensors have a `.grad`.
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

    def __init__(self, data, requires_grad=False):
        if isinstance(data, (np.ndarray, np.floating)) and data.dtype in (np.float32, np.float64):
            self.data = np.asarray(data)  # preserve the op-chain dtype (32- or 64-bit)
        else:
            self.data = np.asarray(data, dtype=np.float32)
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
        self.grad = _accumulate(self.grad, g, self.data.dtype)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _accumulate(held, g, dtype):
    """held + g, summed in place into held. The first gradient is copied in one
    pass, bit-equal to zeros + g: x + 0.0 is x, and -0.0 + 0.0 is +0.0."""
    if held is None:
        return np.add(g, 0.0, dtype=dtype)
    held += g
    return held


class TapeNode:
    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op, inputs, backward_fn):
        self.op = op
        self.inputs = inputs            # per input: producing TapeNode, leaf Tensor, or None
        self.output = None              # gradient of the op's output, once backward reaches it
        self.backward_fn = backward_fn

    def accumulate_grad(self, g):
        self.output = _accumulate(self.output, g, g.dtype)


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

    def grad_target(self, t):
        """Where t's gradient accumulates on this tape: its producing node, t
        itself if it is a leaf requiring a gradient, or None for a constant."""
        if t.tape is self:
            return self.nodes[t.node_id]
        return t if t.requires_grad else None

    def record(self, op, inputs, output, backward_fn):
        """Append a node for `output`; see the module-level `record`."""
        targets = [self.grad_target(t) for t in inputs]
        if targets.count(None) < len(targets):
            output.tape = self
            output.node_id = len(self.nodes)
            self.nodes.append(TapeNode(op, targets, backward_fn))
        return output


def active_tape():
    return getattr(_state, "tape", None)


def _tracked(t):
    """Whether a gradient with respect to t is wanted on the active tape."""
    tape = active_tape()
    return tape is not None and tape.grad_target(t) is not None


def record(op, inputs, output, backward_fn):
    """Record a custom differentiable op on the active tape.

    `backward_fn(dout)` must return one gradient array (or None) per input;
    the closure should keep only the arrays it reads. Returns `output` for
    chaining; a no-op when no tape is active or no input participates in
    differentiation.
    """
    tape = active_tape()
    if tape is not None:
        tape.record(op, inputs, output, backward_fn)
    return output


def backward(tape, loss):
    """Reverse sweep: populate `.grad` of every leaf tensor that requires it.

    The loss must be scalar. Gradients accumulate additively across fan-out.
    Intermediate gradients live in the nodes only: each node is popped off
    the tape as it is consumed, which frees its output's gradient and the
    arrays its backward closure holds, so the finished tape pins nothing and
    no non-leaf tensor gets a `.grad`.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    target = tape.grad_target(loss)
    if target is not None:
        target.accumulate_grad(np.ones_like(loss.data))
    nodes = tape.nodes
    while nodes:
        node = nodes.pop()
        dout = node.output
        if dout is None:
            continue
        grads = node.backward_fn(dout)
        for target, g in zip(node.inputs, grads):
            if target is not None and g is not None:
                target.accumulate_grad(g)


# ---------------------------------------------------------------------------
# ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out = Tensor(a.data @ b.data)
    # each operand is kept only for the other's gradient, and an untracked
    # operand (the input features, say) gets none
    a_data = a.data if _tracked(b) else None
    b_data = b.data if _tracked(a) else None

    def bwd(dout):
        return (None if b_data is None else dout @ b_data.T,
                None if a_data is None else a_data.T @ dout)

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
    a_data, b_data = a.data, b.data
    out = Tensor(a_data * b_data)
    return record("mul", [a, b], out, lambda dout: (dout * b_data, dout * a_data))


def scale(x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data * c)
    return record("scale", [x], out, lambda dout: (dout * c,))


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0)  # +0.0 for -0.0, NaN stays NaN: y > 0 exactly where x > 0
    return record("relu", [x], Tensor(y), lambda dout: (dout * (y > 0),))


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())
    shape, dtype = x.data.shape, x.data.dtype
    return record("sum_all", [x], out, lambda dout: (np.full(shape, float(dout), dtype),))


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


def softmax(z):
    """Row-wise softmax of a plain n x K array, with max-subtraction for stability."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction for stability."""
    if x.data.ndim != 2 or x.data.shape[0] < 1 or x.data.shape[1] < 1:
        raise ShapeError(f"softmax_rows requires a nonempty n x K matrix, got {x.data.shape}")
    y = softmax(x.data)

    def bwd(dout):
        return ((dout - (dout * y).sum(axis=1, keepdims=True)) * y,)

    return record("softmax_rows", [x], Tensor(y), bwd)


def dropout(x: Tensor, rate: float, rng=None, training: bool = True) -> Tensor:
    """Inverted dropout; returns x itself at inference or rate 0. A training
    mask is drawn from `rng`, which must then be a np.random.Generator.

    The node keeps the mask bit-packed, one bit per value, and unpacks it in
    backward: the same mask, so the same gradient bits, at an eighth of the
    bytes a bool mask holds."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if not isinstance(rng, np.random.Generator):
        raise ParameterError("training dropout draws its mask from a np.random.Generator, "
                             f"got {type(rng).__name__}")
    shape = x.data.shape
    keep = rng.random(shape) >= rate
    dtype = x.data.dtype.type
    kept = dtype(1) / dtype(1 - rate)  # the value a float mask would hold where kept
    out = Tensor(_masked(x.data, keep, kept))
    packed = np.packbits(keep)

    def bwd(dout):
        keep = np.unpackbits(packed, count=dout.size).view(bool).reshape(shape)
        return (_masked(dout, keep, kept),)

    return record("dropout", [x], out, bwd)


def _masked(a, keep, kept):
    """a times the dropout mask, unbuilt. Zeroing first keeps a * mask's bits:
    scaled first, a dropped finfo.max overflows to inf, and inf * 0 is NaN."""
    out = a * keep
    out *= kept
    return out


def _positive_int(name, value):
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ParameterError(f"{name} must be a positive integer, got {value}")
    return int(value)


def dilated_conv1d(x: Tensor, kernel: Tensor, dilation: int) -> Tensor:
    """Temporal conv over an n x c_in sequence, kernel 3 x c_in x c_out.

    Symmetric zero padding of `dilation` frames keeps the output length n.
    """
    if x.data.ndim != 2 or x.data.shape[0] == 0:
        raise EmptySequenceError(f"dilated_conv1d needs a nonempty n x c matrix, got {x.data.shape}")
    d = _positive_int("dilation", dilation)
    if kernel.data.ndim != 3 or kernel.data.shape[0] != 3 or kernel.data.shape[1] != x.data.shape[1]:
        raise ShapeError(
            f"kernel must be 3 x c_in x c_out with c_in={x.data.shape[1]}, got {kernel.data.shape}"
        )
    n = x.data.shape[0]
    xd = x.data
    k0, k1, k2 = kernel.data[0], kernel.data[1], kernel.data[2]
    # y[t] += x[t-d] @ k0 + x[t+d] @ k2 over the k frames with such a
    # neighbour (none once d >= n). numpy multiplies a lone row (k = 1) by
    # gemv, whose sums can differ in the last bit from the same row inside a
    # gemm, so take it from two rows
    k = max(n - d, 0)
    m = max(k, 2)
    y = xd @ k1
    y[n - k:] += (xd[:m] @ k0)[:k]
    y[:k] += (xd[n - m:] @ k2)[m - k:]
    out = Tensor(y)

    def bwd(dout):
        # dk contracts over all n frames against zero-padded shifted copies of
        # x, built one at a time in one buffer that lives only for these products
        shifted = np.zeros_like(xd)
        shifted[n - k:] = xd[:k]
        dk0 = shifted.T @ dout
        shifted[:k] = xd[n - k:]
        shifted[k:] = 0.0
        dk2 = shifted.T @ dout
        del shifted
        dk = np.stack([dk0, xd.T @ dout, dk2])
        dx = dout @ k1.T
        # y[t] took x[t-d] through k0 -> scatter back to t-d
        dx[:k] += dout[n - k:] @ k0.T
        dx[n - k:] += dout[:k] @ k2.T
        return dx, dk

    return record("dilated_conv1d", [x, kernel], out, bwd)


# score elements per group of whole chunks that attention computes at once
# (2^18: 1 MB of float32 scores); a chunk larger than this is a group alone
_GROUP_SCORES = 1 << 18


def _chunk_weights(qs, ks, buf, inv_scale, mask, row_max=None, row_sum=None):
    """Softmax attention weights of a group of w x h q and k chunks, in place
    in buf, with each row's max and sum: computed here when not given, so a
    rebuild from the returned ones runs the same ops in the same order and
    gives the same weights bit for bit. A nonzero `mask` is the number of
    real keys in the group's last chunk, which is zero-padded; the padded
    keys get no weight. Returns (weights, row_max, row_sum)."""
    a = np.matmul(qs, ks.transpose(0, 2, 1), out=buf[: len(qs)])
    a *= inv_scale
    if mask:
        a[-1, :, mask:] = -np.inf
    if row_max is None:
        row_max = a.max(axis=2, keepdims=True)
    a -= row_max
    np.exp(a, out=a)
    if row_sum is None:
        row_sum = a.sum(axis=2, keepdims=True)
    a /= row_sum
    return a, row_max, row_sum


def chunked_attention(u: Tensor, f: Tensor, window: int, wq: Tensor, wk: Tensor,
                      wv: Tensor, wo: Tensor) -> Tensor:
    """Scaled dot-product attention of q = u @ wq over k = f @ wk and
    v = f @ wv, inside consecutive chunks of `window` rows, projected by wo.

    The last chunk may be shorter; no attention crosses chunk boundaries.
    Each projection is computed straight into a buffer of whole w x h
    chunks whose rows past n are zeroed. Chunks are computed a group at a
    time, at most `_GROUP_SCORES` scores per group, through one reused
    buffer. The node keeps u, f, the four maps and each row's softmax max
    and sum, not the projections or the attention output: backward
    recomputes them the same way, bit for bit, rebuilding each group's
    weights from the max and sum and its output from the weights. When
    every chunk fits in one group, the node keeps that group's weights and
    backward rebuilds none.
    """
    pairs = [(src.data, wt.data) for src, wt in ((u, wq), (f, wk), (f, wv))]  # q, k, v
    for src, wt in pairs:
        if src.ndim != 2 or wt.ndim != 2 or src.shape[1] != wt.shape[0]:
            raise ShapeError(f"matmul shape mismatch: {src.shape} x {wt.shape}")
    if len(u.data) == 0:
        raise EmptySequenceError("chunked_attention needs a nonempty sequence")
    shapes = [(len(src), wt.shape[1]) for src, wt in pairs]
    if len(set(shapes)) > 1:
        raise ShapeError("q/k/v shapes differ: " + ", ".join(map(str, shapes)))
    n, h = shapes[0]
    if h == 0:
        raise ShapeError("chunked_attention needs q/k/v of nonzero width")
    w = min(_positive_int("window", window), n)
    wod = wo.data
    if wod.ndim != 2 or wod.shape[0] != h:
        raise ShapeError(f"matmul shape mismatch: {(n, h)} x {wod.shape}")
    nc, rem = -(-n // w), n % w
    per_group = min(max(_GROUP_SCORES // (w * w), 1), nc)
    # each group's chunks, and the real keys of its last chunk when that is
    # the zero-padded last chunk of the sequence (else 0: nothing to mask)
    groups = [(slice(c0, min(c0 + per_group, nc)), rem if c0 + per_group >= nc else 0)
              for c0 in range(0, nc, per_group)]
    inv_scale = 1.0 / math.sqrt(h)
    (ud, wqd), (fd, wkd), (_, wvd) = pairs
    dtype = np.result_type(ud, fd, wqd, wkd, wvd)

    def chunks(fill, dtype):
        """An nc x w x h buffer: its first n rows as `fill` writes them, then zeros."""
        buf = np.empty((nc * w, h), dtype)
        fill(buf[:n])
        buf[n:] = 0.0
        return buf.reshape(nc, w, h)

    def projections():
        return (chunks(lambda r: np.matmul(src, wt, out=r), np.result_type(src, wt))
                for src, wt in pairs)

    def rows(c):
        return c.reshape(nc * w, h)[:n]

    qs, ks, vs = projections()
    buf = np.empty((per_group, w, w), dtype)
    out = np.empty((nc, w, h), dtype)
    stats = []  # per group: each row's softmax max and sum
    for g, mask in groups:
        a, row_max, row_sum = _chunk_weights(qs[g], ks[g], buf, inv_scale, mask)
        stats.append((row_max, row_sum))
        np.matmul(a, vs[g], out=out[g])
    weights = buf if len(groups) == 1 else None
    # freed before the output projection allocates, so it can take their pages
    del qs, ks, vs, buf, a
    y = rows(out) @ wod
    del out

    def bwd(dy):
        qs, ks, vs = projections()
        do = chunks(lambda r: np.matmul(dy, wod.T, out=r), np.result_type(dy, wod))
        o, dq, dk, dv = (np.empty((nc, w, h), dtype) for _ in range(4))
        ds_buf = np.empty((per_group, w, w), dtype)
        a_buf = None if weights is not None else np.empty_like(ds_buf)
        for (g, mask), (row_max, row_sum) in zip(groups, stats):
            a = weights if weights is not None else _chunk_weights(
                qs[g], ks[g], a_buf, inv_scale, mask, row_max, row_sum)[0]
            np.matmul(a, vs[g], out=o[g])  # the forward's output, for dwo
            np.matmul(a.transpose(0, 2, 1), do[g], out=dv[g])
            # d(loss)/d(a), then through the softmax
            ds = np.matmul(do[g], vs[g].transpose(0, 2, 1), out=ds_buf[: len(a)])
            ds -= (ds * a).sum(axis=2, keepdims=True)
            ds *= a
            np.matmul(ds, ks[g], out=dq[g])
            np.matmul(ds.transpose(0, 2, 1), qs[g], out=dk[g])
        del qs, ks, vs, do  # freed before the projection gradients
        dwo = rows(o).T @ dy
        del o
        dq *= inv_scale
        dk *= inv_scale
        dq, dk, dv = rows(dq), rows(dk), rows(dv)
        # through the projections, wo's first, then v's, k's and q's: the order
        # in which separate matmul nodes would sum their gradients into f and u
        return (dwo, dv @ wvd.T, fd.T @ dv, dk @ wkd.T, fd.T @ dk, dq @ wqd.T, ud.T @ dq)

    return record("chunked_attention", [wo, f, wv, f, wk, u, wq], Tensor(y), bwd)
