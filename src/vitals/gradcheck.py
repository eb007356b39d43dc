"""Finite-difference verification suite for every differentiable op.

Each registered check compares analytic gradients against central finite
differences on random 64-bit inputs and returns the max relative error.
The suite also checks a tiny end-to-end model (2 encoder blocks, 1 decoder)
through the full combined loss.

`CHECKS` is the one table of checks, in run order: each row pairs a check
name with a builder of a function and its inputs, most through `_plain`
(standard-normal float64 inputs of the listed shapes). `OPS`, the op names
the tape records, is every row but the three composite checks, so a new op
needs one row. `run_suite` hands each function and its inputs to
`finite_difference_check`. `corrupt=<op>` deliberately breaks the backward of
every tape node recorded under that op name (gradients scaled by 1.5) after
the function's forward and before the backward sweep; it is the negative
control used by the CLI and tests.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ParameterError
from .model import ModelConfig, cross_entropy_loss, init_params, model_forward, smoothing_loss, total_loss
from .tensor import Tensor

THRESHOLD = 1e-3
# the central difference's step in each coordinate; the relu-kink margins of
# `_check_relu` (0.05) and `_check_end_to_end` (1e-3) must stay well above it
FD_STEP = 1e-4


def finite_difference_check(fn, inputs, seed=0):
    """Max relative error of analytic vs central-difference gradients.

    `fn(*inputs)` must be a deterministic tensor function; the output is
    reduced to a scalar through a random fixed projection. Inputs should be
    64-bit tensors with requires_grad set on every argument under test.
    Relative error is |a - b| / max(|a|, |b|, 1e-8), maximized over all
    coordinates of all checked inputs; a coordinate whose error is not
    finite (a NaN or infinite gradient) counts as an infinite error.
    """
    rng = np.random.default_rng(seed)
    for t in inputs:
        t.zero_grad()

    with T.Tape() as tape:
        out = fn(*inputs)
        proj = rng.standard_normal(out.data.shape)
        loss = T.sum_all(T.mul(out, Tensor(proj.astype(out.data.dtype, copy=False))))
    T.backward(tape, loss)

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
            flat[i] = orig + FD_STEP
            f_plus = scalar_eval()
            flat[i] = orig - FD_STEP
            f_minus = scalar_eval()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
            a = float(analytic.reshape(-1)[i])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err if math.isfinite(err) else math.inf)
    return worst


def _t(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _plain(fn, *shapes):
    """A check of fn on standard-normal inputs of these shapes, drawn in order."""
    return lambda rng, seed: (fn, [_t(rng, *shape) for shape in shapes])


def _check_relu(rng, seed):
    # keep values away from the kink where the derivative is undefined
    x = _t(rng, 5, 4)
    x.data[np.abs(x.data) < 0.05] += 0.1
    return T.relu, [x]


def _check_dropout(rng, seed):
    # a fresh generator per call: the same mask per seed on every evaluation
    fn = lambda x: T.dropout(x, 0.4, rng=np.random.default_rng(seed), training=True)
    return fn, [_t(rng, 6, 5)]


def _check_cross_entropy(rng, seed):
    labels = rng.integers(0, 4, size=8)
    weights = rng.uniform(0.5, 2.0, size=4)
    fn = lambda z: cross_entropy_loss(z, labels, weights)
    return fn, [_t(rng, 8, 4)]


def _check_smoothing_loss(rng, seed):
    # the previous-frame reference carries no gradient by contract, so it is
    # a constant copy that the finite-difference perturbations leave alone
    z = _t(rng, 8, 3)
    ref = Tensor(z.data.copy())
    return lambda t: smoothing_loss(t, ref, 4.0), [z]


class _ReluMarginTape(T.Tape):
    """A tape that notes the smallest |relu input| among the nodes it records."""

    def __init__(self):
        super().__init__()
        self.margin = np.inf

    def record(self, op, inputs, output, backward_fn):
        super().record(op, inputs, output, backward_fn)
        if op == "relu" and output.tape is self:
            self.margin = min(self.margin, float(np.abs(inputs[0].data).min()))
        return output


def _check_end_to_end(rng, seed):
    # smooth_weight 0: the smoothing term's declared derivative stops at the
    # previous frame, so it is checked alone; E is a constant, as the model's
    # features are, so the input projection is checked through its weight
    config = ModelConfig(num_phases=3, input_dim=5, hidden_dim=8, num_layers=2,
                         num_decoders=1, dropout_rate=0.0, smooth_weight=0.0)
    n = 12

    # finite differences are only valid away from relu kinks: re-draw until
    # every pre-activation clears the perturbation radius comfortably
    for attempt in range(20):
        params = init_params(config, seed * 100 + attempt)
        for p in params.values():
            p.data = p.data.astype(np.float64)
        labels = rng.integers(0, config.num_phases, size=n)
        E = Tensor(rng.standard_normal((n, config.input_dim)))

        def fn(e, *param_values):
            preds = model_forward(e, dict(zip(params, param_values)), config, training=False)
            return total_loss(preds, labels, config)

        with _ReluMarginTape() as tape:
            fn(E, *params.values())
        if tape.margin > 1e-3:
            break
    return fn, [E] + list(params.values())


# check name -> builder(rng, seed) returning (fn, inputs); run in this order
CHECKS = {
    "matmul": _plain(T.matmul, (3, 4), (4, 2)),
    "add": _plain(T.add, (3, 4), (3, 4)),
    "add_row": _plain(T.add_row, (5, 3), (3,)),
    "mul": _plain(T.mul, (4, 3), (4, 3)),
    "scale": _plain(lambda x: T.scale(x, -0.7), (4, 2)),
    "relu": _check_relu,
    "sum_all": _plain(T.sum_all, (6, 2)),
    "concat_cols": _plain(lambda a, b, c: T.concat_cols([a, b, c]), (4, 2), (4, 3), (4, 1)),
    "softmax_rows": _plain(T.softmax_rows, (5, 4)),
    "dropout": _check_dropout,
    "dilated_conv1d": _plain(lambda x, k: T.dilated_conv1d(x, k, 4), (16, 3), (3, 3, 2)),
    # n=9 pads the last window-4 chunk; u and f are drawn apart
    "chunked_attention": _plain(lambda u, f, *w: T.chunked_attention(u, f, 4, *w),
                                (9, 4), (9, 4), (4, 4), (4, 4), (4, 4), (4, 4)),
    "self_attention": _plain(lambda f, *w: T.chunked_attention(f, f, 3, *w),
                             (7, 4), (4, 4), (4, 4), (4, 4), (4, 4)),
    "cross_attention": _plain(lambda u, f, *w: T.chunked_attention(u, f, 3, *w),
                              (7, 4), (7, 4), (4, 4), (4, 4), (4, 4), (4, 4)),
    "cross_entropy_loss": _check_cross_entropy,
    "smoothing_loss": _check_smoothing_loss,
    "end_to_end": _check_end_to_end,
}

# the op names tape nodes are recorded under; each has a check of its own
# name, and the other checks compose several ops
OPS = tuple(name for name in CHECKS
            if name not in ("self_attention", "cross_attention", "end_to_end"))


def _corrupting(fn, op):
    """fn, with every `op` node it records made to return 1.5x its gradients."""

    def scaled(backward_fn):
        return lambda dout: tuple(None if g is None else g * 1.5 for g in backward_fn(dout))

    def run(*args):
        tape = T.active_tape()
        if tape is None:
            return fn(*args)
        start = len(tape.nodes)
        out = fn(*args)
        for node in tape.nodes[start:]:
            if node.op == op:
                node.backward_fn = scaled(node.backward_fn)
        return out

    return run


def run_suite(seeds=10, corrupt=None):
    """Run every check over `seeds` seeds; returns {name: max relative error}.

    `corrupt` names an op in OPS whose recorded backward is deliberately
    broken for the run (negative control; the op's own check, and every
    check whose function records it, must then fail).
    """
    if seeds < 1:  # with no seed every check would report an error of 0
        raise ParameterError(f"seeds must be >= 1, got {seeds}")
    if corrupt is not None and corrupt not in OPS:
        raise ParameterError(f"cannot corrupt unknown op {corrupt!r}; choose one of {', '.join(OPS)}")
    results = {}
    for name, build in CHECKS.items():
        worst = 0.0
        for seed in range(seeds):
            fn, inputs = build(np.random.default_rng(1000 + seed), seed)
            if corrupt is not None:
                fn = _corrupting(fn, corrupt)
            worst = max(worst, finite_difference_check(fn, inputs, seed=seed))
        results[name] = worst
    return results
