"""Finite-difference verification suite for every differentiable op.

Each registered check compares analytic gradients against central finite
differences on random 64-bit inputs and returns the max relative error.
The suite also checks a tiny end-to-end model (2 encoder blocks, 1 decoder)
through the full combined loss.

Each check builds a function and its inputs; `run_suite` hands them to the
finite-difference harness. `corrupt=<op>` deliberately breaks the backward of
every tape node recorded under that op name (gradients scaled by 1.5) after
the function's forward and before the backward sweep; it is the negative
control used by the CLI and tests.
"""

from __future__ import annotations

import numpy as np

from . import model as mdl
from . import tensor as T
from .model import ModelConfig, cross_entropy_loss, init_params, model_forward, smoothing_loss, total_loss
from .tensor import Tensor, finite_difference_check

THRESHOLD = 1e-3

# the op names tape nodes are recorded under; each has a check of its own name
OPS = ("matmul", "add", "add_row", "mul", "scale", "relu", "sum_all", "concat_cols",
       "softmax_rows", "dropout", "dilated_conv1d", "chunked_attention",
       "cross_entropy_loss", "smoothing_loss")


def _t(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _check_matmul(rng, seed):
    return T.matmul, [_t(rng, 3, 4), _t(rng, 4, 2)]


def _check_add(rng, seed):
    return T.add, [_t(rng, 3, 4), _t(rng, 3, 4)]


def _check_add_row(rng, seed):
    return T.add_row, [_t(rng, 5, 3), _t(rng, 3)]


def _check_mul(rng, seed):
    return T.mul, [_t(rng, 4, 3), _t(rng, 4, 3)]


def _check_scale(rng, seed):
    return lambda x: T.scale(x, -0.7), [_t(rng, 4, 2)]


def _check_relu(rng, seed):
    # keep values away from the kink where the derivative is undefined
    x = _t(rng, 5, 4)
    x.data[np.abs(x.data) < 0.05] += 0.1
    return T.relu, [x]


def _check_sum_all(rng, seed):
    return T.sum_all, [_t(rng, 6, 2)]


def _check_concat_cols(rng, seed):
    return lambda a, b, c: T.concat_cols([a, b, c]), [_t(rng, 4, 2), _t(rng, 4, 3), _t(rng, 4, 1)]


def _check_softmax_rows(rng, seed):
    return T.softmax_rows, [_t(rng, 5, 4)]


def _check_dropout(rng, seed):
    fn = lambda x: T.dropout(x, 0.4, rng=seed, training=True)  # fixed mask per seed
    return fn, [_t(rng, 6, 5)]


def _check_dilated_conv1d(rng, seed):
    fn = lambda x, k: T.dilated_conv1d(x, k, 4)
    return fn, [_t(rng, 16, 3), _t(rng, 3, 3, 2)]


def _check_chunked_attention(rng, seed):
    fn = lambda q, k, v: T.chunked_attention(q, k, v, 4)
    return fn, [_t(rng, 9, 4), _t(rng, 9, 4), _t(rng, 9, 4)]


def _check_self_attention(rng, seed):
    fn = lambda f, wq, wk, wv, wo: mdl.windowed_self_attention(f, 3, wq, wk, wv, wo)
    return fn, [_t(rng, 7, 4)] + [_t(rng, 4, 4) for _ in range(4)]


def _check_cross_attention(rng, seed):
    fn = lambda u, f, wq, wk, wv, wo: mdl.cross_attention(u, f, 3, wq, wk, wv, wo)
    return fn, [_t(rng, 7, 4), _t(rng, 7, 4)] + [_t(rng, 4, 4) for _ in range(4)]


def _check_cross_entropy(rng, seed):
    labels = rng.integers(0, 4, size=8)
    weights = rng.uniform(0.5, 2.0, size=4)
    fn = lambda z: cross_entropy_loss(z, labels, weights)
    return fn, [_t(rng, 8, 4)]


def _check_smoothing_loss(rng, seed):
    # the previous-frame branch carries no gradient by contract, so pin it
    # to a constant reference for the finite-difference comparison
    z = _t(rng, 8, 3)
    zs = z.data - z.data.max(axis=1, keepdims=True)
    ref = zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
    return lambda t: smoothing_loss(t, clamp=4.0, prev_ref=ref), [z]


def _tiny_config():
    # smooth_weight 0: the smoothing term's declared derivative stops at the
    # previous frame, so its finite-difference check runs separately with a
    # pinned reference; the end-to-end check exercises the CE path
    return ModelConfig(num_phases=3, input_dim=5, hidden_dim=8, num_layers=2,
                       num_decoders=1, dropout_rate=0.0, smooth_weight=0.0)


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


def _relu_margin(fn):
    """Smallest |relu input| recorded on a tape while evaluating fn()."""
    with _ReluMarginTape() as tape:
        fn()
    return tape.margin


def _check_end_to_end(rng, seed):
    config = _tiny_config()
    n = 12

    def draw(attempt):
        params = init_params(config, seed * 100 + attempt)
        for p in params.values():
            p.data = p.data.astype(np.float64)
        labels = rng.integers(0, config.num_phases, size=n)
        E = _t(rng, n, config.input_dim)
        return params, labels, E

    def make_fn(params, labels):
        names = list(params.keys())

        def fn(e, *param_values):
            pdict = dict(zip(names, param_values))
            preds = model_forward(e, pdict, config, training=False)
            return total_loss(preds, labels, config)

        return fn

    # finite differences are only valid away from relu kinks: re-draw until
    # every pre-activation clears the perturbation radius comfortably
    for attempt in range(20):
        params, labels, E = draw(attempt)
        fn = make_fn(params, labels)
        if _relu_margin(lambda: fn(E, *params.values())) > 1e-3:
            break
    return fn, [E] + list(params.values())


CHECKS = {
    "matmul": _check_matmul,
    "add": _check_add,
    "add_row": _check_add_row,
    "mul": _check_mul,
    "scale": _check_scale,
    "relu": _check_relu,
    "sum_all": _check_sum_all,
    "concat_cols": _check_concat_cols,
    "softmax_rows": _check_softmax_rows,
    "dropout": _check_dropout,
    "dilated_conv1d": _check_dilated_conv1d,
    "chunked_attention": _check_chunked_attention,
    "self_attention": _check_self_attention,
    "cross_attention": _check_cross_attention,
    "cross_entropy_loss": _check_cross_entropy,
    "smoothing_loss": _check_smoothing_loss,
    "end_to_end": _check_end_to_end,
}


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
    if corrupt is not None and corrupt not in OPS:
        raise ValueError(f"cannot corrupt unknown op {corrupt!r}; choose one of {', '.join(OPS)}")
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
