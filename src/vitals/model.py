"""Multi-stage encoder/decoder for temporal phase segmentation.

One encoder produces initial per-frame phase logits from a fused view of all
its layers; N decoder stages refine the previous stage's prediction through
cross-attention against their own convolutional features. Each block pairs a
dilated temporal convolution with chunked (windowed) attention, both with a
window/dilation of 2^i at block i, capped at the sequence length.

No normalization layers are used anywhere; residual connections and small
depth keep activations bounded at the scales this package targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import DataError, ParameterError, ShapeError
from .tensor import Tensor

# parameter values one model may hold: 4 GiB of float32 (the paper config holds 1,291,820)
MODEL_MAX_VALUES = 2**30


@dataclass
class ModelConfig:
    """Architecture hyperparameters."""

    num_phases: int
    input_dim: int = 2048
    hidden_dim: int = 64
    num_layers: int = 10
    num_decoders: int = 3
    dropout_rate: float = 0.3
    smooth_weight: float = 0.15
    smooth_clamp: float = 4.0

    def __post_init__(self):
        # u32 sizes keep every parameter dim (L*h the largest) within a record's u64
        for name, low in (("num_phases", 2), ("input_dim", 1), ("hidden_dim", 1),
                          ("num_layers", 1), ("num_decoders", 0)):
            value = getattr(self, name)
            if type(value) is not int or not low <= value < 2**32:
                raise ParameterError(f"{name} must be an integer in [{low}, 2**32), got {value!r}")
        values = num_parameter_values(self)  # refused before init_params allocates them
        if values > MODEL_MAX_VALUES:
            raise ParameterError(f"input_dim {self.input_dim}, hidden_dim {self.hidden_dim}, "
                                 f"num_layers {self.num_layers}, num_decoders {self.num_decoders} "
                                 f"and num_phases {self.num_phases} give {values} parameter "
                                 f"values, above the limit of {MODEL_MAX_VALUES}")
        if not 0 <= self.dropout_rate < 1:
            raise ParameterError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not (math.isfinite(self.smooth_weight) and self.smooth_weight >= 0):
            raise ParameterError(f"smooth_weight must be finite and >= 0, got {self.smooth_weight}")
        if not self.smooth_clamp > 0:
            raise ParameterError(f"smooth_clamp must be > 0, got {self.smooth_clamp}")

    def schedule(self, n: int):
        """Per-block window/dilation sizes: 2^i for i=1..L, capped at n."""
        return [min(2 ** i, n) for i in range(1, self.num_layers + 1)]


@dataclass
class StagePredictions:
    """Per-stage n x K logits and softmaxed probabilities; stage 0 = encoder."""

    logits: list = field(default_factory=list)
    probs: list = field(default_factory=list)

    @property
    def num_stages(self):
        return len(self.logits)

    def argmax(self, stage=-1):
        return self.probs[stage].data.argmax(axis=1)


# ---------------------------------------------------------------------------
# parameters


def parameter_shapes(config: ModelConfig):
    """Parameter name -> shape, a function of the config alone.

    The order is fixed: init draws and checkpoint records follow it.
    """
    h, K, L = config.hidden_dim, config.num_phases, config.num_layers
    block = {"conv.weight": (3, h, h), "conv.bias": (h,), "attn.wq": (h, h),
             "attn.wk": (h, h), "attn.wv": (h, h), "attn.wo": (h, h)}

    def blocks(stage):
        return {f"{stage}.block{i}.{part}": shape
                for i in range(1, L + 1) for part, shape in block.items()}

    shapes = {"input_proj.weight": (config.input_dim, h), **blocks("encoder"),
              "fusion.weight": (L * h, K), "fusion.bias": (K,)}
    for s in range(1, config.num_decoders + 1):
        shapes[f"decoder{s}.embed.weight"] = (K, h)
        shapes.update(blocks(f"decoder{s}"))
        shapes[f"decoder{s}.classifier.weight"] = (h, K)
        shapes[f"decoder{s}.classifier.bias"] = (K,)
    return shapes


def num_parameter_tensors(config: ModelConfig):
    """len(parameter_shapes(config)) without building it: every stage has 6
    tensors per block plus 3 of its own (the encoder's input projection and
    fusion weight and bias, each decoder's embedding and classifier weight
    and bias)."""
    return (config.num_decoders + 1) * (6 * config.num_layers + 3)


def num_parameter_values(config: ModelConfig):
    """sum(prod(shape)) over parameter_shapes(config) without building it: the
    input projection, (N+1)L blocks of a 3 x h x h conv, its bias and four h x h
    attention maps, the fusion weight and bias, and per decoder an embedding,
    a classifier weight and its bias."""
    d, h, K = config.input_dim, config.hidden_dim, config.num_phases
    L, N = config.num_layers, config.num_decoders
    return d * h + (N + 1) * L * (7 * h * h + h) + L * h * K + K + N * K * (2 * h + 1)


def init_params(config: ModelConfig, seed=0):
    """Seeded init: weights uniform in +-sqrt(1/fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith("bias"):
            data = np.zeros(shape, dtype=np.float32)
        else:
            fan_in = shape[0] * shape[1] if len(shape) == 3 else shape[0]
            bound = math.sqrt(1.0 / fan_in)
            data = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        params[name] = Tensor(data, requires_grad=True)
    return params


# ---------------------------------------------------------------------------
# forward passes


def _block(x, query, params, prefix, size, config, training, rng, out=None):
    """Conv -> attention -> residual. query=None means self-attention. With
    `out`, an array of x's shape, the residual sum is written into it."""
    f = T.relu(T.add_row(T.dilated_conv1d(x, params[f"{prefix}.conv.weight"], size),
                         params[f"{prefix}.conv.bias"]))
    maps = (params[f"{prefix}.attn.{p}"] for p in ("wq", "wk", "wv", "wo"))
    a = T.dropout(T.chunked_attention(f if query is None else query, f, size, *maps),
                  config.dropout_rate, rng, training)
    if out is None:
        return T.add(x, a)
    np.add(x.data, a.data, out=out)  # T.add's sum, in place
    return T.record("add", [x, a], Tensor(out), lambda dout: (dout, dout))


def _input_projection(E, weight, config: ModelConfig):
    """E @ weight, the n x h input of the first encoder block.

    E is an n x d Tensor, or a zero-argument function that returns the same
    n x d features at every call. For a function the product is taken from
    one call's array, which is then dropped: the node keeps the function,
    and backward calls it again for the weight's gradient E.T @ dout, the
    whole-array product a matmul node forms from the array it holds, so the
    bits are the same.
    """
    features = E.data if isinstance(E, Tensor) else E()
    if features.ndim != 2 or features.shape[1] != config.input_dim:
        raise ShapeError(f"expected n x {config.input_dim} features, got {features.shape}")
    if isinstance(E, Tensor):
        return T.matmul(E, weight)
    out = Tensor(features @ weight.data)
    del features
    return T.record("matmul", [weight], out, lambda dout: (E().T @ dout,))


def encoder_forward(E, params, config: ModelConfig, training=False, rng=None):
    """Initial prediction pass: n x K phase logits from n x d features E,
    a Tensor or a reader of them (see `_input_projection`).

    The fusion head maps all block outputs, side by side, linearly to phase
    logits. They are side by side from the start: one n x (L*h) array holds
    them, block i's residual sum is written into its i-th h columns, and the
    next block reads it there. One concat_cols node hands each block its
    columns of the fusion input's gradient.
    """
    x = _input_projection(E, params["input_proj.weight"], config)
    n, h = x.data.shape
    sizes = config.schedule(n)
    columns = np.empty((n, len(sizes) * h), x.data.dtype)
    feats = []
    for i, size in enumerate(sizes):
        x = _block(x, None, params, f"encoder.block{i + 1}", size, config, training, rng,
                   out=columns[:, i * h:(i + 1) * h])
        feats.append(x)
    splits = np.arange(h, len(sizes) * h, h)
    fused = T.record("concat_cols", feats, Tensor(columns),
                     lambda dout: tuple(np.split(dout, splits, axis=1)))
    return T.add_row(T.matmul(fused, params["fusion.weight"]), params["fusion.bias"])


def decoder_stage_forward(prev_probs: Tensor, params, stage: int, config: ModelConfig,
                          training=False, rng=None):
    """One refinement stage over the previous stage's n x K probabilities."""
    n = prev_probs.data.shape[0]
    u = T.matmul(prev_probs, params[f"decoder{stage}.embed.weight"])
    x = u
    for i, size in enumerate(config.schedule(n), start=1):
        x = _block(x, u, params, f"decoder{stage}.block{i}", size, config, training, rng)
    return T.add_row(T.matmul(x, params[f"decoder{stage}.classifier.weight"]),
                     params[f"decoder{stage}.classifier.bias"])


def model_forward(E, params, config: ModelConfig, training=False, rng=None):
    """Full pass: encoder stage 0 plus N chained decoder refinements. E is
    the n x d features, a Tensor or a reader of them (see `_input_projection`)."""
    logits = encoder_forward(E, params, config, training, rng)
    preds = StagePredictions()
    preds.logits.append(logits)
    preds.probs.append(T.softmax_rows(logits))
    for s in range(1, config.num_decoders + 1):
        logits = decoder_stage_forward(preds.probs[-1], params, s, config, training, rng)
        preds.logits.append(logits)
        preds.probs.append(T.softmax_rows(logits))
    return preds


# ---------------------------------------------------------------------------
# losses


def cross_entropy_loss(logits: Tensor, labels, class_weights=None) -> Tensor:
    """Weighted mean negative log-likelihood over frames.

    Probabilities are clamped to >= 1e-8 before the log; clamped frames
    contribute no gradient.
    """
    labels = np.asarray(labels)
    z = logits.data
    n, K = z.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels must have shape ({n},), got {labels.shape}")
    bad = np.nonzero((labels < 0) | (labels >= K))[0]
    if bad.size:
        raise DataError(f"label out of range [0,{K}) at frame {int(bad[0])}")
    class_weights = np.asarray(np.ones(K) if class_weights is None else class_weights,
                               dtype=z.dtype)
    if class_weights.shape != (K,) or (class_weights < 0).any():
        raise ParameterError(f"class_weights must be {K} nonnegative floats")
    w = class_weights[labels]

    p = T.softmax(z)
    py = p[np.arange(n), labels]
    wsum = w.sum()
    loss = float((w * -np.log(np.maximum(py, 1e-8))).sum() / wsum)
    out = Tensor(np.asarray(loss, dtype=z.dtype))

    def bwd(dout):
        dz = p.copy()
        dz[np.arange(n), labels] -= 1.0
        dz *= (w / wsum)[:, None]
        dz[py <= 1e-8] = 0.0  # clamp active: the log term is constant there
        return (dz * float(dout),)

    return T.record("cross_entropy_loss", [logits], out, bwd)


def _log_softmax(z):
    zs = z - z.max(axis=1, keepdims=True)
    return zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))


def smoothing_loss(logits: Tensor, prev: Tensor, clamp: float) -> Tensor:
    """Truncated temporal MSE over log-probabilities.

    Penalizes the jump from frame t-1 of `prev` to frame t of `logits` in
    log-softmax space, each squared difference capped at clamp^2. `prev` is
    the previous-frame reference and a constant of the loss: no gradient
    flows to it (MS-TCN's stop-gradient), so training passes a stage's
    logits as both arguments. Returns 0 for sequences shorter than 2 frames.
    """
    z = logits.data
    if prev.data.shape != z.shape:
        raise ShapeError(f"smoothing_loss reference shape {prev.data.shape} != logits shape {z.shape}")
    n, K = z.shape
    if n < 2:
        return Tensor(np.asarray(0.0, dtype=z.dtype))
    logp = _log_softmax(z)
    delta = logp[1:] - _log_softmax(prev.data)[:-1]
    clipped = np.clip(delta, -clamp, clamp)
    denom = (n - 1) * K
    out = Tensor(np.asarray((clipped ** 2).sum() / denom, dtype=z.dtype))
    p = np.exp(logp)

    def bwd(dout):
        ds = np.zeros((n, K), p.dtype)  # p has z's dtype; holding z would pin the logits
        ds[1:] = np.where(np.abs(delta) < clamp, 2.0 * delta, 0.0) / denom
        dz = ds - p * ds.sum(axis=1, keepdims=True)  # through log-softmax
        return dz * float(dout), None

    return T.record("smoothing_loss", [logits, prev], out, bwd)


def total_loss(stages: StagePredictions, labels, config: ModelConfig, class_weights=None) -> Tensor:
    """Sum over all stages of cross-entropy plus weighted smoothing loss."""
    if stages.num_stages == 0:
        raise ParameterError("total_loss requires at least one stage")
    total = None
    for logits in stages.logits:
        term = cross_entropy_loss(logits, labels, class_weights)
        if config.smooth_weight != 0.0:
            term = T.add(term, T.scale(smoothing_loss(logits, logits, config.smooth_clamp),
                                       config.smooth_weight))
        total = term if total is None else T.add(total, term)
    return total
