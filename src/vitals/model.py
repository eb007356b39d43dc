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
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .errors import DataError, ParameterError, ShapeError
from .tensor import Tensor


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
        if self.num_layers < 1 or self.num_decoders < 0:
            raise ParameterError("num_layers >= 1 and num_decoders >= 0 required")
        if self.num_phases < 2 or self.hidden_dim < 1:
            raise ParameterError("num_phases >= 2 and hidden_dim >= 1 required")
        if not 0 <= self.dropout_rate < 1:
            raise ParameterError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not (math.isfinite(self.smooth_weight) and self.smooth_weight >= 0):
            raise ParameterError(f"smooth_weight must be finite and >= 0, got {self.smooth_weight}")
        if not self.smooth_clamp > 0:
            raise ParameterError(f"smooth_clamp must be > 0, got {self.smooth_clamp}")

    def schedule(self, n: int):
        """Per-block window/dilation sizes: 2^i for i=1..L, capped at n."""
        return [min(2 ** i, n) for i in range(1, self.num_layers + 1)]

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


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


def parameter_names(config: ModelConfig):
    """Parameter names in `parameter_shapes` order."""
    return list(parameter_shapes(config))


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
# attention wrappers


def windowed_self_attention(f: Tensor, window: int, wq, wk, wv, wo) -> Tensor:
    """Chunked self-attention over f with output projection wo."""
    return cross_attention(f, f, window, wq, wk, wv, wo)


def cross_attention(u: Tensor, f: Tensor, window: int, wq, wk, wv, wo) -> Tensor:
    """Chunked attention where the query comes from u, keys/values from f."""
    if u.data.shape != f.data.shape:
        raise ShapeError(f"cross_attention expects matching shapes, got {u.data.shape} vs {f.data.shape}")
    q = T.matmul(u, wq)
    k = T.matmul(f, wk)
    v = T.matmul(f, wv)
    return T.matmul(T.chunked_attention(q, k, v, window), wo)


def _block(x, query, params, prefix, size, config, training, rng):
    """Conv -> attention -> residual. query=None means self-attention."""
    f = T.relu(T.add_row(T.dilated_conv1d(x, params[f"{prefix}.conv.weight"], size),
                         params[f"{prefix}.conv.bias"]))
    wq, wk, wv, wo = (params[f"{prefix}.attn.{p}"] for p in ("wq", "wk", "wv", "wo"))
    a = cross_attention(f if query is None else query, f, size, wq, wk, wv, wo)
    return T.add(x, T.dropout(a, config.dropout_rate, rng, training))


# ---------------------------------------------------------------------------
# forward passes


def encoder_forward(E: Tensor, params, config: ModelConfig, training=False, rng=None):
    """Initial prediction pass.

    Returns (n x K logits, list of the L per-block hidden features). The
    fusion head concatenates all block outputs feature-wise and maps them
    linearly to phase logits.
    """
    n = E.data.shape[0]
    if E.data.ndim != 2 or E.data.shape[1] != config.input_dim:
        raise ShapeError(f"expected n x {config.input_dim} features, got {E.data.shape}")
    x = T.matmul(E, params["input_proj.weight"])
    feats = []
    for i, size in enumerate(config.schedule(n), start=1):
        x = _block(x, None, params, f"encoder.block{i}", size, config, training, rng)
        feats.append(x)
    fused = T.concat_cols(feats)
    logits = T.add_row(T.matmul(fused, params["fusion.weight"]), params["fusion.bias"])
    return logits, feats


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


def model_forward(E: Tensor, params, config: ModelConfig, training=False, rng=None):
    """Full pass: encoder stage 0 plus N chained decoder refinements."""
    logits, _ = encoder_forward(E, params, config, training, rng)
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
    if class_weights is None:
        w = np.ones(n, dtype=z.dtype)
    else:
        class_weights = np.asarray(class_weights, dtype=z.dtype)
        if class_weights.shape != (K,) or (class_weights < 0).any():
            raise ParameterError(f"class_weights must be {K} nonnegative floats")
        w = class_weights[labels]

    e = np.exp(z - z.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
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


def smoothing_loss(logits: Tensor, clamp: float = 4.0, prev_ref=None) -> Tensor:
    """Truncated temporal MSE over log-probabilities.

    Penalizes frame-to-frame jumps in log p, each squared difference capped
    at clamp^2; the previous-frame term is a constant (no gradient flows to
    it). `prev_ref` optionally pins that constant branch to a fixed
    log-probability matrix, which is what makes the declared derivative
    finite-difference checkable. Returns 0 for sequences shorter than 2
    frames.
    """
    z = logits.data
    n, K = z.shape
    if n < 2:
        return Tensor(np.asarray(0.0, dtype=z.dtype))
    zs = z - z.max(axis=1, keepdims=True)
    logp = zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
    ref = logp if prev_ref is None else np.asarray(prev_ref)
    delta = logp[1:] - ref[:-1]
    clipped = np.clip(delta, -clamp, clamp)
    denom = (n - 1) * K
    out = Tensor(np.asarray((clipped ** 2).sum() / denom, dtype=z.dtype))
    p = np.exp(logp)

    def bwd(dout):
        ds = np.zeros_like(z)
        ds[1:] = np.where(np.abs(delta) < clamp, 2.0 * delta, 0.0) / denom
        dz = ds - p * ds.sum(axis=1, keepdims=True)  # through log-softmax
        return (dz * float(dout),)

    return T.record("smoothing_loss", [logits], out, bwd)


def total_loss(stages: StagePredictions, labels, config: ModelConfig, class_weights=None) -> Tensor:
    """Sum over all stages of cross-entropy plus weighted smoothing loss."""
    if stages.num_stages == 0:
        raise ParameterError("total_loss requires at least one stage")
    total = None
    for logits in stages.logits:
        term = cross_entropy_loss(logits, labels, class_weights)
        if config.smooth_weight != 0.0:
            term = T.add(term, T.scale(smoothing_loss(logits, config.smooth_clamp),
                                       config.smooth_weight))
        total = term if total is None else T.add(total, term)
    return total
