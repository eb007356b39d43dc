"""Adam optimization, the epoch loop, checkpoints, and evaluation.

A batch is one full video: the temporal losses need the whole (downsampled)
sequence, so every optimizer step consumes one forward/backward pass over a
single video. Everything is deterministic given (seed, data, config); the
RNG state is checkpointed so a resumed run is bit-identical to an
uninterrupted one.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import metrics as M
from .data import (DOWNSAMPLE_LIMIT, class_weights, downsample_indices, load_features,
                   load_manifest, parse_annotations, read_key_values)
from .errors import (ConfigError, CorruptionError, DataError, FormatError, ParameterError,
                     TrainingError)
from .model import (ModelConfig, StagePredictions, init_params, model_forward,
                    parameter_shapes, total_loss)
from .tensor import Tape, Tensor, backward

CHECKPOINT_MAGIC = b"VTCK"
CHECKPOINT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 5e-4
    weight_decay: float = 1e-5
    epochs: int = 150
    seed: int = 0
    balancing: str = "class-weights"  # or "none"
    downsample_limit: int = DOWNSAMPLE_LIMIT

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ParameterError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ParameterError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.epochs < 1:
            raise ParameterError("epochs must be >= 1")
        if self.balancing not in ("class-weights", "none"):
            raise ParameterError(f"unknown balancing mode {self.balancing!r}")


# config-file key -> (dataclass, field it sets); the field's type parses the
# value and its default applies when the key is absent
CONFIG_KEYS = {
    "learning_rate": (TrainConfig, "learning_rate"),
    "weight_decay": (TrainConfig, "weight_decay"),
    "epochs": (TrainConfig, "epochs"),
    "dropout": (ModelConfig, "dropout_rate"),
    "seed": (TrainConfig, "seed"),
    "lambda": (ModelConfig, "smooth_weight"),
    "tau": (ModelConfig, "smooth_clamp"),
    "layers": (ModelConfig, "num_layers"),
    "decoders": (ModelConfig, "num_decoders"),
    "hidden_dim": (ModelConfig, "hidden_dim"),
    "phases": (ModelConfig, "num_phases"),
    "balancing": (TrainConfig, "balancing"),
}


def parse_config(path):
    """Parse a ``key = value`` config file; unknown keys are errors.

    Returns (TrainConfig, dict of ModelConfig field overrides). `phases` is
    required: the phase count has no default.
    """
    values = {TrainConfig: {}, ModelConfig: {}}
    for lineno, key, value in read_key_values(path):
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        cls, name = CONFIG_KEYS[key]
        try:
            values[cls][name] = get_type_hints(cls)[name](value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    overrides = values[ModelConfig]
    if "num_phases" not in overrides:
        raise ConfigError(f"{path}: missing required key 'phases'")
    return TrainConfig(**values[TrainConfig]), overrides


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)  # name -> first moment
    v: dict = field(default_factory=dict)  # name -> second moment
    t: int = 0


def adam_step(params, state: AdamState, learning_rate, weight_decay=0.0):
    """One Adam update with bias correction; coupled L2 weight decay."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient in parameter {name!r}")
        if weight_decay:
            g = g + weight_decay * p.data
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        p.data -= learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    model_config: ModelConfig
    params: dict                 # name -> float32 ndarray
    adam: AdamState = None       # optional optimizer state
    rng_state: dict = None       # numpy bit-generator state
    epoch: int = 0


def _write_tensor(f, name, arr):
    encoded = name.encode("utf-8")
    f.write(struct.pack("<I", len(encoded)))
    f.write(encoded)
    f.write(struct.pack("<I", arr.ndim))
    f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    f.write(arr.astype("<f4").tobytes())


def save_checkpoint(path, ckpt: Checkpoint):
    """Write a sibling temp file, then rename it over `path`: a reader sees
    the old checkpoint or the complete new one, never a partial write."""
    meta = {
        "model_config": ckpt.model_config.to_dict(),
        "epoch": ckpt.epoch,
        "rng_state": ckpt.rng_state,
        "adam_t": ckpt.adam.t if ckpt.adam is not None else None,
        "param_names": list(ckpt.params.keys()),
    }
    blob = json.dumps(meta).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            for name, arr in ckpt.params.items():
                _write_tensor(f, name, arr)
            if ckpt.adam is not None:
                for name, arr in ckpt.adam.m.items():
                    _write_tensor(f, f"adam.m:{name}", arr)
                for name, arr in ckpt.adam.v.items():
                    _write_tensor(f, f"adam.v:{name}", arr)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    def __init__(self, blob, path):
        self.blob = blob
        self.path = path
        self.pos = 0

    def take(self, count):
        if self.pos + count > len(self.blob):
            raise CorruptionError(f"{self.path}: checkpoint truncated", offset=len(self.blob))
        out = self.blob[self.pos: self.pos + count]
        self.pos += count
        return out

    @property
    def remaining(self):
        return len(self.blob) - self.pos


def _model_config_from_meta(path, meta) -> ModelConfig:
    """Validate checkpoint metadata and build its ModelConfig."""
    if not isinstance(meta, dict):
        raise CorruptionError(f"{path}: checkpoint metadata is not a JSON object")
    names = meta.get("param_names")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise CorruptionError(f"{path}: checkpoint metadata lacks a param_names list")
    config = meta.get("model_config")
    if not isinstance(config, dict):
        raise CorruptionError(f"{path}: checkpoint metadata lacks a model_config object")
    config = dict(config)
    # older checkpoints carry decoder_query; "probs" is the only query that still exists
    query = config.pop("decoder_query", "probs")
    if query != "probs":
        raise ConfigError(f"{path}: decoder_query {query!r} is no longer supported")
    try:
        return ModelConfig.from_dict(config)
    except TypeError as err:  # unknown or missing keys, values of the wrong type
        raise ConfigError(f"{path}: bad model_config: {err}") from None


def load_checkpoint(path) -> Checkpoint:
    blob = Path(path).read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}, expected {CHECKPOINT_MAGIC!r}")
    r = _Reader(blob, path)
    r.take(4)
    (version,) = struct.unpack("<I", r.take(4))
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    (blen,) = struct.unpack("<I", r.take(4))
    try:
        meta = json.loads(r.take(blen).decode("utf-8"))
    except ValueError as err:  # bad UTF-8 or bad JSON
        raise CorruptionError(f"{path}: unreadable checkpoint metadata: {err}") from None
    model_config = _model_config_from_meta(path, meta)

    tensors = {}
    while r.remaining:
        (nlen,) = struct.unpack("<I", r.take(4))
        name = r.take(nlen).decode("utf-8")
        (rank,) = struct.unpack("<I", r.take(4))
        shape = struct.unpack(f"<{rank}Q", r.take(8 * rank))
        count = int(np.prod(shape)) if rank else 1
        payload = r.take(count * 4)
        tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()

    adam_t = meta.get("adam_t")
    if adam_t is not None and (type(adam_t) is not int or adam_t < 0):
        raise CorruptionError(f"{path}: adam_t must be a nonnegative integer, got {adam_t!r}")
    epoch = meta.get("epoch")
    if type(epoch) is not int or epoch < 0:
        raise CorruptionError(f"{path}: epoch must be a nonnegative integer, got {epoch!r}")
    rng_state = meta.get("rng_state")
    if rng_state is not None:
        try:  # the state a resumed run will restore
            np.random.default_rng().bit_generator.state = rng_state
        except (TypeError, ValueError, KeyError, OverflowError) as err:
            raise CorruptionError(f"{path}: rng_state is not a valid generator state: "
                                  f"{err}") from None
    shapes = parameter_shapes(model_config)
    params, adam_m, adam_v = {}, {}, {}
    for name, arr in tensors.items():
        group, key = params, name
        if name.startswith("adam.m:"):
            group, key = adam_m, name[7:]
        elif name.startswith("adam.v:"):
            group, key = adam_v, name[7:]
        if key not in shapes:
            raise CorruptionError(f"{path}: tensor {name!r} is not a parameter of the model "
                                  "config or its optimizer moment")
        if arr.shape != shapes[key]:
            raise CorruptionError(f"{path}: tensor {name!r} has shape {arr.shape}, "
                                  f"the model config gives {shapes[key]}")
        group[key] = arr
    missing = set(shapes) - set(params)
    if missing:
        raise CorruptionError(f"{path}: missing parameter tensors {sorted(missing)}")
    # adam_step gives every parameter both moments on its first step, so a
    # resumable state has all of them, or none before any step (or no state)
    expected = set(shapes) if adam_t else set()
    for prefix, moments in (("adam.m", adam_m), ("adam.v", adam_v)):
        if set(moments) != expected:
            wrong = sorted(set(moments) ^ expected)
            raise CorruptionError(f"{path}: {prefix} moments {'missing' if adam_t else 'unexpected'} "
                                  f"for {wrong} (adam_t={adam_t})")

    adam = None
    if adam_t is not None:
        adam = AdamState(m=adam_m, v=adam_v, t=adam_t)
    return Checkpoint(
        model_config=model_config,
        params=params,
        adam=adam,
        rng_state=rng_state,
        epoch=epoch,
    )


# ---------------------------------------------------------------------------
# data loading


@dataclass
class _Video:
    video_id: str
    features: np.ndarray  # downsampled n x d
    labels: np.ndarray
    weights: np.ndarray = None


def load_videos(entries, split, num_phases, downsample_limit=DOWNSAMPLE_LIMIT):
    videos = []
    for e in entries:
        if e.split != split:
            continue
        seq = load_features(e.feature_path)
        lab = parse_annotations(e.annotation_path, seq.n, num_phases)
        idx = downsample_indices(seq.n, downsample_limit)
        videos.append(_Video(video_id=seq.video_id,
                             features=seq.data[idx],
                             labels=lab.labels[idx]))
    videos.sort(key=lambda v: v.video_id)
    return videos


def _resolve_entries(manifest):
    if isinstance(manifest, (str, Path)):
        return load_manifest(manifest)
    return list(manifest)


# ---------------------------------------------------------------------------
# training


def train(manifest, model_config: ModelConfig, train_config: TrainConfig,
          resume: Checkpoint = None, log_path=None):
    """Run the epoch loop; returns (final Checkpoint, list of log lines)."""
    entries = _resolve_entries(manifest)
    videos = load_videos(entries, "train", model_config.num_phases,
                         train_config.downsample_limit)
    if not videos:
        raise DataError("manifest has no train entries")
    for v in videos:
        if v.features.shape[1] != model_config.input_dim:
            raise DataError(
                f"video {v.video_id}: feature dim {v.features.shape[1]} != "
                f"model input_dim {model_config.input_dim}"
            )
        if train_config.balancing == "class-weights":
            v.weights = class_weights(v.labels, model_config.num_phases)

    rng = np.random.default_rng(train_config.seed)
    if resume is not None:
        if resume.model_config != model_config:
            raise ConfigError("resume checkpoint was trained with a different model config")
        params = {k: Tensor(a.copy(), requires_grad=True) for k, a in resume.params.items()}
        adam = resume.adam if resume.adam is not None else AdamState()
        if resume.rng_state is not None:
            rng.bit_generator.state = resume.rng_state
        start_epoch = resume.epoch
    else:
        params = init_params(model_config, rng)
        adam = AdamState()
        start_epoch = 0

    log_lines = []
    log_file = open(log_path, "a") if log_path else None
    try:
        for epoch in range(start_epoch + 1, train_config.epochs + 1):
            order = rng.permutation(len(videos))
            losses, acc0, accf = [], [], []
            for vi in order:
                v = videos[vi]
                for p in params.values():
                    p.zero_grad()
                with Tape() as tape:
                    preds = model_forward(Tensor(v.features), params, model_config,
                                          training=True, rng=rng)
                    loss = total_loss(preds, v.labels, model_config, v.weights)
                loss_val = float(loss.data)
                if not np.isfinite(loss_val):
                    raise TrainingError(
                        f"non-finite loss {loss_val} at epoch {epoch}, video {v.video_id}"
                    )
                backward(tape, loss)
                adam_step(params, adam, train_config.learning_rate,
                          train_config.weight_decay)
                losses.append(loss_val)
                acc0.append(float((preds.argmax(0) == v.labels).mean()))
                accf.append(float((preds.argmax(-1) == v.labels).mean()))
            line = (f"epoch={epoch} loss={np.mean(losses):.6f} "
                    f"acc_stage0={np.mean(acc0):.6f} acc_final={np.mean(accf):.6f}")
            log_lines.append(line)
            if log_file:
                log_file.write(line + "\n")
    finally:
        if log_file:
            log_file.close()

    ckpt = Checkpoint(
        model_config=model_config,
        params={k: p.data.copy() for k, p in params.items()},
        adam=adam,
        rng_state=rng.bit_generator.state,
        epoch=train_config.epochs,
    )
    return ckpt, log_lines


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvaluationResult:
    reports: list               # final-stage per-video MetricsReports
    aggregate: M.AggregateReport
    stage0_reports: list
    stage0_aggregate: M.AggregateReport


def infer(ckpt: Checkpoint, features, source) -> StagePredictions:
    """Frozen-parameter forward of a checkpoint over an n x d feature matrix.

    `source` names the features in the error raised on a dim mismatch.
    """
    config = ckpt.model_config
    if features.shape[1] != config.input_dim:
        raise ConfigError(f"{source}: feature dim {features.shape[1]} != "
                          f"checkpoint input_dim {config.input_dim}")
    params = {k: Tensor(a) for k, a in ckpt.params.items()}
    return model_forward(Tensor(features), params, config, training=False)


def evaluate(ckpt: Checkpoint, manifest, split) -> EvaluationResult:
    """Frozen-parameter evaluation of one manifest split."""
    config = ckpt.model_config
    entries = _resolve_entries(manifest)
    try:
        videos = load_videos(entries, split, config.num_phases)
    except DataError as err:
        raise ConfigError(f"data does not match checkpoint phase count: {err}") from err
    if not videos:
        raise DataError(f"no videos in split {split!r}: nothing to report")

    def run(v):
        preds = infer(ckpt, v.features, f"video {v.video_id}")
        final = M.video_report(v.labels, preds.argmax(-1), config.num_phases, v.video_id)
        stage0 = M.video_report(v.labels, preds.argmax(0), config.num_phases, v.video_id)
        return final, stage0

    results = [run(v) for v in videos]  # in video id order, as load_videos sorts
    final_reports = [r[0] for r in results]
    stage0_reports = [r[1] for r in results]
    return EvaluationResult(
        reports=final_reports,
        aggregate=M.aggregate(final_reports),
        stage0_reports=stage0_reports,
        stage0_aggregate=M.aggregate(stage0_reports),
    )


def model_config_from_train(train_config: TrainConfig, input_dim, overrides):
    """Build the ModelConfig a CLI training run uses from `parse_config`'s
    overrides and the feature dim of the training data.

    `train_config` is not read: every model setting reaches the model
    through `overrides`. The parameter stays because perfbench/child.py
    calls this function with three arguments.
    """
    return ModelConfig(input_dim=input_dim, **overrides)
