"""Adam optimization, the epoch loop, checkpoints, and evaluation.

A batch is one full video: the temporal losses need the whole (downsampled)
sequence, so every optimizer step consumes one forward/backward pass over a
single video. Before the first step `train()` reads every training video's
header and annotations, so their faults surface before any compute, and
keeps only the labels. Each step reads its video's features twice: for the
forward, which drops them once the input projection has read them, and in
backward for that projection's weight gradient, the last the sweep forms.
So the features are held only while one product reads them, never across
the step, and never two videos' at once. Everything is deterministic given
(seed, data, config); the RNG state is checkpointed so a resumed run is
bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import metrics as M
from .data import (DOWNSAMPLE_LIMIT, class_weights, downsample_indices, load_features,
                   load_manifest, parse_annotations, read_feature_header, read_feature_rows,
                   read_key_values)
from .errors import (ConfigError, CorruptionError, DataError, FormatError, ParameterError,
                     ShapeError, TrainingError)
from .model import (ModelConfig, StagePredictions, init_params, model_forward,
                    num_parameter_tensors, parameter_shapes, total_loss)
from .tensor import Tape, Tensor, backward

CHECKPOINT_MAGIC = b"VTCK"
CHECKPOINT_VERSION = 1
CHECKPOINT_HEADER = struct.Struct("<4sII")  # magic, version, JSON metadata length

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
        if type(self.epochs) is not int or self.epochs < 1:
            raise ParameterError(f"epochs must be an integer >= 1, got {self.epochs!r}")
        if type(self.seed) is not int:
            raise ParameterError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:  # numpy's generators take only nonnegative seeds
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.balancing not in ("class-weights", "none"):
            raise ParameterError(f"unknown balancing mode {self.balancing!r}")
        if type(self.downsample_limit) is not int or self.downsample_limit < 1:
            raise ParameterError(f"downsample_limit must be an integer >= 1, "
                                 f"got {self.downsample_limit!r}")


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
    # set by adam_step: the flat (params, m, v) buffers, and per parameter its
    # name and its three views into them
    flat: tuple = field(default=None, init=False, repr=False, compare=False)
    views: list = field(default=None, init=False, repr=False, compare=False)


def _is_bound(params, state: AdamState):
    """Whether every parameter's data and both its moments are still the views
    `_bind` made, in the same order."""
    views = state.views
    return views is not None and len(views) == len(params) and all(
        name == bound and p.data is pv and state.m.get(name) is mv and state.v.get(name) is vv
        for (name, p), (bound, pv, mv, vv) in zip(params.items(), views))


def _bind(params, state: AdamState):
    """Copy every parameter and its moments (zeros where there are none yet)
    into three flat buffers of the parameters' dtype, and make each p.data
    and each m/v entry a view into them."""
    dtypes = {p.data.dtype for p in params.values()}
    if len(dtypes) != 1:
        raise ParameterError(f"adam_step needs parameters of one dtype, "
                             f"got {sorted(map(str, dtypes))}")
    dtype = dtypes.pop()
    total = sum(p.data.size for p in params.values())
    flat = tuple(np.empty(total, dtype) for _ in range(3))
    views, start = [], 0
    for name, p in params.items():
        shape, end = p.data.shape, start + p.data.size
        pv, mv, vv = (buf[start:end].reshape(shape) for buf in flat)
        pv[...] = p.data
        mv[...] = state.m.get(name, 0.0)
        vv[...] = state.v.get(name, 0.0)
        p.data, state.m[name], state.v[name] = pv, mv, vv
        views.append((name, pv, mv, vv))
        start = end
    state.flat, state.views = flat, views


def adam_step(params, state: AdamState, learning_rate, weight_decay=0.0):
    """One Adam update with bias correction; coupled L2 weight decay.

    The first step moves the parameters and moments into flat buffers (see
    `_bind`), so every p.data is a view afterwards, and each step is a few
    whole-buffer ops whose elementwise arithmetic is that of a per-parameter
    update. A None gradient reads as zeros; a zero weight_decay adds +-0.0,
    whose sign no later op tells apart. A misshaped gradient raises ShapeError,
    a non-finite one TrainingError, before anything, `state.t` included, changes.
    """
    if not params:
        raise ParameterError("adam_step needs at least one parameter")
    for name, t in params.items():
        if t.grad is not None and t.grad.shape != t.data.shape:
            raise ShapeError(f"gradient of {name!r} has shape {t.grad.shape}, not {t.data.shape}")
    g = np.concatenate([t.grad.reshape(-1) if t.grad is not None
                        else np.zeros(t.data.size, t.data.dtype) for t in params.values()])
    if not np.isfinite(g).all():
        bad = next(name for name, t in params.items()
                   if t.grad is not None and not np.isfinite(t.grad).all())
        raise TrainingError(f"non-finite gradient in parameter {bad!r}")
    if not _is_bound(params, state):
        _bind(params, state)
    p, m, v = state.flat
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    # Python floats keep every op in the parameters' dtype; each in-place op
    # below rounds exactly as the expression in its comment
    learning_rate, weight_decay = float(learning_rate), float(weight_decay)
    s = np.empty_like(p)
    np.multiply(p, weight_decay, out=s)
    g += s                               # g = g + wd * p
    np.subtract(g, m, out=s)
    s *= 1.0 - ADAM_BETA1
    m += s                               # m += (1 - b1) * (g - m)
    np.multiply(g, g, out=s)
    s -= v
    s *= 1.0 - ADAM_BETA2
    v += s                               # v += (1 - b2) * (g * g - v)
    np.divide(v, bc2, out=s)
    np.sqrt(s, out=s)
    s += ADAM_EPS                        # s = sqrt(v / bc2) + eps
    np.divide(m, bc1, out=g)
    g *= learning_rate
    g /= s
    p -= g                               # p -= lr * (m / bc1) / s


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    model_config: ModelConfig
    params: dict                 # name -> float32 ndarray
    adam: AdamState = None       # optional optimizer state
    rng_state: dict = None       # numpy bit-generator state
    epoch: int = 0


def checkpoint_layout(config: ModelConfig, adam_t=None):
    """Record name -> shape of every tensor a checkpoint holds, in file order.

    The parameters come in `parameter_shapes` order, then every ``adam.m:``
    moment, then every ``adam.v:`` moment. adam_step gives every parameter
    both moments on its first step, so the moments are there exactly when
    the optimizer has stepped (adam_t > 0).
    """
    shapes = parameter_shapes(config)
    prefixes = ("", "adam.m:", "adam.v:") if adam_t else ("",)
    return {prefix + name: shape for prefix in prefixes for name, shape in shapes.items()}


def _record_header(name, shape):
    """The bytes before a tensor's float32 payload: name length, UTF-8 name,
    rank, then the shape as u64s."""
    encoded = name.encode("utf-8")
    return struct.pack(f"<I{len(encoded)}sI{len(shape)}Q", len(encoded), encoded, len(shape), *shape)


# no record is shorter: a name of at least one byte, a shape of rank at least
# one, and at least one float32
MIN_RECORD_BYTES = len(_record_header("x", (1,))) + 4


def save_checkpoint(path, ckpt: Checkpoint):
    """Write the records of `checkpoint_layout` to a sibling temp file, then
    rename it over `path`: a reader sees the old checkpoint or the complete
    new one, never a partial write. Tensors that are not exactly the layout
    are a ParameterError, raised before any file is opened."""
    adam_t = ckpt.adam.t if ckpt.adam is not None else None
    tensors = dict(ckpt.params)
    if ckpt.adam is not None:
        tensors.update({f"adam.m:{k}": a for k, a in ckpt.adam.m.items()})
        tensors.update({f"adam.v:{k}": a for k, a in ckpt.adam.v.items()})
    layout = checkpoint_layout(ckpt.model_config, adam_t)
    wrong = sorted(name for name in tensors.keys() | layout.keys()
                   if name not in tensors or np.shape(tensors[name]) != layout.get(name))
    if wrong:
        raise ParameterError(f"checkpoint tensors {wrong} are missing, unexpected or misshaped "
                             f"for the model config (adam_t={adam_t})")
    meta = {
        "model_config": asdict(ckpt.model_config),
        "epoch": ckpt.epoch,
        "rng_state": ckpt.rng_state,
        "adam_t": adam_t,
        "param_names": list(parameter_shapes(ckpt.model_config)),
    }
    blob = json.dumps(meta).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(blob)))
            f.write(blob)
            for name, shape in layout.items():
                f.write(_record_header(name, shape))
                f.write(np.ascontiguousarray(tensors[name], dtype="<f4"))  # no copy when float32
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _model_config_from_meta(path, meta) -> ModelConfig:
    """Validate checkpoint metadata and build its ModelConfig."""
    if not isinstance(meta, dict):
        raise CorruptionError(f"{path}: checkpoint metadata is not a JSON object")
    config = meta.get("model_config")
    if not isinstance(config, dict):
        raise CorruptionError(f"{path}: checkpoint metadata lacks a model_config object")
    config = dict(config)
    # older checkpoints carry decoder_query; "probs" is the only query that still exists
    query = config.pop("decoder_query", "probs")
    if query != "probs":
        raise ConfigError(f"{path}: decoder_query {query!r} is no longer supported")
    try:
        return ModelConfig(**config)
    except (TypeError, ParameterError) as err:  # unknown or missing keys, bad values
        raise ConfigError(f"{path}: bad model_config: {err}") from None


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(CHECKPOINT_HEADER.size)
        if head[:4] != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad magic {head[:4]!r}, expected {CHECKPOINT_MAGIC!r}")
        if len(head) < CHECKPOINT_HEADER.size:
            raise CorruptionError(f"{path}: checkpoint truncated", offset=len(head))
        _, version, blen = CHECKPOINT_HEADER.unpack(head)
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        if CHECKPOINT_HEADER.size + blen > size:  # before a read the file sizes allocates
            raise CorruptionError(f"{path}: checkpoint truncated", offset=size)
        try:
            meta = json.loads(f.read(blen).decode("utf-8"))
        except ValueError as err:  # bad UTF-8 or bad JSON
            raise CorruptionError(f"{path}: unreadable checkpoint metadata: {err}") from None
        model_config = _model_config_from_meta(path, meta)
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

        # the file must be able to hold the layout before the layout is built,
        # so a small file cannot make the load cost what its metadata promises
        records = num_parameter_tensors(model_config) * (3 if adam_t else 1)
        left = size - f.tell()
        if records * MIN_RECORD_BYTES > left:
            raise CorruptionError(f"{path}: the model config needs {records} tensor records "
                                  f"(adam_t={adam_t}), more than the {left} bytes after the "
                                  f"metadata can hold", offset=size)
        names = list(parameter_shapes(model_config))
        if meta.get("param_names") != names:
            raise CorruptionError(f"{path}: param_names do not list the model config's "
                                  f"{len(names)} parameters in order")

        # each record must be the layout's next one, header byte for byte: the
        # metadata, not the record, sizes each payload read
        arrays = []
        for name, shape in checkpoint_layout(model_config, adam_t).items():
            header = _record_header(name, shape)
            offset = f.tell()
            got = f.read(len(header))
            if got != header:
                raise CorruptionError(f"{path}: expected tensor {name!r} of shape {shape} "
                                      f"(adam_t={adam_t}), got {got!r}",
                                      offset=offset)
            count = math.prod(shape)
            if size - f.tell() < 4 * count:
                raise CorruptionError(f"{path}: tensor {name!r} truncated", offset=size)
            data = np.fromfile(f, dtype="<f4", count=count)
            if data.size != count:  # the file shrank after its size was checked
                raise CorruptionError(f"{path}: tensor {name!r} truncated",
                                      offset=offset + len(header) + 4 * data.size)
            arrays.append(data.reshape(shape))
        end = f.tell()
        if end != size:
            raise CorruptionError(f"{path}: {size - end} trailing bytes after tensor {name!r}, "
                                  f"the last of the layout (adam_t={adam_t})", offset=end)

    n = len(names)
    adam = None if adam_t is None else AdamState(
        m=dict(zip(names, arrays[n:2 * n])), v=dict(zip(names, arrays[2 * n:])), t=adam_t)
    return Checkpoint(model_config=model_config, params=dict(zip(names, arrays)), adam=adam,
                      rng_state=rng_state, epoch=epoch)


# ---------------------------------------------------------------------------
# data loading


@dataclass
class _Video:
    """A video's header facts and labels. Its features are read when a step
    or a report needs them (`_read_features`); only `load_videos` keeps them."""
    video_id: str
    path: Path
    n: int                       # frames and values per frame, from the header
    d: int
    labels: np.ndarray           # one per kept frame
    rows: np.ndarray = None      # the kept frames above the downsample limit, else None
    weights: np.ndarray = None
    features: np.ndarray = None  # kept rows x d


def split_entries(entries, split):
    """The split's manifest entries in video id (feature file stem) order."""
    return sorted((e for e in entries if e.split == split), key=lambda e: Path(e.feature_path).stem)


def _read_video_header(entry, num_phases, downsample_limit=DOWNSAMPLE_LIMIT, input_dim=None,
                       dim_of=None) -> _Video:
    """A video's header and its labels, downsampled above the limit; the
    feature payload is not read.

    With `input_dim`, another feature dim is a DataError raised before the
    annotations are parsed; `dim_of` names the video input_dim was taken from.
    """
    path = Path(entry.feature_path)
    with open(path, "rb") as f:
        n, d, _ = read_feature_header(f, path)
    if input_dim is not None and d != input_dim:
        raise DataError(f"video {path.stem}: feature dim {d} != model input_dim {input_dim}"
                        + (f", the feature dim of video {dim_of}" if dim_of else ""))
    rows = downsample_indices(n, downsample_limit) if n > downsample_limit else None
    labels = parse_annotations(entry.annotation_path, n, num_phases).labels
    return _Video(video_id=path.stem, path=path, n=n, d=d,
                  labels=labels if rows is None else labels[rows], rows=rows)


def _read_features(v: _Video):
    """The kept feature rows of `v`, read now, and the file's identity: its
    size, mtime and inode, from an fstat of the file held open across the read.

    Above the limit the payload is read a block of rows at a time and only
    the kept frames are held; at or below it `load_features` reads it whole.
    A file whose shape is no longer the header `v` was built from is a
    DataError: its labels would not match its frames.
    """
    with open(v.path, "rb") as f:
        if v.rows is None:
            features = load_features(v.path).data
            shape = features.shape
        else:
            shape = read_feature_header(f, v.path)[:2]
            if shape == (v.n, v.d):
                features = read_feature_rows(f, v.path, v.n, v.d, v.rows)
        stat = os.fstat(f.fileno())
    if shape != (v.n, v.d):
        raise DataError(f"{v.path}: feature file changed since the run started: it is "
                        f"{shape[0]} x {shape[1]} now, {v.n} x {v.d} before")
    return features, (stat.st_size, stat.st_mtime_ns, stat.st_ino)


def _step_reader(v: _Video):
    """A zero-argument reader of `v`'s kept rows for one training step, which
    calls it twice: for the forward, and again in backward for the input
    projection's gradient (see `model._input_projection`). A read that finds
    another file than the first read did, by its fstat identity, is a
    DataError: the gradient would be taken at features the forward never saw.
    """
    first = None

    def read():
        nonlocal first
        features, identity = _read_features(v)
        if first is None:
            first = identity
        elif identity != first:
            raise DataError(f"{v.path}: feature file changed during a training step, between "
                            f"its forward read and its gradient read")
        return features

    return read


def load_videos(entries, split, num_phases, downsample_limit=DOWNSAMPLE_LIMIT):
    """Every video of the split in video id order, each with its features."""
    videos = [_read_video_header(e, num_phases, downsample_limit)
              for e in split_entries(entries, split)]
    for v in videos:
        v.features = _read_features(v)[0]
    return videos


def _resolve_entries(manifest):
    if isinstance(manifest, (str, Path)):
        return load_manifest(manifest)
    return list(manifest)


# ---------------------------------------------------------------------------
# training


def _resume(ckpt: Checkpoint, model_config: ModelConfig, train_config: TrainConfig, rng):
    """(params, AdamState, start epoch) to continue `ckpt` from; sets `rng` to its state.
    `ckpt` is never written: adam_step copies the params first and the m/v dicts are copies."""
    if ckpt.model_config != model_config:
        raise ConfigError("resume checkpoint was trained with a different model config")
    if train_config.epochs < ckpt.epoch:
        raise ConfigError(f"resume checkpoint is at epoch {ckpt.epoch}, past the "
                          f"{train_config.epochs} epochs to train")
    params = {k: Tensor(a, requires_grad=True) for k, a in ckpt.params.items()}
    adam = (AdamState() if ckpt.adam is None
            else AdamState(m=dict(ckpt.adam.m), v=dict(ckpt.adam.v), t=ckpt.adam.t))
    if ckpt.rng_state is not None:
        rng.bit_generator.state = ckpt.rng_state
    return params, adam, ckpt.epoch


def train(manifest, model_config: ModelConfig, train_config: TrainConfig,
          resume: Checkpoint = None, log_path=None):
    """Run the epoch loop from `resume`, by default the seeded epoch-0 state, without
    changing it; returns (final Checkpoint, list of log lines)."""
    # every header, dim and annotation fault is raised here, before any compute;
    # each step reads its video's features (`_step_reader`) and holds none of them
    videos = []
    for entry in split_entries(_resolve_entries(manifest), "train"):
        # the first video by id gives `vitals train` its input_dim
        v = _read_video_header(entry, model_config.num_phases, train_config.downsample_limit,
                               model_config.input_dim, videos[0].video_id if videos else None)
        if train_config.balancing == "class-weights":
            v.weights = class_weights(v.labels, model_config.num_phases)
        videos.append(v)
    if not videos:
        raise DataError("manifest has no train entries")

    rng = np.random.default_rng(train_config.seed)
    # built in the call, so the epoch-0 arrays are freed once the first step copies them
    params, adam, start_epoch = _resume(
        resume if resume is not None else Checkpoint(
            model_config, {k: p.data for k, p in init_params(model_config, rng).items()}),
        model_config, train_config, rng)

    log_lines = []
    with open(log_path, "a") if log_path else contextlib.nullcontext() as log_file:
        for epoch in range(start_epoch + 1, train_config.epochs + 1):
            order = rng.permutation(len(videos))
            losses, acc0, accf = [], [], []
            for vi in order:
                v = videos[vi]
                for p in params.values():
                    p.zero_grad()
                with Tape() as tape:
                    preds = model_forward(_step_reader(v), params, model_config,
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
class EvaluationResult:  # indexed by stage: 0 is the encoder, -1 the final stage
    reports: list        # per stage, its per-video MetricsReports in video id order
    aggregates: list     # per stage, the AggregateReport of its reports


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
    entries = split_entries(_resolve_entries(manifest), split)
    if not entries:
        raise DataError(f"no videos in split {split!r}: nothing to report")

    def run(entry):  # one video is held at a time: loaded, run and dropped on return
        v = _read_video_header(entry, config.num_phases)
        preds = infer(ckpt, _read_features(v)[0], f"video {v.video_id}")
        return [M.video_report(v.labels, preds.argmax(s), config.num_phases, v.video_id)
                for s in range(preds.num_stages)]

    reports = [list(stage) for stage in zip(*[run(e) for e in entries])]
    return EvaluationResult(reports=reports, aggregates=[M.aggregate(r) for r in reports])


def model_config_from_train(train_config: TrainConfig, input_dim, overrides):
    """Build the ModelConfig a CLI training run uses from `parse_config`'s
    overrides and the feature dim of the training data.

    `train_config` is not read: every model setting reaches the model
    through `overrides`. The parameter stays because perfbench/child.py
    calls this function with three arguments.
    """
    return ModelConfig(input_dim=input_dim, **overrides)
