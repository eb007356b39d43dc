"""Feature/annotation ingestion, downsampling, and synthetic workflow data.

File formats (all little-endian / UTF-8):
  features    magic "VTAF", version u32=1, n u64, d u32, fps u32,
              then n*d float32 values, row-major frames
  annotations one segment per line: ``phase_id,start_frame,end_frame``
              (0-based, inclusive); '#' starts a comment; segments must
              tile [0, n) exactly
  manifest    one entry per line: ``split<TAB>feature_path<TAB>annotation_path``
  key = value training configs and synthetic specs: one ``key = value`` per
              line; '#' starts a comment; a key may appear only once
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (ConfigError, CoverageError, CorruptionError, DataError, FormatError,
                     ParameterError)

FEATURE_MAGIC = b"VTAF"
FEATURE_VERSION = 1
# magic, version, n, d, fps: the 24 bytes before a feature file's payload
FEATURE_HEADER = struct.Struct("<4sIQII")
DOWNSAMPLE_LIMIT = 15000
# feature values one synthetic video may hold: 4 GiB of float32
SYNTHETIC_MAX_VALUES = 2**30
# bytes of payload a feature read takes from the file at a time
_READ_BLOCK_BYTES = 2**20
# bytes of float64 noise the generator draws at a time
_NOISE_CHUNK_BYTES = 2**20


@dataclass
class FeatureSequence:
    """One video as an n x d matrix of per-frame feature vectors."""

    video_id: str
    data: np.ndarray  # n x d float32
    fps: int = 1

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 2 or self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise DataError(f"features must be a nonempty n x d matrix, got {self.data.shape}")

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def d(self):
        return self.data.shape[1]


@dataclass
class LabelSequence:
    """Per-frame phase labels in [0, K)."""

    labels: np.ndarray
    num_phases: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or self.labels.size < 1:
            raise DataError("labels must be a nonempty 1-D array")
        bad = np.nonzero((self.labels < 0) | (self.labels >= self.num_phases))[0]
        if bad.size:
            raise DataError(
                f"label {int(self.labels[bad[0]])} out of range [0,{self.num_phases}) at frame {int(bad[0])}"
            )

    @property
    def n(self):
        return self.labels.size


@dataclass(frozen=True)
class PhaseSegment:
    start: int  # inclusive
    end: int    # inclusive
    phase: int


# ---------------------------------------------------------------------------
# feature file IO


def save_features(path, seq: FeatureSequence):
    path = Path(path)
    with open(path, "wb") as f:
        f.write(FEATURE_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, seq.n, seq.d, seq.fps))
        f.write(np.ascontiguousarray(seq.data, dtype="<f4"))  # the array's own buffer, no copy


def read_feature_header(f, path):
    """Validate the header of an open feature file and its size on disk;
    returns (n, d, fps) and leaves `f` at the first payload byte."""
    head = f.read(FEATURE_HEADER.size)
    if head[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {head[:4]!r}, expected {FEATURE_MAGIC!r}")
    if len(head) < FEATURE_HEADER.size:
        raise CorruptionError(f"{path}: truncated header", offset=len(head))
    _, version, n, d, fps = FEATURE_HEADER.unpack(head)
    if version != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported feature file version {version}")
    size = os.fstat(f.fileno()).st_size
    expected = FEATURE_HEADER.size + n * d * 4
    if size < expected:
        raise CorruptionError(f"{path}: payload truncated, expected {expected} bytes", offset=size)
    if size > expected:
        raise CorruptionError(f"{path}: {size - expected} trailing bytes", offset=expected)
    if n < 1 or d < 1:  # before a reshape, which fails on n >= 2**63 rows of width 0
        raise DataError(f"{path}: features must be a nonempty n x d matrix, got ({n}, {d})")
    return n, d, fps


def read_feature_rows(f, path, n, d, rows=None):
    """The float32 rows `rows` (strictly increasing frame indices; every frame
    when None) of the n x d payload of `f`, an open feature file left at its
    first payload byte by `read_feature_header`.

    The payload is read a block of rows at a time, in file order, and each
    block is checked for non-finite values before the next is read, so a bad
    value in a frame that is not kept is still a CorruptionError. Kept rows go
    straight into the result; with `rows` the blocks share one buffer.
    """
    block = max(1, _READ_BLOCK_BYTES // (4 * d))
    out = np.empty((n if rows is None else len(rows), d), dtype="<f4")
    buf = out if rows is None else np.empty((min(block, n), d), dtype="<f4")
    lo = 0  # rows[lo:] lie at or after the current block
    for start in range(0, n, block):
        stop = min(start + block, n)
        chunk = out[start:stop] if rows is None else buf[:stop - start]
        got = f.readinto(chunk)
        if got < chunk.nbytes:  # the file shrank after its size was checked
            raise CorruptionError(f"{path}: payload truncated, expected "
                                  f"{FEATURE_HEADER.size + n * d * 4} bytes",
                                  offset=FEATURE_HEADER.size + 4 * (start * d + got // 4))
        # min and max propagate NaN and +-inf without a block-sized temporary
        if not (np.isfinite(chunk.min()) and np.isfinite(chunk.max())):
            i = int(np.flatnonzero(~np.isfinite(chunk))[0])
            first = start * d + i
            raise CorruptionError(f"{path}: non-finite feature value {chunk.flat[i]} at frame "
                                  f"{first // d}", offset=FEATURE_HEADER.size + 4 * first)
        if rows is not None:
            hi = lo + int(np.searchsorted(rows[lo:], stop))
            # the indices lie in the block; mode="raise" would buffer the rows
            np.take(chunk, rows[lo:hi] - start, axis=0, out=out[lo:hi], mode="clip")
            lo = hi
    return out


def load_features(path) -> FeatureSequence:
    path = Path(path)
    with open(path, "rb") as f:
        n, d, fps = read_feature_header(f, path)
        data = read_feature_rows(f, path, n, d)
    return FeatureSequence(video_id=path.stem, data=data, fps=fps)


# ---------------------------------------------------------------------------
# text files


def read_text(path, error):
    """A text file's contents decoded as UTF-8; undecodable bytes raise
    `error`, the VitalsError subclass for that kind of file."""
    blob = Path(path).read_bytes()
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as err:
        raise error(f"{path}: not UTF-8 text at byte offset {err.start}") from None


# ---------------------------------------------------------------------------
# key = value files


def read_key_values(path):
    """Yield (lineno, key, value) for each ``key = value`` line of a file.

    Values are left as strings for the caller to type. A line without '='
    and a key set twice are ConfigErrors that name the offending line(s).
    """
    first_line = {}
    for lineno, raw in enumerate(read_text(path, ConfigError).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (p.strip() for p in line.partition("="))
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeated, "
                              f"first set on line {first_line[key]}")
        first_line[key] = lineno
        yield lineno, key, value


# ---------------------------------------------------------------------------
# annotations


def parse_annotation_segments(path):
    """Read raw (phase, start, end) triples without coverage checks."""
    segments = []
    for lineno, raw in enumerate(read_text(path, FormatError).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected 'phase,start,end', got {raw!r}")
        try:
            phase, start, end = (int(p) for p in parts)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-integer field in {raw!r}") from None
        segments.append(PhaseSegment(start=start, end=end, phase=phase))
    return segments


def parse_annotations(path, n, num_phases) -> LabelSequence:
    """Expand run-length segments to n per-frame labels; must tile [0, n)."""
    segments = sorted(parse_annotation_segments(path), key=lambda s: s.start)
    labels = np.full(n, -1, dtype=np.int64)
    cursor = 0
    for seg in segments:
        if seg.phase < 0 or seg.phase >= num_phases:
            raise DataError(f"{path}: phase {seg.phase} out of range [0,{num_phases})")
        if seg.start > seg.end:
            raise CoverageError(f"{path}: segment start {seg.start} > end {seg.end}")
        if seg.start < cursor:
            raise CoverageError(f"{path}: overlap at frames {seg.start}..{cursor - 1}")
        if seg.start > cursor:
            raise CoverageError(f"{path}: gap at frames {cursor}..{seg.start - 1}")
        if seg.end >= n:
            raise CoverageError(f"{path}: segment end {seg.end} exceeds last frame {n - 1}")
        labels[seg.start: seg.end + 1] = seg.phase
        cursor = seg.end + 1
    if cursor != n:
        raise CoverageError(f"{path}: gap at frames {cursor}..{n - 1}")
    return LabelSequence(labels=labels, num_phases=num_phases)


def write_annotations(path, labels):
    """Write per-frame labels as run-length segments."""
    lines = [f"{s.phase},{s.start},{s.end}" for s in segments_from_labels(labels)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# label/segment conversion


def segments_from_labels(labels):
    labels = np.asarray(labels)
    if labels.size == 0:
        raise DataError("cannot segment an empty label sequence")
    boundaries = np.nonzero(np.diff(labels))[0] + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries - 1, [labels.size - 1]])
    return [PhaseSegment(int(s), int(e), int(labels[s])) for s, e in zip(starts, ends)]


def labels_from_segments(segments):
    if not segments:
        raise DataError("cannot expand an empty segment list")
    n = segments[-1].end + 1
    labels = np.empty(n, dtype=np.int64)
    for seg in segments:
        labels[seg.start: seg.end + 1] = seg.phase
    return labels


# ---------------------------------------------------------------------------
# downsampling and balancing


def downsample_indices(n, limit=DOWNSAMPLE_LIMIT):
    """Equal-interval frame indices: identity for n <= limit, else
    floor(i * n/limit) for i in [0, limit) -- strictly increasing since
    the spacing n/limit exceeds 1 in that branch."""
    if type(limit) is not int or limit < 1:
        raise ParameterError(f"downsample limit must be an integer >= 1, got {limit!r}")
    if n <= limit:
        return np.arange(n)
    w = n / limit
    return np.floor(np.arange(limit) * w).astype(np.int64)


def class_weights(labels, num_phases):
    """Inverse-frequency weights n/(K*count_k); absent phases get 0."""
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=num_phases).astype(np.float64)
    w = np.zeros(num_phases)
    present = counts > 0
    w[present] = labels.size / (num_phases * counts[present])
    return w


# ---------------------------------------------------------------------------
# synthetic workflow generator

# Default per-phase durations in minutes (mean, std) for an 11-phase
# nephrectomy-style workflow.
DEFAULT_PHASE_DURATIONS = [
    (5.78, 3.84),
    (2.29, 1.93),
    (2.52, 1.61),
    (2.09, 2.38),
    (30.26, 13.84),
    (8.35, 3.58),
    (10.58, 5.59),
    (1.02, 0.63),
    (7.33, 5.44),
    (1.40, 1.87),
    (25.18, 10.33),
]


@dataclass
class SyntheticSpec:
    """Parameters of the synthetic surgical-workflow generator.

    Phases are emitted in order; each is independently skipped with its
    skip probability. Durations are Gaussian in minutes, converted via fps
    and clamped to at least one frame. Frame features are the phase's
    centroid plus isotropic Gaussian noise.
    """

    durations: list = field(default_factory=lambda: list(DEFAULT_PHASE_DURATIONS))
    fps: int = 1
    feature_dim: int = 32
    separation: float = 4.0
    noise_std: float = 1.0
    skip_prob: list = None
    centroid_seed: int = 0

    def __post_init__(self):
        if self.skip_prob is None:
            self.skip_prob = [0.0] * len(self.durations)
        if len(self.skip_prob) != len(self.durations):
            raise ParameterError("skip_prob must have one entry per phase")
        for mean, std in self.durations:
            if not (math.isfinite(mean) and math.isfinite(std) and mean > 0 and std >= 0):
                raise ParameterError("phase duration means must be finite and > 0, stds finite "
                                     f"and >= 0, got ({mean}, {std})")
        for p in self.skip_prob:
            if not 0 <= p <= 1:
                raise ParameterError(f"skip probabilities must be in [0, 1], got {p}")
        if not math.isfinite(self.separation):
            raise ParameterError(f"separation must be finite, got {self.separation}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ParameterError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        for name in ("fps", "feature_dim", "centroid_seed"):
            if type(getattr(self, name)) is not int:
                raise ParameterError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.fps < 1:
            raise ParameterError(f"fps must be >= 1, got {self.fps}")
        if self.centroid_seed < 0:  # numpy's generators take only nonnegative seeds
            raise ParameterError(f"centroid_seed must be >= 0, got {self.centroid_seed}")
        if self.feature_dim < len(self.durations):
            raise ParameterError("feature_dim must be >= number of phases for distinct centroids")
        if self.feature_dim * self.num_phases > SYNTHETIC_MAX_VALUES:
            raise ParameterError(f"feature_dim {self.feature_dim} x {self.num_phases} phases = "
                                 f"{self.feature_dim * self.num_phases} centroid values, above "
                                 f"the limit of {SYNTHETIC_MAX_VALUES}")

    @property
    def num_phases(self):
        return len(self.durations)


def phase_centroids(spec: SyntheticSpec):
    """Deterministic unit-norm centroids scaled by the separation factor.

    Columns of a QR-orthonormalized random matrix: pairwise distance is
    separation * sqrt(2) >= separation.
    """
    rng = np.random.default_rng(spec.centroid_seed)
    basis, _ = np.linalg.qr(rng.standard_normal((spec.feature_dim, spec.num_phases)))
    return (basis * spec.separation).T  # K x d


def _phase_block(rng, centroid, frames, spec):
    """One phase's frames as float32: the centroid plus noise drawn in float64,
    a chunk of rows at a time from one Generator stream, so only one chunk of
    float64 is held beside the block."""
    d = spec.feature_dim
    block = np.empty((frames, d), dtype=np.float32)
    if spec.noise_std == 0:
        block[:] = centroid
        return block
    rows = max(1, _NOISE_CHUNK_BYTES // (8 * d))
    for start in range(0, frames, rows):
        noise = rng.normal(0.0, spec.noise_std, size=(min(rows, frames - start), d))
        noise += centroid  # in place: the same float64 sums as centroid + noise
        block[start:start + len(noise)] = noise  # the same cast as astype(np.float32)
    return block


def generate_synthetic_video(spec: SyntheticSpec, seed, video_id=None):
    """Draw one (FeatureSequence, LabelSequence) pair, deterministic per seed.

    A phase whose drawn duration is not a finite frame count, or that would
    take the video above SYNTHETIC_MAX_VALUES feature values, is a
    ParameterError raised before its frames are allocated.
    """
    rng = np.random.default_rng(seed)
    centroids = phase_centroids(spec)
    for _ in range(100):
        kept = [k for k in range(spec.num_phases) if rng.random() >= spec.skip_prob[k]]
        if kept:
            break
    else:
        raise ParameterError("skip probabilities rejected every phase repeatedly")

    counts = []
    blocks = []
    for k in kept:
        mean, std = spec.durations[k]
        minutes = rng.normal(mean, std) if std > 0 else mean
        frames = minutes * 60 * spec.fps
        if not math.isfinite(frames):
            raise ParameterError(f"phase {k}: drawn duration of {minutes} minutes at "
                                 f"{spec.fps} fps is not a finite frame count")
        frames = max(1, int(frames))
        total = (sum(counts) + frames) * spec.feature_dim
        if total > SYNTHETIC_MAX_VALUES:
            raise ParameterError(f"phase {k}: {frames} frames would bring the video to {total} "
                                 f"feature values, above the limit of {SYNTHETIC_MAX_VALUES}")
        counts.append(frames)
        blocks.append(_phase_block(rng, centroids[k], frames, spec))
    # each block is dropped once copied: np.empty's pages are touched only as
    # they are filled, so the video and its blocks are never all resident at once
    data = np.empty((sum(counts), spec.feature_dim), dtype=np.float32)
    start = 0
    for frames in counts:
        data[start:start + frames] = blocks.pop(0)
        start += frames
    features = FeatureSequence(video_id=video_id or f"synthetic-{seed}", data=data, fps=spec.fps)
    return features, LabelSequence(labels=np.repeat(kept, counts), num_phases=spec.num_phases)


# ---------------------------------------------------------------------------
# manifests


@dataclass(frozen=True)
class ManifestEntry:
    split: str
    feature_path: Path
    annotation_path: Path


def load_manifest(path):
    """Parse manifest lines; relative paths resolve against the manifest dir."""
    path = Path(path)
    base = path.parent
    entries = []
    for lineno, raw in enumerate(read_text(path, FormatError).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = raw.split("\t")
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected 'split<TAB>features<TAB>annotations'")
        split, fpath, apath = (p.strip() for p in parts)
        if split not in ("train", "test"):
            raise DataError(f"{path}:{lineno}: invalid split tag {split!r}")
        fpath, apath = base / fpath, base / apath
        for p in (fpath, apath):
            if not p.exists():
                raise DataError(f"{path}:{lineno}: missing file {p}")
        entries.append(ManifestEntry(split=split, feature_path=fpath, annotation_path=apath))
    return entries


def write_manifest(path, entries):
    path = Path(path)
    lines = []
    for e in entries:
        f = Path(e.feature_path)
        a = Path(e.annotation_path)
        try:
            f = f.relative_to(path.parent)
            a = a.relative_to(path.parent)
        except ValueError:
            pass
        lines.append(f"{e.split}\t{f}\t{a}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
