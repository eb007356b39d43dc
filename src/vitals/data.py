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

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (ConfigError, CoverageError, CorruptionError, DataError, FormatError,
                     ParameterError)

FEATURE_MAGIC = b"VTAF"
FEATURE_VERSION = 1
DOWNSAMPLE_LIMIT = 15000


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
    header = FEATURE_MAGIC + struct.pack("<IQII", FEATURE_VERSION, seq.n, seq.d, seq.fps)
    with open(path, "wb") as f:
        f.write(header)
        f.write(seq.data.astype("<f4").tobytes())


def load_features(path) -> FeatureSequence:
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}, expected {FEATURE_MAGIC!r}")
    if len(blob) < 24:
        raise CorruptionError(f"{path}: truncated header", offset=len(blob))
    version, n, d, fps = struct.unpack("<IQII", blob[4:24])
    if version != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported feature file version {version}")
    expected = 24 + n * d * 4
    if len(blob) < expected:
        raise CorruptionError(f"{path}: payload truncated, expected {expected} bytes", offset=len(blob))
    if len(blob) > expected:
        raise CorruptionError(f"{path}: {len(blob) - expected} trailing bytes", offset=expected)
    data = np.frombuffer(blob, dtype="<f4", count=n * d, offset=24).reshape(n, d)
    return FeatureSequence(video_id=path.stem, data=data.copy(), fps=fps)


# ---------------------------------------------------------------------------
# key = value files


def read_key_values(path):
    """Yield (lineno, key, value) for each ``key = value`` line of a file.

    Values are left as strings for the caller to type. A line without '='
    and a key set twice are ConfigErrors that name the offending line(s).
    """
    first_line = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
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
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
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
    Path(path).write_text("\n".join(lines) + "\n")


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
            if mean <= 0 or std < 0:
                raise ParameterError("phase duration means must be > 0 and stds >= 0")
        if self.fps < 1:
            raise ParameterError(f"fps must be >= 1, got {self.fps}")
        if self.feature_dim < len(self.durations):
            raise ParameterError("feature_dim must be >= number of phases for distinct centroids")

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


def generate_synthetic_video(spec: SyntheticSpec, seed, video_id=None):
    """Draw one (FeatureSequence, LabelSequence) pair, deterministic per seed."""
    rng = np.random.default_rng(seed)
    centroids = phase_centroids(spec)
    for _ in range(100):
        kept = [k for k in range(spec.num_phases) if rng.random() >= spec.skip_prob[k]]
        if kept:
            break
    else:
        raise ParameterError("skip probabilities rejected every phase repeatedly")

    labels = []
    chunks = []
    for k in kept:
        mean, std = spec.durations[k]
        minutes = rng.normal(mean, std) if std > 0 else mean
        frames = max(1, int(minutes * 60 * spec.fps))
        labels.extend([k] * frames)
        if spec.noise_std > 0:
            block = centroids[k] + rng.normal(0.0, spec.noise_std, size=(frames, spec.feature_dim))
        else:
            block = np.tile(centroids[k], (frames, 1))
        chunks.append(block)
    features = FeatureSequence(video_id=video_id or f"synthetic-{seed}",
                               data=np.vstack(chunks).astype(np.float32), fps=spec.fps)
    return features, LabelSequence(labels=np.asarray(labels), num_phases=spec.num_phases)


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
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
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
    path.write_text("\n".join(lines) + "\n")
