import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vitals.data
from vitals.data import (DEFAULT_PHASE_DURATIONS, FeatureSequence, LabelSequence,
                         ManifestEntry, PhaseSegment, SyntheticSpec, class_weights,
                         downsample_indices, generate_synthetic_video,
                         labels_from_segments, load_features, load_manifest,
                         parse_annotations, phase_centroids, read_feature_header,
                         read_key_values, save_features, segments_from_labels,
                         write_annotations, write_manifest)
from vitals.errors import (ConfigError, CorruptionError, CoverageError, DataError,
                           FormatError, ParameterError)
from vitals.train import load_videos


class TestFeatureFiles:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        seq = FeatureSequence("vid", rng.standard_normal((37, 5)).astype(np.float32), fps=25)
        path = tmp_path / "vid.vtaf"
        save_features(path, seq)
        back = load_features(path)
        np.testing.assert_array_equal(back.data, seq.data)
        assert back.fps == 25 and back.video_id == "vid"

    def test_header_layout(self, tmp_path):
        seq = FeatureSequence("x", np.zeros((2, 3), dtype=np.float32), fps=1)
        path = tmp_path / "x.vtaf"
        save_features(path, seq)
        blob = path.read_bytes()
        assert blob[:4] == b"VTAF"
        assert len(blob) == 24 + 2 * 3 * 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.vtaf"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_features(path)

    def test_truncated_payload(self, tmp_path):
        seq = FeatureSequence("x", np.ones((4, 4), dtype=np.float32))
        path = tmp_path / "x.vtaf"
        save_features(path, seq)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CorruptionError):
            load_features(path)

    def test_trailing_bytes(self, tmp_path):
        seq = FeatureSequence("x", np.ones((4, 4), dtype=np.float32))
        path = tmp_path / "x.vtaf"
        save_features(path, seq)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CorruptionError):
            load_features(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "neg_inf"])
    def test_non_finite_payload_rejected(self, tmp_path, value):
        data = np.ones((4, 3), dtype=np.float32)
        data[2, 1] = value
        path = tmp_path / "x.vtaf"
        save_features(path, FeatureSequence("x", data))
        with pytest.raises(CorruptionError, match="non-finite feature value .* at frame 2") as err:
            load_features(path)
        assert err.value.offset == 24 + 4 * 7

    def test_empty_features_rejected(self):
        with pytest.raises(DataError):
            FeatureSequence("x", np.zeros((0, 4), dtype=np.float32))

    def test_header_reader_stops_at_payload(self, tmp_path):
        path = tmp_path / "x.vtaf"
        save_features(path, FeatureSequence("x", np.arange(6.0).reshape(2, 3), fps=4))
        with open(path, "rb") as f:
            assert read_feature_header(f, path) == (2, 3, 4)
            assert f.tell() == 24

    @pytest.mark.parametrize("n,d", [(2**63, 0), (2**64 - 1, 0), (0, 5)])
    def test_empty_header_shape_rejected(self, tmp_path, n, d):
        path = tmp_path / "x.vtaf"
        path.write_bytes(b"VTAF" + struct.pack("<IQII", 1, n, d, 1))
        with pytest.raises(DataError, match="nonempty"):
            load_features(path)

    def test_file_shrinking_after_size_check(self, tmp_path, monkeypatch):
        path = tmp_path / "x.vtaf"
        save_features(path, FeatureSequence("x", np.ones((4, 4), dtype=np.float32)))
        full = path.stat()
        path.write_bytes(path.read_bytes()[:-8])
        monkeypatch.setattr(vitals.data.os, "fstat", lambda fd: full)
        with pytest.raises(CorruptionError, match="payload truncated") as err:
            load_features(path)
        assert err.value.offset == 24 + 4 * 14


class TestAnnotations:
    def write(self, tmp_path, text):
        p = tmp_path / "ann.txt"
        p.write_text(text)
        return p

    def test_roundtrip(self, tmp_path):
        labels = np.array([0, 0, 2, 2, 2, 1, 1, 0])
        p = tmp_path / "a.txt"
        write_annotations(p, labels)
        back = parse_annotations(p, len(labels), 3)
        np.testing.assert_array_equal(back.labels, labels)

    def test_comments_and_unsorted_lines(self, tmp_path):
        p = self.write(tmp_path, "# header\n1,3,5\n0,0,2  # tail comment\n")
        back = parse_annotations(p, 6, 2)
        np.testing.assert_array_equal(back.labels, [0, 0, 0, 1, 1, 1])

    def test_gap_names_frames(self, tmp_path):
        p = self.write(tmp_path, "0,0,2\n1,5,7\n")
        with pytest.raises(CoverageError, match="3..4"):
            parse_annotations(p, 8, 2)

    def test_overlap(self, tmp_path):
        p = self.write(tmp_path, "0,0,4\n1,3,7\n")
        with pytest.raises(CoverageError, match="overlap"):
            parse_annotations(p, 8, 2)

    def test_tail_gap(self, tmp_path):
        p = self.write(tmp_path, "0,0,4\n")
        with pytest.raises(CoverageError):
            parse_annotations(p, 8, 2)

    def test_undecodable_bytes(self, tmp_path):
        p = tmp_path / "ann.txt"
        p.write_bytes(b"0,0,3\n\x80,4,7\n")
        with pytest.raises(FormatError, match="not UTF-8 text at byte offset 6"):
            parse_annotations(p, 8, 2)

    def test_phase_out_of_range(self, tmp_path):
        p = self.write(tmp_path, "9,0,7\n")
        with pytest.raises(DataError):
            parse_annotations(p, 8, 2)

    def test_malformed_line(self, tmp_path):
        p = self.write(tmp_path, "0,0\n")
        with pytest.raises(FormatError):
            parse_annotations(p, 8, 2)


class TestSegments:
    def test_known_example(self):
        segs = segments_from_labels([0, 0, 1, 1, 1, 0])
        assert segs == [PhaseSegment(0, 1, 0), PhaseSegment(2, 4, 1), PhaseSegment(5, 5, 0)]

    def test_random_roundtrip(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            labels = rng.integers(0, 4, size=rng.integers(1, 60))
            segs = segments_from_labels(labels)
            np.testing.assert_array_equal(labels_from_segments(segs), labels)
            # segments tile [0, n) and alternate phases
            assert segs[0].start == 0 and segs[-1].end == labels.size - 1
            for a, b in zip(segs, segs[1:]):
                assert b.start == a.end + 1 and b.phase != a.phase


class TestDownsampling:
    def test_identity_below_limit(self):
        np.testing.assert_array_equal(downsample_indices(15000), np.arange(15000))
        np.testing.assert_array_equal(downsample_indices(3), [0, 1, 2])

    def test_exact_multiple_spacing(self):
        idx = downsample_indices(45000)
        assert idx.size == 15000
        np.testing.assert_array_equal(np.diff(idx), 3)

    def test_strictly_increasing_in_bounds(self):
        for n in (15001, 20000, 99999):
            idx = downsample_indices(n)
            assert idx.size == 15000
            assert idx[0] == 0 and idx[-1] < n
            assert (np.diff(idx) >= 1).all()


class TestClassWeights:
    def test_inverse_frequency(self):
        w = class_weights([0, 0, 0, 1], 2)
        np.testing.assert_allclose(w, [4 / (2 * 3), 4 / (2 * 1)])

    def test_absent_phase_zero(self):
        w = class_weights([0, 0], 3)
        assert w[1] == 0.0 and w[2] == 0.0

    def test_uniform_distribution_unit_weights(self):
        w = class_weights([0, 1, 2, 0, 1, 2], 3)
        np.testing.assert_allclose(w, 1.0)


class TestSynthetic:
    def small_spec(self, **kw):
        base = dict(durations=[(0.05, 0.0)] * 3, feature_dim=8,
                    separation=3.0, noise_std=0.5)
        base.update(kw)
        return SyntheticSpec(**base)

    def test_default_spec_matches_reference_durations(self):
        spec = SyntheticSpec()
        assert spec.num_phases == 11
        assert spec.durations == DEFAULT_PHASE_DURATIONS
        assert spec.durations[4] == (30.26, 13.84)

    def test_deterministic_per_seed(self):
        spec = self.small_spec()
        a_f, a_l = generate_synthetic_video(spec, seed=5)
        b_f, b_l = generate_synthetic_video(spec, seed=5)
        np.testing.assert_array_equal(a_f.data, b_f.data)
        np.testing.assert_array_equal(a_l.labels, b_l.labels)
        c_f, _ = generate_synthetic_video(spec, seed=6)
        assert not np.array_equal(a_f.data, c_f.data)

    def test_zero_std_duration_exact(self):
        # 0.05 min at 1 fps -> max(1, int(3.0)) = 3 frames per phase
        _, labels = generate_synthetic_video(self.small_spec(), seed=0)
        np.testing.assert_array_equal(labels.labels, [0, 0, 0, 1, 1, 1, 2, 2, 2])

    def test_phases_in_order_and_contiguous(self):
        spec = self.small_spec(durations=[(0.1, 0.05)] * 4, skip_prob=[0.0, 0.5, 0.5, 0.0])
        for seed in range(20):
            _, labels = generate_synthetic_video(spec, seed=seed)
            segs = segments_from_labels(labels.labels)
            phases = [s.phase for s in segs]
            assert phases == sorted(set(phases))

    def test_skip_probability_one_always_skips(self):
        spec = self.small_spec(skip_prob=[0.0, 1.0, 0.0])
        for seed in range(10):
            _, labels = generate_synthetic_video(spec, seed=seed)
            assert 1 not in labels.labels

    def test_all_skipped_raises(self):
        spec = self.small_spec(skip_prob=[1.0, 1.0, 1.0])
        with pytest.raises(ParameterError):
            generate_synthetic_video(spec, seed=0)

    def test_centroid_geometry(self):
        spec = self.small_spec(separation=5.0)
        c = phase_centroids(spec)
        assert c.shape == (3, 8)
        np.testing.assert_allclose(np.linalg.norm(c, axis=1), 5.0, rtol=1e-6)
        for i in range(3):
            for j in range(i + 1, 3):
                np.testing.assert_allclose(np.linalg.norm(c[i] - c[j]),
                                           5.0 * np.sqrt(2), rtol=1e-6)

    def test_centroids_shared_across_videos(self):
        spec = self.small_spec(noise_std=0.0)
        a_f, a_l = generate_synthetic_video(spec, seed=1)
        b_f, b_l = generate_synthetic_video(spec, seed=2)
        np.testing.assert_array_equal(a_f.data[a_l.labels == 0][0],
                                      b_f.data[b_l.labels == 0][0])

    def test_noise_statistics(self):
        spec = self.small_spec(durations=[(20.0, 0.0)], skip_prob=[0.0], noise_std=0.7)
        feats, labels = generate_synthetic_video(spec, seed=3)
        resid = feats.data - phase_centroids(spec)[0]
        assert abs(resid.std() - 0.7) < 0.02

    def test_feature_dim_must_cover_phases(self):
        with pytest.raises(ParameterError):
            SyntheticSpec(durations=[(1.0, 0.0)] * 5, feature_dim=3)

    def test_centroid_size_limit(self, monkeypatch):
        # checked on the spec, before phase_centroids allocates d x K floats
        monkeypatch.setattr(vitals.data, "SYNTHETIC_MAX_VALUES", 64)
        self.small_spec(feature_dim=21)
        with pytest.raises(ParameterError, match="feature_dim 22 x 3 phases .* limit of 64"):
            self.small_spec(feature_dim=22)

    @pytest.mark.parametrize("fps", [0, -1])
    def test_fps_must_be_positive(self, fps):
        with pytest.raises(ParameterError, match="fps"):
            self.small_spec(fps=fps)

    @pytest.mark.parametrize("field,value", [
        ("fps", 2.5), ("feature_dim", 16.0), ("centroid_seed", -1), ("centroid_seed", 1.5),
    ])
    def test_integer_fields_must_be_integers(self, field, value):
        # before, fps=2.5 ended in a struct.error from save_features, and the
        # others in a TypeError or ValueError from phase_centroids
        with pytest.raises(ParameterError, match=field):
            self.small_spec(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("separation", float("nan")), ("separation", float("inf")),
        ("noise_std", float("nan")), ("noise_std", float("inf")), ("noise_std", -0.1),
    ])
    def test_scalars_must_be_finite(self, field, value):
        with pytest.raises(ParameterError, match=field):
            self.small_spec(**{field: value})

    @pytest.mark.parametrize("duration", [
        (float("inf"), 1.0), (float("nan"), 1.0), (1.0, float("inf")), (1.0, float("nan")),
    ], ids=["inf_mean", "nan_mean", "inf_std", "nan_std"])
    def test_durations_must_be_finite(self, duration):
        with pytest.raises(ParameterError, match="duration"):
            SyntheticSpec(durations=[(1.0, 0.0), duration], feature_dim=4)

    def test_unbounded_duration_rejected(self):
        spec = self.small_spec(durations=[(0.05, 0.0), (1e300, 0.0)])
        with pytest.raises(ParameterError, match="phase 1: .* above the limit"):
            generate_synthetic_video(spec, seed=0)

    def test_non_finite_frame_count_rejected(self):
        # 1e308 minutes is finite, 60 times it is not
        spec = self.small_spec(durations=[(1e308, 0.0), (0.05, 0.0)])
        with pytest.raises(ParameterError, match="phase 0: .* not a finite frame count"):
            generate_synthetic_video(spec, seed=0)

    def test_size_limit_counts_every_phase(self, monkeypatch):
        # 3 frames x 8 values per phase: each phase fits alone, the third
        # takes the video past a limit of 64 values
        monkeypatch.setattr(vitals.data, "SYNTHETIC_MAX_VALUES", 64)
        with pytest.raises(ParameterError, match="phase 2: 3 frames .* 72 feature values"):
            generate_synthetic_video(self.small_spec(), seed=0)

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_skip_probabilities_in_unit_interval(self, p):
        with pytest.raises(ParameterError, match="skip"):
            SyntheticSpec(durations=[(1.0, 0.0)] * 2, feature_dim=4, skip_prob=[0.0, p])


def reference_generate(spec, seed):
    """`generate_synthetic_video` as it was before it kept float32 blocks:
    float64 phase blocks, a float64 vstack, then one cast to float32."""
    rng = np.random.default_rng(seed)
    centroids = phase_centroids(spec)
    for _ in range(100):
        kept = [k for k in range(spec.num_phases) if rng.random() >= spec.skip_prob[k]]
        if kept:
            break
    labels, chunks = [], []
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
    return np.vstack(chunks).astype(np.float32), np.asarray(labels)


def reference_save(path, seq):
    """`save_features` as it was before it wrote the array's own buffer."""
    with open(path, "wb") as f:
        f.write(b"VTAF" + struct.pack("<IQII", 1, seq.n, seq.d, seq.fps))
        f.write(seq.data.astype("<f4").tobytes())


class TestCopyFree:
    """Generation, writing and loading match the references bit for bit
    and hold at most about two copies of the output (tracemalloc)."""

    SPECS = {
        "noise": SyntheticSpec(durations=[(0.5, 0.2)] * 4, feature_dim=16),
        "no_noise": SyntheticSpec(durations=[(0.5, 0.2)] * 4, feature_dim=16, noise_std=0.0),
        "skip": SyntheticSpec(durations=[(0.4, 0.3)] * 5, feature_dim=8,
                              skip_prob=[0.3, 0.5, 0.0, 0.9, 0.2], separation=2.0),
        "fps3": SyntheticSpec(durations=[(0.3, 0.1)] * 3, fps=3, feature_dim=12, noise_std=2.0),
    }
    # 285 frames x 256 values: a payload of 0.28 MB
    BIG = SyntheticSpec(durations=[(1.5, 0.0), (2.0, 0.0), (1.25, 0.0)], feature_dim=256)

    @pytest.mark.parametrize("name", SPECS)
    def test_generate_and_save_match_reference(self, tmp_path, name):
        spec = self.SPECS[name]
        for seed in range(5):
            feats, labels = generate_synthetic_video(spec, seed)
            ref_data, ref_labels = reference_generate(spec, seed)
            assert feats.data.dtype == np.float32
            np.testing.assert_array_equal(feats.data, ref_data)
            np.testing.assert_array_equal(labels.labels, ref_labels)
            save_features(tmp_path / "new.vtaf", feats)
            reference_save(tmp_path / "ref.vtaf", feats)
            assert (tmp_path / "new.vtaf").read_bytes() == (tmp_path / "ref.vtaf").read_bytes()

    def test_generate_peak(self, traced_peak):
        # the reference peaks at 5.0x the payload (float64 blocks, vstack and cast)
        (feats, _), peak = traced_peak(lambda: generate_synthetic_video(self.BIG, 0))
        assert feats.n == 285
        assert peak < 2.3 * feats.data.nbytes

    def test_save_copies_nothing(self, tmp_path, traced_peak):
        feats, _ = generate_synthetic_video(self.BIG, 0)
        _, peak = traced_peak(lambda: save_features(tmp_path / "v.vtaf", feats))
        assert peak < 0.1 * feats.data.nbytes  # the reference: 2.0x

    def test_load_reads_payload_once(self, tmp_path, traced_peak):
        feats, _ = generate_synthetic_video(self.BIG, 0)
        save_features(tmp_path / "v.vtaf", feats)
        back, peak = traced_peak(lambda: load_features(tmp_path / "v.vtaf"))
        np.testing.assert_array_equal(back.data, feats.data)
        assert peak < 1.2 * feats.data.nbytes  # the reference: 2.0x


class TestChunkedGenerator:
    """Noise is drawn a chunk of rows at a time and the phases are copied into
    one preallocated video; the bits are the reference's."""

    # the default chunk holds 1310 rows of width 100 (131000 of 131072 values),
    # and every phase spans two or more chunks
    SPECS = {
        "noise": SyntheticSpec(durations=[(50.0, 5.0), (35.0, 4.0), (45.0, 5.0)],
                               feature_dim=100, noise_std=0.8),
        "no_noise": SyntheticSpec(durations=[(50.0, 5.0), (35.0, 4.0), (45.0, 5.0)],
                                  feature_dim=100, noise_std=0.0),
    }

    @pytest.mark.parametrize("name", SPECS)
    def test_matches_reference_across_chunks(self, name):
        spec = self.SPECS[name]
        rows = vitals.data._NOISE_CHUNK_BYTES // (8 * spec.feature_dim)
        for seed in range(5):
            feats, labels = generate_synthetic_video(spec, seed)
            ref_data, ref_labels = reference_generate(spec, seed)
            assert np.bincount(labels.labels).min() > rows
            assert feats.data.dtype == np.float32
            np.testing.assert_array_equal(feats.data, ref_data)
            np.testing.assert_array_equal(labels.labels, ref_labels)

    def test_many_small_chunks_match_reference(self, monkeypatch):
        # 10 rows of width 12 per chunk of 125 values, so a phase of about 48
        # frames spans several chunks, the last one short
        monkeypatch.setattr(vitals.data, "_NOISE_CHUNK_BYTES", 1000)
        spec = SyntheticSpec(durations=[(0.8, 0.4)] * 4, feature_dim=12,
                             skip_prob=[0.0, 0.3, 0.0, 0.3])
        for seed in range(5):
            feats, labels = generate_synthetic_video(spec, seed)
            ref_data, ref_labels = reference_generate(spec, seed)
            np.testing.assert_array_equal(feats.data, ref_data)
            np.testing.assert_array_equal(labels.labels, ref_labels)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
    def test_resident_peak_of_a_paper_width_video(self):
        # RSS counts only touched pages, unlike tracemalloc: the video's pages
        # are filled as its phase blocks are copied in and dropped
        script = """if True:
            import sys
            from vitals.data import SyntheticSpec, generate_synthetic_video

            def status(key):
                for line in open("/proc/self/status"):
                    if line.startswith(key + ":"):
                        return int(line.split()[1]) * 1024

            spec = SyntheticSpec(durations=[(2000 / 60, 0.0)] * 4, feature_dim=2048)
            before = status("VmRSS")
            feats, _ = generate_synthetic_video(spec, 0)
            print(feats.n, feats.data.nbytes, status("VmHWM") - before)
        """
        src = str(Path(vitals.data.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        n, payload, grown = (int(v) for v in proc.stdout.split())
        assert n == 8000
        assert grown < 1.7 * payload  # 2.6x when the blocks were concatenated


def write_video(tmp_path, n, d, seed=0):
    """A feature file of n random rows of width d and its annotation file
    (three phases); returns its train ManifestEntry."""
    data = np.random.default_rng(seed).standard_normal((n, d)).astype(np.float32)
    fpath, apath = tmp_path / f"v{n}.vtaf", tmp_path / f"v{n}.txt"
    save_features(fpath, FeatureSequence(fpath.stem, data))
    write_annotations(apath, np.arange(n) * 3 // n)
    return ManifestEntry("train", fpath, apath)


class TestRowBlockLoader:
    """A video above the downsample limit is read a block of rows at a time
    and only its kept rows are held."""

    D, BLOCK_ROWS, LIMIT = 6, 16, 50

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(vitals.data, "_READ_BLOCK_BYTES", 4 * self.D * self.BLOCK_ROWS)

    @pytest.mark.parametrize("n", [LIMIT, LIMIT + 1, 5 * BLOCK_ROWS - 1, 5 * BLOCK_ROWS,
                                   5 * BLOCK_ROWS + 1])
    def test_rows_match_whole_load(self, tmp_path, small_blocks, n):
        entry = write_video(tmp_path, n, self.D)
        [video] = load_videos([entry], "train", 3, self.LIMIT)
        idx = downsample_indices(n, self.LIMIT)
        np.testing.assert_array_equal(video.features, load_features(entry.feature_path).data[idx])
        np.testing.assert_array_equal(video.labels, (np.arange(n) * 3 // n)[idx])
        assert video.features.dtype == np.float32 and video.video_id == f"v{n}"

    def test_default_block_size(self, tmp_path):
        d = 4
        n = 2 * (vitals.data._READ_BLOCK_BYTES // (4 * d)) + 1
        entry = write_video(tmp_path, n, d)
        [video] = load_videos([entry], "train", 3, 1000)
        np.testing.assert_array_equal(
            video.features, load_features(entry.feature_path).data[downsample_indices(n, 1000)])

    @pytest.mark.parametrize("frame", [2, 37, 79], ids=["first_block", "middle", "last_row"])
    def test_non_finite_dropped_frame(self, tmp_path, small_blocks, frame):
        n = 5 * self.BLOCK_ROWS
        assert frame not in downsample_indices(n, self.LIMIT)
        entry = write_video(tmp_path, n, self.D)
        seq = load_features(entry.feature_path)
        seq.data[frame, 3] = np.nan
        save_features(entry.feature_path, seq)
        with pytest.raises(CorruptionError, match=f"at frame {frame} ") as whole:
            load_features(entry.feature_path)
        with pytest.raises(CorruptionError) as rows:
            load_videos([entry], "train", 3, self.LIMIT)
        assert str(rows.value) == str(whole.value)
        assert rows.value.offset == whole.value.offset == 24 + 4 * (frame * self.D + 3)

    @pytest.mark.parametrize("cut", [8, 4 * D * 20 + 2], ids=["last_block", "two_blocks"])
    def test_file_shrinking_after_size_check(self, tmp_path, small_blocks, monkeypatch, cut):
        n = 5 * self.BLOCK_ROWS
        entry = write_video(tmp_path, n, self.D)
        path = entry.feature_path
        full = path.stat()
        path.write_bytes(path.read_bytes()[:-cut])
        monkeypatch.setattr(vitals.data.os, "fstat", lambda fd: full)
        with pytest.raises(CorruptionError, match="payload truncated") as whole:
            load_features(path)
        with pytest.raises(CorruptionError, match="payload truncated") as rows:
            load_videos([entry], "train", 3, self.LIMIT)
        assert str(rows.value) == str(whole.value)
        assert rows.value.offset == whole.value.offset == 24 + 4 * ((full.st_size - 24 - cut) // 4)

    def test_peak_is_the_kept_rows_and_one_block(self, tmp_path, traced_peak):
        d, limit = 64, 8192
        entry = write_video(tmp_path, 2 * limit, d)
        [video], peak = traced_peak(lambda: load_videos([entry], "train", 3, limit))
        kept = video.features.nbytes
        assert kept == limit * d * 4
        # loading the whole file first and indexing it held 3x the kept rows
        assert peak < 1.2 * kept + vitals.data._READ_BLOCK_BYTES


class TestKeyValues:
    def test_undecodable_bytes(self, tmp_path):
        p = tmp_path / "kv.conf"
        p.write_bytes(b"a = 1\nb = \xff\n")
        with pytest.raises(ConfigError, match="not UTF-8 text at byte offset 10"):
            list(read_key_values(p))

    def test_comments_blanks_and_spacing(self, tmp_path):
        p = tmp_path / "kv.conf"
        p.write_text("# header\n\n  a = 1  # trailing\nb=x y\nc =\n")
        assert list(read_key_values(p)) == [(3, "a", "1"), (4, "b", "x y"), (5, "c", "")]

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "kv.conf"
        p.write_text("a = 1\njust words\n")
        with pytest.raises(ConfigError, match=r"kv\.conf:2: expected 'key = value'"):
            list(read_key_values(p))


class TestManifest:
    def make(self, tmp_path):
        seq = FeatureSequence("v", np.zeros((3, 2), dtype=np.float32))
        save_features(tmp_path / "v.vtaf", seq)
        write_annotations(tmp_path / "v.txt", np.array([0, 0, 1]))

    def test_roundtrip_relative_paths(self, tmp_path):
        self.make(tmp_path)
        entries = [ManifestEntry("train", tmp_path / "v.vtaf", tmp_path / "v.txt")]
        write_manifest(tmp_path / "m.tsv", entries)
        assert "\t" in (tmp_path / "m.tsv").read_text()
        back = load_manifest(tmp_path / "m.tsv")
        assert back[0].split == "train"
        assert back[0].feature_path == tmp_path / "v.vtaf"

    def test_bad_split(self, tmp_path):
        self.make(tmp_path)
        (tmp_path / "m.tsv").write_text("validate\tv.vtaf\tv.txt\n")
        with pytest.raises(DataError):
            load_manifest(tmp_path / "m.tsv")

    def test_missing_file(self, tmp_path):
        self.make(tmp_path)
        (tmp_path / "m.tsv").write_text("train\tghost.vtaf\tv.txt\n")
        with pytest.raises(DataError):
            load_manifest(tmp_path / "m.tsv")

    def test_malformed_line(self, tmp_path):
        (tmp_path / "m.tsv").write_text("train v.vtaf v.txt\n")
        with pytest.raises(FormatError):
            load_manifest(tmp_path / "m.tsv")

    def test_undecodable_bytes(self, tmp_path):
        (tmp_path / "m.tsv").write_bytes(b"train\tv\xe9.vtaf\tv.txt\n")
        with pytest.raises(FormatError, match="not UTF-8"):
            load_manifest(tmp_path / "m.tsv")


def test_label_sequence_validates_range():
    with pytest.raises(DataError, match="frame 2"):
        LabelSequence(np.array([0, 1, 7]), num_phases=3)
