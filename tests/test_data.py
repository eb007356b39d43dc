import numpy as np
import pytest

from vitals.data import (DEFAULT_PHASE_DURATIONS, FeatureSequence, LabelSequence,
                         ManifestEntry, PhaseSegment, SyntheticSpec, class_weights,
                         downsample_indices, generate_synthetic_video,
                         labels_from_segments, load_features, load_manifest,
                         parse_annotations, phase_centroids, read_key_values,
                         save_features, segments_from_labels, write_annotations,
                         write_manifest)
from vitals.errors import (ConfigError, CorruptionError, CoverageError, DataError,
                           FormatError, ParameterError)


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

    def test_empty_features_rejected(self):
        with pytest.raises(DataError):
            FeatureSequence("x", np.zeros((0, 4), dtype=np.float32))


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

    @pytest.mark.parametrize("fps", [0, -1])
    def test_fps_must_be_positive(self, fps):
        with pytest.raises(ParameterError, match="fps"):
            self.small_spec(fps=fps)


class TestKeyValues:
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


def test_label_sequence_validates_range():
    with pytest.raises(DataError, match="frame 2"):
        LabelSequence(np.array([0, 1, 7]), num_phases=3)
