import os

import numpy as np
import pytest

from vitals.data import (ManifestEntry, SyntheticSpec, generate_synthetic_video,
                         save_features, write_annotations, write_manifest)
from vitals.errors import (ConfigError, CorruptionError, DataError, FormatError,
                           ParameterError, TrainingError)
from vitals.model import ModelConfig, init_params
from vitals.tensor import Tensor
from vitals.train import (CONFIG_KEYS, AdamState, Checkpoint, TrainConfig, adam_step, evaluate,
                          load_checkpoint, model_config_from_train, parse_config,
                          save_checkpoint)
from vitals.train import train as run_train


def make_dataset(tmp_path, n_train=3, n_test=1, seed=0):
    spec = SyntheticSpec(durations=[(0.08, 0.03)] * 3, feature_dim=8,
                         separation=3.0, noise_std=1.0)
    entries = []
    for i in range(n_train + n_test):
        vid = f"video{i:03d}"
        feats, labels = generate_synthetic_video(spec, seed=seed + i, video_id=vid)
        save_features(tmp_path / f"{vid}.vtaf", feats)
        write_annotations(tmp_path / f"{vid}.txt", labels.labels)
        entries.append(ManifestEntry("train" if i < n_train else "test",
                                     tmp_path / f"{vid}.vtaf", tmp_path / f"{vid}.txt"))
    manifest = tmp_path / "manifest.tsv"
    write_manifest(manifest, entries)
    return manifest


def small_model(**kw):
    base = dict(num_phases=3, input_dim=8, hidden_dim=8, num_layers=2,
                num_decoders=1, dropout_rate=0.3)
    base.update(kw)
    return ModelConfig(**base)


class TestAdam:
    def test_matches_scalar_reference(self):
        """100 steps against an independent textbook implementation."""
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(5)
        params = {"w": Tensor(theta.copy(), requires_grad=True)}
        state = AdamState()

        ref = theta.copy()
        m = np.zeros(5)
        v = np.zeros(5)
        lr, wd, b1, b2, eps = 1e-3, 0.01, 0.9, 0.999, 1e-8
        for t in range(1, 101):
            grad = rng.standard_normal(5)
            params["w"].grad = grad.copy()
            adam_step(params, state, lr, weight_decay=wd)

            g = grad + wd * ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            ref -= lr * mhat / (np.sqrt(vhat) + eps)
            np.testing.assert_allclose(params["w"].data, ref, rtol=1e-6, atol=1e-9)

    def test_bias_correction_first_step(self):
        # with m=v=0, step 1 moves by exactly lr * sign(g) up to eps
        params = {"w": Tensor(np.zeros(3), requires_grad=True)}
        params["w"].grad = np.array([1.0, -2.0, 0.5])
        adam_step(params, AdamState(), 0.1)
        np.testing.assert_allclose(params["w"].data, [-0.1, 0.1, -0.1], rtol=1e-6)

    def test_nonfinite_gradient_raises(self):
        params = {"w": Tensor(np.zeros(2), requires_grad=True)}
        params["w"].grad = np.array([1.0, np.nan])
        with pytest.raises(TrainingError, match="'w'"):
            adam_step(params, AdamState(), 0.1)


class TestConfigFile:
    def test_parse_full(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("# comment\nlearning_rate = 0.001\nepochs = 7\nseed = 3\n"
                     "lambda = 0.2\ntau = 5\nlayers = 4\ndecoders = 2\n"
                     "hidden_dim = 16\nphases = 5\nbalancing = none\n")
        tc, overrides = parse_config(p)
        assert tc.learning_rate == 0.001 and tc.epochs == 7 and tc.seed == 3
        assert tc.balancing == "none"
        assert overrides == {"smooth_weight": 0.2, "smooth_clamp": 5.0, "num_layers": 4,
                             "num_decoders": 2, "hidden_dim": 16, "num_phases": 5}

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("learning_rte = 0.001\n")
        with pytest.raises(ConfigError, match="learning_rte"):
            parse_config(p)

    def test_bad_value(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("epochs = soon\n")
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_validation(self):
        with pytest.raises(ParameterError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ParameterError):
            TrainConfig(epochs=0)
        with pytest.raises(ParameterError):
            TrainConfig(balancing="oversample")

    @pytest.mark.parametrize("line", ["learning_rate = nan", "learning_rate = inf",
                                      "learning_rate = -0.1", "weight_decay = nan",
                                      "weight_decay = -1e-5", "weight_decay = inf"])
    def test_nonfinite_or_negative_rates_rejected(self, tmp_path, line):
        p = tmp_path / "c.conf"
        p.write_text(f"phases = 3\n{line}\n")
        with pytest.raises(ParameterError, match=line.split()[0]):
            parse_config(p)

    def test_phases_only_gives_dataclass_defaults(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("phases = 5\n")
        tc, overrides = parse_config(p)
        assert tc == TrainConfig()
        assert model_config_from_train(tc, 12, overrides) == ModelConfig(num_phases=5,
                                                                         input_dim=12)

    def test_missing_phases_rejected(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("epochs = 3\nlayers = 2\n")
        with pytest.raises(ConfigError, match="phases"):
            parse_config(p)

    def test_repeated_key_names_both_lines(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("epochs = 3\nphases = 4\n# note\nepochs = 5\n")
        with pytest.raises(ConfigError, match=r"c\.conf:4: key 'epochs' repeated, first set on line 1"):
            parse_config(p)

    def test_every_key_reaches_its_field(self, tmp_path):
        # a non-default value for each key, as written in a file and as parsed
        samples = {"learning_rate": ("0.002", 0.002), "weight_decay": ("0.25", 0.25),
                   "epochs": ("9", 9), "dropout": ("0.45", 0.45), "seed": ("17", 17),
                   "lambda": ("0.6", 0.6), "tau": ("2.5", 2.5), "layers": ("3", 3),
                   "decoders": ("0", 0), "hidden_dim": ("5", 5), "phases": ("6", 6),
                   "balancing": ("none", "none")}
        assert set(samples) == set(CONFIG_KEYS)
        for key, (text, value) in samples.items():
            p = tmp_path / f"{key}.conf"
            p.write_text(f"{key} = {text}\n" + ("" if key == "phases" else "phases = 4\n"))
            tc, overrides = parse_config(p)
            mc = model_config_from_train(tc, 7, overrides)
            cls, name = CONFIG_KEYS[key]
            got = getattr(tc if cls is TrainConfig else mc, name)
            assert got == value and type(got) is type(value), key
            default = getattr(TrainConfig() if cls is TrainConfig else ModelConfig(num_phases=2),
                              name)
            assert value != default, key


class TestCheckpoint:
    def roundtrip(self, tmp_path, with_adam=True):
        config = small_model()
        params = {k: p.data for k, p in init_params(config, 5).items()}
        adam = None
        if with_adam:
            adam = AdamState(m={k: np.ones_like(a) for k, a in params.items()},
                             v={k: np.full_like(a, 0.5) for k, a in params.items()}, t=42)
        rng = np.random.default_rng(9)
        rng.random(10)
        ckpt = Checkpoint(model_config=config, params=params, adam=adam,
                          rng_state=rng.bit_generator.state, epoch=17)
        path = tmp_path / "ck.vtck"
        save_checkpoint(path, ckpt)
        return ckpt, load_checkpoint(path), path

    def test_exact_roundtrip(self, tmp_path):
        orig, back, path = self.roundtrip(tmp_path)
        assert path.read_bytes()[:4] == b"VTCK"
        assert back.model_config == orig.model_config
        assert back.epoch == 17
        assert back.adam.t == 42
        for k in orig.params:
            np.testing.assert_array_equal(back.params[k], orig.params[k])
            np.testing.assert_array_equal(back.adam.m[k], orig.adam.m[k])
            np.testing.assert_array_equal(back.adam.v[k], orig.adam.v[k])
        # restored rng state continues the stream identically
        a = np.random.default_rng(9)
        a.random(10)
        b = np.random.default_rng(0)
        b.bit_generator.state = back.rng_state
        np.testing.assert_array_equal(a.random(5), b.random(5))

    def test_roundtrip_without_adam(self, tmp_path):
        _, back, _ = self.roundtrip(tmp_path, with_adam=False)
        assert back.adam is None

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.vtck"
        p.write_bytes(b"WRNG" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_checkpoint(p)

    def test_truncation(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(CorruptionError):
            load_checkpoint(path)

    def test_metadata_without_param_names(self, tmp_path, edit_checkpoint_meta):
        _, _, path = self.roundtrip(tmp_path)
        edit_checkpoint_meta(path, lambda m: {k: v for k, v in m.items() if k != "param_names"})
        with pytest.raises(CorruptionError, match="param_names"):
            load_checkpoint(path)

    def test_model_config_with_unknown_key(self, tmp_path, edit_checkpoint_meta):
        _, _, path = self.roundtrip(tmp_path)
        edit_checkpoint_meta(path, lambda m: {**m, "model_config": {**m["model_config"], "depth": 3}})
        with pytest.raises(ConfigError, match="depth"):
            load_checkpoint(path)

    def test_metadata_that_is_a_list(self, tmp_path, edit_checkpoint_meta):
        _, _, path = self.roundtrip(tmp_path)
        edit_checkpoint_meta(path, lambda m: list(m))
        with pytest.raises(CorruptionError, match="JSON object"):
            load_checkpoint(path)

    def test_older_checkpoint_with_probs_query_loads(self, tmp_path, edit_checkpoint_meta):
        orig, _, path = self.roundtrip(tmp_path)
        edit_checkpoint_meta(path, lambda m: {
            **m, "model_config": {**m["model_config"], "decoder_query": "probs"}})
        back = load_checkpoint(path)
        assert back.model_config == orig.model_config
        assert "decoder_query" not in back.model_config.to_dict()
        for k in orig.params:
            np.testing.assert_array_equal(back.params[k], orig.params[k])

    def test_logits_query_is_rejected(self, tmp_path, edit_checkpoint_meta):
        _, _, path = self.roundtrip(tmp_path)
        edit_checkpoint_meta(path, lambda m: {
            **m, "model_config": {**m["model_config"], "decoder_query": "logits"}})
        with pytest.raises(ConfigError, match="decoder_query"):
            load_checkpoint(path)

    def resave(self, tmp_path, edit):
        """Save the round-trip checkpoint again after edit(ckpt) changed it."""
        orig, _, path = self.roundtrip(tmp_path)
        edit(orig)
        save_checkpoint(path, orig)
        return path

    def test_missing_moment_rejected(self, tmp_path):
        path = self.resave(tmp_path, lambda ck: ck.adam.v.pop("fusion.bias"))
        with pytest.raises(CorruptionError, match=r"adam\.v moments missing.*fusion\.bias"):
            load_checkpoint(path)

    def test_moments_without_optimizer_steps_rejected(self, tmp_path):
        def edit(ck):
            ck.adam.t = 0
        with pytest.raises(CorruptionError, match="unexpected"):
            load_checkpoint(self.resave(tmp_path, edit))

    def test_state_before_any_step_loads(self, tmp_path):
        def edit(ck):
            ck.adam = AdamState()
        back = load_checkpoint(self.resave(tmp_path, edit))
        assert back.adam.t == 0 and back.adam.m == {} and back.adam.v == {}

    @staticmethod
    def group(ck, name):
        """The dict of `ck` that holds the tensor saved as `name`, and its key there."""
        return (ck.adam.m, name[7:]) if name.startswith("adam.m:") else (ck.params, name)

    @pytest.mark.parametrize("name", ["bogus", "adam.m:bogus"])
    def test_unknown_tensor_rejected(self, tmp_path, name):
        def edit(ck):
            group, key = self.group(ck, name)
            group[key] = np.zeros(3, np.float32)
        with pytest.raises(CorruptionError, match=f"'{name}'"):
            load_checkpoint(self.resave(tmp_path, edit))

    @pytest.mark.parametrize("name", ["encoder.block1.attn.wq", "adam.m:fusion.weight"])
    def test_shape_mismatch_rejected(self, tmp_path, name):
        def edit(ck):
            group, key = self.group(ck, name)
            group[key] = group[key][:-1]
        with pytest.raises(CorruptionError, match="shape"):
            load_checkpoint(self.resave(tmp_path, edit))

    @pytest.mark.parametrize("adam_t", ["7", -1, 1.5, True])
    def test_bad_adam_t_rejected(self, tmp_path, edit_checkpoint_meta, adam_t):
        _, _, path = self.roundtrip(tmp_path)
        edit_checkpoint_meta(path, lambda m: {**m, "adam_t": adam_t})
        with pytest.raises(CorruptionError, match="adam_t"):
            load_checkpoint(path)

    @pytest.mark.parametrize("epoch", ["x", -3, 1.5, True, None])
    def test_bad_epoch_rejected(self, tmp_path, edit_checkpoint_meta, epoch):
        _, _, path = self.roundtrip(tmp_path)
        edit_checkpoint_meta(path, lambda m: {**m, "epoch": epoch})
        with pytest.raises(CorruptionError, match="epoch"):
            load_checkpoint(path)

    @pytest.mark.parametrize("state", [
        {"bit_generator": "PCG64", "state": 5},
        {"bit_generator": "MT19937", "state": {}},
        {"bit_generator": "PCG64", "state": {"state": -1, "inc": 1},
         "has_uint32": 0, "uinteger": 0},
        {"bit_generator": "PCG64", "state": {"state": 1, "inc": 1}, "has_uint32": 0},
        "PCG64",
    ], ids=["int_state", "other_generator", "negative_state", "missing_field", "string"])
    def test_bad_rng_state_rejected(self, tmp_path, edit_checkpoint_meta, state):
        _, _, path = self.roundtrip(tmp_path)
        edit_checkpoint_meta(path, lambda m: {**m, "rng_state": state})
        with pytest.raises(CorruptionError, match="rng_state"):
            load_checkpoint(path)

    def test_absent_rng_state_loads(self, tmp_path, edit_checkpoint_meta):
        _, _, path = self.roundtrip(tmp_path)
        edit_checkpoint_meta(path, lambda m: {**m, "rng_state": None})
        assert load_checkpoint(path).rng_state is None

    def test_failed_write_keeps_old_file(self, tmp_path):
        orig, _, path = self.roundtrip(tmp_path)
        before = path.read_bytes()
        bad = Checkpoint(model_config=orig.model_config,
                         params={**orig.params, "broken": None}, adam=orig.adam)
        with pytest.raises(AttributeError):  # fails after the first tensors are written
            save_checkpoint(path, bad)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


class TestTrainingLoop:
    def test_same_seed_bit_identical(self, tmp_path):
        manifest = make_dataset(tmp_path)
        mc = small_model()
        tc = TrainConfig(epochs=3, seed=11)
        ck1, log1 = run_train(manifest, mc, tc)
        ck2, log2 = run_train(manifest, mc, tc)
        assert log1 == log2
        for k in ck1.params:
            np.testing.assert_array_equal(ck1.params[k], ck2.params[k])
        assert ck1.rng_state == ck2.rng_state

    def test_different_seed_differs(self, tmp_path):
        manifest = make_dataset(tmp_path)
        mc = small_model()
        ck1, _ = run_train(manifest, mc, TrainConfig(epochs=2, seed=1))
        ck2, _ = run_train(manifest, mc, TrainConfig(epochs=2, seed=2))
        assert any(not np.array_equal(ck1.params[k], ck2.params[k]) for k in ck1.params)

    def test_resume_is_bit_identical_to_straight_run(self, tmp_path):
        manifest = make_dataset(tmp_path)
        mc = small_model()
        full, full_log = run_train(manifest, mc, TrainConfig(epochs=4, seed=7))
        half, half_log = run_train(manifest, mc, TrainConfig(epochs=2, seed=7))
        path = tmp_path / "half.vtck"
        save_checkpoint(path, half)
        resumed, resume_log = run_train(manifest, mc, TrainConfig(epochs=4, seed=7),
                                        resume=load_checkpoint(path))
        assert half_log + resume_log == full_log
        for k in full.params:
            np.testing.assert_array_equal(resumed.params[k], full.params[k])

    def test_resume_config_mismatch(self, tmp_path):
        manifest = make_dataset(tmp_path)
        ck, _ = run_train(manifest, small_model(), TrainConfig(epochs=1, seed=0))
        with pytest.raises(ConfigError):
            run_train(manifest, small_model(hidden_dim=16), TrainConfig(epochs=1, seed=0),
                      resume=ck)

    def test_log_line_format(self, tmp_path):
        manifest = make_dataset(tmp_path)
        _, log = run_train(manifest, small_model(), TrainConfig(epochs=2, seed=0))
        assert len(log) == 2
        assert log[0].startswith("epoch=1 loss=")
        assert "acc_stage0=" in log[0] and "acc_final=" in log[0]

    def test_no_train_entries(self, tmp_path):
        manifest = make_dataset(tmp_path, n_train=0, n_test=2)
        with pytest.raises(DataError):
            run_train(manifest, small_model(), TrainConfig(epochs=1))

    def test_feature_dim_mismatch(self, tmp_path):
        manifest = make_dataset(tmp_path)
        with pytest.raises(DataError):
            run_train(manifest, small_model(input_dim=99), TrainConfig(epochs=1))


class TestEvaluate:
    def trained(self, tmp_path):
        manifest = make_dataset(tmp_path)
        ck, _ = run_train(manifest, small_model(), TrainConfig(epochs=2, seed=0))
        return ck, manifest

    def test_reports_both_stages(self, tmp_path):
        ck, manifest = self.trained(tmp_path)
        res = evaluate(ck, manifest, "train")
        assert len(res.reports) == 3 and len(res.stage0_reports) == 3
        assert [r.video_id for r in res.reports] == sorted(r.video_id for r in res.reports)
        assert 0.0 <= res.aggregate.mean["accuracy"] <= 100.0

    def test_empty_split_errors(self, tmp_path):
        manifest = make_dataset(tmp_path, n_train=2, n_test=0)
        ck, _ = run_train(manifest, small_model(), TrainConfig(epochs=1, seed=0))
        with pytest.raises(DataError, match="test"):
            evaluate(ck, manifest, "test")
