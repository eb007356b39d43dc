import os
import re
import time
import weakref
from dataclasses import asdict

import numpy as np
import pytest

import vitals.train
from vitals import metrics as M
from vitals.cli import main as cli_main
from vitals.data import (DOWNSAMPLE_LIMIT, FeatureSequence, ManifestEntry, SyntheticSpec,
                         class_weights, downsample_indices, generate_synthetic_video,
                         load_features, save_features, write_annotations, write_manifest)
from vitals.errors import (ConfigError, CorruptionError, CoverageError, DataError, FormatError,
                           ParameterError, ShapeError, TrainingError)
from vitals.model import ModelConfig, init_params, model_forward, total_loss
from vitals.tensor import Tape, Tensor, backward
from vitals.train import (CONFIG_KEYS, AdamState, Checkpoint, TrainConfig, adam_step, evaluate,
                          infer, load_checkpoint, load_manifest, load_videos,
                          model_config_from_train, parse_config, save_checkpoint)
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


def ref_adam_step(params, state, learning_rate, weight_decay=0.0):
    """Reference Adam: the per-parameter loop, one parameter at a time."""
    state.t += 1
    bc1 = 1.0 - 0.9 ** state.t
    bc2 = 1.0 - 0.999 ** state.t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient in parameter {name!r}")
        if weight_decay:
            g = g + weight_decay * p.data
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m += (1.0 - 0.9) * (g - m)
        v += (1.0 - 0.999) * (g * g - v)
        p.data -= learning_rate * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)


def assert_same_adam(params, state, ref_params, ref_state):
    assert state.t == ref_state.t
    for k in ref_params:
        np.testing.assert_array_equal(params[k].data, ref_params[k].data, strict=True)
        np.testing.assert_array_equal(state.m[k], ref_state.m[k], strict=True)
        np.testing.assert_array_equal(state.v[k], ref_state.v[k], strict=True)


def set_grads(rng, skip, *param_dicts):
    """The same random gradient on every dict's parameter of each name; the
    parameters named in `skip` get None."""
    for name, p in param_dicts[0].items():
        g = None if name in skip else rng.standard_normal(p.data.shape).astype(p.data.dtype)
        for params in param_dicts:
            params[name].grad = None if g is None else g.copy()


class TestAdam:
    SHAPES = {"conv": (3, 4, 4), "bias": (4,), "proj": (5, 2), "head": (7,)}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("wd", [0.0, 1e-2])
    def test_flat_update_matches_per_parameter_loop(self, dtype, wd):
        rng = np.random.default_rng(4)
        init = {k: rng.standard_normal(s).astype(dtype) for k, s in self.SHAPES.items()}
        params = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        ref = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        state, ref_state = AdamState(), AdamState()
        for step in range(20):
            # some gradients are None: the bias on odd steps, the head at first
            skip = ({"bias"} if step % 2 else set()) | ({"head"} if step < 3 else set())
            set_grads(rng, skip, params, ref)
            if step == 10:  # a parameter rebound by its owner is bound again
                params["proj"].data = params["proj"].data.copy()
            adam_step(params, state, 1e-2, weight_decay=wd)
            ref_adam_step(ref, ref_state, 1e-2, weight_decay=wd)
            assert_same_adam(params, state, ref, ref_state)
        flat = state.flat[0]
        assert all(np.shares_memory(p.data, flat) for p in params.values())

    def test_flat_update_matches_after_resume(self, tmp_path):
        config = small_model()
        params = init_params(config, 3)
        rng = np.random.default_rng(7)
        state = AdamState()
        for _ in range(3):
            set_grads(rng, set(), params)
            adam_step(params, state, 5e-4, weight_decay=1e-5)
        path = tmp_path / "mid.vtck"
        save_checkpoint(path, Checkpoint(model_config=config, adam=state,
                                         params={k: p.data for k, p in params.items()}))
        a, b = load_checkpoint(path), load_checkpoint(path)
        params = {k: Tensor(x.copy(), requires_grad=True) for k, x in a.params.items()}
        ref = {k: Tensor(x.copy(), requires_grad=True) for k, x in b.params.items()}
        for _ in range(5):
            set_grads(rng, set(), params, ref)
            adam_step(params, a.adam, 5e-4, weight_decay=1e-5)
            ref_adam_step(ref, b.adam, 5e-4, weight_decay=1e-5)
            assert_same_adam(params, a.adam, ref, b.adam)

    @pytest.mark.parametrize("stepped", [False, True], ids=["fresh", "stepped"])
    def test_nonfinite_gradient_changes_nothing(self, stepped):
        params = {"a": Tensor(np.ones(3), requires_grad=True),
                  "b": Tensor(np.ones((2, 2)), requires_grad=True)}
        state = AdamState()
        if stepped:
            params["a"].grad, params["b"].grad = np.ones(3), np.ones((2, 2))
            adam_step(params, state, 0.1)
        data = {k: p.data.copy() for k, p in params.items()}
        m = {k: a.copy() for k, a in state.m.items()}
        v = {k: a.copy() for k, a in state.v.items()}
        t = state.t
        params["a"].grad = np.full(3, 2.0)
        params["b"].grad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(TrainingError, match="'b'"):
            adam_step(params, state, 0.1)
        assert state.t == t and state.m.keys() == m.keys() and state.v.keys() == v.keys()
        for k, p in params.items():
            np.testing.assert_array_equal(p.data, data[k])
        for k in m:
            np.testing.assert_array_equal(state.m[k], m[k])
            np.testing.assert_array_equal(state.v[k], v[k])

    @pytest.mark.parametrize("stepped", [False, True], ids=["fresh", "stepped"])
    @pytest.mark.parametrize("bad_grad", [lambda g: g.T.copy(), lambda g: g[:-1]],
                             ids=["transposed", "wrong_size"])
    def test_misshaped_gradient_changes_nothing(self, tmp_path, stepped, bad_grad):
        config = small_model()
        params = init_params(config, 0)
        state = AdamState()
        rng = np.random.default_rng(1)
        if stepped:
            set_grads(rng, set(), params)
            adam_step(params, state, 0.1)
        set_grads(rng, set(), params)
        w = params["fusion.weight"]  # (L*h, K) = (16, 3)
        w.grad = bad_grad(w.grad)
        data = {k: (p.data, p.data.copy()) for k, p in params.items()}
        moments = {(which, k): (a, a.copy()) for which, d in (("m", state.m), ("v", state.v))
                   for k, a in d.items()}
        t = state.t
        with pytest.raises(ShapeError, match=rf"'fusion.weight'.*{re.escape(str(w.grad.shape))}"
                                             r".*\(16, 3\)"):
            adam_step(params, state, 0.1)
        assert state.t == t
        for k, p in params.items():
            assert p.data is data[k][0]
            np.testing.assert_array_equal(p.data, data[k][1])
        assert moments.keys() == {("m", k) for k in state.m} | {("v", k) for k in state.v}
        for (which, k), (a, copy) in moments.items():
            assert getattr(state, which)[k] is a
            np.testing.assert_array_equal(a, copy)
        save_checkpoint(tmp_path / "c.vtck", Checkpoint(
            config, {k: p.data for k, p in params.items()}, adam=state))

    def test_mixed_dtypes_rejected(self):
        params = {"a": Tensor(np.ones(2, np.float32), requires_grad=True),
                  "b": Tensor(np.ones(2, np.float64), requires_grad=True)}
        with pytest.raises(ParameterError, match="one dtype"):
            adam_step(params, AdamState(), 0.1)

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

    @pytest.mark.parametrize("limit", [0, -3, 2.5])
    def test_downsample_limit_must_be_a_positive_integer(self, limit):
        with pytest.raises(ParameterError, match="downsample"):
            TrainConfig(downsample_limit=limit)
        with pytest.raises(ParameterError, match="downsample"):
            downsample_indices(20, limit)

    @pytest.mark.parametrize("field,value", [("epochs", 2.5), ("seed", 2.5), ("epochs", True),
                                             ("seed", True)])
    def test_epochs_and_seed_must_be_integers(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be an integer"):
            TrainConfig(**{field: value})

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="seed"):
            TrainConfig(seed=-1)
        p = tmp_path / "c.conf"
        p.write_text("phases = 3\nseed = -1\n")
        with pytest.raises(ParameterError, match="seed"):
            parse_config(p)

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

    @pytest.mark.parametrize("edit", [
        lambda names: ["x"],
        lambda names: names[:-1],
        lambda names: names[1:] + names[:1],
        lambda names: None,
        lambda names: dict.fromkeys(names, 1),
        lambda names: list(range(len(names))),
    ], ids=["other_name", "one_missing", "reordered", "null", "dict", "list_of_ints"])
    def test_param_names_must_match_the_config(self, tmp_path, edit_checkpoint_meta, edit):
        _, _, path = self.roundtrip(tmp_path)
        edit_checkpoint_meta(path, lambda m: {**m, "param_names": edit(m["param_names"])})
        with pytest.raises(CorruptionError, match="param_names"):
            load_checkpoint(path)

    def test_layout_larger_than_the_file_fails_fast(self, tmp_path, edit_checkpoint_meta):
        # records are built only once the bytes left could hold the layout
        _, _, path = self.roundtrip(tmp_path, with_adam=False)
        edit_checkpoint_meta(path, lambda m: {**m, "model_config": {**m["model_config"],
                                                                    "num_layers": 100000}})
        start = time.perf_counter()
        with pytest.raises(CorruptionError, match="1200006 tensor records"):
            load_checkpoint(path)
        assert time.perf_counter() - start < 0.5

    def test_model_config_above_size_limit(self, tmp_path, edit_checkpoint_meta):
        _, _, path = self.roundtrip(tmp_path)
        edit_checkpoint_meta(path, lambda m: {**m, "model_config": {**m["model_config"],
                                                                    "hidden_dim": 100000}})
        with pytest.raises(ConfigError, match="bad model_config: .*above the limit"):
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
        assert "decoder_query" not in asdict(back.model_config)
        for k in orig.params:
            np.testing.assert_array_equal(back.params[k], orig.params[k])

    def test_logits_query_is_rejected(self, tmp_path, edit_checkpoint_meta):
        _, _, path = self.roundtrip(tmp_path)
        edit_checkpoint_meta(path, lambda m: {
            **m, "model_config": {**m["model_config"], "decoder_query": "logits"}})
        with pytest.raises(ConfigError, match="decoder_query"):
            load_checkpoint(path)

    @staticmethod
    def at(records, name):
        """The index of the record called `name`."""
        return [n for n, _ in records].index(name)

    def rewritten(self, tmp_path, rewrite_checkpoint_records, edit):
        """The round-trip checkpoint file after edit(records) changed its records."""
        _, _, path = self.roundtrip(tmp_path)
        rewrite_checkpoint_records(path, edit)
        return path

    def test_missing_moment_rejected(self, tmp_path, rewrite_checkpoint_records):
        path = self.rewritten(tmp_path, rewrite_checkpoint_records,
                              lambda r: r.pop(self.at(r, "adam.v:fusion.bias")))
        with pytest.raises(CorruptionError, match=r"expected tensor 'adam\.v:fusion\.bias'"):
            load_checkpoint(path)

    def test_moments_without_optimizer_steps_rejected(self, tmp_path, edit_checkpoint_meta):
        # the moments of a state that never stepped, or of no state at all
        for adam_t in (0, None):
            _, _, path = self.roundtrip(tmp_path)
            edit_checkpoint_meta(path, lambda m: {**m, "adam_t": adam_t})
            with pytest.raises(CorruptionError, match=r"trailing bytes after tensor "
                               rf"'decoder1\.classifier\.bias'.*adam_t={adam_t}"):
                load_checkpoint(path)

    def test_state_before_any_step_loads(self, tmp_path):
        orig, _, path = self.roundtrip(tmp_path)
        orig.adam = AdamState()
        save_checkpoint(path, orig)
        back = load_checkpoint(path)
        assert back.adam.t == 0 and back.adam.m == {} and back.adam.v == {}

    @pytest.mark.parametrize("name", ["bogus", "adam.m:bogus"])
    def test_unknown_tensor_rejected(self, tmp_path, rewrite_checkpoint_records, name):
        # inserted after fusion.bias, or after its first moment
        after = name.replace("bogus", "fusion.bias")
        displaced = []

        def edit(records):
            i = self.at(records, after) + 1
            displaced.append(records[i][0])
            records.insert(i, (name, np.zeros(3, np.float32)))
        path = self.rewritten(tmp_path, rewrite_checkpoint_records, edit)
        with pytest.raises(CorruptionError, match=f"expected tensor '{displaced[0]}'") as err:
            load_checkpoint(path)
        assert f"{name}\\x" in str(err.value)  # the bytes read name the record found there

    @pytest.mark.parametrize("name", ["encoder.block1.attn.wq", "adam.m:fusion.weight"])
    def test_shape_mismatch_rejected(self, tmp_path, rewrite_checkpoint_records, name):
        def edit(records):
            i = self.at(records, name)
            records[i] = (name, records[i][1][:-1])
        path = self.rewritten(tmp_path, rewrite_checkpoint_records, edit)
        with pytest.raises(CorruptionError, match=f"expected tensor '{name}' of shape"):
            load_checkpoint(path)

    def test_records_out_of_order_rejected(self, tmp_path, rewrite_checkpoint_records):
        # same shape, so only the record names tell them apart
        def edit(records):
            i, j = self.at(records, "encoder.block1.attn.wq"), self.at(records, "encoder.block1.attn.wk")
            records[i], records[j] = records[j], records[i]
        path = self.rewritten(tmp_path, rewrite_checkpoint_records, edit)
        with pytest.raises(CorruptionError, match="expected tensor 'encoder.block1.attn.wq'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field,value", [
        ("input_dim", -1), ("input_dim", 4.5), ("input_dim", 2**64), ("hidden_dim", 2.5),
    ])
    def test_bad_model_size_rejected(self, tmp_path, edit_checkpoint_meta, field, value):
        _, _, path = self.roundtrip(tmp_path)
        edit_checkpoint_meta(path, lambda m: {**m, "model_config": {**m["model_config"],
                                                                    field: value}})
        with pytest.raises(ConfigError, match=f"bad model_config: {field}"):
            load_checkpoint(path)

    def test_file_shrinking_after_size_check(self, tmp_path, monkeypatch):
        _, _, path = self.roundtrip(tmp_path)
        full = path.stat()
        path.write_bytes(path.read_bytes()[:-8])
        monkeypatch.setattr(os, "fstat", lambda fd: full)
        with pytest.raises(CorruptionError, match=r"tensor 'adam\.v:decoder1\.classifier\.bias' "
                           "truncated") as err:
            load_checkpoint(path)
        assert err.value.offset == full.st_size - 8

    def test_trailing_bytes_rejected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + bytes(4))
        with pytest.raises(CorruptionError, match="4 trailing bytes") as err:
            load_checkpoint(path)
        assert err.value.offset == size

    @pytest.mark.parametrize("edit", [
        lambda ck: ck.adam.v.pop("fusion.bias"),
        lambda ck: setattr(ck.adam, "t", 0),
        lambda ck: ck.params.update(bogus=np.zeros(3, np.float32)),
        lambda ck: ck.adam.m.update(bogus=np.zeros(3, np.float32)),
        lambda ck: ck.params.update({"encoder.block1.attn.wq": np.zeros((8, 7), np.float32)}),
        lambda ck: ck.adam.m.update({"fusion.weight": np.zeros((15, 3), np.float32)}),
        lambda ck: ck.params.update({"fusion.bias": None}),
    ], ids=["missing_moment", "moments_without_steps", "unknown_param", "unknown_moment",
            "param_shape", "moment_shape", "none"])
    def test_save_rejects_tensors_off_the_layout(self, tmp_path, edit):
        orig, _, path = self.roundtrip(tmp_path)
        before = path.read_bytes()
        edit(orig)
        with pytest.raises(ParameterError, match="checkpoint tensors"):
            save_checkpoint(path, orig)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

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

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        orig, _, path = self.roundtrip(tmp_path)
        before = path.read_bytes()
        written = []

        def failing_fsync(fd):  # every record is in the temp file by now
            written.append(os.fstat(fd).st_size)
            raise OSError("disk gone")
        monkeypatch.setattr(os, "fsync", failing_fsync)
        orig.epoch += 1
        with pytest.raises(OSError, match="disk gone"):
            save_checkpoint(path, orig)
        assert written == [len(before)]
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

    def test_resume_leaves_its_checkpoint_unchanged(self, tmp_path):
        manifest = make_dataset(tmp_path)
        mc = small_model()
        ck, _ = run_train(manifest, mc, TrainConfig(epochs=2, seed=7))

        def snapshot():
            arrays = (*ck.params.values(), *ck.adam.m.values(), *ck.adam.v.values())
            return ck.adam.t, ck.rng_state, [a.tobytes() for a in arrays]

        before = snapshot()
        first, first_log = run_train(manifest, mc, TrainConfig(epochs=4, seed=7), resume=ck)
        assert snapshot() == before
        second, second_log = run_train(manifest, mc, TrainConfig(epochs=4, seed=7), resume=ck)
        assert second_log == first_log
        save_checkpoint(tmp_path / "first.vtck", first)
        save_checkpoint(tmp_path / "second.vtck", second)
        assert (tmp_path / "first.vtck").read_bytes() == (tmp_path / "second.vtck").read_bytes()

    def test_fresh_run_is_a_resume_from_epoch_zero(self, tmp_path):
        manifest = make_dataset(tmp_path)
        mc, tc = small_model(), TrainConfig(epochs=3, seed=5)
        rng = np.random.default_rng(tc.seed)
        params = {k: p.data for k, p in init_params(mc, rng).items()}
        epoch0 = Checkpoint(mc, params, rng_state=rng.bit_generator.state)
        fresh, fresh_log = run_train(manifest, mc, tc)
        resumed, resumed_log = run_train(manifest, mc, tc, resume=epoch0)
        assert resumed_log == fresh_log
        save_checkpoint(tmp_path / "fresh.vtck", fresh)
        save_checkpoint(tmp_path / "resumed.vtck", resumed)
        assert (tmp_path / "fresh.vtck").read_bytes() == (tmp_path / "resumed.vtck").read_bytes()

    def test_resume_config_mismatch(self, tmp_path):
        manifest = make_dataset(tmp_path)
        ck, _ = run_train(manifest, small_model(), TrainConfig(epochs=1, seed=0))
        with pytest.raises(ConfigError):
            run_train(manifest, small_model(hidden_dim=16), TrainConfig(epochs=1, seed=0),
                      resume=ck)

    def test_resume_past_target_epoch(self, tmp_path):
        # resumed with epochs=1, an epoch-2 checkpoint would come back as epoch 1
        # holding two epochs of Adam steps, and resuming that would train
        # epoch 2 a second time
        manifest = make_dataset(tmp_path)
        ck, _ = run_train(manifest, small_model(), TrainConfig(epochs=2, seed=0))
        with pytest.raises(ConfigError, match="epoch 2.* 1 epochs"):
            run_train(manifest, small_model(), TrainConfig(epochs=1, seed=0), resume=ck)
        same, log = run_train(manifest, small_model(), TrainConfig(epochs=2, seed=0), resume=ck)
        assert log == [] and same.epoch == 2 and same.adam.t == ck.adam.t

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


class TestReadsPerStep:
    """train() reads every header and annotation before the first step, and
    each video's features for its own step only."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The feature files read through `load_features` and the number of
        `model_forward` calls, as train() makes them."""
        seen = {"reads": [], "forwards": 0}

        def reading(path):
            seen["reads"].append(os.path.basename(path))
            return load_features(path)

        def forward(*args, **kwargs):
            seen["forwards"] += 1
            return model_forward(*args, **kwargs)

        monkeypatch.setattr(vitals.train, "load_features", reading)
        monkeypatch.setattr(vitals.train, "model_forward", forward)
        return seen

    @staticmethod
    def break_magic(path):
        path.with_suffix(".vtaf").write_bytes(b"XXXX" + path.with_suffix(".vtaf").read_bytes()[4:])

    @staticmethod
    def widen(path):
        seq = load_features(path.with_suffix(".vtaf"))
        save_features(path.with_suffix(".vtaf"), FeatureSequence(seq.video_id,
                                                                 np.hstack([seq.data, seq.data])))

    @staticmethod
    def open_gap(path):
        ann = path.with_suffix(".txt")
        line = next(line for line in ann.read_text().splitlines()
                    if int(line.split(",")[2]) > int(line.split(",")[1]))
        phase, start, end = line.split(",")
        ann.write_text(ann.read_text().replace(f"{line}\n", f"{phase},{start},{int(end) - 1}\n"))

    @pytest.mark.parametrize("fault,error,match", [
        (break_magic, FormatError, "video002.vtaf: bad magic"),
        (widen, DataError, "video video002: feature dim 16 != model input_dim 8, "
                           "the feature dim of video video000"),
        (open_gap, CoverageError, "video002.txt: gap at frames"),
    ], ids=["bad_magic", "dim_mismatch", "annotation_gap"])
    def test_fault_in_last_video_raises_before_any_step(self, tmp_path, calls, fault, error,
                                                        match):
        manifest = make_dataset(tmp_path)  # video002 is the last of three train videos
        fault(tmp_path / "video002")
        with pytest.raises(error, match=match):
            run_train(manifest, small_model(), TrainConfig(epochs=1))
        assert calls == {"reads": [], "forwards": 0}

    def test_each_step_reads_its_video(self, tmp_path, calls):
        manifest = make_dataset(tmp_path)
        run_train(manifest, small_model(), TrainConfig(epochs=3))
        # twice per step: for the forward, and for the input projection's gradient
        assert sorted(calls["reads"]) == sorted(6 * ["video000.vtaf", "video001.vtaf",
                                                     "video002.vtaf"])
        assert calls["forwards"] == 9

    @pytest.mark.parametrize("limit", [DOWNSAMPLE_LIMIT, 4], ids=["whole", "downsampled"])
    @pytest.mark.parametrize("change", ["frames", "dim"])
    def test_feature_file_changed_mid_run(self, tmp_path, monkeypatch, limit, change):
        manifest = make_dataset(tmp_path)
        path = tmp_path / "video000.vtaf"
        seq = load_features(path)
        assert seq.n > limit or limit == DOWNSAMPLE_LIMIT
        data = (np.vstack([seq.data, seq.data[:1]]) if change == "frames"
                else np.hstack([seq.data, seq.data]))
        steps = []

        def step_then_rewrite(*args, **kwargs):
            adam_step(*args, **kwargs)
            if not steps:  # every video is read again in epoch 2
                save_features(path, FeatureSequence(seq.video_id, data))
            steps.append(1)

        monkeypatch.setattr(vitals.train, "adam_step", step_then_rewrite)
        with pytest.raises(DataError, match=re.escape(
                f"{path}: feature file changed since the run started: it is "
                f"{data.shape[0]} x {data.shape[1]} now, {seq.n} x {seq.d} before")):
            run_train(manifest, small_model(), TrainConfig(epochs=2, downsample_limit=limit))

    def test_holds_one_video_at_a_time(self, tmp_path, traced_peak):
        # four videos of 1000 frames x 1024 values (4.1 MB each); reading every
        # video before the first step peaked at 4.27 payloads
        n, d = 1000, 1024
        entries = []
        for i in range(4):
            fpath, apath = tmp_path / f"v{i}.vtaf", tmp_path / f"v{i}.txt"
            save_features(fpath, FeatureSequence(f"v{i}", np.random.default_rng(i)
                                                 .standard_normal((n, d), dtype=np.float32)))
            write_annotations(apath, np.arange(n) * 3 // n)
            entries.append(ManifestEntry("train", fpath, apath))
        config = small_model(input_dim=d, hidden_dim=8, num_layers=2, num_decoders=1)
        (_, log), peak = traced_peak(lambda: run_train(entries, config,
                                                       TrainConfig(epochs=2, seed=0)))
        assert len(log) == 2
        assert peak < 2 * n * d * 4


def write_videos(tmp_path, lengths, d):
    """Train entries of standard-normal n x d videos with three phases."""
    entries = []
    for i, n in enumerate(lengths):
        fpath, apath = tmp_path / f"v{i}.vtaf", tmp_path / f"v{i}.txt"
        save_features(fpath, FeatureSequence(f"v{i}", np.random.default_rng(i)
                                             .standard_normal((n, d), dtype=np.float32)))
        write_annotations(apath, np.arange(n) * 3 // n)
        entries.append(ManifestEntry("train", fpath, apath))
    return entries


class TestStepHoldsNoFeatures:
    """A training step reads its features for the forward and again for the
    input projection's gradient, and holds them across neither."""

    def test_bits_match_a_loop_that_holds_the_features(self, tmp_path):
        # L = 3 blocks with dropout; n*h is not a multiple of 8 for any video;
        # v2 is above the downsample limit, so it is read through read_feature_rows
        entries = write_videos(tmp_path, (61, 90, 203), 12)
        config = small_model(input_dim=12, hidden_dim=5, num_layers=3, num_decoders=2)
        train_config = TrainConfig(epochs=2, seed=4, downsample_limit=100)
        ck, _ = run_train(entries, config, train_config)

        videos = load_videos(entries, "train", config.num_phases, train_config.downsample_limit)
        assert [len(v.features) for v in videos] == [61, 90, 100]
        rng = np.random.default_rng(train_config.seed)
        params = init_params(config, rng)
        adam = AdamState()
        for _ in range(train_config.epochs):
            for vi in rng.permutation(len(videos)):
                v = videos[vi]
                for p in params.values():
                    p.zero_grad()
                with Tape() as tape:
                    preds = model_forward(Tensor(v.features), params, config, training=True,
                                          rng=rng)
                    loss = total_loss(preds, v.labels, config,
                                      class_weights(v.labels, config.num_phases))
                backward(tape, loss)
                adam_step(params, adam, train_config.learning_rate, train_config.weight_decay)
        ref = Checkpoint(config, {k: p.data.copy() for k, p in params.items()}, adam,
                         rng.bit_generator.state, train_config.epochs)
        save_checkpoint(tmp_path / "train.vtck", ck)
        save_checkpoint(tmp_path / "ref.vtck", ref)
        assert (tmp_path / "train.vtck").read_bytes() == (tmp_path / "ref.vtck").read_bytes()

    @pytest.mark.parametrize("limit", [DOWNSAMPLE_LIMIT, 30], ids=["whole", "downsampled"])
    def test_file_rewritten_within_a_step(self, tmp_path, monkeypatch, limit):
        entries = write_videos(tmp_path, (50,), 8)
        path = entries[0].feature_path
        original = load_features(path)
        other = FeatureSequence("v0", -original.data)  # same shape, other values

        def write_original():
            # dated well before the run, as a corpus is: a rewrite within the file
            # system's timestamp granularity of the first write keeps its mtime
            save_features(path, original)
            stat = os.stat(path)
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns - 10**9))

        write_original()
        real_total_loss = vitals.train.total_loss

        def rewrite_then_loss(*args, **kwargs):  # after the forward's read, before backward's
            save_features(path, other)
            return real_total_loss(*args, **kwargs)

        monkeypatch.setattr(vitals.train, "total_loss", rewrite_then_loss)
        with pytest.raises(DataError, match=re.escape(
                f"{path}: feature file changed during a training step")):
            run_train(entries, small_model(), TrainConfig(epochs=1, downsample_limit=limit))

        if limit == DOWNSAMPLE_LIMIT:  # the CLI's limit
            write_original()
            write_manifest(tmp_path / "manifest.tsv", entries)
            config = tmp_path / "t.conf"
            config.write_text("epochs = 1\nlayers = 2\ndecoders = 1\nhidden_dim = 8\n"
                              "phases = 3\n")
            ckpt = tmp_path / "c.vtck"
            assert cli_main(["train", "--manifest", str(tmp_path / "manifest.tsv"), "--config",
                             str(config), "--out-checkpoint", str(ckpt)]) == 1
            assert not ckpt.exists()

    def test_step_peak(self, tmp_path, traced_peak):
        # one step over a 1000 x 1024 video (4.1 MB); holding the features
        # across the step peaked at 1.54 payloads, reading them again at 1.11
        n, d = 1000, 1024
        entries = write_videos(tmp_path, (n,), d)
        config = small_model(input_dim=d, hidden_dim=16, num_layers=3, num_decoders=1)
        (_, log), peak = traced_peak(lambda: run_train(entries, config,
                                                       TrainConfig(epochs=1, seed=0)))
        assert len(log) == 1
        assert peak < 1.3 * n * d * 4


class TestEvaluate:
    def trained(self, tmp_path):
        manifest = make_dataset(tmp_path)
        ck, _ = run_train(manifest, small_model(), TrainConfig(epochs=2, seed=0))
        return ck, manifest

    def test_reports_both_stages(self, tmp_path):
        ck, manifest = self.trained(tmp_path)
        res = evaluate(ck, manifest, "train")
        assert [len(r) for r in res.reports] == [3, 3]
        assert [r.video_id for r in res.reports[-1]] == sorted(r.video_id for r in res.reports[-1])
        assert 0.0 <= res.aggregates[-1].mean["accuracy"] <= 100.0

    def test_every_stage_is_its_predictions_report(self, tmp_path):
        manifest = make_dataset(tmp_path)
        config = small_model(num_decoders=2)
        ck, _ = run_train(manifest, config, TrainConfig(epochs=2, seed=0))
        res = evaluate(ck, manifest, "train")
        videos = load_videos(load_manifest(manifest), "train", config.num_phases)
        preds = [infer(ck, lambda v=v: v.features, v.video_id) for v in videos]
        assert len(res.reports) == len(res.aggregates) == config.num_decoders + 1
        for s, (reports, aggregate) in enumerate(zip(res.reports, res.aggregates)):
            assert reports == [M.video_report(v.labels, p.argmax(s), config.num_phases, v.video_id)
                               for v, p in zip(videos, preds)]
            assert aggregate == M.aggregate(reports)

    def test_infer_drops_the_features_before_the_encoder(self, tmp_path, monkeypatch):
        ck, _ = self.trained(tmp_path)
        refs, alive = [], []

        def read():
            data = load_features(tmp_path / "video000.vtaf").data
            refs.append(weakref.ref(data))
            return data

        conv = vitals.tensor.dilated_conv1d

        def noting(*args):
            alive.append(refs[0]() is not None)
            return conv(*args)

        monkeypatch.setattr(vitals.tensor, "dilated_conv1d", noting)
        preds = infer(ck, read, "video000")
        assert len(refs) == 1 and alive and not alive[0]
        assert preds.num_stages == 2

    def test_infer_refuses_another_dim_before_any_compute(self, tmp_path, monkeypatch):
        ck, _ = self.trained(tmp_path)

        def refuse(*args):
            raise AssertionError("compute reached")

        monkeypatch.setattr(vitals.tensor, "dilated_conv1d", refuse)
        with pytest.raises(ConfigError, match="^wide: feature dim 9 != checkpoint input_dim 8$"):
            infer(ck, lambda: np.zeros((5, 9), np.float32), "wide")

    def test_empty_split_errors(self, tmp_path):
        manifest = make_dataset(tmp_path, n_train=2, n_test=0)
        ck, _ = run_train(manifest, small_model(), TrainConfig(epochs=1, seed=0))
        with pytest.raises(DataError, match="test"):
            evaluate(ck, manifest, "test")

    def test_reports_in_video_id_order_whatever_the_manifest_lists(self, tmp_path):
        ck, manifest = self.trained(tmp_path)
        lines = manifest.read_text().splitlines()
        reordered = tmp_path / "reordered.tsv"
        reordered.write_text("\n".join([lines[2], lines[0], lines[1]] + lines[3:]) + "\n")
        want = evaluate(ck, manifest, "train")
        got = evaluate(ck, reordered, "train")
        assert [r.video_id for r in got.reports[-1]] == ["video000", "video001", "video002"]
        assert got == want

    def test_bad_video_mid_split_is_data_error(self, tmp_path):
        manifest = make_dataset(tmp_path, n_train=2, n_test=3)
        ck, _ = run_train(manifest, small_model(), TrainConfig(epochs=1, seed=0))
        bad = tmp_path / "video003.txt"  # the middle of the test split
        lines = bad.read_text().splitlines()
        lines[0] = "7," + lines[0].split(",", 1)[1]  # no phase 7 in a 3-phase checkpoint
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="video003.txt: phase 7 out of range"):
            evaluate(ck, manifest, "test")

    def test_annotation_gap_is_coverage_error(self, tmp_path):
        manifest = make_dataset(tmp_path, n_train=2, n_test=3)
        ck, _ = run_train(manifest, small_model(), TrainConfig(epochs=1, seed=0))
        bad = tmp_path / "video003.txt"
        phase, start, end = bad.read_text().splitlines()[0].split(",")
        bad.write_text(bad.read_text().replace(f"{phase},{start},{end}\n",
                                               f"{phase},{start},{int(end) - 1}\n", 1))
        with pytest.raises(CoverageError, match=f"video003.txt: gap at frames {end}..{end}"):
            evaluate(ck, manifest, "test")

    def test_holds_one_video_at_a_time(self, tmp_path, traced_peak):
        # four videos of 285 frames x 256 values (0.28 MB each); loading the
        # whole split first peaked at 6.1 payloads
        spec = SyntheticSpec(durations=[(1.5, 0.0), (2.0, 0.0), (1.25, 0.0)], feature_dim=256)
        entries = []
        for i in range(4):
            feats, labels = generate_synthetic_video(spec, seed=i, video_id=f"v{i}")
            save_features(tmp_path / f"v{i}.vtaf", feats)
            write_annotations(tmp_path / f"v{i}.txt", labels.labels)
            entries.append(ManifestEntry("test", tmp_path / f"v{i}.vtaf", tmp_path / f"v{i}.txt"))
        payload = feats.data.nbytes
        del feats, labels
        config = small_model(input_dim=256)
        ck = Checkpoint(config, {k: p.data for k, p in init_params(config, 0).items()})
        result, peak = traced_peak(lambda: evaluate(ck, entries, "test"))
        assert len(result.reports[-1]) == 4
        assert peak < 2 * payload
