import numpy as np
import pytest

from vitals.errors import DataError, ParameterError, ShapeError
from vitals.model import (ModelConfig, StagePredictions, cross_entropy_loss,
                          decoder_stage_forward, encoder_forward, init_params,
                          model_forward, parameter_names, parameter_shapes, smoothing_loss,
                          total_loss, windowed_self_attention)
from vitals.tensor import Tensor


def small_config(**kw):
    base = dict(num_phases=4, input_dim=6, hidden_dim=8, num_layers=3,
                num_decoders=2, dropout_rate=0.0)
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_schedule_doubles_and_caps(self):
        c = small_config(num_layers=6)
        assert c.schedule(1000) == [2, 4, 8, 16, 32, 64]
        assert c.schedule(10) == [2, 4, 8, 10, 10, 10]
        assert c.schedule(1) == [1] * 6

    def test_roundtrip(self):
        c = small_config()
        assert ModelConfig.from_dict(c.to_dict()) == c

    def test_validation(self):
        with pytest.raises(ParameterError):
            small_config(num_layers=0)
        with pytest.raises(ParameterError):
            small_config(num_phases=1)

    @pytest.mark.parametrize("field,value", [
        ("dropout_rate", 1.0), ("dropout_rate", -0.1), ("dropout_rate", float("nan")),
        ("smooth_weight", -0.5), ("smooth_weight", float("nan")), ("smooth_weight", float("inf")),
        ("smooth_clamp", 0.0), ("smooth_clamp", -1.0), ("smooth_clamp", float("nan")),
    ])
    def test_loss_and_dropout_settings_validated(self, field, value):
        with pytest.raises(ParameterError, match=field):
            small_config(**{field: value})


class TestParams:
    def test_names_and_shapes_deterministic(self):
        c = small_config()
        names = parameter_names(c)
        assert names[0] == "input_proj.weight"
        assert "fusion.weight" in names and "decoder2.classifier.bias" in names
        a = init_params(c, seed=7)
        b = init_params(c, seed=7)
        assert list(a) == names
        for n in names:
            np.testing.assert_array_equal(a[n].data, b[n].data)
            assert a[n].data.dtype == np.float32

    def test_layout(self):
        c = small_config(num_phases=3, input_dim=5, hidden_dim=4, num_layers=2, num_decoders=1)
        block = [("conv.weight", (3, 4, 4)), ("conv.bias", (4,)), ("attn.wq", (4, 4)),
                 ("attn.wk", (4, 4)), ("attn.wv", (4, 4)), ("attn.wo", (4, 4))]
        expected = [("input_proj.weight", (5, 4))]
        expected += [(f"encoder.block{i}.{p}", s) for i in (1, 2) for p, s in block]
        expected += [("fusion.weight", (8, 3)), ("fusion.bias", (3,)),
                     ("decoder1.embed.weight", (3, 4))]
        expected += [(f"decoder1.block{i}.{p}", s) for i in (1, 2) for p, s in block]
        expected += [("decoder1.classifier.weight", (4, 3)), ("decoder1.classifier.bias", (3,))]
        assert list(parameter_shapes(c).items()) == expected
        assert parameter_names(c) == [name for name, _ in expected]

    def test_biases_zero_weights_bounded(self):
        c = small_config()
        for name, p in init_params(c, seed=1).items():
            if name.endswith("bias"):
                np.testing.assert_array_equal(p.data, 0.0)
            else:
                fan_in = p.data.shape[0] * p.data.shape[1] if p.data.ndim == 3 else p.data.shape[0]
                assert np.abs(p.data).max() <= np.sqrt(1.0 / fan_in)


class TestForward:
    def test_stage_shapes_and_prob_rows(self):
        c = small_config()
        rng = np.random.default_rng(0)
        E = Tensor(rng.standard_normal((25, c.input_dim)).astype(np.float32))
        preds = model_forward(E, init_params(c, 0), c)
        assert preds.num_stages == c.num_decoders + 1
        for logits, probs in zip(preds.logits, preds.probs):
            assert logits.data.shape == (25, c.num_phases)
            np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-5)
        assert preds.argmax(-1).shape == (25,)

    def test_no_decoders(self):
        c = small_config(num_decoders=0)
        E = Tensor(np.random.default_rng(1).standard_normal((9, c.input_dim)).astype(np.float32))
        preds = model_forward(E, init_params(c, 0), c)
        assert preds.num_stages == 1

    def test_wrong_input_dim(self):
        c = small_config()
        with pytest.raises(ShapeError):
            encoder_forward(Tensor(np.zeros((5, c.input_dim + 1), dtype=np.float32)),
                            init_params(c, 0), c)

    def test_single_frame_sequence(self):
        c = small_config()
        E = Tensor(np.random.default_rng(2).standard_normal((1, c.input_dim)).astype(np.float32))
        preds = model_forward(E, init_params(c, 0), c)
        assert preds.logits[-1].data.shape == (1, c.num_phases)
        assert np.isfinite(preds.logits[-1].data).all()

    def test_inference_is_deterministic_despite_dropout_config(self):
        c = small_config(dropout_rate=0.5)
        rng = np.random.default_rng(3)
        E = Tensor(rng.standard_normal((12, c.input_dim)).astype(np.float32))
        params = init_params(c, 0)
        a = model_forward(E, params, c, training=False).logits[-1].data
        b = model_forward(E, params, c, training=False).logits[-1].data
        np.testing.assert_array_equal(a, b)

    def test_decoder_uses_probabilities_not_raw_logits(self):
        # each refinement stage is fed the previous stage's softmax output
        c = small_config(num_layers=2)
        params = init_params(c, 0)
        E = Tensor(np.random.default_rng(4).standard_normal((10, c.input_dim)).astype(np.float32))
        preds = model_forward(E, params, c)
        for s in range(1, c.num_decoders + 1):
            refined = decoder_stage_forward(preds.probs[s - 1], params, s, c).data
            np.testing.assert_array_equal(preds.logits[s].data, refined)


def _dependency_cone_oracle(n, schedule):
    """Per-frame input dependency sets via interval/set propagation.

    Each block unions three conv taps at +-dilation, then unions every
    frame's set over its attention chunk (queries, keys and values all come
    from the conv output, and the residual re-adds the block input).
    """
    deps = [{t} for t in range(n)]
    for size in schedule:
        conv = []
        for t in range(n):
            s = set(deps[t])
            if t - size >= 0:
                s |= deps[t - size]
            if t + size < n:
                s |= deps[t + size]
            conv.append(s)
        nxt = []
        for t in range(n):
            chunk = (t // size) * size
            s = set(deps[t])  # residual path
            for u in range(chunk, min(chunk + size, n)):
                s |= conv[u]
            nxt.append(s)
        deps = nxt
    return deps


class TestReceptiveField:
    def test_encoder_cone_matches_perturbation(self):
        c = small_config(num_layers=3, hidden_dim=8)
        n = 24
        params = init_params(c, 5)
        rng = np.random.default_rng(6)
        base = rng.standard_normal((n, c.input_dim)).astype(np.float32)
        ref, _ = encoder_forward(Tensor(base), params, c)
        deps = _dependency_cone_oracle(n, c.schedule(n))

        for j in (0, 7, 13, n - 1):
            bumped = base.copy()
            bumped[j] += 1.0
            out, _ = encoder_forward(Tensor(bumped), params, c)
            changed = np.nonzero(np.any(out.data != ref.data, axis=1))[0]
            allowed = {t for t in range(n) if j in deps[t]}
            # locality: nothing outside the dependency cone may move
            assert set(changed.tolist()) <= allowed
            # non-vacuous: the perturbed frame itself must respond
            assert j in changed

    def test_cone_is_strictly_local_for_shallow_nets(self):
        # with 2 blocks on a long sequence the cone must not span everything
        deps = _dependency_cone_oracle(64, [2, 4])
        assert all(len(d) < 64 for d in deps)
        assert max(len(d) for d in deps) <= (2 * 2 + 1 + 2) * 4  # coarse cap


class TestLosses:
    def test_uniform_logits_ce_is_log_k(self):
        z = Tensor(np.zeros((5, 4), dtype=np.float64))
        loss = cross_entropy_loss(z, np.array([0, 1, 2, 3, 0]))
        np.testing.assert_allclose(float(loss.data), np.log(4.0), atol=1e-12)

    def test_perfect_prediction_near_zero(self):
        z = np.full((6, 3), -50.0)
        labels = np.array([0, 1, 2, 0, 1, 2])
        z[np.arange(6), labels] = 50.0
        loss = cross_entropy_loss(Tensor(z.astype(np.float64)), labels)
        assert float(loss.data) < 1e-6

    def test_class_weights_reweight_mean(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((8, 3))
        labels = rng.integers(0, 3, size=8)
        w = np.array([2.0, 0.5, 1.0])
        loss = cross_entropy_loss(Tensor(z), labels, w)
        # independent numpy oracle
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        nll = -np.log(p[np.arange(8), labels])
        expected = (w[labels] * nll).sum() / w[labels].sum()
        np.testing.assert_allclose(float(loss.data), expected, rtol=1e-6)

    def test_ce_rejects_bad_labels(self):
        z = Tensor(np.zeros((3, 2)))
        with pytest.raises(DataError, match="frame 1"):
            cross_entropy_loss(z, np.array([0, 5, 1]))
        with pytest.raises(ShapeError):
            cross_entropy_loss(z, np.array([0, 1]))

    def test_smoothing_zero_for_constant_logits(self):
        z = Tensor(np.tile(np.array([1.0, -2.0, 0.3]), (6, 1)))
        assert float(smoothing_loss(z).data) == 0.0

    def test_smoothing_matches_numpy_oracle(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((7, 4)) * 3
        val = float(smoothing_loss(Tensor(z), clamp=4.0).data)
        logp = z - z.max(axis=1, keepdims=True)
        logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
        delta = np.clip(logp[1:] - logp[:-1], -4.0, 4.0)
        np.testing.assert_allclose(val, (delta ** 2).sum() / (6 * 4), rtol=1e-6)

    def test_smoothing_clamp_caps_large_jumps(self):
        z = np.zeros((2, 2))
        z[1] = [40.0, -40.0]  # second coordinate's log-prob drops ~80 nats
        val = float(smoothing_loss(Tensor(z), clamp=4.0).data)
        # first coordinate rises by log 2 (under the clamp); second saturates
        np.testing.assert_allclose(val, (np.log(2.0) ** 2 + 4.0 ** 2) / 2, rtol=1e-4)

    def test_smoothing_short_sequence_is_zero(self):
        assert float(smoothing_loss(Tensor(np.zeros((1, 3)))).data) == 0.0

    def test_total_loss_sums_stage_terms(self):
        c = small_config(smooth_weight=0.15)
        rng = np.random.default_rng(9)
        labels = rng.integers(0, c.num_phases, size=10)
        preds = StagePredictions()
        expected = 0.0
        for _ in range(3):
            z = Tensor(rng.standard_normal((10, c.num_phases)))
            preds.logits.append(z)
            preds.probs.append(z)
            expected += float(cross_entropy_loss(z, labels).data)
            expected += 0.15 * float(smoothing_loss(z, c.smooth_clamp).data)
        got = float(total_loss(preds, labels, c).data)
        np.testing.assert_allclose(got, expected, rtol=1e-6)

    def test_total_loss_requires_stages(self):
        with pytest.raises(ParameterError):
            total_loss(StagePredictions(), np.array([0]), small_config())


def test_self_attention_zero_query_gives_chunk_means():
    rng = np.random.default_rng(10)
    h = 4
    f = Tensor(rng.standard_normal((8, h)).astype(np.float32))
    wq = Tensor(np.zeros((h, h), dtype=np.float32))
    wk = Tensor(rng.standard_normal((h, h)).astype(np.float32))
    wv = Tensor(np.eye(h, dtype=np.float32))
    wo = Tensor(np.eye(h, dtype=np.float32))
    out = windowed_self_attention(f, 4, wq, wk, wv, wo)
    for chunk in (0, 1):
        mean = f.data[4 * chunk: 4 * chunk + 4].mean(axis=0)
        for t in range(4 * chunk, 4 * chunk + 4):
            np.testing.assert_allclose(out.data[t], mean, atol=1e-5)
