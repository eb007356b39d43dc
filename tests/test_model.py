import math
from dataclasses import asdict

import numpy as np
import pytest

import vitals.model
import vitals.tensor
from vitals.errors import DataError, ParameterError, ShapeError
from vitals.model import (ModelConfig, StagePredictions, cross_entropy_loss,
                          decoder_stage_forward, encoder_forward, init_params,
                          model_forward, num_parameter_tensors,
                          num_parameter_values, parameter_shapes, smoothing_loss, total_loss)
from vitals.tensor import Tape, Tensor, backward, chunked_attention


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
        assert ModelConfig(**asdict(c)) == c

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

    @pytest.mark.parametrize("field,value", [
        ("input_dim", 0), ("input_dim", -4), ("input_dim", 4.5), ("input_dim", 2**64),
        ("hidden_dim", 2.5), ("hidden_dim", 2**32), ("num_phases", True),
        ("num_layers", "3"), ("num_decoders", -1),
    ])
    def test_sizes_must_be_u32_integers(self, field, value):
        with pytest.raises(ParameterError, match=field):
            small_config(**{field: value})


class TestParams:
    def test_names_and_shapes_deterministic(self):
        c = small_config()
        names = list(parameter_shapes(c))
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

    @pytest.mark.parametrize("layers,decoders", [(1, 0), (2, 1), (4, 2), (10, 3)])
    def test_tensor_count_without_the_layout(self, layers, decoders):
        c = small_config(num_layers=layers, num_decoders=decoders)
        assert num_parameter_tensors(c) == len(parameter_shapes(c))

    @pytest.mark.parametrize("kw", [
        dict(num_layers=1, num_decoders=0), dict(num_layers=1, num_decoders=2, hidden_dim=3),
        dict(num_layers=3, num_decoders=0, hidden_dim=1), dict(num_layers=2, num_decoders=1),
        dict(num_phases=11, input_dim=2048, hidden_dim=64, num_layers=10, num_decoders=3),
    ], ids=["L1_N0", "L1_N2", "L3_N0_h1", "L2_N1", "paper"])
    def test_value_count_without_the_layout(self, kw):
        c = small_config(**kw)
        assert num_parameter_values(c) == sum(math.prod(s) for s in parameter_shapes(c).values())

    def test_value_limit_is_inclusive(self, monkeypatch):
        c = small_config()
        monkeypatch.setattr(vitals.model, "MODEL_MAX_VALUES", num_parameter_values(c))
        assert small_config() == c
        monkeypatch.setattr(vitals.model, "MODEL_MAX_VALUES", num_parameter_values(c) - 1)
        with pytest.raises(ParameterError, match=f"give {num_parameter_values(c)} parameter values"):
            small_config()

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


class TestTrainingTape:
    """What a training step's tape holds when backward starts: not the n x d
    features, no second copy of the encoder block outputs, and no byte-wide
    dropout mask."""

    # d is none of h, K and L*h, and n*h = 222 is not a multiple of 8
    CONFIG = dict(num_phases=3, input_dim=13, hidden_dim=6, num_layers=3, num_decoders=1,
                  dropout_rate=0.3)
    N = 37

    @classmethod
    def step(cls, tmp_path, by_reader=True):
        """(tape, preds, params, reads) of one training forward and loss,
        the features given as a reader of a feature file or as a Tensor."""
        from vitals.data import FeatureSequence, load_features, save_features

        c = ModelConfig(**cls.CONFIG)
        rng = np.random.default_rng(0)
        path = tmp_path / "v.vtaf"
        save_features(path, FeatureSequence("v", rng.standard_normal((cls.N, c.input_dim))))
        reads = []

        def read():
            reads.append(1)
            return load_features(path).data

        params = init_params(c, 0)
        labels = rng.integers(0, c.num_phases, size=cls.N)
        with Tape() as tape:
            E = read if by_reader else Tensor(read())
            preds = model_forward(E, params, c, training=True, rng=np.random.default_rng(1))
            loss = total_loss(preds, labels, c)
        return tape, loss, params, reads

    @staticmethod
    def held(node):
        """The arrays a node's backward closure reaches: through tuples,
        lists, tensors and the closures of the functions it holds."""
        found, seen = [], set()

        def walk(obj):
            if id(obj) in seen:
                return
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                found.append(obj)
            elif isinstance(obj, Tensor):
                walk(obj.data)
            elif isinstance(obj, (list, tuple)):
                for item in obj:
                    walk(item)
            elif callable(obj):
                for cell in getattr(obj, "__closure__", None) or ():
                    try:
                        walk(cell.cell_contents)
                    except ValueError:  # empty cell
                        pass

        walk(node.backward_fn)
        return found

    def test_features_are_read_again_not_held(self, tmp_path):
        tape, loss, _, reads = self.step(tmp_path)
        d = self.CONFIG["input_dim"]
        assert len(reads) == 1  # the forward's read
        for node in tape.nodes:
            assert all(a.ndim < 2 or a.shape[-1] != d for a in self.held(node)), node.op
        backward(tape, loss)
        assert len(reads) == 2  # and the input projection's gradient

    def test_reader_gives_the_bits_a_tensor_gives(self, tmp_path):
        runs = []
        for by_reader in (True, False):
            tape, loss, params, _ = self.step(tmp_path, by_reader)
            backward(tape, loss)
            runs.append((loss.data.tobytes(), [p.grad.tobytes() for p in params.values()]))
        assert runs[0] == runs[1]

    def test_dropout_masks_are_bit_packed(self, tmp_path):
        tape, _, _, _ = self.step(tmp_path, by_reader=False)
        n, h = self.N, self.CONFIG["hidden_dim"]
        dropouts = [node for node in tape.nodes if node.op == "dropout"]
        c = self.CONFIG
        assert len(dropouts) == c["num_layers"] * (c["num_decoders"] + 1)
        for node in dropouts:
            assert sum(a.nbytes for a in self.held(node)) <= -(-n * h // 8)
        for node in tape.nodes:
            assert not any(a.dtype == bool and a.size == n * h for a in self.held(node)), node.op

    def test_block_outputs_live_in_the_fusion_input(self, tmp_path):
        tape, _, params, _ = self.step(tmp_path, by_reader=False)
        fusion = next(node for node in tape.nodes
                      if node.op == "matmul" and params["fusion.weight"] in node.inputs)
        fused = next(a for a in self.held(fusion)
                     if a.shape == (self.N, self.CONFIG["num_layers"] * self.CONFIG["hidden_dim"]))
        convs = [node for node in tape.nodes if node.op == "dilated_conv1d"]
        encoder_convs = convs[:self.CONFIG["num_layers"]]
        # block 1 reads the input projection; each later block reads the
        # previous block's output, which is a column slice of the fusion input
        for node in encoder_convs[1:]:
            x = next(a for a in self.held(node) if a.shape == (self.N, self.CONFIG["hidden_dim"]))
            assert np.shares_memory(x, fused)
        assert not np.shares_memory(
            next(a for a in self.held(encoder_convs[0]) if a.shape[0] == self.N), fused)

    def test_model_never_concatenates(self, tmp_path, monkeypatch):
        def refuse(tensors):
            raise AssertionError("concat_cols called")

        monkeypatch.setattr(vitals.tensor, "concat_cols", refuse)
        for by_reader in (True, False):
            tape, loss, _, _ = self.step(tmp_path, by_reader)
            backward(tape, loss)
        c = ModelConfig(**self.CONFIG)
        E = Tensor(np.ones((self.N, c.input_dim), dtype=np.float32))
        model_forward(E, init_params(c, 0), c)


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
        ref = encoder_forward(Tensor(base), params, c)
        deps = _dependency_cone_oracle(n, c.schedule(n))

        for j in (0, 7, 13, n - 1):
            bumped = base.copy()
            bumped[j] += 1.0
            out = encoder_forward(Tensor(bumped), params, c)
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ce_without_weights_is_bitwise_all_ones(self, dtype):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((9, 4)).astype(dtype)
        labels = rng.integers(0, 4, size=9)
        runs = []
        for weights in (None, np.ones(4)):
            logits = Tensor(z.copy(), requires_grad=True)
            with Tape() as tape:
                loss = cross_entropy_loss(logits, labels, weights)
            backward(tape, loss)
            runs.append((loss.data, logits.grad))
        for a, b in zip(*runs):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes()

    def test_ce_rejects_bad_labels(self):
        z = Tensor(np.zeros((3, 2)))
        with pytest.raises(DataError, match="frame 1"):
            cross_entropy_loss(z, np.array([0, 5, 1]))
        with pytest.raises(ShapeError):
            cross_entropy_loss(z, np.array([0, 1]))

    def test_smoothing_zero_for_constant_logits(self):
        z = Tensor(np.tile(np.array([1.0, -2.0, 0.3]), (6, 1)))
        assert float(smoothing_loss(z, z, 4.0).data) == 0.0

    def test_smoothing_matches_numpy_oracle(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((7, 4)) * 3
        val = float(smoothing_loss(Tensor(z), Tensor(z), 4.0).data)
        logp = z - z.max(axis=1, keepdims=True)
        logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
        delta = np.clip(logp[1:] - logp[:-1], -4.0, 4.0)
        np.testing.assert_allclose(val, (delta ** 2).sum() / (6 * 4), rtol=1e-6)

    def test_smoothing_clamp_caps_large_jumps(self):
        z = np.zeros((2, 2))
        z[1] = [40.0, -40.0]  # second coordinate's log-prob drops ~80 nats
        val = float(smoothing_loss(Tensor(z), Tensor(z), 4.0).data)
        # first coordinate rises by log 2 (under the clamp); second saturates
        np.testing.assert_allclose(val, (np.log(2.0) ** 2 + 4.0 ** 2) / 2, rtol=1e-4)

    def test_smoothing_reference_gets_no_gradient(self):
        rng = np.random.default_rng(11)
        z = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        prev = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        with Tape() as tape:
            loss = smoothing_loss(z, prev, 4.0)
        backward(tape, loss)
        assert prev.grad is None
        assert z.grad is not None and np.abs(z.grad).max() > 0

    def test_smoothing_reference_shape_must_match(self):
        with pytest.raises(ShapeError, match="reference"):
            smoothing_loss(Tensor(np.zeros((5, 3))), Tensor(np.zeros((4, 3))), 4.0)

    def test_smoothing_short_sequence_is_zero(self):
        z = Tensor(np.zeros((1, 3)))
        assert float(smoothing_loss(z, z, 4.0).data) == 0.0

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
            expected += 0.15 * float(smoothing_loss(z, z, c.smooth_clamp).data)
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
    out = chunked_attention(f, f, 4, wq, wk, wv, wo)
    for chunk in (0, 1):
        mean = f.data[4 * chunk: 4 * chunk + 4].mean(axis=0)
        for t in range(4 * chunk, 4 * chunk + 4):
            np.testing.assert_allclose(out.data[t], mean, atol=1e-5)


@pytest.mark.parametrize("u_shape,f_shape,message", [
    ((6, 4), (8, 4), "q/k/v shapes differ"), ((8, 4), (8, 5), "matmul shape mismatch"),
], ids=["rows", "widths"])
def test_cross_attention_shape_mismatch(u_shape, f_shape, message):
    # rows differ: the chunked attention refuses q against k and v; widths
    # differ: the key matmul refuses f against its h x h map
    rng = np.random.default_rng(11)
    u, f = (Tensor(rng.standard_normal(s).astype(np.float32)) for s in (u_shape, f_shape))
    wq, wk, wv, wo = (Tensor(rng.standard_normal((4, 4)).astype(np.float32)) for _ in range(4))
    with pytest.raises(ShapeError, match=message):
        chunked_attention(u, f, 4, wq, wk, wv, wo)
