import gc
import weakref

import numpy as np
import pytest

from vitals import tensor as T
from vitals.errors import EmptySequenceError, ParameterError, ShapeError
from vitals.model import ModelConfig, init_params, model_forward, total_loss
from vitals.tensor import Tape, Tensor, backward, finite_difference_check


def t64(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(Tensor(np.eye(2, dtype=np.float32)), b)
        np.testing.assert_array_equal(out.data, b.data)

    def test_direct_summation(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_allclose(out.data, [[3.0], [7.0]])

    def test_zero_matrix(self):
        b = Tensor(np.random.default_rng(0).standard_normal((2, 3)))
        out = T.matmul(Tensor(np.zeros((2, 2), dtype=np.float32)), b)
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


class TestDilatedConv1d:
    def kernel(self, taps):
        return Tensor(np.asarray(taps, dtype=np.float32).reshape(3, 1, 1))

    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        for n, dil in [(1, 1), (5, 2), (17, 8), (4, 100)]:
            x = Tensor(rng.standard_normal((n, 1)).astype(np.float32))
            out = T.dilated_conv1d(x, self.kernel([0, 1, 0]), dil)
            np.testing.assert_array_equal(out.data, x.data)

    def test_box_taps_dilation_1(self):
        x = Tensor(np.array([1.0, 2, 3, 4, 5]).reshape(5, 1))
        out = T.dilated_conv1d(x, self.kernel([1, 1, 1]), 1)
        np.testing.assert_allclose(out.data.ravel(), [3, 6, 9, 12, 9])

    def test_skip_taps_dilation_2(self):
        x = Tensor(np.array([1.0, 2, 3, 4, 5]).reshape(5, 1))
        out = T.dilated_conv1d(x, self.kernel([1, 0, 1]), 2)
        np.testing.assert_allclose(out.data.ravel(), [3, 4, 6, 2, 3])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((11, 3)).astype(np.float32)
        k = rng.standard_normal((3, 3, 2)).astype(np.float32)
        for dil in (1, 2, 5):
            out = T.dilated_conv1d(Tensor(x), Tensor(k), dil)
            expected = np.zeros((11, 2))
            for t in range(11):
                for j in (-1, 0, 1):
                    src = t + j * dil
                    if 0 <= src < 11:
                        expected[t] += x[src] @ k[j + 1]
            np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-5)

    def test_empty_sequence(self):
        with pytest.raises(EmptySequenceError):
            T.dilated_conv1d(Tensor(np.zeros((0, 1))), self.kernel([0, 1, 0]), 1)

    def test_bad_dilation(self):
        x = Tensor(np.zeros((3, 1)))
        with pytest.raises(ParameterError):
            T.dilated_conv1d(x, self.kernel([0, 1, 0]), 0)


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_no_overflow_on_large_values(self):
        out = T.softmax_rows(Tensor([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])
        assert np.isfinite(out.data).all()

    def test_closed_form(self):
        out = T.softmax_rows(Tensor([[np.log(2.0), 0.0]], dtype=np.float64))
        np.testing.assert_allclose(out.data, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_rows_sum_to_one_and_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal((6, 5)).astype(np.float32) * 10
            y = T.softmax_rows(Tensor(x)).data
            np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-6)
            y_shift = T.softmax_rows(Tensor(x + 3.7)).data
            np.testing.assert_allclose(y, y_shift, atol=1e-6)


class TestRelu:
    def test_values(self):
        out = T.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_all_negative(self):
        out = T.relu(Tensor([-3.0, -0.5]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0])

    def test_gradient_in_positive_region(self):
        x = t64([3.0])
        with Tape() as tape:
            loss = T.sum_all(T.relu(x))
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [1.0])


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.random.default_rng(4).standard_normal((5, 5)))
        out = T.dropout(x, 0.0, rng=0, training=True)
        np.testing.assert_array_equal(out.data, x.data)

    def test_inference_identity(self):
        x = Tensor(np.random.default_rng(5).standard_normal((5, 5)))
        out = T.dropout(x, 0.3, rng=0, training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_identity_returns_input_and_records_nothing(self):
        x = t64(np.ones((3, 2)))
        with Tape() as tape:
            assert T.dropout(x, 0.3, rng=0, training=False) is x
            assert T.dropout(x, 0.0, rng=0, training=True) is x
        assert tape.nodes == []

    def test_expectation_preserved(self):
        x = Tensor(np.ones((100_000,), dtype=np.float32))
        out = T.dropout(x, 0.5, rng=123, training=True)
        assert abs(out.data.mean() - 1.0) < 0.01

    def test_seed_reproducibility(self):
        x = Tensor(np.ones((64,), dtype=np.float32))
        a = T.dropout(x, 0.4, rng=9, training=True)
        b = T.dropout(x, 0.4, rng=9, training=True)
        np.testing.assert_array_equal(a.data, b.data)

    def test_bad_rate(self):
        with pytest.raises(ParameterError):
            T.dropout(Tensor([1.0]), 1.0, rng=0, training=True)


class TestBackward:
    def test_sum_gives_ones(self):
        x = t64(np.random.default_rng(6).standard_normal((3, 4)))
        with Tape() as tape:
            loss = T.sum_all(x)
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_elementwise_square(self):
        x = t64([1.0, 2.0])
        with Tape() as tape:
            loss = T.sum_all(T.mul(x, x))
        backward(tape, loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_fanout_accumulates(self):
        # same tensor used through two paths: grads must sum
        x = t64([1.0, -2.0, 0.5])
        with Tape() as tape:
            loss = T.sum_all(T.add(T.scale(x, 2.0), T.scale(x, 3.0)))
        backward(tape, loss)
        np.testing.assert_allclose(x.grad, [5.0, 5.0, 5.0])

    def test_nonscalar_loss_rejected(self):
        x = t64([1.0, 2.0])
        with Tape() as tape:
            y = T.relu(x)
        with pytest.raises(ShapeError):
            backward(tape, y)

    def test_each_node_visited_once(self):
        x = t64([2.0])
        with Tape() as tape:
            y = T.mul(x, x)
            loss = T.sum_all(T.add(y, y))
        assert len(tape.nodes) == 3
        backward(tape, loss)
        np.testing.assert_allclose(x.grad, [8.0])  # d/dx 2x^2

    def test_finished_step_frees_its_tape_without_gc(self):
        """Backward consumes the tape, so no reference cycle outlives a step."""
        config = ModelConfig(num_phases=3, input_dim=4, hidden_dim=4, num_layers=2,
                             num_decoders=1, dropout_rate=0.3)
        params = init_params(config, 0)
        rng = np.random.default_rng(0)
        E = rng.standard_normal((16, 4)).astype(np.float32)
        labels = np.arange(16) % 3

        def step():
            with Tape() as tape:
                preds = model_forward(Tensor(E), params, config, training=True, rng=rng)
                loss = total_loss(preds, labels, config)
            intermediate = weakref.ref(preds.logits[0].data)
            backward(tape, loss)
            assert tape.nodes == []
            return intermediate

        enabled = gc.isenabled()
        gc.disable()
        try:
            intermediate = step()
            assert intermediate() is None
        finally:
            if enabled:
                gc.enable()
        assert params["input_proj.weight"].grad is not None


class TestChunkedAttention:
    def test_window_one_returns_values(self):
        rng = np.random.default_rng(7)
        q = Tensor(rng.standard_normal((5, 4)).astype(np.float32))
        k = Tensor(rng.standard_normal((5, 4)).astype(np.float32))
        v = Tensor(rng.standard_normal((5, 4)).astype(np.float32))
        out = T.chunked_attention(q, k, v, 1)
        np.testing.assert_allclose(out.data, v.data, atol=1e-6)

    def test_uniform_weights_give_chunk_mean(self):
        rng = np.random.default_rng(8)
        z = Tensor(np.zeros((6, 4), dtype=np.float32))
        k = Tensor(rng.standard_normal((6, 4)).astype(np.float32))
        v = Tensor(rng.standard_normal((6, 4)).astype(np.float32))
        out = T.chunked_attention(z, k, v, 3)
        for c in range(2):
            mean = v.data[3 * c: 3 * c + 3].mean(axis=0)
            for t in range(3 * c, 3 * c + 3):
                np.testing.assert_allclose(out.data[t], mean, atol=1e-6)

    def test_partial_last_chunk(self):
        rng = np.random.default_rng(9)
        q, k, v = (Tensor(rng.standard_normal((7, 3)).astype(np.float32)) for _ in range(3))
        out = T.chunked_attention(q, k, v, 4)
        assert out.data.shape == (7, 3)
        assert np.isfinite(out.data).all()

    def test_locality_across_chunks(self):
        rng = np.random.default_rng(10)
        base = rng.standard_normal((8, 3)).astype(np.float32)
        perturbed = base.copy()
        perturbed[6] += 5.0  # second chunk, window 4
        out_a = T.chunked_attention(Tensor(base), Tensor(base), Tensor(base), 4)
        out_b = T.chunked_attention(Tensor(perturbed), Tensor(perturbed), Tensor(perturbed), 4)
        np.testing.assert_array_equal(out_a.data[:4], out_b.data[:4])
        assert not np.array_equal(out_a.data[4:], out_b.data[4:])

    def test_empty_sequence(self):
        z = Tensor(np.zeros((0, 2)))
        with pytest.raises(EmptySequenceError):
            T.chunked_attention(z, z, z, 2)


class TestFiniteDifferenceOracle:
    def test_matmul(self):
        rng = np.random.default_rng(11)
        err = finite_difference_check(
            T.matmul, [t64(rng.standard_normal((3, 4))), t64(rng.standard_normal((4, 2)))])
        assert err < 1e-3

    def test_dilated_conv(self):
        rng = np.random.default_rng(12)
        err = finite_difference_check(
            lambda x, k: T.dilated_conv1d(x, k, 4),
            [t64(rng.standard_normal((16, 2))), t64(rng.standard_normal((3, 2, 2)))])
        assert err < 1e-3

    def test_softmax_cross_entropy_composite(self):
        from vitals.model import cross_entropy_loss
        rng = np.random.default_rng(13)
        labels = rng.integers(0, 3, size=6)
        err = finite_difference_check(
            lambda z: cross_entropy_loss(z, labels), [t64(rng.standard_normal((6, 3)))])
        assert err < 1e-3


def test_no_nan_inf_after_ops():
    rng = np.random.default_rng(14)
    x = Tensor((rng.standard_normal((20, 6)) * 50).astype(np.float32))
    for out in (T.relu(x), T.softmax_rows(x),
                T.chunked_attention(x, x, x, 8),
                T.dilated_conv1d(x, Tensor(rng.standard_normal((3, 6, 6)).astype(np.float32)), 3)):
        assert np.isfinite(out.data).all()


def test_tape_single_owner():
    with Tape():
        with pytest.raises(RuntimeError):
            with Tape():
                pass
