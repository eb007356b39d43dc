import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from vitals import tensor as T
from vitals.errors import EmptySequenceError, ParameterError, ShapeError
from vitals.gradcheck import finite_difference_check
from vitals.model import ModelConfig, init_params, model_forward, smoothing_loss, total_loss
from vitals.tensor import Tape, Tensor, backward


def t64(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def op_and_grads(fn, arrays, dout):
    """Output of fn over leaf tensors and its recorded backward applied to dout."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = fn(*leaves)
    return out.data, tape.nodes[-1].backward_fn(dout)


def ref_dilated_conv1d(xd, kernel, d, dout):
    """Reference conv forward and backward: shifted zero-padded copies of x."""
    n = xd.shape[0]
    k0, k1, k2 = kernel

    def shifted(sign):
        out = np.zeros_like(xd)
        if d < n:
            if sign < 0:
                out[d:] = xd[: n - d]
            else:
                out[: n - d] = xd[d:]
        return out

    xm, xp = shifted(-1), shifted(+1)
    y = xm @ k0 + xd @ k1 + xp @ k2
    dk = np.stack([xm.T @ dout, xd.T @ dout, xp.T @ dout])
    dx = dout @ k1.T
    if d < n:
        dx[: n - d] += dout[d:] @ k0.T
        dx[d:] += dout[: n - d] @ k2.T
    return y, (dx, dk)


def ref_chunked_attention(q, k, v, window, dout):
    """Reference chunked attention forward and backward: q, k and v zero-padded
    to whole chunks."""
    n, h = q.shape
    w = min(int(window), n)
    pad = (-n) % w
    nc = (n + pad) // w
    inv_scale = 1.0 / math.sqrt(h)

    def chunks(a):
        if pad:
            a = np.concatenate([a, np.zeros((pad, a.shape[1]), dtype=a.dtype)])
        return a.reshape(nc, w, h)

    qc, kc, vc = chunks(q), chunks(k), chunks(v)
    s = (qc @ kc.transpose(0, 2, 1)) * inv_scale
    if pad:
        s[-1, :, w - pad:] = -np.inf
    s -= s.max(axis=2, keepdims=True)
    e = np.exp(s)
    a = e / e.sum(axis=2, keepdims=True)
    o = (a @ vc).reshape(-1, h)[:n]
    do = chunks(np.ascontiguousarray(dout))
    dv = (a.transpose(0, 2, 1) @ do).reshape(-1, h)[:n]
    da = do @ vc.transpose(0, 2, 1)
    ds = (da - (da * a).sum(axis=2, keepdims=True)) * a
    dq = ((ds @ kc) * inv_scale).reshape(-1, h)[:n]
    dk = ((ds.transpose(0, 2, 1) @ qc) * inv_scale).reshape(-1, h)[:n]
    return o, (dq, dk, dv)


def ref_dropout(x, rate, rng, dout):
    """Reference training dropout forward and backward: a float mask."""
    keep = rng.random(x.shape) >= rate
    mask = keep.astype(x.dtype) / (1.0 - rate)
    return x * mask, (dout * mask,)


def specials(dtype, size, rng):
    """size values of dtype: signed zeros, infinities, NaN, the largest finite
    values and subnormals, then standard normals."""
    fi = np.finfo(dtype)
    head = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, fi.max, -fi.max,
                     fi.smallest_subnormal, -fi.smallest_subnormal, fi.tiny], dtype)
    return np.concatenate([np.tile(head, 8),
                           rng.standard_normal(size - 8 * head.size).astype(dtype)])


def assert_same_bits(got, ref):
    out, grads = got
    ref_out, ref_grads = ref
    assert out.dtype == ref_out.dtype and np.array_equal(out, ref_out)
    assert len(grads) == len(ref_grads)
    for g, r in zip(grads, ref_grads):
        assert g.dtype == r.dtype and np.array_equal(g, r)


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

    def test_constant_operand_gets_no_gradient(self):
        rng = np.random.default_rng(15)
        E = Tensor(rng.standard_normal((6, 5)).astype(np.float32))
        W = Tensor(rng.standard_normal((5, 3)).astype(np.float32), requires_grad=True)
        dout = rng.standard_normal((6, 3)).astype(np.float32)
        with Tape() as tape:
            T.matmul(E, W)
        node = tape.nodes[-1]
        assert node.inputs[0] is None and node.inputs[1] is W
        dE, dW = node.backward_fn(dout)
        assert dE is None
        np.testing.assert_array_equal(dW, E.data.T @ dout)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,dil", [(1, 1), (2, 1), (3, 2), (5, 4), (7, 2), (16, 4),
                                       (17, 16), (33, 8), (9, 9), (4, 100), (300, 64)])
    def test_bits_match_reference(self, n, dil, dtype):
        rng = np.random.default_rng(n * 1000 + dil)
        x = rng.standard_normal((n, 8)).astype(dtype)
        k = rng.standard_normal((3, 8, 6)).astype(dtype)
        dout = rng.standard_normal((n, 6)).astype(dtype)
        assert_same_bits(op_and_grads(lambda a, b: T.dilated_conv1d(a, b, dil), [x, k], dout),
                         ref_dilated_conv1d(x, k, dil, dout))

    def test_empty_sequence(self):
        with pytest.raises(EmptySequenceError):
            T.dilated_conv1d(Tensor(np.zeros((0, 1))), self.kernel([0, 1, 0]), 1)

    def test_bad_dilation(self):
        x = Tensor(np.zeros((3, 1)))
        with pytest.raises(ParameterError):
            T.dilated_conv1d(x, self.kernel([0, 1, 0]), 0)

    @pytest.mark.parametrize("dilation", [-1, 2.5, np.nan])
    def test_non_positive_integer_dilation(self, dilation):
        x = Tensor(np.zeros((3, 1)))
        with pytest.raises(ParameterError, match="dilation must be a positive integer"):
            T.dilated_conv1d(x, self.kernel([0, 1, 0]), dilation)


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_no_overflow_on_large_values(self):
        out = T.softmax_rows(Tensor([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])
        assert np.isfinite(out.data).all()

    def test_closed_form(self):
        out = T.softmax_rows(Tensor(np.array([[np.log(2.0), 0.0]])))
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


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_where_reference_bit_for_bit(self, dtype):
        # odd sizes reach both numpy's vector loop and its scalar tail
        x = np.random.default_rng(6).standard_normal((37, 19)).astype(dtype)
        x.flat[::5] = 0.0
        x.flat[1::5] = -0.0
        out = T.relu(Tensor(x)).data
        ref = np.where(x > 0, x, 0.0)
        np.testing.assert_array_equal(out, ref, strict=True)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(ref))
        assert not np.signbit(out).any()

    def test_nan_propagates(self):
        out = T.relu(Tensor([np.nan, -1.0]))
        assert np.isnan(out.data[0]) and out.data[1] == 0.0

    def test_backward_holds_only_the_packed_gate(self, monkeypatch):
        """The node keeps its gate y > 0 bit-packed, one uint8 array of
        ceil(n*h/8) bytes, and not the output, which dies with its tensor;
        an untracked input packs no gate."""
        x = t64(np.random.default_rng(16).standard_normal((7, 5)))
        with Tape() as tape:
            out = T.relu(x)
        held = [cell.cell_contents for cell in tape.nodes[-1].backward_fn.__closure__
                if isinstance(cell.cell_contents, np.ndarray)]
        assert len(held) == 1 and held[0].dtype == np.uint8 and held[0].nbytes == -(-35 // 8)
        np.testing.assert_array_equal(held[0], np.packbits(out.data > 0))
        output = weakref.ref(out.data)
        del out
        assert output() is None

        def refuse(*args, **kwargs):
            raise AssertionError("packbits called")

        monkeypatch.setattr(np, "packbits", refuse)
        with Tape() as tape:
            T.relu(t64(x.data, grad=False))
        T.relu(x)
        assert tape.nodes == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_is_the_input_gate(self, dtype):
        # NaN and both zeros pass no gradient, the tiniest positive value does
        x = np.array([np.nan, 0.0, -0.0, 1e-300, -1e-300, np.finfo(dtype).smallest_subnormal,
                      -np.finfo(dtype).smallest_subnormal, 2.0, -2.0], dtype)
        dout = np.arange(1, x.size + 1, dtype=dtype)
        _, (dx,) = op_and_grads(T.relu, [x], dout)
        np.testing.assert_array_equal(dx, dout * (x > 0), strict=True)


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.random.default_rng(4).standard_normal((5, 5)))
        out = T.dropout(x, 0.0, rng=np.random.default_rng(0), training=True)
        np.testing.assert_array_equal(out.data, x.data)

    def test_inference_identity(self):
        x = Tensor(np.random.default_rng(5).standard_normal((5, 5)))
        out = T.dropout(x, 0.3, rng=np.random.default_rng(0), training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_identity_returns_input_and_records_nothing(self):
        x = t64(np.ones((3, 2)))
        with Tape() as tape:
            assert T.dropout(x, 0.3, rng=np.random.default_rng(0), training=False) is x
            assert T.dropout(x, 0.0, rng=np.random.default_rng(0), training=True) is x
        assert tape.nodes == []

    def test_expectation_preserved(self):
        x = Tensor(np.ones((100_000,), dtype=np.float32))
        out = T.dropout(x, 0.5, rng=np.random.default_rng(123), training=True)
        assert abs(out.data.mean() - 1.0) < 0.01

    def test_seed_reproducibility(self):
        x = Tensor(np.ones((64,), dtype=np.float32))
        a = T.dropout(x, 0.4, rng=np.random.default_rng(9), training=True)
        b = T.dropout(x, 0.4, rng=np.random.default_rng(9), training=True)
        np.testing.assert_array_equal(a.data, b.data)

    def test_bad_rate(self):
        with pytest.raises(ParameterError):
            T.dropout(Tensor([1.0]), 1.0, rng=np.random.default_rng(0), training=True)

    @pytest.mark.parametrize("rng", [None, 0], ids=["none", "seed"])
    def test_training_mask_needs_generator(self, rng):
        with pytest.raises(ParameterError, match="Generator"):
            T.dropout(Tensor(np.ones((4, 4))), 0.3, rng=rng, training=True)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_bits_match_float_mask(self, rate, dtype):
        # the mask is applied without building it, so the product must be
        # checked on every special value, NaN payloads and zero signs included;
        # the node keeps the mask bit-packed, and 9 x 11 values leave a tail of
        # 3 bits in the last packed byte
        rng = np.random.default_rng(int(rate * 100))
        for shape in ((16, 15), (9, 11)):
            size = shape[0] * shape[1]
            x = specials(dtype, size, rng).reshape(shape)
            dout = specials(dtype, size, rng)[::-1].reshape(shape)
            with np.errstate(over="ignore", invalid="ignore"):
                out, grads = op_and_grads(lambda t: T.dropout(
                    t, rate, rng=np.random.default_rng(3), training=True), [x], dout)
                ref_out, ref_grads = ref_dropout(x, rate, np.random.default_rng(3), dout)
            assert out.dtype == ref_out.dtype and out.tobytes() == ref_out.tobytes()
            assert grads[0].dtype == dtype and grads[0].tobytes() == ref_grads[0].tobytes()

    def test_training_forward_needs_generator(self):
        config = ModelConfig(num_phases=3, input_dim=4, hidden_dim=4, num_layers=1,
                             num_decoders=0, dropout_rate=0.3)
        params = init_params(config, 0)
        E = Tensor(np.ones((5, 4), dtype=np.float32))
        with pytest.raises(ParameterError, match="Generator"):
            model_forward(E, params, config, training=True)
        model_forward(E, params, config, training=False)  # inference needs no rng


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("target", ["slot", "leaf"])
    def test_accumulation_matches_zero_fill(self, dtype, target):
        rng = np.random.default_rng(8)
        grads = [rng.standard_normal((4, 3)).astype(dtype) for _ in range(3)]
        grads[0].flat[::2] = -0.0
        first = grads[0].copy()
        # a node's gradient is its output's; a leaf's is its .grad
        if target == "slot":
            acc = T.TapeNode("op", [], None)
            held = lambda: acc.output
        else:
            acc = Tensor(np.ones((4, 3), dtype), requires_grad=True)
            held = lambda: acc.grad
        ref = np.zeros_like(grads[0])
        for g in grads:
            acc.accumulate_grad(g)
            ref += g
            np.testing.assert_array_equal(held(), ref, strict=True)
            np.testing.assert_array_equal(np.signbit(held()), np.signbit(ref))
        # the sum is kept in an array of its own, never in the first gradient
        np.testing.assert_array_equal(grads[0], first)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scalar_leaf_as_loss(self, dtype):
        x = Tensor(np.asarray(3.0, dtype), requires_grad=True)
        with Tape() as tape:
            pass
        backward(tape, x)
        assert x.grad == 1.0 and x.grad.dtype == dtype

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
        assert y.grad is None and loss.grad is None  # only leaves get a .grad

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


class _OutputRefs(Tape):
    """A tape that keeps a weak reference to each recorded output's array."""

    def __init__(self):
        super().__init__()
        self.refs = []  # (op, weakref to the output array)

    def record(self, op, inputs, output, backward_fn):
        super().record(op, inputs, output, backward_fn)
        self.refs.append((op, weakref.ref(output.data)))
        return output


class TestStepMemory:
    def test_forward_tape_pins_no_unread_output(self):
        """Outputs no backward reads die during forward, while the tape lives."""
        config = ModelConfig(num_phases=3, input_dim=4, hidden_dim=4, num_layers=2,
                             num_decoders=1, dropout_rate=0.3)
        params = init_params(config, 0)
        E = np.random.default_rng(0).standard_normal((16, 4)).astype(np.float32)
        labels = np.arange(16) % 3
        enabled = gc.isenabled()
        gc.disable()
        try:
            with _OutputRefs() as tape:
                preds = model_forward(Tensor(E), params, config, training=True,
                                      rng=np.random.default_rng(0))
                loss = total_loss(preds, labels, config)
            ops = [op for op, _ in tape.refs]
            refs = {op: [r for o, r in tape.refs if o == op] for op in set(ops)}
            assert len(refs["dilated_conv1d"]) == len(refs["dropout"]) == \
                len(refs["chunked_attention"]) == 4
            # attention rebuilds its output in backward, so no node holds it
            for ref in refs["dilated_conv1d"] + refs["dropout"] + refs["chunked_attention"]:
                assert ref() is None
            # relu outputs feed the attention node, which rebuilds them from the
            # block input in backward, so they die too; no q/k/v matmul node
            # sits between the two, and no wo matmul node follows it
            assert [ops[i + 1] for i, op in enumerate(ops) if op == "relu"] == \
                ["chunked_attention"] * 4
            assert [ops[i + 1] for i, op in enumerate(ops) if op == "chunked_attention"] == \
                ["dropout"] * 4
            assert len(refs["relu"]) == 4 and all(ref() is None for ref in refs["relu"])
            backward(tape, loss)
        finally:
            if enabled:
                gc.enable()

    def test_smoothing_loss_pins_no_logits(self):
        """Smoothing's backward builds its zero gradient from the shape alone,
        so the logits die with their tensor while the tape lives."""
        x = t64(np.random.default_rng(3).standard_normal((6, 3)))
        enabled = gc.isenabled()
        gc.disable()
        try:
            with Tape() as tape:
                logits = T.scale(x, 2.0)
                ref = weakref.ref(logits.data)
                loss = smoothing_loss(logits, logits, 4.0)
                del logits
                assert ref() is None
            backward(tape, loss)
        finally:
            if enabled:
                gc.enable()
        assert x.grad is not None and np.abs(x.grad).sum() > 0

    def test_mid_config_step_peak(self):
        """tracemalloc peak of one train step at n=1200, d=h=64, L=10, N=3.

        Measured on numpy 2.4.6 (2 vCPUs): 38.1 MB with 276 tape nodes; 49.7 MB
        when relu and attention held every block's relu output. Earlier, on
        numpy 2.4: 54.9 MB when the fusion input was also a second copy of
        the encoder block outputs and dropout masks were byte-wide, 67.6 MB
        when the wo matmul node also held every block's attention output,
        107.4 MB when every block's q, k and v projections were also held
        for backward, 164.8 MB when every attention node also kept its n x w
        weights, and 271.3 MB when every node also pinned its output and
        inputs and conv and dropout kept copies. The bound sits between the
        first two, so a return of any fails.
        """
        config = ModelConfig(num_phases=7, input_dim=64, hidden_dim=64, num_layers=10,
                             num_decoders=3)
        params = init_params(config, 0)
        rng = np.random.default_rng(0)
        E = Tensor(rng.standard_normal((1200, 64)).astype(np.float32))
        labels = np.arange(1200) * 7 // 1200
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                preds = model_forward(E, params, config, training=True, rng=rng)
                loss = total_loss(preds, labels, config)
            nodes = len(tape.nodes)
            backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert nodes == 276
        assert peak < 44e6, f"step peak {peak / 1e6:.1f} MB"


def attend(u, f, window, wq=None, wk=None, wv=None, wo=None):
    """Chunked attention of float32 arrays u and f; a map left out is the identity."""
    eye = np.eye(u.shape[1], dtype=np.float32)
    maps = [eye if m is None else m for m in (wq, wk, wv, wo)]
    return T.chunked_attention(Tensor(u), Tensor(f), window, *map(Tensor, maps))


# up to (257, 16) every chunk fits in one group of 2^18 scores; (1536, 256),
# (1536, 512) and (4096, 128) span several groups with no tail; (2100, 128)
# and (1300, 512) put the padded tail in a group alone, (2500, 128) and
# (1300, 256) beside full chunks; a w=1024 chunk is larger than a group
ATTENTION_GRID = [(1, 1), (1, 4), (7, 2), (9, 2), (12, 4), (13, 4), (10, 3), (5, 8), (6, 6),
                  (300, 64), (257, 16), (1536, 256), (1536, 512), (4096, 128), (2100, 128),
                  (1300, 512), (2500, 128), (1300, 256), (1100, 1024)]


class TestChunkedAttention:
    def test_window_one_returns_values(self):
        rng = np.random.default_rng(7)
        u, f, wq, wk = (rng.standard_normal(s).astype(np.float32)
                        for s in ((5, 4), (5, 4), (4, 4), (4, 4)))
        out = attend(u, f, 1, wq, wk)
        np.testing.assert_allclose(out.data, f, atol=1e-6)

    def test_uniform_weights_give_chunk_mean(self):
        rng = np.random.default_rng(8)
        u, f, wk = (rng.standard_normal(s).astype(np.float32) for s in ((6, 4), (6, 4), (4, 4)))
        out = attend(u, f, 3, np.zeros((4, 4), np.float32), wk)  # q = 0
        for c in range(2):
            mean = f[3 * c: 3 * c + 3].mean(axis=0)
            for t in range(3 * c, 3 * c + 3):
                np.testing.assert_allclose(out.data[t], mean, atol=1e-6)

    def test_partial_last_chunk(self):
        rng = np.random.default_rng(9)
        u, f = (rng.standard_normal((7, 3)).astype(np.float32) for _ in range(2))
        out = attend(u, f, 4)
        assert out.data.shape == (7, 3)
        assert np.isfinite(out.data).all()

    def test_locality_across_chunks(self):
        rng = np.random.default_rng(10)
        base = rng.standard_normal((8, 3)).astype(np.float32)
        perturbed = base.copy()
        perturbed[6] += 5.0  # second chunk, window 4
        out_a = attend(base, base, 4)
        out_b = attend(perturbed, perturbed, 4)
        np.testing.assert_array_equal(out_a.data[:4], out_b.data[:4])
        assert not np.array_equal(out_a.data[4:], out_b.data[4:])

    def test_empty_sequence(self):
        z = np.zeros((0, 2), np.float32)
        with pytest.raises(EmptySequenceError):
            attend(z, z, 2)

    @pytest.mark.parametrize("window", [0, -3, 2.5, np.nan, "4"])
    def test_bad_window(self, window):
        z = np.zeros((5, 2), np.float32)
        with pytest.raises(ParameterError, match="window must be a positive integer"):
            attend(z, z, window)

    def test_zero_width(self):
        z, w = np.zeros((5, 2), np.float32), np.zeros((2, 0), np.float32)
        with pytest.raises(ShapeError, match="nonzero width"):
            attend(z, z, 2, w, w, w)

    @pytest.mark.parametrize("wo_shape", [(5, 4), (4,)], ids=["rows", "1-D"])
    def test_misshaped_output_map_fails_before_projecting(self, wo_shape):
        """A wo that is not 2-D with h rows is refused before q, k or v is
        computed: nothing of n x h is allocated on the way to the error."""
        n, h = 20000, 4
        u = np.ones((n, h), np.float32)
        wo = np.ones(wo_shape, np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with pytest.raises(ShapeError, match="matmul shape mismatch"):
                attend(u, u, 8, wo=wo)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < u.nbytes, f"{peak} bytes traced before the error"

    @pytest.mark.parametrize("window", [16, 512])
    def test_inference_frees_chunks_before_projecting_output(self, window):
        """Without a tape the q, k and v chunk buffers, and the group buffer
        when no node keeps it, are freed before the output projection
        allocates: the call's traced peak stays below the three zero-tailed
        projections, the output buffer, the group buffer and half an n x h.
        Projecting while q, k and v are alive adds a whole n x h to it."""
        n, h = 3000, 64
        rng = np.random.default_rng(17)
        u = rng.standard_normal((n, h)).astype(np.float32)
        maps = [rng.standard_normal((h, h)).astype(np.float32) for _ in range(4)]
        nc = -(-n // window)
        per_group = min(max(T._GROUP_SCORES // window ** 2, 1), nc)
        bound = 4 * (4 * nc * window * h + per_group * window ** 2) + n * h * 4 // 2
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = attend(u, u, window, *maps)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.data.shape == (n, h)
        assert peak < bound, f"peak {peak} bytes, bound {bound}"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,window", ATTENTION_GRID)
    def test_bits_match_reference(self, n, window, dtype):
        """The op's output and gradients, bit for bit, against the reference
        attention of separately computed projections, then the wo matmul,
        and each matmul's gradients, listed as the op lists its inputs: wo,
        f, wv, f, wk, u, wq."""
        rng = np.random.default_rng(n * 1000 + window)
        u, f, dout = (rng.standard_normal((n, 8)).astype(dtype) for _ in range(3))
        wq, wk, wv, wo = (rng.standard_normal((8, 8)).astype(dtype) for _ in range(4))
        out, (dq, dk, dv) = ref_chunked_attention(u @ wq, f @ wk, f @ wv, window, dout @ wo.T)
        ref_grads = (out.T @ dout, dv @ wv.T, f.T @ dv, dk @ wk.T, f.T @ dk, dq @ wq.T, u.T @ dq)
        assert_same_bits(
            op_and_grads(lambda *t: T.chunked_attention(t[0], t[1], window, *t[2:]),
                         [u, f, wq, wk, wv, wo], dout),
            (out @ wo, ref_grads))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,window", ATTENTION_GRID)
    def test_rebuild_bits_match_held_inputs(self, n, window, dtype):
        """A node that reads u and f through a `rebuild` of fresh copies gives
        the output and all seven gradients bit for bit as a node without one,
        which holds u's and f's own arrays."""
        rng = np.random.default_rng(n * 1000 + window)
        u, f, dout = (rng.standard_normal((n, 8)).astype(dtype) for _ in range(3))
        maps = [rng.standard_normal((8, 8)).astype(dtype) for _ in range(4)]
        runs = []
        for rebuild in (None, lambda: (u.copy(), f.copy())):
            out, grads = op_and_grads(
                lambda *t: T.chunked_attention(t[0], t[1], window, *t[2:], rebuild=rebuild),
                [u, f, *maps], dout)
            runs.append([(a.dtype, a.tobytes()) for a in (out, *grads)])
        assert len(runs[0]) == 8 and runs[0] == runs[1]

    @pytest.mark.parametrize("n,window,keeps_weights", [(1300, 512, False), (300, 64, True)])
    def test_node_holds_weights_only_within_one_group(self, n, window, keeps_weights):
        """The arrays a node's backward closure holds, walked through lists,
        tuples and the closures of the functions it holds: u and f, which
        the default rebuild returns, the four h x h maps and a softmax max
        and sum per padded row, and no projection or attention output: no
        other array of n rows or of whole w x h chunks. Only a node whose
        chunks all fit in one group also keeps their w x w weights."""
        h, nc = 8, -(-n // window)
        u, f = (Tensor(np.full((n, h), c, np.float32), requires_grad=True) for c in (1, 2))
        maps = [Tensor(np.eye(h, dtype=np.float32), requires_grad=True) for _ in range(4)]
        with Tape() as tape:
            T.chunked_attention(u, f, window, *maps)
        held = {}

        def walk(value):
            if isinstance(value, (list, tuple)):
                for item in value:
                    walk(item)
            elif isinstance(value, np.ndarray):
                base = value if value.base is None else value.base
                held[id(base)] = base
            elif callable(value):
                for cell in value.__closure__ or ():
                    walk(cell.cell_contents)

        walk(tape.nodes[-1].backward_fn)
        assert any(a is u.data for a in held.values()) and any(a is f.data for a in held.values())
        others = [a for a in held.values() if a is not u.data and a is not f.data]
        assert not any(len(a) in (n, nc * window) or a.shape[-2:] == (window, h) for a in others)
        expected = 2 * n * h + 4 * h * h + 2 * nc * window + keeps_weights * nc * window ** 2
        assert sum(a.nbytes for a in held.values()) == 4 * expected
        assert any(a.shape[-2:] == (window, window) for a in others) == keeps_weights


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

    def test_input_from_a_finished_tape_reads_as_a_leaf(self):
        rng = np.random.default_rng(16)
        x = t64(rng.standard_normal((3, 4)))
        with Tape() as tape:
            y = T.scale(x, 2.0)  # recorded: y keeps that tape and its node id
            loss = T.sum_all(y)
        backward(tape, loss)
        y.requires_grad = True
        w = rng.standard_normal((4, 2))
        recorded = finite_difference_check(T.matmul, [y, t64(w)])
        leaf = t64(y.data.copy())
        fresh = finite_difference_check(T.matmul, [leaf, t64(w)])
        assert recorded == fresh > 0
        np.testing.assert_array_equal(y.grad, leaf.grad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_fails(self, bad):
        # max(0.0, nan) is 0.0: a NaN error must not read as an exact gradient
        def broken_relu(x):
            out = Tensor(np.maximum(x.data, 0))
            return T.record("relu", [x], out, lambda dout: (np.full_like(dout, bad),))

        rng = np.random.default_rng(15)
        err = finite_difference_check(broken_relu, [t64(rng.standard_normal((4, 3)))])
        assert err == math.inf


def test_no_nan_inf_after_ops():
    rng = np.random.default_rng(14)
    x = Tensor((rng.standard_normal((20, 6)) * 50).astype(np.float32))
    for out in (T.relu(x), T.softmax_rows(x),
                attend(x.data, x.data, 8),
                T.dilated_conv1d(x, Tensor(rng.standard_normal((3, 6, 6)).astype(np.float32)), 3)):
        assert np.isfinite(out.data).all()


def test_tape_single_owner():
    with Tape():
        with pytest.raises(RuntimeError):
            with Tape():
                pass
