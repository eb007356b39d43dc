import numpy as np
import pytest

from vitals import gradcheck as gc
from vitals import model as mdl
from vitals import tensor as T
from vitals.cli import main
from vitals.errors import ParameterError


def test_negative_control_breaks_relu_checks():
    """Corrupting relu's backward must trip its check (and only sane ones pass)."""
    results = gc.run_suite(seeds=1, corrupt="relu")
    assert results["relu"] >= gc.THRESHOLD
    assert results["end_to_end"] >= gc.THRESHOLD  # relu sits inside every block
    assert results["matmul"] < gc.THRESHOLD


def test_corruption_is_restored_after_suite():
    """Corruption acts on recorded tape nodes; no module attribute changes."""
    before = {mod: dict(vars(mod)) for mod in (T, mdl, gc)}
    gc.run_suite(seeds=1, corrupt="relu")
    for mod, attrs in before.items():
        assert dict(vars(mod)) == attrs, mod.__name__


@pytest.mark.parametrize("op", gc.OPS)
def test_corrupting_an_op_trips_its_own_check(op):
    assert op in gc.CHECKS
    assert gc.run_suite(seeds=1, corrupt=op)[op] >= gc.THRESHOLD


def test_cli_corrupt_smoothing_loss_fails(capsys):
    assert main(["gradcheck", "--seeds", "1", "--corrupt", "smoothing_loss"]) == 1
    assert "smoothing_loss: max_rel_err=" in capsys.readouterr().out


def test_unknown_corrupt_target(capsys):
    with pytest.raises(ParameterError, match="made_up_op"):
        gc.run_suite(seeds=1, corrupt="made_up_op")
    assert main(["gradcheck", "--seeds", "1", "--corrupt", "nothing"]) == 1
    assert capsys.readouterr().err.startswith("error: cannot corrupt unknown op 'nothing'")


@pytest.mark.parametrize("seeds", [0, -1])
def test_no_seeds_rejected(capsys, seeds):
    # with no seed every check would report an error of 0 and pass
    with pytest.raises(ParameterError, match="seeds must be >= 1"):
        gc.run_suite(seeds=seeds)
    assert main(["gradcheck", "--seeds", str(seeds), "--corrupt", "relu"]) == 1
    assert capsys.readouterr().err.startswith("error: seeds must be >= 1")


def test_single_seed_suite_passes():
    results = gc.run_suite(seeds=1)
    assert set(results) == set(gc.CHECKS)
    for name, err in results.items():
        assert err < gc.THRESHOLD, f"{name}: {err}"


def test_cli_fails_on_a_nan_error(capsys, monkeypatch):
    monkeypatch.setattr(gc, "run_suite", lambda seeds, corrupt: {"relu": float("nan")})
    assert main(["gradcheck", "--seeds", "1"]) == 1
    assert capsys.readouterr().out == "relu: max_rel_err=nan FAIL\n"


def _recorded_ops(fn, *args):
    """The op names of the tape nodes that fn(*args) records."""
    with T.Tape() as tape:
        fn(*args)
    return {node.op for node in tape.nodes}


def test_every_op_of_a_training_step_has_a_check():
    # an op added to the model, or a fused one, needs its own gradient check
    config = mdl.ModelConfig(num_phases=3, input_dim=5, hidden_dim=8, num_layers=2,
                             num_decoders=1, dropout_rate=0.3)
    params = mdl.init_params(config, 0)
    rng = np.random.default_rng(0)
    E = T.Tensor(rng.standard_normal((12, 5)).astype(np.float32))
    labels = rng.integers(0, 3, size=12)

    def step():
        preds = mdl.model_forward(E, params, config, training=True, rng=rng)
        loss = mdl.total_loss(preds, labels, config)
        # the projection finite_difference_check puts on every function's output
        return T.sum_all(T.mul(loss, T.Tensor(np.ones_like(loss.data))))

    ops = _recorded_ops(step)
    assert "dropout" in ops and "smoothing_loss" in ops
    assert ops <= set(gc.OPS), ops - set(gc.OPS)


def test_end_to_end_checks_the_input_projection_node():
    # the features are a constant, as in training: the check reaches the
    # input projection's node through the weight, and a broken node fails it
    fn, inputs = gc.CHECKS["end_to_end"](np.random.default_rng(1000), 0)
    E, weight = inputs[:2]
    assert not E.requires_grad and weight.data.shape == (E.data.shape[1], 8)

    def broken(*args):
        tape = T.active_tape()
        start = 0 if tape is None else len(tape.nodes)
        out = fn(*args)
        if tape is not None:
            (node,) = [n for n in tape.nodes[start:] if n.inputs == [weight]]
            assert node.op == "matmul"
            node.backward_fn = lambda dout, bwd=node.backward_fn: tuple(g * 1.5 for g in bwd(dout))
        return out

    assert gc.finite_difference_check(broken, inputs, seed=0) > gc.THRESHOLD


@pytest.mark.parametrize("op", gc.OPS)
def test_each_op_check_records_its_op(op):
    fn, inputs = gc.CHECKS[op](np.random.default_rng(0), 0)
    assert op in _recorded_ops(fn, *inputs)


def test_attention_checks_record_one_attention_node():
    # the four maps are inputs of one node: corrupting it fails every attention
    # check and the model, and a matmul node never sits inside attention
    for name in ("chunked_attention", "self_attention", "cross_attention"):
        fn, inputs = gc.CHECKS[name](np.random.default_rng(0), 0)
        assert _recorded_ops(fn, *inputs) == {"chunked_attention"}, name
    results = gc.run_suite(seeds=1, corrupt="chunked_attention")
    for name in ("chunked_attention", "self_attention", "cross_attention", "end_to_end"):
        assert results[name] >= gc.THRESHOLD, name
