import pytest

from vitals import gradcheck as gc
from vitals import model as mdl
from vitals import tensor as T
from vitals.cli import main


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


def test_unknown_corrupt_target():
    with pytest.raises(ValueError):
        gc.run_suite(seeds=1, corrupt="made_up_op")


def test_single_seed_suite_passes():
    results = gc.run_suite(seeds=1)
    assert set(results) == set(gc.CHECKS)
    for name, err in results.items():
        assert err < gc.THRESHOLD, f"{name}: {err}"
