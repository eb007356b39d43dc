import numpy as np
import pytest

from vitals.cli import main, read_spec_file, write_spec_file
from vitals.data import (SyntheticSpec, load_features, load_manifest,
                         parse_annotation_segments)
from vitals.errors import ConfigError
from vitals.train import load_checkpoint, save_checkpoint


def run(*argv):
    return main(list(argv))


def write_config(path, **kw):
    defaults = dict(epochs=2, layers=2, decoders=1, hidden_dim=8, phases=3, seed=0)
    defaults.update(kw)
    path.write_text("".join(f"{k} = {v}\n" for k, v in defaults.items()))
    return path


@pytest.fixture
def dataset(tmp_path):
    """Tiny synthetic corpus generated through the CLI itself."""
    spec = tmp_path / "spec.conf"
    write_spec_file(spec, SyntheticSpec(durations=[(0.08, 0.03)] * 3, feature_dim=8,
                                        separation=3.0, noise_std=1.0))
    out = tmp_path / "data"
    assert run("synth", "--spec", str(spec), "--videos", "5",
               "--out-dir", str(out), "--seed", "0") == 0
    return out


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert run() == 2

    def test_unknown_command(self):
        assert run("frobnicate") == 2

    def test_missing_required_flag(self):
        assert run("eval", "--manifest", "m.tsv") == 2

    def test_bad_split_choice(self):
        assert run("eval", "--checkpoint", "c", "--manifest", "m", "--split", "val",
                   "--report", "r") == 2

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert run("predict", "--checkpoint", str(tmp_path / "none.vtck"),
                   "--features", str(tmp_path / "none.vtaf"),
                   "--out", str(tmp_path / "o.txt")) == 1

    def test_corrupt_checkpoint(self, tmp_path, dataset, capsys):
        bad = tmp_path / "bad.vtck"
        bad.write_bytes(b"VTCKgarbage")
        code = run("eval", "--checkpoint", str(bad), "--manifest",
                   str(dataset / "manifest.tsv"), "--split", "train",
                   "--report", str(tmp_path / "r.txt"))
        assert code == 1
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("edit", [
        lambda m: {k: v for k, v in m.items() if k != "param_names"},
        lambda m: {**m, "model_config": {**m["model_config"], "depth": 3}},
        lambda m: list(m),
    ], ids=["no_param_names", "unknown_config_key", "list_metadata"])
    def test_malformed_checkpoint_metadata(self, tmp_path, dataset, capsys, edit,
                                           edit_checkpoint_meta):
        ckpt = tmp_path / "model.vtck"
        assert run("train", "--manifest", str(dataset / "manifest.tsv"), "--config",
                   str(write_config(tmp_path / "t.conf", epochs=1)),
                   "--out-checkpoint", str(ckpt)) == 0
        edit_checkpoint_meta(ckpt, edit)
        code = run("predict", "--checkpoint", str(ckpt),
                   "--features", str(dataset / "video000.vtaf"), "--out", str(tmp_path / "p.txt"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("edit", [
        lambda m: {**m, "epoch": "x"},
        lambda m: {**m, "epoch": -3},
        lambda m: {**m, "rng_state": {"bit_generator": "PCG64", "state": 5}},
    ], ids=["text_epoch", "negative_epoch", "bad_rng_state"])
    def test_bad_checkpoint_run_state(self, tmp_path, dataset, capsys, edit,
                                      edit_checkpoint_meta):
        ckpt = tmp_path / "model.vtck"
        assert run("train", "--manifest", str(dataset / "manifest.tsv"), "--config",
                   str(write_config(tmp_path / "t.conf", epochs=1)),
                   "--out-checkpoint", str(ckpt)) == 0
        edit_checkpoint_meta(ckpt, edit)
        code = run("eval", "--checkpoint", str(ckpt), "--manifest",
                   str(dataset / "manifest.tsv"), "--split", "train",
                   "--report", str(tmp_path / "r.txt"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("kw,message", [
        ({"learning_rate": "nan"}, "learning_rate"),
        ({"weight_decay": "-1"}, "weight_decay"),
        ({"dropout": 1.5}, "dropout_rate"),
    ], ids=["nan_learning_rate", "negative_weight_decay", "dropout_above_one"])
    def test_bad_train_config(self, tmp_path, dataset, capsys, kw, message):
        config = write_config(tmp_path / "t.conf", **kw)
        assert run("train", "--manifest", str(dataset / "manifest.tsv"), "--config",
                   str(config), "--out-checkpoint", str(tmp_path / "c.vtck")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "c.vtck").exists()

    def test_train_config_without_phases(self, tmp_path, dataset, capsys):
        config = tmp_path / "t.conf"
        config.write_text("epochs = 1\nlayers = 2\n")
        assert run("train", "--manifest", str(dataset / "manifest.tsv"), "--config",
                   str(config), "--out-checkpoint", str(tmp_path / "c.vtck")) == 1
        assert "missing required key 'phases'" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("fps = -1", "fps must be >= 1"),
        ("fps = x", "spec.conf:1: bad value for fps"),
    ], ids=["negative_fps", "text_fps"])
    def test_bad_spec(self, tmp_path, capsys, line, message):
        spec = tmp_path / "spec.conf"
        spec.write_text(f"{line}\nphase.0 = 1,0\nphase.1 = 1,0\n")
        assert run("synth", "--spec", str(spec), "--videos", "1",
                   "--out-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_incomplete_optimizer_state(self, tmp_path, dataset, capsys):
        ckpt = tmp_path / "model.vtck"
        assert run("train", "--manifest", str(dataset / "manifest.tsv"), "--config",
                   str(write_config(tmp_path / "t.conf", epochs=1)),
                   "--out-checkpoint", str(ckpt)) == 0
        loaded = load_checkpoint(ckpt)
        del loaded.adam.m["fusion.weight"]
        save_checkpoint(ckpt, loaded)
        code = run("predict", "--checkpoint", str(ckpt),
                   "--features", str(dataset / "video000.vtaf"), "--out", str(tmp_path / "p.txt"))
        assert code == 1
        assert "adam.m moments missing" in capsys.readouterr().err


class TestSynth:
    def test_emit_default_spec(self, tmp_path):
        spec_path = tmp_path / "default.conf"
        assert run("synth", "--emit-default-spec", str(spec_path)) == 0
        spec = read_spec_file(spec_path)
        assert spec.num_phases == 11
        assert spec.durations[4] == (30.26, 13.84)
        assert spec.durations[10] == (25.18, 10.33)

    def test_outputs_and_split(self, dataset):
        entries = load_manifest(dataset / "manifest.tsv")
        assert len(entries) == 5
        assert [e.split for e in entries] == ["train"] * 4 + ["test"]
        seq = load_features(entries[0].feature_path)
        assert seq.d == 8

    def test_synth_without_required_args(self, tmp_path):
        assert run("synth", "--videos", "3") == 1

    def test_spec_file_roundtrip(self, tmp_path):
        spec = SyntheticSpec(durations=[(1.5, 0.2), (2.0, 0.0)], feature_dim=4,
                             separation=2.5, noise_std=0.1, skip_prob=[0.0, 0.25], fps=2)
        p = tmp_path / "s.conf"
        write_spec_file(p, spec)
        back = read_spec_file(p)
        assert back.durations == spec.durations
        assert back.skip_prob == spec.skip_prob
        assert back.fps == 2 and back.feature_dim == 4

    def test_spec_with_repeated_key(self, tmp_path):
        p = tmp_path / "s.conf"
        p.write_text("fps = 1\nphase.0 = 1,0\nfps = 2\nphase.1 = 1,0\n")
        with pytest.raises(ConfigError, match=r"s\.conf:3: key 'fps' repeated, first set on line 1"):
            read_spec_file(p)
        p.write_text("phase.0 = 1,0\nphase.1 = 1,0\nphase.01 = 2,0\n")
        with pytest.raises(ConfigError, match=r"s\.conf:3: phase 1 is already set"):
            read_spec_file(p)

    def test_spec_with_gap_in_phase_indices(self, tmp_path):
        p = tmp_path / "s.conf"
        p.write_text("phase.0 = 1,0\nphase.2 = 1,0\n")
        with pytest.raises(ConfigError):
            read_spec_file(p)


class TestPipeline:
    def test_train_eval_predict(self, tmp_path, dataset, capsys):
        manifest = str(dataset / "manifest.tsv")
        config = write_config(tmp_path / "train.conf")
        ckpt = tmp_path / "model.vtck"
        log = tmp_path / "train.log"

        assert run("train", "--manifest", manifest, "--config", str(config),
                   "--out-checkpoint", str(ckpt), "--log", str(log)) == 0
        assert ckpt.read_bytes()[:4] == b"VTCK"
        log_lines = log.read_text().strip().splitlines()
        assert len(log_lines) == 2 and log_lines[0].startswith("epoch=1 ")

        report = tmp_path / "report.txt"
        assert run("eval", "--checkpoint", str(ckpt), "--manifest", manifest,
                   "--split", "test", "--report", str(report)) == 0
        out = capsys.readouterr().out
        assert "accuracy=" in out and "%" in out
        assert "aggregate.mean.accuracy=" in report.read_text()

        feats_path = next(dataset.glob("video000.vtaf"))
        pred_path = tmp_path / "pred.txt"
        assert run("predict", "--checkpoint", str(ckpt), "--features", str(feats_path),
                   "--out", str(pred_path), "--dump-stages") == 0
        n = load_features(feats_path).n
        segs = parse_annotation_segments(pred_path)
        assert segs[0].start == 0 and segs[-1].end == n - 1
        for a, b in zip(segs, segs[1:]):
            assert b.start == a.end + 1
        # one probability dump per stage (encoder + 1 decoder)
        for s in (0, 1):
            stage = np.loadtxt(tmp_path / f"pred.stage{s}.txt")
            assert stage.shape == (n, 3)
            np.testing.assert_allclose(stage.sum(axis=1), 1.0, atol=1e-3)

    def test_predict_feature_dim_mismatch(self, tmp_path, dataset):
        manifest = str(dataset / "manifest.tsv")
        config = write_config(tmp_path / "train.conf", epochs=1)
        ckpt = tmp_path / "model.vtck"
        assert run("train", "--manifest", manifest, "--config", str(config),
                   "--out-checkpoint", str(ckpt)) == 0
        other = tmp_path / "wide"
        spec = tmp_path / "wide.conf"
        write_spec_file(spec, SyntheticSpec(durations=[(0.05, 0.0)] * 3, feature_dim=16,
                                            separation=3.0, noise_std=0.5))
        assert run("synth", "--spec", str(spec), "--videos", "1",
                   "--out-dir", str(other)) == 0
        code = run("predict", "--checkpoint", str(ckpt),
                   "--features", str(other / "video000.vtaf"),
                   "--out", str(tmp_path / "p.txt"))
        assert code == 1

    def test_train_config_with_unknown_key(self, tmp_path, dataset):
        bad = tmp_path / "bad.conf"
        bad.write_text("momentum = 0.9\n")
        assert run("train", "--manifest", str(dataset / "manifest.tsv"),
                   "--config", str(bad), "--out-checkpoint", str(tmp_path / "c.vtck")) == 1


class TestGradcheckCommand:
    def test_passing_run(self, capsys):
        assert run("gradcheck", "--seeds", "1") == 0
        out = capsys.readouterr().out
        assert "end_to_end: max_rel_err=" in out
        assert "FAIL" not in out

    def test_corrupt_negative_control(self, capsys):
        assert run("gradcheck", "--seeds", "1", "--corrupt", "relu") == 1
        assert "FAIL" in capsys.readouterr().out

    def test_corrupt_unknown_op(self):
        assert run("gradcheck", "--seeds", "1", "--corrupt", "nothing") == 1
