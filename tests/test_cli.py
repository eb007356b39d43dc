import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vitals
import vitals.cli
import vitals.data
import vitals.train
from vitals import metrics as M
from vitals.cli import main, read_spec_file, write_spec_file
from vitals.data import (SyntheticSpec, load_features, load_manifest,
                         parse_annotation_segments)
from vitals.errors import ConfigError


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
        lambda m: {**m, "model_config": {**m["model_config"], "input_dim": -4}},
        lambda m: {**m, "model_config": {**m["model_config"], "input_dim": 2**64}},
        lambda m: {**m, "model_config": {**m["model_config"], "hidden_dim": 2.5}},
    ], ids=["no_param_names", "unknown_config_key", "list_metadata", "negative_input_dim",
            "huge_input_dim", "fractional_hidden_dim"])
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
        lambda m: {**m, "param_names": ["x"]},
    ], ids=["text_epoch", "negative_epoch", "bad_rng_state", "wrong_param_names"])
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
        ({"seed": -1}, "seed must be >= 0"),
    ], ids=["nan_learning_rate", "negative_weight_decay", "dropout_above_one", "negative_seed"])
    def test_bad_train_config(self, tmp_path, dataset, capsys, kw, message):
        config = write_config(tmp_path / "t.conf", **kw)
        assert run("train", "--manifest", str(dataset / "manifest.tsv"), "--config",
                   str(config), "--out-checkpoint", str(tmp_path / "c.vtck")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "c.vtck").exists()

    def test_model_above_size_limit(self, tmp_path, dataset, capsys, monkeypatch):
        # the config is refused before its 2.8e12 parameter values would exist;
        # init_params raises, so the test allocates nothing even without the check
        def no_params(config, seed=0):
            raise AssertionError("init_params reached")

        monkeypatch.setattr(vitals.train, "init_params", no_params)
        config = write_config(tmp_path / "t.conf", epochs=1, layers=10, decoders=3,
                              hidden_dim=100000)
        assert run("train", "--manifest", str(dataset / "manifest.tsv"), "--config",
                   str(config), "--out-checkpoint", str(tmp_path / "c.vtck")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "above the limit of 1073741824" in err
        assert "Traceback" not in err
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
        ("separation = nan", "separation"),
        ("noise_std = inf", "noise_std"),
        ("phase.2 = inf,1", "duration"),
        ("phase.2 = nan,1", "duration"),
        ("phase.2 = 1,0,2", "skip"),
        ("phase.2 = 1e300,0", "above the limit"),
        ("phase.2 = 1e6,0", "phase 2: 60000000 frames"),
    ], ids=["negative_fps", "text_fps", "nan_separation", "inf_noise", "inf_duration",
            "nan_duration", "skip_above_one", "duration_1e300", "duration_1e6"])
    def test_bad_spec(self, tmp_path, capsys, line, message):
        spec = tmp_path / "spec.conf"
        spec.write_text(f"{line}\nphase.0 = 1,0\nphase.1 = 1,0\n")
        assert run("synth", "--spec", str(spec), "--videos", "1",
                   "--out-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_spec_centroids_above_size_limit(self, tmp_path, capsys, monkeypatch):
        # the spec is refused before its 2^30 x 2 centroid matrix would exist;
        # phase_centroids raises, so the test allocates nothing even without the check
        def no_centroids(spec):
            raise AssertionError("phase_centroids reached")

        monkeypatch.setattr(vitals.data, "phase_centroids", no_centroids)
        spec = tmp_path / "spec.conf"
        spec.write_text("feature_dim = 1073741824\nphase.0 = 1,0\nphase.1 = 1,0\n")
        assert run("synth", "--spec", str(spec), "--videos", "1",
                   "--out-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "feature_dim 1073741824 x 2 phases" in err
        assert "Traceback" not in err

    def test_non_finite_features(self, tmp_path, dataset, capsys):
        feats = dataset / "video000.vtaf"
        blob = bytearray(feats.read_bytes())
        blob[-4:] = np.float32(np.nan).tobytes()
        feats.write_bytes(bytes(blob))
        assert run("train", "--manifest", str(dataset / "manifest.tsv"), "--config",
                   str(write_config(tmp_path / "t.conf")),
                   "--out-checkpoint", str(tmp_path / "c.vtck")) == 1
        assert "non-finite feature value" in capsys.readouterr().err
        assert not (tmp_path / "c.vtck").exists()

    def test_dim_mismatch_names_both_videos(self, tmp_path, capsys):
        # the manifest lists the odd video first; train() checks in video id order
        from vitals.data import (FeatureSequence, ManifestEntry, save_features,
                                 write_annotations, write_manifest)
        entries = []
        for vid, d in (("zz_odd", 8), ("a_good", 4), ("b_good", 4)):
            fpath, apath = tmp_path / f"{vid}.vtaf", tmp_path / f"{vid}.txt"
            save_features(fpath, FeatureSequence(vid, np.ones((12, d))))
            write_annotations(apath, np.arange(12) * 3 // 12)
            entries.append(ManifestEntry("train", fpath, apath))
        write_manifest(tmp_path / "manifest.tsv", entries)
        ckpt = tmp_path / "c.vtck"
        assert run("train", "--manifest", str(tmp_path / "manifest.tsv"), "--config",
                   str(write_config(tmp_path / "t.conf")), "--out-checkpoint", str(ckpt)) == 1
        assert capsys.readouterr().err == ("error: video zz_odd: feature dim 8 != model "
                                           "input_dim 4, the feature dim of video a_good\n")
        assert not ckpt.exists()

    @pytest.mark.parametrize("change", ["frames", "dim", "removed"])
    def test_feature_file_changed_mid_run(self, tmp_path, dataset, capsys, monkeypatch, change):
        path = dataset / "video000.vtaf"
        seq = load_features(path)
        adam_step, steps = vitals.train.adam_step, []

        def step_then_change(*args, **kwargs):
            adam_step(*args, **kwargs)
            if not steps:  # every video is read again in epoch 2
                if change == "removed":
                    path.unlink()
                else:
                    data = (np.vstack([seq.data, seq.data[:1]]) if change == "frames"
                            else np.hstack([seq.data, seq.data]))
                    vitals.data.save_features(path, vitals.data.FeatureSequence("video000", data))
            steps.append(1)

        monkeypatch.setattr(vitals.train, "adam_step", step_then_change)
        ckpt = tmp_path / "c.vtck"
        assert run("train", "--manifest", str(dataset / "manifest.tsv"), "--config",
                   str(write_config(tmp_path / "t.conf", epochs=2)),
                   "--out-checkpoint", str(ckpt)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert ("No such file" if change == "removed"
                else "feature file changed since the run started") in err
        assert not ckpt.exists()

    def test_bad_video_mid_split(self, tmp_path, dataset, capsys):
        ckpt = tmp_path / "model.vtck"
        assert run("train", "--manifest", str(dataset / "manifest.tsv"), "--config",
                   str(write_config(tmp_path / "t.conf", epochs=1)),
                   "--out-checkpoint", str(ckpt)) == 0
        bad = dataset / "video001.txt"  # the second of four train videos
        lines = bad.read_text().splitlines()
        lines[0] = "7," + lines[0].split(",", 1)[1]  # no phase 7 in a 3-phase model
        bad.write_text("\n".join(lines) + "\n")
        report = tmp_path / "r.txt"
        assert run("eval", "--checkpoint", str(ckpt), "--manifest", str(dataset / "manifest.tsv"),
                   "--split", "train", "--report", str(report)) == 1
        assert "video001.txt: phase 7 out of range" in capsys.readouterr().err
        assert not report.exists()

    def test_incomplete_optimizer_state(self, tmp_path, dataset, capsys,
                                        rewrite_checkpoint_records):
        ckpt = tmp_path / "model.vtck"
        assert run("train", "--manifest", str(dataset / "manifest.tsv"), "--config",
                   str(write_config(tmp_path / "t.conf", epochs=1)),
                   "--out-checkpoint", str(ckpt)) == 0
        rewrite_checkpoint_records(ckpt, lambda records: records.pop(
            [name for name, _ in records].index("adam.m:fusion.weight")))
        code = run("predict", "--checkpoint", str(ckpt),
                   "--features", str(dataset / "video000.vtaf"), "--out", str(tmp_path / "p.txt"))
        assert code == 1
        assert "expected tensor 'adam.m:fusion.weight'" in capsys.readouterr().err


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

    def test_synth_without_required_args(self, tmp_path, capsys):
        assert run("synth", "--videos", "3") == 1
        spec = tmp_path / "spec.conf"
        write_spec_file(spec, SyntheticSpec(durations=[(0.05, 0.0)] * 3, feature_dim=4))
        for flag, value in [("--train-fraction", "inf"), ("--train-fraction", "nan"),
                            ("--train-fraction", "-1"), ("--train-fraction", "2"),
                            ("--seed", "-1")]:
            capsys.readouterr()
            assert run("synth", "--spec", str(spec), "--videos", "3", "--out-dir",
                       str(tmp_path / "out"), flag, value) == 1
            assert capsys.readouterr().err.startswith(f"error: {flag} must be")
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fraction", ["0", "0.5", "1"])
    def test_one_video_goes_to_train(self, tmp_path, fraction):
        spec = tmp_path / "spec.conf"
        write_spec_file(spec, SyntheticSpec(durations=[(0.05, 0.0)] * 3, feature_dim=4))
        assert run("synth", "--spec", str(spec), "--videos", "1", "--out-dir",
                   str(tmp_path / "out"), "--train-fraction", fraction) == 0
        assert [e.split for e in load_manifest(tmp_path / "out" / "manifest.tsv")] == ["train"]

    def test_holds_one_video_at_a_time(self, tmp_path, traced_peak):
        # two equal videos of 300 frames x 256 values; generating one holds
        # its phase blocks and the video (2x), and the video before it is gone
        spec = tmp_path / "spec.conf"
        write_spec_file(spec, SyntheticSpec(durations=[(100 / 60, 0.0)] * 3, feature_dim=256))
        out = tmp_path / "out"
        _, peak = traced_peak(lambda: run("synth", "--spec", str(spec), "--videos", "2",
                                          "--out-dir", str(out)))
        payload = load_features(out / "video000.vtaf").data.nbytes
        assert payload == 300 * 256 * 4
        assert load_features(out / "video001.vtaf").n == 300
        assert peak < 2.5 * payload  # 3x while video i stayed alive during video i+1

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
    def test_missing_checkpoint_directory_fails_before_training(self, tmp_path, dataset,
                                                               capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(vitals.cli, "load_manifest", lambda *a: calls.append("load"))
        monkeypatch.setattr(vitals.cli, "train", lambda *a, **k: calls.append("train"))
        ckpt = tmp_path / "nodir" / "c.vtck"
        assert run("train", "--manifest", str(dataset / "manifest.tsv"), "--config",
                   str(write_config(tmp_path / "t.conf")), "--out-checkpoint", str(ckpt)) == 1
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out-checkpoint {ckpt}: ")

    @pytest.mark.parametrize("command,inputs,flag", [
        ("eval", ["--manifest", "m.tsv", "--split", "test"], "--report"),
        ("predict", ["--features", "f.vtaf", "--dump-stages"], "--out"),
    ], ids=["eval", "predict"])
    def test_missing_output_directory_fails_before_loading(self, tmp_path, command, inputs,
                                                           flag, capsys, monkeypatch):
        calls = []
        for name in ("load_checkpoint", "load_features", "evaluate", "infer"):
            monkeypatch.setattr(vitals.cli, name, lambda *a, name=name: calls.append(name))
        out = tmp_path / "nodir" / "o.txt"
        assert run(command, "--checkpoint", "c.vtck", *inputs, flag, str(out)) == 1
        assert calls == []
        assert capsys.readouterr().err.startswith(f"error: {flag} {out}: no directory ")

    def test_eval_succeeds_on_an_ascii_stdout(self, tmp_path, dataset):
        # the summary line's '±' cannot be encoded; the finished eval must exit 0
        manifest = str(dataset / "manifest.tsv")
        ckpt = tmp_path / "model.vtck"
        assert run("train", "--manifest", manifest, "--config",
                   str(write_config(tmp_path / "t.conf", epochs=1)),
                   "--out-checkpoint", str(ckpt)) == 0
        src = str(Path(vitals.__file__).parent.parent)
        outputs = {}
        for encoding in ("utf-8", "ascii"):
            report = tmp_path / f"report-{encoding}.txt"
            env = {**os.environ, "PYTHONIOENCODING": encoding,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            proc = subprocess.run([sys.executable, "-m", "vitals.cli", "eval", "--checkpoint",
                                   str(ckpt), "--manifest", manifest, "--split", "test",
                                   "--report", str(report)], env=env, capture_output=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == b""
            outputs[encoding] = proc.stdout, report.read_bytes()
        (utf8_out, utf8_report), (ascii_out, ascii_report) = outputs["utf-8"], outputs["ascii"]
        assert ascii_report == utf8_report
        assert "±".encode() in utf8_out
        assert ascii_out == utf8_out.replace("±".encode(), b"\\xb1")

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

    def test_eval_writes_the_final_stage(self, tmp_path, dataset, capsys):
        manifest = str(dataset / "manifest.tsv")
        ckpt = tmp_path / "model.vtck"
        assert run("train", "--manifest", manifest, "--config",
                   str(write_config(tmp_path / "train.conf", decoders=2)),
                   "--out-checkpoint", str(ckpt)) == 0
        report = tmp_path / "report.txt"
        capsys.readouterr()
        assert run("eval", "--checkpoint", str(ckpt), "--manifest", manifest,
                   "--split", "train", "--report", str(report)) == 0
        result = vitals.train.evaluate(vitals.train.load_checkpoint(ckpt), manifest, "train")
        assert len(result.reports) == 3
        assert report.read_text() == M.format_report(result.reports[-1], result.aggregates[-1])
        assert capsys.readouterr().out == M.summary_line(result.aggregates[-1]) + "\n"

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

    def test_train_reads_each_feature_file_once(self, tmp_path, dataset, monkeypatch):
        loaded = []

        def counting(path):
            loaded.append(path)
            return load_features(path)
        for module in (vitals.cli, vitals.train):
            monkeypatch.setattr(module, "load_features", counting)
        assert run("train", "--manifest", str(dataset / "manifest.tsv"), "--config",
                   str(write_config(tmp_path / "t.conf", epochs=1)),
                   "--out-checkpoint", str(tmp_path / "c.vtck")) == 0
        train_paths = [e.feature_path for e in load_manifest(dataset / "manifest.tsv")
                       if e.split == "train"]
        # one epoch, one step per video: read for the forward, and again for
        # the input projection's gradient
        assert sorted(loaded) == sorted(2 * train_paths)

    def test_train_config_with_unknown_key(self, tmp_path, dataset):
        bad = tmp_path / "bad.conf"
        bad.write_text("momentum = 0.9\n")
        assert run("train", "--manifest", str(dataset / "manifest.tsv"),
                   "--config", str(bad), "--out-checkpoint", str(tmp_path / "c.vtck")) == 1


class TestBenchmarkTracer:
    def test_traced_eval_downsamples(self, tmp_path):
        """perfbench/child.py replaces the traced vitals functions with
        wrappers of the same calling form (`load_features(path)`) and then
        runs the CLI; an eval that downsamples a video must pass through them
        and report what an untraced eval reports."""
        from vitals.data import (FeatureSequence, ManifestEntry, save_features,
                                 write_annotations, write_manifest)
        from vitals.model import ModelConfig, init_params
        from vitals.train import Checkpoint, save_checkpoint

        rng = np.random.default_rng(0)
        entries = []
        for vid, n in (("long", vitals.data.DOWNSAMPLE_LIMIT + 1), ("short", 40)):
            fpath, apath = tmp_path / f"{vid}.vtaf", tmp_path / f"{vid}.txt"
            save_features(fpath, FeatureSequence(vid, rng.standard_normal((n, 4))))
            write_annotations(apath, np.arange(n) * 3 // n)
            entries.append(ManifestEntry("test", fpath, apath))
        write_manifest(tmp_path / "manifest.tsv", entries)
        config = ModelConfig(num_phases=3, input_dim=4, hidden_dim=8, num_layers=2,
                             num_decoders=1)
        params = {k: p.data for k, p in init_params(config, 0).items()}
        ckpt = tmp_path / "init.vtck"
        save_checkpoint(ckpt, Checkpoint(model_config=config, params=params))

        def eval_args(report):
            return ["eval", "--checkpoint", str(ckpt), "--manifest",
                    str(tmp_path / "manifest.tsv"), "--split", "test", "--report", str(report)]

        child = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
        src = str(Path(vitals.__file__).parent.parent)
        trace = tmp_path / "trace.json"
        proc = subprocess.run([sys.executable, str(child), src, str(trace), "cli",
                               *eval_args(tmp_path / "traced.txt")], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        snapshot = json.loads(trace.read_text())
        assert snapshot["counters"]["data.downsample.frames_in"] == vitals.data.DOWNSAMPLE_LIMIT + 1
        assert "train.evaluate" in snapshot["spans"]
        assert run(*eval_args(tmp_path / "plain.txt")) == 0
        assert (tmp_path / "traced.txt").read_bytes() == (tmp_path / "plain.txt").read_bytes()

    def test_traced_train_downsamples(self, tmp_path):
        """Training through perfbench/child.py reads every step's features
        through the tracer's wrappers and writes the checkpoint an untraced
        run writes."""
        from vitals.data import (FeatureSequence, ManifestEntry, save_features,
                                 write_annotations, write_manifest)

        rng = np.random.default_rng(0)
        entries = []
        for vid, n in (("long", vitals.data.DOWNSAMPLE_LIMIT + 1), ("short", 40)):
            fpath, apath = tmp_path / f"{vid}.vtaf", tmp_path / f"{vid}.txt"
            save_features(fpath, FeatureSequence(vid, rng.standard_normal((n, 4))))
            write_annotations(apath, np.arange(n) * 3 // n)
            entries.append(ManifestEntry("train", fpath, apath))
        write_manifest(tmp_path / "manifest.tsv", entries)
        config = write_config(tmp_path / "t.conf", layers=1, hidden_dim=4)

        def train_args(ckpt):
            return ["train", "--manifest", str(tmp_path / "manifest.tsv"), "--config",
                    str(config), "--out-checkpoint", str(ckpt)]

        child = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
        src = str(Path(vitals.__file__).parent.parent)
        trace = tmp_path / "trace.json"
        proc = subprocess.run([sys.executable, str(child), src, str(trace), "cli",
                               *train_args(tmp_path / "traced.vtck")],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        snapshot = json.loads(trace.read_text())
        assert snapshot["counters"]["data.downsample.frames_in"] == vitals.data.DOWNSAMPLE_LIMIT + 1
        # the short video, twice per step (forward and gradient), once per epoch
        assert snapshot["spans"]["data.load_features"][0] == 4
        assert snapshot["spans"]["model.forward_train"][0] == 4
        assert run(*train_args(tmp_path / "plain.vtck")) == 0
        assert (tmp_path / "traced.vtck").read_bytes() == (tmp_path / "plain.vtck").read_bytes()


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
