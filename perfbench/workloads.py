"""The benchmark's workloads: inputs from the seed, timed operations, checks.

Each workload builds its corpus in-process from `--seed` (the set-up), then
runs closed-loop with one client: whole cycles of CLI operations, each in a
fresh child process, until `--seconds` have passed (at least one cycle).
Video lengths are fixed per workload; the seed draws the phase centroids and
the frame noise, so every seed does the same amount of work.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from tracer import TENSOR_OPS, merge

PAPER_DIM = 2048
PAPER_PHASES = 11


# ---------------------------------------------------------------------------
# corpora


def fixed_spec(D, frames, fps, dim, seed, durations=None, **kw):
    """A synthetic spec with the given phase proportions (default: the
    nephrectomy-style means) and zero duration spread, scaled to about
    `frames` frames."""
    means = [m for m, _ in (durations or D.DEFAULT_PHASE_DURATIONS)]
    scale = frames / (sum(means) * 60 * fps)
    return D.SyntheticSpec(durations=[(m * scale, 0.0) for m in means], fps=fps,
                           feature_dim=dim, centroid_seed=seed, **kw)


@dataclass
class Video:
    video_id: str
    split: str
    features: Path
    annotation: Path
    n: int
    fps: int


@dataclass
class Corpus:
    root: Path
    videos: list
    manifest: Path
    config: Path = None
    checkpoint: Path = None
    params: dict = None  # the checkpoint's arrays, kept for the oracle

    def split(self, name):
        return [v for v in self.videos if v.split == name]


def write_corpus(root, plan, seed, config_text=None):
    """plan: list of (video_id, split, SyntheticSpec); writes features,
    annotations, a manifest and optionally a training config."""
    import vitals.data as D

    root.mkdir(parents=True, exist_ok=True)
    videos, entries = [], []
    for i, (vid, split, spec) in enumerate(plan):
        features, labels = D.generate_synthetic_video(spec, seed * 1000 + i, vid)
        fpath, apath = root / f"{vid}.vtaf", root / f"{vid}.txt"
        D.save_features(fpath, features)
        D.write_annotations(apath, labels.labels)
        entries.append(D.ManifestEntry(split, fpath, apath))
        videos.append(Video(vid, split, fpath, apath, features.n, spec.fps))
    manifest = root / "manifest.tsv"
    D.write_manifest(manifest, entries)
    corpus = Corpus(root, videos, manifest)
    if config_text is not None:
        corpus.config = root / "train.cfg"
        corpus.config.write_text(config_text)
    return corpus


def timed_setup(run, build):
    """Run the set-up at least 3 times and for at least a second (the last
    one's corpus is used); returns (corpus, median seconds)."""
    times = []
    while len(times) < 3 or (sum(times) < 1.0 and len(times) < 25):
        start = time.perf_counter()
        corpus = build()
        times.append(time.perf_counter() - start)
        if run.trace:
            break
    return corpus, statistics.median(times)


# ---------------------------------------------------------------------------
# shared helpers


def loop_cycles(run, cycle, min_cycles):
    """Closed loop: whole cycles until run.seconds have passed and at least
    min_cycles have run, or an operation failed."""
    start = time.perf_counter()
    count = 0
    while count < min_cycles or time.perf_counter() - start < run.seconds:
        cycle(count, traced=False)
        count += 1
        if run.failed:
            break


def read_log(path):
    lines = path.read_text().splitlines() if path.exists() else []
    losses = [float(line.split("loss=")[1].split()[0]) for line in lines]
    return lines, losses


def check_cross_path(run, corpus, report_path, predictions, num_phases):
    """Brute-force metrics from each `vitals predict` output must equal the
    per-video `vitals eval` report exactly, for every video the contract
    leaves at full rate (at most 15000 frames)."""
    videos, _ = oracle.parse_report(report_path.read_text())
    mismatches, compared = [], 0
    for v in corpus.videos:
        if v.n > 15000 or v.video_id not in predictions:
            continue
        gt = oracle.labels_from_annotation(v.annotation)
        pred = oracle.labels_from_annotation(predictions[v.video_id])
        brute = oracle.brute_force_report(gt, pred, num_phases)
        reported = videos.get(v.video_id, {})
        compared += 1
        for key, value in brute.items():
            if reported.get(key) != f"{value:.6f}":
                mismatches.append(f"{v.video_id}.{key}: eval {reported.get(key)} vs counted {value:.6f}")
    run.check("cross-path metrics (predict output recounted == eval report)",
              compared > 0 and not mismatches,
              f"{compared} videos compared" + (f"; {mismatches[:3]}" if mismatches else ""))


def check_predictions_stable(run, outputs):
    """Repeated requests for the same video must write identical segments."""
    differing = [vid for vid, texts in outputs.items() if len(set(texts)) > 1]
    run.check("repeated predict requests identical", not differing,
              f"{sum(len(t) for t in outputs.values())} requests over {len(outputs)} videos"
              + (f"; differ: {differing}" if differing else ""))


# ---------------------------------------------------------------------------
# per-layer metrics from a traced cycle


def per_layer_metrics(run, snapshots, setup_wall, traced_cycle, untraced_cycle, probe):
    """Shares of the traced wall time (one set-up plus one traced pass),
    counts and bytes, from the spans of the parent's set-up and of every
    traced child. The overhead compares the traced pass with the untraced ones."""
    t = merge(snapshots)
    traced_wall = setup_wall + traced_cycle
    spans, counters, maxima = t["spans"], t["counters"], t["maxima"]

    def incl(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def pct(seconds):
        return 100.0 * seconds / traced_wall

    other = [op for op in TENSOR_OPS if op not in ("chunked_attention", "dilated_conv1d", "matmul")]
    recorded = {name.split(".")[1] for name in spans if name.startswith("tensor.") and name.endswith(".bwd")}
    other_bwd = [op for op in recorded if op not in ("chunked_attention", "dilated_conv1d", "matmul")]
    m = {}
    for op in ("chunked_attention", "dilated_conv1d", "matmul"):
        m[f"tensor.{op}.fwd_pct"] = (pct(self_s(f"tensor.{op}.fwd")), "%")
        m[f"tensor.{op}.bwd_pct"] = (pct(self_s(f"tensor.{op}.bwd")), "%")
    m["tensor.other_ops.fwd_pct"] = (pct(sum(self_s(f"tensor.{op}.fwd") for op in other)), "%")
    m["tensor.other_ops.bwd_pct"] = (pct(sum(self_s(f"tensor.{op}.bwd") for op in other_bwd)), "%")
    m["tensor.backward.self_pct"] = (pct(self_s("tensor.backward")), "%")
    m["tensor.op_calls"] = (counters.get("tensor.op_calls", 0), "count")
    m["tensor.tape.nodes"] = (counters.get("tensor.tape.nodes", 0), "count")
    m["tensor.tape.held_mb"] = (maxima.get("tensor.tape.held_bytes", 0) / 1e6, "MB")
    m["tensor.retained_after_step_mb"] = (probe["retained_bytes"] / 1e6, "MB")
    for name in ("forward_train", "forward_infer", "encoder", "decoder", "loss"):
        m[f"model.{name}_pct"] = (pct(incl(f"model.{name}")), "%")
    for name in ("adam_step", "save_checkpoint", "load_checkpoint", "evaluate"):
        m[f"train.{name}_pct"] = (pct(incl(f"train.{name}")), "%")
    m["train.train.self_pct"] = (pct(self_s("train.train")), "%")
    m["data.load_features_pct"] = (pct(incl("data.load_features")), "%")
    m["data.load_features_mb"] = (counters.get("data.load_features.bytes", 0) / 1e6, "MB")
    frames_in = counters.get("data.downsample.frames_in", 0)
    m["data.downsample_kept_ratio"] = (
        counters.get("data.downsample.frames_kept", 0) / frames_in if frames_in else 1.0, "ratio")
    for name in ("parse_annotations", "generate", "save_features"):
        m[f"data.{name}_pct"] = (pct(incl(f"data.{name}")), "%")
    for name in ("video_report", "aggregate"):
        m[f"metrics.{name}_pct"] = (pct(incl(f"metrics.{name}")), "%")
    m["cli.predict_pct"] = (pct(incl("cli.predict")), "%")
    m["cli.predict.self_pct"] = (pct(self_s("cli.predict")), "%")
    for name in ("import", "process_start", "process_exit"):
        m[f"cli.{name}_pct"] = (pct(incl(f"cli.{name}")), "%")
    covered = sum(s for _, _, s in spans.values())
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.coverage_pct"] = (pct(covered), "%")
    m["trace.overhead_ratio"] = (traced_cycle / untraced_cycle - 1.0, "ratio")
    run.check("traced spans cover >= 90% of traced wall time", covered >= 0.9 * traced_wall,
              f"{pct(covered):.1f}% of {traced_wall:.2f}s")
    return m


# ---------------------------------------------------------------------------
# workloads


def run_cycles(run, cycle, setup_wall, snapshots, probe, min_cycles=1, finish=None):
    """E2E mode: closed loop over cycles, then `finish` once. Trace mode:
    passes of cycle plus finish, untraced, traced, untraced (the overhead is
    taken against the mean of the two untraced passes), then the probe;
    returns the per-layer metrics."""
    finish = finish or (lambda i, traced: [])
    if not run.trace:
        loop_cycles(run, cycle, min_cycles)
        finish(0, traced=False)
        return None

    def one_pass(i, traced):
        return cycle(i, traced=traced) + finish(i, traced=traced)

    before = sum(r.wall_s for r in one_pass(0, False))
    traced_jobs = one_pass(1, True)
    untraced = (before + sum(r.wall_s for r in one_pass(2, False))) / 2
    snapshots += [r.trace for r in traced_jobs if r.trace is not None]
    probe_result = run.job(*probe)
    probe_data = probe_result.trace or {"retained_bytes": 0, "after_gc_bytes": 0}
    run.note("probe: bytes left after one step, before / after gc.collect()",
             f"{probe_data['retained_bytes'] / 1e6:.1f} / {probe_data['after_gc_bytes'] / 1e6:.1f}", "MB")
    return per_layer_metrics(run, snapshots, setup_wall,
                             sum(r.wall_s for r in traced_jobs), untraced, probe_data)


def end_to_end(run, setup_s, frames, frame_walls, latencies, jobs):
    """frames_per_s is `frames` over the median of `frame_walls`."""
    run.note("latency samples", " ".join(f"{x:.3f}" for x in latencies), "s")
    return {
        "setup_s": (setup_s, "s"),
        "frames_per_s": (frames / statistics.median(frame_walls), "frames/s"),
        "latency_s_p50": (statistics.median(latencies), "s"),
        "peak_rss_mb": (max(r.peak_rss_mb for r in jobs), "MB"),
    }


def check_training(run, logs, checkpoints, epochs):
    """Same seed and inputs: identical log lines and byte-identical checkpoints
    from every training job of the run; the log has one finite loss per epoch."""
    lines, losses = logs[0]
    run.check("training log: one finite loss per epoch",
              len(losses) == epochs and all(np.isfinite(losses)), f"{len(losses)} epochs")
    same_logs = all(log[0] == lines for log in logs)
    same_ckpt = all(c is not None and c == checkpoints[0] for c in checkpoints)
    run.check("same-seed training jobs: identical logs and byte-identical checkpoints",
              same_logs and same_ckpt, f"{len(logs)} jobs; logs {same_logs}, checkpoints {same_ckpt}")
    return losses


def train_paper(run, seed, tracer):
    """Paper config (d=2048, h=64, L=10, N=3, K=11), one epoch over 4 videos."""
    import vitals.data as D
    import vitals.train as TR

    lengths = (2000, 2400, 2800, 3200)
    epochs = 1

    def build():
        plan = [(f"video{i}", "train", fixed_spec(D, n, 1, PAPER_DIM, seed))
                for i, n in enumerate(lengths)]
        return write_corpus(run.work / "corpus", plan, seed,
                            f"epochs = {epochs}\nseed = {seed}\nphases = {PAPER_PHASES}\n")

    corpus, setup_s = timed_setup(run, build)
    snapshots = [tracer.snapshot()] if tracer else []
    frames = sum(v.n for v in corpus.videos) * epochs
    jobs, logs, checkpoints = [], [], []

    def cycle(i, traced):
        ckpt, log = run.work / f"{i}.vtck", run.work / f"{i}.log"
        r = run.cli("train", "--manifest", corpus.manifest, "--config", corpus.config,
                    "--out-checkpoint", ckpt, "--log", log, traced=traced)
        logs.append(read_log(log))
        checkpoints.append(ckpt.read_bytes() if ckpt.exists() else None)
        ckpt.unlink(missing_ok=True)
        jobs.append(r)
        return [r]

    # at least two jobs: same seed, same inputs, so a determinism pair
    layers = run_cycles(run, cycle, setup_s, snapshots,
                        ("probe-train", [corpus.manifest, corpus.config]), min_cycles=2)
    losses = check_training(run, logs, checkpoints, epochs)
    if checkpoints[0] is not None:
        path = run.work / "check.vtck"
        path.write_bytes(checkpoints[0])
        ck = TR.load_checkpoint(path)
        run.check("checkpoint loads at paper config",
                  ck.epoch == epochs and ck.model_config.num_phases == PAPER_PHASES
                  and ck.params["input_proj.weight"].shape == (PAPER_DIM, 64), f"epoch {ck.epoch}")
    if losses:
        run.note("train_loss_final", losses[-1], "nats")
    run.note("training frames per job", frames, "frames")
    if layers is not None:
        return layers
    ok = [r for r in jobs if r.ok] or jobs
    return end_to_end(run, setup_s, frames, [r.wall_s for r in ok], [r.wall_s for r in ok], jobs)


def train_small(run, seed, tracer):
    """CI-sized model (d=16, h=16, L=4, N=2, K=4), 60 epochs on 4 noisy
    videos, then `vitals eval` and `vitals predict` on 2 held-out videos."""
    import vitals.data as D
    import vitals.train as TR

    epochs = 60

    def build():
        plan = [(f"video{i}", "train" if i < 4 else "test",
                 fixed_spec(D, 240, 1, 16, seed, durations=[(1.0, 0.3)] * 4,
                            separation=2.0, noise_std=2.0))
                for i in range(6)]
        return write_corpus(run.work / "corpus", plan, seed,
                            f"epochs = {epochs}\nseed = {seed}\nlayers = 4\ndecoders = 2\n"
                            f"hidden_dim = 16\nphases = 4\n")

    corpus, setup_s = timed_setup(run, build)
    snapshots = [tracer.snapshot()] if tracer else []
    frames = sum(v.n for v in corpus.split("train")) * epochs
    train_jobs, all_jobs, logs, checkpoints = [], [], [], []
    outputs, accuracies = {}, []
    last = {}

    def cycle(i, traced):
        done = []
        ckpt, log, report = run.work / f"{i}.vtck", run.work / f"{i}.log", run.work / f"{i}.report"
        r = run.cli("train", "--manifest", corpus.manifest, "--config", corpus.config,
                    "--out-checkpoint", ckpt, "--log", log, traced=traced)
        train_jobs.append(r)
        done.append(r)
        logs.append(read_log(log))
        checkpoints.append(ckpt.read_bytes() if ckpt.exists() else None)
        done.append(run.cli("eval", "--checkpoint", ckpt, "--manifest", corpus.manifest,
                            "--split", "test", "--report", report, traced=traced))
        predictions = {}
        for v in corpus.split("test"):
            out = run.work / f"{i}.{v.video_id}.pred"
            done.append(run.cli("predict", "--checkpoint", ckpt, "--features", v.features,
                                "--out", out, traced=traced))
            outputs.setdefault(v.video_id, []).append(out.read_text() if out.exists() else None)
            predictions[v.video_id] = out
        if report.exists():
            accuracies.append(float(oracle.parse_report(report.read_text())[1]["mean.accuracy"]))
        last.update(ckpt=ckpt, report=report, predictions=predictions)
        all_jobs.extend(done)
        return done

    layers = run_cycles(run, cycle, setup_s, snapshots,
                        ("probe-train", [corpus.manifest, corpus.config]))
    losses = check_training(run, logs, checkpoints, epochs)
    run.check("training lowers the loss", len(losses) == epochs and losses[-1] < losses[0],
              f"{losses[0]:.4f} -> {losses[-1]:.4f}" if losses else "no log")
    if last["ckpt"].exists():
        ck = TR.load_checkpoint(last["ckpt"])
        again = run.work / "roundtrip.vtck"
        TR.save_checkpoint(again, ck)
        back = TR.load_checkpoint(again)
        exact = (again.read_bytes() == last["ckpt"].read_bytes()
                 and all(np.array_equal(back.params[k], ck.params[k]) for k in ck.params)
                 and back.adam.t == ck.adam.t and back.rng_state == ck.rng_state)
        run.check("checkpoint round-trips exactly through load and save", exact)
    # held-out accuracy is about 93-98% across seeds; chance is 25%
    run.check("held-out accuracy >= 80%", accuracies and min(accuracies) >= 80.0,
              f"{accuracies[-1]:.2f}%" if accuracies else "no report")
    if last["report"].exists():
        check_cross_path(run, corpus, last["report"], last["predictions"], 4)
    check_predictions_stable(run, outputs)
    if losses:
        run.note("train_loss_final", losses[-1], "nats")
    if accuracies:
        run.note("heldout_accuracy", accuracies[-1], "%")
    if layers is not None:
        return layers
    ok = [r for r in train_jobs if r.ok] or train_jobs
    return end_to_end(run, setup_s, frames, [r.wall_s for r in ok], [r.wall_s for r in ok],
                      all_jobs)


def infer_paper(run, seed, tracer):
    """Paper config from a seeded `init_params` checkpoint: `vitals predict`
    requests on fps=1 videos of at most 15000 frames, then one `vitals eval`
    over those plus fps=3 videos that are downsampled to 15000 frames."""
    import vitals.data as D
    import vitals.model as M
    import vitals.train as TR

    short = (8000, 8000)
    long = (21000, 22500)
    config = M.ModelConfig(num_phases=PAPER_PHASES)

    def build():
        plan = [(f"video{i}", "test", fixed_spec(D, n, 1, PAPER_DIM, seed)) for i, n in enumerate(short)]
        plan += [(f"long{i}", "test", fixed_spec(D, n, 3, PAPER_DIM, seed)) for i, n in enumerate(long)]
        corpus = write_corpus(run.work / "corpus", plan, seed)
        params = {k: p.data for k, p in M.init_params(config, seed).items()}
        corpus.checkpoint = corpus.root / "init.vtck"
        TR.save_checkpoint(corpus.checkpoint, TR.Checkpoint(model_config=config, params=params))
        corpus.params = params
        return corpus

    corpus, setup_s = timed_setup(run, build)
    snapshots = [tracer.snapshot()] if tracer else []
    fps1 = [v for v in corpus.videos if v.fps == 1]
    source_frames = sum(v.n for v in corpus.videos)
    predict_jobs, eval_jobs, all_jobs = [], [], []
    outputs, predictions = {}, {}
    report = run.work / "eval.report"

    def cycle(i, traced):
        done = []
        for v in fps1:
            out = run.work / f"{i}.{v.video_id}.pred"
            done.append(run.cli("predict", "--checkpoint", corpus.checkpoint, "--features",
                                v.features, "--out", out, traced=traced))
            outputs.setdefault(v.video_id, []).append(out.read_text() if out.exists() else None)
            predictions[v.video_id] = out
        predict_jobs.extend(done)
        all_jobs.extend(done)
        return done

    def finish(i, traced):
        r = run.cli("eval", "--checkpoint", corpus.checkpoint, "--manifest", corpus.manifest,
                    "--split", "test", "--report", report, traced=traced)
        eval_jobs.append(r)
        all_jobs.append(r)
        return [r]

    layers = run_cycles(run, cycle, setup_s, snapshots,
                        ("probe-infer", [corpus.checkpoint, fps1[0].features]), finish=finish)

    # outside the timed region: the oracle on the shortest video
    v = fps1[0]
    out = run.work / "oracle.pred"
    r = run.cli("predict", "--checkpoint", corpus.checkpoint, "--features", v.features,
                "--out", out, "--dump-stages")
    if r.ok:
        stage_probs = [np.loadtxt(out.with_name(f"oracle.stage{s}.txt"), dtype=np.float64)
                       for s in range(config.num_decoders + 1)]
        labels = oracle.labels_from_annotation(out)
        features = D.load_features(v.features).data
        ref = oracle.reference_forward(features, corpus.params,
                                       config.num_layers, config.num_decoders)
        problems = oracle.compare_to_reference(ref, stage_probs, labels)
        worst = max(float(np.abs(a - b).max()) for a, b in zip(ref, stage_probs))
        run.check(f"predict matches the numpy reference forward on {v.video_id} "
                  f"(probabilities within {oracle.PROB_TOL:.0e}, rows sum to 1 within "
                  f"{oracle.ROW_SUM_TOL:.0e})", not problems,
                  f"max deviation {worst:.1e}" + (f"; {problems}" if problems else ""))
        run.check("timed predict output equals the oracle run's labels",
                  outputs[v.video_id][0] == out.read_text())
        caught_prob, caught_label = oracle.negative_controls(ref, stage_probs, labels)
        run.check("negative controls: perturbed probability and flipped label are rejected",
                  caught_prob and caught_label, f"probability {caught_prob}, label {caught_label}")
    else:
        run.check("oracle predict run", False)
    if report.exists():
        check_cross_path(run, corpus, report, predictions, PAPER_PHASES)
    check_predictions_stable(run, outputs)
    run.note("predict requests timed", len(predict_jobs), "count")
    if layers is not None:
        return layers
    ok_eval = [r for r in eval_jobs if r.ok] or eval_jobs
    ok_pred = [r for r in predict_jobs if r.ok] or predict_jobs
    return end_to_end(run, setup_s, source_frames, [r.wall_s for r in ok_eval],
                      [r.wall_s for r in ok_pred], all_jobs)


WORKLOADS = {"train_paper": train_paper, "train_small": train_small, "infer_paper": infer_paper}
