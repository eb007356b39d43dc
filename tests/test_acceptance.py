"""End-to-end acceptance suite.

Each test exercises one advertised guarantee of the package on synthetic
data and prints a single PASS/FAIL line (visible even under output capture).
Training-based criteria use small fixed-seed setups chosen to finish in
seconds on a laptop CPU; every run is deterministic.
"""

import time

import numpy as np
import pytest

from vitals import gradcheck as gc
from vitals.data import (ManifestEntry, SyntheticSpec, downsample_indices,
                         generate_synthetic_video, save_features, segments_from_labels,
                         write_annotations)
from vitals.metrics import video_report
from vitals.model import ModelConfig, init_params, model_forward
from vitals.tensor import Tensor, chunked_attention
from vitals.train import TrainConfig, load_checkpoint, save_checkpoint
from vitals.train import train as run_train


@pytest.fixture
def announce(capsys):
    def _announce(criterion, ok, detail):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
        assert ok, f"{criterion}: {detail}"

    return _announce


def make_dataset(tmp_path, spec, video_seeds, test_seeds=()):
    entries = []
    for seed in list(video_seeds) + list(test_seeds):
        vid = f"v{seed}"
        feats, labels = generate_synthetic_video(spec, seed, vid)
        save_features(tmp_path / f"{vid}.vtaf", feats)
        write_annotations(tmp_path / f"{vid}.txt", labels.labels)
        entries.append(ManifestEntry("train" if seed in video_seeds else "test",
                                     tmp_path / f"{vid}.vtaf", tmp_path / f"{vid}.txt"))
    return entries


def test_c1_gradient_correctness(announce):
    start = time.perf_counter()
    results = gc.run_suite(seeds=10)
    elapsed = time.perf_counter() - start
    worst_name, worst = max(results.items(), key=lambda kv: kv[1])
    ok = worst < 1e-3 and elapsed < 60.0
    announce("gradient correctness",
             ok, f"max rel err {worst:.2e} ({worst_name}), {len(results)} checks "
                 f"x 10 seeds in {elapsed:.1f}s")


def test_c2_shape_and_normalization_contract(announce):
    config = ModelConfig(num_phases=7)  # defaults: d=2048, h=64, L=10, N=3
    rng = np.random.default_rng(0)
    E = Tensor(rng.standard_normal((128, 2048)).astype(np.float32))
    preds = model_forward(E, init_params(config, 0), config)
    shapes_ok = (preds.num_stages == 4
                 and all(p.data.shape == (128, 7) for p in preds.probs))
    row_err = max(float(np.abs(p.data.sum(axis=1) - 1.0).max()) for p in preds.probs)
    ok = shapes_ok and row_err <= 1e-5
    announce("shape/normalization contract",
             ok, f"4 stages of 128x7, max row-sum deviation {row_err:.1e}")


def test_c3_overfit_capability(announce, tmp_path):
    spec = SyntheticSpec(durations=[(1.25, 0.25)] * 4, fps=1, feature_dim=32,
                         separation=4.0, noise_std=1.0)
    entries = make_dataset(tmp_path, spec, video_seeds=range(100, 105))
    config = ModelConfig(num_phases=4, input_dim=32, hidden_dim=32,
                         num_layers=6, num_decoders=2, dropout_rate=0.3)
    start = time.perf_counter()
    _, log = run_train(entries, config, TrainConfig(epochs=200, seed=3))
    elapsed = time.perf_counter() - start
    acc = float(log[-1].split("acc_final=")[1])
    ok = acc >= 0.95 and elapsed < 600.0
    announce("overfit capability",
             ok, f"final-stage train accuracy {acc:.3f} after 200 epochs ({elapsed:.0f}s)")


def _noisy_run(tmp_path, seed, smooth_weight, epochs):
    """Train on 4 noisy videos, return per-stage stats on 2 held-out ones."""
    spec = SyntheticSpec(durations=[(1.0, 0.3)] * 4, fps=1, feature_dim=16,
                         separation=2.0, noise_std=2.0)
    work = tmp_path / f"s{seed}w{smooth_weight}"
    work.mkdir()
    entries = make_dataset(work, spec, video_seeds=[seed * 10 + i for i in range(4)],
                           test_seeds=[seed * 10 + 7, seed * 10 + 8])
    config = ModelConfig(num_phases=4, input_dim=16, hidden_dim=16, num_layers=4,
                         num_decoders=2, dropout_rate=0.3, smooth_weight=smooth_weight)
    ckpt, _ = run_train(entries, config, TrainConfig(epochs=epochs, seed=seed))
    params = {k: Tensor(a) for k, a in ckpt.params.items()}

    acc0, accf, segerr0, segerrf, segs_all = [], [], [], [], 0
    for seed_t in (seed * 10 + 7, seed * 10 + 8):
        feats, labels = generate_synthetic_video(spec, seed_t, f"v{seed_t}")
        preds = model_forward(Tensor(feats.data), params, config, training=False)
        p0, pf = preds.argmax(0), preds.argmax(-1)
        gt_segs = len(segments_from_labels(labels.labels))
        acc0.append(float((p0 == labels.labels).mean()))
        accf.append(float((pf == labels.labels).mean()))
        segerr0.append(abs(len(segments_from_labels(p0)) - gt_segs))
        segerrf.append(abs(len(segments_from_labels(pf)) - gt_segs))
        for s in range(preds.num_stages):
            segs_all += len(segments_from_labels(preds.argmax(s)))
    return (np.mean(acc0), np.mean(accf), np.mean(segerr0), np.mean(segerrf), segs_all)


def test_c4_refinement_direction(announce, tmp_path):
    stats = [_noisy_run(tmp_path, seed, smooth_weight=0.15, epochs=60)
             for seed in range(10)]
    med = [float(np.median([s[i] for s in stats])) for i in range(4)]
    ok = med[1] >= med[0] and med[3] <= med[2]
    announce("refinement direction",
             ok, f"held-out median over 10 seeds: accuracy stage0 {med[0]:.3f} -> "
                 f"final {med[1]:.3f}; segment-count error {med[2]:.2f} -> {med[3]:.2f}")


def test_c5_smoothing_loss_effect(announce, tmp_path):
    with_smooth = [_noisy_run(tmp_path, seed, smooth_weight=0.15, epochs=25)[4]
                   for seed in range(10)]
    without = [_noisy_run(tmp_path, seed, smooth_weight=0.0, epochs=25)[4]
               for seed in range(10)]
    med_s, med_0 = float(np.median(with_smooth)), float(np.median(without))
    ok = med_s <= med_0
    announce("smoothing-loss effect",
             ok, f"median predicted segments over all stages at matched epochs: "
                 f"{med_s:.1f} with smoothing vs {med_0:.1f} without")


def test_c6_metrics_oracle_equivalence(announce):
    # worked example
    r = video_report([0, 0, 1, 1], [0, 1, 1, 1], 2)
    worked_ok = r.accuracy == 0.75 and abs(r.precision_macro - 5 / 6) < 1e-12

    rng = np.random.default_rng(42)
    mismatches = 0
    for _ in range(1000):
        K = int(rng.integers(2, 7))
        n = int(rng.integers(1, 120))
        gt = rng.integers(0, K, size=n)
        pred = rng.integers(0, K, size=n)
        rep = video_report(gt, pred, K)
        prs, res, jas = [], [], []
        for k in range(K):
            tp = int(np.sum((gt == k) & (pred == k)))
            fp = int(np.sum((gt != k) & (pred == k)))
            fn = int(np.sum((gt == k) & (pred != k)))
            if tp + fp > 0:
                prs.append(tp / (tp + fp))
            if tp + fn > 0:
                res.append(tp / (tp + fn))
                jas.append(tp / (tp + fp + fn))
        if not (rep.accuracy == np.mean(gt == pred)
                and rep.precision_macro == np.mean(prs)
                and rep.recall_macro == np.mean(res)
                and rep.jaccard_macro == np.mean(jas)):
            mismatches += 1
    ok = worked_ok and mismatches == 0
    announce("metrics oracle equivalence",
             ok, f"worked example AC=0.75 PR=5/6 reproduced; "
                 f"{mismatches} mismatches on 1000 random pairs")


def test_c7_attention_scalability(announce):
    rng = np.random.default_rng(0)
    h = 64
    weights = [Tensor(rng.standard_normal((h, h)).astype(np.float32)) for _ in range(4)]

    # the two sizes' repeats alternate, so a burst of load on a shared host
    # slows both sizes rather than one
    sizes = (2048, 16384)
    inputs = [Tensor(rng.standard_normal((n, h)).astype(np.float32)) for n in sizes]
    best = [np.inf, np.inf]
    for _ in range(5):
        for i, x in enumerate(inputs):
            start = time.perf_counter()
            chunked_attention(x, x, 64, *weights)
            best[i] = min(best[i], time.perf_counter() - start)
    t_small, t_large = best
    ratio = t_large / t_small
    ok = ratio <= 10.0
    announce("attention scalability",
             ok, f"window 64: {t_small * 1e3:.2f}ms @ n=2048, {t_large * 1e3:.2f}ms "
                 f"@ n=16384, ratio {ratio:.2f} (quadratic would be ~64)")


def test_c8_downsampling_contract(announce):
    idx = downsample_indices(45000)
    big_ok = (idx.size == 15000 and (np.diff(idx) == 3).all() and idx[0] == 0)
    small_ok = all(np.array_equal(downsample_indices(n), np.arange(n))
                   for n in (1, 100, 15000))
    ok = big_ok and small_ok
    announce("downsampling contract",
             ok, "n=45000 -> 15000 indices with spacing 3; n <= 15000 identity")


def test_c9_determinism_and_persistence(announce, tmp_path):
    spec = SyntheticSpec(durations=[(0.2, 0.05)] * 3, feature_dim=8,
                         separation=3.0, noise_std=1.0)
    entries = make_dataset(tmp_path, spec, video_seeds=range(3))
    config = ModelConfig(num_phases=3, input_dim=8, hidden_dim=8,
                         num_layers=2, num_decoders=1)

    ck_a, log_a = run_train(entries, config, TrainConfig(epochs=4, seed=5))
    ck_b, log_b = run_train(entries, config, TrainConfig(epochs=4, seed=5))
    repeat_ok = (log_a == log_b
                 and all(np.array_equal(ck_a.params[k], ck_b.params[k]) for k in ck_a.params))

    half, log_h = run_train(entries, config, TrainConfig(epochs=2, seed=5))
    path = tmp_path / "half.vtck"
    save_checkpoint(path, half)
    resumed, log_r = run_train(entries, config, TrainConfig(epochs=4, seed=5),
                               resume=load_checkpoint(path))
    resume_ok = (log_h + log_r == log_a
                 and all(np.array_equal(resumed.params[k], ck_a.params[k])
                         for k in ck_a.params))

    # saved checkpoint files themselves must be byte-identical across reruns
    pa, pb = tmp_path / "a.vtck", tmp_path / "b.vtck"
    save_checkpoint(pa, ck_a)
    save_checkpoint(pb, ck_b)
    bytes_ok = pa.read_bytes() == pb.read_bytes()

    ok = repeat_ok and resume_ok and bytes_ok
    announce("determinism and persistence",
             ok, f"repeat run identical: {repeat_ok}; resume bit-identical: {resume_ok}; "
                 f"checkpoint bytes identical: {bytes_ok}")
