"""Independent references the benchmark checks the program's outputs against.

`reference_forward` is a plain float64 numpy forward pass of the segmentation
model, written from the model's description rather than from `vitals`: loops
over attention chunks instead of padding, zero-padded slices instead of
shifted copies. `brute_force_report` recounts frame metrics with explicit
per-phase counts.
"""

from __future__ import annotations

import math

import numpy as np

# float32 forward vs float64 reference, after 4 stages of 10 blocks, read back
# from 6-decimal text: measured deviations are under 1e-6, so 2e-5 leaves room
# for BLAS summation order without letting a wrong op through
PROB_TOL = 2e-5
ROW_SUM_TOL = 1e-5


def _softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _conv(x, w, d):
    n = x.shape[0]
    xp = np.concatenate([np.zeros((d, x.shape[1])), x, np.zeros((d, x.shape[1]))])
    return xp[0:n] @ w[0] + xp[d:d + n] @ w[1] + xp[2 * d:2 * d + n] @ w[2]


def _attention(q, k, v, window):
    n, h = q.shape
    out = np.empty_like(v)
    for start in range(0, n, window):
        sl = slice(start, min(start + window, n))
        a = _softmax(q[sl] @ k[sl].T / math.sqrt(h))
        out[sl] = a @ v[sl]
    return out


def _block(x, query, p, prefix, size):
    f = np.maximum(_conv(x, p[f"{prefix}.conv.weight"], size) + p[f"{prefix}.conv.bias"], 0.0)
    src = f if query is None else query
    a = _attention(src @ p[f"{prefix}.attn.wq"], f @ p[f"{prefix}.attn.wk"],
                   f @ p[f"{prefix}.attn.wv"], size)
    return x + a @ p[f"{prefix}.attn.wo"]


def reference_forward(features, params, num_layers, num_decoders):
    """Per-stage n x K probabilities at inference (dropout is the identity)."""
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    n = features.shape[0]
    sizes = [min(2 ** i, n) for i in range(1, num_layers + 1)]
    x = np.asarray(features, dtype=np.float64) @ p["input_proj.weight"]
    feats = []
    for i, size in enumerate(sizes, start=1):
        x = _block(x, None, p, f"encoder.block{i}", size)
        feats.append(x)
    logits = np.concatenate(feats, axis=1) @ p["fusion.weight"] + p["fusion.bias"]
    stages = [_softmax(logits)]
    for s in range(1, num_decoders + 1):
        u = stages[-1] @ p[f"decoder{s}.embed.weight"]
        x = u
        for i, size in enumerate(sizes, start=1):
            x = _block(x, u, p, f"decoder{s}.block{i}", size)
        logits = x @ p[f"decoder{s}.classifier.weight"] + p[f"decoder{s}.classifier.bias"]
        stages.append(_softmax(logits))
    return stages


def compare_to_reference(ref_stages, stage_probs, labels):
    """Return a list of problems (empty when the outputs agree with the reference).

    Probabilities must match within PROB_TOL and rows must sum to 1 within
    ROW_SUM_TOL. A label may differ from the reference argmax only on a
    near-tie, where the reference gives the chosen phase within PROB_TOL of
    its maximum.
    """
    problems = []
    if len(ref_stages) != len(stage_probs):
        return [f"{len(stage_probs)} stages, reference has {len(ref_stages)}"]
    for s, (ref, got) in enumerate(zip(ref_stages, stage_probs)):
        if got.shape != ref.shape:
            problems.append(f"stage {s}: shape {got.shape}, reference {ref.shape}")
            continue
        err = float(np.abs(got - ref).max())
        if err > PROB_TOL:
            problems.append(f"stage {s}: max |p - p_ref| = {err:.2e} > {PROB_TOL:.0e}")
        row = float(np.abs(got.sum(axis=1) - 1.0).max())
        if row > ROW_SUM_TOL:
            problems.append(f"stage {s}: row sum off by {row:.2e} > {ROW_SUM_TOL:.0e}")
    final = ref_stages[-1]
    labels = np.asarray(labels)
    if labels.shape != (final.shape[0],):
        return problems + [f"{labels.size} labels for {final.shape[0]} frames"]
    chosen = final[np.arange(labels.size), labels]
    wrong = np.nonzero(chosen < final.max(axis=1) - PROB_TOL)[0]
    if wrong.size:
        problems.append(f"{wrong.size} labels disagree with the reference, first at frame {int(wrong[0])}")
    return problems


def negative_controls(ref_stages, stage_probs, labels):
    """The comparison must reject a perturbed probability and a flipped label."""
    final = ref_stages[-1]
    margin = final.max(axis=1) - final.min(axis=1)
    frame = int(margin.argmax())
    probs = [p.copy() for p in stage_probs]
    probs[-1][frame, 0] += 10 * PROB_TOL
    flipped = np.array(labels, copy=True)
    flipped[frame] = int(final[frame].argmin())
    return (bool(compare_to_reference(ref_stages, probs, labels)),
            bool(compare_to_reference(ref_stages, stage_probs, flipped)))


def brute_force_report(gt, pred, num_phases):
    """Accuracy and macro PR/RE/JA by counting, with the report's 0/0 exclusions."""
    gt, pred = list(map(int, gt)), list(map(int, pred))
    prs, res, jas = [], [], []
    for k in range(num_phases):
        tp = sum(1 for g, p in zip(gt, pred) if g == k and p == k)
        fp = sum(1 for g, p in zip(gt, pred) if g != k and p == k)
        fn = sum(1 for g, p in zip(gt, pred) if g == k and p != k)
        if tp + fp:
            prs.append(tp / (tp + fp))
        if tp + fn:
            res.append(tp / (tp + fn))
            jas.append(tp / (tp + fp + fn))
    hits = sum(1 for g, p in zip(gt, pred) if g == p)
    return {"accuracy": hits / len(gt), "precision_macro": float(np.mean(prs)),
            "recall_macro": float(np.mean(res)), "jaccard_macro": float(np.mean(jas))}


def parse_report(text):
    """Per-video values and aggregates of a `vitals eval` report, as strings."""
    videos, aggregate, current = {}, {}, None
    for line in text.splitlines():
        if line.startswith("# video "):
            current = videos.setdefault(line[len("# video "):], {})
        elif "=" in line:
            key, value = line.split("=", 1)
            if key.startswith("aggregate."):
                aggregate[key[len("aggregate."):]] = value
            elif current is not None:
                current[key] = value
    return videos, aggregate


def labels_from_annotation(path):
    """Per-frame labels from a run-length `phase,start,end` file, by expansion."""
    labels = []
    for line in path.read_text().split():
        phase, start, end = map(int, line.split(","))
        if start != len(labels) or end < start:
            raise ValueError(f"{path}: segments do not tile the frames at {start}")
        labels.extend([phase] * (end - start + 1))
    return np.asarray(labels)
