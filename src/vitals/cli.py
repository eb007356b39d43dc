"""Command-line entry point: train, eval, predict, synth, gradcheck.

Exit codes: 0 success, 1 data/config/runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import gradcheck as gc
from . import metrics as M
from .data import (ManifestEntry, SyntheticSpec, generate_synthetic_video, load_features,
                   read_feature_header, read_key_values, save_features, write_annotations,
                   write_manifest)
from .errors import ConfigError, VitalsError
from .train import (evaluate, infer, load_checkpoint, load_manifest, model_config_from_train,
                    parse_config, save_checkpoint, split_entries, train)


def _build_parser():
    parser = argparse.ArgumentParser(prog="vitals",
                                     description="Temporal phase segmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--log")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", required=True, choices=["train", "test"])
    p.add_argument("--report", required=True)

    p = sub.add_parser("predict", help="predict phases for one feature file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-stages", action="store_true",
                   help="also write per-stage probability files next to --out")

    p = sub.add_parser("synth", help="generate synthetic workflow data")
    p.add_argument("--spec")
    p.add_argument("--videos", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir")
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--emit-default-spec", metavar="PATH",
                   help="write the default 11-phase spec file and exit")

    p = sub.add_parser("gradcheck", help="finite-difference check of all ops")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--corrupt", metavar="OP",
                   help="negative-control fixture: break OP's backward; OP is one of "
                        + ", ".join(gc.OPS))
    return parser


# ---------------------------------------------------------------------------
# synthetic spec files


def write_spec_file(path, spec: SyntheticSpec):
    lines = [
        "# synthetic workflow spec",
        f"fps = {spec.fps}",
        f"feature_dim = {spec.feature_dim}",
        f"separation = {spec.separation}",
        f"noise_std = {spec.noise_std}",
    ]
    for i, (mean, std) in enumerate(spec.durations):
        skip = spec.skip_prob[i]
        lines.append(f"phase.{i} = {mean},{std},{skip}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_spec_file(path) -> SyntheticSpec:
    scalar_types = get_type_hints(SyntheticSpec)
    scalars = {}
    phases = {}
    for lineno, key, value in read_key_values(path):
        if key.startswith("phase."):
            try:
                idx = int(key[6:])
                parts = [float(v) for v in value.split(",")]
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad phase entry {key} = {value}") from None
            if len(parts) not in (2, 3):
                raise ConfigError(f"{path}:{lineno}: phase needs 'mean,std[,skip_prob]'")
            if idx in phases:  # phase.1 and phase.01 name the same phase
                raise ConfigError(f"{path}:{lineno}: phase {idx} is already set")
            phases[idx] = (parts[0], parts[1], parts[2] if len(parts) == 3 else 0.0)
        elif key in ("fps", "feature_dim", "separation", "noise_std"):
            try:
                scalars[key] = scalar_types[key](value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    if not phases:
        raise ConfigError(f"{path}: no phase entries")
    if sorted(phases) != list(range(len(phases))):
        raise ConfigError(f"{path}: phase indices must be 0..K-1 without gaps")
    ordered = [phases[i] for i in range(len(phases))]
    return SyntheticSpec(
        durations=[(m, s) for m, s, _ in ordered],
        skip_prob=[skip for _, _, skip in ordered],
        **scalars,
    )


# ---------------------------------------------------------------------------
# subcommands


def _say(text):
    """print(text), escaping what stdout cannot encode: a finished command's
    message (eval's summary has a '±') must not turn its success into exit 1."""
    encoding = sys.stdout.encoding or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding))


def _require_out_dir(flag, path):
    """Refuse an output path whose directory is missing: found before the
    command does its work, not when it writes the result."""
    out_dir = Path(path).parent
    if not out_dir.is_dir():
        raise ConfigError(f"{flag} {path}: no directory {out_dir}")


def cmd_train(args):
    _require_out_dir("--out-checkpoint", args.out_checkpoint)
    train_config, overrides = parse_config(args.config)
    entries = load_manifest(args.manifest)
    train_entries = split_entries(entries, "train")
    if not train_entries:
        raise ConfigError(f"{args.manifest}: no train entries")
    # the first video by id: train() checks it first, so a dim mismatch names
    # the video that differs; train() reads the payloads
    with open(train_entries[0].feature_path, "rb") as f:
        _, input_dim, _ = read_feature_header(f, train_entries[0].feature_path)
    model_config = model_config_from_train(train_config, input_dim, overrides)
    ckpt, _ = train(entries, model_config, train_config, log_path=args.log)
    save_checkpoint(args.out_checkpoint, ckpt)
    _say(f"checkpoint written to {args.out_checkpoint}")
    return 0


def cmd_eval(args):
    _require_out_dir("--report", args.report)
    ckpt = load_checkpoint(args.checkpoint)
    result = evaluate(ckpt, args.manifest, args.split)
    Path(args.report).write_text(M.format_report(result.reports[-1], result.aggregates[-1]),
                                 encoding="utf-8")
    _say(M.summary_line(result.aggregates[-1]))
    return 0


def cmd_predict(args):
    _require_out_dir("--out", args.out)  # the stage files go beside it
    ckpt = load_checkpoint(args.checkpoint)
    preds = infer(ckpt, lambda: load_features(args.features).data, args.features)
    write_annotations(args.out, preds.argmax(-1))
    if args.dump_stages:
        stem = Path(args.out)
        for s, probs in enumerate(preds.probs):
            out = stem.with_name(f"{stem.stem}.stage{s}.txt")
            np.savetxt(out, probs.data, fmt="%.6f")
    _say(f"predictions written to {args.out}")
    return 0


def cmd_synth(args):
    if args.emit_default_spec:
        write_spec_file(args.emit_default_spec, SyntheticSpec())
        _say(f"default spec written to {args.emit_default_spec}")
        return 0
    if not args.spec or not args.out_dir or args.videos < 1:
        raise ConfigError("synth requires --spec, --out-dir and --videos >= 1")
    if not 0 <= args.train_fraction <= 1:  # false for NaN too
        raise ConfigError(f"--train-fraction must be in [0, 1], got {args.train_fraction}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    spec = read_spec_file(args.spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    n_train = max(1, round(args.videos * args.train_fraction))
    for i in range(args.videos):
        vid = f"video{i:03d}"
        features, labels = generate_synthetic_video(spec, seed=args.seed + i, video_id=vid)
        fpath = out_dir / f"{vid}.vtaf"
        apath = out_dir / f"{vid}.txt"
        save_features(fpath, features)
        write_annotations(apath, labels.labels)
        del features, labels  # not held while the next video is drawn
        split = "train" if i < n_train else "test"
        entries.append(ManifestEntry(split=split, feature_path=fpath, annotation_path=apath))
    write_manifest(out_dir / "manifest.tsv", entries)
    _say(f"wrote {args.videos} videos and manifest to {out_dir}")
    return 0


def cmd_gradcheck(args):
    results = gc.run_suite(seeds=args.seeds, corrupt=args.corrupt)
    failed = False
    for name, err in results.items():
        ok = err < gc.THRESHOLD  # false for NaN
        failed |= not ok
        print(f"{name}: max_rel_err={err:.3e} {'ok' if ok else 'FAIL'}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 2
    handlers = {
        "train": cmd_train,
        "eval": cmd_eval,
        "predict": cmd_predict,
        "synth": cmd_synth,
        "gradcheck": cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except (VitalsError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
