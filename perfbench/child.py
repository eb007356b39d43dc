"""One benchmark operation in a fresh process.

    python3 child.py SRC TRACE_OUT cli ARGS...    run `vitals.cli.main(ARGS)`
    python3 child.py SRC TRACE_OUT probe-train MANIFEST CONFIG
    python3 child.py SRC TRACE_OUT probe-infer CHECKPOINT FEATURES

SRC is the directory that holds the `vitals` package. TRACE_OUT is `-` for an
untraced run; otherwise spans are recorded (see tracer.py) and written there
as JSON when the operation ends, with the wall-clock times at which this
script started and finished, so the parent can time process start and exit.
The exit code is the CLI's.

The probes measure what one step leaves allocated once its references are
dropped and before any garbage collection: one training step as `train()`
runs it, or one inference forward as `vitals predict` runs it.
"""

import time

START = time.perf_counter()
START_WALL = time.time()

import gc  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402


def _step_train(manifest, config_path):
    import numpy as np
    from vitals.data import class_weights
    from vitals.model import init_params, model_forward, total_loss
    from vitals.tensor import Tape, Tensor, backward
    from vitals.train import (AdamState, adam_step, load_manifest, load_videos,
                              model_config_from_train, parse_config)

    train_config, overrides = parse_config(config_path)
    video = load_videos(load_manifest(manifest), "train", overrides["num_phases"],
                        train_config.downsample_limit)[0]
    config = model_config_from_train(train_config, video.features.shape[1], overrides)
    rng = np.random.default_rng(train_config.seed)
    params = init_params(config, rng)
    adam = AdamState()
    weights = class_weights(video.labels, config.num_phases)

    def step():  # the body of the epoch loop in `vitals.train.train`
        for p in params.values():
            p.zero_grad()
        with Tape() as tape:
            preds = model_forward(Tensor(video.features), params, config, training=True, rng=rng)
            loss = total_loss(preds, video.labels, config, weights)
        backward(tape, loss)
        adam_step(params, adam, train_config.learning_rate, train_config.weight_decay)
        for p in params.values():
            p.zero_grad()

    # optimizer moments are state a run keeps on purpose, not leftovers
    def kept():
        return sum(a.nbytes for a in adam.m.values()) + sum(a.nbytes for a in adam.v.values())

    return step, kept


def _step_infer(checkpoint, features_path):
    from vitals.data import load_features
    from vitals.model import model_forward
    from vitals.tensor import Tensor
    from vitals.train import load_checkpoint

    ckpt = load_checkpoint(checkpoint)
    seq = load_features(features_path)
    params = {k: Tensor(a) for k, a in ckpt.params.items()}

    def step():
        model_forward(Tensor(seq.data), params, ckpt.model_config, training=False)

    return step, lambda: 0


def run_probe(kind, args):
    step, kept = (_step_train if kind == "probe-train" else _step_infer)(*args)
    gc.collect()  # a clean baseline; the step itself runs with gc as configured
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    step()
    retained = tracemalloc.get_traced_memory()[0] - base - kept()
    gc.collect()
    after_gc = tracemalloc.get_traced_memory()[0] - base - kept()
    tracemalloc.stop()
    return {"retained_bytes": retained, "after_gc_bytes": after_gc}


def main():
    src, trace_out, kind, args = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
    sys.path.insert(0, src)
    if kind.startswith("probe-"):
        with open(trace_out, "w") as f:
            json.dump(run_probe(kind, args), f)
        return 0
    if trace_out == "-":
        from vitals.cli import main as cli_main
        return cli_main(args)
    # importing numpy and the package is start-up cost of the CLI itself
    from tracer import Tracer
    import vitals.cli

    tracer = Tracer()
    tracer.add("cli.import", time.perf_counter() - START)
    tracer.instrument()
    try:
        return vitals.cli.main(args)
    finally:
        snapshot = tracer.snapshot()
        snapshot["wall"] = [START_WALL, time.time()]
        with open(trace_out, "w") as f:
            json.dump(snapshot, f)


if __name__ == "__main__":
    sys.exit(main())
