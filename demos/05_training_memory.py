"""Where the memory of a training step goes.

A step runs forward on a tape, and the tape holds, until backward consumes
it, every array some backward still reads. This script runs one step of the
paper config (d=2048, h=64, L=10 blocks, N=3 decoders, K=11) on a short
video and prints the distinct bytes the tape holds when backward starts, by
op: each buffer once, under the first op whose node reaches it through its
inputs, its closure and the functions in that closure.

It runs the step twice: with the features given as a Tensor, which the
input projection's matmul node then holds for its weight gradient, and as
`train()` gives them, a reader of the feature file that backward calls
again. The last line is the tracemalloc peak of one whole `train()` step.

Each block holds one n x h array, its input, under dilated_conv1d. relu
keeps only its bit-packed gate (0.13 MB over all 40 blocks, against
4.10 MB when it kept its output), and the attention node reaches no
activation but the block input and the decoder's stage embedding, through
the rebuild that recomputes the relu output in backward; both are
counted under the conv nodes, which come first and hold them anyway. With the
features read the tape holds 19.49 MB (23.46 MB when relu outputs were
held).
"""

import shutil
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from vitals.data import (FeatureSequence, ManifestEntry, load_features, save_features,
                         write_annotations)
from vitals.model import ModelConfig, init_params, model_forward, total_loss
from vitals.tensor import Tape, Tensor, backward
from vitals.train import TrainConfig, train

n = 400
config = ModelConfig(num_phases=11)  # the paper's d, h, L and N are the defaults
root = Path(tempfile.mkdtemp())
features, annotations = root / "video.vtaf", root / "video.txt"
phases = np.arange(n) * config.num_phases // n
save_features(features, FeatureSequence("video", np.random.default_rng(0).standard_normal(
    (n, config.input_dim), dtype=np.float32)))
write_annotations(annotations, phases)
params = init_params(config, 0)
parameter_ids = {id(p.data) for p in params.values()}


def base(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def arrays(obj, visited):
    """The arrays obj reaches: through lists, tuples, tensors and the
    closures of the functions it holds (a reader keeps a Tensor's features)."""
    if id(obj) in visited:
        return
    visited.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from arrays(item, visited)
    elif isinstance(getattr(obj, "data", None), np.ndarray):
        yield obj.data
    elif callable(obj):
        for cell in getattr(obj, "__closure__", None) or ():
            try:
                yield from arrays(cell.cell_contents, visited)
            except ValueError:  # an empty cell
                pass


def held_by_op(tape):
    seen, by_op = set(), {}
    for node in tape.nodes:
        for a in map(base, arrays([node.inputs, node.backward_fn], set())):
            if id(a) not in seen:
                seen.add(id(a))
                op = "(parameters)" if id(a) in parameter_ids else node.op
                by_op[op] = by_op.get(op, 0) + a.nbytes
    return by_op


def step(E):
    with Tape() as tape:
        preds = model_forward(E, params, config, training=True, rng=np.random.default_rng(1))
        loss = total_loss(preds, phases, config)
    held = held_by_op(tape)
    backward(tape, loss)
    for p in params.values():
        p.zero_grad()
    return held


held = {"Tensor": step(Tensor(load_features(features).data)),
        "reader": step(lambda: load_features(features).data)}
ops = sorted(set(held["Tensor"]) | set(held["reader"]), key=lambda op: -held["Tensor"].get(op, 0))
print(f"one paper-config step at n={n}: MB the tape holds when backward starts")
print(f"{'op':<20} {'features as Tensor':>19} {'features read':>14}")
for op in ops:
    tensor_mb, reader_mb = (held[k].get(op, 0) / 1e6 for k in ("Tensor", "reader"))
    print(f"{op:<20} {tensor_mb:>19.2f} {reader_mb:>14.2f}")
print(f"{'total':<20} {sum(held['Tensor'].values()) / 1e6:>19.2f} "
      f"{sum(held['reader'].values()) / 1e6:>14.2f}")
print(f"(the {n} x {config.input_dim} features are {n * config.input_dim * 4 / 1e6:.2f} MB)")

tracemalloc.start()
train([ManifestEntry("train", features, annotations)], config, TrainConfig(epochs=1, seed=0))
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
shutil.rmtree(root)
print(f"\ntracemalloc peak of one train() step, parameters and Adam state included: "
      f"{peak / 1e6:.1f} MB")
