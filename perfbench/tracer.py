"""Outside-in span tracer for the vitals package.

Spans are recorded by replacing the module attributes that callers resolve
(`vitals.tensor.matmul`, `vitals.model.encoder_forward`, ...) with timing
wrappers. Nothing in the package itself changes. A span's self time is its
duration minus the time covered by the spans it caused, so the self times of
all spans add up to the traced wall time they cover.

Counters are recorded at the same boundaries: op calls, tape nodes, bytes a
tape holds when backward starts, feature bytes loaded and frames kept by
downsampling.
"""

from __future__ import annotations

import json
import sys
import time
import types

import numpy as np

TENSOR_OPS = ("matmul", "add", "add_row", "mul", "scale", "relu", "sum_all", "concat_cols",
              "softmax_rows", "dropout", "dilated_conv1d", "chunked_attention")

# module -> {function name: span name}; tensor ops, `record`, `backward`,
# `model_forward`, `load_features` and `downsample_indices` are wrapped specially
SPANS = {
    "vitals.model": {"encoder_forward": "model.encoder",
                     "decoder_stage_forward": "model.decoder",
                     "total_loss": "model.loss",
                     "init_params": "model.init_params"},
    "vitals.train": {"train": "train.train",
                     "load_videos": "train.load_videos",
                     "adam_step": "train.adam_step",
                     "save_checkpoint": "train.save_checkpoint",
                     "load_checkpoint": "train.load_checkpoint",
                     "evaluate": "train.evaluate"},
    "vitals.data": {"parse_annotations": "data.parse_annotations",
                    "load_manifest": "data.load_manifest",
                    "generate_synthetic_video": "data.generate",
                    "save_features": "data.save_features",
                    "write_annotations": "data.write_annotations",
                    "write_manifest": "data.write_manifest"},
    "vitals.metrics": {"video_report": "metrics.video_report",
                       "aggregate": "metrics.aggregate",
                       "format_report": "metrics.format_report"},
    "vitals.cli": {"main": "cli.main",
                   "cmd_train": "cli.train",
                   "cmd_eval": "cli.eval",
                   "cmd_predict": "cli.predict"},
}


def _base_arrays(obj, out):
    """Collect the base buffers of ndarrays reachable from obj (one level deep)."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        out[id(obj)] = obj.nbytes
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _base_arrays(item, out)
    elif hasattr(obj, "data") and isinstance(getattr(obj, "data", None), np.ndarray):
        _base_arrays(obj.data, out)


def tape_bytes(tape):
    """Bytes of distinct array buffers kept alive by a tape's nodes."""
    found = {}
    for node in tape.nodes:
        _base_arrays(node.output, found)
        _base_arrays(node.inputs, found)
        fn = getattr(node.backward_fn, "__wrapped__", node.backward_fn)
        for cell in fn.__closure__ or ():
            try:
                _base_arrays(cell.cell_contents, found)
            except ValueError:  # empty cell
                pass
    return sum(found.values())


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.stats = {}      # span name -> [calls, inclusive s, self s]
        self.counters = {}   # name -> summed value
        self.maxima = {}     # name -> largest value seen
        self._stack = []     # child-time accumulators of the open spans

    # -- spans --------------------------------------------------------------

    def add(self, name, seconds):
        """Record a span measured by the caller, with no children."""
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += seconds
        entry[2] += seconds

    def wrap(self, fn, name, counter=None):
        """A timing wrapper around fn; `counter` is incremented per call."""
        stack, stats, clock = self._stack, self.stats, time.perf_counter
        counters = self.counters

        def wrapper(*args, **kwargs):
            if counter is not None:
                counters[counter] = counters.get(counter, 0) + 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - child

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    # -- instrumentation ----------------------------------------------------

    def instrument(self):
        """Wrap the public entry points of every layer, in every vitals module
        that binds them, so calls resolved through any of those names are timed."""
        import vitals.cli  # noqa: F401  (imports every layer)

        tensor = sys.modules["vitals.tensor"]
        data = sys.modules["vitals.data"]
        replace = {}
        for op in TENSOR_OPS:
            orig = getattr(tensor, op)
            replace[orig] = self.wrap(orig, f"tensor.{op}.fwd", "tensor.op_calls")
        replace[tensor.record] = self._wrap_record(tensor.record, tensor)
        replace[tensor.backward] = self._wrap_backward(tensor.backward)
        model = sys.modules["vitals.model"]
        replace[model.model_forward] = self._wrap_model_forward(model.model_forward, tensor)
        replace[data.load_features] = self._wrap_load_features(data.load_features)
        replace[data.downsample_indices] = self._wrap_downsample(data.downsample_indices)
        for mod_name, names in SPANS.items():
            mod = sys.modules[mod_name]
            for attr, span_name in names.items():
                orig = getattr(mod, attr)
                replace[orig] = self.wrap(orig, span_name)
        by_id = {id(orig): (orig, wrapper) for orig, wrapper in replace.items()}
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "vitals" or mod_name.startswith("vitals.")):
                continue
            if not isinstance(mod, types.ModuleType):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in by_id and by_id[id(value)][0] is value:
                    setattr(mod, attr, by_id[id(value)][1])

    def _wrap_record(self, record, tensor):
        tracer = self

        def traced_record(op, inputs, output, backward_fn):
            timed = tracer.wrap(backward_fn, f"tensor.{op}.bwd")
            out = record(op, inputs, output, timed)
            if out.node_id is not None and tensor.active_tape() is out.tape:
                tracer.count("tensor.tape.nodes")
            return out

        traced_record.__wrapped__ = record
        return traced_record

    def _wrap_backward(self, backward):
        timed = self.wrap(backward, "tensor.backward")
        walk = self.wrap(tape_bytes, "trace.tape_walk")
        tracer = self

        def traced_backward(tape, loss):
            tracer.peak("tensor.tape.held_bytes", walk(tape))
            return timed(tape, loss)

        traced_backward.__wrapped__ = backward
        return traced_backward

    def _wrap_model_forward(self, model_forward, tensor):
        train = self.wrap(model_forward, "model.forward_train")
        infer = self.wrap(model_forward, "model.forward_infer")

        def traced_model_forward(*args, **kwargs):
            return (train if tensor.active_tape() is not None else infer)(*args, **kwargs)

        traced_model_forward.__wrapped__ = model_forward
        return traced_model_forward

    def _wrap_load_features(self, load_features):
        timed = self.wrap(load_features, "data.load_features")
        tracer = self

        def traced_load_features(path):
            seq = timed(path)
            tracer.count("data.load_features.bytes", seq.data.nbytes)
            return seq

        traced_load_features.__wrapped__ = load_features
        return traced_load_features

    def _wrap_downsample(self, downsample_indices):
        timed = self.wrap(downsample_indices, "data.downsample")
        tracer = self

        def traced_downsample(n, *args, **kwargs):
            idx = timed(n, *args, **kwargs)
            tracer.count("data.downsample.frames_in", int(n))
            tracer.count("data.downsample.frames_kept", int(len(idx)))
            return idx

        traced_downsample.__wrapped__ = downsample_indices
        return traced_downsample

    # -- output -------------------------------------------------------------

    def snapshot(self):
        return json.loads(json.dumps(
            {"spans": self.stats, "counters": self.counters, "maxima": self.maxima}))


def merge(snapshots):
    """Sum span stats and counters, and take the largest maxima, over processes."""
    out = {"spans": {}, "counters": {}, "maxima": {}}
    for snap in snapshots:
        for name, (calls, incl, self_s) in snap["spans"].items():
            entry = out["spans"].setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += incl
            entry[2] += self_s
        for name, value in snap["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + value
        for name, value in snap["maxima"].items():
            out["maxima"][name] = max(out["maxima"].get(name, value), value)
    return out
