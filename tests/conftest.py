import json
import tracemalloc

import numpy as np
import pytest

from vitals.train import CHECKPOINT_HEADER, _record_header, load_checkpoint


def _edit_checkpoint_meta(path, edit):
    """Rewrite a checkpoint's JSON metadata blob with edit(meta)."""
    blob = path.read_bytes()
    magic, version, blen = CHECKPOINT_HEADER.unpack_from(blob)
    end = CHECKPOINT_HEADER.size + blen
    meta = edit(json.loads(blob[CHECKPOINT_HEADER.size:end]))
    new = json.dumps(meta).encode("utf-8")
    path.write_bytes(CHECKPOINT_HEADER.pack(magic, version, len(new)) + new + blob[end:])


@pytest.fixture
def edit_checkpoint_meta():
    return _edit_checkpoint_meta


def _rewrite_checkpoint_records(path, edit):
    """Rewrite a valid checkpoint's tensor records byte by byte.

    edit(records) changes in place the list of (name, array) pairs the file
    holds, in file order; each pair left is then written in the checkpoint
    record format, in that order and with the array's own shape, so the
    file can hold records that save_checkpoint refuses to write.
    """
    ck = load_checkpoint(path)
    records = list(ck.params.items())
    if ck.adam is not None:
        records += [(f"adam.m:{k}", a) for k, a in ck.adam.m.items()]
        records += [(f"adam.v:{k}", a) for k, a in ck.adam.v.items()]
    edit(records)
    blob = path.read_bytes()
    _, _, blen = CHECKPOINT_HEADER.unpack_from(blob)
    out = [blob[:CHECKPOINT_HEADER.size + blen]]
    for name, arr in records:
        arr = np.asarray(arr, dtype="<f4")
        out.append(_record_header(name, arr.shape) + arr.tobytes())
    path.write_bytes(b"".join(out))


@pytest.fixture
def rewrite_checkpoint_records():
    return _rewrite_checkpoint_records


def _traced_peak(fn):
    """(fn(), tracemalloc peak in bytes above what was allocated before the
    call). fn runs once untraced first, so one-off lazy imports and caches
    are not counted."""
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
