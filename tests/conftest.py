import json
import struct
import tracemalloc

import pytest


def _edit_checkpoint_meta(path, edit):
    """Rewrite a checkpoint's JSON metadata blob with edit(meta)."""
    blob = path.read_bytes()
    (blen,) = struct.unpack("<I", blob[8:12])
    meta = edit(json.loads(blob[12:12 + blen]))
    new = json.dumps(meta).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + blen:])


@pytest.fixture
def edit_checkpoint_meta():
    return _edit_checkpoint_meta


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
