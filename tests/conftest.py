import json
import struct

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
