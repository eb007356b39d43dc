"""Seeded byte-level fuzz of every loader.

Each case mutates a valid file (overwritten bytes, a flipped bit, a
truncation or an insertion) and loads it. A load must either succeed or
raise a VitalsError; any other exception is a loader bug. Loaded features
must also be finite.
"""

import numpy as np
import pytest

from vitals.data import (FeatureSequence, ManifestEntry, load_features, load_manifest,
                         parse_annotations, save_features, write_annotations, write_manifest)
from vitals.errors import VitalsError
from vitals.model import ModelConfig, init_params
from vitals.train import AdamState, Checkpoint, load_checkpoint, parse_config, save_checkpoint

MUTATIONS = 400
N, D, K = 6, 4, 3


def mutate(blob, rng):
    b = bytearray(blob)
    kind = rng.integers(4)
    if kind == 0:
        for _ in range(rng.integers(1, 5)):
            b[rng.integers(len(b))] = rng.integers(256)
    elif kind == 1:
        b[rng.integers(len(b))] ^= 1 << int(rng.integers(8))
    elif kind == 2:
        del b[rng.integers(len(b)):]
    else:
        at = rng.integers(len(b) + 1)
        b[at:at] = rng.integers(0, 256, size=rng.integers(1, 5), dtype=np.uint8).tobytes()
    return bytes(b)


def features(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "v.vtaf"
    save_features(path, FeatureSequence("v", rng.standard_normal((N, D)), fps=1))

    def load(p):
        assert np.isfinite(load_features(p).data).all()
    return path, load


def annotations(tmp_path):
    path = tmp_path / "v.txt"
    write_annotations(path, np.array([0, 0, 2, 2, 1, 1]))
    return path, lambda p: parse_annotations(p, N, K)


def manifest(tmp_path):
    features(tmp_path)
    annotations(tmp_path)
    path = tmp_path / "manifest.tsv"
    write_manifest(path, [ManifestEntry(split, tmp_path / "v.vtaf", tmp_path / "v.txt")
                          for split in ("train", "test")])
    return path, load_manifest


def config(tmp_path):
    path = tmp_path / "train.conf"
    path.write_text("learning_rate = 0.001\nweight_decay = 0.0001\nepochs = 3\nseed = 1\n"
                    "dropout = 0.2\nlambda = 0.15  # smoothing weight\ntau = 4\nlayers = 2\n"
                    "decoders = 1\nhidden_dim = 4\nphases = 3\nbalancing = none\n")
    return path, parse_config


def checkpoint(tmp_path):
    mc = ModelConfig(num_phases=K, input_dim=D, hidden_dim=2, num_layers=1, num_decoders=1)
    params = {k: p.data for k, p in init_params(mc, 0).items()}
    adam = AdamState(m={k: a * 0.1 for k, a in params.items()},
                     v={k: a * a for k, a in params.items()}, t=3)
    path = tmp_path / "model.vtck"
    save_checkpoint(path, Checkpoint(mc, params, adam, np.random.default_rng(5).bit_generator.state,
                                     epoch=2))
    return path, load_checkpoint


@pytest.mark.parametrize("make", [features, annotations, manifest, config, checkpoint],
                         ids=lambda f: f.__name__)
def test_mutated_file_loads_or_raises_vitals_error(tmp_path, make):
    path, load = make(tmp_path)
    load(path)  # the unmutated file is valid
    original = path.read_bytes()
    rng = np.random.default_rng(20240)
    escaped = []
    for i in range(MUTATIONS):
        path.write_bytes(mutate(original, rng))
        try:
            load(path)
        except VitalsError:
            pass
        except Exception as err:  # noqa: BLE001 -- any other exception is the finding
            escaped.append(f"mutation {i}: {type(err).__name__}: {err}")
    assert not escaped, f"{len(escaped)} of {MUTATIONS} escaped:\n" + "\n".join(escaped[:5])
