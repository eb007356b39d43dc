"""Train a small multi-stage model on synthetic data and evaluate it.

Builds a 6-video corpus (4 train / 2 test) of a 4-phase workflow with noisy
features, trains a 4-layer encoder with 2 refinement decoders for a minute,
and reports frame accuracy plus macro precision/recall/Jaccard on the
held-out videos for every stage, from the encoder's initial prediction
(stage 0) to the final refined stage.
"""

import tempfile
from pathlib import Path

from vitals.data import (ManifestEntry, SyntheticSpec, generate_synthetic_video,
                         save_features, write_annotations)
from vitals.metrics import summary_line
from vitals.model import ModelConfig
from vitals.train import TrainConfig, evaluate, train

work = Path(tempfile.mkdtemp(prefix="vitals-demo-"))
spec = SyntheticSpec(durations=[(1.0, 0.3)] * 4, feature_dim=16,
                     separation=2.5, noise_std=2.0)
entries = []
for i in range(6):
    vid = f"video{i}"
    feats, labels = generate_synthetic_video(spec, seed=i, video_id=vid)
    save_features(work / f"{vid}.vtaf", feats)
    write_annotations(work / f"{vid}.txt", labels.labels)
    entries.append(ManifestEntry("train" if i < 4 else "test",
                                 work / f"{vid}.vtaf", work / f"{vid}.txt"))

model_config = ModelConfig(num_phases=4, input_dim=16, hidden_dim=16,
                           num_layers=4, num_decoders=2)
train_config = TrainConfig(epochs=60, seed=0)

print(f"training {model_config.num_layers}-layer encoder + "
      f"{model_config.num_decoders} decoders on 4 videos ...")
ckpt, log = train(entries, model_config, train_config)
for line in log[::15] + [log[-1]]:
    print(" ", line)

result = evaluate(ckpt, entries, "test")
print("\nheld-out results:")
for s, aggregate in enumerate(result.aggregates):
    name = "encoder" if s == 0 else f"decoder {s}"
    print(f"  stage {s} ({name}): {summary_line(aggregate)}")
for r in result.reports[-1]:
    print(f"  {r.video_id}: accuracy {r.accuracy:.3f}, "
          f"jaccard {r.jaccard_macro:.3f}")
