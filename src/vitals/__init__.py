"""Temporal phase segmentation over precomputed per-frame feature vectors.

A small numpy-backed library: a reverse-mode differentiation core, a
multi-stage dilated-convolution/windowed-attention segmentation model, an
Adam trainer with checkpointing, synthetic workflow data generation, and
frame/phase evaluation metrics.
"""

from .data import (FeatureSequence, LabelSequence, PhaseSegment, SyntheticSpec,
                   class_weights, downsample_indices, generate_synthetic_video,
                   labels_from_segments, load_features, load_manifest,
                   parse_annotations, save_features, segments_from_labels)
from .errors import VitalsError
from .gradcheck import finite_difference_check
from .metrics import aggregate, confusion_matrix, frame_accuracy, per_phase_metrics, video_report
from .model import (ModelConfig, StagePredictions, cross_entropy_loss, init_params,
                    model_forward, smoothing_loss, total_loss)
from .tensor import Tape, Tensor, backward
# `vitals.train.train` is not re-exported: it would shadow the submodule name
from .train import (AdamState, Checkpoint, TrainConfig, adam_step, evaluate,
                    load_checkpoint, save_checkpoint)

__version__ = "0.1.0"
