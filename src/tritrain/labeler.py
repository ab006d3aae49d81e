"""Pseudo-labeling engine: candidate schedule, resampling, and the
agreement-plus-confidence filter applied to the two labeling heads; and
`class_labels`, the rule every given array of class labels meets."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nnlib import ConfigError, ShapeError, check_range


@dataclass
class LabelingConfig:
    threshold: float = 0.9
    n_init: int = 5000
    cap: int = 40000
    steps_divisor: int = 20

    def __post_init__(self):
        check_range("threshold", self.threshold, 0, 1, low_open=True)
        check_range("n_init", self.n_init, 0)
        check_range("cap", self.cap, 0)
        check_range("steps_divisor", self.steps_divisor, 1)
        if self.n_init > self.cap:
            raise ConfigError("n_init must not exceed the candidate cap")


@dataclass
class PseudoLabelSet:
    """The current pseudo-labeled target pool: indices into the unlabeled
    target set, assigned labels, and the confidence that admitted each row."""
    indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    labels: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    confidences: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))

    def __len__(self):
        return len(self.indices)


def class_labels(name: str, y, num_classes) -> np.ndarray:
    """y as int64, or a ValueError naming it `name` and its first value
    that is not an integer in [0, num_classes), or >= 0 if that is None."""
    y = np.asarray(y)
    if y.dtype.kind not in "biuf":
        raise ValueError(f"{name} holds {y.dtype} values, not integer class labels")
    top = math.inf if num_classes is None else num_classes
    # NaN and inf cast to an integer that differs from them
    with np.errstate(invalid="ignore"):
        labels = y.astype(np.int64)
    bad = (labels != y) | (labels < 0) | (labels >= top)
    if bad.any():
        raise ValueError(f"{name} holds {y[bad][0].item()!r}, not an integer in [0, {top})")
    return labels


def candidate_count(step_k: int, n_targets: int, cfg: LabelingConfig) -> int:
    """Number of target samples considered for labeling at a given step.

    Step 0 uses the initial pool size; later steps grow linearly as
    floor(step * n / divisor), capped by the hard ceiling and the target count.
    """
    if step_k < 0:
        raise ValueError("step_k must be >= 0")
    if step_k == 0:
        return min(cfg.n_init, cfg.cap, n_targets)
    return min(step_k * n_targets // cfg.steps_divisor, cfg.cap, n_targets)


def sample_candidates(n_targets: int, count: int, rng) -> np.ndarray:
    """Uniform sample without replacement; clamped when count exceeds the pool."""
    count = min(count, n_targets)
    return rng.choice(n_targets, size=count, replace=False)


def assign_pseudo_labels(p1: np.ndarray, p2: np.ndarray, threshold: float):
    """Keep a row iff both heads predict the same class and at least one of
    them is confident beyond the threshold. p1 and p2 are the two labeling
    heads' (n, k) class probabilities. Returns (kept_rows, labels,
    confidences) where kept_rows index into the candidate batch."""
    if p1.shape[0] != p2.shape[0]:
        raise ShapeError("prediction row counts differ")
    c1 = p1.argmax(axis=1)
    agree = c1 == p2.argmax(axis=1)
    conf = np.maximum(p1.max(axis=1), p2.max(axis=1))
    keep = agree & (conf > threshold)
    rows = np.flatnonzero(keep)
    return rows, c1[rows], conf[rows]


def label_candidates(net, target_x, candidate_idx, threshold: float) -> PseudoLabelSet:
    """Run both labeling heads over the sampled candidates and filter."""
    probs = net.forward(target_x[candidate_idx])
    rows, labels, conf = assign_pseudo_labels(probs[0], probs[1], threshold)
    return PseudoLabelSet(indices=np.asarray(candidate_idx)[rows], labels=labels,
                          confidences=conf)


def labeling_accuracy(pls: PseudoLabelSet, true_labels) -> float:
    """Fraction of pseudo-labels matching the held-out truth; NaN when empty.
    A true label that is not an integer >= 0 is a ValueError naming
    `true_labels`, as `class_labels` words it, and so is a `true_labels`
    that is not 1-D or has no label for a row the pool indexes.

    Evaluation harness only: true target labels never feed training.
    """
    true_labels = class_labels("true_labels", true_labels, None)
    if true_labels.ndim != 1:
        raise ValueError(f"true_labels has shape {true_labels.shape}, not (rows,)")
    if len(pls) == 0:
        return float("nan")
    if pls.indices.max() >= len(true_labels):
        raise ValueError(f"true_labels has {len(true_labels)} labels, but the pool indexes "
                         f"row {pls.indices.max()}")
    return float(np.mean(pls.labels == true_labels[pls.indices]))
