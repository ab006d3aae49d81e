"""Pseudo-labeling engine: candidate schedule, resampling, and the
agreement-plus-confidence filter applied to the two labeling heads."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nnlib import ConfigError, ShapeError


@dataclass
class LabelingConfig:
    threshold: float = 0.9
    n_init: int = 5000
    cap: int = 40000
    steps_divisor: int = 20

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must lie in (0, 1)")
        if self.n_init < 0:
            raise ConfigError(f"n_init must be >= 0, got {self.n_init}")
        if self.n_init > self.cap:
            raise ConfigError("n_init must not exceed the candidate cap")
        if self.steps_divisor < 1:
            raise ConfigError("steps_divisor must be >= 1")


@dataclass
class PseudoLabelSet:
    """The current pseudo-labeled target pool: indices into the unlabeled
    target set, assigned labels, and the confidence that admitted each row."""
    indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    labels: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    confidences: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))
    step: int = 0

    def __len__(self):
        return len(self.indices)


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


def label_candidates(net, target_x, candidate_idx, threshold: float, step: int) -> PseudoLabelSet:
    """Run both labeling heads over the sampled candidates and filter."""
    probs = net.forward(target_x[candidate_idx])
    rows, labels, conf = assign_pseudo_labels(probs[0], probs[1], threshold)
    return PseudoLabelSet(indices=np.asarray(candidate_idx)[rows],
                          labels=labels, confidences=conf, step=step)


def labeling_accuracy(pls: PseudoLabelSet, true_labels: np.ndarray) -> float:
    """Fraction of pseudo-labels matching the held-out truth; NaN when empty.

    Evaluation harness only: true target labels never feed training.
    """
    if len(pls) == 0:
        return float("nan")
    return float(np.mean(pls.labels == np.asarray(true_labels)[pls.indices]))
