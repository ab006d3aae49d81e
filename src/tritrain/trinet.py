"""Three-branch network: shared extractor plus two labeling heads and a
target-specific head, with the first-layer weight-divergence penalty and
gradient gates on the shared trunk."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nnlib import (ConfigError, LayerSpec, Sequential, ShapeError, softmax,
                    softmax_cross_entropy)


@dataclass
class GradientGates:
    """Which branches are allowed to backpropagate into the shared extractor."""
    from_f1_f2: bool = True
    from_ft: bool = True

    def __post_init__(self):
        if not (self.from_f1_f2 or self.from_ft):
            raise ConfigError("at least one gradient gate must stay open")


@dataclass
class BranchOutput:
    probs: np.ndarray
    predicted_class: np.ndarray
    max_prob: np.ndarray

    @classmethod
    def from_logits(cls, logits: np.ndarray) -> "BranchOutput":
        probs = softmax(logits)
        pred = probs.argmax(axis=1)
        return cls(probs=probs, predicted_class=pred,
                   max_prob=probs[np.arange(probs.shape[0]), pred])


def weight_divergence(W1: np.ndarray, W2: np.ndarray):
    """Entrywise absolute sum of W1^T W2 with its L1 subgradients (sign(0)=0).

    W1, W2 are the first affine weights of the two labeling heads; the penalty
    pushes the heads toward orthogonal input weightings.
    """
    if W1.shape != W2.shape:
        raise ShapeError(f"weight shapes differ: {W1.shape} vs {W2.shape}")
    m = W1.T @ W2
    s = np.sign(m)
    value = np.abs(m).sum()
    grad_w1 = W2 @ s.T
    grad_w2 = W1 @ s
    return value, grad_w1, grad_w2


class TriNet:
    """Shared extractor `f` feeding heads `f1`, `f2` (labeling) and `ft`
    (target); each head is one affine layer to `num_classes` logits."""

    BRANCHES = ("f1", "f2", "ft")

    def __init__(self, f_specs: list[LayerSpec], num_classes: int, lam: float = 0.01,
                 gates: GradientGates | None = None, seed: int = 0):
        if lam < 0:
            raise ConfigError("lambda must be non-negative")
        self.num_classes = num_classes
        self.lam = lam
        self.gates = gates or GradientGates()
        head = [LayerSpec("affine", f_specs[-1].out_dim, num_classes)]
        # independent sub-seeds so the three heads start differently
        ss = np.random.SeedSequence(seed).spawn(4)
        self.f = Sequential(f_specs, np.random.default_rng(ss[0]))
        self.f1 = Sequential(head, np.random.default_rng(ss[1]))
        self.f2 = Sequential(head, np.random.default_rng(ss[2]))
        self.ft = Sequential(head, np.random.default_rng(ss[3]))

    def features(self, x) -> np.ndarray:
        """Shared representation F(x), in eval mode."""
        return self.f.forward(x, mode="eval")

    def forward(self, x) -> dict[str, BranchOutput]:
        """Every head's output, keyed by branch, from one eval-mode pass of
        the shared extractor. Eval mode draws no randomness, so sharing the
        pass changes no bits. Training goes through the two objectives."""
        h = self.features(x)
        return {b: BranchOutput.from_logits(getattr(self, b).forward(h, mode="eval"))
                for b in self.BRANCHES}

    def zero_grads(self):
        for net in (self.f, self.f1, self.f2, self.ft):
            net.zero_grads()

    # -- objectives ---------------------------------------------------------

    def joint_labeling_loss(self, x, y, rng=None):
        """Mean cross-entropy through both labeling heads plus the weight
        penalty, applied once per batch. Populates grads for f1, f2 and,
        if the f1/f2 gate is open, the shared extractor."""
        if len(x) == 0:
            raise ValueError("empty batch")
        self.zero_grads()
        h = self.f.forward(x, mode="train", rng=rng)
        z1 = self.f1.forward(h, mode="train", rng=rng)
        z2 = self.f2.forward(h, mode="train", rng=rng)
        loss1, dz1 = softmax_cross_entropy(z1, y)
        loss2, dz2 = softmax_cross_entropy(z2, y)
        a1, a2 = self.f1.layers[0], self.f2.layers[0]
        penalty, gw1, gw2 = weight_divergence(a1.params["W"], a2.params["W"])
        total = loss1 + loss2 + self.lam * penalty
        dh = self.f1.backward(dz1) + self.f2.backward(dz2)
        a1.grads["W"] += self.lam * gw1
        a2.grads["W"] += self.lam * gw2
        if self.gates.from_f1_f2:
            self.f.backward(dh)
        return total, {"ce_f1": loss1, "ce_f2": loss2, "penalty": penalty}

    def target_loss(self, x, y, rng=None):
        """Mean cross-entropy through the target head. Populates grads for ft
        and, if the ft gate is open, the shared extractor."""
        if len(x) == 0:
            raise ValueError("empty batch")
        self.zero_grads()
        h = self.f.forward(x, mode="train", rng=rng)
        zt = self.ft.forward(h, mode="train", rng=rng)
        loss, dzt = softmax_cross_entropy(zt, y)
        dh = self.ft.backward(dzt)
        if self.gates.from_ft:
            self.f.backward(dh)
        return loss
