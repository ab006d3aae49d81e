"""Three-branch network: shared extractor plus two labeling heads and a
target-specific head, with the first-layer weight-divergence penalty and
gradient gates on the shared trunk."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nnlib
from .nnlib import (ConfigError, Sequential, ShapeError, glorot_uniform, softmax,
                    softmax_cross_entropy)


@dataclass
class GradientGates:
    """Which branches are allowed to backpropagate into the shared extractor."""
    from_f1_f2: bool = True
    from_ft: bool = True

    def __post_init__(self):
        if not (self.from_f1_f2 or self.from_ft):
            raise ConfigError("at least one gradient gate must stay open")


def weight_divergence(W1: np.ndarray, W2: np.ndarray):
    """Entrywise absolute sum of W1^T W2 and its L1 subgradients (sign(0)=0)
    w.r.t. W1 and W2, stacked as one (2, d, k) array.

    W1, W2 are the first affine weights of the two labeling heads; the penalty
    pushes the heads toward orthogonal input weightings.
    """
    if W1.shape != W2.shape:
        raise ShapeError(f"weight shapes differ: {W1.shape} vs {W2.shape}")
    m = W1.T @ W2
    s = np.sign(m)
    value = np.add.reduce(np.abs(m), axis=None)
    # both subgradients in one buffer, so a caller can scale and add them
    # with one call each
    grads = np.empty((2, *W1.shape))
    np.matmul(W2, s.T, out=grads[0])
    np.matmul(W1, s, out=grads[1])
    return value, grads


class TriNet:
    """Shared extractor `f` (an `nnlib.Sequential` from `in_dim` to
    `hidden_dim` = d) feeding heads f1, f2 (labeling) and ft (target), each
    one affine layer to `num_classes` = k logits. Row i of the arena `theta`
    (3, d·k + k) is head BRANCHES[i]'s W (d, k) then b (k), viewed as `W`
    (3, d, k) and `b` (3, 1, k); `grad`, `dW` and `db` mirror them."""

    BRANCHES = ("f1", "f2", "ft")
    # phase -> (its heads' arena rows, the GradientGates field opening f to it)
    PHASES = {"labeling": (slice(0, 2), "from_f1_f2"), "target": (slice(2, 3), "from_ft")}

    def __init__(self, in_dim: int, num_classes: int, hidden_dim: int = 50,
                 activation: str = "sigmoid", dropout_rate: float = 0.0, use_bn: bool = True,
                 lam: float = 0.01, gates: GradientGates | None = None, seed: int = 0):
        if lam < 0:
            raise ConfigError("lambda must be non-negative")
        self.num_classes = num_classes
        self.lam = lam
        self.gates = gates or GradientGates()
        d, k = hidden_dim, num_classes
        # independent sub-seeds so the three heads start differently
        ss = np.random.SeedSequence(seed).spawn(4)
        self.f = Sequential(in_dim, d, activation, dropout_rate, use_bn,
                            np.random.default_rng(ss[0]))
        self.theta, self.grad = np.zeros((3, d * k + k)), np.zeros((3, d * k + k))
        self.W, self.dW = (a[:, :d * k].reshape(3, d, k) for a in (self.theta, self.grad))
        self.b, self.db = (a[:, d * k:].reshape(3, 1, k) for a in (self.theta, self.grad))
        self.W[...] = [glorot_uniform(np.random.default_rng(s), d, k) for s in ss[1:]]

    def features(self, x) -> np.ndarray:
        """Shared representation F(x), in eval mode."""
        return self.f.forward(x, mode="eval")

    def forward(self, x) -> np.ndarray:
        """Every head's class probabilities, (3, n, k) in BRANCHES order,
        from one eval-mode pass of the shared extractor, one stacked affine
        call and one softmax. Eval mode draws no randomness, so sharing the
        pass changes no bits. Training goes through the two objectives."""
        h = self.features(x)
        # a view, not a copy per head: an eval set can be large
        return softmax(nnlib.affine_forward(np.broadcast_to(h, (3, *h.shape)), self.W, self.b))

    # -- objectives ---------------------------------------------------------

    def _heads_loss(self, phase: str, x, y, rng) -> np.ndarray:
        """Mean cross-entropy of each head of `phase`, from one train-mode pass
        of f and one stacked affine call each way. Zeroes every gradient, then
        fills those of the phase's heads and, if its gate is open, of f."""
        if len(x) == 0:
            raise ValueError("empty batch")
        rows, gate = self.PHASES[phase]
        self.f.zero_grads()
        self.grad.fill(0.0)
        h = self.f.forward(x, mode="train", rng=rng)
        W, dW, db = self.W[rows], self.dW[rows], self.db[rows]
        # the target head reads h itself; the labeling heads get a copy
        # each, which at batch size costs less than np.broadcast_to
        hs = h[None] if len(W) == 1 else h[None].repeat(len(W), axis=0)
        z = nnlib.affine_forward(hs, W, self.b[rows])
        loss, dz = softmax_cross_entropy(z, np.asarray(y)[None].repeat(len(W), axis=0))
        dx, gW, gb = nnlib.affine_backward(dz, hs, W)
        np.add(dW, gW, out=dW)
        np.add(db, gb, out=db)
        if getattr(self.gates, gate):
            # `+`, unlike a sum over the axis, keeps -0.0 + -0.0 == -0.0
            self.f.backward(dx[0] if len(dx) == 1 else dx[0] + dx[1])
        return loss

    def joint_labeling_loss(self, x, y, rng=None):
        """Mean cross-entropy through both labeling heads plus the weight
        penalty, applied once per batch. Populates grads for f1, f2 and,
        if the f1/f2 gate is open, the shared extractor."""
        ce = self._heads_loss("labeling", x, y, rng)
        penalty, grads = weight_divergence(self.W[0], self.W[1])
        grads *= self.lam
        dW = self.dW[:2]
        np.add(dW, grads, out=dW)
        total = ce[0] + ce[1] + self.lam * penalty
        return total, {"ce_f1": ce[0], "ce_f2": ce[1], "penalty": penalty}

    def target_loss(self, x, y, rng=None):
        """Mean cross-entropy through the target head. Populates grads for ft
        and, if the ft gate is open, the shared extractor."""
        return self._heads_loss("target", x, y, rng)[0]
