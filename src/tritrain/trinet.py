"""Three-branch network: shared extractor plus two labeling heads and a
target-specific head, with the first-layer weight-divergence penalty and
gradient gates on the shared trunk."""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .nnlib import (ConfigError, Sequential, ShapeError, cross_entropy_buffers, glorot_uniform,
                    softmax, softmax_cross_entropy)


@dataclass
class GradientGates:
    """Which branches are allowed to backpropagate into the shared extractor."""
    from_f1_f2: bool = True
    from_ft: bool = True

    def __post_init__(self):
        if not (self.from_f1_f2 or self.from_ft):
            raise ConfigError("at least one gradient gate must stay open")


class DivergenceBuffers(NamedTuple):
    """`weight_divergence`'s buffers and views for two (d, k) weights."""
    W1: np.ndarray          # the weights they serve, and W1ᵀ
    W2: np.ndarray
    W1T: np.ndarray
    m: np.ndarray           # W1ᵀW2 (k, k)
    sign: np.ndarray        # its sign, and that transposed
    signT: np.ndarray
    abs_m: np.ndarray       # its absolute value
    grads: np.ndarray       # both subgradients, (2, d, k), and each
    dW1: np.ndarray
    dW2: np.ndarray


def divergence_buffers(W1: np.ndarray, W2: np.ndarray) -> DivergenceBuffers:
    """The buffers `weight_divergence` uses on W1 and W2 (d, k), which they
    keep serving as the two are updated in place."""
    if W1.shape != W2.shape:
        raise ShapeError(f"weight shapes differ: {W1.shape} vs {W2.shape}")
    k = W1.shape[1]
    m, sign = np.empty((k, k)), np.empty((k, k))
    grads = np.empty((2, *W1.shape))
    return DivergenceBuffers(W1, W2, W1.T, m, sign, sign.T, np.empty((k, k)), grads, *grads)


def weight_divergence(ws: DivergenceBuffers):
    """Entrywise absolute sum of W1^T W2 and its L1 subgradients (sign(0)=0)
    w.r.t. W1 and W2, stacked as one (2, d, k) array, for the two weights
    that `ws`, their `divergence_buffers`, serves; it holds the
    intermediates and the subgradients.

    W1, W2 are the first affine weights of the two labeling heads; the penalty
    pushes the heads toward orthogonal input weightings.
    """
    W1, W2, W1T, m, sign, signT, abs_m, grads, dW1, dW2 = ws
    np.matmul(W1T, W2, out=m)
    np.sign(m, out=sign)
    value = np.add.reduce(np.abs(m, out=abs_m), axis=None)
    # both subgradients in one buffer, so a caller can scale and add them
    # with one call each
    np.matmul(W2, signT, out=dW1)
    np.matmul(W1, sign, out=dW2)
    return value, grads


class TriNet:
    """Shared extractor `f` (an `nnlib.Sequential` from `in_dim` to
    `hidden_dim` = d) feeding heads f1, f2 (labeling) and ft (target), each
    one affine layer to `num_classes` = k logits. Every parameter lives in
    the flat arena `theta` laid out f1 f2 | f | ft, gradients in `grad`, and
    `spans` maps each network to its slice. f takes its slices as its own
    `theta` and `grad`; a head's are W (d, k) then b (k), viewed as one
    matrix `Wb[head]` (d + 1, k) whose last row is b, and `dWb[head]`. A
    head's logits are Wbᵀ applied to f's output with a ones row appended,
    and its gradient is that output times the logits' gradient, one matmul
    each for a phase's adjacent heads."""

    BRANCHES = ("f1", "f2", "ft")
    # phase -> (its heads, the GradientGates field opening f to it)
    PHASES = {"labeling": (("f1", "f2"), "from_f1_f2"), "target": (("ft",), "from_ft")}

    def __init__(self, in_dim: int, num_classes: int, hidden_dim: int = 50,
                 activation: str = "sigmoid", dropout_rate: float = 0.0, use_bn: bool = True,
                 lam: float = 0.01, gates: GradientGates | None = None, seed: int = 0):
        if not lam >= 0:  # NaN fails too
            raise ConfigError(f"lambda (lam) must be >= 0, got {lam}")
        self.num_classes = num_classes
        self.lam = lam
        self.gates = gates or GradientGates()
        d, k = hidden_dim, num_classes
        hk = (d + 1) * k
        ends = np.cumsum([0, hk, hk, Sequential.size(in_dim, d, use_bn), hk]).tolist()
        self.spans = {n: slice(a, b) for n, a, b in zip(("f1", "f2", "f", "ft"), ends, ends[1:])}
        self.theta, self.grad = np.zeros(ends[-1]), np.zeros(ends[-1])
        # independent sub-seeds so the three heads start differently
        ss = np.random.SeedSequence(seed).spawn(4)
        self.f = Sequential(in_dim, d, activation, dropout_rate, use_bn,
                            np.random.default_rng(ss[0]),
                            arena=(self.theta[self.spans["f"]], self.grad[self.spans["f"]]))
        self.Wb, self.dWb = ({h: a[self.spans[h]].reshape(d + 1, k) for h in self.BRANCHES}
                             for a in (self.theta, self.grad))
        for h, s in zip(self.BRANCHES, ss[1:]):
            self.Wb[h][:d] = glorot_uniform(np.random.default_rng(s), d, k)
        # each phase's S adjacent heads as (S, d + 1, k) blocks of the arena
        # and of its gradient, and the blocks' transposes
        self._blocks = {}
        for phase, (heads, _) in self.PHASES.items():
            span = slice(self.spans[heads[0]].start, self.spans[heads[-1]].stop)
            Wb, dWb = (a[span].reshape(len(heads), d + 1, k) for a in (self.theta, self.grad))
            self._blocks[phase] = Wb, dWb, Wb.swapaxes(-1, -2)

    def span(self, phase: str) -> tuple[tuple[str, ...], slice]:
        """The networks `phase` steps, its heads then f if its gate is open,
        and the one slice of the arena they fill."""
        heads, gate = self.PHASES[phase]
        names = (*heads, "f") if getattr(self.gates, gate) else heads
        spans = [self.spans[n] for n in names]
        return names, slice(min(s.start for s in spans), max(s.stop for s in spans))

    def features(self, x) -> np.ndarray:
        """Shared representation F(x) of the rows of x, (n, hidden), in eval mode."""
        return self.f.eval(x)[:-1].T

    def forward(self, x) -> np.ndarray:
        """Every head's class probabilities for the rows of x, (3, n, k) in
        BRANCHES order, from one eval-mode pass of the shared extractor, one
        matmul per phase's block of heads into its rows of one logits array,
        and one softmax. Eval mode draws no randomness, so sharing the pass
        changes no bits. Training goes through the two objectives."""
        h = self.f.eval(x)
        logits = np.empty((len(self.BRANCHES), self.num_classes, h.shape[1]))
        np.matmul(self._blocks["labeling"][2], h, out=logits[:2])
        np.matmul(self._blocks["target"][2], h, out=logits[2:])
        return softmax(logits).swapaxes(-1, -2)

    # -- objectives ---------------------------------------------------------

    def workspace(self, phase: str, n: int) -> SimpleNamespace:
        """Buffers and views for n rows of `phase`: its gate field, its S
        adjacent heads' Wbᵀ and dWb blocks, their logits (S, k, n) and
        `cross_entropy_buffers` (dz, also as dzᵀ), the heads' W and dW
        blocks (S, d, k), and `dx` (S, d, n), each head's share of f's
        incoming gradient; f's `workspace(n)`, the one place its batch
        buffers live; and in the labeling phase the `divergence_buffers` of
        f1's and f2's W. With one head, `dx` is f's `dout` itself."""
        heads, gate = self.PHASES[phase]
        Wb, dWb, WbT = self._blocks[phase]
        logits = np.empty((len(heads), self.num_classes, n))
        ce = cross_entropy_buffers(logits)
        W, f_work = Wb[:, :-1], self.f.workspace(n)
        dx = f_work.dout[None] if len(heads) == 1 else np.empty((len(heads), W.shape[1], n))
        ws = SimpleNamespace(phase=phase, n=n, gate=gate, WbT=WbT, dWb=dWb, logits=logits, ce=ce,
                             dzT=ce.grad.swapaxes(-1, -2), W=W, dW=dWb[:, :-1], dx=dx, f=f_work)
        if phase == "labeling":
            ws.div = divergence_buffers(*W)
        return ws

    def _heads_loss(self, phase: str, x, y, ws, rng) -> np.ndarray:
        """Mean cross-entropy of each head of `phase` on the rows of x, an
        array (n, in_dim), and their int64 labels y (n,), from one train-mode
        pass of f and one stacked matmul each way, in `ws`, the `workspace`
        of `phase` for n rows. The workspace and the labels are checked
        before f's pass moves batch norm's running statistics. Writes the
        gradients of the phase's heads and, if its gate is open, of f; every
        other keeps its value."""
        n = len(x)
        if n == 0:
            raise ValueError("empty batch")
        if ws.phase != phase or ws.n != n:
            raise ShapeError(f"a {ws.phase} workspace of {ws.n} rows for a {phase} batch of {n}")
        if y.shape != (n,) or y.dtype != np.int64:
            raise ShapeError(f"labels {y.dtype} {y.shape} do not fit a batch of {n}: "
                             f"int64 ({n},) needed")
        # read as unsigned, a negative label is 2**63 or more
        if np.maximum.reduce(y.view(np.uint64)) >= self.num_classes:
            raise ValueError(f"labels must lie in [0, {self.num_classes})")
        # f's columns with their ones row, h (d + 1, n), and the labels y
        # (n,) serve every head as they are
        h = self.f.forward(x, ws.f, rng)
        np.matmul(ws.WbT, h, out=ws.logits)
        loss, dz = softmax_cross_entropy(y, ws.ce)
        np.matmul(h, ws.dzT, out=ws.dWb)
        if getattr(self.gates, ws.gate):
            # each head's share of f's incoming gradient; one head's is
            # written where f's backward reads it, two heads' are added there
            np.matmul(ws.W, dz, out=ws.dx)
            if len(ws.dx) > 1:
                # `+`, unlike a sum over the axis, keeps -0.0 + -0.0 == -0.0
                np.add(*ws.dx, out=ws.f.dout)
            self.f.backward(ws.f)
        return loss

    def joint_labeling_loss(self, x, y, ws, rng=None):
        """Mean cross-entropy through both labeling heads plus the weight
        penalty, applied once per batch, and the penalty, in labeling `ws`.
        Populates grads for f1, f2 and, if the f1/f2 gate is open, f."""
        ce = self._heads_loss("labeling", x, y, ws, rng)
        penalty, grads = weight_divergence(ws.div)
        grads *= self.lam
        np.add(ws.dW, grads, out=ws.dW)
        total = ce[0] + ce[1] + self.lam * penalty
        return total, penalty

    def target_loss(self, x, y, ws, rng=None):
        """Mean cross-entropy through the target head, in target `ws`. Populates
        grads for ft and, if the ft gate is open, the shared extractor."""
        return self._heads_loss("target", x, y, ws, rng)[0]
