"""Dense-network building blocks: layers, losses, optimizers, gradient checking.

Everything runs in float64 and keeps gradients explicit so analytic backward
passes can be checked against central finite differences.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not agree."""


class ConfigError(ValueError):
    """Invalid layer / optimizer configuration."""


class StateError(RuntimeError):
    """Operation requires state that has not been populated yet."""


LAYER_KINDS = ("affine", "sigmoid", "relu", "batch_norm", "dropout")
# batch-norm variance offset and running-statistics decay of every BatchNorm layer
BN_EPS = 1e-5
BN_MOMENTUM = 0.9


@dataclass
class LayerSpec:
    kind: str
    in_dim: int
    out_dim: int
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ConfigError(f"unknown layer kind {self.kind!r}")
        if self.kind == "affine":
            if self.in_dim <= 0 or self.out_dim <= 0:
                raise ConfigError("affine layer needs positive in_dim and out_dim")
        else:
            if self.in_dim != self.out_dim:
                raise ConfigError(f"{self.kind} layer needs in_dim == out_dim")
        if self.kind == "dropout" and not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must lie in [0, 1)")


# ---------------------------------------------------------------------------
# functional ops


def affine_forward(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y = xW + b with b broadcast over rows. Operands may carry the same
    leading model axes, x (..., n, d) and W (..., d, k); matmul then runs one
    gemm per slice, with the bits of the 2-D call on that slice."""
    x = np.asarray(x, dtype=np.float64)
    if (x.ndim < 2 or x.ndim != W.ndim or x.shape[:-2] != W.shape[:-2]
            or x.shape[-1] != W.shape[-2]):
        raise ShapeError(f"affine: x {x.shape} incompatible with W {W.shape}")
    b = np.asarray(b, dtype=np.float64).reshape(*x.shape[:-2], 1, -1)
    if b.shape[-1] != W.shape[-1]:
        raise ShapeError(f"affine: b {b.shape} incompatible with W {W.shape}")
    return x @ W + b


def affine_backward(dout: np.ndarray, x: np.ndarray, W: np.ndarray | None = None):
    """Gradients of `affine_forward`, slice by slice over leading axes. The
    input gradient dx needs W; without it dx is None, for a first layer
    whose input gradient nothing reads."""
    dx = None if W is None else dout @ W.swapaxes(-1, -2)
    dW = x.swapaxes(-1, -2) @ dout
    db = np.add.reduce(dout, axis=-2, keepdims=True)
    return dx, dW, db


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: exp only ever sees -|x|. The numerator
    max(e, sign(x)) is 1 for x >= 0, where e <= 1, and e below."""
    x = np.asarray(x, dtype=np.float64)
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.sign(x)
    np.maximum(e, num, out=num)
    e += 1.0
    return np.divide(num, e, out=num)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood and its gradient w.r.t. the logits.

    Returns (loss, grad) with grad = (softmax - onehot) / batch_size. Logits
    of shape (..., n, k) give one mean loss per leading slice, with labels of
    shape (..., n). Log-probabilities are clipped at -700.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if logits.ndim < 2:
        raise ShapeError("logits need a batch and a class axis")
    n, k = logits.shape[-2:]
    if k < 2:
        raise ShapeError("need at least 2 classes")
    if labels.shape[0] * k != logits.size:
        raise ShapeError("labels length must match the batch size")
    # read as unsigned, a negative label is 2**63 or more
    if np.maximum.reduce(labels.view(np.uint64), initial=0) >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    # a fold of np.maximum over the classes is the exact max, and cheaper
    # than a reduction over a short axis
    m = logits[..., 0]
    for j in range(1, k):
        m = np.maximum(m, logits[..., j])
    z = logits - m[..., None]
    e = np.exp(z)
    s = np.add.reduce(e, axis=-1, keepdims=True)
    # flat index of each row's label entry
    at = np.arange(0, labels.shape[0] * k, k)
    at += labels
    logp = z.take(at).reshape(s.shape[:-1])
    logp -= np.log(s[..., 0])
    np.maximum(logp, -700.0, out=logp)
    loss = -(np.add.reduce(logp, axis=-1) / n)
    grad = np.divide(e, s, out=e)
    grad.reshape(-1)[at] -= 1.0
    grad /= n
    return loss, grad


def batch_norm_train(x, gamma, beta, eps, running, count, momentum=0.9):
    """Standardize each column with batch statistics, then scale and shift.

    `running` (2, d) holds the running mean and variance as its rows and
    `count` (1,) the batches seen; both are updated in place, the rows by
    an exponential moving average. Returns (y, cache) where cache feeds
    batch_norm_backward. Batch variance is the biased estimator.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise ValueError("batch norm needs a batch of at least 2 in training mode")
    # numpy converts an int operand to the same float64, only slower
    n = float(n)
    # the batch mean and variance, as rows like `running`'s; sum / n is
    # what mean() and var() compute, without their dispatch cost
    stats = np.empty((2, x.shape[1]))
    np.divide(np.add.reduce(x, axis=0), n, out=stats[0])
    xc = x - stats[0]
    np.divide(np.add.reduce(xc * xc, axis=0), n, out=stats[1])
    inv_std = stats[1] + eps
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat = np.multiply(xc, inv_std, out=xc)
    y = gamma * xhat
    y += beta
    if count[0] == 0:
        running[...] = stats
    else:
        running *= momentum
        stats *= 1 - momentum
        running += stats
    count[0] += 1
    cache = (xhat, inv_std, gamma, n)
    return y, cache


def batch_norm_backward(dout, cache):
    xhat, inv_std, gamma, n = cache
    # the four column sums dbeta, sum(dxhat), dgamma and sum(dxhat * xhat)
    # from one reduction; each (n, d) slab of the buffer sums its rows in
    # the order a lone (n, d) array does
    buf = np.empty((4, *xhat.shape))
    buf[0] = dout
    dxhat = np.multiply(dout, gamma, out=buf[1])
    np.multiply(buf[:2], xhat, out=buf[2:])
    sums = np.add.reduce(buf, axis=1)
    dx = n * dxhat
    dx -= sums[1]
    dx -= xhat * sums[3]
    dx *= inv_std / n
    return dx, sums[2:3], sums[0:1]


def batch_norm_eval(x, gamma, beta, running, count, eps):
    if count[0] == 0:
        raise StateError("batch norm running statistics are unpopulated; train first")
    xhat = (x - running[0]) / np.sqrt(running[1] + eps)
    return gamma * xhat + beta


def dropout_train(x, rate, rng):
    """Inverted dropout: zero with probability `rate`, scale survivors by 1/(1-rate)."""
    if rate >= 1.0:
        raise ConfigError("dropout rate must be < 1")
    if rate <= 0.0:
        return x.copy(), np.ones_like(x)
    keep = rng.random(x.shape) >= rate
    mask = keep / (1.0 - rate)
    return x * mask, mask


def finite_difference_gradient(f, x, h=1e-5):
    """Central-difference gradient of a scalar function of a 2-D array."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f(x)
        x[idx] = orig - h
        fm = f(x)
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return grad


def glorot_uniform(rng, d_in, d_out):
    limit = np.sqrt(6.0 / (d_in + d_out))
    return rng.uniform(-limit, limit, size=(d_in, d_out))


# ---------------------------------------------------------------------------
# layer objects


class Layer:
    """One layer kind. The `Sequential` that owns it rebinds its `params` and
    `grads` to read-only maps of views into its flat buffers: an entry can
    be written in place (`[...] =`) but not rebound."""
    spec: LayerSpec

    def __init__(self, spec: LayerSpec):
        self.spec = spec
        self.params = {}
        self.grads = {}

    def forward(self, x, mode="train", rng=None):
        raise NotImplementedError

    def backward(self, dout):
        raise NotImplementedError


class Affine(Layer):
    def __init__(self, spec, rng):
        super().__init__(spec)
        self.params["W"] = glorot_uniform(rng, spec.in_dim, spec.out_dim)
        self.params["b"] = np.zeros((1, spec.out_dim))
        self._x = None
        # False on the first layer of a Sequential: its backward then returns
        # no input gradient, which nothing reads
        self.input_grad = True

    def forward(self, x, mode="train", rng=None):
        self._x = x
        return affine_forward(x, self.params["W"], self.params["b"])

    def backward(self, dout):
        dx, dW, db = affine_backward(dout, self._x, self.params["W"] if self.input_grad else None)
        np.add(self.grads["W"], dW, out=self.grads["W"])
        np.add(self.grads["b"], db, out=self.grads["b"])
        return dx


class Sigmoid(Layer):
    def __init__(self, spec, rng=None):
        super().__init__(spec)
        self._y = None

    def forward(self, x, mode="train", rng=None):
        self._y = sigmoid(x)
        return self._y

    def backward(self, dout):
        return dout * self._y * (1.0 - self._y)


class Relu(Layer):
    def __init__(self, spec, rng=None):
        super().__init__(spec)
        self._mask = None

    def forward(self, x, mode="train", rng=None):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, dout):
        return dout * self._mask


class BatchNorm(Layer):
    def __init__(self, spec, rng=None):
        super().__init__(spec)
        d = spec.in_dim
        self.params["gamma"] = np.ones((1, d))
        self.params["beta"] = np.zeros((1, d))
        # running mean and variance as the rows of one array, updated in
        # place; the count is a 1-element array, so a checkpoint can copy
        # into it. `running_stats` names read-only views of both.
        self._running = np.array([np.zeros(d), np.ones(d)])
        self._count = np.zeros(1, dtype=np.int64)
        self.running_stats = MappingProxyType({"mean": self._running[0],
                                               "var": self._running[1], "count": self._count})
        self._cache = None

    def forward(self, x, mode="train", rng=None):
        if mode == "train":
            y, self._cache = batch_norm_train(
                x, self.params["gamma"], self.params["beta"], BN_EPS,
                self._running, self._count, BN_MOMENTUM)
            return y
        return batch_norm_eval(x, self.params["gamma"], self.params["beta"],
                               self._running, self._count, BN_EPS)

    def backward(self, dout):
        dx, dgamma, dbeta = batch_norm_backward(dout, self._cache)
        np.add(self.grads["gamma"], dgamma, out=self.grads["gamma"])
        np.add(self.grads["beta"], dbeta, out=self.grads["beta"])
        return dx


class Dropout(Layer):
    def __init__(self, spec, rng=None):
        super().__init__(spec)
        self._mask = None

    def forward(self, x, mode="train", rng=None):
        if mode != "train" or self.spec.dropout_rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise StateError("dropout in training mode needs an rng")
        y, self._mask = dropout_train(x, self.spec.dropout_rate, rng)
        return y

    def backward(self, dout):
        if self._mask is None:
            return dout
        return dout * self._mask


_LAYER_CLASSES = {
    "affine": Affine,
    "sigmoid": Sigmoid,
    "relu": Relu,
    "batch_norm": BatchNorm,
    "dropout": Dropout,
}


def build_layer(spec: LayerSpec, rng) -> Layer:
    return _LAYER_CLASSES[spec.kind](spec, rng)


class Sequential:
    """A stack of layers with cached forward state for one backward pass.
    Parameters live in one flat float64 buffer `theta` and gradients in
    `grad`; each layer's `params`/`grads` are read-only maps of views into
    them, so no entry can come detached from the buffers."""

    def __init__(self, specs: list[LayerSpec], rng):
        self.layers = [build_layer(s, rng) for s in specs]
        for prev, nxt in zip(specs, specs[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ConfigError(
                    f"layer chain broken: {prev.kind}({prev.out_dim}) -> {nxt.kind}({nxt.in_dim})")
        size = sum(p.size for layer in self.layers for p in layer.params.values())
        self.theta, self.grad = np.empty(size), np.zeros(size)
        off = 0
        for layer in self.layers:
            params, grads = {}, {}
            for k, p in layer.params.items():
                end = off + p.size
                self.theta[off:end] = p.ravel()
                params[k] = self.theta[off:end].reshape(p.shape)
                grads[k] = self.grad[off:end].reshape(p.shape)
                off = end
            layer.params, layer.grads = MappingProxyType(params), MappingProxyType(grads)
        if isinstance(self.layers[0], Affine):
            self.layers[0].input_grad = False

    def forward(self, x, mode="train", rng=None):
        for layer in self.layers:
            x = layer.forward(x, mode=mode, rng=rng)
        return x

    def backward(self, dout):
        """Accumulate every layer's parameter gradients. The gradient w.r.t.
        the net's input is never read; a first affine layer skips it."""
        for layer in reversed(self.layers):
            dout = layer.backward(dout)

    def zero_grads(self):
        self.grad.fill(0.0)


# ---------------------------------------------------------------------------
# optimizers


class Optimizer:
    def __init__(self, lr: float):
        if lr <= 0:
            raise ConfigError("learning rate must be positive")
        self.lr = lr
        self.slots: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        raise NotImplementedError

    def _slot(self, name, param, grad):
        if grad.shape != param.shape:
            raise ShapeError(f"gradient shape {grad.shape} != param shape {param.shape} for {name}")
        if name not in self.slots:
            self.slots[name] = np.zeros_like(param)
        slot = self.slots[name]
        if slot.shape != param.shape:
            raise ShapeError(f"optimizer slot {name} shape {slot.shape} != param {param.shape}")
        return slot


class MomentumSGD(Optimizer):
    def __init__(self, lr: float, momentum: float = 0.9):
        super().__init__(lr)
        if not 0.0 <= momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        self.momentum = momentum

    def step(self, params, grads):
        for name, p in params.items():
            g = grads[name]
            v = self._slot(name, p, g)
            v *= self.momentum
            v -= self.lr * g
            p += v


class Adagrad(Optimizer):
    def __init__(self, lr: float, eps: float = 1e-8):
        super().__init__(lr)
        if eps <= 0:
            raise ConfigError("adagrad eps must be positive")
        self.eps = eps

    def step(self, params, grads):
        for name, p in params.items():
            g = grads[name]
            a = self._slot(name, p, g)
            a += g * g
            p -= self.lr * g / (np.sqrt(a) + self.eps)


def make_optimizer(kind: str, lr: float, momentum: float = 0.9, eps: float = 1e-8) -> Optimizer:
    if kind == "momentum_sgd":
        return MomentumSGD(lr, momentum)
    if kind == "adagrad":
        return Adagrad(lr, eps)
    raise ConfigError(f"unknown optimizer kind {kind!r}")
