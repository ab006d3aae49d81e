"""Dense-network building blocks: layers, losses, optimizers, gradient checking.

Everything runs in float64 and keeps gradients explicit so analytic backward
passes can be checked against central finite differences.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def affine_backward(dout: np.ndarray, x: np.ndarray, W: np.ndarray):
    """Gradients of `affine_forward`, slice by slice over leading axes."""
    dx = dout @ W.swapaxes(-1, -2)
    dW = x.swapaxes(-1, -2) @ dout
    db = dout.sum(axis=-2, keepdims=True)
    return dx, dW, db


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: exp only ever sees -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood and its gradient w.r.t. the logits.

    Returns (loss, grad) with grad = (softmax - onehot) / batch_size. Logits
    of shape (..., n, k) give one mean loss per leading slice, with labels of
    shape (..., n).
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
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=-1, keepdims=True)
    rows = np.arange(labels.shape[0])
    logp = z.reshape(-1, k)[rows, labels] - np.log(s.ravel())
    np.clip(logp, -700.0, None, out=logp)
    loss = -logp.reshape(logits.shape[:-1]).mean(axis=-1)
    grad = e / s
    grad.reshape(-1, k)[rows, labels] -= 1.0
    grad /= n
    return loss, grad


def batch_norm_train(x, gamma, beta, eps, running_stats, momentum=0.9):
    """Standardize each column with batch statistics, then scale and shift.

    Mutates running_stats (keys "mean", "var", "count") via an exponential
    moving average. Returns (y, cache) where cache feeds batch_norm_backward.
    Batch variance is the biased estimator.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise ValueError("batch norm needs a batch of at least 2 in training mode")
    # sum / n is what mean() and var() compute, without their dispatch cost
    mean = x.sum(axis=0) / n
    xc = x - mean
    var = (xc * xc).sum(axis=0) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    y = gamma * xhat + beta
    if running_stats["count"] == 0:
        running_stats["mean"] = mean.copy()
        running_stats["var"] = var.copy()
    else:
        running_stats["mean"] = momentum * running_stats["mean"] + (1 - momentum) * mean
        running_stats["var"] = momentum * running_stats["var"] + (1 - momentum) * var
    running_stats["count"] += 1
    cache = (xhat, inv_std, gamma, n)
    return y, cache


def batch_norm_backward(dout, cache):
    xhat, inv_std, gamma, n = cache
    dgamma = (dout * xhat).sum(axis=0, keepdims=True)
    dbeta = dout.sum(axis=0, keepdims=True)
    dxhat = dout * gamma
    dx = (inv_std / n) * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
    return dx, dgamma, dbeta


def batch_norm_eval(x, gamma, beta, running_stats, eps):
    if running_stats["count"] == 0:
        raise StateError("batch norm running statistics are unpopulated; train first")
    xhat = (x - running_stats["mean"]) / np.sqrt(running_stats["var"] + eps)
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


class ArrayViews(dict):
    """Name -> array. Assigning to a name that is already bound copies into
    the bound array, after a shape check, instead of rebinding it; so an
    entry that views a flat buffer stays that view. Reads are plain dict
    reads."""

    def __setitem__(self, key, value):
        bound = self.get(key)
        if bound is None:
            dict.__setitem__(self, key, value)
        elif value is not bound:  # `d[k] += x` hands back the bound array
            if np.shape(value) != bound.shape:
                raise ShapeError(f"{key}: shape {np.shape(value)} != bound {bound.shape}")
            bound[...] = value


class Layer:
    """One layer kind. Its `params` and `grads` entries become views into the
    flat buffers of the `Sequential` that owns it; assigning to an entry
    copies into the view."""
    spec: LayerSpec

    def __init__(self, spec: LayerSpec):
        self.spec = spec
        self.params = ArrayViews()
        self.grads = ArrayViews()

    def forward(self, x, mode="train", rng=None):
        raise NotImplementedError

    def backward(self, dout):
        raise NotImplementedError

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Non-parameter state that a checkpoint must carry (e.g. BN stats)."""
        return {}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]):
        pass


class Affine(Layer):
    def __init__(self, spec, rng):
        super().__init__(spec)
        self.params["W"] = glorot_uniform(rng, spec.in_dim, spec.out_dim)
        self.params["b"] = np.zeros((1, spec.out_dim))
        self._x = None

    def forward(self, x, mode="train", rng=None):
        self._x = x
        return affine_forward(x, self.params["W"], self.params["b"])

    def backward(self, dout):
        dx, dW, db = affine_backward(dout, self._x, self.params["W"])
        self.grads["W"] += dW
        self.grads["b"] += db
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
        self.running_stats = {"mean": np.zeros(d), "var": np.ones(d), "count": 0}
        self._cache = None

    def forward(self, x, mode="train", rng=None):
        if mode == "train":
            y, self._cache = batch_norm_train(
                x, self.params["gamma"], self.params["beta"], BN_EPS,
                self.running_stats, BN_MOMENTUM)
            return y
        return batch_norm_eval(x, self.params["gamma"], self.params["beta"],
                               self.running_stats, BN_EPS)

    def backward(self, dout):
        dx, dgamma, dbeta = batch_norm_backward(dout, self._cache)
        self.grads["gamma"] += dgamma
        self.grads["beta"] += dbeta
        return dx

    def state_arrays(self):
        return {
            "running_mean": self.running_stats["mean"],
            "running_var": self.running_stats["var"],
            "running_count": np.array([self.running_stats["count"]], dtype=np.int64),
        }

    def load_state_arrays(self, arrays):
        self.running_stats["mean"] = np.asarray(arrays["running_mean"], dtype=np.float64)
        self.running_stats["var"] = np.asarray(arrays["running_var"], dtype=np.float64)
        self.running_stats["count"] = int(arrays["running_count"][0])


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
    `grad`; each layer's `params`/`grads` entries are views into them."""

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
            for k, p in layer.params.items():
                end = off + p.size
                self.theta[off:end] = p.ravel()
                dict.__setitem__(layer.params, k, self.theta[off:end].reshape(p.shape))
                dict.__setitem__(layer.grads, k, self.grad[off:end].reshape(p.shape))
                off = end

    @property
    def in_dim(self) -> int:
        return self.layers[0].spec.in_dim

    def forward(self, x, mode="train", rng=None):
        for layer in self.layers:
            x = layer.forward(x, mode=mode, rng=rng)
        return x

    def backward(self, dout):
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout

    def zero_grads(self):
        self.grad.fill(0.0)

    def named(self, which: str, prefix="") -> dict[str, np.ndarray]:
        """`{prefix}{layer index}/{key}` -> array, for which in "params",
        "grads" or "state" (non-parameter arrays such as BN statistics)."""
        return {f"{prefix}{i}/{k}": a for i, layer in enumerate(self.layers)
                for k, a in (layer.state_arrays() if which == "state"
                             else getattr(layer, which)).items()}

    def named_params(self, prefix=""):
        return self.named("params", prefix)

    def set_params(self, named: dict[str, np.ndarray], prefix=""):
        """Copy named arrays into the parameter views; zero the gradients."""
        for name, p in self.named_params(prefix).items():
            src = np.asarray(named[name], dtype=np.float64)
            if src.shape != p.shape:
                raise ShapeError(f"parameter {name} shape {src.shape} != {p.shape}")
            p[...] = src
        self.zero_grads()

    def set_state(self, named: dict[str, np.ndarray], prefix=""):
        for i, layer in enumerate(self.layers):
            arrays = {}
            for k, cur in layer.state_arrays().items():
                src = named[f"{prefix}{i}/{k}"]
                if np.shape(src) != cur.shape:
                    raise ShapeError(f"state {prefix}{i}/{k} shape {np.shape(src)} != {cur.shape}")
                arrays[k] = src
            if arrays:
                layer.load_state_arrays(arrays)


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

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {f"slot/{k}": v for k, v in self.slots.items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]):
        self.slots = {k[len("slot/"):]: np.asarray(v, dtype=np.float64).copy()
                      for k, v in arrays.items() if k.startswith("slot/")}


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
