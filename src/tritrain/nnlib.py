"""Dense-network building blocks: kernels, the shared extractor, losses and
optimizers.

Everything runs in float64 and keeps gradients explicit so analytic backward
passes can be checked against central finite differences.
"""
from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not agree."""


class ConfigError(ValueError):
    """Invalid layer / optimizer configuration."""


class StateError(RuntimeError):
    """Operation requires state that has not been populated yet."""


# batch-norm variance offset and running-statistics decay of the extractor
BN_EPS = 1e-5
BN_MOMENTUM = 0.9


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
    """Probabilities over the last axis, slice by slice over any leading
    axes, each slice with the bits of the 2-D call on it."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


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
    keep = rng.random(x.shape) >= rate
    mask = keep / (1.0 - rate)
    return x * mask, mask


def glorot_uniform(rng, d_in, d_out):
    limit = np.sqrt(6.0 / (d_in + d_out))
    return rng.uniform(-limit, limit, size=(d_in, d_out))


# ---------------------------------------------------------------------------
# the shared extractor


class Layer:
    """Base of `Sequential`. The benchmark's tracer counts calls to the
    `forward` and `backward` of this class's direct subclasses."""


class Sequential(Layer):
    """The shared extractor f: affine, then sigmoid or relu, then inverted
    dropout if `dropout_rate` > 0, then batch norm if `use_bn`.

    Parameters live in one flat float64 buffer `theta`, W (in_dim, hidden)
    then b, gamma and beta (1, hidden) each, and gradients in `grad`; `W`,
    `b`, `gamma`, `beta` and `dW`, `db`, `dgamma`, `dbeta` are views into
    them. Batch norm's running mean and variance are the rows of `running`
    (2, hidden) and its batch count is `count` (1,). Without batch norm,
    `gamma`, `beta`, their gradients, `running` and `count` are None."""

    def __init__(self, in_dim: int, hidden_dim: int, activation: str, dropout_rate: float,
                 use_bn: bool, rng):
        if activation not in ("sigmoid", "relu"):
            raise ConfigError(f"unsupported activation {activation!r}")
        if in_dim < 1 or hidden_dim < 1:
            raise ConfigError(f"the extractor needs in_dim and hidden_dim >= 1, "
                              f"got {in_dim} and {hidden_dim}")
        d, h = in_dim, hidden_dim
        self.in_dim, self.activation, self.dropout_rate = in_dim, activation, dropout_rate
        self.theta = np.zeros(d * h + (3 if use_bn else 1) * h)
        self.grad = np.zeros_like(self.theta)
        self.W, self.dW = (a[:d * h].reshape(d, h) for a in (self.theta, self.grad))
        # the (1, h) rows after W: b, then gamma and beta
        (self.b, *bn), (self.db, *dbn) = (a[d * h:].reshape(-1, 1, h)
                                          for a in (self.theta, self.grad))
        self.W[...] = glorot_uniform(rng, d, h)
        self.gamma = self.beta = self.dgamma = self.dbeta = self.running = self.count = None
        if use_bn:
            (self.gamma, self.beta), (self.dgamma, self.dbeta) = bn, dbn
            self.gamma.fill(1.0)
            # running mean and variance as the rows of one array, updated in
            # place; the count is a 1-element array, so a checkpoint can copy
            # into it
            self.running = np.array([np.zeros(h), np.ones(h)])
            self.count = np.zeros(1, dtype=np.int64)

    def forward(self, x, mode="train", rng=None):
        """f(x); train mode draws dropout masks from `rng`, uses batch
        statistics and keeps what `backward` reads."""
        self._x = x
        z = affine_forward(x, self.W, self.b)
        # what the activation's backward reads: sigmoid's output, relu's mask
        if self.activation == "sigmoid":
            z = self._act = sigmoid(z)
        else:
            self._act = z > 0
            z = np.where(self._act, z, 0.0)
        self._mask = None
        if mode == "train" and self.dropout_rate > 0:
            if rng is None:
                raise StateError("dropout in training mode needs an rng")
            z, self._mask = dropout_train(z, self.dropout_rate, rng)
        if self.running is None:
            return z
        if mode == "train":
            z, self._bn = batch_norm_train(z, self.gamma, self.beta, BN_EPS,
                                           self.running, self.count, BN_MOMENTUM)
            return z
        return batch_norm_eval(z, self.gamma, self.beta, self.running, self.count, BN_EPS)

    def backward(self, dout):
        """Accumulate the parameter gradients of the last train-mode
        forward. The gradient w.r.t. f's input is never read, so the first
        layer computes none."""
        if self.running is not None:
            dout, dgamma, dbeta = batch_norm_backward(dout, self._bn)
            np.add(self.dgamma, dgamma, out=self.dgamma)
            np.add(self.dbeta, dbeta, out=self.dbeta)
        if self._mask is not None:
            dout = dout * self._mask
        if self.activation == "sigmoid":
            dout = dout * self._act * (1.0 - self._act)
        else:
            dout = dout * self._act
        _, dW, db = affine_backward(dout, self._x)
        np.add(self.dW, dW, out=self.dW)
        np.add(self.db, db, out=self.db)

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
