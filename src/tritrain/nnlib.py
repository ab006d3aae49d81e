"""Dense-network building blocks: kernels, the shared extractor, losses and
optimizers.

Everything runs in float64 and keeps gradients explicit so analytic backward
passes can be checked against central finite differences.
"""
from __future__ import annotations

import functools
import math

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
    """z = Wᵀx + b for x (..., d, n), one column per batch row, and W
    (..., d, k), b (..., 1, k) as the arenas store them; returns (..., k, n).
    W may carry leading model axes that a 2-D x lacks, and then that x feeds
    every model. matmul runs one gemm per slice, with the bits of the 2-D
    call on that slice."""
    x = np.asarray(x, dtype=np.float64)
    if (x.ndim < 2 or W.ndim < 2 or x.shape[:-2] not in ((), W.shape[:-2])
            or x.shape[-2] != W.shape[-2]):
        raise ShapeError(f"affine: x {x.shape} incompatible with W {W.shape}")
    b = np.asarray(b, dtype=np.float64).reshape(*W.shape[:-2], -1, 1)
    if b.shape[-2] != W.shape[-1]:
        raise ShapeError(f"affine: b {b.shape} incompatible with W {W.shape}")
    z = np.matmul(W.swapaxes(-1, -2), x)
    z += b
    return z


def affine_backward(dout: np.ndarray, x: np.ndarray, W: np.ndarray | None = None, out=None):
    """Gradients of `affine_forward`, slice by slice over leading axes, with
    dW and db in W's and b's stored shapes. The input gradient dx needs W;
    without it dx is None, for a first layer whose input gradient nothing
    reads. `out`, a (dW, db) pair of arrays in those shapes such as arena
    views, receives the gradients in place of new arrays."""
    dx = None if W is None else W @ dout
    if out is None:
        return dx, x @ dout.swapaxes(-1, -2), np.add.reduce(dout, axis=-1)[..., None, :]
    dW, db = out
    np.matmul(x, dout.swapaxes(-1, -2), out=dW)
    np.add.reduce(dout, axis=-1, out=db[..., 0, :])
    return dx, dW, db


def sigmoid(x: np.ndarray, out=None) -> np.ndarray:
    """Overflow-free logistic: exp only ever sees -|x|. The numerator
    max(e, sign(x)) is 1 for x >= 0, where e <= 1, and e below. `out`, an
    array of x's shape, receives the result."""
    x = np.asarray(x, dtype=np.float64)
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.sign(x, out=out)
    np.maximum(e, num, out=num)
    e += 1.0
    return np.divide(num, e, out=num)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Probabilities over the class axis -2 of logits (..., k, n), column by
    column."""
    z = logits - logits.max(axis=-2, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-2, keepdims=True)


@functools.lru_cache(maxsize=8)
def _label_base(shape: tuple) -> np.ndarray:
    """Flat index of each column's class-0 entry in a C-ordered array of
    `shape` (..., k, n), as an (..., n) array: slice * k * n + column.
    Read-only, since every call of a shape shares it."""
    *lead, k, n = shape
    base = (np.arange(math.prod(lead))[:, None] * (k * n) + np.arange(n)).reshape(*lead, n)
    base.flags.writeable = False
    return base


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood and its gradient w.r.t. the logits.

    Returns (loss, grad) with grad = (softmax - onehot) / batch_size. Logits
    of shape (..., k, n), one column per batch row, give one mean loss per
    leading slice. Labels have shape (..., n); a trailing part of it, such
    as (n,), labels every leading slice alike. Log-probabilities are clipped
    at -700.
    """
    # C order keeps each batch row contiguous and makes the flat indices
    # below address `grad` itself
    logits = np.ascontiguousarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim < 2:
        raise ShapeError("logits need a class and a batch axis")
    *lead, k, n = logits.shape
    if k < 2:
        raise ShapeError("need at least 2 classes")
    if labels.ndim == 0 or labels.shape != (*lead, n)[-labels.ndim:]:
        raise ShapeError(f"labels {labels.shape} do not fit logits {logits.shape}")
    # read as unsigned, a negative label is 2**63 or more
    if np.maximum.reduce(labels.view(np.uint64), axis=None, initial=0) >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    # a fold of np.maximum over the class rows is the exact max; each call
    # runs numpy's inner loop once over a whole batch row
    m = logits[..., 0, :]
    for j in range(1, k):
        m = np.maximum(m, logits[..., j, :])
    z = logits - m[..., None, :]
    e = np.exp(z)
    # a reduction over a non-contiguous axis adds the class rows in order
    s = np.add.reduce(e, axis=-2)
    # flat index of each column's label entry: (slice * k + label) * n + column
    at = _label_base(logits.shape) + labels * n
    logp = z.take(at)
    logp -= np.log(s)
    np.maximum(logp, -700.0, out=logp)
    # a/-n is -(a/n), to the bit
    loss = np.add.reduce(logp, axis=-1) / -n
    grad = np.divide(e, s[..., None, :], out=e)
    grad.reshape(-1)[at] -= 1.0
    grad /= n
    return loss, grad


def batch_norm_train(x, gamma, beta, eps, running, count, momentum=0.9, out=None):
    """Standardize each feature row of x (d, n) with its batch statistics,
    then scale and shift by gamma and beta, (1, d) as stored, into `out`
    if given.

    `running` (2, d) holds the running mean and variance as its rows and
    `count` (1,) the batches seen; both are updated in place, the rows by
    an exponential moving average. Returns (y, cache) where cache feeds
    batch_norm_backward. Batch variance is the biased estimator.
    """
    # C order keeps each feature's batch row contiguous
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.shape[-1]
    if n < 2:
        raise ValueError("batch norm needs a batch of at least 2 in training mode")
    # numpy converts an int operand to the same float64, only slower
    n = float(n)
    # the batch mean and variance as (d, 1) columns; sum / n is what mean()
    # and var() compute, without their dispatch cost
    stats = np.empty((2, x.shape[0], 1))
    mean, var = stats[0], stats[1]
    np.add.reduce(x, axis=-1, keepdims=True, out=mean)
    mean /= n
    xc = x - mean
    np.add.reduce(np.multiply(xc, xc), axis=-1, keepdims=True, out=var)
    var /= n
    inv_std = var + eps
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat = np.multiply(xc, inv_std, out=xc)
    y = np.multiply(gamma.T, xhat, out=out)
    y += beta.T
    stats = stats[..., 0]
    if count[0] == 0:
        running[...] = stats
    else:
        running *= momentum
        stats *= 1 - momentum
        running += stats
    count[0] += 1
    cache = (xhat, inv_std, gamma, n)
    return y, cache


def batch_norm_backward(dout, cache, out=None):
    """Gradients of `batch_norm_train` w.r.t. x (d, n), gamma and beta, the
    last two (1, d) as stored. `out`, a (2, d) array such as the arena rows
    of dgamma then dbeta, receives those two.

    With dxhat = dout·gamma, dx = (n·dxhat - Σdxhat - xhat·Σdxhat·xhat)
    ·inv_std/n (Ioffe & Szegedy 2015), so the row sums dgamma = Σdout·xhat
    and dbeta = Σdout are all it needs, and gamma joins inv_std/n once."""
    xhat, inv_std, gamma, n = cache
    # both row sums from one reduction over the batch axis
    buf = np.empty((2, *xhat.shape))
    np.multiply(dout, xhat, out=buf[0])
    buf[1] = dout
    sums = np.add.reduce(buf, axis=-1, out=out)
    dgamma, dbeta = sums[..., None]
    dx = n * dout
    dx -= dbeta
    dx -= xhat * dgamma
    scale = gamma.T * inv_std
    scale /= n
    dx *= scale
    return dx, sums[:1], sums[1:]


def batch_norm_eval(x, gamma, beta, running, count, eps, out=None):
    if count[0] == 0:
        raise StateError("batch norm running statistics are unpopulated; train first")
    mean, var = running[..., None]
    xhat = (x - mean) / np.sqrt(var + eps)
    y = np.multiply(gamma.T, xhat, out=out)
    y += beta.T
    return y


def dropout_train(x, rate, rng, out=None):
    """Inverted dropout: zero with probability `rate`, scale survivors by
    1/(1-rate), into `out` if given. The uniforms are drawn in the
    transposed order, so for an x (d, n) they come batch row by batch row,
    as for the same batch stored (n, d)."""
    if rate >= 1.0:
        raise ConfigError("dropout rate must be < 1")
    keep = rng.random(x.shape[::-1]).T >= rate
    mask = keep / (1.0 - rate)
    return np.multiply(x, mask, out=out), mask


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
    `gamma`, `beta`, their gradients, `running` and `count` are None.
    `backward` writes every gradient of `grad` it reaches; nothing adds."""

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
        # the last train-mode output with its ones row, reused while the
        # batch size stays
        self._out = None
        self.gamma = self.beta = self.dgamma = self.dbeta = self.running = self.count = None
        if use_bn:
            (self.gamma, self.beta), (self.dgamma, self.dbeta) = bn, dbn
            # dgamma and dbeta as the rows of one array, for one reduction
            self._dbn = self.grad[d * h + h:].reshape(2, h)
            self.gamma.fill(1.0)
            # running mean and variance as the rows of one array, updated in
            # place; the count is a 1-element array, so a checkpoint can copy
            # into it
            self.running = np.array([np.zeros(h), np.ones(h)])
            self.count = np.zeros(1, dtype=np.int64)

    def forward(self, x, mode="train", rng=None, ones_row=False):
        """f of the rows of x (n, in_dim), returned as columns (hidden, n).
        With `ones_row` they are the first rows of a (hidden + 1, n) array
        whose last row is 1, which maps through a head's (hidden + 1, k)
        weights-then-bias matrix to logits in one matmul; the last part of
        f writes straight into it. Train mode draws dropout masks from
        `rng`, uses batch statistics and keeps what `backward` reads, with
        that array, which the next train-mode batch of the same size
        overwrites; eval mode keeps nothing."""
        train = mode == "train"
        xt = np.asarray(x).T
        z = affine_forward(xt, self.W, self.b)
        out = self._ones_row_array(z.shape[-1], train) if ones_row else None
        # the last part of f, batch norm, else dropout, else the activation,
        # writes into h. An activation before another part writes a new
        # array: in place over z, sigmoid measured up to 2x slower in
        # training
        h = None if out is None else out[:-1]
        bn, drop = self.running is not None, train and self.dropout_rate > 0
        act_out = None if bn or drop else h
        # what the activation's backward reads: sigmoid's output, relu's mask
        if self.activation == "sigmoid":
            z = act = sigmoid(z, out=act_out)
        else:
            act = z > 0
            z = np.maximum(z, 0.0, out=act_out)
        mask = None
        if drop:
            if rng is None:
                raise StateError("dropout in training mode needs an rng")
            z, mask = dropout_train(z, self.dropout_rate, rng, out=None if bn else h)
        if train:
            self._xt, self._act, self._mask = xt, act, mask
        if bn and train:
            z, self._bn = batch_norm_train(z, self.gamma, self.beta, BN_EPS, self.running,
                                           self.count, BN_MOMENTUM, out=h)
        elif bn:
            z = batch_norm_eval(z, self.gamma, self.beta, self.running, self.count, BN_EPS, out=h)
        return z if out is None else out

    def _ones_row_array(self, n, train):
        """A (hidden + 1, n) array whose last row is 1. Train mode keeps one
        and makes a new one only when the batch size changes."""
        out = self._out if train else None
        if out is None or out.shape[1] != n:
            out = np.empty((self.W.shape[1] + 1, n))
            out[-1] = 1.0
            if train:
                self._out = out
        return out

    def backward(self, dout):
        """Write the parameter gradients of the last train-mode forward into
        `grad`, from dout (hidden, n). The gradient w.r.t. f's input is
        never read, so the first layer computes none."""
        if self.running is not None:
            dout, _, _ = batch_norm_backward(dout, self._bn, out=self._dbn)
        if self._mask is not None:
            dout = dout * self._mask
        if self.activation == "sigmoid":
            dout = dout * self._act * (1.0 - self._act)
        else:
            dout = dout * self._act
        affine_backward(dout, self._xt, out=(self.dW, self.db))

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
