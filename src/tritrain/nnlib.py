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


# Float operands of the training step are float64 0-d arrays: numpy converts
# a Python number operand anew on every call, at about a small ufunc's cost.
# Batch norm's variance offset and running-statistics decay in the extractor:
BN_EPS, BN_MOMENTUM = np.array(1e-5), np.array(0.9)
# the unit, and the floor of a log-probability
_ONE, _LOG_P_MIN = np.array(1.0), np.array(-700.0)


# ---------------------------------------------------------------------------
# functional ops


def affine_forward(x: np.ndarray, W: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """z = Wᵀx + b for x (..., d, n), one column per batch row, and W
    (..., d, k), b (..., 1, k) as the arenas store them; returns (..., k, n),
    in `out` if given. W may carry leading model axes that a 2-D x lacks,
    and then that x feeds every model. matmul runs one gemm per slice, with
    the bits of the 2-D call on that slice."""
    x = np.asarray(x, dtype=np.float64)
    if (x.ndim < 2 or W.ndim < 2 or x.shape[:-2] not in ((), W.shape[:-2])
            or x.shape[-2] != W.shape[-2]):
        raise ShapeError(f"affine: x {x.shape} incompatible with W {W.shape}")
    b = np.asarray(b, dtype=np.float64).reshape(*W.shape[:-2], -1, 1)
    if b.shape[-2] != W.shape[-1]:
        raise ShapeError(f"affine: b {b.shape} incompatible with W {W.shape}")
    z = np.matmul(W.swapaxes(-1, -2), x, out=out)
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


def sigmoid(x: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Overflow-free logistic: exp only ever sees -|x|. The numerator
    max(e, sign(x)) is 1 for x >= 0, where e <= 1, and e below. `out` and
    `scratch`, arrays of x's shape, receive the result and exp's."""
    x = np.asarray(x, dtype=np.float64)
    e = np.abs(x, out=scratch)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.sign(x, out=out)
    np.maximum(e, num, out=num)
    e += _ONE
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


def cross_entropy_buffers(shape: tuple):
    """`softmax_cross_entropy`'s buffers for logits of `shape` (..., k, n):
    shifted logits, later the gradient; column maxima, later sums; the labels'
    flat indices and log-probabilities; the label base; n and -n."""
    col, n = (*shape[:-2], shape[-1]), float(shape[-1])
    return (np.empty(shape), np.empty(col), np.empty(col, dtype=np.int64), np.empty(col),
            _label_base(tuple(shape)), np.array(n), np.array(-n))


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray, ws=None):
    """Mean negative log-likelihood and its gradient w.r.t. the logits.

    Returns (loss, grad) with grad = (softmax - onehot) / batch_size. Logits
    of shape (..., k, n), one column per batch row, give one mean loss per
    leading slice. Labels have shape (..., n); a trailing part of it, such
    as (n,), labels every leading slice alike. Log-probabilities are clipped
    at -700. `ws`, the `cross_entropy_buffers` of the logits' shape, holds
    every intermediate, and grad is its first; without it they are new.
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
    z, s, at, logp, base, n_op, neg_n = cross_entropy_buffers(logits.shape) if ws is None else ws
    # a fold of np.maximum over the class rows is the exact max; each call
    # runs numpy's inner loop once over a whole batch row
    np.maximum(logits[..., 0, :], logits[..., 1, :], out=s)
    for j in range(2, k):
        np.maximum(s, logits[..., j, :], out=s)
    np.subtract(logits, s[..., None, :], out=z)
    # flat index of each column's label entry: (slice * k + label) * n + column;
    # the labels were checked, so no index clips
    np.multiply(labels, n, out=at)
    at += base
    z.take(at, out=logp, mode="clip")
    e = np.exp(z, out=z)
    # a reduction over a non-contiguous axis adds the class rows in order
    np.add.reduce(e, axis=-2, out=s)
    grad = np.divide(e, s[..., None, :], out=e)
    logp -= np.log(s, out=s)
    np.maximum(logp, _LOG_P_MIN, out=logp)
    # a/-n is -(a/n), to the bit
    loss = np.add.reduce(logp, axis=-1) / neg_n
    grad.reshape(-1)[at] -= _ONE
    grad /= n_op
    return loss, grad


def batch_norm_buffers(d: int, n: int):
    """`batch_norm_train`'s buffers for x (d, n): mean, variance and inverse
    std as (d, 1) columns of one array; centred x, later x̂; its square; n."""
    return np.empty((3, d, 1)), np.empty((d, n)), np.empty((d, n)), np.array(float(n))


def batch_norm_train(x, gamma, beta, eps, running, count, momentum=0.9, out=None, ws=None):
    """Standardize each feature row of x (d, n) with its batch statistics,
    then scale and shift by gamma and beta, (1, d) as stored, into `out`
    if given. `ws`, x's `batch_norm_buffers`, holds the intermediates, x̂
    among them; without it they are new.

    `running` (2, d) holds the running mean and variance as its rows and
    `count` (1,) the batches seen; both are updated in place, the rows by
    an exponential moving average. Returns (y, cache) where cache feeds
    batch_norm_backward. Batch variance is the biased estimator.
    """
    # C order keeps each feature's batch row contiguous
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape[-1] < 2:
        raise ValueError("batch norm needs a batch of at least 2 in training mode")
    stats, xc, sq, n = batch_norm_buffers(*x.shape) if ws is None else ws
    # sum / n is what mean() and var() compute, without their dispatch cost
    mean, var, inv_std = stats[0], stats[1], stats[2]
    np.add.reduce(x, axis=-1, keepdims=True, out=mean)
    mean /= n
    np.subtract(x, mean, out=xc)
    np.add.reduce(np.multiply(xc, xc, out=sq), axis=-1, keepdims=True, out=var)
    var /= n
    np.add(var, eps, out=inv_std)
    np.sqrt(inv_std, out=inv_std)
    np.divide(_ONE, inv_std, out=inv_std)
    xhat = np.multiply(xc, inv_std, out=xc)
    y = np.multiply(gamma.T, xhat, out=out)
    y += beta.T
    stats = stats[:2, :, 0]
    if count[0] == 0:
        running[...] = stats
    else:
        running *= momentum
        stats *= 1 - momentum
        running += stats
    count[0] += 1
    cache = (xhat, inv_std, gamma, n)
    return y, cache


def batch_norm_backward(dout, cache, out=None, buf=None):
    """Gradients of `batch_norm_train` w.r.t. x (d, n), gamma and beta, the
    last two (1, d) as stored. `out`, a (2, d) array such as the arena rows
    of dgamma then dbeta, receives those two, and `buf`, a (2, d, n) array,
    the intermediates; dx is its second row.

    With dxhat = dout·gamma, dx = (n·dxhat - Σdxhat - xhat·Σdxhat·xhat)
    ·inv_std/n (Ioffe & Szegedy 2015), so the row sums dgamma = Σdout·xhat
    and dbeta = Σdout are all it needs, and gamma joins inv_std/n once."""
    xhat, inv_std, gamma, n = cache
    # both row sums from one reduction over the batch axis
    buf = np.empty((2, *xhat.shape)) if buf is None else buf
    np.multiply(dout, xhat, out=buf[0])
    buf[1] = dout
    sums = np.add.reduce(buf, axis=-1, out=out)
    dgamma, dbeta = sums[..., None]
    dx = np.multiply(dout, n, out=buf[1])
    dx -= dbeta
    dx -= np.multiply(xhat, dgamma, out=buf[0])
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
        # the train-mode workspace, kept while the batch size stays
        self._ws = None
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
        weights-then-bias matrix to logits in one matmul. Each part writes a
        `_workspace` buffer, the last part those rows. Train mode draws
        dropout masks from `rng`, uses batch statistics and keeps its
        workspace, with what `backward` reads, while the batch size stays:
        the next such batch overwrites its output. Eval mode uses a new
        workspace and keeps nothing. Another mode is a ConfigError."""
        if mode not in ("train", "eval"):
            raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
        train = mode == "train"
        bn, drop = self.running is not None, train and self.dropout_rate > 0
        if drop and rng is None:
            raise StateError("dropout in training mode needs an rng")
        xt = np.asarray(x).T
        ws = self._ws if train else None
        if ws is None or ws["out"].shape[1] != xt.shape[-1]:
            ws = self._workspace(xt.shape[-1], train)
        h = ws["h"]
        z = affine_forward(xt, self.W, self.b, out=ws["z"])
        # the last part of f, batch norm, else dropout, else the activation,
        # writes into h. An activation before another part writes its own
        # buffer: in place over z, sigmoid measured up to 2x slower
        act_out = ws["act"] if bn or drop else h
        # what the activation's backward reads: sigmoid's output, relu's mask
        if self.activation == "sigmoid":
            z = act = sigmoid(z, out=act_out, scratch=ws["e"])
        else:
            act = np.greater(z, 0.0, out=ws.get("mask"))
            z = np.maximum(z, 0.0, out=act_out)
        mask = cache = None
        if drop:
            z, mask = dropout_train(z, self.dropout_rate, rng, out=ws["z"] if bn else h)
        if bn and train:
            _, cache = batch_norm_train(z, self.gamma, self.beta, BN_EPS, self.running,
                                        self.count, BN_MOMENTUM, out=h, ws=ws["bn"])
        elif bn:
            batch_norm_eval(z, self.gamma, self.beta, self.running, self.count, BN_EPS, out=h)
        if train:
            self._ws, self._xt, self._act, self._mask, self._bn = ws, xt, act, mask, cache
        return ws["out"] if ones_row else h

    def _workspace(self, n, train):
        """A batch of n rows' buffers: `out` (hidden + 1, n), last row 1, first
        rows `h`; `z`, `act`, sigmoid's `e`; in train mode relu's `mask` and
        batch norm's, forward and backward."""
        d = self.W.shape[1]
        out = np.empty((d + 1, n))
        out[-1] = 1.0
        ws = {"out": out, "h": out[:-1], "z": np.empty((d, n)), "act": np.empty((d, n)),
              "e": np.empty((d, n))}
        if train:
            ws.update(mask=np.empty((d, n), dtype=bool), bn=batch_norm_buffers(d, n),
                      bwd=np.empty((2, d, n)))
        return ws

    def backward(self, dout):
        """Write the parameter gradients of the last train-mode forward into
        `grad`, from dout (hidden, n), in its workspace; a StateError if none
        ran. f's input gradient is never read, so the first layer makes none."""
        ws = self._ws
        if ws is None:
            raise StateError("backward needs a train-mode forward first")
        if self.running is not None:
            dout, _, _ = batch_norm_backward(dout, self._bn, out=self._dbn, buf=ws["bwd"])
        if self._mask is not None:
            dout = np.multiply(dout, self._mask, out=ws["z"])
        dout = np.multiply(dout, self._act, out=ws["z"])
        if self.activation == "sigmoid":
            dout *= np.subtract(_ONE, self._act, out=ws["e"])
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

    def bind(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        """(param, grad, slot, (2, *shape) scratch) of each param, checked by
        `_slot`. While no array is rebound, `step(bound)` is `step(params, grads)`."""
        return [(p, grads[name], self._slot(name, p, grads[name]), np.empty((2, *p.shape)))
                for name, p in params.items()]

    def step(self, params, grads=None):
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

    def step(self, params, grads=None):
        for p, g, v, t in params if grads is None else self.bind(params, grads):
            v *= self.momentum
            # g·lr is lr·g, to the bit
            v -= np.multiply(g, self.lr, out=t[0])
            p += v


class Adagrad(Optimizer):
    def __init__(self, lr: float, eps: float = 1e-8):
        super().__init__(lr)
        if eps <= 0:
            raise ConfigError("adagrad eps must be positive")
        self.eps = eps

    def step(self, params, grads=None):
        for p, g, a, t in params if grads is None else self.bind(params, grads):
            a += np.multiply(g, g, out=t[0])
            root = np.sqrt(a, out=t[1])
            root += self.eps
            p -= np.divide(np.multiply(g, self.lr, out=t[0]), root, out=t[0])


def make_optimizer(kind: str, lr: float, momentum: float = 0.9, eps: float = 1e-8) -> Optimizer:
    if kind == "momentum_sgd":
        return MomentumSGD(lr, momentum)
    if kind == "adagrad":
        return Adagrad(lr, eps)
    raise ConfigError(f"unknown optimizer kind {kind!r}")
