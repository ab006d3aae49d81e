"""Dense-network building blocks: kernels, the shared extractor, losses and
optimizers.

Everything runs in float64 and keeps gradients explicit so analytic backward
passes can be checked against central finite differences.
"""
from __future__ import annotations

import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not agree."""


class ConfigError(ValueError):
    """Invalid layer / optimizer configuration."""


class StateError(RuntimeError):
    """Operation requires state that has not been populated yet."""


# the types of a real number; a tuple test is cheaper than `numbers.Real`
_REAL = (int, float, np.integer, np.floating)


def check_range(name: str, v, low, high=math.inf, low_open=False):
    """v, or a ConfigError naming the setting `name` and v unless v is a
    real number in [low, high), or (low, high) if `low_open`; a bool is no
    number. Written as `not (in range)` with `high` exclusive, so NaN and
    +inf lie in no interval, and -inf in none whose low end is open or
    finite."""
    if not (isinstance(v, _REAL) and type(v) is not bool
            and (low < v if low_open else low <= v) and v < high):
        raise ConfigError(f"{name} must lie in {'(' if low_open else '['}{low}, {high}), "
                          f"got {v!r}")
    return v


# Float operands of the training step are float64 0-d arrays: numpy converts
# a Python number operand anew on every call, at about a small ufunc's cost.
# Batch norm's variance offset and running-statistics decay in the extractor:
BN_EPS, BN_MOMENTUM = np.array(1e-5), np.array(0.9)
# zero, the unit, and the floor of a log-probability
_ZERO, _ONE, _LOG_P_MIN = np.array(0.0), np.array(1.0), np.array(-700.0)
# the weight of a batch's statistics in batch norm's moving average
_BN_RATE = np.array(_ONE - BN_MOMENTUM)


# ---------------------------------------------------------------------------
# functional ops


class AffineBuffers(NamedTuple):
    """`affine_forward`'s views of W (..., d, k) and b: Wᵀ (..., k, d) and
    b as a column (..., k, 1)."""
    WT: np.ndarray
    b_col: np.ndarray


def affine_buffers(W: np.ndarray, b) -> AffineBuffers:
    """The views `affine_forward` applies, of W and b, (..., 1, k) as the
    arenas store it or any shape of k entries per slice."""
    b_col = np.asarray(b, dtype=np.float64).reshape(*W.shape[:-2], -1, 1)
    if b_col.shape[-2] != W.shape[-1]:
        raise ShapeError(f"affine: b {b_col.shape} incompatible with W {W.shape}")
    return AffineBuffers(W.swapaxes(-1, -2), b_col)


def affine_forward(x: np.ndarray, W: np.ndarray, ws: AffineBuffers, out=None) -> np.ndarray:
    """z = Wᵀx + b for an array x (..., d, n), one column per batch row, and
    W (..., d, k), b (..., 1, k) as the arenas store them, with `ws`, the
    `affine_buffers` of W and b, holding the views it applies; returns (...,
    k, n), in `out` if given. W may carry leading model axes that a 2-D x
    lacks, and then that x feeds every model. matmul runs one gemm per
    slice, with the bits of the 2-D call on that slice."""
    if (x.ndim < 2 or W.ndim < 2 or x.shape[:-2] not in ((), W.shape[:-2])
            or x.shape[-2] != W.shape[-2]):
        raise ShapeError(f"affine: x {x.shape} incompatible with W {W.shape}")
    WT, b_col = ws
    z = np.matmul(WT, x, out=out)
    z += b_col
    return z


class AffineGradBuffers(NamedTuple):
    """`affine_backward`'s arrays for an upstream gradient dout (..., k, n):
    doutᵀ, dW in W's stored shape, and the rows (..., k) of db."""
    doutT: np.ndarray
    dW: np.ndarray
    db_rows: np.ndarray


def affine_backward_buffers(dout: np.ndarray, dW, db) -> AffineGradBuffers:
    """`affine_backward`'s arrays for dout, writing dW and db, arrays in
    W's and b's stored shapes such as arena views."""
    return AffineGradBuffers(dout.swapaxes(-1, -2), dW, db[..., 0, :])


def affine_backward(dout: np.ndarray, x: np.ndarray, ws: AffineGradBuffers) -> None:
    """The parameter gradients of `affine_forward`, slice by slice over
    leading axes, written into the dW and db of `ws`, the
    `affine_backward_buffers` of dout. No caller reads an affine layer's
    input gradient, so none is made."""
    doutT, dW, db_rows = ws
    np.matmul(x, doutT, out=dW)
    np.add.reduce(dout, axis=-1, out=db_rows)


def sigmoid(x: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Overflow-free logistic of a float64 array x: exp only ever sees
    -|x|. The numerator max(e, sign(x)) is 1 for x >= 0, where e <= 1, and
    e below. `out` and `scratch`, arrays of x's shape, receive the result
    and exp's."""
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


class CrossEntropyBuffers(NamedTuple):
    """`softmax_cross_entropy`'s buffers and views for one logits array."""
    logits: np.ndarray      # C-ordered float64 (..., k, n)
    rows: tuple             # its k class rows, (..., n) each
    grad: np.ndarray        # shifted logits, then their exp, then the gradient
    grad_flat: np.ndarray   # grad's flat view
    s: np.ndarray           # column maxima, later sums, (..., n)
    s_col: np.ndarray       # s as (..., 1, n)
    at: np.ndarray          # the labels' flat indices into grad, int64 (..., n)
    logp: np.ndarray        # the labels' log-probabilities (..., n)
    base: np.ndarray        # each column's class-0 flat index, slice * k * n + column
    n_int: np.ndarray       # n, int64
    n: np.ndarray           # n and -n, float64
    neg_n: np.ndarray


def cross_entropy_buffers(logits: np.ndarray) -> CrossEntropyBuffers:
    """`softmax_cross_entropy`'s buffers for `logits`, a C-ordered float64
    array (..., k, n) that they keep serving as it is rewritten."""
    if logits.ndim < 2:
        raise ShapeError("logits need a class and a batch axis")
    *lead, k, n = shape = logits.shape
    if k < 2:
        raise ShapeError("need at least 2 classes")
    col = (*lead, n)
    grad, s = np.empty(shape), np.empty(col)
    base = (np.arange(math.prod(lead))[:, None] * (k * n) + np.arange(n)).reshape(col)
    return CrossEntropyBuffers(
        logits, tuple(logits[..., j, :] for j in range(k)), grad, grad.reshape(-1), s,
        s[..., None, :], np.empty(col, dtype=np.int64), np.empty(col), base, np.array(n),
        np.array(float(n)), np.array(-float(n)))


def softmax_cross_entropy(labels: np.ndarray, ws: CrossEntropyBuffers):
    """Mean negative log-likelihood of the logits that `ws`, their
    `cross_entropy_buffers`, serves, and its gradient w.r.t. them.

    Returns (loss, grad) with grad = (softmax - onehot) / batch_size. Logits
    of shape (..., k, n), one column per batch row, give one mean loss per
    leading slice. Log-probabilities are clipped at -700. `ws` holds every
    intermediate, and grad is its `grad`.

    Precondition, checked by the callers and not here: the labels are an
    int64 array in [0, k), of shape (..., n) or a trailing part of it,
    such as (n,), which labels every leading slice alike.
    `TriNet._heads_loss` checks a training batch's before f's pass, and
    `analysis.a_distance` builds its 0/1 domain labels itself.
    """
    logits, rows, grad, grad_flat, s, s_col, at, logp, base, n_int, n, neg_n = ws
    # a fold of np.maximum over the class rows is the exact max; each call
    # runs numpy's inner loop once over a whole batch row
    np.maximum(rows[0], rows[1], out=s)
    for row in rows[2:]:
        np.maximum(s, row, out=s)
    np.subtract(logits, s_col, out=grad)
    # flat index of each column's label entry: (slice * k + label) * n + column;
    # labels in [0, k) clip no index
    np.multiply(labels, n_int, out=at)
    at += base
    grad.take(at, out=logp, mode="clip")
    np.exp(grad, out=grad)
    # a reduction over a non-contiguous axis adds the class rows in order
    np.add.reduce(grad, axis=-2, out=s)
    np.divide(grad, s_col, out=grad)
    logp -= np.log(s, out=s)
    np.maximum(logp, _LOG_P_MIN, out=logp)
    # a/-n is -(a/n), to the bit
    loss = np.add.reduce(logp, axis=-1) / neg_n
    grad_flat[at] -= _ONE
    grad /= n
    return loss, grad


class BatchNormBuffers(NamedTuple):
    """The buffers and views of `batch_norm_train` and `batch_norm_backward`
    for one batch size; the train call leaves backward's cache in them."""
    xhat: np.ndarray        # the centred x, then x̂ (d, n)
    inv_std: np.ndarray     # (d, 1) columns of one (3, d, 1) array
    mean: np.ndarray
    var: np.ndarray
    stats: np.ndarray       # mean and variance as its (2, d) rows
    n: np.ndarray           # n, float64
    gammaT: np.ndarray      # gamma and beta as (d, 1) columns
    betaT: np.ndarray
    buf: np.ndarray         # backward's (2, d, n) buffer: dout·x̂ over dout, later dx
    buf_xhat: np.ndarray
    dx: np.ndarray
    scale: np.ndarray       # gamma·inv_std/n (d, 1)
    grads: np.ndarray       # the (2, d) rows of dgamma then dbeta
    dgamma_col: np.ndarray  # their (d, 1) columns
    dbeta_col: np.ndarray


def batch_norm_buffers(gamma, beta, n: int, grads) -> BatchNormBuffers:
    """Batch norm's workspace for x (d, n) with gamma and beta (1, d) as
    stored, and `grads`, the (2, d) array, such as the arena rows of dgamma
    then dbeta, that backward writes."""
    d = gamma.shape[-1]
    stats, buf = np.empty((3, d, 1)), np.empty((2, d, n))
    return BatchNormBuffers(
        np.empty((d, n)), stats[2], stats[0], stats[1], stats[:2, :, 0], np.array(float(n)),
        gamma.T, beta.T, buf, buf[0], buf[1], np.empty((d, 1)), grads, grads[0, :, None],
        grads[1, :, None])


def batch_norm_train(x, running, count, ws: BatchNormBuffers, out) -> None:
    """Standardize each feature row of x (d, n), a C-ordered float64 array,
    with its batch statistics, then scale and shift by the gamma and beta
    of `ws`, their `batch_norm_buffers`, into `out` (d, n). `ws` holds the
    intermediates, x̂ among them, and is the cache `batch_norm_backward`
    reads.

    `running` (2, d) holds the running mean and variance as its rows and
    `count` (1,) the batches seen; both are updated in place, the rows by
    an exponential moving average with `BN_MOMENTUM`. Batch variance is
    the biased estimator.
    """
    if x.shape[-1] < 2:
        raise ValueError("batch norm needs a batch of at least 2 in training mode")
    # the squared centred x go to backward's dout·x̂ row, unread until backward
    # writes it
    xhat, inv_std, mean, var, stats, n, gammaT, betaT, _, sq = ws[:10]
    # sum / n is what mean() and var() compute, without their dispatch cost
    np.add.reduce(x, axis=-1, keepdims=True, out=mean)
    mean /= n
    np.subtract(x, mean, out=xhat)
    np.add.reduce(np.multiply(xhat, xhat, out=sq), axis=-1, keepdims=True, out=var)
    var /= n
    np.add(var, BN_EPS, out=inv_std)
    np.sqrt(inv_std, out=inv_std)
    np.divide(_ONE, inv_std, out=inv_std)
    np.multiply(xhat, inv_std, out=xhat)
    np.multiply(gammaT, xhat, out=out)
    out += betaT
    if count[0] == 0:
        running[...] = stats
    else:
        running *= BN_MOMENTUM
        stats *= _BN_RATE
        running += stats
    count[0] += 1


def batch_norm_backward(dout, cache: BatchNormBuffers):
    """Gradients of `batch_norm_train` w.r.t. x (d, n), gamma and beta from
    its cache: returns dx, its `dx` row, and writes dgamma and dbeta into
    the rows of its `grads`. A caller that writes dout into `cache.dx`
    spares the copy there.

    With dxhat = dout·gamma, dx = (n·dxhat - Σdxhat - xhat·Σdxhat·xhat)
    ·inv_std/n (Ioffe & Szegedy 2015), so the row sums dgamma = Σdout·xhat
    and dbeta = Σdout are all it needs, and gamma joins inv_std/n once."""
    (xhat, inv_std, _, _, _, n, gammaT, _, buf, buf_xhat, dx, scale, grads, dgamma_col,
     dbeta_col) = cache
    # both row sums from one reduction over the batch axis; numpy copies
    # nothing when dout already is the row it is assigned to
    np.multiply(dout, xhat, out=buf_xhat)
    dx[...] = dout
    np.add.reduce(buf, axis=-1, out=grads)
    np.multiply(dx, n, out=dx)
    dx -= dbeta_col
    dx -= np.multiply(xhat, dgamma_col, out=buf_xhat)
    np.multiply(gammaT, inv_std, out=scale)
    scale /= n
    dx *= scale
    return dx


def batch_norm_eval(x, gamma, beta, running, count):
    if count[0] == 0:
        raise StateError("batch norm running statistics are unpopulated; train first")
    mean, var = running[..., None]
    xhat = (x - mean) / np.sqrt(var + BN_EPS)
    y = np.multiply(gamma.T, xhat)
    y += beta.T
    return y


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
    `b`, `gamma`, `beta` and `dW`, `db` are views into them. Its owner
    passes zero-filled views of `size` elements as the two, `arena` =
    (theta, grad). Batch norm's running mean and variance are the rows of
    `running` (2, hidden) and its batch count is `count` (1,). Without
    batch norm, `gamma`, `beta`, `running` and `count` are None.
    `backward` writes every gradient of `grad` it reaches; nothing adds."""

    def __init__(self, in_dim: int, hidden_dim: int, activation: str, dropout_rate: float,
                 use_bn: bool, rng, arena):
        if activation not in ("sigmoid", "relu"):
            raise ConfigError(f"unsupported activation {activation!r}")
        check_range("in_dim", in_dim, 1)
        check_range("hidden_dim", hidden_dim, 1)
        check_range("dropout_rate", dropout_rate, 0, 1)
        d, h = in_dim, hidden_dim
        self.in_dim, self.activation, self.dropout_rate = in_dim, activation, dropout_rate
        self._rate, self._keep_rate = np.array(float(dropout_rate)), np.array(1.0 - dropout_rate)
        self.theta, self.grad = arena
        self.W, self.dW = (a[:d * h].reshape(d, h) for a in (self.theta, self.grad))
        # the (1, h) rows after W: b, then gamma and beta
        (self.b, *bn), (self.db, *_) = (a[d * h:].reshape(-1, 1, h)
                                        for a in (self.theta, self.grad))
        self.W[...] = glorot_uniform(rng, d, h)
        # the views the first layer applies
        self._affine = affine_buffers(self.W, self.b)
        self.gamma = self.beta = self.running = self.count = None
        if use_bn:
            self.gamma, self.beta = bn
            # the gradients of gamma and beta as the rows of one array, for
            # one reduction
            self._dbn = self.grad[d * h + h:].reshape(2, h)
            self.gamma.fill(1.0)
            # running mean and variance as the rows of one array, updated in
            # place; the count is a 1-element array, so a checkpoint can copy
            # into it
            self.running = np.array([np.zeros(h), np.ones(h)])
            self.count = np.zeros(1, dtype=np.int64)

    @staticmethod
    def size(in_dim: int, hidden_dim: int, use_bn: bool) -> int:
        return (in_dim + (3 if use_bn else 1)) * hidden_dim

    def workspace(self, n):
        """A training batch of n rows' buffers and views: `out` (hidden + 1,
        n), last row 1, which maps through a head's (hidden + 1, k)
        weights-then-bias matrix to logits in one matmul, and its first rows
        `h`; the pre-activation `z`, the activation's output (`h` if f's last
        part), and `act`, what backward multiplies by: sigmoid's output, or
        relu's mask; sigmoid's scratch `e`, dropout's uniforms `u` (n,
        hidden), `uT`, `keep`, `mask` and output, and batch norm's buffers,
        None without the part; `dout`, where a caller writes backward's
        incoming gradient; the first layer's gradient buffers; and the
        batch's columns `xt`, which `forward` records."""
        d = self.W.shape[1]
        out = np.empty((d + 1, n))
        out[-1] = 1.0
        h, z = out[:-1], np.empty((d, n))
        bn, dropout = self.running is not None, self.dropout_rate > 0
        drop = dict.fromkeys(("u", "uT", "keep", "mask", "drop_out"))
        if dropout:
            u = np.empty((n, d))
            drop = dict(u=u, uT=u.T, keep=np.empty((d, n), dtype=bool), mask=np.empty((d, n)),
                        drop_out=z if bn else h)
        act_out = np.empty((d, n)) if bn or dropout else h
        sig = self.activation == "sigmoid"
        bn_bufs = batch_norm_buffers(self.gamma, self.beta, n, self._dbn) if bn else None
        return SimpleNamespace(
            out=out, h=h, z=z, act_out=act_out, e=np.empty((d, n)) if sig else None,
            act=act_out if sig else np.empty((d, n), dtype=bool), **drop, bn=bn_bufs,
            # f's incoming gradient is batch norm's dx row, else free space in z
            dout=bn_bufs.dx if bn else z, affine=affine_backward_buffers(z, self.dW, self.db),
            xt=None)

    def forward(self, x, ws, rng=None):
        """f of the rows of an array x (n, in_dim) in training mode, in `ws`,
        their `workspace(n)`: each part writes its buffer, the last part the
        first rows of `ws.out`, which is returned. Dropout draws its masks
        from `rng`, batch norm uses batch statistics, and `ws` keeps what
        `backward` reads, so the next batch in it overwrites its output."""
        if self.dropout_rate > 0 and rng is None:
            raise StateError("dropout in training mode needs an rng")
        ws.xt = xt = x.T
        z = affine_forward(xt, self.W, self._affine, ws.z)
        if self.activation == "sigmoid":
            z = sigmoid(z, ws.act_out, ws.e)
        else:
            np.greater(z, _ZERO, out=ws.act)
            z = np.maximum(z, _ZERO, out=ws.act_out)
        if ws.mask is not None:
            rng.random(out=ws.u)
            np.greater_equal(ws.uT, self._rate, out=ws.keep)
            np.divide(ws.keep, self._keep_rate, out=ws.mask)
            z = np.multiply(z, ws.mask, out=ws.drop_out)
        if ws.bn is not None:
            batch_norm_train(z, self.running, self.count, ws.bn, ws.h)
        return ws.out

    def eval(self, x):
        """f of the rows of x (n, in_dim) without dropout and with batch norm's
        running statistics, over a ones row: (hidden + 1, n), in new arrays."""
        z = affine_forward(x.T, self.W, self._affine)
        z = sigmoid(z) if self.activation == "sigmoid" else np.maximum(z, _ZERO)
        if self.running is not None:
            z = batch_norm_eval(z, self.gamma, self.beta, self.running, self.count)
        return np.vstack([z, np.ones((1, z.shape[1]))])

    def backward(self, ws):
        """Write into `grad` the parameter gradients of the batch `forward`
        ran in `ws`, from the gradient (hidden, n) a caller wrote in `ws.dout`;
        a StateError if none ran. The first layer makes no input gradient."""
        if ws.xt is None:
            raise StateError("backward needs a train-mode forward in its workspace first")
        dout = ws.dout
        if ws.bn is not None:
            dout = batch_norm_backward(dout, ws.bn)
        if ws.mask is not None:
            dout = np.multiply(dout, ws.mask, out=ws.z)
        dout = np.multiply(dout, ws.act, out=ws.z)
        if self.activation == "sigmoid":
            dout *= np.subtract(_ONE, ws.act, out=ws.e)
        affine_backward(dout, ws.xt, ws.affine)

    def zero_grads(self):
        self.grad.fill(0.0)


# ---------------------------------------------------------------------------
# optimizers


class Optimizer:
    """An elementwise update of one parameter arena, with one `slot` array
    over it, which the first `bind` makes; each subclass defines `step`."""
    # the float operands of an update are float64 0-d arrays; `lr` is the
    # learning rate's as a float, and each step reads it anew
    lr = property(lambda self: float(self._lr),
                  lambda self, lr: self._lr.fill(check_range("lr", lr, 0, low_open=True)))

    def __init__(self, lr: float):
        self._lr = np.array(float(check_range("lr", lr, 0, low_open=True)))
        self.slot: np.ndarray | None = None

    def bind(self, theta: np.ndarray, grad: np.ndarray, span=slice(None)):
        """(param, grad, slot, (2, *shape) scratch) over `span` of the leading
        axis of the arena `theta` and its gradient `grad`, whose shapes, and
        the slot's, are checked here once. While neither is rebound,
        `step(bound)` updates that span."""
        if grad.shape != theta.shape:
            raise ShapeError(f"gradient shape {grad.shape} != param shape {theta.shape}")
        if self.slot is None:
            self.slot = np.zeros_like(theta)
        elif self.slot.shape != theta.shape:
            raise ShapeError(f"optimizer slot shape {self.slot.shape} != param {theta.shape}")
        param = theta[span]
        return param, grad[span], self.slot[span], np.empty((2, *param.shape))


class MomentumSGD(Optimizer):
    def __init__(self, lr: float, momentum: float = 0.9):
        super().__init__(lr)
        self.momentum = np.array(float(check_range("momentum", momentum, 0, 1)))

    def step(self, bound):
        p, g, v, t = bound
        v *= self.momentum
        # g·lr is lr·g, to the bit
        v -= np.multiply(g, self._lr, out=t[0])
        p += v


class Adagrad(Optimizer):
    def __init__(self, lr: float, eps: float = 1e-8):
        super().__init__(lr)
        self.eps = np.array(float(check_range("adagrad eps", eps, 0, low_open=True)))

    def step(self, bound):
        p, g, a, t = bound
        a += np.multiply(g, g, out=t[0])
        root = np.sqrt(a, out=t[1])
        root += self.eps
        p -= np.divide(np.multiply(g, self._lr, out=t[0]), root, out=t[0])


def make_optimizer(kind: str, lr: float, momentum: float = 0.9, eps: float = 1e-8) -> Optimizer:
    if kind == "momentum_sgd":
        return MomentumSGD(lr, momentum)
    if kind == "adagrad":
        return Adagrad(lr, eps)
    raise ConfigError(f"unknown optimizer kind {kind!r}")
