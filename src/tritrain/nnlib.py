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


# Float operands of the training step are float64 0-d arrays: numpy converts
# a Python number operand anew on every call, at about a small ufunc's cost.
# Batch norm's variance offset and running-statistics decay in the extractor:
BN_EPS, BN_MOMENTUM = np.array(1e-5), np.array(0.9)
# zero, the unit, and the floor of a log-probability
_ZERO, _ONE, _LOG_P_MIN = np.array(0.0), np.array(1.0), np.array(-700.0)


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


def affine_forward(x: np.ndarray, W: np.ndarray, b: np.ndarray, out=None, ws=None) -> np.ndarray:
    """z = Wᵀx + b for an array x (..., d, n), one column per batch row, and
    W (..., d, k), b (..., 1, k) as the arenas store them; returns (..., k,
    n), in `out` if given. `ws`, the `affine_buffers` of W and b, holds the
    views it applies; without it they are new. W may carry leading model
    axes that a 2-D x lacks, and then that x feeds every model. matmul runs
    one gemm per slice, with the bits of the 2-D call on that slice."""
    if (x.ndim < 2 or W.ndim < 2 or x.shape[:-2] not in ((), W.shape[:-2])
            or x.shape[-2] != W.shape[-2]):
        raise ShapeError(f"affine: x {x.shape} incompatible with W {W.shape}")
    WT, b_col = affine_buffers(W, b) if ws is None else ws
    z = np.matmul(WT, x, out=out)
    z += b_col
    return z


class AffineGradBuffers(NamedTuple):
    """`affine_backward`'s arrays for an upstream gradient dout (..., k, n):
    doutᵀ, dW and db in W's and b's stored shapes, and db's rows (..., k)."""
    doutT: np.ndarray
    dW: np.ndarray
    db: np.ndarray
    db_rows: np.ndarray


def affine_backward_buffers(dout: np.ndarray, x, out=None) -> AffineGradBuffers:
    """`affine_backward`'s arrays for dout, with dW and db those of `out`,
    a (dW, db) pair such as arena views, or new ones that fit x, which is
    read only then."""
    if out is None:
        lead, k = np.broadcast_shapes(x.shape[:-2], dout.shape[:-2]), dout.shape[-2]
        out = np.empty((*lead, x.shape[-2], k)), np.empty((*lead, 1, k))
    dW, db = out
    return AffineGradBuffers(dout.swapaxes(-1, -2), dW, db, db[..., 0, :])


def affine_backward(dout: np.ndarray, x: np.ndarray, W: np.ndarray | None = None, ws=None):
    """Gradients of `affine_forward`, slice by slice over leading axes, with
    dW and db in W's and b's stored shapes. The input gradient dx needs W;
    without it dx is None, for a first layer whose input gradient nothing
    reads. dW and db are written into the arrays of `ws`, the
    `affine_backward_buffers` of dout, such as arena views; without it they
    are new."""
    doutT, dW, db, db_rows = affine_backward_buffers(dout, x) if ws is None else ws
    dx = None if W is None else W @ dout
    np.matmul(x, doutT, out=dW)
    np.add.reduce(dout, axis=-1, out=db_rows)
    return dx, dW, db


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
    label_shapes: tuple     # the label shapes that fit: (..., n) and its trailing parts
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
        s[..., None, :], np.empty(col, dtype=np.int64), np.empty(col), base,
        tuple(col[i:] for i in range(len(col))), np.array(n), np.array(float(n)),
        np.array(-float(n)))


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray, ws=None):
    """Mean negative log-likelihood and its gradient w.r.t. the logits.

    Returns (loss, grad) with grad = (softmax - onehot) / batch_size. Logits
    of shape (..., k, n), one column per batch row, give one mean loss per
    leading slice. Labels have shape (..., n); a trailing part of it, such
    as (n,), labels every leading slice alike. Log-probabilities are clipped
    at -700. `ws`, the `cross_entropy_buffers` of `logits` itself, holds
    every intermediate, and grad is its `grad`; the labels are then an int64
    array. Without it the logits and labels are converted and the buffers
    are new.
    """
    if ws is None:
        # C order keeps each batch row contiguous and makes the flat indices
        # below address `grad` itself
        ws = cross_entropy_buffers(np.ascontiguousarray(logits, dtype=np.float64))
        labels = np.asarray(labels, dtype=np.int64)
    elif ws.logits is not logits:
        raise ShapeError("the cross-entropy buffers belong to another logits array")
    (logits, rows, grad, grad_flat, s, s_col, at, logp, base, label_shapes, n_int, n,
     neg_n) = ws
    if labels.shape not in label_shapes:
        raise ShapeError(f"labels {labels.shape} do not fit logits {logits.shape}")
    # read as unsigned, a negative label is 2**63 or more
    if np.maximum.reduce(labels.view(np.uint64), axis=None, initial=0) >= len(rows):
        raise ValueError(f"labels must lie in [0, {len(rows)})")
    # a fold of np.maximum over the class rows is the exact max; each call
    # runs numpy's inner loop once over a whole batch row
    np.maximum(rows[0], rows[1], out=s)
    for row in rows[2:]:
        np.maximum(s, row, out=s)
    np.subtract(logits, s_col, out=grad)
    # flat index of each column's label entry: (slice * k + label) * n + column;
    # the labels were checked, so no index clips
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
    for one batch size; the train call returns them as its cache."""
    xhat: np.ndarray        # the centred x, then x̂ (d, n)
    inv_std: np.ndarray     # (d, 1) columns of one (3, d, 1) array
    mean: np.ndarray
    var: np.ndarray
    stats: np.ndarray       # mean and variance as its (2, d) rows
    n: np.ndarray           # n, then momentum and 1 - momentum, the weights
    momentum: np.ndarray    # of the running and of the new statistics
    rate: np.ndarray
    gammaT: np.ndarray      # gamma and beta as (d, 1) columns
    betaT: np.ndarray
    buf: np.ndarray         # backward's (2, d, n) buffer: dout·x̂ over dout, later dx
    buf_xhat: np.ndarray
    dx: np.ndarray
    scale: np.ndarray       # gamma·inv_std/n (d, 1)
    grads: np.ndarray       # the (2, d) rows of dgamma then dbeta
    dgamma_col: np.ndarray  # their (d, 1) columns
    dbeta_col: np.ndarray
    dgamma: np.ndarray      # and their (1, d) rows
    dbeta: np.ndarray


def batch_norm_buffers(gamma, beta, n: int, momentum=BN_MOMENTUM, grads=None) -> BatchNormBuffers:
    """Batch norm's workspace for x (d, n) with gamma and beta (1, d) as
    stored, the running statistics' `momentum`, and `grads`, the (2, d)
    array, such as the arena rows of dgamma then dbeta, that backward
    writes, or a new one."""
    d = gamma.shape[-1]
    stats, buf = np.empty((3, d, 1)), np.empty((2, d, n))
    grads = np.empty((2, d)) if grads is None else grads
    return BatchNormBuffers(
        np.empty((d, n)), stats[2], stats[0], stats[1], stats[:2, :, 0], np.array(float(n)),
        np.array(momentum, dtype=np.float64), np.array(_ONE - momentum), gamma.T, beta.T, buf,
        buf[0], buf[1], np.empty((d, 1)), grads, grads[0, :, None], grads[1, :, None],
        grads[:1], grads[1:])


def batch_norm_train(x, gamma, beta, eps, running, count, out=None, ws=None):
    """Standardize each feature row of x (d, n) with its batch statistics,
    then scale and shift by gamma and beta, (1, d) as stored, into `out`
    if given. `ws`, the `batch_norm_buffers` of gamma, beta and n, holds
    the intermediates, x̂ among them, and x is then a C-ordered float64
    array; without it x is converted and they are new, with `BN_MOMENTUM`.

    `running` (2, d) holds the running mean and variance as its rows and
    `count` (1,) the batches seen; both are updated in place, the rows by
    an exponential moving average with the workspace's momentum. Returns
    (y, cache), where the cache, the workspace, feeds batch_norm_backward.
    Batch variance is the biased estimator.
    """
    if ws is None:
        # C order keeps each feature's batch row contiguous
        x = np.ascontiguousarray(x, dtype=np.float64)
        ws = batch_norm_buffers(gamma, beta, x.shape[-1])
    if x.shape[-1] < 2:
        raise ValueError("batch norm needs a batch of at least 2 in training mode")
    # the squared centred x go to backward's dout·x̂ row, unread until backward
    # writes it
    xhat, inv_std, mean, var, stats, n, momentum, rate, gammaT, betaT, _, sq = ws[:12]
    # sum / n is what mean() and var() compute, without their dispatch cost
    np.add.reduce(x, axis=-1, keepdims=True, out=mean)
    mean /= n
    np.subtract(x, mean, out=xhat)
    np.add.reduce(np.multiply(xhat, xhat, out=sq), axis=-1, keepdims=True, out=var)
    var /= n
    np.add(var, eps, out=inv_std)
    np.sqrt(inv_std, out=inv_std)
    np.divide(_ONE, inv_std, out=inv_std)
    np.multiply(xhat, inv_std, out=xhat)
    y = np.multiply(gammaT, xhat, out=out)
    y += betaT
    if count[0] == 0:
        running[...] = stats
    else:
        running *= momentum
        stats *= rate
        running += stats
    count[0] += 1
    return y, ws


def batch_norm_backward(dout, cache):
    """Gradients of `batch_norm_train` w.r.t. x (d, n), gamma and beta, the
    last two (1, d) as stored, from its cache: dx is its `dx` row, and
    dgamma and dbeta are the rows of its `grads`. A caller that writes dout
    into `cache.dx` spares the copy there.

    With dxhat = dout·gamma, dx = (n·dxhat - Σdxhat - xhat·Σdxhat·xhat)
    ·inv_std/n (Ioffe & Szegedy 2015), so the row sums dgamma = Σdout·xhat
    and dbeta = Σdout are all it needs, and gamma joins inv_std/n once."""
    (xhat, inv_std, _, _, _, n, _, _, gammaT, _, buf, buf_xhat, dx, scale, grads, dgamma_col,
     dbeta_col, dgamma, dbeta) = cache
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
    return dx, dgamma, dbeta


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
    them. An owner passes its zero-filled views of `size` elements as the
    two, `arena` = (theta, grad). Batch norm's running mean and variance are
    the rows of `running` (2, hidden) and its batch count is `count` (1,).
    Without batch norm, `gamma`, `beta`, their gradients, `running` and
    `count` are None.
    `backward` writes every gradient of `grad` it reaches; nothing adds."""

    def __init__(self, in_dim: int, hidden_dim: int, activation: str, dropout_rate: float,
                 use_bn: bool, rng, arena=None):
        if activation not in ("sigmoid", "relu"):
            raise ConfigError(f"unsupported activation {activation!r}")
        if in_dim < 1 or hidden_dim < 1:
            raise ConfigError(f"the extractor needs in_dim and hidden_dim >= 1, "
                              f"got {in_dim} and {hidden_dim}")
        d, h = in_dim, hidden_dim
        self.in_dim, self.activation, self.dropout_rate = in_dim, activation, dropout_rate
        self.theta, self.grad = arena or (np.zeros(n := self.size(d, h, use_bn)), np.zeros(n))
        self.W, self.dW = (a[:d * h].reshape(d, h) for a in (self.theta, self.grad))
        # the (1, h) rows after W: b, then gamma and beta
        (self.b, *bn), (self.db, *dbn) = (a[d * h:].reshape(-1, 1, h)
                                          for a in (self.theta, self.grad))
        self.W[...] = glorot_uniform(rng, d, h)
        # the views the first layer applies, and the train-mode workspace,
        # kept while the batch size stays
        self._affine, self._ws = affine_buffers(self.W, self.b), None
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

    @staticmethod
    def size(in_dim: int, hidden_dim: int, use_bn: bool) -> int:
        return (in_dim + (3 if use_bn else 1)) * hidden_dim

    def forward(self, x, mode="train", rng=None, ones_row=False):
        """f of the rows of an array x (n, in_dim), returned as columns
        (hidden, n). With `ones_row` they are the first rows of a (hidden +
        1, n) array whose last row is 1, which maps through a head's (hidden
        + 1, k) weights-then-bias matrix to logits in one matmul. Each part
        writes a `_workspace` buffer, the last part those rows. Train mode
        draws dropout masks from `rng`, uses batch statistics and keeps its
        workspace, with what `backward` reads, while the batch size stays:
        the next such batch overwrites its output. Eval mode uses a new
        workspace and keeps nothing. Another mode is a ConfigError."""
        if mode not in ("train", "eval"):
            raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
        train = mode == "train"
        if train and self.dropout_rate > 0 and rng is None:
            raise StateError("dropout in training mode needs an rng")
        xt = x.T
        ws = self._ws if train else None
        if ws is None or ws.n != xt.shape[-1]:
            ws = self._workspace(xt.shape[-1], train)
        z = affine_forward(xt, self.W, self.b, ws.z, self._affine)
        if self.activation == "sigmoid":
            z = sigmoid(z, ws.act_out, ws.e)
        else:
            np.greater(z, _ZERO, out=ws.relu_mask)
            z = np.maximum(z, _ZERO, out=ws.act_out)
        mask = None
        if ws.drop_out is not None:
            z, mask = dropout_train(z, self.dropout_rate, rng, out=ws.drop_out)
        if ws.bn is not None:
            batch_norm_train(z, self.gamma, self.beta, BN_EPS, self.running, self.count, ws.h,
                             ws.bn)
        elif self.running is not None:
            batch_norm_eval(z, self.gamma, self.beta, self.running, self.count, BN_EPS, out=ws.h)
        if train:
            self._ws, self._xt, self._mask = ws, xt, mask
        return ws.out if ones_row else ws.h

    def _workspace(self, n, train):
        """A batch of n rows' buffers and views: `out` (hidden + 1, n), last
        row 1, first rows `h`; the pre-activation `z`, the activation's
        output `act_out` (`h` if it is f's last part) and sigmoid's scratch
        `e`; relu's mask. In train mode also: the buffer dropout writes
        (`z` before batch norm, else `h`), batch norm's buffers `bn`, what
        the activation's backward reads (sigmoid's output, relu's mask),
        `dout`, where a caller may write backward's incoming gradient in
        place, and the first layer's gradient buffers. What a mode lacks is
        None."""
        d = self.W.shape[1]
        out = np.empty((d + 1, n))
        out[-1] = 1.0
        h, z = out[:-1], np.empty((d, n))
        bn = train and self.running is not None
        drop = train and self.dropout_rate > 0
        act_out = np.empty((d, n)) if bn or drop else h
        ws = SimpleNamespace(
            n=n, out=out, h=h, z=z, act_out=act_out, e=np.empty((d, n)),
            relu_mask=np.empty((d, n), dtype=bool), drop_out=(z if bn else h) if drop else None,
            bn=batch_norm_buffers(self.gamma, self.beta, n, grads=self._dbn) if bn else None,
            act=None, dout=None, affine=None)
        if train:
            ws.act = act_out if self.activation == "sigmoid" else ws.relu_mask
            # f's incoming gradient is batch norm's dx row, else free space in z
            ws.dout = ws.bn.dx if bn else z
            ws.affine = affine_backward_buffers(z, None, (self.dW, self.db))
        return ws

    def backward(self, dout):
        """Write the parameter gradients of the last train-mode forward into
        `grad`, from dout (hidden, n), in its workspace; a StateError if none
        ran. f's input gradient is never read, so the first layer makes none."""
        ws = self._ws
        if ws is None:
            raise StateError("backward needs a train-mode forward first")
        if ws.bn is not None:
            dout = batch_norm_backward(dout, ws.bn)[0]
        if self._mask is not None:
            dout = np.multiply(dout, self._mask, out=ws.z)
        dout = np.multiply(dout, ws.act, out=ws.z)
        if self.activation == "sigmoid":
            dout *= np.subtract(_ONE, ws.act, out=ws.e)
        affine_backward(dout, self._xt, ws=ws.affine)

    def zero_grads(self):
        self.grad.fill(0.0)


# ---------------------------------------------------------------------------
# optimizers


def _finite_positive(name: str, v) -> float:
    # written as `not (in range)` so that NaN fails too
    if not 0 < v < math.inf:
        raise ConfigError(f"{name} must be finite and > 0, got {v}")
    return float(v)


class Optimizer:
    """An elementwise update of one parameter arena, with one `slot` array
    over it, which the first `bind` makes."""
    # the float operands of an update are float64 0-d arrays; `lr` is the
    # learning rate's as a float, and each step reads it anew
    lr = property(lambda self: float(self._lr),
                  lambda self, lr: self._lr.fill(_finite_positive("lr", lr)))

    def __init__(self, lr: float):
        self._lr = np.array(_finite_positive("lr", lr))
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

    def step(self, bound):
        raise NotImplementedError


class MomentumSGD(Optimizer):
    def __init__(self, lr: float, momentum: float = 0.9):
        super().__init__(lr)
        if not 0.0 <= momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        self.momentum = np.array(float(momentum))

    def step(self, bound):
        p, g, v, t = bound
        v *= self.momentum
        # g·lr is lr·g, to the bit
        v -= np.multiply(g, self._lr, out=t[0])
        p += v


class Adagrad(Optimizer):
    def __init__(self, lr: float, eps: float = 1e-8):
        super().__init__(lr)
        self.eps = np.array(_finite_positive("adagrad eps", eps))

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
