"""Theory-side instrumentation: proxy A-distance via a linear domain
classifier, exhaustive divergence / ideal-joint-hypothesis computation over
enumerable stump classes, and exact verification of the generalization bound
and its pseudo-label extension."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nnlib
from .nnlib import softmax_cross_entropy
from .trainer import StepMetrics, write_metrics_csv

# float slack for comparisons between exactly-derived empirical quantities
_EPS = 1e-9


@dataclass
class HypothesisClass:
    """Axis-aligned threshold stumps, both polarities: h(x) = [x[dim] > t]
    or its complement. Finite and exhaustively enumerable."""
    dims: np.ndarray        # feature index per stump
    thresholds: np.ndarray  # threshold per stump
    polarities: np.ndarray  # +1: predict 1 above threshold; -1: below

    def __post_init__(self):
        if len(self) > 10_000:
            raise ValueError("hypothesis class too large to enumerate exhaustively")

    def __len__(self):
        return len(self.dims)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """(num_hypotheses, num_samples) matrix of 0/1 predictions."""
        above = x[:, self.dims].T > self.thresholds[:, None]
        pred = np.where(self.polarities[:, None] > 0, above, ~above)
        return pred.astype(np.int8)


def make_stump_class(x: np.ndarray, max_thresholds_per_dim: int = 20) -> HypothesisClass:
    """Stumps at midpoints between sorted sample values, subsampled to a cap,
    with both polarities per threshold."""
    dims, ths, pols = [], [], []
    for d in range(x.shape[1]):
        vals = np.unique(x[:, d])
        mids = (vals[:-1] + vals[1:]) / 2 if len(vals) > 1 else vals
        if len(mids) > max_thresholds_per_dim:
            sel = np.linspace(0, len(mids) - 1, max_thresholds_per_dim).astype(int)
            mids = mids[sel]
        for t in mids:
            for pol in (1, -1):
                dims.append(d)
                ths.append(t)
                pols.append(pol)
    return HypothesisClass(dims=np.array(dims, dtype=np.int64),
                           thresholds=np.array(ths, dtype=np.float64),
                           polarities=np.array(pols, dtype=np.int64))


@dataclass
class BoundReport:
    risks_source: np.ndarray
    risks_target: np.ndarray
    d_hdh: float
    c_value: float
    best_hypothesis: int
    risks_pseudo: np.ndarray | None = None
    c_prime: float | None = None
    rho: float | None = None
    violations: list = field(default_factory=list)

    def summary(self) -> dict:
        out = {"d_hdh": self.d_hdh, "C": self.c_value,
               "num_hypotheses": len(self.risks_source),
               "num_violations": len(self.violations)}
        if self.c_prime is not None:
            out["C_prime"] = self.c_prime
        if self.rho is not None:
            out["rho"] = self.rho
        return out


# Rows per block of the divergence scan. A block holds a few (rows, B)
# temporaries over the B base stumps: 0.8 MB each in float32 for 128 rows of
# the 1600 base stumps of 3200 stumps, and at most 10 MB at the 10_000-stump
# enumeration cap.
_HDH_BLOCK = 128
# float32 holds every integer up to 2**24 exactly, so pair counts over fewer
# samples than that come out of a float32 matmul without rounding
_MAX_EXACT_COUNT = 2 ** 24


def _numerator_dtype(n_s: int, n_t: int):
    """The scan's numerators are integers of magnitude at most n_s * n_t:
    exact in float32 below 2**24, and in float64 below 2**53."""
    return np.float32 if n_s * n_t < _MAX_EXACT_COUNT else np.float64


def empirical_hdh_distance(h: HypothesisClass, s_x: np.ndarray, t_x: np.ndarray) -> float:
    """2 * sup over hypothesis pairs of |disagreement on source - on target|,
    exact over the empirical distributions and rounded once to float64.

    Each hypothesis is a base stump (one unique dim and threshold) or its
    complement. For base stumps a, b the disagreement count in a domain of
    n samples is K = (c_a - A_ab) + (c_b - A_ab), with c the counts of 1s and
    A_ab the count where both are 1; complements give K(a, not b) = n - K and
    K(not a, not b) = K. So the integer numerator N = n_t K_s - n_s K_t of
    the exact gap N / (n_s n_t) has the same |N| for all four polarity
    pairs, and the divergence is 2 max |N| / (n_s n_t). A blocked matmul scan
    of the upper triangle of base pairs finds the largest |N| exactly, in the
    dtype `_numerator_dtype` picks. Memory is O(block * H), not O(H**2)."""
    n_s, n_t = len(s_x), len(t_x)
    if n_s == 0 or n_t == 0:
        raise ValueError("empty sample set")
    if max(n_s, n_t) >= _MAX_EXACT_COUNT:
        raise ValueError(f"pair counts over {_MAX_EXACT_COUNT} or more samples "
                         "are not exact in float32")
    # a complex key sorts and compares by dim, then by threshold
    keys = np.unique(h.dims + 1j * h.thresholds)
    dims, ths = keys.real.astype(np.int64), keys.imag
    p = np.empty((len(keys), n_s + n_t), dtype=_numerator_dtype(n_s, n_t))
    np.greater(s_x[:, dims].T, ths[:, None], out=p[:, :n_s])
    np.greater(t_x[:, dims].T, ths[:, None], out=p[:, n_s:])
    # N_ab = (u_a - M_ab) + (u_b - M_ab) with u_a = n_t c_a,s - n_s c_a,t and
    # M = n_t A_s - n_s A_t: every term and partial sum is an integer of
    # magnitude at most n_s * n_t
    w = np.concatenate([np.full(n_s, n_t), np.full(n_t, -n_s)]).astype(p.dtype)
    u = p @ w
    best = 0
    for a0 in range(0, len(keys), _HDH_BLOCK):
        a1 = min(a0 + _HDH_BLOCK, len(keys))
        m = (p[a0:a1] * w) @ p[a0:].T
        num = u[a0:a1, None] - m
        m -= u[None, a0:]
        num -= m
        best = max(best, int(np.abs(num, out=num).max()))
    # int / int is the exact quotient, correctly rounded
    return 2 * best / (n_s * n_t)


def _risks(h: HypothesisClass, x, y) -> np.ndarray:
    return (h.predict(x) != np.asarray(y)[None, :]).mean(axis=1)


def verify_theorem1(h: HypothesisClass, s_xy, t_xy, c_offset: float = 0.0) -> BoundReport:
    """Check, for every hypothesis, target risk <= source risk + half the
    divergence + the ideal-joint error. Holds exactly over empirical
    distributions with 0-1 loss; any violation is an implementation bug.

    c_offset exists only for fault-injection negative controls.
    """
    sx, sy = s_xy
    tx, ty = t_xy
    rs = _risks(h, sx, sy)
    rt = _risks(h, tx, ty)
    d = empirical_hdh_distance(h, sx, tx)
    # the ideal joint hypothesis: the exhaustive argmin of source + target
    # risk, ties to the first hypothesis in enumeration order
    total = rs + rt
    best = int(np.argmin(total))
    c = float(total[best]) + c_offset
    bound = rs + 0.5 * d + c
    bad = np.flatnonzero(rt > bound + _EPS)
    violations = [{"hypothesis": int(i), "target_risk": float(rt[i]),
                   "bound": float(bound[i])} for i in bad]
    return BoundReport(risks_source=rs, risks_target=rt, d_hdh=d, c_value=c,
                       best_hypothesis=best, violations=violations)


def verify_rho_bound(h: HypothesisClass, t_xy, pseudo_y, theorem1: BoundReport,
                     rho_offset: float = 0.0) -> BoundReport:
    """Check the pseudo-label extension: with rho the exact false-label
    fraction of the pseudo-labeled set, |risk on pseudo labels - true target
    risk| <= rho for every hypothesis, and hence
    source+target risk <= source + pseudo-labeled risk + rho.

    `theorem1`, the report of `verify_theorem1` on the same h, source and
    target samples, supplies the risks, the divergence and the ideal joint
    hypothesis."""
    tx, ty = t_xy
    pseudo_y = np.asarray(pseudo_y)
    if pseudo_y.shape[0] != len(tx):
        raise ValueError("pseudo labels must cover the same sample points as the true labels")
    if len(theorem1.risks_source) != len(h):
        raise ValueError("the theorem1 report covers a different hypothesis class")
    rs, rt = theorem1.risks_source, theorem1.risks_target
    best = theorem1.best_hypothesis
    # the report's c_value may carry its c_offset
    c = float(rs[best] + rt[best])
    rtl = _risks(h, tx, pseudo_y)
    rho = float(np.mean(pseudo_y != np.asarray(ty))) + rho_offset
    c_prime = float((rs + rtl).min())
    violations = []
    for i in np.flatnonzero(np.abs(rtl - rt) > rho + _EPS):
        violations.append({"hypothesis": int(i), "check": "risk_gap",
                           "gap": float(abs(rtl[i] - rt[i])), "rho": rho})
    chained = rs + rtl + rho
    for i in np.flatnonzero(rs + rt > chained + _EPS):
        violations.append({"hypothesis": int(i), "check": "chained",
                           "lhs": float(rs[i] + rt[i]), "rhs": float(chained[i])})
    return BoundReport(risks_source=rs, risks_target=rt, risks_pseudo=rtl,
                       d_hdh=theorem1.d_hdh, c_value=c, best_hypothesis=best,
                       c_prime=c_prime, rho=rho, violations=violations)


# ---------------------------------------------------------------------------
# proxy A-distance

# each split holds out this share of the pooled samples
_HELDOUT_FRACTION = 0.5
_FOLDS = 5
# the Adagrad schedule of every domain classifier
_EPOCHS = 30
_BATCH = 64
_LR = 0.1


def _train_domain_classifiers(train_x, train_y, rngs):
    """Linear softmax classifiers, one per leading slice of train_x (folds,
    n, d), trained together as one stacked model with Adagrad. Each fold
    draws from its own generator in the order a lone classifier would: its
    glorot init, then one permutation per epoch. The stacked kernels keep
    each slice's bits, so every fold trains as it would alone. Returns the
    weights (folds, d, 2) and biases (folds, 1, 2)."""
    folds, n, dim = train_x.shape
    theta, grad = np.empty((folds, 2 * dim + 2)), np.empty((folds, 2 * dim + 2))
    W, b = theta[:, :2 * dim].reshape(folds, dim, 2), theta[:, 2 * dim:].reshape(folds, 1, 2)
    dW, db = grad[:, :2 * dim].reshape(folds, dim, 2), grad[:, 2 * dim:].reshape(folds, 1, 2)
    for w, rng in zip(W, rngs):
        w[...] = nnlib.glorot_uniform(rng, dim, 2)
    b.fill(0.0)
    opt = nnlib.make_optimizer("adagrad", _LR)
    fold = np.arange(folds)[:, None]
    for _ in range(_EPOCHS):
        perm = np.stack([rng.permutation(n) for rng in rngs])
        for start in range(0, n, _BATCH):
            idx = perm[:, start:start + _BATCH]
            xb = train_x[fold, idx]
            _, dz = softmax_cross_entropy(nnlib.affine_forward(xb, W, b), train_y[fold, idx])
            grad.fill(0.0)
            _, gW, gb = nnlib.affine_backward(dz, xb, W)
            dW += gW
            db += gb
            opt.step({"clf": theta}, {"clf": grad})
    return W, b


def distance_from_error(eps: float) -> float:
    """2*(1 - 2*eps) clamped to [0, 2]; eps > 0.5 means an anti-learner."""
    return float(np.clip(2.0 * (1.0 - 2.0 * eps), 0.0, 2.0))


def a_distance(feats_s: np.ndarray, feats_t: np.ndarray, seed: int = 0) -> float:
    """Proxy domain divergence 2*(1 - 2*eps), where eps is the held-out error
    of a linear domain classifier, averaged over `_FOLDS` seeded splits and
    clamped to [0, 2]."""
    if len(feats_s) == 0 or len(feats_t) == 0:
        raise ValueError("empty feature set")
    x = np.vstack([feats_s, feats_t])
    y = np.concatenate([np.zeros(len(feats_s), dtype=np.int64),
                        np.ones(len(feats_t), dtype=np.int64)])
    n = len(x)
    n_held = int(round(n * _HELDOUT_FRACTION))
    if n_held < 2 or n - n_held < 2:
        raise ValueError("each split needs at least 2 samples")
    ss = np.random.SeedSequence(seed).spawn(_FOLDS)
    perm = np.array([np.random.default_rng(s).permutation(n) for s in ss])
    held, tr = perm[:, :n_held], perm[:, n_held:]
    if any(len(np.unique(y[rows])) < 2 for rows in (*held, *tr)):
        raise ValueError("a split ended up with fewer than 2 samples per domain")
    W, b = _train_domain_classifiers(x[tr], y[tr], [np.random.default_rng(s) for s in ss])
    pred = nnlib.affine_forward(x[held], W, b).argmax(axis=-1)
    errs = np.mean(pred != y[held], axis=-1)
    return distance_from_error(float(np.mean(errs)))


# ---------------------------------------------------------------------------
# report emission

REPORT_SCHEMA_VERSION = 1


def emit_report(history: list[StepMetrics], bound: BoundReport | None, out_dir,
                d_a: float | None = None, extra: dict | None = None):
    """Write the per-step metrics CSV and a JSON summary (divergence, bound
    terms, violations). Returns the summary dict."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(history, out_dir / "metrics.csv")
    summary = {"schema_version": REPORT_SCHEMA_VERSION,
               "num_steps": max((m.step for m in history), default=0)}
    if bound is not None:
        summary.update(bound.summary())
        summary["violations"] = bound.violations
    if d_a is not None:
        summary["d_A"] = d_a
    if extra:
        summary.update(extra)
    with open(out_dir / "report.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
