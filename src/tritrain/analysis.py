"""Theory-side instrumentation: proxy A-distance via a linear domain
classifier, exhaustive divergence / ideal-joint-hypothesis computation over
enumerable stump classes, and exact verification of the generalization bound
and its pseudo-label extension."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .nnlib import LayerSpec, Sequential, make_optimizer, softmax_cross_entropy
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


# Hypothesis rows per block of the pairwise divergence reduction. Each block
# holds a few (rows, H) float64 temporaries: 128 x 3200 stumps is 3.3 MB,
# and 10 MB at the 10_000-stump enumeration cap.
_HDH_BLOCK = 128
# float32 holds every integer up to 2**24 exactly, so pair counts over fewer
# samples than that come out of a float32 matmul without rounding
_MAX_EXACT_COUNT = 2 ** 24


def _disagreement_block(p, m, n, i0, i1):
    """Rows i0:i1, columns i0: of the rate at which hypotheses disagree,
    from float32 0/1 predictions p and their row means m over n samples."""
    # mean[(a != b)] = mean[a] + mean[b] - 2 mean[a b] for 0/1 predictions
    cross = (p[i0:i1] @ p[i0:].T).astype(np.float64)
    cross /= n
    cross *= 2
    d = m[i0:i1, None] + m[None, i0:]
    d -= cross
    return d


def empirical_hdh_distance(h: HypothesisClass, s_x: np.ndarray, t_x: np.ndarray) -> float:
    """2 * sup over hypothesis pairs of |disagreement on source - on target|,
    exact over the empirical distributions by enumerating every pair.

    Pair counts come from a float32 matmul over row blocks, exact because
    each is an integer below 2**24. Both disagreement rates and their gap
    are bitwise symmetric in (i, j), so only the upper triangle is visited,
    and memory is O(block * H), not O(H**2)."""
    if len(s_x) == 0 or len(t_x) == 0:
        raise ValueError("empty sample set")
    if max(len(s_x), len(t_x)) >= _MAX_EXACT_COUNT:
        raise ValueError(f"pair counts over {_MAX_EXACT_COUNT} or more samples "
                         "are not exact in float32")
    source, target = [(pred.astype(np.float32), pred.mean(axis=1), pred.shape[1])
                      for pred in (h.predict(s_x), h.predict(t_x))]
    best = 0.0
    for i0 in range(0, len(h), _HDH_BLOCK):
        i1 = min(i0 + _HDH_BLOCK, len(h))
        gap = _disagreement_block(*source, i0, i1)
        gap -= _disagreement_block(*target, i0, i1)
        best = max(best, float(np.abs(gap, out=gap).max()))
    return 2.0 * best


def _risks(h: HypothesisClass, x, y) -> np.ndarray:
    return (h.predict(x) != np.asarray(y)[None, :]).mean(axis=1)


def ideal_joint_error(h: HypothesisClass, s_xy, t_xy):
    """Exhaustive argmin of source risk + target risk; ties go to the first
    hypothesis in enumeration order. Returns (index, combined error)."""
    sx, sy = s_xy
    tx, ty = t_xy
    if len(sx) == 0 or len(tx) == 0:
        raise ValueError("empty sample set")
    total = _risks(h, sx, sy) + _risks(h, tx, ty)
    best = int(np.argmin(total))
    return best, float(total[best])


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
    # the ideal joint hypothesis, as ideal_joint_error finds it
    total = rs + rt
    best = int(np.argmin(total))
    c = float(total[best]) + c_offset
    bound = rs + 0.5 * d + c
    bad = np.flatnonzero(rt > bound + _EPS)
    violations = [{"hypothesis": int(i), "target_risk": float(rt[i]),
                   "bound": float(bound[i])} for i in bad]
    return BoundReport(risks_source=rs, risks_target=rt, d_hdh=d, c_value=c,
                       best_hypothesis=best, violations=violations)


def verify_rho_bound(h: HypothesisClass, s_xy, t_xy, pseudo_y,
                     rho_offset: float = 0.0,
                     theorem1: BoundReport | None = None) -> BoundReport:
    """Check the pseudo-label extension: with rho the exact false-label
    fraction of the pseudo-labeled set, |risk on pseudo labels - true target
    risk| <= rho for every hypothesis, and hence
    source+target risk <= source + pseudo-labeled risk + rho.

    `theorem1`, the report of `verify_theorem1` on the same h, s_xy and t_xy,
    supplies the risks, the divergence and the ideal joint hypothesis, which
    are otherwise computed here again."""
    sx, sy = s_xy
    tx, ty = t_xy
    pseudo_y = np.asarray(pseudo_y)
    if pseudo_y.shape[0] != len(tx):
        raise ValueError("pseudo labels must cover the same sample points as the true labels")
    if theorem1 is None:
        theorem1 = verify_theorem1(h, s_xy, t_xy)
    elif len(theorem1.risks_source) != len(h):
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


def _train_domain_classifier(train_x, train_y, dim, seed, epochs=30, batch=64, lr=0.1):
    rng = np.random.default_rng(seed)
    clf = Sequential([LayerSpec("affine", dim, 2)], rng)
    opt = make_optimizer("adagrad", lr)
    n = len(train_x)
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch):
            idx = perm[start:start + batch]
            logits = clf.forward(train_x[idx], mode="train")
            _, dz = softmax_cross_entropy(logits, train_y[idx])
            clf.zero_grads()
            clf.backward(dz)
            opt.step({"clf": clf.theta}, {"clf": clf.grad})
    return clf


def distance_from_error(eps: float) -> float:
    """2*(1 - 2*eps) clamped to [0, 2]; eps > 0.5 means an anti-learner."""
    return float(np.clip(2.0 * (1.0 - 2.0 * eps), 0.0, 2.0))


def a_distance(feats_s: np.ndarray, feats_t: np.ndarray,
               heldout_fraction: float = 0.5, folds: int = 5, seed: int = 0) -> float:
    """Proxy domain divergence 2*(1 - 2*eps), where eps is the held-out error
    of a linear domain classifier, averaged over seeded splits and clamped to
    [0, 2]."""
    if len(feats_s) == 0 or len(feats_t) == 0:
        raise ValueError("empty feature set")
    x = np.vstack([feats_s, feats_t])
    y = np.concatenate([np.zeros(len(feats_s), dtype=np.int64),
                        np.ones(len(feats_t), dtype=np.int64)])
    n = len(x)
    n_held = int(round(n * heldout_fraction))
    if n_held < 2 or n - n_held < 2:
        raise ValueError("each split needs at least 2 samples")
    errs = []
    ss = np.random.SeedSequence(seed).spawn(folds)
    for fold_seed in ss:
        rng = np.random.default_rng(fold_seed)
        perm = rng.permutation(n)
        held, tr = perm[:n_held], perm[n_held:]
        if len(np.unique(y[tr])) < 2 or len(np.unique(y[held])) < 2:
            raise ValueError("a split ended up with fewer than 2 samples per domain")
        clf = _train_domain_classifier(x[tr], y[tr], x.shape[1], fold_seed)
        pred = clf.forward(x[held], mode="eval").argmax(axis=1)
        errs.append(np.mean(pred != y[held]))
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
