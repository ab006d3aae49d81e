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

# float slack for comparisons between exactly-derived empirical quantities
_EPS = 1e-9
# the most stumps a class may hold: exhaustive checks are quadratic in it
MAX_HYPOTHESES = 10_000


@dataclass
class HypothesisClass:
    """Axis-aligned threshold stumps, both polarities: h(x) = [x[dim] > t]
    or its complement. Finite and exhaustively enumerable."""
    dims: np.ndarray        # feature index per stump
    thresholds: np.ndarray  # threshold per stump
    polarities: np.ndarray  # +1: predict 1 above threshold; -1: below

    def __post_init__(self):
        if len(self) > MAX_HYPOTHESES:
            raise ValueError(f"hypothesis class of {len(self)} stumps is too large to enumerate "
                             f"exhaustively: at most {MAX_HYPOTHESES}, and at most "
                             f"bound.max_hypotheses in bound-check")

    def __len__(self):
        return len(self.dims)


def make_stump_class(x: np.ndarray, max_thresholds_per_dim: int = 20) -> HypothesisClass:
    """Stumps at midpoints between sorted sample values, subsampled to a cap,
    with both polarities per threshold: dim by dim, each threshold's stump
    and then its complement."""
    per_dim = []
    for d in range(x.shape[1]):
        vals = np.unique(x[:, d])
        mids = (vals[:-1] + vals[1:]) / 2 if len(vals) > 1 else vals
        if len(mids) > max_thresholds_per_dim:
            sel = np.linspace(0, len(mids) - 1, max_thresholds_per_dim).astype(int)
            mids = mids[sel]
        per_dim.append(mids)
    # the empty float64 head fixes the dtype, also for no or integer thresholds
    ths = np.concatenate([np.empty(0), *per_dim])
    return HypothesisClass(
        dims=np.repeat(np.arange(x.shape[1], dtype=np.int64), [2 * len(m) for m in per_dim]),
        thresholds=np.repeat(ths, 2),
        polarities=np.tile(np.array([1, -1], dtype=np.int64), len(ths)))


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


# Threshold rows per block of a divergence table. A block holds a few
# (rows, W) int64 temporaries over the W base stumps of the later dims:
# 0.8 MB each for 128 rows of the 800 partners at 3200 stumps in 2-D, and
# 2.6 MB at the 10_000-stump enumeration cap.
_HDH_BLOCK = 128


def empirical_hdh_distance(h: HypothesisClass, s_x: np.ndarray, t_x: np.ndarray) -> float:
    """2 * sup over hypothesis pairs of |disagreement on source - on target|,
    exact over the empirical distributions and rounded once to float64.

    Each hypothesis is a base stump (one unique dim and threshold) or its
    complement. The gap of a pair is N / (n_s n_t), with the integer
    numerator N = n_t K_s - n_s K_t and K a domain's disagreement count.
    Complementing either stump keeps |N|, so the divergence is
    2 max |N| / (n_s n_t) over base pairs, counted here on the complements
    [x <= t]: N_ab = u_a + u_b - 2 M_ab, where u_a = n_t c_s - n_s c_t
    weights the counts c of samples at or below a's threshold, and M_ab
    weights the counts at or below both thresholds.

    - Two stumps on one dim nest, so M_ab = u_a for a the lower threshold,
      and the dim's largest |N| is max u - min u.
    - For two dims, M is the 2-D prefix sum of the weighted histogram of
      the samples' threshold ranks. One table per dim spans the stumps of
      every later dim, built in blocks of threshold rows from the lowest up
      with the prefix row carried: O(block * B) memory for B base stumps.

    Every count is an exact int64."""
    n_s, n_t = len(s_x), len(t_x)
    if n_s == 0 or n_t == 0:
        raise ValueError("empty sample set")
    # a complex key sorts and compares by dim, then by threshold
    keys = np.unique(h.dims + 1j * h.thresholds)
    if len(keys) == 0:
        return 0.0
    dims, ths = keys.real.astype(np.int64), keys.imag
    used, starts = np.unique(dims, return_index=True)
    ends = np.append(starts[1:], len(keys))
    x = np.concatenate([s_x[:, used], t_x[:, used]])
    # rank[s, i]: the key of the lowest threshold of dim used[i] at or above
    # sample s, ends[i] when the sample lies above them all
    rank = np.stack([np.searchsorted(ths[a:b], x[:, i]) + a
                     for i, (a, b) in enumerate(zip(starts, ends))], axis=1)
    target = np.repeat(np.array([0, 1]), [n_s, n_t])

    def weighted(bins, size, scale):
        """scale * (n_t * source count - n_s * target count) per bin; the
        target's bins come offset by size."""
        c = np.bincount(bins.ravel(), minlength=2 * size)
        w, c_t = c[:size], c[size:]
        w *= scale * n_t
        c_t *= scale * n_s
        w -= c_t
        return w

    # the weights of all samples sum to 0, so one running sum over every key
    # restarts at each dim: a dim's samples above its thresholds land on the
    # next dim's first key, and the last dim's on one extra bin
    u = np.cumsum(weighted(rank + (len(keys) + 1) * target[:, None], len(keys) + 1, 1)[:-1])
    best = int((np.maximum.reduceat(u, starts) - np.minimum.reduceat(u, starts)).max())
    for i in range(len(used) - 1):
        # columns: the keys of the later dims, then one column that takes
        # the samples above the last dim's thresholds
        p0 = ends[i]
        width = len(keys) - p0 + 1
        n_rows = ends[i] - starts[i]
        rows = rank[:, i] - starts[i]
        part = rank[:, i + 1:] - p0
        # a row's weight restarts at the end of each later dim
        part_end = ends[i + 1:] - p0
        # the prefix row below the block: M is 0 below the first row
        carry = np.append(u[p0:], 0)
        for r0 in range(0, n_rows, _HDH_BLOCK):
            r1 = min(r0 + _HDH_BLOCK, n_rows)
            sel = np.flatnonzero((rows >= r0) & (rows < r1))
            nr = r1 - r0
            r = rows[sel] - r0 + nr * target[sel]
            v = weighted((r * width)[:, None] + part[sel], nr * width, -2).reshape(nr, width)
            v[:, part_end] -= weighted(r, nr, -2)[:, None]
            np.cumsum(v, axis=1, out=v)
            v[0] += carry
            np.cumsum(v, axis=0, out=v)
            carry = v[-1]
            # v[a, b] = u_b - 2 M_ab, so N_ab = u_a + v[a, b]
            u_a = u[starts[i] + r0:starts[i] + r1]
            best = max(best, int((v[:, :-1].max(axis=1) + u_a).max()),
                       int(-(v[:, :-1].min(axis=1) + u_a).min()))
    # int / int is the exact quotient, correctly rounded
    return 2 * best / (n_s * n_t)


def _risks(h: HypothesisClass, x, y) -> np.ndarray:
    """Each hypothesis's 0-1 risk on (x, y), from the label counts on either
    side of its threshold; a label outside {0, 1} errs under both
    polarities. count / n is the correctly rounded quotient that the mean
    of the 0/1 error vector gives."""
    y = np.asarray(y)
    errors = np.empty(len(h), dtype=np.int64)
    for d in np.unique(h.dims):
        stumps = np.flatnonzero(h.dims == d)
        order = np.argsort(x[:, d], kind="stable")
        ys = y[order]
        # k: the samples at or below each threshold, a prefix of the sort
        k = np.searchsorted(x[order, d], h.thresholds[stumps], side="right")
        below = [np.concatenate([[0], np.cumsum(ys == c)])[k] for c in (0, 1)]
        above = [np.count_nonzero(ys == c) - b for c, b in zip((0, 1), below)]
        # [x > t] errs above on labels other than 1 and below on labels
        # other than 0; its complement the other way round
        base = (len(ys) - k - above[1]) + (k - below[0])
        complement = (len(ys) - k - above[0]) + (k - below[1])
        errors[stumps] = np.where(h.polarities[stumps] > 0, base, complement)
    return errors / len(y)


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
    violations = [{"hypothesis": i, "target_risk": r, "bound": b}
                  for i, r, b in zip(bad.tolist(), rt[bad].tolist(), bound[bad].tolist())]
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
    gap = np.abs(rtl - rt)
    bad = np.flatnonzero(gap > rho + _EPS)
    violations = [{"hypothesis": i, "check": "risk_gap", "gap": g, "rho": rho}
                  for i, g in zip(bad.tolist(), gap[bad].tolist())]
    lhs, chained = rs + rt, rs + rtl + rho
    bad = np.flatnonzero(lhs > chained + _EPS)
    violations += [{"hypothesis": i, "check": "chained", "lhs": l, "rhs": r}
                   for i, l, r in zip(bad.tolist(), lhs[bad].tolist(), chained[bad].tolist())]
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
    each slice's bits, so every fold trains as it would alone. Each batch
    goes to the kernels as columns (folds, d, batch), so the logits are
    (folds, 2, batch). Returns the weights (folds, d, 2) and biases
    (folds, 1, 2)."""
    folds, n, dim = train_x.shape
    theta, grad = np.empty((folds, 2 * dim + 2)), np.empty((folds, 2 * dim + 2))
    W, b = theta[:, :2 * dim].reshape(folds, dim, 2), theta[:, 2 * dim:].reshape(folds, 1, 2)
    dW, db = grad[:, :2 * dim].reshape(folds, dim, 2), grad[:, 2 * dim:].reshape(folds, 1, 2)
    for w, rng in zip(W, rngs):
        w[...] = nnlib.glorot_uniform(rng, dim, 2)
    b.fill(0.0)
    opt = nnlib.make_optimizer("adagrad", _LR)
    bound = opt.bind(theta, grad)
    fold = np.arange(folds)[:, None]
    affine = nnlib.affine_buffers(W, b)
    # each batch size's logits, their cross-entropy buffers and the affine
    # gradient's buffers: _BATCH and the last batch's
    ws = {}
    for m in {min(n, _BATCH), n % _BATCH or _BATCH}:
        ce = nnlib.cross_entropy_buffers(np.empty((folds, 2, m)))
        ws[m] = ce, nnlib.affine_backward_buffers(ce.grad, dW, db)
    for _ in range(_EPOCHS):
        perm = np.stack([rng.permutation(n) for rng in rngs])
        # the epoch's rows, gathered once in its order
        xs, ys = train_x[fold, perm].swapaxes(-1, -2), train_y[fold, perm]
        for start in range(0, n, _BATCH):
            xb, yb = xs[..., start:start + _BATCH], ys[:, start:start + _BATCH]
            ce, grad_ws = ws[yb.shape[1]]
            nnlib.affine_forward(xb, W, affine, out=ce.logits)
            _, dz = softmax_cross_entropy(yb, ce)
            nnlib.affine_backward(dz, xb, grad_ws)
            opt.step(bound)
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
    logits = nnlib.affine_forward(x[held].swapaxes(-1, -2), W, nnlib.affine_buffers(W, b))
    errs = np.mean(logits.argmax(axis=-2) != y[held], axis=-1)
    return distance_from_error(float(np.mean(errs)))


# ---------------------------------------------------------------------------
# report emission

REPORT_SCHEMA_VERSION = 1


def _records_json(records: list[dict]) -> str:
    """A list of flat dicts of scalars, laid out as `json.dumps(...,
    indent=2, sort_keys=True)` lays out the value of a top-level key. With
    `indent`, json runs its pure-Python encoder; without, the C one, so the
    indentation of a record's keys rides in the item separator, and the
    break between records is put in after."""
    if not records:
        return "[]"
    sep = ",\n      "
    text = json.dumps(records, sort_keys=True, separators=(sep, ": "))
    # a JSON string holds no raw newline, so only separators match
    text = text[2:-2].replace("}" + sep + "{", "\n    },\n    {\n      ")
    return "[\n    {\n      " + text + "\n    }\n  ]"


def emit_report(theorem1: BoundReport, rho: BoundReport, d_a: float, out_dir):
    """Write report.json: the rho report's summary and violations, the proxy
    A-distance `d_A`, and the theorem-1 summary and violations. Returns the
    dict written."""
    # num_steps is always 0 and stays only for the pinned report bytes; the
    # benchmark refresh (ROADMAP item 2) drops it
    summary = {"schema_version": REPORT_SCHEMA_VERSION, "num_steps": 0,
               **rho.summary(), "violations": rho.violations, "d_A": d_a,
               "theorem1": theorem1.summary(), "theorem1_violations": theorem1.violations}
    # the record lists can run to thousands of records: each key first holds
    # its own name, which `_records_json`'s text then replaces
    lists = ("violations", "theorem1_violations")
    text = json.dumps(summary | {k: k for k in lists}, indent=2, sort_keys=True)
    for k in lists:
        text = text.replace(f'"{k}": "{k}"', f'"{k}": {_records_json(summary[k])}', 1)
    (Path(out_dir) / "report.json").write_text(text + "\n")
    return summary
