import dataclasses
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tritrain import analysis, datagen
from tritrain.analysis import (BoundReport, HypothesisClass, a_distance,
                               distance_from_error, emit_report,
                               empirical_hdh_distance, make_stump_class,
                               verify_rho_bound, verify_theorem1)
from tritrain.nnlib import affine_backward, affine_backward_buffers, glorot_uniform, make_optimizer

from conftest import affine, cross_entropy

ROOT = Path(__file__).resolve().parents[1]


def stump_predictions(h, x):
    """The oracle: the (hypotheses, samples) matrix of 0/1 predictions."""
    above = x[:, h.dims].T > h.thresholds[:, None]
    return np.where(h.polarities[:, None] > 0, above, ~above).astype(np.int8)


def oracle_risks(h, x, y):
    return (stump_predictions(h, x) != np.asarray(y)[None, :]).mean(axis=1)


def stump_class_1d(thresholds):
    ths = np.asarray(thresholds, dtype=np.float64)
    return HypothesisClass(
        dims=np.zeros(2 * len(ths), dtype=np.int64),
        thresholds=np.repeat(ths, 2),
        polarities=np.tile([1, -1], len(ths)))


def random_problem(rng, n_s=30, n_t=30, d=2):
    sx = rng.normal(size=(n_s, d))
    sy = rng.integers(0, 2, size=n_s)
    tx = rng.normal(size=(n_t, d)) + rng.normal(scale=0.5, size=d)
    ty = rng.integers(0, 2, size=n_t)
    return (sx, sy), (tx, ty)


# ---------------------------------------------------------------------------
# hypothesis class


def test_stump_predictions_both_polarities():
    h = stump_class_1d([0.5])
    x = np.array([[0.0], [1.0]])
    pred = stump_predictions(h, x)
    np.testing.assert_array_equal(pred[0], [0, 1])   # positive polarity
    np.testing.assert_array_equal(pred[1], [1, 0])   # complement
    # a label outside {0, 1} errs under both polarities
    np.testing.assert_array_equal(analysis._risks(h, x, np.array([0, 1])), [0.0, 1.0])
    np.testing.assert_array_equal(analysis._risks(h, x, np.array([2, 1])), [0.5, 1.0])


def test_make_stump_class_respects_cap():
    x = np.random.default_rng(0).normal(size=(500, 3))
    h = make_stump_class(x, max_thresholds_per_dim=10)
    assert len(h) == 3 * 10 * 2


def _stump_class_by_loop(x, max_thresholds_per_dim):
    """The reference enumeration, one stump at a time."""
    dims, ths, pols = [], [], []
    for d in range(x.shape[1]):
        vals = np.unique(x[:, d])
        mids = (vals[:-1] + vals[1:]) / 2 if len(vals) > 1 else vals
        if len(mids) > max_thresholds_per_dim:
            mids = mids[np.linspace(0, len(mids) - 1, max_thresholds_per_dim).astype(int)]
        for t in mids:
            for pol in (1, -1):
                dims.append(d)
                ths.append(t)
                pols.append(pol)
    return (np.array(dims, dtype=np.int64), np.array(ths, dtype=np.float64),
            np.array(pols, dtype=np.int64))


def test_make_stump_class_equals_the_per_threshold_loop():
    rng = np.random.default_rng(25)
    for i in range(30):
        d = int(rng.integers(1, 6))
        x = np.round(rng.normal(size=(int(rng.integers(1, 80)), d)), int(rng.integers(0, 3)))
        x[:, int(rng.integers(0, d))] = rng.normal()   # a dim with one unique value
        if i % 5 == 0:
            x = x.astype(np.int64)
        cap = int(rng.integers(1, 40))
        h = make_stump_class(x, max_thresholds_per_dim=cap)
        for got, want in zip((h.dims, h.thresholds, h.polarities), _stump_class_by_loop(x, cap)):
            assert got.dtype == want.dtype, i
            np.testing.assert_array_equal(got, want)


def test_enumeration_size_limit():
    with pytest.raises(ValueError):
        HypothesisClass(dims=np.zeros(10_001, dtype=np.int64),
                        thresholds=np.zeros(10_001),
                        polarities=np.ones(10_001, dtype=np.int64))


def test_risks_equal_the_prediction_oracle_bit_for_bit():
    # arbitrary and single polarity, duplicate stumps, ties between sample
    # values and thresholds, one-sample domains, labels outside {0, 1}
    rng = np.random.default_rng(26)
    for i in range(120):
        d = int(rng.integers(1, 5))
        n = 1 if i % 6 == 0 else int(rng.integers(2, 90))
        x = np.round(rng.normal(size=(n, d)), 1)
        y = rng.integers(0, 2, size=n)
        if i % 4 == 1:
            y = rng.integers(-1, 4, size=n)
        size = int(rng.integers(1, 300))
        dims = rng.integers(0, d, size=size)
        ths = np.round(rng.normal(size=size), 1)
        pols = rng.choice([1, -1], size=size)
        if i % 4 == 2:
            pols = np.full(size, (1, -1)[(i // 4) % 2])
        elif i % 4 == 3:
            dup = rng.integers(0, size, size=size)
            dims, ths, pols = dims[dup], ths[dup], pols[dup]
        h = HypothesisClass(dims=dims, thresholds=ths, polarities=pols)
        got, want = analysis._risks(h, x, y), oracle_risks(h, x, y)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), i


# ---------------------------------------------------------------------------
# divergence


def test_hdh_identical_samples_is_zero():
    x = np.random.default_rng(0).normal(size=(40, 2))
    h = make_stump_class(x)
    assert empirical_hdh_distance(h, x, x) == 0.0


def test_hdh_bounded_by_two():
    rng = np.random.default_rng(1)
    for _ in range(5):
        (sx, _), (tx, _) = random_problem(rng)
        h = make_stump_class(np.vstack([sx, tx]))
        d = empirical_hdh_distance(h, sx, tx)
        assert 0.0 <= d <= 2.0 + 1e-12


def _brute_force_hdh(h, sx, tx):
    ps, pt = stump_predictions(h, sx), stump_predictions(h, tx)
    best = 0.0
    for i, j in itertools.product(range(len(h)), repeat=2):
        ds = np.mean(ps[i] != ps[j])
        dt = np.mean(pt[i] != pt[j])
        best = max(best, abs(ds - dt))
    return 2.0 * best


def test_hdh_matches_pairwise_brute_force():
    # tiny 1-D instances where the sup over pairs is checked literally
    h = stump_class_1d([0.25, 0.75, 1.5])
    rng = np.random.default_rng(2)
    for _ in range(9):
        sx = rng.uniform(0, 2, size=(4, 1))
        tx = rng.uniform(0, 2, size=(4, 1))
        assert empirical_hdh_distance(h, sx, tx) == _brute_force_hdh(h, sx, tx)


def _exact_hdh(h, sx, tx):
    """The exact divergence 2 max |K_s / n_s - K_t / n_t| over hypothesis
    pairs, K the integer disagreement counts of an int64 matmul, rounded
    once to float64."""
    def counts(pred):
        p = pred.astype(np.int64)
        c = p.sum(axis=1)
        return c[:, None] + c[None, :] - 2 * (p @ p.T)
    n_s, n_t = len(sx), len(tx)
    num = np.abs(n_t * counts(stump_predictions(h, sx))
                 - n_s * counts(stump_predictions(h, tx))).max()
    return float(Fraction(2 * int(num), n_s * n_t))


# The dense formula below rounds each domain's D = m_a + m_b - 2 c_ab at
# most 7 * 2**-53 away from its exact value (m and c are correctly rounded
# counts / n, then a sum and a difference of values at most 2), and the gap
# D_s - D_t adds one more rounding: 15 * 2**-53 per pair. Doubled, and with
# the exact value's own rounding, it stays within 36 * 2**-53 of `_exact_hdh`.
_DENSE_ROUNDING = 36 * 2.0 ** -53


def _dense_hdh(h, sx, tx):
    """The O(H**2) float formula: full source and target disagreement
    matrices."""
    def disagreement(pred):
        p = pred.astype(np.float64)
        n = p.shape[1]
        # mean[(a != b)] = mean[a] + mean[b] - 2 mean[a b] for 0/1 predictions
        cross = p @ p.T / n
        m = p.mean(axis=1)
        return m[:, None] + m[None, :] - 2 * cross
    gap = disagreement(stump_predictions(h, sx)) - disagreement(stump_predictions(h, tx))
    return float(2.0 * np.abs(gap).max())


def test_hdh_blocked_equals_exact_ratio(monkeypatch):
    # block edges: a dim's thresholds fill a whole number of blocks, one
    # row more or less, or a single partial block
    rng = np.random.default_rng(20)
    for block in (1, 2, 7, 128):
        monkeypatch.setattr(analysis, "_HDH_BLOCK", block)
        for i in range(60):
            d = int(rng.integers(1, 4))
            per_dim = [int(rng.choice([1, 2, block - 1, block, block + 1, 2 * block + 1]))
                       if i % 2 == 0 else int(rng.integers(1, 80)) for _ in range(d)]
            dims = np.repeat(np.arange(d), np.maximum(per_dim, 1))
            size = len(dims)
            sx = rng.normal(size=(int(rng.integers(1, 60)), d))
            tx = rng.normal(size=(int(rng.integers(1, 60)), d)) + rng.normal(size=d)
            ths = rng.normal(size=size)
            if i % 5 == 0:
                sx, ths = np.round(sx, 1), np.round(ths, 1)   # ties and duplicate stumps
            h = HypothesisClass(dims=dims, thresholds=ths,
                                polarities=rng.choice([1, -1], size=size))
            d_hdh = empirical_hdh_distance(h, sx, tx)
            assert d_hdh == _exact_hdh(h, sx, tx), (block, i)
            assert abs(d_hdh - _dense_hdh(h, sx, tx)) <= _DENSE_ROUNDING, (block, i)


@pytest.mark.parametrize("d", [10, 50])
def test_hdh_equals_exact_ratio_in_many_dims(d):
    # every dim pairs with every later one in a single table per dim
    rng = np.random.default_rng(27 + d)
    for i in range(3):
        sx = np.round(rng.normal(size=(int(rng.integers(20, 70)), d)), 1)
        tx = np.round(rng.normal(size=(int(rng.integers(20, 70)), d))
                      + rng.normal(scale=0.7, size=d), 1)
        h = make_stump_class(np.vstack([sx, tx]), max_thresholds_per_dim=int(rng.integers(2, 12)))
        if i == 2:   # a subset of the dims, in shuffled order
            keep = rng.permutation(len(h))[:len(h) // 3]
            h = HypothesisClass(dims=h.dims[keep], thresholds=h.thresholds[keep],
                                polarities=h.polarities[keep])
        assert empirical_hdh_distance(h, sx, tx) == _exact_hdh(h, sx, tx), i


def test_hdh_equals_exact_ratio_on_degenerate_classes():
    # identical or duplicated samples (every pair's exact gap is 0), one
    # polarity only, and duplicate stumps
    rng = np.random.default_rng(22)
    for i in range(90):
        d = int(rng.integers(1, 4))
        sx = np.round(rng.normal(size=(int(rng.integers(1, 40)), d)), 1)
        other = np.round(rng.normal(size=(int(rng.integers(1, 40)), d)) + 0.5, 1)
        tx = (sx, np.vstack([sx, sx]), other)[i % 3]
        size = int(rng.integers(1, 200))
        dims = rng.integers(0, d, size=size)
        ths = np.round(rng.normal(size=size), 1)
        pols = rng.choice([1, -1], size=size)
        if i % 4 == 0:
            pols = np.full(size, (1, -1)[(i // 4) % 2])
        elif i % 4 == 1:
            dup = rng.integers(0, size, size=size)
            dims, ths, pols = dims[dup], ths[dup], pols[dup]
        h = HypothesisClass(dims=dims, thresholds=ths, polarities=pols)
        d_hdh = empirical_hdh_distance(h, sx, tx)
        assert d_hdh == _exact_hdh(h, sx, tx), i
        if i % 3 < 2:
            assert d_hdh == 0.0
    empty = HypothesisClass(dims=np.empty(0, dtype=np.int64), thresholds=np.empty(0),
                            polarities=np.empty(0, dtype=np.int64))
    assert empirical_hdh_distance(empty, sx, tx) == 0.0


def test_hdh_is_exact_at_2_24_sample_pairs():
    rng = np.random.default_rng(23)
    # n_s * n_t = 2**24; the source is one point repeated by a zero-stride view
    sx = np.broadcast_to(rng.normal(size=(1, 2)), (2 ** 12, 2))
    tx = rng.normal(size=(2 ** 12, 2))
    h = make_stump_class(np.vstack([sx[:1], tx]), max_thresholds_per_dim=20)
    assert empirical_hdh_distance(h, sx, tx) == _exact_hdh(h, sx, tx)


def _bench_size_instance():
    ds = datagen.generate(datagen.ShiftSpec(n_source=400, n_target=400, rotation_deg=30,
                                            noise_sigma=0.1, seed=0))
    h = make_stump_class(np.vstack([ds.source_x, ds.target_x]), max_thresholds_per_dim=1000)
    return h, ds.source_x, ds.target_x


def test_hdh_on_the_bench_instance_is_the_exact_ratio():
    # the largest |N| is 38_800 over 400 * 400 pairs: 2 * 38_800 / 160_000
    # is 97/200, where the dense float formula gives 0.4850000000000003
    h, sx, tx = _bench_size_instance()
    assert empirical_hdh_distance(h, sx, tx) == 0.485


def _hdh_peak_bytes(h, sx, tx):
    tracemalloc.start()
    try:
        empirical_hdh_distance(h, sx, tx)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hdh_memory_is_not_quadratic_in_hypotheses():
    # the dense H x H float64 matrices take 323 MiB on this instance
    h, sx, tx = _bench_size_instance()
    assert len(h) > 3000
    assert _hdh_peak_bytes(h, sx, tx) <= 64 * 2 ** 20


def test_hdh_memory_at_the_enumeration_cap_in_2d():
    # 10_000 stumps, 2500 thresholds per dim: the dense matrices would take
    # 1.5 GiB, one whole table of the two dims 48 MiB
    rng = np.random.default_rng(28)
    sx, tx = rng.normal(size=(2500, 2)), rng.normal(size=(2500, 2)) + 0.3
    h = make_stump_class(np.vstack([sx, tx]), max_thresholds_per_dim=2500)
    assert len(h) == 10_000
    assert _hdh_peak_bytes(h, sx, tx) <= 64 * 2 ** 20


def test_hdh_rejects_empty():
    h = stump_class_1d([0.5])
    with pytest.raises(ValueError):
        empirical_hdh_distance(h, np.empty((0, 1)), np.ones((3, 1)))


# ---------------------------------------------------------------------------
# ideal joint hypothesis (verify_theorem1's best_hypothesis and c_value)


def ideal_joint_error(h, s_xy, t_xy):
    """Oracle: exhaustive argmin of source risk + target risk, ties to the
    first hypothesis in enumeration order. Returns (index, combined error)."""
    total = sum(oracle_risks(h, x, y) for x, y in (s_xy, t_xy))
    best = int(np.argmin(total))
    return best, float(total[best])


def test_ideal_joint_error_identical_domains():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(25, 2))
    y = rng.integers(0, 2, size=25)
    h = make_stump_class(x)
    c = verify_theorem1(h, (x, y), (x, y)).c_value
    rs = oracle_risks(h, x, y)
    assert c == pytest.approx(2 * rs.min())


def test_ideal_joint_error_perfect_stump():
    x = np.array([[-1.0], [-0.5], [0.5], [1.0]])
    y = np.array([0, 0, 1, 1])
    h = stump_class_1d([0.0])
    r = verify_theorem1(h, (x, y), (x, y))
    assert r.c_value == 0.0
    assert r.best_hypothesis == 0  # the positive-polarity stump, first in order


def test_ideal_joint_error_matches_brute_force():
    rng = np.random.default_rng(4)
    s_xy, t_xy = random_problem(rng, n_s=20, n_t=20, d=1)
    h = make_stump_class(np.vstack([s_xy[0], t_xy[0]]))
    r = verify_theorem1(h, s_xy, t_xy)
    best, c = r.best_hypothesis, r.c_value
    ps, pt = stump_predictions(h, s_xy[0]), stump_predictions(h, t_xy[0])
    totals = [np.mean(ps[i] != s_xy[1]) + np.mean(pt[i] != t_xy[1]) for i in range(len(h))]
    assert c == pytest.approx(min(totals))
    assert best == int(np.argmin(totals))


# ---------------------------------------------------------------------------
# bound verification


def test_theorem1_holds_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s_xy, t_xy = random_problem(rng)
        h = make_stump_class(np.vstack([s_xy[0], t_xy[0]]), max_thresholds_per_dim=10)
        report = verify_theorem1(h, s_xy, t_xy)
        assert report.violations == []


def test_theorem1_identical_domains():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(30, 2))
    y = rng.integers(0, 2, size=30)
    h = make_stump_class(x)
    report = verify_theorem1(h, (x, y), (x, y))
    assert report.violations == []
    assert report.d_hdh == 0.0


def test_theorem1_survives_adversarial_label_flip():
    # flipping all target labels maximizes C but cannot break the bound
    rng = np.random.default_rng(7)
    s_xy, (tx, ty) = random_problem(rng)
    h = make_stump_class(np.vstack([s_xy[0], tx]), max_thresholds_per_dim=10)
    report = verify_theorem1(h, s_xy, (tx, 1 - ty))
    assert report.violations == []


def test_theorem1_fault_injection_is_detected():
    # shrinking C artificially must produce violations (negative control);
    # identical separable domains make the bound tight (rt = rs, d = C = 0)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(30, 1))
    y = (x[:, 0] > 0).astype(np.int64)
    h = make_stump_class(x, max_thresholds_per_dim=10)
    report = verify_theorem1(h, (x, y), (x, y), c_offset=-0.1)
    assert len(report.violations) > 0


def test_rho_zero_when_pseudo_labels_exact():
    rng = np.random.default_rng(9)
    s_xy, (tx, ty) = random_problem(rng)
    h = make_stump_class(np.vstack([s_xy[0], tx]), max_thresholds_per_dim=10)
    report = verify_rho_bound(h, (tx, ty), ty, verify_theorem1(h, s_xy, (tx, ty)))
    assert report.rho == 0.0
    assert report.violations == []
    np.testing.assert_array_equal(report.risks_pseudo, report.risks_target)


def test_rho_one_when_all_labels_flipped():
    rng = np.random.default_rng(10)
    s_xy, (tx, ty) = random_problem(rng)
    h = make_stump_class(np.vstack([s_xy[0], tx]), max_thresholds_per_dim=10)
    report = verify_rho_bound(h, (tx, ty), 1 - ty, verify_theorem1(h, s_xy, (tx, ty)))
    assert report.rho == 1.0
    assert report.violations == []


def test_rho_bound_holds_for_noisy_pseudo_labels():
    rng = np.random.default_rng(11)
    for _ in range(10):
        s_xy, (tx, ty) = random_problem(rng)
        noise = rng.random(len(ty)) < 0.3
        pseudo = np.where(noise, 1 - ty, ty)
        h = make_stump_class(np.vstack([s_xy[0], tx]), max_thresholds_per_dim=10)
        report = verify_rho_bound(h, (tx, ty), pseudo, verify_theorem1(h, s_xy, (tx, ty)))
        assert report.rho == pytest.approx(np.mean(noise))
        assert report.violations == []


def test_rho_fault_injection_is_detected():
    rng = np.random.default_rng(12)
    s_xy, (tx, ty) = random_problem(rng)
    pseudo = np.where(rng.random(len(ty)) < 0.4, 1 - ty, ty)
    h = make_stump_class(np.vstack([s_xy[0], tx]), max_thresholds_per_dim=10)
    report = verify_rho_bound(h, (tx, ty), pseudo, verify_theorem1(h, s_xy, (tx, ty)),
                              rho_offset=-float(np.mean(pseudo != ty)) - 0.01)
    assert len(report.violations) > 0


def _assert_reports_equal(a, b):
    for f in dataclasses.fields(BoundReport):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            np.testing.assert_array_equal(va, vb)
        else:
            assert va == vb, f.name


@pytest.mark.parametrize("c_offset, rho_offset", [(0.0, 0.0), (-0.1, 0.0),
                                                  (0.0, -0.5), (-0.1, -0.5)])
def test_rho_bound_reusing_theorem1_equals_standalone(c_offset, rho_offset):
    rng = np.random.default_rng(19)
    s_xy, t_xy = random_problem(rng)
    tx, ty = t_xy
    pseudo = np.where(rng.random(len(ty)) < 0.3, 1 - ty, ty)
    h = make_stump_class(np.vstack([s_xy[0], tx]), max_thresholds_per_dim=10)
    r1 = verify_theorem1(h, s_xy, t_xy, c_offset=c_offset)
    shared = verify_rho_bound(h, t_xy, pseudo, r1, rho_offset=rho_offset)
    # standalone: from a report of its own, without the c_offset
    alone = verify_rho_bound(h, t_xy, pseudo, verify_theorem1(h, s_xy, t_xy),
                             rho_offset=rho_offset)
    _assert_reports_equal(shared, alone)
    # both against the terms computed one by one
    best, c = ideal_joint_error(h, s_xy, t_xy)
    assert (r1.best_hypothesis, r1.c_value) == (best, c + c_offset)
    assert (shared.best_hypothesis, shared.c_value) == (best, c)
    assert r1.d_hdh == shared.d_hdh == _exact_hdh(h, s_xy[0], tx)
    assert (len(shared.violations) > 0) == (rho_offset != 0.0)


def test_rho_bound_rejects_theorem1_of_another_class():
    rng = np.random.default_rng(21)
    s_xy, (tx, ty) = random_problem(rng)
    r1 = verify_theorem1(stump_class_1d([0.0, 1.0]), s_xy, (tx, ty))
    with pytest.raises(ValueError, match="theorem1"):
        verify_rho_bound(stump_class_1d([0.0]), (tx, ty), ty, r1)


def test_rho_rejects_mismatched_pseudo_labels():
    rng = np.random.default_rng(13)
    s_xy, (tx, ty) = random_problem(rng)
    h = stump_class_1d([0.0])
    with pytest.raises(ValueError):
        verify_rho_bound(h, (tx, ty), ty[:-1], verify_theorem1(h, s_xy, (tx, ty)))


# ---------------------------------------------------------------------------
# proxy A-distance


def test_distance_from_error_examples():
    assert distance_from_error(0.5) == 0.0
    assert distance_from_error(0.0) == 2.0
    assert distance_from_error(0.1) == pytest.approx(1.6)
    assert distance_from_error(0.9) == 0.0  # anti-learner clamps at 0


def test_a_distance_identical_distributions_near_zero():
    rng = np.random.default_rng(14)
    s = rng.normal(size=(300, 3))
    t = rng.normal(size=(300, 3))
    assert a_distance(s, t, seed=0) < 0.2


def test_a_distance_separated_distributions_near_two():
    rng = np.random.default_rng(15)
    s = rng.normal(size=(300, 3))
    t = rng.normal(size=(300, 3)) + 10.0
    assert a_distance(s, t, seed=0) > 1.8


def test_a_distance_is_seed_deterministic():
    rng = np.random.default_rng(16)
    s = rng.normal(size=(100, 2))
    t = rng.normal(size=(100, 2)) + 0.5
    assert a_distance(s, t, seed=3) == a_distance(s, t, seed=3)


def _train_domain_classifier(train_x, train_y, dim, seed, epochs=30, batch=64, lr=0.1):
    """The reference: one fold's classifier trained alone, its W (dim, 2)
    and b (1, 2) one flat buffer for the optimizer, and their gradients
    views of another."""
    rng = np.random.default_rng(seed)
    theta = np.concatenate([glorot_uniform(rng, dim, 2).ravel(), np.zeros(2)])
    W, b = theta[:2 * dim].reshape(dim, 2), theta[2 * dim:].reshape(1, 2)
    grad = np.empty_like(theta)
    dW, db = grad[:2 * dim].reshape(dim, 2), grad[2 * dim:].reshape(1, 2)
    opt = make_optimizer("adagrad", lr)
    bound = opt.bind(theta, grad)
    n = len(train_x)
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch):
            idx = perm[start:start + batch]
            # the batch's rows as (d, batch) columns
            xb = train_x[idx].T
            _, dz = cross_entropy(affine(xb, W, b), train_y[idx])
            affine_backward(dz, xb, affine_backward_buffers(dz, dW, db))
            opt.step(bound)
    return W, b


def _a_distance_fold_by_fold(feats_s, feats_t, heldout_fraction=0.5, folds=5, seed=0):
    """The reference `a_distance`, training its folds one after another.
    Returns d_A and each fold's training rows and classifier."""
    x = np.vstack([feats_s, feats_t])
    y = np.concatenate([np.zeros(len(feats_s), dtype=np.int64),
                        np.ones(len(feats_t), dtype=np.int64)])
    n_held = int(round(len(x) * heldout_fraction))
    errs, trained = [], []
    for fold_seed in np.random.SeedSequence(seed).spawn(folds):
        perm = np.random.default_rng(fold_seed).permutation(len(x))
        held, tr = perm[:n_held], perm[n_held:]
        W, b = _train_domain_classifier(x[tr], y[tr], x.shape[1], fold_seed)
        errs.append(np.mean(affine(x[held].T, W, b).argmax(axis=0) != y[held]))
        trained.append((tr, (W, b)))
    return distance_from_error(float(np.mean(errs))), x, y, trained


def test_a_distance_stacked_folds_equal_fold_by_fold_training():
    rng = np.random.default_rng(24)
    partial_batches = 0
    for i in range(12):
        d = int(rng.integers(1, 6))
        n_s, n_t = rng.choice(np.arange(20, 160), size=2, replace=False)
        s = rng.normal(size=(n_s, d))
        t = rng.normal(size=(n_t, d)) + rng.uniform(0.2, 1.5)
        seed = int(rng.integers(0, 100))
        d_a, x, y, trained = _a_distance_fold_by_fold(s, t, seed=seed)
        assert a_distance(s, t, seed=seed) == d_a, i
        tr = np.array([rows for rows, _ in trained])
        partial_batches += tr.shape[1] % 64 != 0
        rngs = [np.random.default_rng(f) for f in np.random.SeedSequence(seed).spawn(5)]
        W, b = analysis._train_domain_classifiers(x[tr], y[tr], rngs)
        for f, (_, (W_f, b_f)) in enumerate(trained):
            np.testing.assert_array_equal(W[f], W_f)
            np.testing.assert_array_equal(b[f], b_f)
    assert partial_batches > 0


def test_a_distance_rejects_empty():
    with pytest.raises(ValueError):
        a_distance(np.empty((0, 2)), np.ones((10, 2)))


# ---------------------------------------------------------------------------
# report emission


def reports(seed):
    """The theorem-1 and rho reports of a random problem, with the true
    target labels as the pseudo labels."""
    rng = np.random.default_rng(seed)
    s_xy, (tx, ty) = random_problem(rng)
    h = make_stump_class(np.vstack([s_xy[0], tx]), max_thresholds_per_dim=5)
    theorem1 = verify_theorem1(h, s_xy, (tx, ty))
    return theorem1, verify_rho_bound(h, (tx, ty), ty, theorem1)


def test_emit_report_files_and_contents(tmp_path):
    theorem1, rho = reports(17)
    summary = emit_report(theorem1, rho, 1.23, tmp_path)
    with open(tmp_path / "report.json") as fh:
        on_disk = json.load(fh)
    assert on_disk == summary
    for key in ("d_hdh", "C", "d_A", "num_violations", "violations",
                "schema_version", "theorem1", "theorem1_violations"):
        assert key in on_disk
    assert on_disk["d_A"] == 1.23
    assert on_disk["theorem1"] == theorem1.summary()


def test_emit_report_rho_keys(tmp_path):
    summary = emit_report(*reports(18), 0.5, tmp_path)
    assert summary["rho"] == 0.0 and "C_prime" in summary


def test_emit_report_empty_history(tmp_path):
    # the bound check has no steps: num_steps is 0, and the CLI, not
    # emit_report, writes the header-only metrics.csv
    emit_report(*reports(19), 0.0, tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    with open(tmp_path / "report.json") as fh:
        assert json.load(fh)["num_steps"] == 0


@pytest.mark.parametrize("counts", [(0, 0), (1, 0), (0, 1), (4, 7)])
def test_emit_report_bytes_are_the_indented_encoders(tmp_path, counts):
    # the record lists are encoded without `indent`, and laid out by hand
    theorem1, rho = reports(20)
    theorem1.violations = [{"hypothesis": i, "target_risk": i / 7, "bound": -1e-17}
                           for i in range(counts[0])]
    rho.violations = [{"hypothesis": i, "check": "risk_gap", "gap": 0.1 * i, "rho": 1 / 3}
                      if i % 2 else {"hypothesis": i, "check": "chained", "lhs": 2.5, "rhs": 1e300}
                      for i in range(counts[1])]
    summary = emit_report(theorem1, rho, 0.25, tmp_path)
    expected = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "report.json").read_text() == expected


# ---------------------------------------------------------------------------
# demo


# the start of each demo's closing line
DEMO_CLOSING_LINES = {
    "adaptation_two_moons.py": "adapted target accuracy: ",
    "bound_verification.py": "fault injection (C lowered by 0.1 on a tight instance): ",
    "divergence_measurement.py": "  d_A on learned features: ",
}


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_bound_verification_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(DEMO_CLOSING_LINES[demo]), proc.stdout
