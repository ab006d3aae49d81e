import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from tritrain import analysis, datagen
from tritrain.analysis import (BoundReport, HypothesisClass, a_distance,
                               distance_from_error, emit_report,
                               empirical_hdh_distance, make_stump_class,
                               verify_rho_bound, verify_theorem1)
from tritrain.nnlib import LayerSpec, Sequential, make_optimizer, softmax_cross_entropy
from tritrain.trainer import StepMetrics, read_metrics_csv


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
    pred = h.predict(x)
    np.testing.assert_array_equal(pred[0], [0, 1])   # positive polarity
    np.testing.assert_array_equal(pred[1], [1, 0])   # complement


def test_make_stump_class_respects_cap():
    x = np.random.default_rng(0).normal(size=(500, 3))
    h = make_stump_class(x, max_thresholds_per_dim=10)
    assert len(h) == 3 * 10 * 2


def test_enumeration_size_limit():
    with pytest.raises(ValueError):
        HypothesisClass(dims=np.zeros(10_001, dtype=np.int64),
                        thresholds=np.zeros(10_001),
                        polarities=np.ones(10_001, dtype=np.int64))


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
    ps, pt = h.predict(sx), h.predict(tx)
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
        assert empirical_hdh_distance(h, sx, tx) == pytest.approx(
            _brute_force_hdh(h, sx, tx))


def _dense_hdh(h, sx, tx):
    """The O(H**2) formula: full source and target disagreement matrices."""
    def disagreement(pred):
        p = pred.astype(np.float64)
        n = p.shape[1]
        # mean[(a != b)] = mean[a] + mean[b] - 2 mean[a b] for 0/1 predictions
        cross = p @ p.T / n
        m = p.mean(axis=1)
        return m[:, None] + m[None, :] - 2 * cross
    gap = disagreement(h.predict(sx)) - disagreement(h.predict(tx))
    return float(2.0 * np.abs(gap).max())


def test_hdh_blocked_equals_dense_bit_for_bit():
    block = analysis._HDH_BLOCK
    sizes = [1, 2, block - 1, block, block + 1, 2 * block, 2 * block + 5, 3 * block - 7]
    rng = np.random.default_rng(20)
    for i in range(240):
        size = sizes[i % len(sizes)] if i < 160 else int(rng.integers(1, 3 * block))
        d = int(rng.integers(1, 4))
        sx = rng.normal(size=(int(rng.integers(1, 60)), d))
        tx = rng.normal(size=(int(rng.integers(1, 60)), d)) + rng.normal(size=d)
        if i % 5 == 0:
            sx = np.round(sx, 1)   # ties between sample values and thresholds
        h = HypothesisClass(dims=rng.integers(0, d, size=size),
                            thresholds=np.round(rng.normal(size=size), 1),
                            polarities=rng.choice([1, -1], size=size))
        assert empirical_hdh_distance(h, sx, tx) == _dense_hdh(h, sx, tx), (i, size)


def test_hdh_equals_dense_on_degenerate_classes():
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
        assert d_hdh == _dense_hdh(h, sx, tx), i
        if i % 3 < 2:
            assert d_hdh == 0.0


def test_hdh_numerators_beyond_float32_take_float64(monkeypatch):
    assert analysis._numerator_dtype(2 ** 12 - 1, 2 ** 12) is np.float32
    assert analysis._numerator_dtype(2 ** 12, 2 ** 12) is np.float64
    picked, pick = [], analysis._numerator_dtype

    def spy(n_s, n_t):
        picked.append(pick(n_s, n_t))
        return picked[-1]

    monkeypatch.setattr(analysis, "_numerator_dtype", spy)
    rng = np.random.default_rng(23)
    # n_s * n_t = 2**24; the source is one point repeated by a zero-stride view
    sx = np.broadcast_to(rng.normal(size=(1, 2)), (2 ** 12, 2))
    tx = rng.normal(size=(2 ** 12, 2))
    h = make_stump_class(np.vstack([sx[:1], tx]), max_thresholds_per_dim=20)
    assert empirical_hdh_distance(h, sx, tx) == _dense_hdh(h, sx, tx)
    assert picked == [np.float64]


def _bench_size_instance():
    ds = datagen.generate(datagen.ShiftSpec(n_source=400, n_target=400, rotation_deg=30,
                                            noise_sigma=0.1, seed=0))
    h = make_stump_class(np.vstack([ds.source_x, ds.target_x]), max_thresholds_per_dim=1000)
    return h, ds.source_x, ds.target_x


def test_hdh_memory_is_not_quadratic_in_hypotheses():
    # the dense H x H float64 matrices take 323 MiB on this instance
    h, sx, tx = _bench_size_instance()
    assert len(h) > 3000
    tracemalloc.start()
    try:
        empirical_hdh_distance(h, sx, tx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2 ** 20


def test_hdh_rejects_counts_beyond_float32_exactness():
    h = stump_class_1d([0.5])
    huge = np.broadcast_to(np.zeros((1, 1)), (2 ** 24, 1))   # a view: no allocation
    small = np.ones((3, 1))
    for sx, tx in ((huge, small), (small, huge)):
        with pytest.raises(ValueError, match="float32"):
            empirical_hdh_distance(h, sx, tx)


def test_hdh_rejects_empty():
    h = stump_class_1d([0.5])
    with pytest.raises(ValueError):
        empirical_hdh_distance(h, np.empty((0, 1)), np.ones((3, 1)))


# ---------------------------------------------------------------------------
# ideal joint hypothesis (verify_theorem1's best_hypothesis and c_value)


def ideal_joint_error(h, s_xy, t_xy):
    """Oracle: exhaustive argmin of source risk + target risk, ties to the
    first hypothesis in enumeration order. Returns (index, combined error)."""
    total = sum((h.predict(x) != np.asarray(y)[None, :]).mean(axis=1) for x, y in (s_xy, t_xy))
    best = int(np.argmin(total))
    return best, float(total[best])


def test_ideal_joint_error_identical_domains():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(25, 2))
    y = rng.integers(0, 2, size=25)
    h = make_stump_class(x)
    c = verify_theorem1(h, (x, y), (x, y)).c_value
    rs = (h.predict(x) != y[None, :]).mean(axis=1)
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
    totals = [(np.mean(h.predict(s_xy[0])[i] != s_xy[1])
               + np.mean(h.predict(t_xy[0])[i] != t_xy[1]))
              for i in range(len(h))]
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
    report = verify_rho_bound(h, s_xy, (tx, ty), ty)
    assert report.rho == 0.0
    assert report.violations == []
    np.testing.assert_array_equal(report.risks_pseudo, report.risks_target)


def test_rho_one_when_all_labels_flipped():
    rng = np.random.default_rng(10)
    s_xy, (tx, ty) = random_problem(rng)
    h = make_stump_class(np.vstack([s_xy[0], tx]), max_thresholds_per_dim=10)
    report = verify_rho_bound(h, s_xy, (tx, ty), 1 - ty)
    assert report.rho == 1.0
    assert report.violations == []


def test_rho_bound_holds_for_noisy_pseudo_labels():
    rng = np.random.default_rng(11)
    for _ in range(10):
        s_xy, (tx, ty) = random_problem(rng)
        noise = rng.random(len(ty)) < 0.3
        pseudo = np.where(noise, 1 - ty, ty)
        h = make_stump_class(np.vstack([s_xy[0], tx]), max_thresholds_per_dim=10)
        report = verify_rho_bound(h, s_xy, (tx, ty), pseudo)
        assert report.rho == pytest.approx(np.mean(noise))
        assert report.violations == []


def test_rho_fault_injection_is_detected():
    rng = np.random.default_rng(12)
    s_xy, (tx, ty) = random_problem(rng)
    pseudo = np.where(rng.random(len(ty)) < 0.4, 1 - ty, ty)
    h = make_stump_class(np.vstack([s_xy[0], tx]), max_thresholds_per_dim=10)
    report = verify_rho_bound(h, s_xy, (tx, ty), pseudo,
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
    shared = verify_rho_bound(h, s_xy, t_xy, pseudo, rho_offset=rho_offset, theorem1=r1)
    alone = verify_rho_bound(h, s_xy, t_xy, pseudo, rho_offset=rho_offset)
    _assert_reports_equal(shared, alone)
    # both against the terms computed one by one
    best, c = ideal_joint_error(h, s_xy, t_xy)
    assert (r1.best_hypothesis, r1.c_value) == (best, c + c_offset)
    assert (shared.best_hypothesis, shared.c_value) == (best, c)
    assert r1.d_hdh == shared.d_hdh == _dense_hdh(h, s_xy[0], tx)
    assert (len(shared.violations) > 0) == (rho_offset != 0.0)


def test_rho_bound_rejects_theorem1_of_another_class():
    rng = np.random.default_rng(21)
    s_xy, (tx, ty) = random_problem(rng)
    r1 = verify_theorem1(stump_class_1d([0.0, 1.0]), s_xy, (tx, ty))
    with pytest.raises(ValueError, match="theorem1"):
        verify_rho_bound(stump_class_1d([0.0]), s_xy, (tx, ty), ty, theorem1=r1)


def test_rho_rejects_mismatched_pseudo_labels():
    rng = np.random.default_rng(13)
    s_xy, (tx, ty) = random_problem(rng)
    h = stump_class_1d([0.0])
    with pytest.raises(ValueError):
        verify_rho_bound(h, s_xy, (tx, ty), ty[:-1])


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
    """The reference: one fold's classifier trained alone."""
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
        clf = _train_domain_classifier(x[tr], y[tr], x.shape[1], fold_seed)
        errs.append(np.mean(clf.forward(x[held], mode="eval").argmax(axis=1) != y[held]))
        trained.append((tr, clf))
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
        for f, (_, clf) in enumerate(trained):
            np.testing.assert_array_equal(W[f], clf.layers[0].params["W"])
            np.testing.assert_array_equal(b[f], clf.layers[0].params["b"])
    assert partial_batches > 0


def test_a_distance_rejects_empty():
    with pytest.raises(ValueError):
        a_distance(np.empty((0, 2)), np.ones((10, 2)))


def test_a_distance_rejects_zero_folds():
    rng = np.random.default_rng(25)
    with pytest.raises(ValueError, match="fold"):
        a_distance(rng.normal(size=(10, 2)), rng.normal(size=(10, 2)), folds=0)


# ---------------------------------------------------------------------------
# report emission


def make_history():
    return [StepMetrics(step=i, acc_f1=0.8, acc_f2=0.81, acc_ft=0.7 + 0.01 * i,
                        labeling_acc=0.9, n_pseudo=100 * i, mean_E=1.0,
                        mean_penalty=0.1) for i in range(3)]


def test_emit_report_files_and_contents(tmp_path):
    rng = np.random.default_rng(17)
    s_xy, t_xy = random_problem(rng)
    h = make_stump_class(np.vstack([s_xy[0], t_xy[0]]), max_thresholds_per_dim=5)
    bound = verify_theorem1(h, s_xy, t_xy)
    summary = emit_report(make_history(), bound, tmp_path / "out", d_a=1.23,
                          extra={"note": "x"})
    with open(tmp_path / "out" / "report.json") as fh:
        on_disk = json.load(fh)
    assert on_disk == summary
    for key in ("d_hdh", "C", "d_A", "num_violations", "violations",
                "schema_version", "note"):
        assert key in on_disk
    assert on_disk["d_A"] == 1.23
    assert read_metrics_csv(tmp_path / "out" / "metrics.csv") == make_history()


def test_emit_report_rho_keys(tmp_path):
    rng = np.random.default_rng(18)
    s_xy, (tx, ty) = random_problem(rng)
    h = make_stump_class(np.vstack([s_xy[0], tx]), max_thresholds_per_dim=5)
    bound = verify_rho_bound(h, s_xy, (tx, ty), ty)
    summary = emit_report(make_history(), bound, tmp_path / "out")
    assert summary["rho"] == 0.0 and "C_prime" in summary


def test_emit_report_empty_history(tmp_path):
    emit_report([], None, tmp_path / "out")
    assert read_metrics_csv(tmp_path / "out" / "metrics.csv") == []
    with open(tmp_path / "out" / "report.json") as fh:
        assert json.load(fh)["num_steps"] == 0
