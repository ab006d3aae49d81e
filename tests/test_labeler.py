import math

import numpy as np
import pytest
from scipy import stats as sstats

from tritrain.labeler import (LabelingConfig, PseudoLabelSet,
                              assign_pseudo_labels, candidate_count,
                              label_candidates, labeling_accuracy,
                              sample_candidates)
from tritrain.nnlib import ConfigError, ShapeError, softmax


def head_probs(probs):
    """A head's (n, k) probabilities, as the softmax of their logs taken
    over the class axis of their (k, n) transpose."""
    return softmax(np.log(np.asarray(probs, dtype=np.float64)).T).T


# ---------------------------------------------------------------------------
# candidate schedule


def test_candidate_count_initial_pool():
    cfg = LabelingConfig()
    assert candidate_count(0, 59001, cfg) == 5000
    assert candidate_count(0, 1000, cfg) == 1000  # clamped to the target pool


def test_candidate_count_linear_growth():
    cfg = LabelingConfig()
    assert candidate_count(10, 59001, cfg) == 29500
    assert candidate_count(20, 59001, cfg) == 40000  # hard cap binds


def test_candidate_count_reference_grid():
    # brute-force oracle over the published schedule constants
    cfg = LabelingConfig()
    for n in (1000, 59001, 73257):
        for k in range(0, 41):
            if k == 0:
                expected = min(5000, 40000, n)
            else:
                expected = min(math.floor(k * n / 20), 40000, n)
            assert candidate_count(k, n, cfg) == expected, (k, n)


def test_candidate_count_monotone_after_start():
    cfg = LabelingConfig()
    for n in (1000, 59001, 73257):
        counts = [candidate_count(k, n, cfg) for k in range(1, 41)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert max(counts) <= min(cfg.cap, n)


def test_candidate_count_rejects_negative_step():
    with pytest.raises(ValueError):
        candidate_count(-1, 100, LabelingConfig())


def test_labeling_config_validation():
    with pytest.raises(ConfigError):
        LabelingConfig(threshold=1.0)
    with pytest.raises(ConfigError):
        LabelingConfig(n_init=50000, cap=40000)


def test_labeling_config_rejects_negative_n_init():
    with pytest.raises(ConfigError, match="n_init"):
        LabelingConfig(n_init=-5)


# ---------------------------------------------------------------------------
# candidate sampling


def test_sample_all_is_permutation():
    idx = sample_candidates(100, 100, np.random.default_rng(0))
    assert sorted(idx) == list(range(100))


def test_sample_is_seed_deterministic():
    a = sample_candidates(1000, 50, np.random.default_rng(7))
    b = sample_candidates(1000, 50, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


def test_sample_clamps_oversized_request():
    idx = sample_candidates(10, 50, np.random.default_rng(1))
    assert sorted(idx) == list(range(10))


def test_sample_uniformity_chi_square():
    rng = np.random.default_rng(2)
    n = 10
    counts = np.zeros(n)
    for _ in range(10_000):
        counts[sample_candidates(n, 2, rng)] += 1
    _, p = sstats.chisquare(counts)
    assert p > 0.001


# ---------------------------------------------------------------------------
# the labeling rule


def test_agreement_with_one_confident_classifier():
    p1 = head_probs([[0.97, 0.03]])
    p2 = head_probs([[0.60, 0.40]])
    rows, labels, conf = assign_pseudo_labels(p1, p2, threshold=0.95)
    np.testing.assert_array_equal(rows, [0])
    np.testing.assert_array_equal(labels, [0])
    assert conf[0] == pytest.approx(0.97)


def test_disagreement_rejected():
    p1 = head_probs([[0.99, 0.01]])
    p2 = head_probs([[0.01, 0.99]])
    rows, _, _ = assign_pseudo_labels(p1, p2, threshold=0.5)
    assert len(rows) == 0


def test_agreement_without_confidence_rejected():
    p1 = head_probs([[0.85, 0.15]])
    p2 = head_probs([[0.88, 0.12]])
    rows, _, _ = assign_pseudo_labels(p1, p2, threshold=0.9)
    assert len(rows) == 0


def test_row_count_mismatch():
    with pytest.raises(ShapeError):
        assign_pseudo_labels(head_probs([[0.5, 0.5]]),
                             head_probs([[0.5, 0.5], [0.5, 0.5]]), 0.9)


def _brute_force_rule(p1, p2, threshold):
    rows, labels, confs = [], [], []
    for i in range(p1.shape[0]):
        c1 = int(np.argmax(p1[i]))
        c2 = int(np.argmax(p2[i]))
        m1, m2 = p1[i, c1], p2[i, c2]
        if c1 == c2 and max(m1, m2) > threshold:
            rows.append(i)
            labels.append(c1)
            confs.append(max(m1, m2))
    return np.array(rows), np.array(labels), np.array(confs)


def test_rule_matches_brute_force_on_random_pairs():
    rng = np.random.default_rng(3)
    for trial in range(1000):
        n = rng.integers(1, 12)
        k = rng.integers(2, 6)
        p1 = softmax(rng.normal(scale=3, size=(n, k)).T).T
        p2 = softmax(rng.normal(scale=3, size=(n, k)).T).T
        threshold = rng.uniform(0.3, 0.99)
        rows, labels, conf = assign_pseudo_labels(p1, p2, threshold)
        brows, blabels, bconf = _brute_force_rule(p1, p2, threshold)
        np.testing.assert_array_equal(rows, brows)
        np.testing.assert_array_equal(labels, blabels)
        np.testing.assert_allclose(conf, bconf)
        # raising the threshold never admits new rows
        rows_hi, _, _ = assign_pseudo_labels(p1, p2, min(0.999, threshold + 0.1))
        assert set(rows_hi) <= set(rows)
        # every admitted confidence clears the threshold
        assert np.all(conf > threshold)


# ---------------------------------------------------------------------------
# labeling accuracy


def test_labeling_accuracy_all_correct():
    pls = PseudoLabelSet(indices=np.array([0, 2, 4]), labels=np.array([1, 0, 1]),
                         confidences=np.full(3, 0.95))
    truth = np.array([1, 0, 0, 0, 1])
    assert labeling_accuracy(pls, truth) == 1.0


def test_labeling_accuracy_empty_is_nan():
    assert math.isnan(labeling_accuracy(PseudoLabelSet(), np.array([0, 1])))


@pytest.mark.parametrize("truth, value", [([1, 0, 0.5, 0, 1], "0.5"), ([1, 0, 0, -1, 1], "-1")],
                         ids=["fractional", "negative"])
def test_labeling_accuracy_refuses_true_labels_that_are_not_class_indices_naming_them(
        truth, value):
    # each used to count as a wrong pseudo-label, without a word
    pls = PseudoLabelSet(indices=np.array([0, 2, 4]), labels=np.array([1, 0, 1]),
                         confidences=np.full(3, 0.95))
    with pytest.raises(ValueError,
                       match=rf"^true_labels holds {value}, not an integer in \[0, inf\)$"):
        labeling_accuracy(pls, np.array(truth))


def test_labeling_accuracy_matches_brute_force():
    rng = np.random.default_rng(4)
    truth = rng.integers(0, 3, size=50)
    idx = rng.choice(50, size=20, replace=False)
    labels = rng.integers(0, 3, size=20)
    pls = PseudoLabelSet(indices=idx, labels=labels,
                         confidences=np.full(20, 0.91))
    expected = sum(int(labels[i] == truth[idx[i]]) for i in range(20)) / 20
    assert labeling_accuracy(pls, truth) == pytest.approx(expected)
