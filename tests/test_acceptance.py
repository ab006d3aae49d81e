"""Acceptance suite. Each test checks one headline criterion end to end and
prints a single [PASS]/[FAIL] line (collected again in the terminal summary).

The optional review-corpus benchmark expects sparse bag-of-words files at
data/amazon/books.txt and data/amazon/dvd.txt (relative to the repository
root, `<label> <index>:<value> ...` lines, 0-based indices, 5000 features)
and is skipped when they are absent.
"""
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import record_acceptance, rel_err
from tritrain import analysis, cli, datagen, labeler, trainer, trinet
from tritrain.labeler import LabelingConfig, candidate_count
from tritrain.nnlib import LayerSpec
from tritrain.trainer import TrainConfig, evaluate, run
from tritrain.trinet import BranchOutput, TriNet

REPO_ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# shared benchmark: rotated two moons, seeds 0-9, full adaptation + baseline


@pytest.fixture(scope="session")
def benchmark_runs(moons_benchmark_config):
    runs = []
    for seed in range(10):
        spec = datagen.ShiftSpec(generator="two_moons", n_source=500,
                                 n_target=500, rotation_deg=30,
                                 noise_sigma=0.1, seed=seed)
        ds = datagen.generate(spec)
        cfg = TrainConfig(**moons_benchmark_config, seed=seed)
        hist, state = run(ds.source_x, ds.source_y, ds.target_x, cfg,
                          eval_x=ds.target_x, eval_y=ds.target_y_hidden,
                          target_y_hidden=ds.target_y_hidden)
        # the source-only baseline is the pretrained net of step 0, which
        # test_step_zero_is_the_source_only_baseline pins down
        runs.append({"seed": seed, "ds": ds, "hist": hist, "state": state,
                     "baseline": hist[0].acc_ft})
    return runs


def test_step_zero_is_the_source_only_baseline(benchmark_runs, moons_benchmark_config):
    r = benchmark_runs[3]
    ds = r["ds"]
    cfg = TrainConfig(**{**moons_benchmark_config, "steps_k": 0}, seed=r["seed"])
    base_hist, _ = run(ds.source_x, ds.source_y, ds.target_x, cfg,
                       eval_x=ds.target_x, eval_y=ds.target_y_hidden,
                       target_y_hidden=ds.target_y_hidden)
    assert base_hist[0].acc_ft == r["hist"][0].acc_ft


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients match finite differences


def _loss_with_param(net, x, y, kind, name, arr):
    """Joint or target loss with one named parameter temporarily replaced."""
    params = net.named_params()
    original = params[name].copy()
    params[name][...] = arr
    try:
        if kind == "joint":
            loss, _ = net.joint_labeling_loss(x, y, mode="train")
            return loss
        return net.target_loss(x, y, mode="train")
    finally:
        params[name][...] = original


def _max_grad_rel_err(seed, use_bn):
    rng = np.random.default_rng(seed)
    f_specs = [LayerSpec("affine", 3, 4), LayerSpec("sigmoid", 4, 4)]
    if use_bn:
        f_specs.append(LayerSpec("batch_norm", 4, 4))
    net = TriNet(f_specs, [LayerSpec("affine", 4, 3)], 3, lam=0.01, seed=seed)
    x = rng.normal(size=(6, 3))
    y = rng.integers(0, 3, size=6)
    worst = 0.0
    for kind, skip in (("joint", ("ft/",)), ("target", ("f1/", "f2/"))):
        if kind == "joint":
            net.joint_labeling_loss(x, y, mode="train")
        else:
            net.target_loss(x, y, mode="train")
        grads = {k: v.copy() for k, v in net.named("grads").items()}
        for name, p in net.named_params().items():
            if name.startswith(skip):
                continue
            fd = np.zeros_like(p)
            h = 1e-5
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                up, dn = p.copy(), p.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (_loss_with_param(net, x, y, kind, name, up)
                         - _loss_with_param(net, x, y, kind, name, dn)) / (2 * h)
            worst = max(worst, rel_err(grads[name], fd))
    return worst


def test_acceptance_gradient_suite():
    start = time.time()
    worst = 0.0
    for seed in range(20):
        worst = max(worst, _max_grad_rel_err(seed, use_bn=bool(seed % 2)))
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 60
    record_acceptance("gradient suite (20 seeds, all layer types)", ok,
                      f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: the bound holds exactly on 100 enumerable instances


def test_acceptance_bound_suite():
    start = time.time()
    violations = 0
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        n_s, n_t = rng.integers(5, 26), rng.integers(5, 26)  # total <= 50
        d = int(rng.integers(1, 3))
        sx = rng.normal(size=(n_s, d))
        sy = rng.integers(0, 2, size=n_s)
        tx = rng.normal(size=(n_t, d)) + rng.normal(scale=1.0, size=d)
        ty = rng.integers(0, 2, size=n_t)
        if i % 3 == 0:
            ty = 1 - sy[:n_t] if n_t <= n_s else 1 - ty  # adversarial flavor
        h = analysis.make_stump_class(np.vstack([sx, tx]),
                                      max_thresholds_per_dim=50 // d)
        assert len(h) <= 200
        r1 = analysis.verify_theorem1(h, (sx, sy), (tx, ty))
        noise = rng.random(n_t) < rng.uniform(0, 0.5)
        pseudo = np.where(noise, 1 - ty, ty)
        r2 = analysis.verify_rho_bound(h, (sx, sy), (tx, ty), pseudo)
        violations += len(r1.violations) + len(r2.violations)
    # negative control: a corrupted joint-error term on a tight instance
    rng = np.random.default_rng(99)
    x = rng.normal(size=(30, 1))
    y = (x[:, 0] > 0).astype(np.int64)
    h = analysis.make_stump_class(x, max_thresholds_per_dim=20)
    control = analysis.verify_theorem1(h, (x, y), (x, y), c_offset=-0.1)
    elapsed = time.time() - start
    ok = violations == 0 and len(control.violations) > 0 and elapsed < 60
    record_acceptance("bound verification (100 instances + fault injection)",
                      ok, f"{violations} violations, control detected "
                      f"{len(control.violations)}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: the labeling rule matches an independent oracle exactly


def test_acceptance_labeler_oracle():
    mismatches = 0
    rng = np.random.default_rng(7)
    for _ in range(500):
        n, k = rng.integers(1, 20), rng.integers(2, 8)
        p1 = BranchOutput.from_logits(rng.normal(scale=3, size=(n, k)))
        p2 = BranchOutput.from_logits(rng.normal(scale=3, size=(n, k)))
        th = rng.uniform(0.3, 0.99)
        rows, labels, conf = labeler.assign_pseudo_labels(p1, p2, th)
        exp_rows, exp_labels, exp_conf = [], [], []
        for i in range(n):
            c1, c2 = int(p1.probs[i].argmax()), int(p2.probs[i].argmax())
            m = max(p1.probs[i, c1], p2.probs[i, c2])
            if c1 == c2 and m > th:
                exp_rows.append(i)
                exp_labels.append(c1)
                exp_conf.append(m)
        if (list(rows) != exp_rows or list(labels) != exp_labels
                or not np.allclose(conf, exp_conf)):
            mismatches += 1
    cfg = LabelingConfig()
    schedule_ok = (candidate_count(0, 59001, cfg) == 5000
                   and candidate_count(10, 59001, cfg) == 29500
                   and candidate_count(20, 59001, cfg) == 40000)
    for n in (1000, 59001, 73257):
        for k in range(41):
            want = min(5000, n) if k == 0 else min(k * n // 20, 40000, n)
            schedule_ok &= candidate_count(k, n, cfg) == want
    ok = mismatches == 0 and schedule_ok
    record_acceptance("labeler oracle (500 batches + candidate schedule)", ok,
                      f"{mismatches} mismatches, schedule {'ok' if schedule_ok else 'WRONG'}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: adaptation beats the source-only baseline on shifted moons


def test_acceptance_adaptation_gain(benchmark_runs):
    gains = [r["hist"][-1].acc_ft - r["baseline"] for r in benchmark_runs]
    spreads = [abs(r["hist"][-1].acc_f1 - r["hist"][-1].acc_f2)
               for r in benchmark_runs]
    mean_gain = float(np.mean(gains))
    max_spread = float(np.max(spreads))
    ok = mean_gain >= 0.05 and max_spread <= 0.05
    record_acceptance("adaptation gain on rotated moons (10 seeds)", ok,
                      f"mean gain {mean_gain:.3f} (need >= 0.05), "
                      f"max f1/f2 spread {max_spread:.3f} (need <= 0.05)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: training-curve signature (growing pseudo set, net improvement)


def test_acceptance_progress_signature(benchmark_runs):
    good = 0
    for r in benchmark_runs:
        hist = r["hist"]
        counts = [m.n_pseudo for m in hist[1:]]  # steps 1..K
        mono = all(b >= a for a, b in zip(counts, counts[1:]))
        improved = hist[-1].acc_ft >= hist[1].acc_ft
        good += int(mono and improved)
    ok = good >= 8
    record_acceptance("training-curve signature (10 seeds)", ok,
                      f"{good}/10 seeds monotone pseudo-set growth and "
                      f"final >= first-step accuracy (need >= 8)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: proxy A-distance sanity and learned-feature shrinkage


def test_acceptance_a_distance(benchmark_runs):
    rng = np.random.default_rng(0)
    same = analysis.a_distance(rng.normal(size=(300, 3)),
                               rng.normal(size=(300, 3)), seed=0)
    far = analysis.a_distance(rng.normal(size=(300, 3)),
                              rng.normal(size=(300, 3)) + 10.0, seed=0)
    wins = 0
    for r in benchmark_runs:
        ds, net = r["ds"], r["state"].net
        d_raw = analysis.a_distance(ds.source_x, ds.target_x, seed=r["seed"])
        d_feat = analysis.a_distance(net.features(ds.source_x), net.features(ds.target_x),
                                     seed=r["seed"])
        wins += int(d_feat <= d_raw + 0.2)
    ok = same < 0.2 and far > 1.8 and wins >= 8
    record_acceptance("proxy A-distance sanity", ok,
                      f"identical {same:.2f} (< 0.2), far {far:.2f} (> 1.8), "
                      f"features within tolerance of raw {wins}/10 (need >= 8)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: a manifest re-run reproduces metrics byte for byte


def test_acceptance_determinism(tmp_path):
    cfg_text = "\n".join([
        'data.generator = "two_moons"', "data.n_source = 200",
        "data.n_target = 200", "data.rotation_deg = 30",
        "data.noise_sigma = 0.1", "data.seed = 0",
        "train.steps_k = 3", "train.pretrain_iters = 100",
        "train.iter_per_phase = 20", "train.batch_labeling = 32",
        "train.batch_target = 32", "train.lr = 0.05",
        "train.hidden_dim = 8", "train.seed = 0",
        "labeling.n_init = 100", ""])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    first, second = tmp_path / "a", tmp_path / "b"
    rc1 = cli.main(["train", "--config", str(cfg), "--out", str(first)])
    rc2 = cli.main(["train", "--config", str(first / "manifest.json"),
                    "--out", str(second)])
    identical = ((first / "metrics.csv").read_bytes()
                 == (second / "metrics.csv").read_bytes())
    ok = rc1 == 0 and rc2 == 0 and identical
    record_acceptance("determinism (manifest re-run)", ok,
                      "metrics.csv byte-identical" if identical
                      else "metrics.csv differs")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8 (optional): sparse review-corpus benchmark


def test_acceptance_reviews_benchmark():
    books = REPO_ROOT / "data" / "amazon" / "books.txt"
    dvd = REPO_ROOT / "data" / "amazon" / "dvd.txt"
    if not (books.exists() and dvd.exists()):
        record_acceptance("review-corpus benchmark (optional)", None,
                          "data/amazon/{books,dvd}.txt not present")
        pytest.skip("review corpus not available")
    sx, sy = datagen.load_sparse_bow(books, dim=5000)
    tx, ty = datagen.load_sparse_bow(dvd, dim=5000)
    accs = []
    for seed in range(10):
        cfg = TrainConfig(steps_k=10, pretrain_iters=500, iter_per_phase=100,
                          batch_labeling=64, batch_target=128,
                          optimizer="adagrad", lr=0.01, lam=0.001,
                          hidden_dim=50, activation="sigmoid", use_bn=True,
                          labeling=LabelingConfig(threshold=0.95), seed=seed)
        hist, _ = run(sx, sy, tx, cfg, eval_x=tx, eval_y=ty,
                      target_y_hidden=ty)
        accs.append(hist[-1].acc_ft)
    mean = float(np.mean(accs))
    ok = abs(mean - 0.807) <= 0.03
    record_acceptance("review-corpus benchmark (optional)", ok,
                      f"mean target accuracy {mean:.3f} (expect 0.807 +/- 0.030)")
    assert ok
