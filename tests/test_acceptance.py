"""Acceptance suite. Each test checks one headline criterion end to end and
prints a single [PASS]/[FAIL] line (collected again in the terminal summary).

The optional review-corpus benchmark expects sparse bag-of-words files at
data/amazon/books.txt and data/amazon/dvd.txt (relative to the repository
root, `<label> <index>:<value> ...` lines, 0-based indices, 5000 features)
and is skipped when they are absent.
"""
import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import arithmetic_host, named, record_acceptance, rel_err
from tritrain import analysis, cli, datagen, labeler, trainer, trinet
from tritrain.labeler import LabelingConfig, candidate_count
from tritrain.trainer import TrainConfig, evaluate, run
from tritrain.nnlib import softmax
from tritrain.trinet import TriNet

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


def _loss(net, x, y, kind, seed, ws):
    """Joint or target loss in `ws`, a workspace of its phase for the rows
    of x, with the dropout masks of generator `seed`, the same on every
    call."""
    rng = np.random.default_rng(seed)
    if kind == "joint":
        loss, _ = net.joint_labeling_loss(x, y, ws, rng=rng)
        return loss
    return net.target_loss(x, y, ws, rng=rng)


def _loss_with_param(net, x, y, kind, name, arr, seed, ws):
    """`_loss` with one named parameter temporarily replaced."""
    params = named(net)
    original = params[name].copy()
    params[name][...] = arr
    try:
        return _loss(net, x, y, kind, seed, ws)
    finally:
        params[name][...] = original


# the extractors `build_net` makes, each with and without batch norm
EXTRACTORS = [("sigmoid", 0.0), ("sigmoid", 0.2), ("relu", 0.0), ("relu", 0.2)]


def _max_grad_rel_err(seed, activation, dropout_rate, use_bn):
    rng = np.random.default_rng(seed)
    net = TriNet(3, 3, hidden_dim=4, activation=activation, dropout_rate=dropout_rate,
                 use_bn=use_bn, lam=0.01, seed=seed)
    x = rng.normal(size=(6, 3))
    y = rng.integers(0, 3, size=6)
    worst = 0.0
    for kind, phase, skip in (("joint", "labeling", ("ft/",)),
                              ("target", "target", ("f1/", "f2/"))):
        ws = net.workspace(phase, len(x))
        _loss(net, x, y, kind, seed, ws)
        grads = {k: v.copy() for k, v in named(net, "grads").items()}
        for name, p in named(net).items():
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
                fd[i] = (_loss_with_param(net, x, y, kind, name, up, seed, ws)
                         - _loss_with_param(net, x, y, kind, name, dn, seed, ws)) / (2 * h)
            worst = max(worst, rel_err(grads[name], fd))
    return worst


def test_acceptance_gradient_suite():
    start = time.time()
    worst = 0.0
    for seed in range(20):
        for activation, dropout_rate in EXTRACTORS:
            worst = max(worst, _max_grad_rel_err(seed, activation, dropout_rate,
                                                 use_bn=bool(seed % 2)))
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
        r2 = analysis.verify_rho_bound(h, (tx, ty), pseudo, r1)
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
        # each head's (n, k) probabilities, as TriNet.forward returns them
        p1 = softmax(rng.normal(scale=3, size=(n, k)).T).T
        p2 = softmax(rng.normal(scale=3, size=(n, k)).T).T
        th = rng.uniform(0.3, 0.99)
        rows, labels, conf = labeler.assign_pseudo_labels(p1, p2, th)
        exp_rows, exp_labels, exp_conf = [], [], []
        for i in range(n):
            c1, c2 = int(p1[i].argmax()), int(p2[i].argmax())
            m = max(p1[i, c1], p2[i, c2])
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
# pinned training bits: a change that moves them edits a literal here

# sha256 of each `benchmark_runs` history's metrics.csv, by seed
BENCHMARK_METRICS_DIGESTS = (
    "75d3366e6a419915f0df49241460014d2b1082a0b58ecbbb85d5ad412f906dd3",
    "cda0acebf2e8eee8ad884c59258495f89236e5025f3edfe696889de4570b45b6",
    "9ad41ae0b44f25c3c745b695e94bcc497a1d7a7858b349c50e17e6ead0fa5bd2",
    "1a556f436c9fd1f421019f2978647611a131058b34a6bbad1bb78577f888016a",
    "83a87f3d1174b3bc04913142fcfea13dfd9cdf8e818eca2f19d2dc51dba0fdd4",
    "125e422bb8aaaaaab8bdbd1c8f073ab9796ee4781d192317fb214248a361e149",
    "c2201004f7891164359dfa67bcbf7520ebeb12816afa3657d46cdd8b3d0fb1e4",
    "cc84e72301dddc56370fb6eb736a7ad14c925bf286d4d25b7eecc1e2ad54609e",
    "7051c8213e86b0414ad9762ac2522383b2968feef3cf41c3e9b87f40c6ea5e11",
    "8744b2f9582f0517920d27d546017befb0be668c9a86cf4f332422bd8950aaaf",
)

# the columns a change that only moves rounding must leave as they are
ACCURACY_COLUMNS = ("acc_f1", "acc_f2", "acc_ft", "labeling_acc", "n_pseudo")
# sha256 of the repr of each `benchmark_runs` history's accuracy columns, a
# list of [acc_f1, acc_f2, acc_ft, labeling_acc, n_pseudo] per step, by seed
BENCHMARK_ACCURACY_DIGESTS = (
    "ff1b4c7fa774684fc5b101bc325c6903beece6881f04103aa22e3f656ebb187d",
    "a4e122a5ec0f06ba15061f333c37e36bb9c3fcaebf4a1d4ba001a1661a71b3a6",
    "8d38dc38582c72c49f74197cb40c8d7733b093cac8d0213b5dcab13afaffea3c",
    "4c77075a7852a79b91fff8bc2d8cb63fdc64dbb813e8bcca6d3230b9b67e2e71",
    "bf833a74113009b949ceb99d86873bc3dfbf82dbd89dc0922c36f2531d6efaf4",
    "a9d5ac11bc6b3c2670c00891846a58b508749dcc38c98711735794485b31513c",
    "64a37bc2f2c5066744bdad2c9f8776407c91c5fd0f754cdbd022bcb9b5ae58b7",
    "9b2d1f0bfd422073e955a4a0b3225769d061a25b680dbfe693f534e7a774c31e",
    "1fc7ae99f270e6bfaa048f16aaa1da8930e5eb44eb03df27ffde184f23cb28dc",
    "5319550c1fdb91a4ae726b37640eeb384ddfc9cf3575e37db842ee93e1e29dc2",
)

# the paths the benchmark config leaves out: relu, dropout, Adagrad, a closed
# `from_ft` gate, an lr decay inside the run and shuffled-pass adaptation
# phases; every step has a target phase
SHORT_RUN_CFG = "\n".join([
    'data.generator = "two_moons"', "data.n_source = 120", "data.n_target = 120",
    "data.rotation_deg = 30", "data.noise_sigma = 0.1", "data.seed = 1",
    "train.steps_k = 4", "train.pretrain_iters = 40", "train.batch_labeling = 32",
    "train.batch_target = 16", 'train.optimizer = "adagrad"', "train.lr = 0.05",
    "train.lr_decay_step = 2", "train.lr_decay_to = 0.01", 'train.activation = "relu"',
    "train.dropout_rate = 0.2", "train.hidden_dim = 8", "train.seed = 1",
    "gates.from_ft = false", "labeling.n_init = 60", "labeling.threshold = 0.8", ""])
SHORT_RUN_DIGESTS = {
    "metrics.csv": "b6912f377622907a250debfa110e48d643b5e3dc77d3f4df4553d79c0becd679",
    "checkpoint.npz": "04190cc71634acf0bb17230f0578a08d2d86cf8a0ebdd04ca251b37e1056ef71",
}


# the short run with an extractor without batch norm: affine, relu, dropout
SHORT_RUN_NO_BN_DIGESTS = {
    "metrics.csv": "75bd27678bcfbd3998a1f062ef85f3fa165f75595e79e5f2ec9bc6fb9d8e6f78",
    "checkpoint.npz": "708c8c42203bb0892a9dcbff60d763a48f101f927fdd93c279d1f3c5449ba4b4",
}


# the paths neither short run nor the benchmark config takes: three classes
# of gaussian blobs, sigmoid with dropout before batch norm, a closed
# `from_f1_f2` gate, momentum SGD with fixed-length phases, and a pseudo pool
# smaller than `batch_target`, so the target phase's batch size changes from
# phase to phase (64, 21, 6, 12, 16)
BLOBS_RUN_CFG = "\n".join([
    'data.generator = "gaussian_blobs"', "data.num_classes = 3", "data.n_source = 120",
    "data.n_target = 120", "data.rotation_deg = 30", "data.noise_sigma = 0.5", "data.seed = 2",
    "train.steps_k = 4", "train.pretrain_iters = 30", "train.iter_per_phase = 10",
    "train.batch_labeling = 32", "train.batch_target = 64", "train.lr = 0.05",
    "train.dropout_rate = 0.2", "train.hidden_dim = 8", "train.seed = 2",
    "gates.from_f1_f2 = false", "labeling.n_init = 30", "labeling.threshold = 0.8", ""])
BLOBS_RUN_DIGESTS = {
    "metrics.csv": "0ceaf538e09ae1231b7a76d765aabfb4bfe9e3887c88cb595605d7bfadfe314b",
    "checkpoint.npz": "777132608b0a9ebc8d7a0cfde20582f02888cd770c710ae831b204498ecbdd0d",
}


# the benchmark config, two adaptation steps long: momentum SGD with both
# gates open, so the checkpoint holds the slots of f1, f2, f and ft in the
# order they first stepped
MOMENTUM_RUN_CFG = "\n".join([
    'data.generator = "two_moons"', "data.n_source = 500", "data.n_target = 500",
    "data.rotation_deg = 30", "data.noise_sigma = 0.1", "data.seed = 0",
    "train.steps_k = 2", "train.pretrain_iters = 1000", "train.iter_per_phase = 100",
    "train.batch_labeling = 64", "train.batch_target = 128", "train.lr = 0.05",
    "train.lambda = 0.01", "train.hidden_dim = 16", 'train.activation = "sigmoid"',
    "train.seed = 0", ""])
MOMENTUM_RUN_DIGESTS = {
    "metrics.csv": "321584e1d4e5db63278355c568127e52e8c2637035214400001e13f3bf347a2a",
    "checkpoint.npz": "ce123030f31a2c7510530bd6daca1aafd6ccfaa28a99c3d45751a4479bb596f3",
}


# a run in which ft never steps: no pretraining batch, and a threshold no
# pseudo label reaches, so every target phase is skipped
NO_TARGET_STEP_CFG = "\n".join([
    'data.generator = "two_moons"', "data.n_source = 120", "data.n_target = 120",
    "data.rotation_deg = 30", "data.noise_sigma = 0.1", "data.seed = 1",
    "train.steps_k = 3", "train.pretrain_iters = 0", "train.iter_per_phase = 10",
    "train.batch_labeling = 32", "train.batch_target = 16", "train.lr = 0.05",
    "train.use_bn = false", "train.hidden_dim = 8", "train.seed = 1",
    "labeling.n_init = 60", "labeling.threshold = 0.99", ""])
NO_TARGET_STEP_DIGESTS = {
    "metrics.csv": "0b5f77c20cabd565034e6c84488213f4c30036498f40d3c4ab8f4e9f4895babd",
    "checkpoint.npz": "772c89f556cf3a76d9eed771a6dfb5dd1d4ad36f28adea6610e73a1c01dab84f",
}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _train(tmp_path, cfg_text) -> Path:
    """The output directory of a `train` call on `cfg_text`."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "o"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    return out


def test_benchmark_metrics_bytes_are_pinned(benchmark_runs, tmp_path):
    digests = []
    for r in benchmark_runs:
        path = tmp_path / f"metrics_{r['seed']}.csv"
        trainer.write_metrics_csv(r["hist"], path)
        digests.append(_sha256(path))
    # BLAS and numpy releases can move float bits, so name the arithmetic host
    assert tuple(digests) == BENCHMARK_METRICS_DIGESTS, arithmetic_host()


def test_benchmark_accuracy_columns_are_pinned(benchmark_runs):
    digests = []
    for r in benchmark_runs:
        rows = [[getattr(m, c) for c in ACCURACY_COLUMNS] for m in r["hist"]]
        digests.append(hashlib.sha256(repr(rows).encode()).hexdigest())
    moved = [seed for seed, (a, b) in enumerate(zip(digests, BENCHMARK_ACCURACY_DIGESTS))
             if a != b]
    assert not moved, f"accuracy columns moved on seeds {moved}, {arithmetic_host()}"


def test_short_run_bytes_are_pinned(tmp_path):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(SHORT_RUN_CFG)
    out = tmp_path / "o"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    digests = {name: _sha256(out / name) for name in SHORT_RUN_DIGESTS}
    assert digests == SHORT_RUN_DIGESTS, arithmetic_host()


def test_short_run_without_batch_norm_bytes_are_pinned(tmp_path):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(SHORT_RUN_CFG + "train.use_bn = false\n")
    out = tmp_path / "o"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    digests = {name: _sha256(out / name) for name in SHORT_RUN_NO_BN_DIGESTS}
    assert digests == SHORT_RUN_NO_BN_DIGESTS, arithmetic_host()


def test_blobs_run_bytes_are_pinned(tmp_path):
    cfg = tmp_path / "blobs.cfg"
    cfg.write_text(BLOBS_RUN_CFG)
    out = tmp_path / "o"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    sizes = [m.n_pseudo for m in trainer.read_metrics_csv(out / "metrics.csv")]
    assert sizes == [21, 6, 12, 16, 19]
    digests = {name: _sha256(out / name) for name in BLOBS_RUN_DIGESTS}
    assert digests == BLOBS_RUN_DIGESTS, arithmetic_host()


def test_momentum_run_bytes_are_pinned(tmp_path):
    out = _train(tmp_path, MOMENTUM_RUN_CFG)
    with np.load(out / "checkpoint.npz") as z:
        slots = [k for k in z.files if k.startswith("opt/")]
    assert slots == [f"opt/main/slot/{n}" for n in ("f1", "f2", "f", "ft")]
    digests = {name: _sha256(out / name) for name in MOMENTUM_RUN_DIGESTS}
    assert digests == MOMENTUM_RUN_DIGESTS, arithmetic_host()


def test_run_in_which_ft_never_steps_writes_no_ft_slot_and_is_pinned(tmp_path):
    out = _train(tmp_path, NO_TARGET_STEP_CFG)
    sizes = [m.n_pseudo for m in trainer.read_metrics_csv(out / "metrics.csv")]
    assert max(sizes) < 2
    with np.load(out / "checkpoint.npz") as z:
        slots = [k for k in z.files if k.startswith("opt/")]
    assert slots == [f"opt/main/slot/{n}" for n in ("f1", "f2", "f")]
    digests = {name: _sha256(out / name) for name in NO_TARGET_STEP_DIGESTS}
    assert digests == NO_TARGET_STEP_DIGESTS, arithmetic_host()


# ---------------------------------------------------------------------------
# criterion 8 (optional): sparse review-corpus benchmark


def test_acceptance_reviews_benchmark():
    books = REPO_ROOT / "data" / "amazon" / "books.txt"
    dvd = REPO_ROOT / "data" / "amazon" / "dvd.txt"
    if not (books.exists() and dvd.exists()):
        record_acceptance("review-corpus benchmark (optional)", None,
                          "data/amazon/{books,dvd}.txt not present")
        pytest.skip("review corpus not available")
    sx, sy = datagen.load_sparse_bow(books, dim=5000, num_classes=2)
    tx, ty = datagen.load_sparse_bow(dvd, dim=5000, num_classes=2)
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
