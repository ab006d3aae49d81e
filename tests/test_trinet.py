import copy
import re
import zipfile

import numpy as np
import pytest

from tritrain import datagen, nnlib, trainer
from tritrain.labeler import LabelingConfig
from tritrain.nnlib import ConfigError, MomentumSGD, sigmoid, softmax
from tritrain.trainer import (TrainConfig, checkpoint_arrays, init_state, load_state, run,
                              save_state)
from tritrain.trinet import GradientGates, TriNet, divergence_buffers, weight_divergence

from conftest import (MALFORMED_CHECKPOINTS, UNKNOWN_ARRAYS, UNTRAINED_ARRAYS, affine,
                      cross_entropy, finite_difference_gradient, named, rel_err,
                      rewrite_checkpoint, train_pass)


def small_net(lam=0.01, gates=None, seed=0, use_bn=True):
    return TriNet(3, num_classes=3, hidden_dim=4, use_bn=use_bn, lam=lam, gates=gates,
                  seed=seed)


# each objective's phase
PHASE = {"joint": "labeling", "target": "target"}


def _objective(net, kind, x, y, seed, ws=None):
    """The joint or target objective on (x, y), with the dropout masks of
    generator `seed`, in `ws` or a fresh workspace for its rows: (loss,
    penalty or None)."""
    rng = np.random.default_rng(seed)
    if ws is None:
        ws = net.workspace(PHASE[kind], len(x))
    if kind == "joint":
        return net.joint_labeling_loss(x, y, ws, rng=rng)
    return net.target_loss(x, y, ws, rng=rng), None


# ---------------------------------------------------------------------------
# forward


def test_forward_probs_rows_sum_to_one():
    net = small_net()
    x = np.random.default_rng(0).normal(size=(10, 3))
    train_pass(net.f, x)  # populate BN
    probs = net.forward(x)
    assert probs.shape == (len(TriNet.BRANCHES), 10, 3)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)


@pytest.mark.parametrize("use_bn", [False, True])
def test_forward_equals_per_head_pass(use_bn):
    # oracle: the extractor run again for each head, its (features, batch)
    # columns stacked on a row of ones, and the head as one 2-D matmul of
    # its arena part read as W on b, then softmax; each head's (n, k) slice
    # is that result transposed
    net = small_net(seed=4, use_bn=use_bn)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(12, 3))
    for Wb in net.Wb.values():
        Wb[-1] = rng.normal(size=3)
    train_pass(net.f, x)  # populate BN
    probs = net.forward(x)
    assert probs.shape == (len(TriNet.BRANCHES), 12, 3)
    for i, head in enumerate(TriNet.BRANCHES):
        h = np.vstack([net.f.eval(x)[:-1], np.ones((1, 12))])
        Wb = net.theta[net.spans[head]].reshape(5, 3)
        ref = softmax(Wb.T @ h)
        assert probs[i].tobytes() == ref.T.tobytes()


@pytest.mark.parametrize("activation, dropout_rate", [("sigmoid", 0.0), ("relu", 0.2)])
def test_eval_forward_keeps_no_array_of_its_batch(activation, dropout_rate):
    # a training batch first, whose cache the extractor may keep; then an
    # eval set of another size, of which it must keep nothing
    net = TriNet(3, num_classes=3, hidden_dim=4, activation=activation,
                 dropout_rate=dropout_rate, seed=0)
    rng = np.random.default_rng(6)
    _objective(net, "joint", rng.normal(size=(8, 3)), rng.integers(0, 3, 8), seed=0)
    x = rng.normal(size=(37, 3))
    net.forward(x)
    net.features(x)
    held = []
    for value in vars(net.f).values():
        held += value if isinstance(value, tuple) else [value]
    for a in held:
        if isinstance(a, np.ndarray):
            assert not np.shares_memory(a, x) and 37 not in a.shape, a.shape


def test_eval_forward_is_deterministic():
    net = small_net()
    x = np.random.default_rng(2).normal(size=(8, 3))
    train_pass(net.f, x)  # populate BN
    np.testing.assert_array_equal(net.forward(x), net.forward(x))


def test_forward_reduces_to_logistic_regression():
    # identity weights without batch norm + hand-set 2-class head =
    # closed-form logistic regression on the sigmoid features
    net = TriNet(2, num_classes=2, hidden_dim=2, use_bn=False, lam=0.0, seed=0)
    net.f.W[...] = np.eye(2)
    net.f.b[...] = np.zeros((1, 2))
    w = np.array([0.7, -1.3])
    net.Wb["f1"][:-1] = np.column_stack([np.zeros(2), w])
    net.Wb["f1"][-1] = 0.0
    x = np.random.default_rng(3).normal(size=(20, 2))
    np.testing.assert_allclose(net.forward(x)[0, :, 1], sigmoid(sigmoid(x) @ w), atol=1e-12)


def test_branches_initialized_differently():
    net = small_net()
    w1, w2, wt = (net.Wb[h][:-1] for h in TriNet.BRANCHES)
    assert not np.array_equal(w1, w2)
    assert not np.array_equal(w1, wt)


def test_each_head_row_starts_from_its_own_seed_stream():
    # head i's W is the glorot draw of spawn key (i + 1,), with a zero
    # bias, as a lone affine layer of its own would start; the arena holds
    # f1, f2, f and ft in that order, f with W (3, 4), b, gamma and beta
    net = small_net(seed=7)
    streams = np.random.SeedSequence(7).spawn(4)[1:]
    for head, s in zip(TriNet.BRANCHES, streams):
        np.testing.assert_array_equal(
            net.Wb[head][:-1], nnlib.glorot_uniform(np.random.default_rng(s), 4, 3))
        assert not net.Wb[head][-1].any()
    assert [(n, s.stop - s.start) for n, s in net.spans.items()] == [
        ("f1", 15), ("f2", 15), ("f", 24), ("ft", 15)]
    assert net.theta.shape == net.grad.shape == (69,)


# ---------------------------------------------------------------------------
# weight divergence penalty


def divergence(W1, W2):
    """`weight_divergence` of W1 and W2 in buffers of its own that their
    constructor builds."""
    return weight_divergence(divergence_buffers(W1, W2))


def test_weight_divergence_orthogonal_and_zero():
    w1 = np.eye(2)
    w2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    value, _ = divergence(w1, w2)
    assert value == pytest.approx(2.0)
    value, _ = divergence(w1, np.zeros((2, 2)))
    assert value == 0.0


def test_weight_divergence_identity():
    for d in (2, 5, 9):
        value, _ = divergence(np.eye(d), np.eye(d))
        assert value == pytest.approx(float(d))


def test_weight_divergence_symmetry_and_permutation_invariance():
    rng = np.random.default_rng(4)
    w1, w2 = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    v12, (g1, g2) = divergence(w1, w2)
    v21, (h2, h1) = divergence(w2, w1)
    assert v12 == pytest.approx(v21)
    np.testing.assert_allclose(g1, h1)
    perm = rng.permutation(3)
    vp, _ = divergence(w1[:, perm], w2[:, perm])
    assert vp == pytest.approx(v12)


def test_weight_divergence_diagonal_lower_bound():
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = rng.normal(size=(4, 3))
        value, _ = divergence(w, w)
        assert value >= (w ** 2).sum() - 1e-12
        assert value > 0


def test_weight_divergence_grads_match_brute_force_and_fd():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        w1 = rng.normal(size=(3, 2)) + 0.5 * np.sign(rng.normal(size=(3, 2)))
        w2 = rng.normal(size=(3, 2)) + 0.5 * np.sign(rng.normal(size=(3, 2)))
        value, (g1, g2) = divergence(w1, w2)
        # independent entrywise recomputation
        brute = sum(abs(sum(w1[a, i] * w2[a, j] for a in range(3)))
                    for i in range(2) for j in range(2))
        assert value == pytest.approx(brute)
        num1 = finite_difference_gradient(lambda w: divergence(w, w2)[0], w1.copy())
        num2 = finite_difference_gradient(lambda w: divergence(w1, w)[0], w2.copy())
        assert rel_err(g1, num1) < 1e-4
        assert rel_err(g2, num2) < 1e-4


def test_weight_divergence_shape_mismatch():
    from tritrain.nnlib import ShapeError
    with pytest.raises(ShapeError):
        divergence(np.zeros((2, 2)), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# joint labeling loss


def test_joint_loss_lambda_zero_is_sum_of_cross_entropies():
    net = small_net(lam=0.0)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(8, 3))
    y = rng.integers(0, 3, size=8)
    total, _ = _objective(net, "joint", x, y, seed=0)
    h = train_pass(net.f, x).h
    ce1, ce2 = (cross_entropy(affine(h, net.Wb[n][:-1], net.Wb[n][-1:]), y)[0]
                for n in ("f1", "f2"))
    assert total == pytest.approx(ce1 + ce2, rel=1e-9)


def test_joint_loss_lambda_scales_penalty():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(8, 3))
    y = rng.integers(0, 3, size=8)
    net0 = small_net(lam=0.0, seed=3)
    net1 = small_net(lam=0.01, seed=3)
    e0, penalty0 = _objective(net0, "joint", x, y, seed=0)
    e1, penalty1 = _objective(net1, "joint", x, y, seed=0)
    assert penalty0 == pytest.approx(penalty1)
    assert e1 == pytest.approx(e0 + 0.01 * penalty1, rel=1e-9)


def test_nan_lambda_is_refused_by_name():
    # `lam < 0` let NaN through, to a NaN loss and NaN gradients
    with pytest.raises(ConfigError, match="lambda"):
        TriNet(2, 2, hidden_dim=4, lam=float("nan"))


def _loss_with_param(net, x, y, kind, name, arr, ws=None):
    """Loss evaluated with one named parameter temporarily replaced, with
    the dropout masks of `_objective`'s generator 0, in `ws` if given."""
    param = named(net)[name]
    saved = param.copy()
    param[...] = arr
    try:
        return _objective(net, kind, x, y, seed=0, ws=ws)[0]
    finally:
        param[...] = saved


@pytest.mark.parametrize("use_bn", [False, True])
def test_joint_loss_full_gradient_matches_fd(use_bn):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        net = small_net(lam=0.05, seed=seed, use_bn=use_bn)
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 3, size=6)
        _objective(net, "joint", x, y, seed=0)
        grads = {k: v.copy() for k, v in named(net, "grads").items()}
        params = named(net)
        for name, p in params.items():
            if name.startswith("ft/"):
                continue
            num = finite_difference_gradient(
                lambda v, n=name: _loss_with_param(net, x, y, "joint", n, v), p.copy())
            assert rel_err(grads[name], num) < 1e-4, name


def test_target_loss_gradient_matches_fd():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        net = small_net(lam=0.0, seed=seed)
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 3, size=6)
        _objective(net, "target", x, y, seed=0)
        grads = {k: v.copy() for k, v in named(net, "grads").items()}
        for name, p in named(net).items():
            if name.startswith(("f1/", "f2/")):
                continue
            num = finite_difference_gradient(
                lambda v, n=name: _loss_with_param(net, x, y, "target", n, v), p.copy())
            assert rel_err(grads[name], num) < 1e-4, name


def test_target_loss_perfect_prediction():
    net = small_net(seed=9)
    # drive the true class logit sky-high
    net.Wb["ft"][-1] = [1000.0, 0.0, 0.0]
    net.Wb["ft"][:-1] = 0.0
    loss, _ = _objective(net, "target", np.random.default_rng(8).normal(size=(4, 3)),
                         np.zeros(4, dtype=np.int64), seed=0)
    assert loss == pytest.approx(0.0, abs=1e-9)


# extractors with and without batch norm, and relu with dropout
WRITING_EXTRACTORS = {"sigmoid": {"use_bn": False}, "sigmoid_bn": {"use_bn": True},
              "relu_dropout_bn": {"activation": "relu", "dropout_rate": 0.2}}


@pytest.mark.parametrize("extractor", WRITING_EXTRACTORS)
@pytest.mark.parametrize("objective", ["joint", "target"])
def test_objective_writes_its_gradients_not_adds_to_them(objective, extractor):
    # a second call on another batch of the same size, in the same
    # workspace, leaves every gradient its phase steps as a fresh net's one
    # call on that batch does, from the same seed and rng state
    rng = np.random.default_rng(21)
    first, second = ((rng.normal(size=(8, 3)), rng.integers(0, 3, size=8)) for _ in range(2))
    twice, once = (TriNet(3, num_classes=3, hidden_dim=4, lam=0.05, seed=2,
                          **WRITING_EXTRACTORS[extractor]) for _ in range(2))
    ws = twice.workspace(PHASE[objective], 8)
    _objective(twice, objective, *first, seed=0, ws=ws)
    _objective(twice, objective, *second, seed=1, ws=ws)
    _objective(once, objective, *second, seed=1)
    _, span = twice.span(PHASE[objective])
    assert twice.grad[span].tobytes() == once.grad[span].tobytes()
    assert twice.f.grad.tobytes() == once.f.grad.tobytes()


@pytest.mark.parametrize("extractor", ["sigmoid_bn", "relu_dropout_bn"])
def test_target_phase_f_gradient_is_the_2d_product_of_its_head(extractor):
    # the target head alone runs the stacked (1, d, k) @ (1, k, n) product
    # into f's dout; its reference is the 2-D W[0] @ dz[0] into that buffer,
    # and f's backward from it, on a twin net at the same dropout draws
    def make():
        return TriNet(3, num_classes=3, hidden_dim=4, seed=5, **WRITING_EXTRACTORS[extractor])

    rng = np.random.default_rng(41)
    x, y = rng.normal(size=(8, 3)), rng.integers(0, 3, size=8)
    net, twin = make(), make()
    incoming, backward = [], net.f.backward
    net.f.backward = lambda ws: (incoming.append(ws.dout.copy()), backward(ws))
    net_ws = net.workspace("target", 8)
    net.target_loss(x, y, net_ws, rng=np.random.default_rng(0))
    dz = net_ws.ce.grad
    ws = twin.f.workspace(8)
    twin.f.forward(x, ws, np.random.default_rng(0))
    np.matmul(twin.Wb["ft"][:-1], dz[0], out=ws.dout)
    assert len(incoming) == 1 and incoming[0].tobytes() == ws.dout.tobytes()
    twin.f.backward(ws)
    assert net.f.grad.tobytes() == twin.f.grad.tobytes()


# ---------------------------------------------------------------------------
# the objectives' workspace


@pytest.mark.parametrize("extractor", WRITING_EXTRACTORS)
def test_training_batches_leave_every_attribute_of_the_extractor_bound_as_it_was(extractor):
    # a batch's buffers, its columns and its dropout mask live in the phase
    # workspace alone; an extractor that cached them by batch size was a
    # second owner of one batch's state
    net = TriNet(3, num_classes=3, hidden_dim=4, lam=0.05, seed=2,
                 **WRITING_EXTRACTORS[extractor])
    before = dict(vars(net.f))
    rng = np.random.default_rng(22)
    for i, kind in enumerate(("joint", "target")):
        _objective(net, kind, rng.normal(size=(8, 3)), rng.integers(0, 3, size=8), seed=i)
    after = vars(net.f)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


@pytest.mark.parametrize("kind", ["joint", "target"])
def test_returned_arrays_keep_their_values_after_the_next_call(kind):
    # what a caller receives is its own; only f's train-mode output is the
    # one array the next batch in that workspace overwrites, as its
    # docstring says
    net = TriNet(3, num_classes=3, hidden_dim=4, dropout_rate=0.2, seed=3)
    rng = np.random.default_rng(31)
    batches = [(rng.normal(size=(64, 3)), rng.integers(0, 3, size=64)) for _ in range(2)]
    phase_ws = net.workspace(PHASE[kind], 64)
    first = _objective(net, kind, *batches[0], seed=1, ws=phase_ws)
    kept = copy.deepcopy(first)
    probs = net.forward(batches[0][0])
    kept_probs = probs.copy()
    _, grads = divergence(net.Wb["f1"][:-1], net.Wb["f2"][:-1])
    kept_grads = grads.copy()
    _objective(net, kind, *batches[1], seed=2, ws=phase_ws)
    net.forward(batches[1][0])
    divergence(net.Wb["f2"][:-1], net.Wb["ft"][:-1])
    assert first == kept
    assert probs.tobytes() == kept_probs.tobytes()
    assert grads.tobytes() == kept_grads.tobytes()
    ws = net.f.workspace(64)
    out = net.f.forward(batches[0][0], ws, rng)
    assert out is net.f.forward(batches[1][0], ws, rng)


@pytest.mark.parametrize("extractor", WRITING_EXTRACTORS)
def test_objectives_at_changing_batch_sizes_equal_fresh_nets(extractor):
    # batch sizes 64, 128, 64 through each objective in turn, each size in
    # one workspace of its phase made once, so the one for 64 rows serves
    # again after the one for 128 did; every call gives the loss and
    # gradients of a fresh net's single call
    rng = np.random.default_rng(32)
    calls = [(kind, rng.normal(size=(n, 3)), rng.integers(0, 3, size=n))
             for kind in ("joint", "target") for n in (64, 128, 64)]

    def make():
        return TriNet(3, num_classes=3, hidden_dim=4, lam=0.05, seed=4,
                      **WRITING_EXTRACTORS[extractor])

    net = make()
    spaces = {(kind, n): net.workspace(PHASE[kind], n) for kind in PHASE for n in (64, 128)}
    for i, (kind, x, y) in enumerate(calls):
        fresh = make()
        assert (_objective(net, kind, x, y, seed=i, ws=spaces[kind, len(x)])
                == _objective(fresh, kind, x, y, seed=i))
        _, span = net.span(PHASE[kind])
        assert net.grad[span].tobytes() == fresh.grad[span].tobytes()
        assert net.f.grad.tobytes() == fresh.f.grad.tobytes()


# a batch that must be refused by name after the workspace for its size
# exists: (error, message pattern, edit of the good batch's (x, y))
BAD_BATCHES = {
    "label_of_k": (ValueError, "labels must lie", lambda x, y: (x, np.append(y[:-1], 3))),
    "negative_label": (ValueError, "labels must lie", lambda x, y: (x, np.append(y[:-1], -1))),
    "one_label_short": (nnlib.ShapeError, "labels", lambda x, y: (x, y[:-1])),
    "int32_labels": (nnlib.ShapeError, "labels int32", lambda x, y: (x, y.astype(np.int32))),
    "x_one_column_wide": (nnlib.ShapeError, "affine", lambda x, y: (np.hstack([x, x[:, :1]]), y)),
}


@pytest.mark.parametrize("bad", BAD_BATCHES)
@pytest.mark.parametrize("kind", ["joint", "target"])
def test_a_bad_batch_raises_and_leaves_the_net_untouched(kind, bad):
    # the labels are checked before f's pass, which moves batch norm's
    # running statistics and count; nothing writes a gradient either
    net = small_net(seed=6)
    rng = np.random.default_rng(34)
    x, y = rng.normal(size=(8, 3)), rng.integers(0, 3, size=8)
    ws = net.workspace(PHASE[kind], 8)
    _objective(net, kind, x, y, seed=0, ws=ws)
    f = net.f
    kept = [a.copy() for a in (f.running, f.count, net.grad, net.theta)]
    error, pattern, edit = BAD_BATCHES[bad]
    with pytest.raises(error, match=pattern):
        _objective(net, kind, *edit(rng.normal(size=(8, 3)), rng.integers(0, 3, size=8)),
                   seed=1, ws=ws)
    for before, after in zip(kept, (f.running, f.count, net.grad, net.theta)):
        assert before.tobytes() == after.tobytes()


@pytest.mark.parametrize("wrong", ["phase", "size"])
@pytest.mark.parametrize("kind", ["joint", "target"])
def test_a_workspace_of_another_phase_or_size_is_refused_by_name(kind, wrong):
    # refused before f's pass moves batch norm's running statistics and
    # count, and before any gradient is written
    net = small_net(seed=6)
    rng = np.random.default_rng(35)
    x, y = rng.normal(size=(8, 3)), rng.integers(0, 3, size=8)
    _objective(net, kind, x, y, seed=0)
    f = net.f
    kept = [a.copy() for a in (f.running, f.count, net.grad, net.theta)]
    other = {"labeling": "target", "target": "labeling"}[PHASE[kind]]
    phase, n = (other, 8) if wrong == "phase" else (PHASE[kind], 9)
    with pytest.raises(nnlib.ShapeError,
                       match=f"^a {phase} workspace of {n} rows for a {PHASE[kind]} batch of 8$"):
        _objective(net, kind, x, y, seed=1, ws=net.workspace(phase, n))
    for before, after in zip(kept, (f.running, f.count, net.grad, net.theta)):
        assert before.tobytes() == after.tobytes()


def trained_net(**extractor):
    """The net of a short moons run, with 4 hidden units and batch norm,
    and the extractor the `TrainConfig` fields `extractor` give, after
    pretraining and two adaptation steps."""
    ds = datagen.generate(datagen.ShiftSpec(generator="two_moons", n_source=80, n_target=80,
                                            rotation_deg=30, noise_sigma=0.1, seed=5))
    cfg = TrainConfig(steps_k=2, pretrain_iters=200, iter_per_phase=50, batch_labeling=16,
                      batch_target=16, lr=0.1, hidden_dim=4, seed=5,
                      labeling=LabelingConfig(n_init=40), **extractor)
    _, state = run(ds.source_x, ds.source_y, ds.target_x, cfg)
    return state.net


@pytest.mark.parametrize("kind", ["joint", "target"])
def test_gradients_match_fd_at_a_trained_state(kind):
    # at init the heads' b and f's beta are 0, gamma is 1 and the running
    # statistics are 0 and 1, so a gradient that drops or swaps one of them
    # can pass there; after training none of them is near its init value.
    # Both the sigmoid extractor and the acceptance suite's relu with
    # dropout are checked, dropout with the masks of `_objective`'s seed 0
    for extractor in ({}, {"activation": "relu", "dropout_rate": 0.2}):
        net = trained_net(**extractor)
        f = net.f
        heads_b = np.array([Wb[-1] for Wb in net.Wb.values()])
        for a, init in ((heads_b, 0.0), (f.gamma, 1.0), (f.beta, 0.0), (f.running[0], 0.0),
                        (f.running[1], 1.0)):
            assert np.abs(a - init).max() > 0.05, extractor
        rng = np.random.default_rng(33)
        x, y = rng.normal(size=(6, 2)), rng.integers(0, 2, size=6)
        # a call at another batch size first, and the checked calls all in
        # one workspace rather than each in a fresh one
        _objective(net, kind, rng.normal(size=(9, 2)), rng.integers(0, 2, size=9), seed=0)
        ws = net.workspace(PHASE[kind], 6)
        _objective(net, kind, x, y, seed=0, ws=ws)
        grads = {k: v.copy() for k, v in named(net, "grads").items()}
        skip = ("ft/",) if kind == "joint" else ("f1/", "f2/")
        for name, p in named(net).items():
            if name.startswith(skip):
                continue
            num = finite_difference_gradient(
                lambda v, n=name: _loss_with_param(net, x, y, kind, n, v, ws), p.copy())
            assert rel_err(grads[name], num) < 1e-4, (extractor, name)


# ---------------------------------------------------------------------------
# gradient gates


def test_gates_require_one_open():
    with pytest.raises(ConfigError):
        GradientGates(from_f1_f2=False, from_ft=False)


def test_gate_blocks_shared_update_from_labeling_heads():
    net = small_net(gates=GradientGates(from_f1_f2=False, from_ft=True), seed=1)
    rng = np.random.default_rng(9)
    x, y = rng.normal(size=(8, 3)), rng.integers(0, 3, size=8)
    before = {k: v.copy() for k, v in named(net.f).items()}
    _objective(net, "joint", x, y, seed=0)
    # the whole arena, f's slice with it
    opt = MomentumSGD(lr=0.1)
    opt.step(opt.bind(net.theta, net.grad))
    for k, v in named(net.f).items():
        np.testing.assert_array_equal(v, before[k])


def test_gate_blocks_shared_update_from_target_head():
    net = small_net(gates=GradientGates(from_f1_f2=True, from_ft=False), seed=1)
    rng = np.random.default_rng(10)
    x, y = rng.normal(size=(8, 3)), rng.integers(0, 3, size=8)
    before = {k: v.copy() for k, v in named(net.f).items()}
    _objective(net, "target", x, y, seed=0)
    # the whole arena, f's slice with it
    opt = MomentumSGD(lr=0.1)
    opt.step(opt.bind(net.theta, net.grad))
    for k, v in named(net.f).items():
        np.testing.assert_array_equal(v, before[k])


# ---------------------------------------------------------------------------
# descent sanity and checkpointing


def test_training_decreases_joint_loss():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        net = small_net(lam=0.01, seed=seed, use_bn=False)
        x = rng.normal(size=(16, 3))
        y = rng.integers(0, 3, size=16)
        ws = net.workspace("labeling", 16)
        e0, _ = net.joint_labeling_loss(x, y, ws)
        opt = MomentumSGD(lr=1e-3, momentum=0.0)
        opt.step(opt.bind(net.theta, net.grad))
        e1, _ = net.joint_labeling_loss(x, y, ws)
        assert e1 < e0


def stepped_state(seed=6, lam=0.01, optimizer="momentum_sgd", **extractor):
    """A training state whose net is `small_net(lam, seed=seed)`, or the
    extractor the `TrainConfig` fields `extractor` give, after a labeling
    phase of one batch, which steps f1, f2 and f (so BN statistics and slots
    are set)."""
    state = init_state(TrainConfig(hidden_dim=4, lam=lam, seed=seed, optimizer=optimizer,
                                   **extractor), 3, 3)
    rng = np.random.default_rng(12)
    trainer._phase(state, "labeling", rng.normal(size=(8, 3)), rng.integers(0, 3, size=8), 1,
                   "test")
    return state


def saved_state(tmp_path):
    state = stepped_state()
    path = tmp_path / "ckpt.npz"
    save_state(path, state)
    return state, path


def test_checkpoint_round_trip(tmp_path):
    state = stepped_state(seed=5, lam=0.02)
    state.opt.lr, state.step = 0.005, 7  # lr as after lr_decay_step
    state.rng_train.random(3)
    path = tmp_path / "ckpt.npz"
    save_state(path, state)
    back = load_state(path)
    assert back.cfg == state.cfg and back.net.lam == 0.02
    a, b = checkpoint_arrays(state), checkpoint_arrays(back)
    assert list(a) == list(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])
    assert back.opt.lr == 0.005 and back.step == 7
    assert back.rng_train.bit_generator.state == state.rng_train.bit_generator.state
    assert back.rng_label.bit_generator.state == state.rng_label.bit_generator.state
    x = np.random.default_rng(11).normal(size=(8, 3))
    np.testing.assert_array_equal(state.net.forward(x), back.net.forward(x))


def npz_members(path) -> dict[str, bytes]:
    """The bytes of each array file in a checkpoint; the zip's own
    timestamps are left out."""
    with zipfile.ZipFile(path) as z:
        return {name: z.read(name) for name in z.namelist()}


def test_running_statistics_round_trip_byte_identical_and_stay_live(tmp_path):
    # batch norm updates its running mean and variance in place, as the rows
    # of one array; the checkpoint names views of those rows
    state, path = saved_state(tmp_path)
    back = load_state(path)
    save_state(tmp_path / "again.npz", back)
    assert npz_members(tmp_path / "again.npz") == npz_members(path)
    x = np.random.default_rng(13).normal(size=(8, 3))
    for s, name in ((state, "a.npz"), (back, "b.npz")):
        train_pass(s.net.f, x)
        save_state(tmp_path / name, s)
    later = npz_members(tmp_path / "a.npz")
    assert later == npz_members(tmp_path / "b.npz")
    moved = {k for k, v in later.items() if v != npz_members(path)[k]}
    assert moved == {f"state/f/2/running_{k}.npy" for k in ("mean", "var", "count")}


def test_corrupted_checkpoint_raises(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(IOError, match="bad.npz"):
        load_state(path)


def test_checkpoint_loads_into_arena_views_with_flat_slots(tmp_path):
    state, path = saved_state(tmp_path)
    with np.load(path) as z:
        assert {"opt/main/slot/f", "opt/main/slot/f1", "opt/main/slot/f2"} <= set(z.files)
    back = load_state(path)
    net = back.net
    np.testing.assert_array_equal(net.theta, state.net.theta)
    f = net.spans["f"]
    assert np.shares_memory(net.f.theta, net.theta[f])
    assert np.shares_memory(net.f.grad, net.grad[f])
    for k in ("W", "b", "gamma", "beta"):
        assert np.shares_memory(getattr(net.f, k), net.theta[f])
        assert np.shares_memory(getattr(net.f, "d" + k), net.grad[f])
    for head in TriNet.BRANCHES:
        assert np.shares_memory(net.Wb[head], net.theta[net.spans[head]])
        assert np.shares_memory(net.dWb[head], net.grad[net.spans[head]])
    arrays = checkpoint_arrays(back)
    for name, span in net.spans.items():
        if name != "f":
            for k in ("W", "b"):
                assert np.shares_memory(arrays[f"param/{name}/0/{k}"], net.theta[span])
        if name != "ft":
            assert np.shares_memory(arrays[f"opt/main/slot/{name}"], back.opt.slot[span])
    assert back.stepped == state.stepped == ["f1", "f2", "f"]
    np.testing.assert_array_equal(back.opt.slot, state.opt.slot)


def test_checkpoint_of_previous_version_is_rejected(tmp_path):
    _, path = saved_state(tmp_path)
    rewrite_checkpoint(path, lambda arrays, meta: meta.update(version=2))
    with pytest.raises(IOError, match="version"):
        load_state(path)


def test_checkpoint_missing_parameter_is_io_error(tmp_path):
    _, path = saved_state(tmp_path)
    rewrite_checkpoint(path, lambda arrays, meta: arrays.pop("param/f1/0/W"))
    with pytest.raises(IOError, match="param/f1/0/W"):
        load_state(path)


def _pop_and(key, edit):
    return lambda arrays, meta: (arrays.pop(key), edit(arrays, meta))


@pytest.mark.parametrize("edit, message", [
    (MALFORMED_CHECKPOINTS["huge_in_dim"], "array param/f/0/W shape"),
    (MALFORMED_CHECKPOINTS["huge_num_classes"], "array param/f1/0/W shape"),
    (MALFORMED_CHECKPOINTS["huge_hidden_dim"], "array param/f/0/W shape"),
    # without the stored weight there is nothing to size against
    (_pop_and("param/f/0/W", MALFORMED_CHECKPOINTS["huge_in_dim"]),
     "arrays missing ['param/f/0/W']"),
], ids=["in_dim", "num_classes", "hidden_dim", "in_dim_without_its_weight"])
def test_a_net_size_that_does_not_fit_the_stored_weights_names_the_key(tmp_path, edit,
                                                                         message):
    # checked before the net is built, so a size numpy cannot allocate
    # never reaches it
    _, path = saved_state(tmp_path)
    rewrite_checkpoint(path, edit)
    with pytest.raises(IOError, match=re.escape(message)):
        load_state(path)


@pytest.mark.parametrize("edit", [
    *MALFORMED_CHECKPOINTS.values(),
    lambda arrays, meta: meta.pop("rng_states"),
    lambda arrays, meta: meta["config"].pop("lr"),
    lambda arrays, meta: meta["config"]["labeling"].update(threshold=2.0),
    lambda arrays, meta: arrays.update({"opt/main/slot/f1": np.zeros(3)}),
    lambda arrays, meta: arrays.update({"state/f/2/running_mean": np.zeros(5)}),
    # (4,) would broadcast into (1, 4)
    lambda arrays, meta: arrays.update({"param/f/0/b": np.zeros(4)}),
], ids=[*MALFORMED_CHECKPOINTS, "missing_rng_states", "missing_config_field",
        "rejected_config_value", "wrong_slot_shape", "wrong_state_shape",
        "wrong_param_shape"])
def test_malformed_checkpoint_is_io_error_naming_the_path(tmp_path, edit):
    _, path = saved_state(tmp_path)
    rewrite_checkpoint(path, edit)
    with pytest.raises(IOError, match="ckpt.npz"):
        load_state(path)


def test_checkpoint_with_unparsable_metadata_is_io_error(tmp_path):
    _, path = saved_state(tmp_path)
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    arrays["__meta__"] = np.frombuffer(b"{not json", dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(IOError, match="ckpt.npz"):
        load_state(path)


# each used to load: lr as float(value), step as int(value)
@pytest.mark.parametrize("key, value", [
    ("lr", -1.0), ("lr", 0), ("lr", float("nan")), ("lr", float("inf")), ("lr", True),
    ("step", -5), ("step", 2.5), ("step", 2.0), ("step", True)])
def test_checkpoint_lr_or_step_no_trained_run_writes_is_io_error_naming_it(tmp_path, key,
                                                                             value):
    _, path = saved_state(tmp_path)
    rewrite_checkpoint(path, lambda arrays, meta: meta.update({key: value}))
    with pytest.raises(IOError, match=f"ckpt.npz: {key} ") as exc:
        load_state(path)
    assert repr(value) in str(exc.value)


@pytest.mark.parametrize("name", UNTRAINED_ARRAYS)
def test_checkpoint_array_no_trained_net_holds_is_io_error_naming_it(tmp_path, name):
    _, path = saved_state(tmp_path)
    rewrite_checkpoint(path, MALFORMED_CHECKPOINTS[name])
    with pytest.raises(IOError, match=re.escape(UNTRAINED_ARRAYS[name][0])):
        load_state(path)


@pytest.mark.parametrize("key", UNKNOWN_ARRAYS)
def test_checkpoint_with_an_unknown_array_is_io_error_naming_it(tmp_path, key):
    _, path = saved_state(tmp_path)
    rewrite_checkpoint(path, lambda arrays, meta: arrays.update({key: np.zeros(4)}))
    with pytest.raises(IOError, match=re.escape(key)) as exc:
        load_state(path)
    assert "ckpt.npz" in str(exc.value)


# the version-3 layout of `stepped_state`: in_dim 3, hidden_dim 4, 3 classes,
# batch norm at layer 2 of f, and slots for the three networks that stepped
STEPPED_LAYOUT = sorted(
    [(f"param/f/0/{k}", "float64", s) for k, s in (("W", (3, 4)), ("b", (1, 4)))]
    + [(f"param/f/2/{k}", "float64", (1, 4)) for k in ("gamma", "beta")]
    + [(f"param/{n}/0/{k}", "float64", s) for n in TriNet.BRANCHES
       for k, s in (("W", (4, 3)), ("b", (1, 3)))]
    + [("state/f/2/running_mean", "float64", (4,)), ("state/f/2/running_var", "float64", (4,)),
       ("state/f/2/running_count", "int64", (1,))]
    + [("opt/main/slot/f", "float64", (24,)), ("opt/main/slot/f1", "float64", (15,)),
       ("opt/main/slot/f2", "float64", (15,))])




def extractor_layout(bn_at):
    """The version-3 layout of a `stepped_state`, in file order, with batch
    norm at layer `bn_at` of f, or without it for None."""
    bn = [] if bn_at is None else [bn_at]
    return ([("param/f/0/W", "float64", (3, 4)), ("param/f/0/b", "float64", (1, 4))]
            + [(f"param/f/{i}/{k}", "float64", (1, 4)) for i in bn for k in ("gamma", "beta")]
            + [(f"param/{n}/0/{k}", "float64", s) for n in TriNet.BRANCHES
               for k, s in (("W", (4, 3)), ("b", (1, 3)))]
            + [(f"state/f/{i}/running_{k}", t, s) for i in bn
               for k, t, s in (("mean", "float64", (4,)), ("var", "float64", (4,)),
                               ("count", "int64", (1,)))]
            + [("opt/main/slot/f1", "float64", (15,)), ("opt/main/slot/f2", "float64", (15,)),
               ("opt/main/slot/f", "float64", (24 if bn else 16,))])


# every extractor `build_net` makes: its TrainConfig fields, and the layer of
# f that batch norm sits at, after the activation and any dropout
EXTRACTORS = {
    "sigmoid": (dict(activation="sigmoid", dropout_rate=0.0, use_bn=False), None),
    "sigmoid-bn": (dict(activation="sigmoid", dropout_rate=0.0, use_bn=True), 2),
    "sigmoid-dropout": (dict(activation="sigmoid", dropout_rate=0.2, use_bn=False), None),
    "sigmoid-dropout-bn": (dict(activation="sigmoid", dropout_rate=0.2, use_bn=True), 3),
    "relu": (dict(activation="relu", dropout_rate=0.0, use_bn=False), None),
    "relu-bn": (dict(activation="relu", dropout_rate=0.0, use_bn=True), 2),
    "relu-dropout": (dict(activation="relu", dropout_rate=0.2, use_bn=False), None),
    "relu-dropout-bn": (dict(activation="relu", dropout_rate=0.2, use_bn=True), 3),
}


@pytest.mark.parametrize("optimizer, extractor, bn_at", [
    ("momentum_sgd", {}, 2), ("adagrad", {}, 2),
    *[("momentum_sgd", fields, bn_at) for fields, bn_at in EXTRACTORS.values()],
], ids=["momentum_sgd", "adagrad", *EXTRACTORS])
def test_checkpoint_layout_is_pinned(tmp_path, optimizer, extractor, bn_at):
    path = tmp_path / "ckpt.npz"
    save_state(path, stepped_state(optimizer=optimizer, **extractor))
    with np.load(path) as z:
        layout = [(k, str(z[k].dtype), z[k].shape) for k in z.files if k != "__meta__"]
        assert str(z["__meta__"].dtype) == "uint8"
    assert layout == extractor_layout(bn_at)
    if not extractor:
        assert sorted(layout) == STEPPED_LAYOUT


@pytest.mark.parametrize("optimizer", ["momentum_sgd", "adagrad"])
def test_saving_a_loaded_checkpoint_is_byte_identical(tmp_path, optimizer):
    path, again = tmp_path / "ckpt.npz", tmp_path / "again.npz"
    save_state(path, stepped_state(optimizer=optimizer))
    save_state(again, load_state(path))
    assert again.read_bytes() == path.read_bytes()
