import numpy as np
import pytest

from tritrain.nnlib import (ConfigError, LayerSpec, MomentumSGD,
                            finite_difference_gradient, sigmoid,
                            softmax_cross_entropy)
from tritrain.trainer import TrainConfig, init_state, load_state, save_state
from tritrain.trinet import BranchOutput, GradientGates, TriNet, weight_divergence

from conftest import MALFORMED_CHECKPOINTS, rel_err, rewrite_checkpoint


def small_net(lam=0.01, gates=None, seed=0, use_bn=True):
    f_specs = [LayerSpec("affine", 3, 4), LayerSpec("sigmoid", 4, 4)]
    if use_bn:
        f_specs.append(LayerSpec("batch_norm", 4, 4))
    return TriNet(f_specs, [LayerSpec("affine", 4, 3)], num_classes=3,
                  lam=lam, gates=gates, seed=seed)


# ---------------------------------------------------------------------------
# forward


def test_forward_probs_rows_sum_to_one():
    net = small_net()
    x = np.random.default_rng(0).normal(size=(10, 3))
    net.f.forward(x, mode="train")  # populate BN
    outs = net.forward(x)
    assert tuple(outs) == TriNet.BRANCHES
    for out in outs.values():
        np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_array_equal(
            out.max_prob, out.probs[np.arange(10), out.predicted_class])


@pytest.mark.parametrize("use_bn", [False, True])
def test_forward_equals_per_head_pass(use_bn):
    # oracle: the extractor run again for each head on its own
    net = small_net(seed=4, use_bn=use_bn)
    x = np.random.default_rng(5).normal(size=(12, 3))
    net.f.forward(x, mode="train")  # populate BN
    outs = net.forward(x)
    for b in TriNet.BRANCHES:
        ref = BranchOutput.from_logits(
            getattr(net, b).forward(net.f.forward(x, mode="eval"), mode="eval"))
        out = outs[b]
        assert (out.probs == ref.probs).all()
        assert (out.predicted_class == ref.predicted_class).all()
        assert (out.max_prob == ref.max_prob).all()


def test_eval_forward_is_deterministic():
    net = small_net()
    x = np.random.default_rng(2).normal(size=(8, 3))
    net.f.forward(x, mode="train")  # populate BN
    a = net.forward(x)["f1"]
    b = net.forward(x)["f1"]
    np.testing.assert_array_equal(a.probs, b.probs)


def test_forward_reduces_to_logistic_regression():
    # identity extractor + hand-set 2-class head = closed-form sigmoid
    net = TriNet([LayerSpec("affine", 2, 2)], [LayerSpec("affine", 2, 2)],
                 num_classes=2, lam=0.0, seed=0)
    f = net.f.layers[0]
    f.params["W"] = np.eye(2)
    f.params["b"] = np.zeros((1, 2))
    head = net.first_affine("f1")
    w = np.array([0.7, -1.3])
    head.params["W"] = np.column_stack([np.zeros(2), w])
    head.params["b"] = np.zeros((1, 2))
    x = np.random.default_rng(3).normal(size=(20, 2))
    out = net.forward(x)["f1"]
    np.testing.assert_allclose(out.probs[:, 1], sigmoid(x @ w), atol=1e-12)


def test_branches_initialized_differently():
    net = small_net()
    w1 = net.first_affine("f1").params["W"]
    w2 = net.first_affine("f2").params["W"]
    wt = net.first_affine("ft").params["W"]
    assert not np.array_equal(w1, w2)
    assert not np.array_equal(w1, wt)


def test_unknown_branch_rejected():
    with pytest.raises(ConfigError):
        small_net().branch("f3")


# ---------------------------------------------------------------------------
# weight divergence penalty


def test_weight_divergence_orthogonal_and_zero():
    w1 = np.eye(2)
    w2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    value, _, _ = weight_divergence(w1, w2)
    assert value == pytest.approx(2.0)
    value, _, _ = weight_divergence(w1, np.zeros((2, 2)))
    assert value == 0.0


def test_weight_divergence_identity():
    for d in (2, 5, 9):
        value, _, _ = weight_divergence(np.eye(d), np.eye(d))
        assert value == pytest.approx(float(d))


def test_weight_divergence_symmetry_and_permutation_invariance():
    rng = np.random.default_rng(4)
    w1, w2 = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    v12, g1, g2 = weight_divergence(w1, w2)
    v21, h2, h1 = weight_divergence(w2, w1)
    assert v12 == pytest.approx(v21)
    np.testing.assert_allclose(g1, h1)
    perm = rng.permutation(3)
    vp, _, _ = weight_divergence(w1[:, perm], w2[:, perm])
    assert vp == pytest.approx(v12)


def test_weight_divergence_diagonal_lower_bound():
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = rng.normal(size=(4, 3))
        value, _, _ = weight_divergence(w, w)
        assert value >= (w ** 2).sum() - 1e-12
        assert value > 0


def test_weight_divergence_grads_match_brute_force_and_fd():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        w1 = rng.normal(size=(3, 2)) + 0.5 * np.sign(rng.normal(size=(3, 2)))
        w2 = rng.normal(size=(3, 2)) + 0.5 * np.sign(rng.normal(size=(3, 2)))
        value, g1, g2 = weight_divergence(w1, w2)
        # independent entrywise recomputation
        brute = sum(abs(sum(w1[a, i] * w2[a, j] for a in range(3)))
                    for i in range(2) for j in range(2))
        assert value == pytest.approx(brute)
        num1 = finite_difference_gradient(lambda w: weight_divergence(w, w2)[0], w1.copy())
        num2 = finite_difference_gradient(lambda w: weight_divergence(w1, w)[0], w2.copy())
        assert rel_err(g1, num1) < 1e-4
        assert rel_err(g2, num2) < 1e-4


def test_weight_divergence_shape_mismatch():
    from tritrain.nnlib import ShapeError
    with pytest.raises(ShapeError):
        weight_divergence(np.zeros((2, 2)), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# joint labeling loss


def test_joint_loss_lambda_zero_is_sum_of_cross_entropies():
    net = small_net(lam=0.0)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(8, 3))
    y = rng.integers(0, 3, size=8)
    total, parts = net.joint_labeling_loss(x, y)
    h = net.f.forward(x, mode="train")
    ce1, _ = softmax_cross_entropy(net.f1.forward(h), y)
    ce2, _ = softmax_cross_entropy(net.f2.forward(h), y)
    assert total == pytest.approx(ce1 + ce2, rel=1e-9)


def test_joint_loss_lambda_scales_penalty():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(8, 3))
    y = rng.integers(0, 3, size=8)
    net0 = small_net(lam=0.0, seed=3)
    net1 = small_net(lam=0.01, seed=3)
    e0, parts0 = net0.joint_labeling_loss(x, y)
    e1, parts1 = net1.joint_labeling_loss(x, y)
    assert parts0["penalty"] == pytest.approx(parts1["penalty"])
    assert e1 == pytest.approx(e0 + 0.01 * parts1["penalty"], rel=1e-9)


def _loss_with_param(net, x, y, kind, name, arr):
    """Loss evaluated with one named parameter temporarily replaced."""
    param = net.named_params()[name]
    saved = param.copy()
    param[...] = arr
    try:
        if kind == "joint":
            val, _ = net.joint_labeling_loss(x, y)
        else:
            val = net.target_loss(x, y)
    finally:
        param[...] = saved
    return val


@pytest.mark.parametrize("use_bn", [False, True])
def test_joint_loss_full_gradient_matches_fd(use_bn):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        net = small_net(lam=0.05, seed=seed, use_bn=use_bn)
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 3, size=6)
        net.joint_labeling_loss(x, y)
        grads = {k: v.copy() for k, v in net.named("grads").items()}
        params = net.named_params()
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
        net.target_loss(x, y)
        grads = {k: v.copy() for k, v in net.named("grads").items()}
        for name, p in net.named_params().items():
            if name.startswith(("f1/", "f2/")):
                continue
            num = finite_difference_gradient(
                lambda v, n=name: _loss_with_param(net, x, y, "target", n, v), p.copy())
            assert rel_err(grads[name], num) < 1e-4, name


def test_target_loss_perfect_prediction():
    net = small_net(seed=9)
    head = net.first_affine("ft")
    # drive the true class logit sky-high
    head.params["b"] = np.array([[1000.0, 0.0, 0.0]])
    head.params["W"] = np.zeros((4, 3))
    loss = net.target_loss(np.random.default_rng(8).normal(size=(4, 3)),
                           np.zeros(4, dtype=np.int64))
    assert loss == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# gradient gates


def test_gates_require_one_open():
    with pytest.raises(ConfigError):
        GradientGates(from_f1_f2=False, from_ft=False)


def test_gate_blocks_shared_update_from_labeling_heads():
    net = small_net(gates=GradientGates(from_f1_f2=False, from_ft=True), seed=1)
    rng = np.random.default_rng(9)
    x, y = rng.normal(size=(8, 3)), rng.integers(0, 3, size=8)
    before = {k: v.copy() for k, v in net.f.named_params().items()}
    net.joint_labeling_loss(x, y)
    opt = MomentumSGD(lr=0.1)
    params = {**net.f1.named_params("f1/"), **net.f2.named_params("f2/"),
              **net.f.named_params("f/")}
    grads = {**net.f1.named("grads", "f1/"), **net.f2.named("grads", "f2/"),
             **net.f.named("grads", "f/")}
    opt.step(params, grads)
    for k, v in net.f.named_params().items():
        np.testing.assert_array_equal(v, before[k])


def test_gate_blocks_shared_update_from_target_head():
    net = small_net(gates=GradientGates(from_f1_f2=True, from_ft=False), seed=1)
    rng = np.random.default_rng(10)
    x, y = rng.normal(size=(8, 3)), rng.integers(0, 3, size=8)
    before = {k: v.copy() for k, v in net.f.named_params().items()}
    net.target_loss(x, y)
    opt = MomentumSGD(lr=0.1)
    params = {**net.ft.named_params("ft/"), **net.f.named_params("f/")}
    grads = {**net.ft.named("grads", "ft/"), **net.f.named("grads", "f/")}
    opt.step(params, grads)
    for k, v in net.f.named_params().items():
        np.testing.assert_array_equal(v, before[k])


# ---------------------------------------------------------------------------
# descent sanity and checkpointing


def test_training_decreases_joint_loss():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        net = small_net(lam=0.01, seed=seed, use_bn=False)
        x = rng.normal(size=(16, 3))
        y = rng.integers(0, 3, size=16)
        e0, _ = net.joint_labeling_loss(x, y)
        opt = MomentumSGD(lr=1e-3, momentum=0.0)
        opt.step(net.named_params(), net.named("grads"))
        e1, _ = net.joint_labeling_loss(x, y)
        assert e1 < e0


def stepped_state(seed=6, lam=0.01):
    """A training state whose net is `small_net(lam, seed=seed)`, after one
    joint-loss step on f1, f2 and f (so BN statistics and slots are set)."""
    state = init_state(TrainConfig(hidden_dim=4, lam=lam, seed=seed), 3, 3)
    net = state.net
    rng = np.random.default_rng(12)
    net.joint_labeling_loss(rng.normal(size=(8, 3)), rng.integers(0, 3, size=8))
    state.opt.step({"f1": net.f1.theta, "f2": net.f2.theta, "f": net.f.theta},
                   {"f1": net.f1.grad, "f2": net.f2.grad, "f": net.f.grad})
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
    for which in ("params", "state"):
        a, b = state.net.named(which), back.net.named(which)
        assert a.keys() == b.keys()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])
    a, b = state.opt.state_arrays(), back.opt.state_arrays()
    assert a.keys() == b.keys()
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])
    assert back.opt.lr == 0.005 and back.step == 7
    assert back.rng_train.bit_generator.state == state.rng_train.bit_generator.state
    assert back.rng_label.bit_generator.state == state.rng_label.bit_generator.state
    x = np.random.default_rng(11).normal(size=(8, 3))
    np.testing.assert_array_equal(state.net.forward(x)["ft"].probs,
                                  back.net.forward(x)["ft"].probs)


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
    for name in ("f",) + TriNet.BRANCHES:
        seq = getattr(back.net, name)
        np.testing.assert_array_equal(seq.theta, getattr(state.net, name).theta)
        for layer in seq.layers:
            for k in layer.params:
                assert np.shares_memory(layer.params[k], seq.theta)
                assert np.shares_memory(layer.grads[k], seq.grad)
    for k, v in state.opt.slots.items():
        np.testing.assert_array_equal(back.opt.slots[k], v)


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


@pytest.mark.parametrize("edit", [
    *MALFORMED_CHECKPOINTS.values(),
    lambda arrays, meta: meta.pop("rng_states"),
    lambda arrays, meta: meta["config"].pop("lr"),
    lambda arrays, meta: meta["config"]["labeling"].update(threshold=2.0),
    lambda arrays, meta: arrays.update({"opt/main/slot/f1": np.zeros(3)}),
    lambda arrays, meta: arrays.update({"state/f/2/running_mean": np.zeros(5)}),
], ids=[*MALFORMED_CHECKPOINTS, "missing_rng_states", "missing_config_field",
        "rejected_config_value", "wrong_slot_shape", "wrong_state_shape"])
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
