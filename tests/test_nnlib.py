import numpy as np
import pytest

from tritrain import nnlib
from tritrain.nnlib import (Adagrad, ConfigError, LayerSpec, MomentumSGD,
                            Sequential, ShapeError, StateError,
                            affine_backward, affine_forward,
                            batch_norm_backward, batch_norm_eval,
                            batch_norm_train, dropout_train,
                            finite_difference_gradient, sigmoid, softmax,
                            softmax_cross_entropy)

from conftest import rel_err


def fresh_stats(d):
    return {"mean": np.zeros(d), "var": np.ones(d), "count": 0}


# ---------------------------------------------------------------------------
# affine


def test_affine_identity():
    y = affine_forward(np.array([[1.0, 2.0]]), np.eye(2), np.zeros(2))
    np.testing.assert_array_equal(y, [[1.0, 2.0]])


def test_affine_zero_input_passes_bias():
    W = np.random.default_rng(0).normal(size=(2, 2))
    y = affine_forward(np.zeros((1, 2)), W, np.array([3.0, -1.0]))
    np.testing.assert_array_equal(y, [[3.0, -1.0]])


def test_affine_shape_mismatch():
    with pytest.raises(ShapeError):
        affine_forward(np.zeros((1, 3)), np.eye(2), np.zeros(2))


def test_affine_grad_matches_finite_differences():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 4))
    W = rng.normal(size=(4, 2))
    b = rng.normal(size=(1, 2))
    dout = np.ones((3, 2))
    _, dW, db = affine_backward(dout, x, W)
    num_W = finite_difference_gradient(lambda w: affine_forward(x, w, b).sum(), W.copy())
    num_b = finite_difference_gradient(lambda bb: affine_forward(x, W, bb).sum(), b.copy())
    assert rel_err(dW, num_W) < 1e-6
    assert rel_err(db, num_b) < 1e-6


def test_affine_grad_randomized_suite():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, din, dout_d = rng.integers(2, 7, size=3)
        x = rng.normal(size=(n, din))
        W = rng.normal(size=(din, dout_d))
        b = rng.normal(size=(1, dout_d))
        up = rng.normal(size=(n, dout_d))
        dx, dW, db = affine_backward(up, x, W)
        f = lambda w: (affine_forward(x, w, b) * up).sum()
        assert rel_err(dW, finite_difference_gradient(f, W.copy())) < 1e-4
        fx = lambda xx: (affine_forward(xx, W, b) * up).sum()
        assert rel_err(dx, finite_difference_gradient(fx, x.copy())) < 1e-4


# ---------------------------------------------------------------------------
# softmax cross-entropy


def test_uniform_logits_loss_is_log_k():
    loss, _ = softmax_cross_entropy(np.zeros((4, 10)), np.array([0, 3, 9, 5]))
    assert loss == pytest.approx(np.log(10), abs=1e-12)


def test_confident_correct_prediction():
    logits = np.zeros((1, 3))
    logits[0, 1] = 1000.0
    loss, grad = softmax_cross_entropy(logits, np.array([1]))
    assert loss == pytest.approx(0.0, abs=1e-9)
    assert np.abs(grad).max() < 1e-9


def test_label_out_of_range():
    with pytest.raises(ValueError):
        softmax_cross_entropy(np.zeros((1, 3)), np.array([3]))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    p = softmax(rng.normal(scale=10, size=(50, 7)))
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_ce_loss_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(10):
        logits = rng.normal(scale=5, size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        loss, _ = softmax_cross_entropy(logits, labels)
        assert loss >= 0.0


def test_ce_grad_matches_finite_differences():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(2, 3))
        labels = rng.integers(0, 3, size=2)
        _, grad = softmax_cross_entropy(logits, labels)
        num = finite_difference_gradient(
            lambda z: softmax_cross_entropy(z, labels)[0], logits.copy())
        assert rel_err(grad, num) < 1e-6


# ---------------------------------------------------------------------------
# batch norm


def test_bn_constant_column_maps_to_beta():
    x = np.full((5, 1), 7.0)
    y, _ = batch_norm_train(x, np.ones((1, 1)), np.full((1, 1), 5.0), 1e-5, fresh_stats(1))
    np.testing.assert_allclose(y, 5.0, atol=1e-9)


def test_bn_normalizes_columns():
    rng = np.random.default_rng(4)
    x = rng.normal(loc=3.0, scale=2.0, size=(64, 3))
    y, _ = batch_norm_train(x, np.ones((1, 3)), np.zeros((1, 3)), 1e-10, fresh_stats(3))
    assert np.abs(y.mean(axis=0)).max() < 1e-8
    assert np.abs(y.var(axis=0) - 1.0).max() < 1e-6


def test_bn_requires_batch_of_two():
    with pytest.raises(ValueError):
        batch_norm_train(np.ones((1, 2)), np.ones((1, 2)), np.zeros((1, 2)),
                         1e-5, fresh_stats(2))


def test_bn_grads_match_finite_differences():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(8, 3))
        gamma = rng.normal(size=(1, 3))
        beta = rng.normal(size=(1, 3))
        up = rng.normal(size=(8, 3))
        _, cache = batch_norm_train(x, gamma, beta, 1e-5, fresh_stats(3))
        dx, dgamma, dbeta = batch_norm_backward(up, cache)

        def loss(xx=None, g=None, b=None):
            out, _ = batch_norm_train(x if xx is None else xx,
                                      gamma if g is None else g,
                                      beta if b is None else b, 1e-5, fresh_stats(3))
            return (out * up).sum()

        assert rel_err(dx, finite_difference_gradient(lambda v: loss(xx=v), x.copy())) < 1e-5
        assert rel_err(dgamma, finite_difference_gradient(lambda v: loss(g=v), gamma.copy())) < 1e-5
        assert rel_err(dbeta, finite_difference_gradient(lambda v: loss(b=v), beta.copy())) < 1e-5


def test_bn_eval_at_running_mean_is_zero():
    stats = fresh_stats(2)
    rng = np.random.default_rng(5)
    batch_norm_train(rng.normal(size=(16, 2)), np.ones((1, 2)), np.zeros((1, 2)), 1e-5, stats)
    y = batch_norm_eval(stats["mean"].reshape(1, -1), np.ones((1, 2)), np.zeros((1, 2)),
                        stats, 1e-5)
    np.testing.assert_allclose(y, 0.0, atol=1e-12)


def test_bn_eval_gamma_zero_gives_beta():
    stats = fresh_stats(2)
    rng = np.random.default_rng(6)
    batch_norm_train(rng.normal(size=(16, 2)), np.ones((1, 2)), np.zeros((1, 2)), 1e-5, stats)
    y = batch_norm_eval(rng.normal(size=(4, 2)), np.zeros((1, 2)), np.full((1, 2), 2.5),
                        stats, 1e-5)
    np.testing.assert_allclose(y, 2.5, atol=1e-12)


def test_bn_eval_unpopulated_stats_raise():
    with pytest.raises(StateError):
        batch_norm_eval(np.zeros((2, 2)), np.ones((1, 2)), np.zeros((1, 2)),
                        fresh_stats(2), 1e-5)


def test_bn_eval_centering_converges_monte_carlo():
    # many seeded batches from a fixed distribution: eval output mean -> 0
    stats = fresh_stats(2)
    rng = np.random.default_rng(7)
    gamma, beta = np.ones((1, 2)), np.zeros((1, 2))
    for _ in range(200):
        batch_norm_train(rng.normal(loc=1.5, scale=0.7, size=(128, 2)),
                         gamma, beta, 1e-5, stats)
    test_x = rng.normal(loc=1.5, scale=0.7, size=(5000, 2))
    y = batch_norm_eval(test_x, gamma, beta, stats, 1e-5)
    assert np.abs(y.mean(axis=0)).max() < 0.1


# ---------------------------------------------------------------------------
# dropout


def test_dropout_rate_zero_is_identity():
    x = np.random.default_rng(8).normal(size=(4, 5))
    y, mask = dropout_train(x, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(y, x)


def test_dropout_preserves_mean():
    x = np.ones((200, 100))
    y, _ = dropout_train(x, 0.5, np.random.default_rng(9))
    assert abs(y.mean() - 1.0) < 0.05


def test_dropout_mask_values():
    x = np.ones((50, 50))
    _, mask = dropout_train(x, 0.25, np.random.default_rng(10))
    assert set(np.unique(mask)) <= {0.0, 1.0 / 0.75}


def test_dropout_rate_one_rejected():
    with pytest.raises(ConfigError):
        dropout_train(np.ones((2, 2)), 1.0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# optimizers


def test_momentum_zero_is_plain_sgd():
    opt = MomentumSGD(lr=0.1, momentum=0.0)
    p = {"w": np.array([[1.0]])}
    opt.step(p, {"w": np.array([[2.0]])})
    np.testing.assert_allclose(p["w"], [[0.8]])


def test_momentum_hand_computed_steps():
    opt = MomentumSGD(lr=0.1, momentum=0.9)
    p = {"w": np.array([[1.0]])}
    g = {"w": np.array([[1.0]])}
    opt.step(p, g)
    np.testing.assert_allclose(opt.slots["w"], [[-0.1]])
    np.testing.assert_allclose(p["w"], [[0.9]])
    opt.step(p, g)
    np.testing.assert_allclose(opt.slots["w"], [[-0.19]])
    np.testing.assert_allclose(p["w"], [[0.71]])


def test_momentum_geometric_drift_after_gradient_stops():
    mu, lr = 0.9, 0.1
    opt = MomentumSGD(lr=lr, momentum=mu)
    p = {"w": np.array([[1.0]])}
    opt.step(p, {"w": np.array([[1.0]])})
    v1 = opt.slots["w"].copy()
    zero = {"w": np.zeros((1, 1))}
    for _ in range(2000):
        opt.step(p, zero)
    # total extra drift converges to v1 * mu / (1 - mu)
    expected = 1.0 - lr + float(v1[0, 0]) * mu / (1 - mu)
    np.testing.assert_allclose(p["w"], [[expected]], atol=1e-8)


def test_adagrad_zero_gradient_is_noop():
    opt = Adagrad(lr=0.5)
    p = {"w": np.array([[3.0]])}
    opt.step(p, {"w": np.zeros((1, 1))})
    np.testing.assert_array_equal(p["w"], [[3.0]])
    np.testing.assert_array_equal(opt.slots["w"], [[0.0]])


def test_adagrad_first_step_magnitude():
    opt = Adagrad(lr=0.1, eps=1e-12)
    p = {"w": np.array([[0.0]])}
    opt.step(p, {"w": np.array([[2.0]])})
    np.testing.assert_allclose(p["w"], [[-0.1]], atol=1e-9)


def test_adagrad_two_steps_against_brute_force():
    lr, eps = 1.0, 1e-8
    opt = Adagrad(lr=lr, eps=eps)
    p = {"w": np.array([[0.0]])}
    grads = [1.0, 3.0]
    acc, w = 0.0, 0.0
    for g in grads:
        opt.step(p, {"w": np.array([[g]])})
        acc += g * g
        w -= lr * g / (np.sqrt(acc) + eps)
    np.testing.assert_allclose(p["w"], [[w]], rtol=1e-15)


def test_optimizer_shape_mismatch():
    opt = MomentumSGD(lr=0.1)
    with pytest.raises(ShapeError):
        opt.step({"w": np.zeros((2, 2))}, {"w": np.zeros((3, 3))})


def test_optimizer_determinism():
    def run():
        rng = np.random.default_rng(11)
        opt = MomentumSGD(lr=0.01, momentum=0.9)
        p = {"w": rng.normal(size=(3, 3))}
        for _ in range(10):
            opt.step(p, {"w": rng.normal(size=(3, 3))})
        return p["w"]
    np.testing.assert_array_equal(run(), run())


# ---------------------------------------------------------------------------
# finite differences


def test_fd_sum_of_squares():
    grad = finite_difference_gradient(lambda x: (x ** 2).sum(), np.array([[1.0, 2.0]]))
    np.testing.assert_allclose(grad, [[2.0, 4.0]], atol=1e-6)


def test_fd_constant_function():
    grad = finite_difference_gradient(lambda x: 42.0, np.ones((2, 3)))
    np.testing.assert_array_equal(grad, np.zeros((2, 3)))


def test_fd_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_difference_gradient(lambda x: 0.0, np.ones((1, 1)), h=0.0)


# ---------------------------------------------------------------------------
# activations and layer stacks


def test_sigmoid_relu_grads_match_finite_differences():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 3)) + 0.1  # keep relu away from its kink
        up = rng.normal(size=(4, 3))
        for kind in ("sigmoid", "relu"):
            layer = nnlib.build_layer(LayerSpec(kind, 3, 3), rng)
            layer.forward(x)
            dx = layer.backward(up)
            num = finite_difference_gradient(
                lambda v: (nnlib.build_layer(LayerSpec(kind, 3, 3), rng).forward(v) * up).sum(),
                x.copy())
            assert rel_err(dx, num) < 1e-4


def test_layer_spec_validation():
    with pytest.raises(ConfigError):
        LayerSpec("sigmoid", 3, 4)
    with pytest.raises(ConfigError):
        LayerSpec("affine", 0, 4)
    with pytest.raises(ConfigError):
        LayerSpec("nope", 2, 2)


def test_sequential_seed_reproducibility():
    specs = [LayerSpec("affine", 4, 8), LayerSpec("sigmoid", 8, 8),
             LayerSpec("affine", 8, 2)]
    a = Sequential(specs, np.random.default_rng(12))
    b = Sequential(specs, np.random.default_rng(12))
    for k, v in a.named_params().items():
        np.testing.assert_array_equal(v, b.named_params()[k])


def test_forward_outputs_stay_finite():
    rng = np.random.default_rng(13)
    net = Sequential([LayerSpec("affine", 5, 7), LayerSpec("relu", 7, 7),
                      LayerSpec("batch_norm", 7, 7), LayerSpec("affine", 7, 3)], rng)
    for _ in range(5):
        out = net.forward(rng.normal(scale=100, size=(16, 5)), mode="train")
        assert np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# kernels: bit identity with the reference formulas


def _sigmoid_reference(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _cross_entropy_reference(logits, labels):
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z[np.arange(n), labels] - np.log(np.exp(z).sum(axis=1))
    np.clip(logp, -700.0, None, out=logp)
    onehot = np.zeros_like(logits)
    onehot[np.arange(n), labels] = 1.0
    return -logp.mean(), (softmax(logits) - onehot) / n


def test_sigmoid_bit_identical_to_reference():
    special = np.array([[0.0, -0.0, 1e3, -1e3, np.inf, -np.inf, np.nan]])
    np.testing.assert_array_equal(sigmoid(special), _sigmoid_reference(special))
    rng = np.random.default_rng(30)
    for scale in (1.0, 10.0, 800.0):
        x = rng.normal(scale=scale, size=(64, 16))
        np.testing.assert_array_equal(sigmoid(x), _sigmoid_reference(x))


@pytest.mark.parametrize("k", [2, 5])
def test_softmax_cross_entropy_bit_identical_to_reference(k):
    rng = np.random.default_rng(31)
    for scale in (1.0, 50.0, 1e4):
        logits = rng.normal(scale=scale, size=(64, k))
        labels = rng.integers(0, k, size=64)
        loss, grad = softmax_cross_entropy(logits, labels)
        ref_loss, ref_grad = _cross_entropy_reference(logits, labels)
        assert loss == ref_loss
        np.testing.assert_array_equal(grad, ref_grad)


def test_batch_norm_train_statistics_bit_identical_to_mean_and_var():
    rng = np.random.default_rng(32)
    for n, d in ((64, 16), (128, 16), (2, 3), (37, 5)):
        x = rng.normal(loc=rng.normal(scale=10), scale=rng.uniform(0.01, 100), size=(n, d))
        gamma, beta = rng.normal(size=(1, d)), rng.normal(size=(1, d))
        stats = fresh_stats(d)
        y, (xhat, inv_std, _, _) = batch_norm_train(x, gamma, beta, 1e-5, stats)
        np.testing.assert_array_equal(stats["mean"], x.mean(axis=0))
        np.testing.assert_array_equal(stats["var"], x.var(axis=0))
        np.testing.assert_array_equal(inv_std, 1.0 / np.sqrt(x.var(axis=0) + 1e-5))
        np.testing.assert_array_equal(y, gamma * ((x - x.mean(axis=0)) * inv_std) + beta)


def test_stacked_kernels_equal_the_2d_call_on_each_slice():
    rng = np.random.default_rng(33)
    for _ in range(300):
        folds, n = int(rng.integers(1, 7)), int(rng.integers(1, 130))
        d, k = int(rng.integers(1, 40)), int(rng.integers(2, 5))
        x = rng.normal(size=(folds, n, d))
        W = rng.normal(size=(folds, d, k))
        b = rng.normal(size=(folds, 1, k))
        labels = rng.integers(0, k, size=(folds, n))
        y = affine_forward(x, W, b)
        loss, dz = softmax_cross_entropy(y, labels)
        dx, dW, db = affine_backward(dz, x, W)
        assert loss.shape == (folds,)
        for f in range(folds):
            y_f = affine_forward(x[f], W[f], b[f])
            loss_f, dz_f = softmax_cross_entropy(y_f, labels[f])
            np.testing.assert_array_equal(y[f], y_f)
            assert loss[f] == loss_f
            np.testing.assert_array_equal(dz[f], dz_f)
            for stacked, alone in zip((dx, dW, db), affine_backward(dz_f, x[f], W[f])):
                np.testing.assert_array_equal(stacked[f], alone)


def test_stacked_affine_rejects_mismatched_model_axes():
    with pytest.raises(ShapeError):
        affine_forward(np.zeros((3, 4, 2)), np.zeros((2, 2, 5)), np.zeros((3, 1, 5)))
    with pytest.raises(ShapeError):
        affine_forward(np.zeros((3, 4, 2)), np.zeros((2, 5)), np.zeros(5))


# ---------------------------------------------------------------------------
# flat parameter arena


ARENA_SPECS = [LayerSpec("affine", 3, 5), LayerSpec("sigmoid", 5, 5),
               LayerSpec("batch_norm", 5, 5), LayerSpec("affine", 5, 2)]


def assert_views_of_arena(net):
    for layer in net.layers:
        for k in layer.params:
            assert np.shares_memory(layer.params[k], net.theta)
            assert np.shares_memory(layer.grads[k], net.grad)
    assert sum(p.size for p in net.named_params().values()) == net.theta.size


def _one_backward(net, rng):
    net.zero_grads()
    logits = net.forward(rng.normal(size=(8, 3)), mode="train")
    _, dz = softmax_cross_entropy(logits, rng.integers(0, 2, size=8))
    net.backward(dz)


def test_arena_views_survive_zero_grads_set_params_and_steps():
    rng = np.random.default_rng(33)
    net = Sequential(ARENA_SPECS, rng)
    assert_views_of_arena(net)
    _one_backward(net, rng)
    assert np.any(net.grad != 0)
    net.zero_grads()
    assert_views_of_arena(net)
    assert not np.any(net.grad)
    other = Sequential(ARENA_SPECS, np.random.default_rng(34))
    net.set_params(other.named_params())
    assert_views_of_arena(net)
    np.testing.assert_array_equal(net.theta, other.theta)
    for opt in (MomentumSGD(lr=0.1), Adagrad(lr=0.1)):
        _one_backward(net, rng)
        opt.step({"net": net.theta}, {"net": net.grad})
        assert_views_of_arena(net)


def test_set_params_rejects_wrong_shape():
    net = Sequential(ARENA_SPECS, np.random.default_rng(35))
    named = net.named_params()
    named["0/b"] = np.zeros(5)     # (5,) would broadcast into (1, 5)
    with pytest.raises(ShapeError):
        net.set_params(named)


@pytest.mark.parametrize("make_opt", [lambda: MomentumSGD(lr=0.05, momentum=0.9),
                                      lambda: Adagrad(lr=0.05)])
def test_flat_step_equals_per_parameter_step(make_opt):
    flat = Sequential(ARENA_SPECS, np.random.default_rng(36))
    per = Sequential(ARENA_SPECS, np.random.default_rng(36))
    opt_flat, opt_per = make_opt(), make_opt()
    rng = np.random.default_rng(37)
    for _ in range(5):
        g = rng.normal(size=flat.grad.shape)
        flat.grad[...] = g
        per.grad[...] = g
        opt_flat.step({"net": flat.theta}, {"net": flat.grad})
        opt_per.step(per.named_params(), per.named("grads"))
    np.testing.assert_array_equal(flat.theta, per.theta)
    np.testing.assert_array_equal(
        opt_flat.slots["net"],
        np.concatenate([opt_per.slots[k].ravel() for k in per.named_params()]))


def test_assigning_a_param_copies_into_the_arena():
    net = Sequential(ARENA_SPECS, np.random.default_rng(38))
    layer = net.layers[0]
    W = layer.params["W"]
    layer.params["W"] = np.eye(3, 5)
    assert layer.params["W"] is W
    np.testing.assert_array_equal(W, np.eye(3, 5))
    _one_backward(net, np.random.default_rng(39))
    MomentumSGD(lr=0.1).step({"net": net.theta}, {"net": net.grad})
    assert not np.array_equal(layer.params["W"], np.eye(3, 5))
    assert np.shares_memory(layer.params["W"], net.theta)
    assert_views_of_arena(net)


def test_assigning_a_param_of_wrong_shape_is_rejected():
    net = Sequential(ARENA_SPECS, np.random.default_rng(40))
    before = net.theta.copy()
    with pytest.raises(ShapeError, match="b"):
        net.layers[0].params["b"] = np.zeros(5)     # (5,) would broadcast into (1, 5)
    with pytest.raises(ShapeError):
        net.layers[0].grads["W"] = np.zeros((5, 3))
    np.testing.assert_array_equal(net.theta, before)
