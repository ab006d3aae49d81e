import copy
import json
import math
import tracemalloc

import numpy as np
import pytest

from tritrain.nnlib import (BN_EPS, BN_MOMENTUM, Adagrad, ConfigError, MomentumSGD,
                            ShapeError, StateError,
                            affine_backward, affine_backward_buffers,
                            batch_norm_backward, batch_norm_buffers, batch_norm_eval,
                            batch_norm_train, sigmoid, softmax)

from conftest import (affine, cross_entropy, extractor, finite_difference_gradient, named,
                      rel_err, train_pass)


def cols(a):
    """The (features, batch) layout of row-major samples a (..., n, d): a
    C-contiguous (..., d, n) copy, as the training path holds its
    activations."""
    return np.ascontiguousarray(np.swapaxes(a, -1, -2))


def fresh_stats(d):
    """Unpopulated running statistics: the (2, d) rows mean and variance,
    and the batch count."""
    return np.array([np.zeros(d), np.ones(d)]), np.zeros(1, dtype=np.int64)


def bn_buffers(gamma, beta, n):
    """`batch_norm_buffers` for a batch of n, with a (2, d) gradient array
    of their own."""
    return batch_norm_buffers(gamma, beta, n, np.empty((2, gamma.shape[-1])))


def bn_train(x, gamma, beta, running, count):
    """`batch_norm_train` of x (d, n) in a workspace and output of its own:
    (output, workspace)."""
    out, ws = np.empty(x.shape), bn_buffers(gamma, beta, x.shape[-1])
    batch_norm_train(x, running, count, ws, out)
    return out, ws


def affine_grads(dout, x):
    """The (dW, db) that `affine_backward` writes, into new arrays that fit
    x and dout, stacked or not."""
    lead, k = np.broadcast_shapes(x.shape[:-2], dout.shape[:-2]), dout.shape[-2]
    dW, db = np.empty((*lead, x.shape[-2], k)), np.empty((*lead, 1, k))
    affine_backward(dout, x, affine_backward_buffers(dout, dW, db))
    return dW, db


# ---------------------------------------------------------------------------
# affine


def test_affine_identity():
    y = affine(np.array([[1.0], [2.0]]), np.eye(2), np.zeros(2))
    np.testing.assert_array_equal(y, [[1.0], [2.0]])


def test_affine_zero_input_passes_bias():
    W = np.random.default_rng(0).normal(size=(2, 2))
    y = affine(np.zeros((2, 1)), W, np.array([3.0, -1.0]))
    np.testing.assert_array_equal(y, [[3.0], [-1.0]])


def test_affine_shape_mismatch():
    with pytest.raises(ShapeError):
        affine(np.zeros((3, 1)), np.eye(2), np.zeros(2))


def test_affine_grad_matches_finite_differences():
    rng = np.random.default_rng(1)
    x = cols(rng.normal(size=(3, 4)))
    W = rng.normal(size=(4, 2))
    b = rng.normal(size=(1, 2))
    dout = np.ones((2, 3))
    dW, db = affine_grads(dout, x)
    num_W = finite_difference_gradient(lambda w: affine(x, w, b).sum(), W.copy())
    num_b = finite_difference_gradient(lambda bb: affine(x, W, bb).sum(), b.copy())
    assert rel_err(dW, num_W) < 1e-6
    assert rel_err(db, num_b) < 1e-6


def test_affine_grad_randomized_suite():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, din, dout_d = rng.integers(2, 7, size=3)
        x = cols(rng.normal(size=(n, din)))
        W = rng.normal(size=(din, dout_d))
        b = rng.normal(size=(1, dout_d))
        up = cols(rng.normal(size=(n, dout_d)))
        dW, _ = affine_grads(up, x)
        f = lambda w: (affine(x, w, b) * up).sum()
        assert rel_err(dW, finite_difference_gradient(f, W.copy())) < 1e-4


# ---------------------------------------------------------------------------
# softmax cross-entropy


def test_uniform_logits_loss_is_log_k():
    loss, _ = cross_entropy(np.zeros((10, 4)), np.array([0, 3, 9, 5]))
    assert loss == pytest.approx(np.log(10), abs=1e-12)


def test_confident_correct_prediction():
    logits = np.zeros((3, 1))
    logits[1, 0] = 1000.0
    loss, grad = cross_entropy(logits, np.array([1]))
    assert loss == pytest.approx(0.0, abs=1e-9)
    assert np.abs(grad).max() < 1e-9


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    # one column per row of the batch
    p = softmax(cols(rng.normal(scale=10, size=(50, 7))))
    np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-12)


def test_ce_loss_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(10):
        logits = cols(rng.normal(scale=5, size=(6, 4)))
        labels = rng.integers(0, 4, size=6)
        loss, _ = cross_entropy(logits, labels)
        assert loss >= 0.0


def test_ce_grad_matches_finite_differences():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        logits = cols(rng.normal(size=(2, 3)))
        labels = rng.integers(0, 3, size=2)
        _, grad = cross_entropy(logits, labels)
        num = finite_difference_gradient(
            lambda z: cross_entropy(z, labels)[0], logits.copy())
        assert rel_err(grad, num) < 1e-6


# ---------------------------------------------------------------------------
# batch norm


def test_bn_constant_column_maps_to_beta():
    x = np.full((1, 5), 7.0)
    y, _ = bn_train(x, np.ones((1, 1)), np.full((1, 1), 5.0), *fresh_stats(1))
    np.testing.assert_allclose(y, 5.0, atol=1e-9)


def test_bn_normalizes_columns():
    rng = np.random.default_rng(4)
    x = cols(rng.normal(loc=3.0, scale=2.0, size=(64, 3)))
    y, _ = bn_train(x, np.ones((1, 3)), np.zeros((1, 3)), *fresh_stats(3))
    var = x.var(axis=1)
    assert np.abs(y.mean(axis=1)).max() < 1e-8
    # BN_EPS shrinks each row's variance from 1 to var / (var + BN_EPS)
    assert np.abs(y.var(axis=1) - var / (var + BN_EPS)).max() < 1e-6


def test_bn_requires_batch_of_two():
    with pytest.raises(ValueError):
        bn_train(np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 2)), *fresh_stats(2))


def test_bn_grads_match_finite_differences():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = cols(rng.normal(size=(8, 3)))
        gamma = rng.normal(size=(1, 3))
        beta = rng.normal(size=(1, 3))
        up = cols(rng.normal(size=(8, 3)))
        _, cache = bn_train(x, gamma, beta, *fresh_stats(3))
        dx = batch_norm_backward(up, cache)
        dgamma, dbeta = cache.grads[:1], cache.grads[1:]

        def loss(xx=None, g=None, b=None):
            out, _ = bn_train(x if xx is None else xx, gamma if g is None else g,
                              beta if b is None else b, *fresh_stats(3))
            return (out * up).sum()

        assert rel_err(dx, finite_difference_gradient(lambda v: loss(xx=v), x.copy())) < 1e-5
        assert rel_err(dgamma, finite_difference_gradient(lambda v: loss(g=v), gamma.copy())) < 1e-5
        assert rel_err(dbeta, finite_difference_gradient(lambda v: loss(b=v), beta.copy())) < 1e-5


def test_bn_running_average_weighs_by_bn_momentum():
    # both weights of the moving average come from BN_MOMENTUM
    ws = bn_buffers(np.ones((1, 1)), np.zeros((1, 1)), 2)
    running, count = fresh_stats(1)
    # batch means 5 then 5.5, variances 1 then 0.25
    for x in ([[4.0, 6.0]], [[5.0, 6.0]]):
        batch_norm_train(np.array(x), running, count, ws, np.empty((1, 2)))
    assert BN_MOMENTUM == 0.9
    np.testing.assert_array_equal(running, [[0.9 * 5.0 + (1 - 0.9) * 5.5],
                                            [0.9 * 1.0 + (1 - 0.9) * 0.25]])


def test_bn_eval_at_running_mean_is_zero():
    stats = fresh_stats(2)
    rng = np.random.default_rng(5)
    bn_train(cols(rng.normal(size=(16, 2))), np.ones((1, 2)), np.zeros((1, 2)), *stats)
    # the running mean as a batch of one column
    y = batch_norm_eval(cols(stats[0][:1]), np.ones((1, 2)), np.zeros((1, 2)), *stats)
    np.testing.assert_allclose(y, 0.0, atol=1e-12)


def test_bn_eval_standardizes_with_the_running_statistics():
    # the batch's own mean and variance are far from the running ones
    running = np.array([[0.5, -1.0, 2.0], [0.25, 4.0, 1.5]])
    gamma, beta = np.array([[1.5, -0.5, 2.0]]), np.array([[0.1, 0.2, -0.3]])
    x = cols(np.random.default_rng(8).normal(loc=10.0, scale=5.0, size=(6, 3)))
    y = batch_norm_eval(x, gamma, beta, running, np.array([3]))
    expected = [[gamma[0, j] * ((x[j, i] - running[0, j]) / math.sqrt(running[1, j] + 1e-5))
                 + beta[0, j] for i in range(6)] for j in range(3)]
    np.testing.assert_array_equal(y, expected)
    on_batch = (gamma.T * (x - x.mean(axis=1, keepdims=True))
                / np.sqrt(x.var(axis=1, keepdims=True) + 1e-5) + beta.T)
    assert not np.allclose(y, on_batch)


def test_bn_eval_gamma_zero_gives_beta():
    stats = fresh_stats(2)
    rng = np.random.default_rng(6)
    bn_train(cols(rng.normal(size=(16, 2))), np.ones((1, 2)), np.zeros((1, 2)), *stats)
    y = batch_norm_eval(cols(rng.normal(size=(4, 2))), np.zeros((1, 2)), np.full((1, 2), 2.5),
                        *stats)
    np.testing.assert_allclose(y, 2.5, atol=1e-12)


def test_bn_eval_unpopulated_stats_raise():
    with pytest.raises(StateError):
        batch_norm_eval(np.zeros((2, 2)), np.ones((1, 2)), np.zeros((1, 2)), *fresh_stats(2))


def test_bn_eval_centering_converges_monte_carlo():
    # many seeded batches from a fixed distribution: eval output mean -> 0
    stats = fresh_stats(2)
    rng = np.random.default_rng(7)
    gamma, beta = np.ones((1, 2)), np.zeros((1, 2))
    ws, out = bn_buffers(gamma, beta, 128), np.empty((2, 128))
    for _ in range(200):
        batch_norm_train(cols(rng.normal(loc=1.5, scale=0.7, size=(128, 2))), *stats, ws, out)
    test_x = cols(rng.normal(loc=1.5, scale=0.7, size=(5000, 2)))
    y = batch_norm_eval(test_x, gamma, beta, *stats)
    assert np.abs(y.mean(axis=1)).max() < 0.1


# ---------------------------------------------------------------------------
# dropout


def test_dropout_rate_zero_builds_no_dropout_part():
    rng = np.random.default_rng(8)
    f = extractor(3, 5, "sigmoid", 0.0, False, np.random.default_rng(0))
    ws = f.workspace(4)
    assert ws.u is ws.uT is ws.keep is ws.mask is ws.drop_out is None
    x = rng.normal(size=(4, 3))
    # no generator needed, and f's output is the activation itself
    np.testing.assert_array_equal(train_pass(f, x).h, sigmoid(affine(x.T, f.W, f.b)))


def test_dropout_preserves_mean():
    # every activation 1 before dropout: relu of a zero W and a unit bias
    f = extractor(1, 100, "relu", 0.5, False, np.random.default_rng(0))
    f.W[...], f.b[...] = 0.0, 1.0
    y = train_pass(f, np.ones((200, 1)), np.random.default_rng(9)).h
    assert abs(y.mean() - 1.0) < 0.05


def test_dropout_mask_values():
    f = extractor(2, 50, "sigmoid", 0.25, True, np.random.default_rng(0))
    ws = train_pass(f, np.ones((50, 2)), np.random.default_rng(10))
    assert set(np.unique(ws.mask)) == {0.0, 1.0 / 0.75}


@pytest.mark.parametrize("rate", [1.0, 1.5, -0.1, math.nan])
def test_dropout_rate_outside_zero_one_is_rejected_at_construction(rate):
    # a rate of 1 used to fail only at the first batch, and a negative one
    # meant no dropout
    with pytest.raises(ConfigError, match="dropout rate"):
        extractor(2, 2, "sigmoid", rate, True, np.random.default_rng(0))


def test_dropout_batches_reuse_their_workspace_buffers_and_draw_the_inverted_mask():
    rate, (n, d) = 0.2, (512, 64)
    f = extractor(3, d, "relu", rate, True, np.random.default_rng(0))
    ws, rng = f.workspace(n), np.random.default_rng(11)
    buffers = ws.u, ws.keep, ws.mask
    x = rng.normal(size=(n, 3))
    for _ in range(2):
        twin = copy.deepcopy(rng)
        tracemalloc.start()
        f.forward(x, ws, rng)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # no array of the batch's size is made: the draws, flags and mask
        # go into the workspace
        assert peak < ws.mask.nbytes
        assert all(a is b for a, b in zip((ws.u, ws.keep, ws.mask), buffers))
        # the mask of the inverted-dropout formula, drawn (n, d) and transposed
        keep = twin.random((n, d)).T >= rate
        assert_same_bits(ws.mask, keep / (1.0 - rate))
        assert twin.bit_generator.state == rng.bit_generator.state


# ---------------------------------------------------------------------------
# optimizers


def test_momentum_zero_is_plain_sgd():
    opt = MomentumSGD(lr=0.1, momentum=0.0)
    w = np.array([[1.0]])
    opt.step(opt.bind(w, np.array([[2.0]])))
    np.testing.assert_allclose(w, [[0.8]])


def test_momentum_hand_computed_steps():
    opt = MomentumSGD(lr=0.1, momentum=0.9)
    w = np.array([[1.0]])
    bound = opt.bind(w, np.array([[1.0]]))
    opt.step(bound)
    np.testing.assert_allclose(opt.slot, [[-0.1]])
    np.testing.assert_allclose(w, [[0.9]])
    opt.step(bound)
    np.testing.assert_allclose(opt.slot, [[-0.19]])
    np.testing.assert_allclose(w, [[0.71]])


def test_momentum_geometric_drift_after_gradient_stops():
    mu, lr = 0.9, 0.1
    opt = MomentumSGD(lr=lr, momentum=mu)
    w, g = np.array([[1.0]]), np.array([[1.0]])
    bound = opt.bind(w, g)
    opt.step(bound)
    v1 = opt.slot.copy()
    g[...] = 0.0
    for _ in range(2000):
        opt.step(bound)
    # total extra drift converges to v1 * mu / (1 - mu)
    expected = 1.0 - lr + float(v1[0, 0]) * mu / (1 - mu)
    np.testing.assert_allclose(w, [[expected]], atol=1e-8)


def test_adagrad_zero_gradient_is_noop():
    opt = Adagrad(lr=0.5)
    w = np.array([[3.0]])
    opt.step(opt.bind(w, np.zeros((1, 1))))
    np.testing.assert_array_equal(w, [[3.0]])
    np.testing.assert_array_equal(opt.slot, [[0.0]])


def test_adagrad_first_step_magnitude():
    opt = Adagrad(lr=0.1, eps=1e-12)
    w = np.array([[0.0]])
    opt.step(opt.bind(w, np.array([[2.0]])))
    np.testing.assert_allclose(w, [[-0.1]], atol=1e-9)


def test_adagrad_two_steps_against_brute_force():
    lr, eps = 1.0, 1e-8
    opt = Adagrad(lr=lr, eps=eps)
    w, grad = np.array([[0.0]]), np.empty((1, 1))
    bound = opt.bind(w, grad)
    acc, expected = 0.0, 0.0
    for g in (1.0, 3.0):
        grad[...] = g
        opt.step(bound)
        acc += g * g
        expected -= lr * g / (np.sqrt(acc) + eps)
    np.testing.assert_allclose(w, [[expected]], rtol=1e-15)


@pytest.mark.parametrize("make_opt", [MomentumSGD, Adagrad])
def test_lr_assigned_between_steps_of_one_bound_list_applies_to_the_next(make_opt):
    # as `trainer.adapt_step` decays lr after a phase bound its arrays: the
    # next step of that bound list uses the new value, and `lr` stays the
    # float that a checkpoint writes as a JSON number
    w, g = np.array([1.0]), np.array([1.0])
    opt = make_opt(lr=0.1)
    bound = opt.bind(w, g)
    opt.step(bound)
    assert w[0] == pytest.approx(0.9)
    opt.lr = 0.01
    opt.step(bound)
    if make_opt is MomentumSGD:
        # v = 0.9 * -0.1 - 0.01 = -0.1; with the old lr it would be -0.19
        assert w[0] == pytest.approx(0.8, rel=1e-12)
    else:
        # the squared gradients sum to 2
        assert w[0] == pytest.approx(0.9 - 0.01 / np.sqrt(2), rel=1e-8)
    assert type(opt.lr) is float and json.dumps(opt.lr) == "0.01"


def test_optimizer_shape_mismatch():
    opt = MomentumSGD(lr=0.1)
    with pytest.raises(ShapeError):
        opt.bind(np.zeros((2, 2)), np.zeros((3, 3)))


def test_binding_an_arena_of_another_shape_than_the_slot_raises():
    opt = MomentumSGD(lr=0.1)
    opt.bind(np.zeros(6), np.zeros(6), slice(2, 4))
    for shape in ((5,), (6, 1), (2, 3)):
        with pytest.raises(ShapeError, match="slot"):
            opt.bind(np.zeros(shape), np.zeros(shape))
    assert opt.slot.shape == (6,)


@pytest.mark.parametrize("make", [
    lambda v: MomentumSGD(lr=v), lambda v: Adagrad(lr=v), lambda v: Adagrad(lr=0.1, eps=v)],
    ids=["momentum_lr", "adagrad_lr", "adagrad_eps"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -5.0])
def test_optimizer_rejects_a_non_finite_or_non_positive_constructor_value(make, value):
    with pytest.raises(ConfigError, match=f"got {value}"):
        make(value)


@pytest.mark.parametrize("make_opt", [MomentumSGD, Adagrad])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -5.0])
def test_lr_assignment_rejects_a_non_finite_or_non_positive_value_and_keeps_the_old(
        make_opt, value):
    opt = make_opt(lr=0.1)
    with pytest.raises(ConfigError, match=f"lr must be finite and > 0, got {value}"):
        opt.lr = value
    assert opt.lr == 0.1


def test_optimizer_determinism():
    def run():
        rng = np.random.default_rng(11)
        opt = MomentumSGD(lr=0.01, momentum=0.9)
        w, g = rng.normal(size=(3, 3)), np.empty((3, 3))
        bound = opt.bind(w, g)
        for _ in range(10):
            g[...] = rng.normal(size=(3, 3))
            opt.step(bound)
        return w
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
# the extractor


def test_sigmoid_relu_grads_match_finite_differences():
    # through the first layer's dW: the activation's backward is what
    # carries the upstream gradient there
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 3))
        # f's output is (hidden, n): one column per row of x
        up = cols(rng.normal(size=(4, 3)))
        for kind in ("sigmoid", "relu"):
            f = extractor(3, 3, kind, 0.0, False, rng)
            ws = train_pass(f, x)
            ws.dout[...] = up
            f.backward(ws)
            # the differences perturb the live view f.W in place
            num = finite_difference_gradient(lambda w: (train_pass(f, x).h * up).sum(), f.W)
            assert rel_err(f.dW, num) < 1e-4


def test_extractor_rejects_an_unknown_activation_or_a_zero_width():
    with pytest.raises(ConfigError, match="tanh"):
        extractor(2, 2, "tanh", 0.0, True, np.random.default_rng(0))
    for in_dim, hidden_dim in ((0, 2), (2, 0)):
        with pytest.raises(ConfigError, match="in_dim and hidden_dim >= 1"):
            extractor(in_dim, hidden_dim, "sigmoid", 0.0, True, np.random.default_rng(0))


@pytest.mark.parametrize("use_bn", [False, True])
def test_backward_without_a_train_mode_forward_is_a_state_error(use_bn):
    # it used to raise a bare AttributeError; an eval-mode forward keeps
    # nothing a backward could read
    rng = np.random.default_rng(15)
    f = extractor(3, 4, "sigmoid", 0.0, use_bn, rng)
    ws = f.workspace(8)
    ws.dout.fill(1.0)
    with pytest.raises(StateError, match="train-mode forward"):
        f.backward(ws)
    if use_bn:
        f.count.fill(1)  # eval mode needs populated running statistics
    f.eval(rng.normal(size=(8, 3)))
    with pytest.raises(StateError, match="train-mode forward"):
        f.backward(ws)
    assert not f.grad.any()


def test_sequential_seed_reproducibility():
    a = extractor(4, 8, "sigmoid", 0.0, True, np.random.default_rng(12))
    b = extractor(4, 8, "sigmoid", 0.0, True, np.random.default_rng(12))
    assert named(a).keys() == {"W", "b", "gamma", "beta"}
    for k, v in named(a).items():
        np.testing.assert_array_equal(v, named(b)[k])


def test_forward_outputs_stay_finite():
    rng = np.random.default_rng(13)
    net = extractor(5, 7, "relu", 0.0, True, rng)
    for _ in range(5):
        out = train_pass(net, rng.normal(scale=100, size=(16, 5))).out
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
    k, n = logits.shape
    cols_n = np.arange(n)
    z = logits - logits.max(axis=0, keepdims=True)
    logp = z[labels, cols_n] - np.log(np.exp(z).sum(axis=0))
    np.clip(logp, -700.0, None, out=logp)
    onehot = np.zeros_like(logits)
    onehot[labels, cols_n] = 1.0
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
        logits = cols(rng.normal(scale=scale, size=(64, k)))
        labels = rng.integers(0, k, size=64)
        loss, grad = cross_entropy(logits, labels)
        ref_loss, ref_grad = _cross_entropy_reference(logits, labels)
        assert loss == ref_loss
        np.testing.assert_array_equal(grad, ref_grad)


def test_batch_norm_train_statistics_bit_identical_to_mean_and_var():
    rng = np.random.default_rng(32)
    for n, d in ((64, 16), (128, 16), (2, 3), (37, 5)):
        x = cols(rng.normal(loc=rng.normal(scale=10), scale=rng.uniform(0.01, 100), size=(n, d)))
        gamma, beta = rng.normal(size=(1, d)), rng.normal(size=(1, d))
        running, count = fresh_stats(d)
        y, (xhat, inv_std, *_) = bn_train(x, gamma, beta, running, count)
        mean, var = x.mean(axis=1, keepdims=True), x.var(axis=1, keepdims=True)
        np.testing.assert_array_equal(running[0], mean[:, 0])
        np.testing.assert_array_equal(running[1], var[:, 0])
        np.testing.assert_array_equal(inv_std, 1.0 / np.sqrt(var + 1e-5))
        np.testing.assert_array_equal(y, gamma.T * ((x - mean) * inv_std) + beta.T)


# The formulas the kernels had before they were rewritten for fewer numpy
# calls, applied to (features, batch) arrays; each kernel must give the
# same bits.


def _sigmoid_where(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _cross_entropy_stacked(logits, labels):
    n = logits.shape[-1]
    labels = np.broadcast_to(labels, (*logits.shape[:-2], n))[..., None, :]
    z = logits - logits.max(axis=-2, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=-2, keepdims=True)
    logp = np.take_along_axis(z, labels, axis=-2) - np.log(s)
    np.clip(logp, -700.0, None, out=logp)
    loss = -logp[..., 0, :].mean(axis=-1)
    grad = e / s
    np.put_along_axis(grad, labels, np.take_along_axis(grad, labels, axis=-2) - 1.0, axis=-2)
    grad /= n
    return loss, grad


def _batch_norm_train_dict(x, gamma, beta, eps, running_stats, momentum=0.9):
    n = x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True) / n
    xc = x - mean
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    y = gamma.T * xhat + beta.T
    mean, var = mean[:, 0], var[:, 0]
    if running_stats["count"] == 0:
        running_stats["mean"] = mean.copy()
        running_stats["var"] = var.copy()
    else:
        running_stats["mean"] = momentum * running_stats["mean"] + (1 - momentum) * mean
        running_stats["var"] = momentum * running_stats["var"] + (1 - momentum) * var
    running_stats["count"] += 1
    return y, (xhat, inv_std, gamma, n)


def _batch_norm_backward_sums(dout, cache):
    # dx from the two row sums, with gamma * inv_std / n applied once
    xhat, inv_std, gamma, n = cache
    dgamma = (dout * xhat).sum(axis=-1, keepdims=True).T
    dbeta = dout.sum(axis=-1, keepdims=True).T
    dx = (n * dout - dbeta.T - xhat * dgamma.T) * (gamma.T * inv_std / n)
    return dx, dgamma, dbeta


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def test_sigmoid_bits_equal_the_where_formula():
    tiny = np.finfo(np.float64).smallest_subnormal
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0,
                        tiny, -tiny, 1e-310, -1e-310, 1e3, -1e3, 36.0, -36.0])
    assert_same_bits(sigmoid(special), _sigmoid_where(special))
    rng = np.random.default_rng(41)
    for scale in (1.0, 10.0, 800.0):
        x = rng.normal(scale=scale, size=(64, 16))
        assert_same_bits(sigmoid(x), _sigmoid_where(x))
    x = rng.normal(scale=30.0, size=100_000)
    assert_same_bits(sigmoid(x), _sigmoid_where(x))


@pytest.mark.parametrize("k", [2, 3, 9])
@pytest.mark.parametrize("lead", [(), (1,), (2,), (5,)], ids=["2d", "1x", "2x", "5x"])
def test_softmax_cross_entropy_bits_equal_the_stacked_formula(k, lead):
    # the class axis is not the contiguous one, so both add the classes in
    # order for every k
    rng = np.random.default_rng(42)
    n = 128 if lead == (1,) else 64
    for scale in (1.0, 50.0, 1e4):
        logits = cols(rng.normal(scale=scale, size=(*lead, n, k)))
        labels = rng.integers(0, k, size=(*lead, n))
        # a column whose label sits 1000 below its max hits the -700 clip
        logits[..., :, 0] = 0.0
        logits[..., 0, 0] = -1000.0
        labels[..., 0] = 0
        loss, grad = cross_entropy(logits, labels)
        ref_loss, ref_grad = _cross_entropy_stacked(logits, labels)
        assert_same_bits(loss, ref_loss)
        assert_same_bits(grad, ref_grad)
        # one label row shared by every slice, as the heads share theirs
        shared = labels[(0,) * len(lead)]
        for a, b in zip(cross_entropy(logits, shared),
                        _cross_entropy_stacked(logits, shared)):
            assert_same_bits(a, b)
    assert cross_entropy(logits[..., :1], labels[..., :1])[0].max() == 700.0


def test_softmax_cross_entropy_of_a_strided_view_equals_that_of_a_copy():
    # a view whose batch axis is not contiguous, such as rows seen as columns
    rng = np.random.default_rng(44)
    rows, labels = rng.normal(size=(64, 3)), rng.integers(0, 3, size=64)
    for a, b in zip(cross_entropy(rows.T, labels), cross_entropy(cols(rows), labels)):
        assert_same_bits(a, b)


def test_cross_entropy_results_keep_their_values_after_the_next_call():
    # the results live in their own workspace: a call in another, of any
    # shape, leaves them as they are
    rng = np.random.default_rng(45)
    for shape in ((3, 64), (2, 2, 64)):
        first, second = (rng.normal(size=shape) for _ in range(2))
        labels = rng.integers(0, shape[-2], size=64)
        loss, grad = cross_entropy(first, labels)
        kept = loss.copy(), grad.copy()
        cross_entropy(second, labels)
        assert_same_bits(loss, kept[0])
        assert_same_bits(grad, kept[1])


@pytest.mark.parametrize("n, d", [(64, 16), (128, 16), (2, 3), (37, 5), (64, 1), (16, 50)])
def test_batch_norm_bits_equal_the_dict_formulas(n, d):
    # the first call copies the batch statistics, later ones average them
    rng = np.random.default_rng(43)
    running, count = fresh_stats(d)
    ref_stats = {"mean": np.zeros(d), "var": np.ones(d), "count": 0}
    gamma, beta = rng.normal(size=(1, d)), rng.normal(size=(1, d))
    # one workspace for every call, as a phase's batches share f's
    ws, out = bn_buffers(gamma, beta, n), np.empty((d, n))
    for call in range(4):
        x = cols(rng.normal(loc=rng.normal(scale=10), scale=rng.uniform(0.01, 100), size=(n, d)))
        batch_norm_train(x, running, count, ws, out)
        ref_y, ref_cache = _batch_norm_train_dict(x, gamma, beta, 1e-5, ref_stats, 0.9)
        assert_same_bits(out, ref_y)
        for a, b in zip(ws[:2], ref_cache[:2]):
            assert_same_bits(a, b)
        assert_same_bits(running[0], ref_stats["mean"])
        assert_same_bits(running[1], ref_stats["var"])
        assert count[0] == ref_stats["count"] == call + 1
        up = cols(rng.normal(size=(n, d)))
        ref_dx, ref_dgamma, ref_dbeta = _batch_norm_backward_sums(up, ref_cache)
        assert_same_bits(batch_norm_backward(up, ws), ref_dx)
        assert_same_bits(ws.grads[:1], ref_dgamma)
        assert_same_bits(ws.grads[1:], ref_dbeta)


def test_stacked_kernels_equal_the_2d_call_on_each_slice():
    rng = np.random.default_rng(33)
    for _ in range(300):
        folds, n = int(rng.integers(1, 7)), int(rng.integers(1, 130))
        d, k = int(rng.integers(1, 40)), int(rng.integers(2, 5))
        x = cols(rng.normal(size=(folds, n, d)))
        W = rng.normal(size=(folds, d, k))
        b = rng.normal(size=(folds, 1, k))
        labels = rng.integers(0, k, size=(folds, n))
        y = affine(x, W, b)
        loss, dz = cross_entropy(y, labels)
        dW, db = affine_grads(dz, x)
        assert loss.shape == (folds,)
        # one 2-D x feeding every slice, as f's output feeds the heads
        y_shared = affine(x[0], W, b)
        dW_s, db_s = affine_grads(dz, x[0])
        for f in range(folds):
            y_f = affine(x[f], W[f], b[f])
            loss_f, dz_f = cross_entropy(y_f, labels[f])
            np.testing.assert_array_equal(y[f], y_f)
            assert loss[f] == loss_f
            np.testing.assert_array_equal(dz[f], dz_f)
            for stacked, alone in zip((dW, db), affine_grads(dz_f, x[f])):
                np.testing.assert_array_equal(stacked[f], alone)
            np.testing.assert_array_equal(y_shared[f], affine(x[0], W[f], b[f]))
            for shared, alone in zip((dW_s, db_s), affine_grads(dz[f], x[0])):
                np.testing.assert_array_equal(shared[f], alone)


def test_stacked_affine_rejects_mismatched_model_axes():
    with pytest.raises(ShapeError):
        affine(np.zeros((3, 2, 4)), np.zeros((2, 2, 5)), np.zeros((2, 1, 5)))
    with pytest.raises(ShapeError):
        affine(np.zeros((3, 2, 4)), np.zeros((2, 5)), np.zeros(5))


# ---------------------------------------------------------------------------
# flat parameter arena


def arena_net(seed):
    """An extractor from 3 inputs to 5 units with batch norm."""
    return extractor(3, 5, "sigmoid", 0.0, True, np.random.default_rng(seed))


def assert_views_of_arena(net):
    params, grads = named(net), named(net, "grads")
    assert params.keys() == grads.keys() == {"W", "b", "gamma", "beta"}
    for k in params:
        assert np.shares_memory(params[k], net.theta)
        assert np.shares_memory(grads[k], net.grad)
    assert sum(p.size for p in params.values()) == net.theta.size


def _one_backward(net, rng):
    net.zero_grads()
    ws = train_pass(net, rng.normal(size=(8, 3)))
    _, dz = cross_entropy(ws.h, rng.integers(0, 5, size=8))
    ws.dout[...] = dz
    net.backward(ws)


def test_arena_views_survive_zero_grads_set_params_and_steps():
    rng = np.random.default_rng(33)
    net = arena_net(33)
    assert_views_of_arena(net)
    _one_backward(net, rng)
    assert np.any(net.grad != 0)
    net.zero_grads()
    assert_views_of_arena(net)
    assert not np.any(net.grad)
    other = arena_net(34)
    for k, p in named(net).items():
        p[...] = named(other)[k]
    assert_views_of_arena(net)
    np.testing.assert_array_equal(net.theta, other.theta)
    for opt in (MomentumSGD(lr=0.1), Adagrad(lr=0.1)):
        _one_backward(net, rng)
        opt.step(opt.bind(net.theta, net.grad))
        assert_views_of_arena(net)


@pytest.mark.parametrize("make_opt", [lambda: MomentumSGD(lr=0.05, momentum=0.9),
                                      lambda: Adagrad(lr=0.05)])
def test_flat_step_equals_per_parameter_step(make_opt):
    # the whole arena in one step, against each view stepped by an optimizer
    # of its own
    flat = arena_net(36)
    per = arena_net(36)
    opt_flat = make_opt()
    bound_flat = opt_flat.bind(flat.theta, flat.grad)
    opt_per = {k: make_opt() for k in named(per)}
    bound_per = {k: opt_per[k].bind(p, named(per, "grads")[k]) for k, p in named(per).items()}
    rng = np.random.default_rng(37)
    for _ in range(5):
        g = rng.normal(size=flat.grad.shape)
        flat.grad[...] = g
        per.grad[...] = g
        opt_flat.step(bound_flat)
        for k, bound in bound_per.items():
            opt_per[k].step(bound)
    np.testing.assert_array_equal(flat.theta, per.theta)
    np.testing.assert_array_equal(
        opt_flat.slot, np.concatenate([opt.slot.ravel() for opt in opt_per.values()]))
