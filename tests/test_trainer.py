import copy
import math

import numpy as np
import pytest

from tritrain import datagen, nnlib, trainer, trinet
from tritrain.labeler import LabelingConfig, PseudoLabelSet
from tritrain.nnlib import ConfigError, ShapeError
from tritrain.trainer import (TrainConfig, adapt_step, build_net, checkpoint_arrays,
                              evaluate, init_state, load_state, pretrain,
                              read_metrics_csv, run, save_state,
                              write_metrics_csv)
from tritrain.trinet import GradientGates, TriNet

from conftest import named, train_pass


def blobs_dataset(seed=0, rotation=0.0, n=400):
    spec = datagen.ShiftSpec(generator="gaussian_blobs", n_source=n, n_target=n,
                             rotation_deg=rotation, noise_sigma=0.3, seed=seed)
    return datagen.generate(spec)


def small_cfg(**kw):
    base = dict(steps_k=3, pretrain_iters=200, iter_per_phase=30,
                batch_labeling=32, batch_target=32, lr=0.05, hidden_dim=8,
                labeling=LabelingConfig(n_init=100, threshold=0.9), seed=0)
    base.update(kw)
    return TrainConfig(**base)


def snapshot(net):
    return {k: v.copy() for k, v in named(net).items()}


# ---------------------------------------------------------------------------
# config / construction


def test_config_rejects_negative_steps():
    with pytest.raises(ConfigError):
        TrainConfig(steps_k=-1)


@pytest.mark.parametrize("key", ["iter_per_phase", "pretrain_iters"])
def test_config_rejects_negative_iterations(key):
    with pytest.raises(ConfigError, match=key):
        TrainConfig(**{key: -1})


@pytest.mark.parametrize("kw", [{"pretrain_iters": 0}, {"iter_per_phase": 0}])
def test_run_rejects_pretraining_without_a_batch_under_batch_norm(kw):
    # the rule reads only the config, so building one breaks it
    ds = blobs_dataset(n=40)
    with pytest.raises(ConfigError, match="pretrain_iters"):
        small_cfg(**{"pretrain_iters": None, **kw})
    history, _ = run(ds.source_x, ds.source_y, ds.target_x,
                     small_cfg(**{"pretrain_iters": None, **kw, "use_bn": False, "steps_k": 0}))
    assert len(history) == 1


def test_config_rejects_tiny_batch_with_bn():
    with pytest.raises(ConfigError):
        TrainConfig(batch_labeling=1, use_bn=True)


def test_build_net_shapes():
    net = build_net(small_cfg(), in_dim=2, num_classes=3)
    train_pass(net.f, np.zeros((4, 2)))  # populate BN
    assert net.forward(np.zeros((4, 2))).shape == (3, 4, 3)


# ---------------------------------------------------------------------------
# pretraining


def test_pretrain_fits_separable_blobs():
    ds = blobs_dataset()
    cfg = small_cfg()
    state = init_state(cfg, 2, ds.num_classes)
    pretrain(state, ds.source_x, ds.source_y)
    for acc in evaluate(state.net, ds.source_x, ds.source_y).values():
        assert acc > 0.95


def test_zero_iters_leaves_params_unchanged():
    ds = blobs_dataset()
    # batch norm needs a pretraining batch, so the config leaves it out
    cfg = small_cfg(pretrain_iters=0, use_bn=False)
    state = init_state(cfg, 2, ds.num_classes)
    before = snapshot(state.net)
    pretrain(state, ds.source_x, ds.source_y)
    after = named(state.net)
    for k in before:
        np.testing.assert_array_equal(before[k], after[k])


@pytest.mark.parametrize("n", [0, 1])
def test_run_rejects_a_source_of_under_two_rows_naming_the_count(n):
    # pretraining drops batches under 2 rows, so nothing would train
    x, y = np.zeros((n, 2)), np.zeros(n, dtype=np.int64)
    with pytest.raises(ValueError, match=rf"^training needs at least 2 source rows, got {n}$"):
        run(x, y, np.zeros((4, 2)), small_cfg())


# ---------------------------------------------------------------------------
# phase isolation and gates


def test_labeling_phase_never_touches_ft():
    ds = blobs_dataset()
    cfg = small_cfg()
    state = init_state(cfg, 2, ds.num_classes)
    before = snapshot(state.net)
    trainer._phase(state, "labeling", ds.source_x, ds.source_y, 20, "pretrain")
    after = named(state.net)
    for k in before:
        if k.startswith("ft/"):
            np.testing.assert_array_equal(before[k], after[k])
        elif k.startswith(("f1/", "f2/")):
            assert not np.array_equal(before[k], after[k]), k


def test_target_phase_never_touches_f1_f2():
    ds = blobs_dataset()
    cfg = small_cfg()
    state = init_state(cfg, 2, ds.num_classes)
    before = snapshot(state.net)
    trainer._phase(state, "target", ds.source_x, ds.source_y, 20, "pretrain")
    after = named(state.net)
    for k in before:
        if k.startswith(("f1/", "f2/")):
            np.testing.assert_array_equal(before[k], after[k])
        elif k.startswith("ft/"):
            assert not np.array_equal(before[k], after[k]), k


def test_closed_ft_gate_freezes_shared_trunk_in_target_phase():
    ds = blobs_dataset()
    cfg = small_cfg(gates=GradientGates(from_f1_f2=True, from_ft=False))
    state = init_state(cfg, 2, ds.num_classes)
    before = snapshot(state.net)
    trainer._phase(state, "target", ds.source_x, ds.source_y, 20, "pretrain")
    after = named(state.net)
    for k in before:
        if k.startswith("f/"):
            np.testing.assert_array_equal(before[k], after[k])


@pytest.mark.parametrize("closed", ["labeling", "target"])
def test_closed_gate_leaves_shared_arena_and_its_slot_untouched(closed):
    # the open phase runs first, so f has a nonzero momentum slot that a
    # wrongly stepped closed phase would keep applying
    ds = blobs_dataset()
    gates = GradientGates(from_f1_f2=closed != "labeling", from_ft=closed != "target")
    cfg = small_cfg(gates=gates)
    state = init_state(cfg, 2, ds.num_classes)
    open_phase = "target" if closed == "labeling" else "labeling"
    trainer._phase(state, open_phase, ds.source_x, ds.source_y, 5, "pretrain")
    theta, slot = state.net.f.theta.copy(), checkpoint_arrays(state)["opt/main/slot/f"].copy()
    assert np.any(slot)
    trainer._phase(state, closed, ds.source_x, ds.source_y, 5, "pretrain")
    np.testing.assert_array_equal(state.net.f.theta, theta)
    np.testing.assert_array_equal(checkpoint_arrays(state)["opt/main/slot/f"], slot)


@pytest.mark.parametrize("gates", [(True, True), (False, True), (True, False)],
                         ids=["open", "f1_f2_closed", "ft_closed"])
@pytest.mark.parametrize("phase", ["labeling", "target"])
def test_a_phase_steps_its_heads_and_f_if_its_gate_is_open_and_nothing_else(phase, gates):
    # each phase steps one slice of the arena; the networks it covers move,
    # the others keep every bit, and they are recorded, heads first
    ds = blobs_dataset()
    state = init_state(small_cfg(gates=GradientGates(*gates)), 2, ds.num_classes)
    net = state.net
    before = net.theta.copy()
    trainer._phase(state, phase, ds.source_x, ds.source_y, 5, "pretrain")
    heads, gate = TriNet.PHASES[phase]
    stepped = [*heads, "f"] if getattr(net.gates, gate) else [*heads]
    moved = [n for n, s in net.spans.items() if net.theta[s].tobytes() != before[s].tobytes()]
    assert sorted(moved) == sorted(stepped)
    assert state.stepped == stepped


def test_both_phases_step_f_through_one_momentum_slot():
    # f's velocity carries from the labeling phase into the target phase,
    # so one target batch leaves it at momentum * v - lr * g
    ds = blobs_dataset(n=64)
    state = init_state(small_cfg(), 2, ds.num_classes)
    trainer._phase(state, "labeling", ds.source_x, ds.source_y, 1, "test")
    v = checkpoint_arrays(state)["opt/main/slot/f"].copy()
    assert np.any(v)
    trainer._phase(state, "target", ds.source_x, ds.source_y, 1, "test")
    expected = v * 0.9 - state.net.f.grad * 0.05
    assert checkpoint_arrays(state)["opt/main/slot/f"].tobytes() == expected.tobytes()
    assert state.stepped == ["f1", "f2", "f", "ft"]


# (rows, iterations, the batch sizes a phase of 32-row batches builds a
# workspace for): one pass's full batches, its shorter last one, a last row
# dropped alone, and fixed iterations, whose batches are all full
PHASE_WORKSPACES = [(64, None, [32]), (77, None, [32, 13]), (65, None, [32]), (77, 5, [32])]


@pytest.mark.parametrize("rows, iters, sizes", PHASE_WORKSPACES)
@pytest.mark.parametrize("phase", ["labeling", "target"])
def test_a_phase_builds_one_workspace_per_batch_size_and_the_net_keeps_none(
        phase, rows, iters, sizes, monkeypatch):
    built, workspace = [], TriNet.workspace

    def counted(net, *args):
        built.append(workspace(net, *args))
        return built[-1]

    monkeypatch.setattr(TriNet, "workspace", counted)
    ds = blobs_dataset(n=rows)
    state = init_state(small_cfg(), 2, ds.num_classes)
    for _ in range(2):
        trainer._phase(state, phase, ds.source_x, ds.source_y, iters, "test")
    assert [(ws.phase, ws.n) for ws in built] == [(phase, n) for n in sizes] * 2
    # between phases no attribute of the net or its extractor, nor any item
    # of one, holds a workspace
    held = [*vars(state.net).values(), *vars(state.net.f).values()]
    for v in list(held):
        held += v.values() if isinstance(v, dict) else v if isinstance(v, (tuple, list)) else []
    kept = {id(ws) for ws in built} | {id(ws.f) for ws in built}
    assert not [v for v in held if id(v) in kept]


class CountingNumpy:
    """Stands in for a module's `np` global and counts, in `counter[0]`,
    each call made through it: to a numpy function or ufunc (`np.matmul`,
    `np.add`) or a ufunc method (`np.add.reduce`). Types and every other
    attribute pass through uncounted. numpy itself is left unpatched, so
    the count leaves out array methods (`x.take`, `y.view`), in-place
    operators (`v *= m`), indexing, the calls numpy makes inside its own
    functions and everything a Generator does (`rng.choice`)."""

    def __init__(self, target, counter: list):
        self._target, self._counter = target, counter

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if callable(attr) and not isinstance(attr, type):
            return CountingNumpy(attr, self._counter)
        return attr

    def __call__(self, *args, **kwargs):
        self._counter[0] += 1
        return self._target(*args, **kwargs)


# numpy calls per training batch through `nnlib`, `trinet` and `trainer` at
# the benchmark shapes, each phase's own setup spread over its batches. A
# change that adds calls raises its ceiling here and says why; one that
# removes calls lowers it
CALLS_PER_BATCH = {"labeling": 47.27, "target": 39.21}


def test_numpy_calls_per_training_batch_stay_under_their_ceiling(
        moons_benchmark_config, monkeypatch):
    cfg = TrainConfig(**moons_benchmark_config)
    ds = datagen.generate(datagen.ShiftSpec(generator="two_moons", n_source=500, n_target=500,
                                            rotation_deg=30, noise_sigma=0.1, seed=0))
    state = init_state(cfg, 2, ds.num_classes)
    pretrain(state, ds.source_x, ds.source_y)
    pseudo_y = state.net.forward(ds.target_x)[2].argmax(axis=1)
    counter = [0]
    for module in (nnlib, trinet, trainer):
        monkeypatch.setattr(module, "np", CountingNumpy(np, counter))
    calls = {}
    for phase, x, y in (("labeling", ds.source_x, ds.source_y),
                        ("target", ds.target_x, pseudo_y)):
        before = counter[0]
        trainer._phase(state, phase, x, y, cfg.iter_per_phase, "test")
        calls[phase] = (counter[0] - before) / cfg.iter_per_phase
    assert all(calls[p] <= CALLS_PER_BATCH[p] for p in calls), calls


@pytest.mark.parametrize("phase", ["labeling", "target"])
def test_phase_under_a_closed_gate_leaves_f_grad_at_its_start_zero(phase):
    field = TriNet.PHASES[phase][1]
    gates = GradientGates(**{f: f != field for f in ("from_f1_f2", "from_ft")})
    state = init_state(small_cfg(gates=gates), 2, 2)
    state.net.f.grad.fill(7.0)
    ds = blobs_dataset(n=64)
    trainer._phase(state, phase, ds.source_x, ds.source_y, 3, "test")
    assert state.net.f.grad.tobytes() == np.zeros_like(state.net.f.grad).tobytes()


def test_closed_ft_gate_degrades_gracefully_on_easy_shift():
    # freezing the trunk against target gradients should cost little on a
    # nearly-separable shift
    ds = blobs_dataset(rotation=15.0)
    open_accs, closed_accs = [], []
    for seed in range(3):
        for gates, accs in ((GradientGates(True, True), open_accs),
                            (GradientGates(True, False), closed_accs)):
            cfg = small_cfg(seed=seed, gates=gates)
            hist, _ = run(ds.source_x, ds.source_y, ds.target_x, cfg,
                          eval_x=ds.target_x, eval_y=ds.target_y_hidden,
                          target_y_hidden=ds.target_y_hidden)
            accs.append(hist[-1].acc_ft)
    assert np.mean(open_accs) - np.mean(closed_accs) <= 0.02 + 1e-12


# ---------------------------------------------------------------------------
# the adaptation loop


def test_run_steps_zero_is_pretrain_only():
    ds = blobs_dataset()
    cfg = small_cfg(steps_k=0)
    hist, state = run(ds.source_x, ds.source_y, ds.target_x, cfg,
                      eval_x=ds.target_x, eval_y=ds.target_y_hidden,
                      target_y_hidden=ds.target_y_hidden)
    assert len(hist) == 1 and hist[0].step == 0
    assert state.step == 0


def test_history_length_and_steps():
    ds = blobs_dataset()
    cfg = small_cfg(steps_k=3)
    hist, _ = run(ds.source_x, ds.source_y, ds.target_x, cfg)
    assert [m.step for m in hist] == [0, 1, 2, 3]


def test_pseudo_set_respects_candidate_budget():
    ds = blobs_dataset()
    cfg = small_cfg(steps_k=4, labeling=LabelingConfig(n_init=50, threshold=0.5))
    hist, _ = run(ds.source_x, ds.source_y, ds.target_x, cfg)
    n = len(ds.target_x)
    for m in hist:
        budget = trainer.candidate_count(m.step, n, cfg.labeling)
        assert m.n_pseudo <= budget


def test_run_is_seed_deterministic():
    ds = blobs_dataset()
    cfg = small_cfg(steps_k=2)
    h1, s1 = run(ds.source_x, ds.source_y, ds.target_x, cfg,
                 eval_x=ds.target_x, eval_y=ds.target_y_hidden,
                 target_y_hidden=ds.target_y_hidden)
    h2, s2 = run(ds.source_x, ds.source_y, ds.target_x, small_cfg(steps_k=2),
                 eval_x=ds.target_x, eval_y=ds.target_y_hidden,
                 target_y_hidden=ds.target_y_hidden)
    for a, b in zip(h1, h2):
        assert a == b
    p1, p2 = named(s1.net), named(s2.net)
    for k in p1:
        np.testing.assert_array_equal(p1[k], p2[k])


def test_oracle_pseudo_labels_recover_supervised_accuracy():
    # if the labeler is replaced by ground truth, the target head should do
    # about as well as training on labeled target data directly
    ds = blobs_dataset(rotation=40.0)
    cfg = small_cfg(steps_k=3)
    state = init_state(cfg, 2, ds.num_classes)
    pretrain(state, ds.source_x, ds.source_y)
    idx = np.arange(len(ds.target_x))
    oracle = PseudoLabelSet(indices=idx, labels=ds.target_y_hidden,
                            confidences=np.ones(len(idx)))
    for k in range(1, cfg.steps_k + 1):
        _, _, _ = adapt_step(state, ds.source_x, ds.source_y, ds.target_x, oracle, k)
    acc_oracle = evaluate(state.net, ds.target_x, ds.target_y_hidden)["ft"]

    sup = init_state(small_cfg(steps_k=0), 2, ds.num_classes)
    pretrain(sup, ds.target_x, ds.target_y_hidden)
    acc_sup = evaluate(sup.net, ds.target_x, ds.target_y_hidden)["ft"]
    assert acc_oracle >= acc_sup - 0.05


def test_tiny_pseudo_set_skips_target_phase():
    ds = blobs_dataset()
    cfg = small_cfg()
    state = init_state(cfg, 2, ds.num_classes)
    pretrain(state, ds.source_x, ds.source_y)
    empty = PseudoLabelSet()
    before = {k: v.copy() for k, v in named(state.net).items()
              if k.startswith("ft/")}
    adapt_step(state, ds.source_x, ds.source_y, ds.target_x, empty, 1)
    after = named(state.net)
    for k in before:
        np.testing.assert_array_equal(before[k], after[k])


def test_lr_decay_kicks_in_after_threshold_step():
    ds = blobs_dataset()
    cfg = small_cfg(steps_k=2, lr_decay_step=1, lr_decay_to=0.003)
    _, state = run(ds.source_x, ds.source_y, ds.target_x, cfg)
    assert state.opt.lr == 0.003


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_exact_fraction():
    ds = blobs_dataset()
    cfg = small_cfg()
    state = init_state(cfg, 2, ds.num_classes)
    pretrain(state, ds.source_x, ds.source_y)
    probs = state.net.forward(ds.source_x)
    expected = {b: sum(int(np.argmax(p) == y) for p, y in zip(probs[i], ds.source_y))
                / len(ds.source_y) for i, b in enumerate(TriNet.BRANCHES)}
    assert evaluate(state.net, ds.source_x, ds.source_y) == expected


def test_one_extractor_eval_pass_per_labeling_and_per_capture(monkeypatch):
    # one pass labels the candidates for f1 and f2, one scores all three heads
    ds = blobs_dataset(rotation=20.0)
    cfg = small_cfg()
    state = init_state(cfg, 2, ds.num_classes)
    pretrain(state, ds.source_x, ds.source_y)
    pseudo = PseudoLabelSet(indices=np.arange(50), labels=ds.target_y_hidden[:50])
    passes = []
    eval_pass = state.net.f.eval

    def spy(x):
        passes.append(len(x))
        return eval_pass(x)

    monkeypatch.setattr(state.net.f, "eval", spy)
    pseudo, mean_e, mean_p = adapt_step(state, ds.source_x, ds.source_y, ds.target_x,
                                        pseudo, 1)
    m = trainer._capture(state, pseudo, ds.target_x, ds.target_y_hidden,
                         ds.target_y_hidden, 1, mean_e, mean_p)
    assert len(passes) == 2
    assert (m.acc_f1, m.acc_f2, m.acc_ft) == tuple(
        evaluate(state.net, ds.target_x, ds.target_y_hidden).values())


def moons_60():
    return datagen.generate(datagen.ShiftSpec(generator="two_moons", n_source=60, n_target=60,
                                              rotation_deg=30, noise_sigma=0.1, seed=0))


# (argument, its length) for 60 + 60 rows; without the check the first three
# ran to the end and the last failed mid-pretraining with an IndexError
LABEL_LENGTHS = [("source_y", 67), ("eval_y", 1), ("target_y_hidden", 120), ("source_y", 30)]


@pytest.mark.parametrize("name, length", LABEL_LENGTHS,
                         ids=[f"{name}-{length}" for name, length in LABEL_LENGTHS])
def test_run_rejects_labels_of_another_length_naming_them(name, length):
    ds = moons_60()
    labels = {"source_y": ds.source_y, "eval_y": ds.target_y_hidden,
              "target_y_hidden": ds.target_y_hidden}
    labels[name] = np.resize(labels[name], length)
    rows = {"source_y": "source_x", "eval_y": "eval_x", "target_y_hidden": "target_x"}[name]
    with pytest.raises(ValueError, match=rf"^{name} has length {length}, but {rows} has 60 rows$"):
        run(ds.source_x, labels["source_y"], ds.target_x, small_cfg(), eval_x=ds.target_x,
            eval_y=labels["eval_y"], target_y_hidden=labels["target_y_hidden"])


def test_run_without_source_labels_raises_naming_them():
    # numpy used to raise a TypeError converting None to int64
    ds = moons_60()
    with pytest.raises(ValueError, match="^source_y is None"):
        run(ds.source_x, None, ds.target_x, small_cfg())


def first_label(value):
    """An edit of a label array: its first label set to `value`."""
    def edit(y):
        y = y.astype(type(value))
        y[0] = value
        return y
    return edit


# (edit of the source labels, TrainConfig fields, num_classes, the value the
# error names). The first three used to train: labels truncated toward an
# integer, a bad label no batch drew, and one that a one-pass phase drew
# mid-pretraining, refused there without the argument's name
BAD_SOURCE_LABELS = {
    "fractional": (lambda y: y + 0.7, {}, None, "0.7"),
    "negative_undrawn": (first_label(-3), dict(iter_per_phase=1, pretrain_iters=1,
                                               batch_labeling=4, batch_target=4), None, "-3"),
    "negative_drawn": (first_label(-3), dict(iter_per_phase=None, pretrain_iters=None), None,
                       "-3"),
    "num_classes": (lambda y: y * 2, {}, 2, "2"),
    "nan": (first_label(math.nan), {}, None, "nan"),
}


@pytest.mark.parametrize("bad", BAD_SOURCE_LABELS)
def test_run_refuses_source_labels_that_are_not_class_indices_naming_them(bad):
    ds = moons_60()
    edit, fields, num_classes, value = BAD_SOURCE_LABELS[bad]
    with pytest.raises(ValueError, match=rf"^source_y holds {value}, not an integer in \[0, "):
        run(ds.source_x, edit(ds.source_y), ds.target_x, small_cfg(hidden_dim=4, **fields),
            num_classes=num_classes)


# (edit of a label array, the value the error names); the first two used to
# run to the end, eval_y scoring every prediction wrong, acc_ft 0.0, and
# `evaluate` scored each of them 0.0 on every head without a word
BAD_CLASS_LABELS = {"fractional": (lambda y: y + 0.5, r"[01]\.5"), "of_k": (first_label(2), "2"),
                    "of_k_and_above": (lambda y: y + 2, "[23]"),
                    "nan": (first_label(math.nan), "nan")}


@pytest.mark.parametrize("bad", BAD_CLASS_LABELS)
@pytest.mark.parametrize("name", ["eval_y", "target_y_hidden"])
def test_run_refuses_eval_and_hidden_labels_that_are_not_class_indices_naming_them(
        name, bad, monkeypatch):
    ds = moons_60()
    labels = {"eval_y": ds.target_y_hidden, "target_y_hidden": ds.target_y_hidden}
    edit, value = BAD_CLASS_LABELS[bad]
    labels[name] = edit(labels[name])
    # refused before anything trains
    monkeypatch.setattr(trainer, "init_state", None)
    with pytest.raises(ValueError, match=rf"^{name} holds {value}, not an integer in \[0, 2\)$"):
        run(ds.source_x, ds.source_y, ds.target_x, small_cfg(hidden_dim=4, steps_k=1),
            eval_x=ds.target_x, **labels)


def with_value(value, column=0):
    """An edit of a feature array: its first row's `column` set to `value`."""
    def edit(x):
        x = x.copy()
        x[0, column] = value
        return x
    return edit


# (argument, its edit, error, message). A 1-D source_x ended in an
# IndexError; a NaN in source_x was reported as a divergence at batch 0,
# one in eval_x was scored without a word, and a 3-column target_x or
# eval_x failed after pretraining with a message naming no argument
BAD_FEATURES = {
    "source_x_1d": ("source_x", lambda x: x[:, 0], ShapeError,
                    r"source_x has shape \(60,\), not \(rows, features\)"),
    "source_x_nan": ("source_x", with_value(math.nan), ValueError,
                     "source_x holds nan, not a finite number"),
    "target_x_inf": ("target_x", with_value(-math.inf, 1), ValueError,
                     "target_x holds -inf, not a finite number"),
    "eval_x_nan": ("eval_x", with_value(math.nan, 1), ValueError,
                   "eval_x holds nan, not a finite number"),
    "target_x_3_columns": ("target_x", lambda x: np.hstack([x, x[:, :1]]), ShapeError,
                           "target_x has 3 columns, but source_x has 2"),
    "eval_x_3_columns": ("eval_x", lambda x: np.hstack([x, x[:, :1]]), ShapeError,
                         "eval_x has 3 columns, but source_x has 2"),
}


@pytest.mark.parametrize("bad", BAD_FEATURES)
def test_run_refuses_feature_arrays_that_are_not_finite_matrices_naming_them(bad, monkeypatch):
    ds = moons_60()
    arrays = {"source_x": ds.source_x, "target_x": ds.target_x, "eval_x": ds.target_x}
    name, edit, error, message = BAD_FEATURES[bad]
    arrays[name] = edit(arrays[name])
    # refused before anything trains
    monkeypatch.setattr(trainer, "init_state", None)
    with pytest.raises(error, match=f"^{message}$"):
        run(arrays["source_x"], ds.source_y, arrays["target_x"],
            small_cfg(hidden_dim=4, steps_k=1), eval_x=arrays["eval_x"],
            eval_y=ds.target_y_hidden, target_y_hidden=ds.target_y_hidden)


def test_evaluate_rejects_labels_of_another_length():
    # a 1-element y broadcast against every prediction
    ds = moons_60()
    net = build_net(small_cfg(use_bn=False), 2, 2)
    with pytest.raises(ValueError, match=r"^y has length 1, but x has 60 rows$"):
        evaluate(net, ds.target_x, ds.target_y_hidden[:1])


@pytest.mark.parametrize("bad", BAD_CLASS_LABELS)
def test_evaluate_refuses_labels_that_are_not_class_indices_naming_them(bad):
    ds = moons_60()
    net = build_net(small_cfg(use_bn=False), 2, 2)
    edit, value = BAD_CLASS_LABELS[bad]
    with pytest.raises(ValueError, match=rf"^y holds {value}, not an integer in \[0, 2\)$"):
        evaluate(net, ds.target_x, edit(ds.target_y_hidden))


def test_evaluate_rejects_missing_labels():
    net = build_net(small_cfg(), 2, 2)
    with pytest.raises(ValueError, match="labels"):
        evaluate(net, np.zeros((4, 2)), None)


def test_run_without_eval_labels_reports_nan_accuracy():
    ds = blobs_dataset()
    hist, _ = run(ds.source_x, ds.source_y, ds.target_x, small_cfg(steps_k=1))
    for m in hist:
        assert np.isnan([m.acc_f1, m.acc_f2, m.acc_ft]).all()


@pytest.mark.parametrize("given", ["eval_x", "eval_y"])
def test_run_with_only_one_of_eval_x_and_eval_y_raises_naming_the_other(given):
    # either one alone used to run to the end with every accuracy NaN
    ds = moons_60()
    evaluation = {"eval_x": ds.target_x, "eval_y": ds.target_y_hidden}
    missing = ({"eval_x", "eval_y"} - {given}).pop()
    with pytest.raises(ValueError, match=f"^{missing} is None"):
        run(ds.source_x, ds.source_y, ds.target_x, small_cfg(), **{given: evaluation[given]})


def test_evaluate_rejects_empty():
    net = build_net(small_cfg(), 2, 2)
    with pytest.raises(ValueError):
        evaluate(net, np.empty((0, 2)), np.empty(0))


# ---------------------------------------------------------------------------
# persistence


def test_metrics_csv_round_trip(tmp_path):
    ds = blobs_dataset()
    hist, _ = run(ds.source_x, ds.source_y, ds.target_x, small_cfg(steps_k=2),
                  eval_x=ds.target_x, eval_y=ds.target_y_hidden,
                  target_y_hidden=ds.target_y_hidden)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(hist, path)
    back = read_metrics_csv(path)
    assert back == hist


def test_checkpoint_resume_is_bit_identical(tmp_path):
    ds = blobs_dataset()
    cfg = small_cfg(steps_k=4)

    # straight-through run
    h_full, s_full = run(ds.source_x, ds.source_y, ds.target_x, cfg)

    # run two steps manually, checkpoint, reload, finish
    state = init_state(cfg, 2, ds.num_classes)
    pretrain(state, ds.source_x, ds.source_y)
    count = trainer.candidate_count(0, len(ds.target_x), cfg.labeling)
    cand = trainer.sample_candidates(len(ds.target_x), count, state.rng_label)
    pseudo = trainer.label_candidates(state.net, ds.target_x, cand, cfg.labeling.threshold)
    for k in (1, 2):
        pseudo, _, _ = adapt_step(state, ds.source_x, ds.source_y, ds.target_x, pseudo, k)
    path = tmp_path / "ckpt.npz"
    save_state(path, state)
    resumed = load_state(path)
    assert resumed.step == 2
    for k in (3, 4):
        pseudo, _, _ = adapt_step(resumed, ds.source_x, ds.source_y, ds.target_x, pseudo, k)

    a, b = checkpoint_arrays(s_full), checkpoint_arrays(resumed)
    for k in a:
        if k.startswith(("param/", "state/")):
            np.testing.assert_array_equal(a[k], b[k])


# ---------------------------------------------------------------------------
# divergence


def test_divergent_pretraining_raises_naming_the_phase():
    ds = blobs_dataset()
    with np.errstate(all="ignore"), pytest.raises(
            trainer.DivergenceError, match="labeling phase of pretrain: loss nan"):
        run(ds.source_x, ds.source_y, ds.target_x, small_cfg(lr=1e6))


@pytest.mark.parametrize("head, phase", [("f1", "labeling"), ("ft", "target")])
def test_divergence_in_adaptation_names_the_step(head, phase):
    ds = blobs_dataset()
    cfg = small_cfg()
    state = init_state(cfg, 2, ds.num_classes)
    pretrain(state, ds.source_x, ds.source_y)
    pseudo = PseudoLabelSet(indices=np.arange(40), labels=ds.target_y_hidden[:40])
    named(state.net)[f"{head}/W"][0, 0] = np.nan
    with pytest.raises(trainer.DivergenceError, match=f"{phase} phase of step 2: loss nan at batch 0"):
        adapt_step(state, ds.source_x, ds.source_y, ds.target_x, pseudo, 2)


def test_empty_phase_nan_mean_is_not_divergence():
    ds = blobs_dataset()
    cfg = small_cfg()
    state = init_state(cfg, 2, ds.num_classes)
    # iter_per_phase = 0 runs no batch
    mean_e, mean_p = trainer._phase(state, "labeling", ds.source_x, ds.source_y, 0,
                                    "pretrain")
    assert np.isnan(mean_e) and np.isnan(mean_p)
