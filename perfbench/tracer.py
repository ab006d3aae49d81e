"""Measure the program's modules from outside, without editing them.

The benchmark patches the public functions and methods that the program
calls, at the place where each caller looks the name up: a module attribute
for a module-level function (also in every module that imported the name
with `from ... import`), a class attribute for a method. Two patch layers
exist:

* `Probe`, always on: counts the rows fed to the two training objectives
  and the time spent in `trainer.run`. It adds two counter updates per
  optimizer step and is how the untraced run gets `train_rows_per_s`.
* `Tracer`, only with `--trace 1`: records one span per wrapped call (name,
  start, end, parent span, operation id) in flat in-memory arrays, plus
  counters taken at the same boundaries. `summarize` turns them into the
  per-module metrics; `save` writes the spans once the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

from tritrain import analysis, cli, datagen, labeler, nnlib, trainer, trinet

_clock = time.perf_counter


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class _Patcher:
    """Replace attributes and put the originals back, in reverse order."""

    def __init__(self):
        self._saved = []

    def patch(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        # a method a class inherits is patched on that class and deleted again
        own = not isinstance(owner, type) or attr in owner.__dict__
        self._saved.append((owner, attr, original, own))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def restore(self):
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class Probe:
    """Row counter on the training objectives and a timer on `trainer.run`;
    `rows` and `train_s` accumulate until the caller resets them."""

    def __init__(self):
        self.rows = 0
        self.train_s = 0.0
        self._patcher = _Patcher()

    def reset(self):
        self.rows, self.train_s = 0, 0.0

    def _count_rows(self, fn):
        def wrapper(net, x, *args, **kwargs):
            self.rows += len(x)
            return fn(net, x, *args, **kwargs)
        return wrapper

    def _time_run(self, fn):
        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.train_s += _clock() - t0
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        self._patcher.patch(trinet.TriNet, "joint_labeling_loss", self._count_rows)
        self._patcher.patch(trinet.TriNet, "target_loss", self._count_rows)
        self._patcher.patch(trainer, "run", self._time_run)
        try:
            yield self
        finally:
            self._patcher.restore()


# ---------------------------------------------------------------------------
# counter hooks: (args, kwargs, result) -> {counter: increment}


def _affine_fwd_flop(a, k, r):
    x, W = _arg(a, k, 0, "x"), _arg(a, k, 1, "W")
    return {"affine_flop": 2 * x.shape[0] * W.shape[0] * W.shape[1]}


def _affine_bwd_flop(a, k, r):
    dout, x = _arg(a, k, 0, "dout"), _arg(a, k, 1, "x")
    return {"affine_flop": 4 * x.shape[0] * x.shape[1] * dout.shape[1]}


def _forward_rows(a, k, r):
    return {"forward_rows": len(_arg(a, k, 1, "x"))}


def _objective_rows(a, k, r):
    return {"trainer_rows": len(_arg(a, k, 1, "x"))}


def _labeled(a, k, r):
    return {"candidates": len(_arg(a, k, 2, "candidate_idx")), "accepted": len(r)}


def _pool_bytes(a, k, r):
    # adapt_step gathers the pseudo-labeled rows, stacks them under the
    # source rows, and gathers them again for the target phase
    source_x, target_x = _arg(a, k, 1, "source_x"), _arg(a, k, 3, "target_x")
    pseudo = _arg(a, k, 4, "pseudo")
    n_src, n_ps = len(source_x), len(pseudo)
    rows = n_ps + (n_src + n_ps) + (n_ps if n_ps >= 2 else 0)
    return {"pool_bytes": rows * target_x.shape[1] * target_x.itemsize}


def _hdh(a, k, r):
    h = len(_arg(a, k, 0, "h"))
    # the source and target disagreement matrices, H x H float64 each
    return {"hdh_calls": 1, "hypotheses": h, "hdh_pairs": h * h,
            "disagreement_bytes": 2 * h * h * 8}


def _violations(a, k, r):
    return {"violations": len(r.violations)}


# (owner, attribute, span name, counter hook). Names imported with
# `from ... import` are listed once per importing module.
SITES = [
    (nnlib, "affine_forward", "nnlib.affine.fwd", _affine_fwd_flop),
    (nnlib, "affine_backward", "nnlib.affine.bwd", _affine_bwd_flop),
    (nnlib, "sigmoid", "nnlib.sigmoid.fwd", None),
    (nnlib, "batch_norm_train", "nnlib.batch_norm.fwd", None),
    (nnlib, "batch_norm_eval", "nnlib.batch_norm.fwd", None),
    (nnlib, "batch_norm_backward", "nnlib.batch_norm.bwd", None),
    (nnlib, "softmax_cross_entropy", "nnlib.softmax_cross_entropy", None),
    (trinet, "softmax_cross_entropy", "nnlib.softmax_cross_entropy", None),
    (analysis, "softmax_cross_entropy", "nnlib.softmax_cross_entropy", None),
    (nnlib.MomentumSGD, "step", "nnlib.opt_step", None),
    (nnlib.Adagrad, "step", "nnlib.opt_step", None),
    (nnlib.Sequential, "zero_grads", "nnlib.zero_grads", None),
    (trinet.TriNet, "joint_labeling_loss", "trinet.joint_labeling_loss", _objective_rows),
    (trinet.TriNet, "target_loss", "trinet.target_loss", _objective_rows),
    (trinet, "weight_divergence", "trinet.weight_divergence", None),
    (trinet.TriNet, "forward", "trinet.forward", _forward_rows),
    (labeler, "label_candidates", "labeler.label_candidates", _labeled),
    (trainer, "label_candidates", "labeler.label_candidates", _labeled),
    (labeler, "sample_candidates", "labeler.sample_candidates", None),
    (trainer, "sample_candidates", "labeler.sample_candidates", None),
    (trainer, "run", "trainer.run", None),
    (trainer, "pretrain", "trainer.pretrain", None),
    (trainer, "adapt_step", "trainer.adapt_step", _pool_bytes),
    (trainer, "evaluate", "trainer.evaluate", None),
    (datagen, "generate", "datagen.generate", None),
    (analysis, "make_stump_class", "analysis.make_stump_class", None),
    (analysis, "verify_theorem1", "analysis.verify_theorem1", _violations),
    (analysis, "verify_rho_bound", "analysis.verify_rho_bound", _violations),
    (analysis, "empirical_hdh_distance", "analysis.empirical_hdh_distance", _hdh),
    (analysis, "a_distance", "analysis.a_distance", None),
    (cli, "main", "cli.main", None),
]
OBJECTIVES = ("trinet.joint_labeling_loss", "trinet.target_loss")


class Tracer:
    """Spans and counters of the wrapped calls, grouped by operation."""

    def __init__(self):
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.sid, self.parent, self.op = array("q"), array("q"), array("q")
        self.name, self.t0, self.t1 = array("H"), array("d"), array("d")
        self.counters: dict[int, dict[str, float]] = {}
        self.missing_sites: list[str] = []
        self.op_labels: list[str] = []
        self._next = 0
        self._stack: list[int] = []
        self._objective_depth = 0
        self._op = -1
        self._patcher = _Patcher()

    def begin_op(self, label: str) -> None:
        """Start a new operation; later spans carry its id."""
        self.op_labels.append(label)
        self._op = len(self.op_labels) - 1

    def _count(self, incs):
        c = self.counters.setdefault(self._op, {})
        for key, v in incs.items():
            c[key] = c.get(key, 0) + v

    def _span(self, name, hook):
        if name not in self._name_idx:
            self._name_idx[name] = len(self.names)
            self.names.append(name)
        idx = self._name_idx[name]
        objective = name in OBJECTIVES
        stack = self._stack

        def make(fn):
            def wrapper(*args, **kwargs):
                sid = self._next
                self._next += 1
                parent = stack[-1] if stack else -1
                stack.append(sid)
                self._objective_depth += objective
                t0 = _clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = _clock()
                    stack.pop()
                    self._objective_depth -= objective
                    self.sid.append(sid)
                    self.parent.append(parent)
                    self.op.append(self._op)
                    self.name.append(idx)
                    self.t0.append(t0)
                    self.t1.append(t1)
                if hook is not None:
                    self._count(hook(args, kwargs, result))
                return result
            return wrapper
        return make

    def _layer_counter(self, fn):
        # layer calls made inside a training objective, for
        # trinet.layer_calls_per_opt_step
        def wrapper(*args, **kwargs):
            if self._objective_depth:
                self._count({"layer_calls": 1})
            return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        for owner, attr, name, hook in SITES:
            if not hasattr(owner, attr):
                # the span may then read zero, which the patch-site check reports
                owner_name = getattr(owner, "__qualname__", owner.__name__)
                self.missing_sites.append(f"{owner_name}.{attr}")
                continue
            self._patcher.patch(owner, attr, self._span(name, hook))
        for cls in nnlib.Layer.__subclasses__():
            for attr in ("forward", "backward"):
                if attr in cls.__dict__:
                    self._patcher.patch(cls, attr, self._layer_counter)
        try:
            yield self
        finally:
            self._patcher.restore()

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays ordered by span id (which is start order)."""
        order = np.argsort(np.frombuffer(self.sid, dtype=np.int64), kind="stable")
        cols = {k: np.frombuffer(getattr(self, k), dtype=dt)[order]
                for k, dt in (("sid", np.int64), ("parent", np.int64), ("op", np.int64),
                              ("name", np.uint16), ("t0", np.float64), ("t1", np.float64))}
        return cols

    def save(self, path) -> None:
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), op_labels=np.array(self.op_labels),
                            **cols)

    def span_calls(self) -> dict[str, int]:
        """Calls recorded per span name."""
        counts = np.bincount(np.frombuffer(self.name, dtype=np.uint16), minlength=len(self.names))
        return {n: int(counts[i]) for i, n in enumerate(self.names)}

    def summarize(self, ops) -> dict[str, float]:
        """Per-module metrics, each per operation over `ops` unless a rate
        or ratio; datagen metrics are per call over every traced call."""
        cols = self.arrays()
        n = len(cols["sid"])
        if n and cols["sid"][-1] != n - 1:
            raise RuntimeError("a started span was never recorded")
        dur = cols["t1"] - cols["t0"]
        has_parent = cols["parent"] >= 0
        child = np.bincount(cols["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        in_ops = np.isin(cols["op"], list(ops))
        n_ops = max(len(ops), 1)
        idx = {name: i for i, name in enumerate(self.names)}

        def sel(name):
            return in_ops & (cols["name"] == idx.get(name, -1))

        def per_op(name, values=dur):
            return float(values[sel(name)].sum()) / n_ops

        def calls(name):
            return float(sel(name).sum()) / n_ops

        counters: dict[str, float] = {}
        for op in ops:
            for key, v in self.counters.get(op, {}).items():
                counters[key] = counters.get(key, 0) + v

        def counter(key):
            return counters.get(key, 0) / n_ops

        # optimizer steps inside trainer.run, each charged to the objective
        # that preceded it
        run_i, opt_i = idx.get("trainer.run", -1), idx.get("nnlib.opt_step", -1)
        obj_i = {idx.get(o, -1): o for o in OBJECTIVES}
        in_trainer = [False] * n
        phase = {o: 0.0 for o in OBJECTIVES}
        opt_steps = 0
        last_obj = None
        names, parents = cols["name"].tolist(), cols["parent"].tolist()
        durs, in_ops_l = dur.tolist(), in_ops.tolist()
        for s in range(n):
            p = parents[s]
            in_trainer[s] = names[s] == run_i or (p >= 0 and in_trainer[p])
            if not (in_ops_l[s] and in_trainer[s]):
                continue
            if names[s] in obj_i:
                last_obj = obj_i[names[s]]
                phase[last_obj] += durs[s]
            elif names[s] == opt_i and last_obj is not None:
                phase[last_obj] += durs[s]
                opt_steps += 1

        def all_calls(name):
            m = cols["name"] == idx.get(name, -1)
            return int(m.sum()), float(dur[m].sum())

        gen_n, gen_s = all_calls("datagen.generate")
        hdh_s = per_op("analysis.empirical_hdh_distance") * n_ops

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "nnlib.affine.fwd_s": per_op("nnlib.affine.fwd"),
            "nnlib.affine.bwd_s": per_op("nnlib.affine.bwd"),
            "nnlib.affine.calls": calls("nnlib.affine.fwd") + calls("nnlib.affine.bwd"),
            "nnlib.affine.gflop": counter("affine_flop") / 1e9,
            "nnlib.sigmoid.fwd_s": per_op("nnlib.sigmoid.fwd"),
            "nnlib.batch_norm.fwd_s": per_op("nnlib.batch_norm.fwd"),
            "nnlib.batch_norm.bwd_s": per_op("nnlib.batch_norm.bwd"),
            "nnlib.softmax_cross_entropy.s": per_op("nnlib.softmax_cross_entropy"),
            "nnlib.opt_step.s": per_op("nnlib.opt_step"),
            "nnlib.opt_step.calls": calls("nnlib.opt_step"),
            "nnlib.zero_grads.s": per_op("nnlib.zero_grads"),
            "trinet.joint_labeling_loss.self_s": per_op("trinet.joint_labeling_loss", self_time),
            "trinet.target_loss.self_s": per_op("trinet.target_loss", self_time),
            "trinet.weight_divergence.s": per_op("trinet.weight_divergence"),
            "trinet.layer_calls_per_opt_step": ratio(counters.get("layer_calls", 0), opt_steps),
            "trinet.forward.s": per_op("trinet.forward"),
            "trinet.forward.rows": counter("forward_rows"),
            "labeler.label_candidates.s": per_op("labeler.label_candidates"),
            "labeler.sample_candidates.s": per_op("labeler.sample_candidates"),
            "labeler.candidates": counter("candidates"),
            "labeler.accepted": counter("accepted"),
            "labeler.accept_ratio": ratio(counters.get("accepted", 0),
                                          counters.get("candidates", 0)),
            "trainer.pretrain.s": per_op("trainer.pretrain"),
            "trainer.adapt_step.self_s": per_op("trainer.adapt_step", self_time),
            "trainer.evaluate.s": per_op("trainer.evaluate"),
            "trainer.evaluate.calls": calls("trainer.evaluate"),
            "trainer.opt_steps": opt_steps / n_ops,
            "trainer.rows": counter("trainer_rows"),
            "trainer.labeling_phase_s": phase["trinet.joint_labeling_loss"] / n_ops,
            "trainer.target_phase_s": phase["trinet.target_loss"] / n_ops,
            "trainer.pool_bytes_copied": counter("pool_bytes"),
            "datagen.generate.s": ratio(gen_s, gen_n),
            "analysis.verify_theorem1.s": per_op("analysis.verify_theorem1"),
            "analysis.verify_rho_bound.s": per_op("analysis.verify_rho_bound"),
            "analysis.empirical_hdh_distance.s": per_op("analysis.empirical_hdh_distance"),
            "analysis.empirical_hdh_distance.calls": calls("analysis.empirical_hdh_distance"),
            "analysis.hypotheses": ratio(counters.get("hypotheses", 0),
                                         counters.get("hdh_calls", 0)),
            "analysis.hdh_pairs_per_s": ratio(counters.get("hdh_pairs", 0), hdh_s),
            "analysis.disagreement_bytes": counter("disagreement_bytes"),
            "analysis.a_distance.s": per_op("analysis.a_distance"),
            "analysis.violations": counter("violations"),
            "cli.main.s": per_op("cli.main"),
            "cli.self_s": per_op("cli.main", self_time),
        }
