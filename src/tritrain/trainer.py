"""End-to-end training loop: source pretraining, the k-step adaptation loop
alternating (shared+labeling heads on source ∪ pseudo-labeled) and
(shared+target head on pseudo-labeled), relabeling, and metric capture."""
from __future__ import annotations

import csv
import json
import logging
import math
import typing
import zipfile
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from . import labeler
from .labeler import (LabelingConfig, PseudoLabelSet, candidate_count, class_labels,
                      label_candidates, sample_candidates)
from .nnlib import ConfigError, ShapeError, make_optimizer
from .trinet import GradientGates, TriNet

log = logging.getLogger(__name__)


class DivergenceError(RuntimeError):
    """A training batch produced a non-finite loss."""


# 3: the resolved TrainConfig replaces the layer specs; `load_state` rebuilds
# the net through `init_state`
CHECKPOINT_VERSION = 3


@dataclass
class TrainConfig:
    steps_k: int = 20
    iter_per_phase: int | None = None   # None: one pass over the phase's pool
    pretrain_iters: int | None = None   # None: same as iter_per_phase
    batch_labeling: int = 64
    batch_target: int = 128
    optimizer: str = "momentum_sgd"
    lr: float = 0.01
    momentum: float = 0.9
    adagrad_eps: float = 1e-8
    lr_decay_step: int | None = None    # decay after this adaptation step
    lr_decay_to: float = 0.001
    lam: float = 0.01
    hidden_dim: int = 50
    activation: str = "sigmoid"
    use_bn: bool = True
    dropout_rate: float = 0.0
    labeling: LabelingConfig = field(default_factory=LabelingConfig)
    gates: GradientGates = field(default_factory=GradientGates)
    seed: int = 0

    def __post_init__(self):
        if self.steps_k < 0:
            raise ConfigError("steps_k must be >= 0")
        for name in ("iter_per_phase", "pretrain_iters"):
            iters = getattr(self, name)
            if iters is not None and iters < 0:
                raise ConfigError(f"{name} must be >= 0, got {iters}")
        for name in ("batch_labeling", "batch_target"):
            size = getattr(self, name)
            if size < 2:
                raise ConfigError(f"{name} must be >= 2, got {size}")
        if self.activation not in ("sigmoid", "relu"):
            raise ConfigError(f"unsupported activation {self.activation!r}")
        if self.optimizer not in ("momentum_sgd", "adagrad"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.hidden_dim < 1:
            raise ConfigError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        # written as `not (in range)` so that NaN fails too
        for name in ("lr", "adagrad_eps", "lr_decay_to"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be > 0 and finite, got {getattr(self, name)}")
        for name in ("dropout_rate", "momentum"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not self.lam >= 0:
            raise ConfigError(f"lambda (lam) must be >= 0, got {self.lam}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.use_bn and _pretrain_iters(self) == 0:
            raise ConfigError("pretraining runs no batch (pretrain_iters, or iter_per_phase when "
                              "it is unset, is 0), so batch norm gets no running statistics")


@dataclass
class StepMetrics:
    """One metrics.csv row; the fields, in order, are its columns."""
    step: int
    acc_f1: float
    acc_f2: float
    acc_ft: float
    labeling_acc: float
    n_pseudo: int
    mean_E: float
    mean_penalty: float


@dataclass
class TrainState:
    cfg: TrainConfig
    net: TriNet
    opt: object
    rng_train: np.random.Generator
    rng_label: np.random.Generator
    step: int = 0
    # the networks that have stepped, in first-step order, their slot names' order
    stepped: list[str] = field(default_factory=list)


def build_net(cfg: TrainConfig, in_dim: int, num_classes: int) -> TriNet:
    """Shared extractor: affine -> activation [-> dropout] [-> batch norm];
    each head: a single softmax-producing affine layer."""
    return TriNet(in_dim, num_classes, cfg.hidden_dim, cfg.activation, cfg.dropout_rate,
                  cfg.use_bn, lam=cfg.lam, gates=cfg.gates, seed=cfg.seed)


def init_state(cfg: TrainConfig, in_dim: int, num_classes: int) -> TrainState:
    ss = np.random.SeedSequence(cfg.seed).spawn(3)
    net = build_net(cfg, in_dim, num_classes)
    opt = make_optimizer(cfg.optimizer, cfg.lr, momentum=cfg.momentum, eps=cfg.adagrad_eps)
    return TrainState(cfg=cfg, net=net, opt=opt,
                      rng_train=np.random.default_rng(ss[1]),
                      rng_label=np.random.default_rng(ss[2]))


def _batches(n: int, batch: int, iters: int | None, rng):
    """Mini-batch index draws of `batch` <= n rows. One shuffled pass when
    iters is None, otherwise `iters` independent without-replacement draws.
    Batches under 2 rows are dropped (batch norm needs >= 2)."""
    if batch < 2:
        return
    if iters is None:
        perm = rng.permutation(n)
        # the last start is at most n - 2, so every chunk has >= 2 rows
        for start in range(0, n - 1, batch):
            yield perm[start:start + batch]
    else:
        for _ in range(iters):
            yield rng.choice(n, size=batch, replace=False)


def _phase(state: TrainState, phase: str, x, y, iters, where: str):
    """Train the heads of `phase` and, if its gate is open, f on mini-batches
    of (x, y). Returns the batch means of the loss and, labeling only, of the
    weight penalty, NaN where none ran. `where` ("pretrain" or "step k")
    names the phase in a DivergenceError."""
    net = state.net
    names, span = net.span(phase)
    # the objectives write every gradient the phase steps; a closed gate
    # leaves f's at this zero
    net.f.zero_grads()
    losses, penalties = [], []
    batch = min(getattr(state.cfg, f"batch_{phase}"), len(x))
    # the arena is never rebound; only a shorter last batch needs another workspace
    bound = state.opt.bind(net.theta, net.grad, span)
    ws = net.workspace(phase, batch)
    for b, idx in enumerate(_batches(len(x), batch, iters, state.rng_train)):
        if len(idx) != ws.n:
            ws = net.workspace(phase, len(idx))
        # the rows of x[idx], from a call that costs a fraction of indexing's
        xb, yb = x.take(idx, axis=0), y[idx]
        if phase == "labeling":
            loss, penalty = net.joint_labeling_loss(xb, yb, ws, rng=state.rng_train)
            penalties.append(penalty)
        else:
            loss = net.target_loss(xb, yb, ws, rng=state.rng_train)
        if not math.isfinite(loss):
            raise DivergenceError(f"{phase} phase of {where}: loss {loss} at batch {b}")
        if b == 0:
            state.stepped += [n for n in names if n not in state.stepped]
        state.opt.step(bound)
        losses.append(loss)
    return tuple(float(np.mean(v)) if v else float("nan") for v in (losses, penalties))


def _pretrain_iters(cfg: TrainConfig) -> int | None:
    return cfg.pretrain_iters if cfg.pretrain_iters is not None else cfg.iter_per_phase


def pretrain(state: TrainState, source_x, source_y):
    """Train all four networks on mini-batches from the labeled source set."""
    if len(source_x) < 2:
        # mini-batches under 2 rows are dropped, so nothing would train
        raise ValueError(f"training needs at least 2 source rows, got {len(source_x)}")
    iters = _pretrain_iters(state.cfg)
    mean_e, mean_p = _phase(state, "labeling", source_x, source_y, iters, "pretrain")
    _phase(state, "target", source_x, source_y, iters, "pretrain")
    return mean_e, mean_p


def _relabel(state: TrainState, target_x, step_k: int) -> PseudoLabelSet:
    """A fresh pseudo-label set from a candidate sample of size
    candidate_count(step_k)."""
    lab = state.cfg.labeling
    count = candidate_count(step_k, len(target_x), lab)
    cand = sample_candidates(len(target_x), count, state.rng_label)
    return label_candidates(state.net, target_x, cand, lab.threshold)


def adapt_step(state: TrainState, source_x, source_y, target_x,
               pseudo: PseudoLabelSet, step_k: int):
    """One adaptation step: train on source ∪ pseudo-labeled, then on the
    pseudo-labeled pool alone, then rebuild the pseudo-label set from a fresh
    candidate sample of size candidate_count(step_k)."""
    cfg = state.cfg
    if cfg.lr_decay_step is not None and step_k > cfg.lr_decay_step:
        state.opt.lr = cfg.lr_decay_to
    pool_x = np.vstack([source_x, target_x[pseudo.indices]])
    pool_y = np.concatenate([source_y, pseudo.labels])
    where = f"step {step_k}"
    mean_e, mean_p = _phase(state, "labeling", pool_x, pool_y, cfg.iter_per_phase, where)
    if len(pseudo) >= 2:
        _phase(state, "target", target_x[pseudo.indices], pseudo.labels, cfg.iter_per_phase,
               where)
    else:
        log.warning("step %d: pseudo-label set too small (%d); skipping target phase",
                    step_k, len(pseudo))
    new_pseudo = _relabel(state, target_x, step_k)
    state.step = step_k
    return new_pseudo, mean_e, mean_p


def _check_labels(name: str, y, rows_name: str, rows) -> None:
    """A ValueError naming `name` unless y, if given, has one label per row
    of `rows`."""
    if y is not None and len(y) != len(rows):
        raise ValueError(f"{name} has length {len(y)}, but {rows_name} has {len(rows)} rows")


def _check_features(source_x, target_x, eval_x) -> None:
    """A ShapeError or ValueError naming the first feature array that is
    not 2-D, as wide as source_x and of finite numbers; eval_x may be None."""
    for name, x in (("source_x", source_x), ("target_x", target_x), ("eval_x", eval_x)):
        if x is None and name == "eval_x":
            continue
        x = np.asarray(x)
        if x.ndim != 2:
            raise ShapeError(f"{name} has shape {x.shape}, not (rows, features)")
        if x.shape[1] != np.shape(source_x)[1]:
            raise ShapeError(f"{name} has {x.shape[1]} columns, but source_x has "
                             f"{np.shape(source_x)[1]}")
        if x.dtype.kind not in "biuf":
            raise ValueError(f"{name} holds {x.dtype} values, not numbers")
        bad = ~np.isfinite(x)
        if bad.any():
            raise ValueError(f"{name} holds {x[bad][0].item()!r}, not a finite number")


def evaluate(net: TriNet, x, y) -> dict[str, float]:
    """Each head's fraction of argmax-correct predictions, from one
    eval-mode pass. `y` holds one label per row of x, each an integer in
    [0, k) for the net's k classes, by the `class_labels` rule `run`
    applies, whose ValueError names `y` and its first bad value."""
    if len(x) == 0:
        raise ValueError("empty evaluation set")
    if y is None:
        raise ValueError("evaluation needs labels; the dataset has none")
    _check_labels("y", y, "x", x)
    y = class_labels("y", y, net.num_classes)
    pred = net.forward(x).argmax(axis=-1)
    return {b: float(np.mean(pred[i] == y)) for i, b in enumerate(TriNet.BRANCHES)}


def _capture(state, pseudo, eval_x, eval_y, target_y_hidden, step, mean_e, mean_p):
    accs = {b: float("nan") for b in TriNet.BRANCHES}
    if eval_x is not None and len(eval_x) > 0:
        accs = evaluate(state.net, eval_x, eval_y)
    lab_acc = float("nan")
    if target_y_hidden is not None:
        lab_acc = labeler.labeling_accuracy(pseudo, target_y_hidden)
    return StepMetrics(step=step, acc_f1=accs["f1"], acc_f2=accs["f2"],
                       acc_ft=accs["ft"], labeling_acc=lab_acc,
                       n_pseudo=len(pseudo), mean_E=mean_e, mean_penalty=mean_p)


def run(source_x, source_y, target_x, cfg: TrainConfig,
        eval_x=None, eval_y=None, target_y_hidden=None, num_classes=None):
    """Full procedure: pretrain on source, label an initial candidate pool,
    then steps_k adaptation steps. Returns (history, state); the reported
    model is the target-specific head. The heads have `num_classes` outputs,
    the dataset's class count; without it, the largest source label + 1.
    Before anything trains, each argument is checked and a bad one named:
    the feature arrays are 2-D, of finite numbers and as wide as source_x;
    each label array has one label per row it labels, every label is an
    integer in [0, num_classes); `eval_x` and `eval_y` come together or not
    at all."""
    if source_y is None:
        raise ValueError("source_y is None: training needs the source labels")
    _check_labels("source_y", source_y, "source_x", source_x)
    _check_labels("target_y_hidden", target_y_hidden, "target_x", target_x)
    if (eval_x is None) != (eval_y is None):
        raise ValueError(f"{'eval_y' if eval_y is None else 'eval_x'} is None: pass both or none")
    _check_labels("eval_y", eval_y, "eval_x", eval_x)
    _check_features(source_x, target_x, eval_x)
    source_y = class_labels("source_y", source_y, num_classes)
    if num_classes is None:
        num_classes = int(source_y.max()) + 1 if len(source_y) else 2
    if eval_y is not None:
        eval_y = class_labels("eval_y", eval_y, num_classes)
    if target_y_hidden is not None:
        target_y_hidden = class_labels("target_y_hidden", target_y_hidden, num_classes)
    state = init_state(cfg, source_x.shape[1], num_classes)
    mean_e, mean_p = pretrain(state, source_x, source_y)
    pseudo = _relabel(state, target_x, 0)
    history = [_capture(state, pseudo, eval_x, eval_y, target_y_hidden, 0, mean_e, mean_p)]
    for k in range(1, cfg.steps_k + 1):
        pseudo, mean_e, mean_p = adapt_step(state, source_x, source_y, target_x, pseudo, k)
        history.append(_capture(state, pseudo, eval_x, eval_y, target_y_hidden,
                                k, mean_e, mean_p))
    return history, state


# ---------------------------------------------------------------------------
# metrics / checkpoint i/o


def write_metrics_csv(history, path):
    """A header of StepMetrics's field names, then one row per step; csv
    writes each float as its repr, so a row reads back exactly."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(f.name for f in fields(StepMetrics))
        w.writerows(astuple(m) for m in history)


def read_metrics_csv(path):
    """The StepMetrics of a metrics.csv, each column cast to its field's type."""
    types = typing.get_type_hints(StepMetrics)
    with open(path, newline="") as fh:
        return [StepMetrics(**{k: types[k](v) for k, v in row.items()})
                for row in csv.DictReader(fh)]


# prefix of a network's optimizer slot, its span of the optimizer's slot
# over the arena
_SLOT = "opt/main/slot/"


def checkpoint_arrays(state: TrainState) -> dict[str, np.ndarray]:
    """Every checkpoint array name, in file order, mapped to the live array
    it holds: `param/<net>/<layer>/<key>` views into the arena,
    `state/f/<layer>/running_{mean,var,count}` f's batch-norm statistics,
    then `opt/main/slot/<net>` the slot spans of the networks that
    stepped, in `state.stepped` order. <layer> is the part's position in
    f's chain: the affine layer is 0, the activation 1, dropout 2 if any,
    then batch norm."""
    net, f = state.net, state.net.f
    arrays = {"param/f/0/W": f.W, "param/f/0/b": f.b}
    bn = "f/3/" if f.dropout_rate > 0 else "f/2/"
    if f.running is not None:
        arrays |= {f"param/{bn}gamma": f.gamma, f"param/{bn}beta": f.beta}
    for head, Wb in net.Wb.items():
        arrays[f"param/{head}/0/W"], arrays[f"param/{head}/0/b"] = Wb[:-1], Wb[-1:]
    if f.running is not None:
        arrays |= {f"state/{bn}running_mean": f.running[0],
                   f"state/{bn}running_var": f.running[1], f"state/{bn}running_count": f.count}
    arrays |= {_SLOT + name: state.opt.slot[net.spans[name]] for name in state.stepped}
    return arrays


def save_state(path, state: TrainState):
    """One npz: a `__meta__` JSON record (version, resolved config, input and
    class counts, the optimizer's current lr, step, RNG states) plus the
    `checkpoint_arrays`. The pseudo-label pool is not stored."""
    net = state.net
    meta = {"version": CHECKPOINT_VERSION, "config": asdict(state.cfg),
            "in_dim": net.f.in_dim, "num_classes": net.num_classes,
            "lr": state.opt.lr, "step": state.step,
            "rng_states": {"train": state.rng_train.bit_generator.state,
                           "label": state.rng_label.bit_generator.state}}
    arrays = checkpoint_arrays(state)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(),
                                       dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


# what reading or rebuilding a malformed checkpoint can raise
_BAD_CHECKPOINT = (OSError, EOFError, zipfile.BadZipFile, ValueError, LookupError,
                   TypeError, AttributeError)


def _exact(cls, d: dict):
    """cls(**d), requiring every field of the dataclass and no other."""
    names = {f.name for f in fields(cls)}
    if set(d) != names:
        raise ValueError(f"{cls.__name__} fields missing {sorted(names - set(d))}, "
                         f"unknown {sorted(set(d) - names)}")
    return cls(**d)


def load_state(path) -> TrainState:
    """Rebuild the stored config, then the state by `init_state`, then copy
    the `checkpoint_arrays`, lr, RNG states and step in. Anything unreadable,
    missing, unknown or malformed is an IOError naming the path, and so is
    a value no trained run writes: an array with a non-finite value, a
    batch-norm `running_count` below 1 or a negative `running_var`, an `lr`
    that is not finite and > 0, or a `step` that is not an integer >= 0."""
    try:
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        meta = json.loads(bytes(arrays.pop("__meta__")).decode())
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        c = dict(meta["config"])
        c["labeling"] = _exact(LabelingConfig, c["labeling"])
        c["gates"] = _exact(GradientGates, c["gates"])
        cfg = _exact(TrainConfig, c)
        # the sizes the net is built from, against the stored weights, before
        # `init_state` allocates anything
        sizes = {"param/f/0/W": (meta["in_dim"], cfg.hidden_dim),
                 "param/f1/0/W": (cfg.hidden_dim, meta["num_classes"])}
        for key, shape in sizes.items():
            if key not in arrays:
                raise ValueError(f"arrays missing {[key]}")
            if arrays[key].shape != shape:
                raise ShapeError(f"array {key} shape {arrays[key].shape} != {shape}, "
                                 f"the in_dim, hidden_dim and num_classes of __meta__")
        state = init_state(cfg, meta["in_dim"], meta["num_classes"])
        # the networks that stepped, in the file's order, and the slot over
        # the arena that holds theirs
        state.stepped = [k[len(_SLOT):] for k in arrays
                         if k.startswith(_SLOT) and k[len(_SLOT):] in state.net.spans]
        state.opt.slot = np.zeros_like(state.net.theta)
        live = checkpoint_arrays(state)
        if live.keys() != arrays.keys():
            raise ValueError(f"arrays missing {sorted(live.keys() - arrays.keys())}, "
                             f"unknown {sorted(arrays.keys() - live.keys())}")
        for key, dst in live.items():
            a = arrays[key]
            if a.shape != dst.shape:
                raise ShapeError(f"array {key} shape {a.shape} != {dst.shape}")
            if not np.isfinite(a).all():
                raise ValueError(f"array {key} holds a non-finite value")
            if key.endswith("running_count") and (a < 1).any():
                raise ValueError(f"array {key} is {a.tolist()}: batch norm saw no batch")
            if key.endswith("running_var") and (a < 0).any():
                raise ValueError(f"array {key} holds a negative variance")
            dst[...] = a
        lr, step = meta["lr"], meta["step"]
        # NaN fails the range too; a bool is no number here
        if type(lr) not in (int, float) or not 0 < lr < math.inf:
            raise ValueError(f"lr {lr!r} is not a finite number > 0")
        if type(step) is not int or step < 0:
            raise ValueError(f"step {step!r} is not an integer >= 0")
        state.opt.lr, state.step = float(lr), step
        state.rng_train.bit_generator.state = meta["rng_states"]["train"]
        state.rng_label.bit_generator.state = meta["rng_states"]["label"]
    except _BAD_CHECKPOINT as exc:
        raise IOError(f"cannot load checkpoint {path}: {exc}") from exc
    return state
