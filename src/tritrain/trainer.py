"""End-to-end training loop: source pretraining, the k-step adaptation loop
alternating (shared+labeling heads on source ∪ pseudo-labeled) and
(shared+target head on pseudo-labeled), relabeling, and metric capture."""
from __future__ import annotations

import csv
import json
import logging
import math
import zipfile
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import labeler
from .labeler import LabelingConfig, PseudoLabelSet, candidate_count, label_candidates, sample_candidates
from .nnlib import ConfigError, LayerSpec, ShapeError, make_optimizer
from .trinet import GradientGates, TriNet

log = logging.getLogger(__name__)


class DivergenceError(RuntimeError):
    """A training batch produced a non-finite loss."""


# 3: the resolved TrainConfig replaces the layer specs; `load_state` rebuilds
# the net through `init_state`
CHECKPOINT_VERSION = 3

METRIC_FIELDS = ("step", "acc_f1", "acc_f2", "acc_ft", "labeling_acc",
                 "n_pseudo", "mean_E", "mean_penalty")


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
        if self.use_bn and min(self.batch_labeling, self.batch_target) < 2:
            raise ConfigError("batch sizes must be >= 2 when batch norm is active")
        if self.activation not in ("sigmoid", "relu"):
            raise ConfigError(f"unsupported activation {self.activation!r}")


@dataclass
class StepMetrics:
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


def build_net(cfg: TrainConfig, in_dim: int, num_classes: int) -> TriNet:
    """Shared extractor: affine -> activation [-> dropout] [-> batch norm];
    each head: a single softmax-producing affine layer."""
    h = cfg.hidden_dim
    f_specs = [LayerSpec("affine", in_dim, h), LayerSpec(cfg.activation, h, h)]
    if cfg.dropout_rate > 0:
        f_specs.append(LayerSpec("dropout", h, h, dropout_rate=cfg.dropout_rate))
    if cfg.use_bn:
        f_specs.append(LayerSpec("batch_norm", h, h))
    branch_specs = [LayerSpec("affine", h, num_classes)]
    return TriNet(f_specs, branch_specs, num_classes, lam=cfg.lam,
                  gates=cfg.gates, seed=cfg.seed)


def init_state(cfg: TrainConfig, in_dim: int, num_classes: int) -> TrainState:
    ss = np.random.SeedSequence(cfg.seed).spawn(3)
    net = build_net(cfg, in_dim, num_classes)
    opt = make_optimizer(cfg.optimizer, cfg.lr, momentum=cfg.momentum, eps=cfg.adagrad_eps)
    return TrainState(cfg=cfg, net=net, opt=opt,
                      rng_train=np.random.default_rng(ss[1]),
                      rng_label=np.random.default_rng(ss[2]))


def _batches(n: int, batch: int, iters: int | None, rng):
    """Mini-batch index draws. One shuffled pass when iters is None, otherwise
    `iters` independent without-replacement draws. Batches under 2 rows are
    dropped (batch norm needs >= 2)."""
    batch = min(batch, n)
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


def _step_params(net: TriNet, phase: str):
    """Flat parameter and gradient buffers the optimizer may touch in a
    phase, one entry per sub-network, honoring the gates. The buffers are
    never rebound, so the dicts stay valid for the whole phase."""
    names = ("f1", "f2") if phase == "labeling" else ("ft",)
    if net.gates.from_f1_f2 if phase == "labeling" else net.gates.from_ft:
        names += ("f",)
    return ({n: getattr(net, n).theta for n in names},
            {n: getattr(net, n).grad for n in names})


def _check_finite(loss, phase, where, batch):
    if not math.isfinite(loss):
        raise DivergenceError(f"{phase} phase of {where}: loss {loss} at batch {batch}")


def _labeling_phase(state, pool_x, pool_y, cfg, iters, where="pretrain"):
    """Update f1/f2 (and gated f) by the joint objective; returns batch means.
    `where` ("pretrain" or "step k") names the phase in a DivergenceError."""
    es, ps = [], []
    params, grads = _step_params(state.net, "labeling")
    for b, idx in enumerate(_batches(len(pool_x), cfg.batch_labeling, iters, state.rng_train)):
        e, parts = state.net.joint_labeling_loss(pool_x[idx], pool_y[idx],
                                                mode="train", rng=state.rng_train)
        _check_finite(e, "labeling", where, b)
        state.opt.step(params, grads)
        es.append(e)
        ps.append(parts["penalty"])
    return (float(np.mean(es)), float(np.mean(ps))) if es else (float("nan"), float("nan"))


def _target_phase(state, pool_x, pool_y, cfg, iters, where="pretrain"):
    params, grads = _step_params(state.net, "target")
    for b, idx in enumerate(_batches(len(pool_x), cfg.batch_target, iters, state.rng_train)):
        loss = state.net.target_loss(pool_x[idx], pool_y[idx], mode="train", rng=state.rng_train)
        _check_finite(loss, "target", where, b)
        state.opt.step(params, grads)


def pretrain(state: TrainState, source_x, source_y, cfg: TrainConfig):
    """Train all four networks on mini-batches from the labeled source set."""
    if len(source_x) < 2:
        # mini-batches under 2 rows are dropped, so nothing would train
        raise ValueError(f"training needs at least 2 source rows, got {len(source_x)}")
    iters = cfg.pretrain_iters if cfg.pretrain_iters is not None else cfg.iter_per_phase
    mean_e, mean_p = _labeling_phase(state, source_x, source_y, cfg, iters)
    _target_phase(state, source_x, source_y, cfg, iters)
    return mean_e, mean_p


def adapt_step(state: TrainState, source_x, source_y, target_x,
               pseudo: PseudoLabelSet, cfg: TrainConfig, step_k: int):
    """One adaptation step: train on source ∪ pseudo-labeled, then on the
    pseudo-labeled pool alone, then rebuild the pseudo-label set from a fresh
    candidate sample of size candidate_count(step_k)."""
    if cfg.lr_decay_step is not None and step_k > cfg.lr_decay_step:
        state.opt.lr = cfg.lr_decay_to
    pool_x = np.vstack([source_x, target_x[pseudo.indices]])
    pool_y = np.concatenate([source_y, pseudo.labels])
    where = f"step {step_k}"
    mean_e, mean_p = _labeling_phase(state, pool_x, pool_y, cfg, cfg.iter_per_phase, where)
    if len(pseudo) >= 2:
        _target_phase(state, target_x[pseudo.indices], pseudo.labels, cfg,
                      cfg.iter_per_phase, where)
    else:
        log.warning("step %d: pseudo-label set too small (%d); skipping target phase",
                    step_k, len(pseudo))
    count = candidate_count(step_k, len(target_x), cfg.labeling)
    cand = sample_candidates(len(target_x), count, state.rng_label)
    new_pseudo = label_candidates(state.net, target_x, cand,
                                  cfg.labeling.threshold, step_k)
    state.step = step_k
    return new_pseudo, mean_e, mean_p


def evaluate(net: TriNet, x, y) -> dict[str, float]:
    """Each head's fraction of argmax-correct predictions, from one
    eval-mode pass."""
    if len(x) == 0:
        raise ValueError("empty evaluation set")
    if y is None:
        raise ValueError("evaluation needs labels; the dataset has none")
    y = np.asarray(y)
    return {b: float(np.mean(out.predicted_class == y)) for b, out in net.forward(x).items()}


def _capture(state, pseudo, eval_x, eval_y, target_y_hidden, step, mean_e, mean_p):
    accs = {b: float("nan") for b in TriNet.BRANCHES}
    if eval_x is not None and eval_y is not None and len(eval_x) > 0:
        accs = evaluate(state.net, eval_x, eval_y)
    lab_acc = float("nan")
    if target_y_hidden is not None:
        lab_acc = labeler.labeling_accuracy(pseudo, target_y_hidden)
    return StepMetrics(step=step, acc_f1=accs["f1"], acc_f2=accs["f2"],
                       acc_ft=accs["ft"], labeling_acc=lab_acc,
                       n_pseudo=len(pseudo), mean_E=mean_e, mean_penalty=mean_p)


def run(source_x, source_y, target_x, cfg: TrainConfig,
        eval_x=None, eval_y=None, target_y_hidden=None,
        state: TrainState | None = None):
    """Full procedure: pretrain on source, label an initial candidate pool,
    then steps_k adaptation steps. Returns (history, state); the reported
    model is the target-specific head."""
    source_y = np.asarray(source_y, dtype=np.int64)
    num_classes = int(source_y.max()) + 1 if len(source_y) else 2
    if state is None:
        state = init_state(cfg, source_x.shape[1], num_classes)
    mean_e, mean_p = pretrain(state, source_x, source_y, cfg)
    count = candidate_count(0, len(target_x), cfg.labeling)
    cand = sample_candidates(len(target_x), count, state.rng_label)
    pseudo = label_candidates(state.net, target_x, cand, cfg.labeling.threshold, 0)
    history = [_capture(state, pseudo, eval_x, eval_y, target_y_hidden, 0, mean_e, mean_p)]
    for k in range(1, cfg.steps_k + 1):
        pseudo, mean_e, mean_p = adapt_step(state, source_x, source_y, target_x,
                                            pseudo, cfg, k)
        history.append(_capture(state, pseudo, eval_x, eval_y, target_y_hidden,
                                k, mean_e, mean_p))
    return history, state


# ---------------------------------------------------------------------------
# metrics / checkpoint i/o


def write_metrics_csv(history, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(METRIC_FIELDS)
        for m in history:
            w.writerow([m.step,
                        repr(m.acc_f1), repr(m.acc_f2), repr(m.acc_ft),
                        repr(m.labeling_acc), m.n_pseudo,
                        repr(m.mean_E), repr(m.mean_penalty)])


def read_metrics_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [StepMetrics(step=int(r["step"]),
                        acc_f1=float(r["acc_f1"]), acc_f2=float(r["acc_f2"]),
                        acc_ft=float(r["acc_ft"]),
                        labeling_acc=float(r["labeling_acc"]),
                        n_pseudo=int(r["n_pseudo"]),
                        mean_E=float(r["mean_E"]),
                        mean_penalty=float(r["mean_penalty"]))
            for r in rows]


def save_state(path, state: TrainState):
    """One npz: a `__meta__` JSON record (version, resolved config, input and
    class counts, the optimizer's current lr, step, RNG states) plus the
    parameter, batch-norm and optimizer-slot arrays. The pseudo-label pool
    is not stored."""
    net = state.net
    meta = {"version": CHECKPOINT_VERSION, "config": asdict(state.cfg),
            "in_dim": net.f.in_dim, "num_classes": net.num_classes,
            "lr": state.opt.lr, "step": state.step,
            "rng_states": {"train": state.rng_train.bit_generator.state,
                           "label": state.rng_label.bit_generator.state}}
    arrays = {f"param/{k}": v for k, v in net.named_params().items()}
    arrays.update({f"state/{k}": v for k, v in net.named_state().items()})
    arrays.update({f"opt/main/{k}": v for k, v in state.opt.state_arrays().items()})
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
    the arrays, lr, RNG states and step in. Anything unreadable, missing or
    malformed is an IOError naming the path."""
    try:
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        meta = json.loads(bytes(arrays.pop("__meta__")).decode())
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        c = dict(meta["config"])
        c["labeling"] = _exact(LabelingConfig, c["labeling"])
        c["gates"] = _exact(GradientGates, c["gates"])
        state = init_state(_exact(TrainConfig, c), meta["in_dim"], meta["num_classes"])
        for name in ("f",) + TriNet.BRANCHES:
            seq = getattr(state.net, name)
            seq.set_params(arrays, prefix=f"param/{name}/")
            seq.set_state(arrays, prefix=f"state/{name}/")
        state.opt.load_state_arrays({k[len("opt/main/"):]: v for k, v in arrays.items()
                                     if k.startswith("opt/main/")})
        for name, slot in state.opt.slots.items():
            if slot.shape != getattr(state.net, name).theta.shape:
                raise ShapeError(f"optimizer slot {name} shape {slot.shape}")
        state.opt.lr = float(meta["lr"])
        state.rng_train.bit_generator.state = meta["rng_states"]["train"]
        state.rng_label.bit_generator.state = meta["rng_states"]["label"]
        state.step = int(meta["step"])
    except _BAD_CHECKPOINT as exc:
        raise IOError(f"cannot load checkpoint {path}: {exc}") from exc
    return state
