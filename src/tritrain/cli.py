"""Command-line surface: data generation, training, evaluation, divergence
measurement and bound checking, driven by flat key=value config files.

Exit codes: 0 success, 2 configuration or input-data error, 3 I/O error,
4 verification failure (bound violations), 5 training diverged (a
non-finite batch loss).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
import typing
from pathlib import Path

import numpy as np

from . import analysis, datagen, labeler, trainer, trinet
from .nnlib import ConfigError, check_range

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VERIFY = 4
EXIT_DIVERGED = 5


@dataclasses.dataclass
class BoundCheckConfig:
    """The `bound.*` keys: instance caps, stumps per dim, and the pretraining
    of the net whose pseudo-labels the rho check uses."""
    max_hypotheses: int = 2000
    max_samples: int = 1000
    thresholds_per_dim: int = 20
    pretrain_iters: int = 100

    def __post_init__(self):
        # a class holds at most analysis.MAX_HYPOTHESES stumps
        for name, *interval in (("max_hypotheses", 1, analysis.MAX_HYPOTHESES + 1),
                                ("max_samples", 1), ("thresholds_per_dim", 1),
                                ("pretrain_iters", 0)):
            check_range(f"bound.{name}", getattr(self, name), *interval)


def _field_types(cls, skip=()) -> dict:
    return {k: t for k, t in typing.get_type_hints(cls).items() if k not in skip}


# config section -> key -> its type: every key a config may hold. Most are
# dataclass fields; `data.dir` reads a dataset directory instead of
# generating one, and `train.lambda` sets TrainConfig.lam
SCHEMA = {
    "data": _field_types(datagen.ShiftSpec) | {"dir": str},
    "train": _field_types(trainer.TrainConfig, skip=("lam", "labeling", "gates")) | {"lambda": float},
    "labeling": _field_types(labeler.LabelingConfig),
    "gates": _field_types(trinet.GradientGates),
    "bound": _field_types(BoundCheckConfig),
}
# type -> (what the error calls it, the test a value must pass); an int is a
# valid float, a bool is not a valid int, and a tuple comes as a JSON list
_VALUE_CHECKS = {
    bool: ("true or false", lambda v: type(v) is bool),
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", lambda v: type(v) in (int, float)),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("a list", lambda v: isinstance(v, (list, tuple))),
}


def _check_key(key: str, val):
    """ConfigError naming `key` unless SCHEMA holds it and `val` fits its
    type; an optional type (`int | None`) also takes null."""
    section, _, name = key.partition(".")
    tp = SCHEMA.get(section, {}).get(name)
    if tp is None:
        raise ConfigError(f"unknown config key {key!r}")
    options = typing.get_args(tp) or (tp,)
    if val is None and type(None) in options:
        return
    what, ok = _VALUE_CHECKS[options[0]]
    if not ok(val):
        raise ConfigError(f"config key {key!r} must be {what}, got {val!r}")


def _literal(text: str, where: str):
    """A JSON literal, or the bare string when `text` is not one and has no
    `"`; else a ConfigError naming `where`, its config line or --set item."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        if '"' not in text:
            return text
    raise ConfigError(f"{where}: a value with a quote must be one JSON literal, got {text}")


# a config line up to its comment: text outside JSON strings, where `#`
# starts the comment, and whole strings, with their escapes
_UNCOMMENTED = re.compile(r'(?:[^"#]|"(?:[^"\\]|\\.)*")*')


def parse_config_text(text: str) -> dict:
    """Flat `section.key = value` lines; values are JSON literals, or bare
    strings if unquoted. Blank lines and # comments outside a string are
    ignored; a string left open is a ConfigError naming its line."""
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _UNCOMMENTED.match(raw)[0]
        if raw[len(line):].startswith('"'):
            raise ConfigError(f"config line {lineno}: unterminated string in {raw!r}")
        if not line.strip():
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        cfg[key.strip()] = _literal(val.strip(), f"config line {lineno}")
    return cfg


def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise IOError(f"config file not found: {path}")
    if path.suffix == ".json":
        with open(path) as fh:
            data = json.load(fh)
        # a manifest re-runs from its resolved snapshot
        if isinstance(data, dict) and "config" in data:
            data = data["config"]
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: the config must be a JSON object, "
                              f"got {type(data).__name__}")
        return data
    return parse_config_text(path.read_text())


def _section(cfg: dict, prefix: str) -> dict:
    """The `prefix.*` keys without the prefix, each checked by `_check_key`."""
    out = {}
    for key, val in cfg.items():
        if key.startswith(prefix + "."):
            _check_key(key, val)
            out[key[len(prefix) + 1:]] = val
    return out


def build_shift_spec(cfg: dict) -> datagen.ShiftSpec:
    return datagen.ShiftSpec(**{k: v for k, v in _section(cfg, "data").items() if k != "dir"})


def build_train_config(cfg: dict) -> trainer.TrainConfig:
    t = _section(cfg, "train")
    if "lambda" in t:
        t["lam"] = t.pop("lambda")
    lab = _section(cfg, "labeling")
    gates = _section(cfg, "gates")
    if lab:
        t["labeling"] = labeler.LabelingConfig(**lab)
    if gates:
        t["gates"] = trinet.GradientGates(**gates)
    return trainer.TrainConfig(**t)


def write_manifest(out_dir: Path, command: str, config: dict, config_path, seed):
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"command": command, "config_path": str(config_path),
                "output_dir": str(out_dir), "seed": seed, "config": config}
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve(args) -> dict:
    cfg = load_config(args.config)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        cfg[key.strip()] = _literal(val.strip(), f"--set {item!r}")
    if args.seed is not None:
        # only a generator reads data.seed
        if "data.dir" not in cfg:
            cfg["data.seed"] = args.seed
        cfg["train.seed"] = args.seed
    for key, val in cfg.items():
        _check_key(key, val)
    return cfg


def _load_dataset(cfg: dict) -> datagen.DomainDataset:
    """The dataset of `train` and `bound-check`, generated from the `data.*`
    generator keys or read from `data.dir`, after `trainer.check_inputs`
    passes it as training data. Commands call it before any output, so a
    bad input leaves none."""
    if "data.dir" in cfg:
        ds = datagen.load_dataset(cfg["data.dir"])
    else:
        ds = datagen.generate(build_shift_spec(cfg))
    trainer.check_inputs(ds.source_x, ds.source_y, ds.target_x, None, None,
                         ds.target_y_hidden, ds.num_classes)
    return ds


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    cfg = _resolve(args)
    if "data.dir" in cfg:
        raise ConfigError("gen-data writes a generated dataset and takes no data.dir")
    spec = build_shift_spec(cfg)
    ds = datagen.generate(spec)
    out = Path(args.out)
    write_manifest(out, "gen-data", cfg, args.config, spec.seed)
    datagen.save_dataset(out, ds, spec)
    print(f"wrote dataset ({ds.source_x.shape[0]} source, "
          f"{ds.target_x.shape[0]} target) to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _resolve(args)
    tcfg = build_train_config(cfg)
    ds = _load_dataset(cfg)
    out = Path(args.out)
    write_manifest(out, "train", cfg, args.config, tcfg.seed)
    history, state = trainer.run(
        ds.source_x, ds.source_y, ds.target_x, tcfg,
        eval_x=None if ds.target_y_hidden is None else ds.target_x, eval_y=ds.target_y_hidden,
        target_y_hidden=ds.target_y_hidden, num_classes=ds.num_classes)
    trainer.write_metrics_csv(history, out / "metrics.csv")
    trainer.save_state(out / "checkpoint.npz", state)
    final = history[-1]
    print(f"final step {final.step}: acc_ft={final.acc_ft:.4f} "
          f"acc_f1={final.acc_f1:.4f} acc_f2={final.acc_f2:.4f} "
          f"n_pseudo={final.n_pseudo}")
    return EXIT_OK


def _checkpoint_and_dataset(args, classes: bool):
    """The `--checkpoint` state and the `--data` dataset, after a ConfigError
    naming both paths unless the dataset has the checkpoint's feature count
    and, if `classes`, its class count."""
    state = trainer.load_state(args.checkpoint)
    ds = datagen.load_dataset(args.data)
    counts = {"features": (ds.target_x.shape[1], state.net.f.in_dim)}
    if classes:
        counts["classes"] = (ds.num_classes, state.net.num_classes)
    for what, (have, want) in counts.items():
        if have != want:
            raise ConfigError(f"dataset {args.data} has {have} {what}, but checkpoint "
                              f"{args.checkpoint} was trained on {want}")
    return state, ds


def cmd_eval(args) -> int:
    state, ds = _checkpoint_and_dataset(args, classes=True)
    accs = trainer.evaluate(state.net, ds.target_x, ds.target_y_hidden)
    result = accs if args.branch == "all" else {args.branch: accs[args.branch]}
    text = json.dumps(result, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return EXIT_OK


def cmd_adist(args) -> int:
    check_range("--seed", args.seed, 0)
    state, ds = _checkpoint_and_dataset(args, classes=False)
    d_raw = analysis.a_distance(ds.source_x, ds.target_x, seed=args.seed)
    d_feat = analysis.a_distance(state.net.features(ds.source_x),
                                 state.net.features(ds.target_x), seed=args.seed)
    result = {"d_A_raw": d_raw, "d_A_features": d_feat}
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_bound_check(args) -> int:
    cfg = _resolve(args)
    b = BoundCheckConfig(**_section(cfg, "bound"))
    # pseudo labels for the rho check come from a briefly pretrained net
    tcfg = build_train_config(cfg | {"train.steps_k": 0, "train.pretrain_iters": b.pretrain_iters})
    ds = _load_dataset(cfg)
    n_total = len(ds.source_x) + len(ds.target_x)
    if n_total > b.max_samples:
        raise ConfigError(f"instance too large: {n_total} samples > "
                          f"bound.max_samples={b.max_samples}")
    if ds.num_classes != 2:
        raise ConfigError("bound checking is defined for binary tasks")
    if ds.target_y_hidden is None:
        raise ConfigError("bound checking needs the target labels; the dataset has none")
    hyp = analysis.make_stump_class(np.vstack([ds.source_x, ds.target_x]),
                                    max_thresholds_per_dim=b.thresholds_per_dim)
    if len(hyp) > b.max_hypotheses:
        raise ConfigError(f"instance too large: {len(hyp)} hypotheses > "
                          f"bound.max_hypotheses={b.max_hypotheses}")
    out = Path(args.out)
    write_manifest(out, "bound-check", cfg, args.config, tcfg.seed)
    # train before the exhaustive check, so a bad train.* value fails first;
    # each stage seeds itself, so the order moves no bits
    _, state = trainer.run(ds.source_x, ds.source_y, ds.target_x, tcfg,
                           num_classes=ds.num_classes)
    pseudo_y = state.net.forward(ds.target_x)[0].argmax(axis=1)
    c_offset = -0.1 if args.inject_fault else 0.0
    s_xy = (ds.source_x, ds.source_y)
    t_xy = (ds.target_x, ds.target_y_hidden)
    report1 = analysis.verify_theorem1(hyp, s_xy, t_xy, c_offset=c_offset)
    report2 = analysis.verify_rho_bound(hyp, t_xy, pseudo_y, report1, rho_offset=c_offset)
    d_a = analysis.a_distance(ds.source_x, ds.target_x, seed=tcfg.seed)
    analysis.emit_report(report1, report2, d_a, out)
    # bound-check has no steps; the benchmark digests this header-only file
    trainer.write_metrics_csv([], out / "metrics.csv")
    n_bad = len(report1.violations) + len(report2.violations)
    print(f"theorem check: {len(report1.violations)} violations; "
          f"pseudo-label extension: {len(report2.violations)} violations")
    return EXIT_VERIFY if n_bad else EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tritrain",
                                description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="config file (key=value or manifest JSON)")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="seed override")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key")

    sp = sub.add_parser("gen-data", help="generate a synthetic domain-shift dataset")
    common(sp)
    sp.set_defaults(func=cmd_gen_data)

    sp = sub.add_parser("train", help="run the full adaptation procedure")
    common(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--data", required=True, help="dataset directory")
    sp.add_argument("--branch", default="ft", choices=["f1", "f2", "ft", "all"])
    sp.add_argument("--out", default=None, help="optional JSON output path")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("adist", help="proxy A-distance on raw inputs and shared features")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_adist)

    sp = sub.add_parser("bound-check", help="verify the generalization bound exhaustively")
    common(sp)
    sp.add_argument("--inject-fault", action="store_true",
                    help="negative control: corrupt the ideal-joint error term")
    sp.set_defaults(func=cmd_bound_check)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except trainer.DivergenceError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
