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
import sys
import typing
from pathlib import Path

import numpy as np

from . import analysis, datagen, labeler, trainer, trinet
from .nnlib import ConfigError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VERIFY = 4
EXIT_DIVERGED = 5

# data keys that pick a dataset on disk instead of a generated ShiftSpec
LOADER_KEYS = ("dir", "format", "source_path", "target_path", "dim")


def _field_types(cls, skip=()) -> dict:
    return {k: t for k, t in typing.get_type_hints(cls).items() if k not in skip}


# config section -> dataclass field -> its type; `train.lambda` sets TrainConfig.lam
FIELD_TYPES = {
    "data": _field_types(datagen.ShiftSpec),
    "train": _field_types(trainer.TrainConfig, skip=("lam", "labeling", "gates")) | {"lambda": float},
    "labeling": _field_types(labeler.LabelingConfig),
    "gates": _field_types(trinet.GradientGates),
}
# config section -> the keys it accepts
SECTION_KEYS = {
    "data": set(FIELD_TYPES["data"]) | set(LOADER_KEYS),
    "train": set(FIELD_TYPES["train"]),
    "labeling": set(FIELD_TYPES["labeling"]),
    "gates": set(FIELD_TYPES["gates"]),
    "bound": {"max_hypotheses", "max_samples", "thresholds_per_dim", "pretrain_iters"},
}
# field type -> (what the error calls it, the test a value must pass); an int
# is a valid float, a bool is not a valid int, and a tuple comes as a JSON list
_VALUE_CHECKS = {
    bool: ("true or false", lambda v: type(v) is bool),
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", lambda v: type(v) in (int, float)),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("a list", lambda v: isinstance(v, (list, tuple))),
}


def _check_type(key: str, val, tp):
    """ConfigError naming `key` unless `val` fits the field type `tp`; an
    optional field (`int | None`) also takes null."""
    options = typing.get_args(tp) or (tp,)
    if val is None and type(None) in options:
        return
    name, ok = _VALUE_CHECKS[options[0]]
    if not ok(val):
        raise ConfigError(f"config key {key!r} must be {name}, got {val!r}")


def parse_config_text(text: str) -> dict:
    """Flat `section.key = value` lines; values are JSON literals with a
    bare-string fallback. Blank lines and # comments are ignored."""
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        try:
            cfg[key] = json.loads(val)
        except json.JSONDecodeError:
            cfg[key] = val
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
    out = {}
    for key, val in cfg.items():
        if not key.startswith(prefix + "."):
            continue
        sub = key[len(prefix) + 1:]
        if sub not in SECTION_KEYS[prefix]:
            raise ConfigError(f"unknown config key {key!r}")
        if sub in FIELD_TYPES.get(prefix, {}):
            _check_type(key, val, FIELD_TYPES[prefix][sub])
        out[sub] = val
    return out


def _check_known(cfg: dict):
    for key in cfg:
        prefix = key.split(".", 1)[0]
        if prefix not in SECTION_KEYS:
            raise ConfigError(f"unknown config key {key!r}")


def build_shift_spec(cfg: dict) -> datagen.ShiftSpec:
    d = _section(cfg, "data")
    for k in LOADER_KEYS:
        d.pop(k, None)
    return datagen.ShiftSpec.from_dict(d)


def build_train_config(cfg: dict, seed_override=None) -> trainer.TrainConfig:
    t = _section(cfg, "train")
    if "lambda" in t:
        t["lam"] = t.pop("lambda")
    lab = _section(cfg, "labeling")
    gates = _section(cfg, "gates")
    if lab:
        t["labeling"] = labeler.LabelingConfig(**lab)
    if gates:
        t["gates"] = trinet.GradientGates(**gates)
    if seed_override is not None:
        t["seed"] = seed_override
    return trainer.TrainConfig(**t)


def write_manifest(out_dir: Path, command: str, config: dict, config_path, seed):
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"command": command, "config_path": str(config_path),
                "output_dir": str(out_dir), "seed": seed, "config": config}
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _resolve(args) -> dict:
    cfg = load_config(args.config)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        try:
            cfg[key.strip()] = json.loads(val.strip())
        except json.JSONDecodeError:
            cfg[key.strip()] = val.strip()
    _check_known(cfg)
    if getattr(args, "seed", None) is not None:
        if any(k.startswith("data.") for k in cfg):
            cfg["data.seed"] = args.seed
        cfg["train.seed"] = args.seed
    return cfg


def _load_dataset(cfg: dict):
    d = _section(cfg, "data")
    if "dir" in d:
        return datagen.load_dataset(d["dir"])
    if d.get("format") == "sparse_bow":
        if "dim" not in d:
            raise ConfigError("data.format = \"sparse_bow\" needs data.dim")
        dim = int(d["dim"])
        sx, sy = datagen.load_sparse_bow(d["source_path"], dim)
        tx, ty = datagen.load_sparse_bow(d["target_path"], dim)
        return datagen.DomainDataset(source_x=sx, source_y=sy, target_x=tx,
                                     target_y_hidden=ty,
                                     num_classes=int(max(sy.max(), ty.max())) + 1)
    return datagen.generate(build_shift_spec(cfg))


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    cfg = _resolve(args)
    spec = build_shift_spec(cfg)
    out = Path(args.out)
    write_manifest(out, "gen-data", cfg, args.config, spec.seed)
    ds = datagen.generate(spec)
    datagen.save_dataset(out, ds, spec)
    print(f"wrote dataset ({ds.source_x.shape[0]} source, "
          f"{ds.target_x.shape[0]} target) to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _resolve(args)
    tcfg = build_train_config(cfg)
    out = Path(args.out)
    write_manifest(out, "train", cfg, args.config, tcfg.seed)
    ds = _load_dataset(cfg)
    history, state = trainer.run(
        ds.source_x, ds.source_y, ds.target_x, tcfg,
        eval_x=ds.target_x, eval_y=ds.target_y_hidden,
        target_y_hidden=ds.target_y_hidden)
    trainer.write_metrics_csv(history, out / "metrics.csv")
    trainer.save_state(out / "checkpoint.npz", state)
    final = history[-1]
    print(f"final step {final.step}: acc_ft={final.acc_ft:.4f} "
          f"acc_f1={final.acc_f1:.4f} acc_f2={final.acc_f2:.4f} "
          f"n_pseudo={final.n_pseudo}")
    return EXIT_OK


def cmd_eval(args) -> int:
    state = trainer.load_state(args.checkpoint)
    ds = datagen.load_dataset(args.data)
    accs = trainer.evaluate(state.net, ds.target_x, ds.target_y_hidden)
    result = accs if args.branch == "all" else {args.branch: accs[args.branch]}
    print(json.dumps(result, indent=2, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def cmd_adist(args) -> int:
    state = trainer.load_state(args.checkpoint)
    ds = datagen.load_dataset(args.data)
    d_raw = analysis.a_distance(ds.source_x, ds.target_x, seed=args.seed or 0)
    d_feat = analysis.a_distance(state.net.features(ds.source_x),
                                 state.net.features(ds.target_x), seed=args.seed or 0)
    result = {"d_A_raw": d_raw, "d_A_features": d_feat}
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_bound_check(args) -> int:
    cfg = _resolve(args)
    b = _section(cfg, "bound")
    max_h = int(b.get("max_hypotheses", 2000))
    max_n = int(b.get("max_samples", 1000))
    out = Path(args.out)
    write_manifest(out, "bound-check", cfg, args.config, cfg.get("train.seed", 0))
    ds = _load_dataset(cfg)
    n_total = len(ds.source_x) + len(ds.target_x)
    if n_total > max_n:
        raise ConfigError(f"instance too large: {n_total} samples > bound.max_samples={max_n}")
    if ds.num_classes != 2:
        raise ConfigError("bound checking is defined for binary tasks")
    hyp = analysis.make_stump_class(np.vstack([ds.source_x, ds.target_x]),
                                    max_thresholds_per_dim=int(b.get("thresholds_per_dim", 20)))
    if len(hyp) > max_h:
        raise ConfigError(f"instance too large: {len(hyp)} hypotheses > "
                          f"bound.max_hypotheses={max_h}")
    c_offset = -0.1 if args.inject_fault else 0.0
    s_xy = (ds.source_x, ds.source_y)
    t_xy = (ds.target_x, ds.target_y_hidden)
    report1 = analysis.verify_theorem1(hyp, s_xy, t_xy, c_offset=c_offset)
    # pseudo labels for the rho check come from a briefly pretrained net
    tcfg = dataclasses.replace(build_train_config(cfg), steps_k=0,
                               pretrain_iters=int(b.get("pretrain_iters", 100)))
    _, state = trainer.run(ds.source_x, ds.source_y, ds.target_x, tcfg)
    pseudo_y = state.net.forward(ds.target_x)["f1"].predicted_class
    report2 = analysis.verify_rho_bound(hyp, s_xy, t_xy, pseudo_y,
                                        rho_offset=c_offset if args.inject_fault else 0.0,
                                        theorem1=report1)
    d_a = analysis.a_distance(ds.source_x, ds.target_x, seed=tcfg.seed)
    analysis.emit_report([], report2, out, d_a=d_a,
                         extra={"theorem1": report1.summary(),
                                "theorem1_violations": report1.violations})
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
    except (ConfigError, datagen.ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IOError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except trainer.DivergenceError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
