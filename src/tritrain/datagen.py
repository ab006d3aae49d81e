"""Dataset construction: parametric synthetic domain shifts (two moons,
gaussian blobs) and sparse bag-of-words ingestion in `label idx:val ...`
text format (0-based indices)."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .nnlib import ConfigError, check_range

GENERATORS = ("two_moons", "gaussian_blobs")


class ParseError(ValueError):
    """Malformed input file; names the file and the offending line number."""

    def __init__(self, lineno: int, message: str, path):
        super().__init__(f"{path}, line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class ShiftSpec:
    generator: str = "two_moons"
    n_source: int = 500
    n_target: int = 500
    rotation_deg: float = 0.0
    translation: tuple = (0.0, 0.0)
    noise_sigma: float = 0.1
    num_classes: int = 2
    seed: int = 0

    def __post_init__(self):
        self.translation = tuple(self.translation)
        if len(self.translation) != 2:
            raise ConfigError(f"translation must have 2 entries, got {list(self.translation)}")
        check_range("rotation_deg", self.rotation_deg, -math.inf, low_open=True)
        for v in self.translation:
            check_range("translation", v, -math.inf, low_open=True)
        check_range("seed", self.seed, 0)
        if self.generator not in GENERATORS:
            raise ConfigError(f"generator must be one of {GENERATORS}, got {self.generator!r}")
        check_range("num_classes", self.num_classes, 2)
        if self.generator == "two_moons" and self.num_classes != 2:
            raise ConfigError(f"num_classes must be 2 for two_moons, got {self.num_classes}")
        check_range("noise_sigma", self.noise_sigma, 0, low_open=True)
        for name in ("n_source", "n_target"):
            # 2 rows per class
            check_range(name, getattr(self, name), 2 * self.num_classes)


@dataclass
class DomainDataset:
    source_x: np.ndarray
    source_y: np.ndarray
    target_x: np.ndarray
    num_classes: int
    target_y_hidden: np.ndarray | None = None  # evaluation only, never trained on

    def __post_init__(self):
        if self.source_x.shape[1] != self.target_x.shape[1]:
            raise ConfigError("source and target feature dims differ")


def _moons(n, noise, rng):
    # balanced within one sample: alternate classes
    n0 = (n + 1) // 2
    n1 = n - n0
    t0 = rng.uniform(0, np.pi, n0)
    t1 = rng.uniform(0, np.pi, n1)
    outer = np.column_stack([np.cos(t0), np.sin(t0)])
    inner = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    x = np.vstack([outer, inner]) + rng.normal(0, noise, (n, 2))
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    perm = rng.permutation(n)
    return x[perm], y[perm]


def _blobs(n, num_classes, noise, rng):
    angles = 2 * np.pi * np.arange(num_classes) / num_classes
    centers = 2.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    per = [n // num_classes + (1 if c < n % num_classes else 0) for c in range(num_classes)]
    xs, ys = [], []
    for c, m in enumerate(per):
        xs.append(centers[c] + rng.normal(0, noise, (m, 2)))
        ys.append(np.full(m, c, dtype=np.int64))
    x, y = np.vstack(xs), np.concatenate(ys)
    perm = rng.permutation(n)
    return x[perm], y[perm]


def _draw(spec: ShiftSpec, n, rng):
    if spec.generator == "two_moons":
        return _moons(n, spec.noise_sigma, rng)
    return _blobs(n, spec.num_classes, spec.noise_sigma, rng)


def _shift(x, spec: ShiftSpec):
    theta = np.deg2rad(spec.rotation_deg)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    center = x.mean(axis=0) if spec.generator == "two_moons" else np.zeros(2)
    return (x - center) @ rot.T + center + np.asarray(spec.translation, dtype=np.float64)


def generate(spec: ShiftSpec) -> DomainDataset:
    """Source from the base generator; target drawn the same way, then
    rotated/translated. True target labels are retained only as the hidden
    evaluation field. A point that is not finite is a ConfigError naming
    noise_sigma and the shift."""
    ss = np.random.SeedSequence(spec.seed).spawn(2)
    # a large noise_sigma or shift overflows float64, which the check below names
    with np.errstate(over="ignore", invalid="ignore"):
        sx, sy = _draw(spec, spec.n_source, np.random.default_rng(ss[0]))
        tx, ty = _draw(spec, spec.n_target, np.random.default_rng(ss[1]))
        tx = _shift(tx, spec)
    if not (np.isfinite(sx).all() and np.isfinite(tx).all()):
        raise ConfigError(f"noise_sigma {spec.noise_sigma!r} with rotation_deg "
                          f"{spec.rotation_deg!r} and translation {list(spec.translation)} "
                          f"makes points that are not finite")
    return DomainDataset(source_x=sx, source_y=sy, target_x=tx,
                         target_y_hidden=ty, num_classes=spec.num_classes)


# ---------------------------------------------------------------------------
# sparse bag-of-words text format: `<label> (<index>:<value>)*`, 0-based


def load_sparse_bow(path, dim: int, num_classes: int):
    """Parse sparse text into a dense float64 matrix of width `dim` plus an
    integer label vector. Labels -1 are mapped to 0 (common binary encoding);
    any other label outside [0, num_classes) is a ParseError."""
    rows, labels = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            try:
                label = int(fields[0])
            except ValueError:
                raise ParseError(lineno, f"bad label field {fields[0]!r}", path) from None
            if not (label == -1 or 0 <= label < num_classes):
                raise ParseError(lineno, f"label {label} outside [0, {num_classes})", path)
            row = np.zeros(dim)
            for tok in fields[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise ParseError(lineno, f"bad index:value token {tok!r}", path) from None
                if not 0 <= idx < dim:
                    raise ParseError(lineno, f"index {idx} out of range [0, {dim})", path)
                row[idx] = val
            if not np.all(np.isfinite(row)):
                raise ParseError(lineno, "non-finite feature value", path)
            rows.append(row)
            labels.append(0 if label == -1 else label)
    x = np.vstack(rows) if rows else np.empty((0, dim))
    return x, np.array(labels, dtype=np.int64)


# ---------------------------------------------------------------------------
# CSV dump / load for generated datasets


def _write_csv(path, x, y=None):
    """A header, then one row per sample: its features and, given y, its
    label; csv writes each float as its repr, so a row reads back exactly."""
    header = [f"x{i}" for i in range(x.shape[1])]
    rows = x.tolist()
    if y is not None:
        header.append("label")
        rows = [row + [label] for row, label in zip(rows, y.tolist())]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _read_csv(path, num_classes: int):
    """Features and, when the header ends in `label`, labels. A header with
    no feature column, a row without one field per header column, a field
    that does not parse, a non-finite feature or a label outside
    [0, num_classes) is a ParseError."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if not header:
            raise ParseError(1, "missing header", path)
        has_label = header[-1] == "label"
        nfeat = len(header) - (1 if has_label else 0)
        if nfeat < 1:
            raise ParseError(1, "no feature column", path)
        xs, ys = [], []
        for row in r:
            if len(row) != len(header):
                raise ParseError(r.line_num, f"{len(row)} fields, header has {len(header)}",
                                 path)
            try:
                feats = [float(v) for v in row[:nfeat]]
                label = int(row[-1]) if has_label else None
            except ValueError as exc:
                raise ParseError(r.line_num, str(exc), path) from None
            if not all(map(math.isfinite, feats)):
                raise ParseError(r.line_num, "non-finite feature value", path)
            xs.append(feats)
            if has_label:
                if not 0 <= label < num_classes:
                    raise ParseError(r.line_num, f"label {label} outside [0, {num_classes})",
                                     path)
                ys.append(label)
    x = np.array(xs) if xs else np.empty((0, nfeat))
    y = np.array(ys, dtype=np.int64) if has_label else None
    return x, y


def save_dataset(out_dir, ds: DomainDataset, spec: ShiftSpec | None = None):
    """Dump source.csv / target.csv (hidden labels included for evaluation)
    plus a sidecar spec.json recording provenance."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "source.csv", ds.source_x, ds.source_y)
    _write_csv(out_dir / "target.csv", ds.target_x, ds.target_y_hidden)
    sidecar = {"num_classes": ds.num_classes}
    if spec is not None:
        sidecar["shift_spec"] = asdict(spec)
    with open(out_dir / "spec.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(data_dir) -> DomainDataset:
    """A dataset directory: its spec.json declares `num_classes` and, for
    sparse text, `"format": "sparse_bow"` and `dim`, whose rows are in
    source.txt / target.txt; without a format, or with "csv", the rows are
    in source.csv / target.csv. A spec.json that does not declare these is
    a ParseError naming it."""
    data_dir = Path(data_dir)
    spec = data_dir / "spec.json"
    with open(spec) as fh:
        try:
            sidecar = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.lineno, f"invalid JSON: {exc.msg}", spec) from None
    k = sidecar.get("num_classes") if isinstance(sidecar, dict) else None
    if type(k) is not int or k < 2:
        raise ParseError(1, f"num_classes must be an integer >= 2, got {k!r}", spec)
    fmt = sidecar.get("format", "csv")
    if fmt == "csv":
        (sx, sy), (tx, ty) = (_read_csv(data_dir / f"{n}.csv", k) for n in ("source", "target"))
    elif fmt == "sparse_bow":
        dim = sidecar.get("dim")
        if type(dim) is not int or dim < 1:
            raise ParseError(1, f"dim must be an integer >= 1, got {dim!r}", spec)
        (sx, sy), (tx, ty) = (load_sparse_bow(data_dir / f"{n}.txt", dim, k)
                              for n in ("source", "target"))
    else:
        raise ParseError(1, f'format must be "csv" or "sparse_bow", got {fmt!r}', spec)
    return DomainDataset(source_x=sx, source_y=sy, target_x=tx,
                         target_y_hidden=ty, num_classes=k)
