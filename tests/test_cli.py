import dataclasses
import hashlib
import json
import math
import re
import runpy
import typing
from pathlib import Path

import numpy as np
import pytest

from tritrain import analysis, cli, datagen, labeler, trainer
from tritrain.nnlib import ConfigError

from conftest import (MALFORMED_CHECKPOINTS, UNKNOWN_ARRAYS, UNTRAINED_ARRAYS, arithmetic_host,
                      rewrite_checkpoint)

ROOT = Path(__file__).resolve().parents[1]

DATA_CFG = """\
# synthetic rotated moons
data.generator = "two_moons"
data.n_source = 120
data.n_target = 120
data.rotation_deg = 30
data.noise_sigma = 0.1
data.seed = 0
"""

TRAIN_CFG = DATA_CFG + """\
train.steps_k = 2
train.pretrain_iters = 50
train.iter_per_phase = 10
train.batch_labeling = 32
train.batch_target = 32
train.lr = 0.05
train.lambda = 0.01
train.hidden_dim = 8
train.seed = 0
labeling.n_init = 60
labeling.threshold = 0.9
"""

BOUND_CFG = """\
data.generator = "gaussian_blobs"
data.n_source = 60
data.n_target = 60
data.rotation_deg = 0
data.noise_sigma = 0.2
data.seed = 0
train.steps_k = 0
train.pretrain_iters = 50
train.batch_labeling = 32
train.batch_target = 32
train.hidden_dim = 8
bound.max_hypotheses = 500
bound.max_samples = 200
bound.thresholds_per_dim = 10
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_text_literals_and_comments():
    cfg = cli.parse_config_text(
        'a.x = 3\nb.y = 0.5  # trailing comment\n\nc.z = "s"\nd.w = plain\n')
    assert cfg == {"a.x": 3, "b.y": 0.5, "c.z": "s", "d.w": "plain"}


def test_a_hash_inside_a_quoted_value_is_part_of_it():
    # "/tmp/a#b" used to parse to '"/tmp/a', a stray quote kept and the
    # rest of the path cut
    cfg = cli.parse_config_text('data.dir = "/tmp/a#b"  # a comment\n'
                                'a.x = "say \\"#1\\""#"\nb.y = [1, "#"] # "\n')
    assert cfg == {"data.dir": "/tmp/a#b", "a.x": 'say "#1"', "b.y": [1, "#"]}


def test_parse_config_text_rejects_an_unterminated_string_naming_its_line():
    with pytest.raises(ConfigError, match="line 2: unterminated string"):
        cli.parse_config_text('a.x = 1\ndata.dir = "/tmp/a # b\n')


def test_a_quoted_value_that_is_not_one_json_literal_exits_config_naming_it(tmp_path, capsys):
    # '"/tmp/x" junk' used to pass as a bare string and fail later as an
    # I/O error on a path with quotes in it
    for text in ('"/tmp/x" junk', '["a", 1] x', '/tmp/"x"'):
        with pytest.raises(ConfigError, match="config line 2: a value with a quote"):
            cli.parse_config_text(f"a.x = 1\ndata.dir = {text}\n")
    item = 'data.dir="/tmp/x" junk'
    rc = cli.main(["train", "--config", write_cfg(tmp_path, TRAIN_CFG), "--out",
                   str(tmp_path / "o"), "--set", item])
    assert rc == cli.EXIT_CONFIG
    assert f"--set {item!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # a value without quotes keeps the bare-string fallback
    assert cli.parse_config_text("d.w = plain text\n") == {"d.w": "plain text"}


def test_parse_config_text_rejects_bad_line():
    with pytest.raises(ConfigError, match="line 2"):
        cli.parse_config_text("a.x = 1\nnot a key value\n")


def test_unknown_key_is_named_in_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DATA_CFG + "data.rotation = 5\n")
    rc = cli.main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "data.rotation" in capsys.readouterr().err


def test_missing_config_is_io_error(tmp_path, capsys):
    rc = cli.main(["gen-data", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_IO


@pytest.mark.parametrize("item", ['train.steps_k="x"', "train.hidden_dim=2.5",
                                  "data.translation=5", 'data.n_source="abc"',
                                  'labeling.threshold="hi"'])
def test_wrongly_typed_value_is_named_in_error(tmp_path, capsys, item):
    cfg = write_cfg(tmp_path, TRAIN_CFG)
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o"), "--set", item])
    assert rc == cli.EXIT_CONFIG
    assert f"config key {item.split('=')[0]!r} must be" in capsys.readouterr().err


def test_value_types_follow_the_dataclass_fields():
    cfg = cli.parse_config_text("train.lambda = 1\ntrain.lr_decay_step = null\n"
                                "gates.from_ft = false\ndata.translation = [1, 0.5]\n")
    tcfg = cli.build_train_config(cfg)
    assert (tcfg.lam, tcfg.lr_decay_step, tcfg.gates.from_ft) == (1, None, False)
    assert cli.build_shift_spec(cfg).translation == (1, 0.5)
    for key, val in (("train.steps_k", True), ("train.steps_k", 2.0),
                     ("train.use_bn", 1), ("train.lr", "0.1"), ("train.seed", None)):
        with pytest.raises(ConfigError, match=key):
            cli.build_train_config({key: val})


@pytest.mark.parametrize("text", ["[1]", '{"config": 5}'])
def test_json_config_that_is_not_an_object_exits_config(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="cfg.json"):
        cli.load_config(path)
    rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "cfg.json" in capsys.readouterr().err


# each case names the key its error must name; every one is rejected by
# `_resolve` or by the ShiftSpec each command builds, before any output is
# written
CONFIG_ERRORS = [
    ("bound-check", ["bound.thresholds_per_dim=2.5"], "bound.thresholds_per_dim"),
    ("bound-check", ['bound.max_samples="abc"'], "bound.max_samples"),
    ("gen-data", ["data.translation=[1]"], "translation"),
    ("gen-data", ["data.translation=[1,2,3]"], "translation"),
    # a sparse_bow dataset is a directory whose spec.json declares it; these
    # keys picked one and are gone
    ("train", ['data.format="sparse_bow"'], "unknown config key 'data.format'"),
    ("train", ['data.source_path="a.txt"'], "unknown config key 'data.source_path'"),
    ("train", ['data.target_path="b.txt"'], "unknown config key 'data.target_path'"),
    ("bound-check", ["data.dim=3"], "unknown config key 'data.dim'"),
    ("train", ["data.dir=5"], "data.dir"),
    ("gen-data", ["train.bogus=1"], "train.bogus"),
    ("train", ["bound.bogus=1"], "bound.bogus"),
    # range checks of TrainConfig, one per key
    ("train", ["train.lr=0"], "lr must lie in (0, inf), got 0"),
    ("train", ["train.lr=NaN"], "lr must lie in (0, inf), got nan"),
    ("train", ['train.optimizer="adam"'], "optimizer"),
    ("train", ["train.hidden_dim=0"], "hidden_dim"),
    ("train", ["train.dropout_rate=1"], "dropout_rate"),
    ("train", ["train.momentum=-0.1"], "momentum"),
    ("train", ["train.lambda=-1"], "lambda"),
    ("train", ["train.adagrad_eps=0"], "adagrad_eps"),
    # a negative decayed rate used to run gradient ascent and exit 0
    ("train", ["train.lr_decay_step=0", "train.lr_decay_to=-1"], "lr_decay_to"),
    # an infinite rate used to pass, and fail only after manifest.json was
    # written, naming no key; an unused adagrad_eps, not at all
    ("train", ["train.lr=Infinity"], "lr must lie in (0, inf), got inf"),
    ("train", ["train.adagrad_eps=Infinity"], "adagrad_eps must lie in (0, inf), got inf"),
    ("train", ["train.lr_decay_step=0", "train.lr_decay_to=Infinity"],
     "lr_decay_to must lie in (0, inf), got inf"),
    ("bound-check", ["train.momentum=1"], "momentum"),
    # ShiftSpec ranges; train and bound-check used to check them only after
    # writing manifest.json, with messages that named no key
    ("train", ["data.n_source=-5"], "n_source"),
    ("train", ["data.noise_sigma=0"], "noise_sigma"),
    ("bound-check", ["data.n_source=-5"], "n_source"),
    ("bound-check", ["data.noise_sigma=0"], "noise_sigma"),
    ("gen-data", ["data.noise_sigma=NaN"], "noise_sigma"),
    ("gen-data", ['data.generator="gaussian_blobs"', "data.num_classes=0"], "num_classes"),
    # a NaN shift used to train on an all-NaN target and exit 0, and a
    # negative seed failed in numpy, naming no key
    ("train", ["data.rotation_deg=NaN"], "rotation_deg"),
    ("train", ["data.translation=[NaN, 0]"], "translation"),
    ("gen-data", ['data.translation=["a", 1]'], "translation"),
    ("train", ["data.seed=-1"], "seed"),
    ("train", ["train.seed=-1"], "seed"),
    # gen-data used to ignore these, exit 0 and write the default moons
    ("gen-data", ['data.dir="d0"'], "data.dir"),
    # batch norm with no pretraining batch used to exit 2 only after
    # writing manifest.json
    ("train", ["train.pretrain_iters=0"], "pretrain_iters"),
    ("bound-check", ["bound.pretrain_iters=0"], "pretrain_iters"),
    # a cap above the enumeration limit used to fail only after writing
    # manifest.json, naming no key
    ("bound-check", ["bound.max_hypotheses=20000"], "bound.max_hypotheses"),
]


@pytest.mark.parametrize("command, items, named", CONFIG_ERRORS)
def test_every_command_checks_every_key_before_any_work(tmp_path, capsys, command, items,
                                                         named):
    base = {"gen-data": DATA_CFG, "train": TRAIN_CFG, "bound-check": BOUND_CFG}[command]
    args = [command, "--config", write_cfg(tmp_path, base), "--out", str(tmp_path / "o")]
    for item in items:
        args += ["--set", item]
    assert cli.main(args) == cli.EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _base_type(tp):
    """A field or key type without an optional's None: int for `int | None`."""
    return (typing.get_args(tp) or (tp,))[0]


# every float key of the schema, with each command that reads it
FLOAT_KEYS = [(command, f"{section}.{key}") for section, types in cli.SCHEMA.items()
              for key, tp in types.items() if _base_type(tp) is float
              for command in ("gen-data", "train") if command == "train" or section == "data"]


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command, key", FLOAT_KEYS, ids=[" ".join(c) for c in FLOAT_KEYS])
def test_every_float_key_refuses_a_non_finite_value_by_name_before_any_output(
        tmp_path, capsys, command, key, value):
    # train.lambda=Infinity used to train and exit 5, and
    # data.noise_sigma=Infinity to exit 0 from gen-data with a dataset of
    # inf and NaN
    base = DATA_CFG if command == "gen-data" else TRAIN_CFG
    args = [command, "--config", write_cfg(tmp_path, base), "--out", str(tmp_path / "o"),
            "--set", f"{key}={value}"]
    assert cli.main(args) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert key.partition(".")[2] in err and f"got {float(value)!r}" in err
    assert not (tmp_path / "o").exists()


CONFIG_CLASSES = (trainer.TrainConfig, labeler.LabelingConfig, datagen.ShiftSpec,
                  cli.BoundCheckConfig)
NUMERIC_FIELDS = [(cls, f.name) for cls in CONFIG_CLASSES for f in dataclasses.fields(cls)
                  if _base_type(typing.get_type_hints(cls)[f.name]) in (int, float)]


@pytest.mark.parametrize("cls, name", NUMERIC_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in NUMERIC_FIELDS])
def test_every_numeric_config_field_refuses_nan_by_name(cls, name):
    # int fields such as steps_k and batch_labeling used to take NaN, and
    # every field took a bool, such as lr=True, since a bool is an int
    for value in (math.nan, True):
        with pytest.raises(ConfigError, match=rf"{name}\b.* got {value!r}$"):
            cls(**{name: value})


def test_gen_data_refuses_a_noise_sigma_whose_points_overflow(tmp_path, capsys):
    # used to exit 0 and write a target set of inf and NaN, then to exit 2
    # after numpy's overflow warnings, leaving a manifest of no dataset
    args = ["gen-data", "--config", write_cfg(tmp_path, DATA_CFG), "--out", str(tmp_path / "o"),
            "--set", "data.noise_sigma=1e307"]
    # a numpy RuntimeWarning fails the test: pyproject.toml makes it an error
    assert cli.main(args) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: noise_sigma 1e+307 ")
    assert not (tmp_path / "o").exists()


def test_readme_config_table_lists_exactly_the_schema_keys():
    readme = (ROOT / "README.md").read_text()
    documented = re.findall(r"^\| `(\w+\.\w+)` \|", readme, flags=re.M)
    assert sorted(documented) == sorted(f"{section}.{key}" for section, types
                                        in cli.SCHEMA.items() for key in types)


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_writes_expected_files(tmp_path):
    cfg = write_cfg(tmp_path, DATA_CFG)
    out = tmp_path / "data"
    assert cli.main(["gen-data", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    for name in ("source.csv", "target.csv", "spec.json", "manifest.json"):
        assert (out / name).exists(), name
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "gen-data"
    assert manifest["config"]["data.rotation_deg"] == 30


def test_gen_data_is_byte_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, DATA_CFG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    for f in ("source.csv", "target.csv", "spec.json"):
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes(), f


def test_gen_data_seed_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, DATA_CFG)
    a, b = tmp_path / "a", tmp_path / "b"
    cli.main(["gen-data", "--config", cfg, "--out", str(a)])
    cli.main(["gen-data", "--config", cfg, "--out", str(b), "--seed", "7"])
    assert (a / "source.csv").read_bytes() != (b / "source.csv").read_bytes()


def test_seed_override_sets_data_seed_only_for_generated_data(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--config", write_cfg(tmp_path, DATA_CFG),
                     "--out", str(data)]) == cli.EXIT_OK
    train_keys = TRAIN_CFG[len(DATA_CFG):]
    seeds = {}
    for name, text in [("generated", TRAIN_CFG), ("defaults", train_keys),
                       ("dir", f'data.dir = "{data}"\n' + train_keys)]:
        out = tmp_path / name
        args = ["train", "--config", write_cfg(tmp_path, text), "--out", str(out),
                "--seed", "3", "--set", "train.steps_k=0"]
        assert cli.main(args) == cli.EXIT_OK
        config = json.loads((out / "manifest.json").read_text())["config"]
        seeds[name] = (config.get("data.seed"), config["train.seed"])
    # no generator reads data.seed for a dataset on disk
    assert seeds == {"generated": (3, 3), "defaults": (3, 3), "dir": (None, 3)}


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_val_count_is_an_unknown_key(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, TRAIN_CFG + "data.val_count = 20\n")
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "unknown config key 'data.val_count'" in capsys.readouterr().err


def test_config_sections_follow_the_dataclass_fields():
    keys = {section: set(types) for section, types in cli.SCHEMA.items()}
    assert keys["train"] >= {"steps_k", "lambda", "seed"} and "lam" not in keys["train"]
    assert not keys["train"] & {"labeling", "gates"}
    shift_fields = {f.name for f in dataclasses.fields(datagen.ShiftSpec)}
    assert keys["data"] == shift_fields | {"dir"}
    assert keys["gates"] == {"from_f1_f2", "from_ft"}
    cfg = cli.parse_config_text("train.lambda = 0.5\nlabeling.cap = 50000\ngates.from_ft = false\n")
    tcfg = cli.build_train_config(cfg)
    assert (tcfg.lam, tcfg.labeling.cap, tcfg.gates.from_ft) == (0.5, 50000, False)


# ---------------------------------------------------------------------------
# train


def test_train_outputs_and_steps_zero(tmp_path):
    cfg = write_cfg(tmp_path, TRAIN_CFG, "t.cfg")
    out = tmp_path / "run0"
    rc = cli.main(["train", "--config", cfg, "--out", str(out),
                   "--set", "train.steps_k=0"])
    assert rc == cli.EXIT_OK
    from tritrain.trainer import read_metrics_csv
    hist = read_metrics_csv(out / "metrics.csv")
    assert len(hist) == 1 and hist[0].step == 0
    assert (out / "checkpoint.npz").exists()
    assert (out / "manifest.json").exists()


def test_manifest_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, TRAIN_CFG, "t.cfg")
    first = tmp_path / "run1"
    assert cli.main(["train", "--config", cfg, "--out", str(first)]) == 0
    second = tmp_path / "run2"
    assert cli.main(["train", "--config", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
    assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()


def test_train_set_override_reaches_config(tmp_path):
    cfg = write_cfg(tmp_path, TRAIN_CFG, "t.cfg")
    out = tmp_path / "run"
    cli.main(["train", "--config", cfg, "--out", str(out),
              "--set", "train.steps_k=1"])
    with open(out / "manifest.json") as fh:
        assert json.load(fh)["config"]["train.steps_k"] == 1


def test_train_bad_activation_exits_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRAIN_CFG + 'train.activation = "tanh"\n', "t.cfg")
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG


@pytest.mark.parametrize("item", ["train.pretrain_iters=0", "train.pretrain_iters=-1",
                                  "train.iter_per_phase=-2", "labeling.n_init=-5"])
def test_train_out_of_range_value_exits_config_naming_the_key(tmp_path, capsys, item):
    cfg = write_cfg(tmp_path, TRAIN_CFG, "t.cfg")
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o"), "--set", item])
    assert rc == cli.EXIT_CONFIG
    assert item.split(".")[1].split("=")[0] in capsys.readouterr().err


# batch sizes under 2 used to run no batch of their phase and exit 0
@pytest.mark.parametrize("items", [["train.use_bn=false", "train.batch_labeling=1"],
                                   ["train.use_bn=false", "train.batch_target=0"]])
def test_train_batch_size_under_two_exits_config_naming_the_key(tmp_path, capsys, items):
    cfg = write_cfg(tmp_path, TRAIN_CFG, "t.cfg")
    sets = [a for item in items for a in ("--set", item)]
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")] + sets)
    assert rc == cli.EXIT_CONFIG
    assert items[-1].split(".")[1].split("=")[0] in capsys.readouterr().err


SPARSE_SPEC = {"num_classes": 2, "format": "sparse_bow", "dim": 3}


def sparse_bow_cfg(tmp_path, source_rows, spec=SPARSE_SPEC, cfg_text=TRAIN_CFG):
    """A config reading, through data.dir, a sparse_bow dataset directory:
    `source_rows` as source.txt, four 3-wide target rows as target.txt and
    `spec` as spec.json; the other keys are those of `cfg_text`."""
    data = tmp_path / "bow"
    data.mkdir(exist_ok=True)
    (data / "source.txt").write_text(source_rows)
    (data / "target.txt").write_text("1 0:1.0\n-1 1:2.0\n1 2:0.5\n-1 0:0.3\n")
    (data / "spec.json").write_text(json.dumps(spec))
    rest = "".join(line + "\n" for line in cfg_text.splitlines() if not line.startswith("data."))
    return write_cfg(tmp_path, f'data.dir = "{data}"\n' + rest, "bow.cfg")


SPARSE_SOURCE = "1 0:1.0 2:0.5\n-1 1:1.0\n1 0:0.7\n-1 1:0.4 2:0.1\n"


@pytest.mark.parametrize("command, cfg_text", [("train", TRAIN_CFG), ("bound-check", BOUND_CFG)],
                         ids=["train", "bound-check"])
def test_train_on_a_one_row_source_exits_config(tmp_path, capsys, command, cfg_text):
    # an empty file failed in numpy's max over zero labels; both exited 2
    # only after writing manifest.json
    for rows, n in (("1 0:1.0\n", 1), ("", 0)):
        cfg = sparse_bow_cfg(tmp_path, rows, cfg_text=cfg_text)
        out = tmp_path / f"run{n}"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
        assert f"at least 2 source rows, got {n}" in capsys.readouterr().err
        assert not out.exists()


# a sparse_bow directory's spec.json and source rows, and the error naming
# what is wrong with them
BAD_SPARSE_DATASETS = {
    "no dim": ({"num_classes": 2, "format": "sparse_bow"}, SPARSE_SOURCE, "spec.json, line 1: dim"),
    "dim 0": (SPARSE_SPEC | {"dim": 0}, SPARSE_SOURCE, "spec.json, line 1: dim"),
    "dim -1": (SPARSE_SPEC | {"dim": -1}, SPARSE_SOURCE, "spec.json, line 1: dim"),
    "dim 2.5": (SPARSE_SPEC | {"dim": 2.5}, SPARSE_SOURCE, "spec.json, line 1: dim"),
    "dim str": (SPARSE_SPEC | {"dim": "3"}, SPARSE_SOURCE, "spec.json, line 1: dim"),
    "format": (SPARSE_SPEC | {"format": "libsvm"}, SPARSE_SOURCE, "spec.json, line 1: format"),
    # the class count used to be inferred as the largest label + 1
    "label": (SPARSE_SPEC, "1 0:1.0\n2 1:1.0\n", "source.txt, line 2: label 2 outside [0, 2)"),
    "token": (SPARSE_SPEC, "1 0:1.0\n1 a:1.0\n", "source.txt, line 2: bad index:value token"),
    "index": (SPARSE_SPEC, "1 0:1.0\n1 3:1.0\n", "source.txt, line 2: index 3 out of range"),
    "nan": (SPARSE_SPEC, "1 0:1.0\n1 1:nan\n", "source.txt, line 2: non-finite feature value"),
}


@pytest.mark.parametrize("command", ["train", "bound-check", "eval", "adist"])
@pytest.mark.parametrize("case", BAD_SPARSE_DATASETS)
def test_a_malformed_sparse_dataset_exits_config_naming_its_file(request, tmp_path, capsys,
                                                                 command, case):
    spec, rows, named = BAD_SPARSE_DATASETS[case]
    cfg = sparse_bow_cfg(tmp_path, rows, spec)
    out = tmp_path / "o"
    if command in ("eval", "adist"):
        run = request.getfixturevalue("trained_run")[1]
        args = [command, "--checkpoint", str(run / "checkpoint.npz"),
                "--data", str(tmp_path / "bow")]
    else:
        args = [command, "--config", cfg, "--out", str(out)]
    assert cli.main(args) == cli.EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_every_command_reads_the_sparse_dataset_a_train_run_used(tmp_path, capsys):
    # eval and adist read only source.csv / target.csv, and eval exited 3
    cfg = sparse_bow_cfg(tmp_path, SPARSE_SOURCE)
    run = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(run)]) == cli.EXIT_OK
    # -1 reads as class 0 in both files
    ds = datagen.load_dataset(tmp_path / "bow")
    assert ds.source_y.tolist() == [1, 0, 1, 0] and ds.target_y_hidden.tolist() == [1, 0, 1, 0]
    capsys.readouterr()
    ckpt = ["--checkpoint", str(run / "checkpoint.npz"), "--data", str(tmp_path / "bow")]
    assert cli.main(["eval", *ckpt, "--branch", "all"]) == cli.EXIT_OK
    state = trainer.load_state(run / "checkpoint.npz")
    assert json.loads(capsys.readouterr().out) == trainer.evaluate(
        state.net, ds.target_x, ds.target_y_hidden)
    assert cli.main(["adist", *ckpt]) == cli.EXIT_OK
    assert set(json.loads(capsys.readouterr().out)) == {"d_A_raw", "d_A_features"}


@pytest.mark.parametrize("fault, code, named", [
    ("missing", cli.EXIT_IO, "spec.json"),
    ("malformed", cli.EXIT_CONFIG, "source.csv, line 3: 2 fields, header has 3")])
def test_train_reads_its_dataset_before_any_output(tmp_path, capsys, fault, code, named):
    # both used to exit with these codes, leaving a manifest of a run that
    # read no dataset
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--config", write_cfg(tmp_path, DATA_CFG, "gen.cfg"),
                     "--out", str(data)]) == cli.EXIT_OK
    if fault == "missing":
        data = tmp_path / "nowhere"
    else:
        rows = (data / "source.csv").read_text().splitlines()
        rows[2] = rows[2].rsplit(",", 1)[0]
        (data / "source.csv").write_text("\n".join(rows) + "\n")
    cfg = write_cfg(tmp_path, f'data.dir = "{data}"\n' + TRAIN_CFG[len(DATA_CFG):])
    out = tmp_path / "o"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert named in err and str(data) in err
    assert not out.exists()


def test_train_on_a_dataset_without_target_labels_reports_no_accuracy(tmp_path):
    cfg = unlabeled_dataset_cfg(tmp_path, TRAIN_CFG, "target")
    out = tmp_path / "o"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    for m in trainer.read_metrics_csv(out / "metrics.csv"):
        assert np.isnan([m.acc_f1, m.acc_f2, m.acc_ft, m.labeling_acc]).all()


def unlabeled_dataset_cfg(tmp_path, cfg_text, which):
    """A config reading, through data.dir, the dataset `cfg_text` generates,
    saved with the label column of `which`.csv cut, as a user might."""
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--config", write_cfg(tmp_path, cfg_text, "gen.cfg"),
                     "--out", str(data)]) == 0
    path = data / f"{which}.csv"
    path.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                            for line in path.read_text().splitlines()))
    rest = "".join(line + "\n" for line in cfg_text.splitlines() if not line.startswith("data."))
    return write_cfg(tmp_path, f'data.dir = "{data}"\n' + rest, "dir.cfg")


# both used to raise a TypeError in trainer.run and exit 1 with a traceback
@pytest.mark.parametrize("command, cfg_text", [("train", TRAIN_CFG), ("bound-check", BOUND_CFG)])
def test_a_dataset_without_source_labels_exits_config(tmp_path, capsys, command, cfg_text):
    # and then, until trainer.check_inputs ran before the manifest, to exit 2
    # leaving one
    cfg = unlabeled_dataset_cfg(tmp_path, cfg_text, "source")
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert "source_y is None" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_divergence_exits_diverged(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRAIN_CFG, "t.cfg")
    with np.errstate(all="ignore"):
        rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o"),
                       "--set", "train.lr=1e6", "--set", "train.pretrain_iters=200"])
    assert rc == cli.EXIT_DIVERGED
    assert "phase of pretrain" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval / adist


@pytest.fixture()
def trained_run(tmp_path):
    cfg = write_cfg(tmp_path, TRAIN_CFG, "t.cfg")
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
    run = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(run)]) == 0
    return data, run


def test_eval_default_branch(trained_run, capsys):
    data, run = trained_run
    rc = cli.main(["eval", "--checkpoint", str(run / "checkpoint.npz"),
                   "--data", str(data)])
    assert rc == cli.EXIT_OK
    result = json.loads(capsys.readouterr().out)
    assert set(result) == {"ft"} and 0.0 <= result["ft"] <= 1.0


def test_eval_all_branches_with_out(trained_run, tmp_path, capsys):
    data, run = trained_run
    out = tmp_path / "eval.json"
    rc = cli.main(["eval", "--checkpoint", str(run / "checkpoint.npz"),
                   "--data", str(data), "--branch", "all", "--out", str(out)])
    assert rc == cli.EXIT_OK
    with open(out) as fh:
        assert set(json.load(fh)) == {"f1", "f2", "ft"}


def test_eval_corrupt_checkpoint_exits_io(trained_run, tmp_path, capsys):
    data, _ = trained_run
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"not a checkpoint")
    rc = cli.main(["eval", "--checkpoint", str(bad), "--data", str(data)])
    assert rc == cli.EXIT_IO


def test_eval_of_a_train_output_equals_in_memory_evaluate(trained_run, tmp_path, capsys):
    data, run = trained_run
    cfg = cli.load_config(run / "manifest.json")
    ds = datagen.load_dataset(data)
    _, state = trainer.run(ds.source_x, ds.source_y, ds.target_x, cli.build_train_config(cfg),
                           eval_x=ds.target_x, eval_y=ds.target_y_hidden,
                           target_y_hidden=ds.target_y_hidden)
    expected = trainer.evaluate(state.net, ds.target_x, ds.target_y_hidden)
    capsys.readouterr()
    rc = cli.main(["eval", "--checkpoint", str(run / "checkpoint.npz"),
                   "--data", str(data), "--branch", "all"])
    assert rc == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out) == expected


@pytest.mark.parametrize("edit", MALFORMED_CHECKPOINTS.values(), ids=MALFORMED_CHECKPOINTS)
def test_eval_malformed_checkpoint_exits_io(trained_run, capsys, edit):
    data, run = trained_run
    rewrite_checkpoint(run / "checkpoint.npz", edit)
    rc = cli.main(["eval", "--checkpoint", str(run / "checkpoint.npz"), "--data", str(data)])
    assert rc == cli.EXIT_IO
    assert "checkpoint.npz" in capsys.readouterr().err


@pytest.mark.parametrize("name", UNTRAINED_ARRAYS)
def test_adist_on_an_array_no_trained_net_holds_exits_io_naming_it(trained_run, capsys, name):
    # eval printed 0.5 per head on a NaN weight, adist a d_A_features, both
    # exiting 0; a zero batch-norm count was a StateError traceback
    data, run = trained_run
    rewrite_checkpoint(run / "checkpoint.npz", MALFORMED_CHECKPOINTS[name])
    rc = cli.main(["adist", "--checkpoint", str(run / "checkpoint.npz"), "--data", str(data)])
    assert rc == cli.EXIT_IO
    assert UNTRAINED_ARRAYS[name][0] in capsys.readouterr().err


@pytest.mark.parametrize("key", UNKNOWN_ARRAYS)
def test_eval_checkpoint_with_an_unknown_array_exits_io_naming_it(trained_run, capsys, key):
    data, run = trained_run
    rewrite_checkpoint(run / "checkpoint.npz", lambda arrays, meta: arrays.update({key: np.zeros(4)}))
    rc = cli.main(["eval", "--checkpoint", str(run / "checkpoint.npz"), "--data", str(data)])
    assert rc == cli.EXIT_IO
    assert key in capsys.readouterr().err


def test_eval_without_target_labels_exits_config(trained_run, tmp_path, capsys):
    data, run = trained_run
    ds = datagen.load_dataset(data)
    ds.target_y_hidden = None
    unlabeled = tmp_path / "unlabeled"
    datagen.save_dataset(unlabeled, ds)
    rc = cli.main(["eval", "--checkpoint", str(run / "checkpoint.npz"),
                   "--data", str(unlabeled)])
    assert rc == cli.EXIT_CONFIG
    assert "labels" in capsys.readouterr().err


def test_eval_on_non_finite_dataset_exits_config(trained_run, capsys):
    data, run = trained_run
    path = data / "target.csv"
    lines = path.read_text().splitlines()
    lines[1] = "nan," + lines[1].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    rc = cli.main(["eval", "--checkpoint", str(run / "checkpoint.npz"), "--data", str(data)])
    assert rc == cli.EXIT_CONFIG
    assert "target.csv, line 2: non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["{}", "not json", '{"num_classes": "2"}',
                                  '{"num_classes": 1}', "[2]"])
def test_eval_with_a_malformed_spec_json_exits_config(trained_run, capsys, spec):
    data, run = trained_run
    (data / "spec.json").write_text(spec)
    rc = cli.main(["eval", "--checkpoint", str(run / "checkpoint.npz"), "--data", str(data)])
    assert rc == cli.EXIT_CONFIG
    assert "spec.json" in capsys.readouterr().err


def mismatched_dataset(tmp_path, data, what):
    """The dataset at `data` with an extra zero feature, or a 3-class
    blobs dataset, saved under tmp_path."""
    if what == "features":
        ds = datagen.load_dataset(data)
        ds.source_x, ds.target_x = (np.hstack([x, np.zeros((len(x), 1))])
                                    for x in (ds.source_x, ds.target_x))
    else:
        ds = datagen.generate(datagen.ShiftSpec(generator="gaussian_blobs", num_classes=3,
                                                n_source=30, n_target=30))
    out = tmp_path / f"other_{what}"
    datagen.save_dataset(out, ds)
    return out


# eval printed {"ft": 0.0} and exited 0 on a 3-class dataset, and a
# 3-feature dataset failed in an affine call naming neither file
@pytest.mark.parametrize("command, what", [("eval", "features"), ("eval", "classes"),
                                           ("adist", "features")])
def test_a_dataset_that_does_not_fit_the_checkpoint_exits_config_naming_both(
        trained_run, tmp_path, capsys, command, what):
    data, run = trained_run
    other = mismatched_dataset(tmp_path, data, what)
    ckpt = run / "checkpoint.npz"
    rc = cli.main([command, "--checkpoint", str(ckpt), "--data", str(other)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_CONFIG and captured.out == ""
    # the checkpoint is of 2-feature, 2-class moons
    assert f"dataset {other} has 3 {what}, but checkpoint {ckpt} was trained on 2" in captured.err


def test_train_takes_the_class_count_from_the_dataset(tmp_path, capsys):
    # a 3-class dataset whose source rows hold only labels 0 and 1 trained
    # 2-class heads, and eval then rejected the run's own dataset
    ds = datagen.generate(datagen.ShiftSpec(generator="gaussian_blobs", num_classes=3,
                                            n_source=60, n_target=60))
    keep = ds.source_y < 2
    ds.source_x, ds.source_y = ds.source_x[keep], ds.source_y[keep]
    assert (len(ds.source_y), set(ds.source_y.tolist())) == (40, {0, 1})
    data, run = tmp_path / "data", tmp_path / "run"
    datagen.save_dataset(data, ds)
    cfg = write_cfg(tmp_path, f'data.dir = "{data}"\n' + TRAIN_CFG[len(DATA_CFG):])
    assert cli.main(["train", "--config", cfg, "--out", str(run)]) == cli.EXIT_OK
    state = trainer.load_state(run / "checkpoint.npz")
    assert state.net.num_classes == 3 and state.net.Wb["ft"].shape[-1] == 3
    capsys.readouterr()
    rc = cli.main(["eval", "--checkpoint", str(run / "checkpoint.npz"), "--data", str(data),
                   "--branch", "all"])
    assert rc == cli.EXIT_OK
    assert set(json.loads(capsys.readouterr().out)) == {"f1", "f2", "ft"}


def test_adist_rejects_a_negative_seed_by_name(trained_run, capsys):
    # numpy used to reject it, naming no option
    data, run = trained_run
    rc = cli.main(["adist", "--checkpoint", str(run / "checkpoint.npz"), "--data", str(data),
                   "--seed", "-1"])
    assert rc == cli.EXIT_CONFIG
    assert "--seed must lie in [0, inf), got -1" in capsys.readouterr().err


def test_adist_reports_both_distances(trained_run, capsys):
    data, run = trained_run
    rc = cli.main(["adist", "--checkpoint", str(run / "checkpoint.npz"),
                   "--data", str(data)])
    assert rc == cli.EXIT_OK
    result = json.loads(capsys.readouterr().out)
    assert set(result) == {"d_A_raw", "d_A_features"}
    for v in result.values():
        assert 0.0 <= v <= 2.0


# ---------------------------------------------------------------------------
# bound-check


def test_bound_check_passes_on_honest_instance(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BOUND_CFG, "b.cfg")
    out = tmp_path / "bound"
    rc = cli.main(["bound-check", "--config", cfg, "--out", str(out)])
    assert rc == cli.EXIT_OK
    with open(out / "report.json") as fh:
        report = json.load(fh)
    assert report["num_violations"] == 0
    assert report["theorem1"]["num_violations"] == 0
    for key in ("d_hdh", "C", "rho", "d_A", "C_prime"):
        assert key in report


def test_bound_check_fault_injection_exits_verify(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BOUND_CFG, "b.cfg")
    out = tmp_path / "bound"
    rc = cli.main(["bound-check", "--config", cfg, "--out", str(out),
                   "--inject-fault"])
    assert rc == cli.EXIT_VERIFY


def test_bound_check_names_the_size_of_a_class_over_the_enumeration_cap(tmp_path, capsys):
    # with the default bound.max_hypotheses, the class itself rejects its
    # size before the command's own cap check can
    cfg = write_cfg(tmp_path, BOUND_CFG, "b.cfg")
    args = ["bound-check", "--config", cfg, "--out", str(tmp_path / "o")]
    for item in ("data.n_source=1500", "data.n_target=1500", "bound.max_samples=3000",
                 "bound.thresholds_per_dim=3000", "bound.max_hypotheses=2000"):
        args += ["--set", item]
    assert cli.main(args) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    size = re.search(r"class of (\d+) stumps", err)
    assert size and int(size[1]) > analysis.MAX_HYPOTHESES
    assert "bound.max_hypotheses" in err
    assert not (tmp_path / "o").exists()


# sha256 of report.json for BOUND_CFG, clean and with --inject-fault: a
# change that moves a bit of the bound check edits a literal here
BOUND_REPORT_DIGESTS = {
    "clean": (cli.EXIT_OK, "25dc4dd3edb97a9d5aa3c40410a6b4ce4266521ad27f7c16ede81d4512dafbb2"),
    "fault": (cli.EXIT_VERIFY, "58585852722d11b6149af3de343568dcefd0f480740fbc83324fa8f79d7c315c"),
}
# sha256 of the header-only metrics.csv that bound-check writes beside
# report.json; the benchmark digests both files
BOUND_METRICS_DIGEST = "3d33f0a7152479f97a16478abdfd0ec8834eab028b003c485a8cee2c03e9b30d"


@pytest.mark.parametrize("key", BOUND_REPORT_DIGESTS)
def test_bound_check_report_bytes_are_pinned(tmp_path, capsys, key):
    cfg = write_cfg(tmp_path, BOUND_CFG, "b.cfg")
    out = tmp_path / key
    extra = ["--inject-fault"] if key == "fault" else []
    rc = cli.main(["bound-check", "--config", cfg, "--out", str(out)] + extra)
    digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
    # BLAS and numpy releases can move float bits, so name the arithmetic host
    assert (rc, digest) == BOUND_REPORT_DIGESTS[key], arithmetic_host()
    metrics = hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()
    assert metrics == BOUND_METRICS_DIGEST, arithmetic_host()


def test_bound_check_computes_the_divergence_once(tmp_path, capsys, monkeypatch):
    calls = []
    hdh = analysis.empirical_hdh_distance

    def counted(*args, **kwargs):
        calls.append(1)
        return hdh(*args, **kwargs)

    monkeypatch.setattr(analysis, "empirical_hdh_distance", counted)
    cfg = write_cfg(tmp_path, BOUND_CFG, "b.cfg")
    assert cli.main(["bound-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("item", ["train.lr=-1", "train.hidden_dim=2.5",
                                  'train.activation="tanh"'])
def test_bound_check_rejects_a_bad_train_value_before_the_exhaustive_check(
        tmp_path, capsys, monkeypatch, item):
    calls = []
    verify = analysis.verify_theorem1

    def counted(*args, **kwargs):
        calls.append(1)
        return verify(*args, **kwargs)

    monkeypatch.setattr(analysis, "verify_theorem1", counted)
    cfg = write_cfg(tmp_path, BOUND_CFG, "b.cfg")
    rc = cli.main(["bound-check", "--config", cfg, "--out", str(tmp_path / "o"), "--set", item])
    assert (rc, len(calls)) == (cli.EXIT_CONFIG, 0)


@pytest.mark.parametrize("item", ["bound.pretrain_iters=0", "bound.thresholds_per_dim=0",
                                  "bound.thresholds_per_dim=-1"])
def test_bound_check_out_of_range_value_exits_config_naming_the_key(tmp_path, capsys, item):
    cfg = write_cfg(tmp_path, BOUND_CFG, "b.cfg")
    rc = cli.main(["bound-check", "--config", cfg, "--out", str(tmp_path / "o"), "--set", item])
    assert rc == cli.EXIT_CONFIG
    assert item.split(".")[1].split("=")[0] in capsys.readouterr().err


def test_bound_check_accepts_the_benchmark_config(tmp_path, capsys):
    text = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["BOUND_CONFIG"]
    cfg = write_cfg(tmp_path, text, "b.cfg")
    assert cli.main(["bound-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_bound_check_without_target_labels_exits_config_before_training(
        tmp_path, capsys, monkeypatch):
    # it used to pretrain first and then raise an IndexError in the risks
    runs, run = [], trainer.run
    monkeypatch.setattr(trainer, "run", lambda *a, **k: runs.append(1) or run(*a, **k))
    cfg = unlabeled_dataset_cfg(tmp_path, BOUND_CFG, "target")
    rc = cli.main(["bound-check", "--config", cfg, "--out", str(tmp_path / "o")])
    assert (rc, runs) == (cli.EXIT_CONFIG, [])
    assert "target labels" in capsys.readouterr().err


# both used to exit 2 only after writing manifest.json
def test_bound_check_rejects_oversized_instance(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BOUND_CFG + "bound.max_samples = 10\n", "b.cfg")
    rc = cli.main(["bound-check", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "120 samples > bound.max_samples=10" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bound_check_rejects_multiclass(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BOUND_CFG + "data.num_classes = 3\n", "b.cfg")
    rc = cli.main(["bound-check", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "defined for binary tasks" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_manifest_written_before_failure(tmp_path, capsys):
    # the manifest lands even when the run itself errors out later, after
    # every input was read and checked
    cfg = write_cfg(tmp_path, BOUND_CFG, "b.cfg")
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        rc = cli.main(["bound-check", "--config", cfg, "--out", str(out),
                       "--set", "train.lr=1e6"])
    assert rc == cli.EXIT_DIVERGED
    assert (out / "manifest.json").exists()
