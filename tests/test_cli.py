import dataclasses
import json

import numpy as np
import pytest

from tritrain import analysis, cli, datagen, trainer
from tritrain.nnlib import ConfigError

from conftest import MALFORMED_CHECKPOINTS, rewrite_checkpoint

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


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_val_count_is_an_unknown_key(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, TRAIN_CFG + "data.val_count = 20\n")
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "unknown config key 'data.val_count'" in capsys.readouterr().err


def test_config_sections_follow_the_dataclass_fields():
    keys = cli.SECTION_KEYS
    assert keys["train"] >= {"steps_k", "lambda", "seed"} and "lam" not in keys["train"]
    assert not keys["train"] & {"labeling", "gates"}
    shift_fields = {f.name for f in dataclasses.fields(datagen.ShiftSpec)}
    assert keys["data"] == shift_fields | set(cli.LOADER_KEYS)
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


def sparse_bow_cfg(tmp_path, source_rows, dim_line="data.dim = 3\n"):
    (tmp_path / "a.txt").write_text(source_rows)
    (tmp_path / "b.txt").write_text("1 0:1.0\n-1 1:2.0\n1 2:0.5\n-1 0:0.3\n")
    data = (f'data.format = "sparse_bow"\ndata.source_path = "{tmp_path / "a.txt"}"\n'
            f'data.target_path = "{tmp_path / "b.txt"}"\n' + dim_line)
    return write_cfg(tmp_path, data + TRAIN_CFG[len(DATA_CFG):], "bow.cfg")


def test_train_on_a_one_row_source_exits_config(tmp_path, capsys):
    cfg = sparse_bow_cfg(tmp_path, "1 0:1.0\n")
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert "at least 2 source rows, got 1" in capsys.readouterr().err


def test_train_sparse_bow_without_dim_exits_config(tmp_path, capsys):
    cfg = sparse_bow_cfg(tmp_path, "1 0:1.0\n-1 1:1.0\n", dim_line="")
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert "data.dim" in capsys.readouterr().err


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


def test_bound_check_rejects_oversized_instance(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BOUND_CFG + "bound.max_samples = 10\n", "b.cfg")
    rc = cli.main(["bound-check", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG


def test_bound_check_rejects_multiclass(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BOUND_CFG + "data.num_classes = 3\n", "b.cfg")
    rc = cli.main(["bound-check", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG


def test_manifest_written_before_failure(tmp_path, capsys):
    # the manifest lands even when the run itself errors out later
    cfg = write_cfg(tmp_path, BOUND_CFG + "bound.max_samples = 10\n", "b.cfg")
    out = tmp_path / "o"
    cli.main(["bound-check", "--config", cfg, "--out", str(out)])
    assert (out / "manifest.json").exists()
