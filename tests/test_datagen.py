import numpy as np
import pytest

from tritrain import analysis, trainer
from tritrain.datagen import (DomainDataset, ParseError, ShiftSpec,
                              generate, load_dataset, load_sparse_bow,
                              save_dataset)
from tritrain.nnlib import ConfigError
from tritrain.trainer import TrainConfig, evaluate, init_state, pretrain


# ---------------------------------------------------------------------------
# spec validation


def test_unknown_generator_rejected():
    with pytest.raises(ConfigError):
        ShiftSpec(generator="spiral")


def test_moons_is_binary_only():
    with pytest.raises(ConfigError):
        ShiftSpec(generator="two_moons", num_classes=3)


def test_spec_round_trip():
    spec = ShiftSpec(generator="gaussian_blobs", rotation_deg=45,
                     translation=(1.0, -2.0), num_classes=4, seed=9)
    assert ShiftSpec.from_dict(spec.to_dict()) == spec


# ---------------------------------------------------------------------------
# generated geometry


def test_class_balance_within_one():
    for gen, k in (("two_moons", 2), ("gaussian_blobs", 3)):
        ds = generate(ShiftSpec(generator=gen, n_source=401, n_target=400,
                                num_classes=k, noise_sigma=0.1))
        counts = np.bincount(ds.source_y, minlength=k)
        assert counts.max() - counts.min() <= 1
        counts = np.bincount(ds.target_y_hidden, minlength=k)
        assert counts.max() - counts.min() <= 1


def test_generation_is_seed_deterministic():
    spec = ShiftSpec(rotation_deg=20, seed=5)
    a, b = generate(spec), generate(spec)
    np.testing.assert_array_equal(a.source_x, b.source_x)
    np.testing.assert_array_equal(a.target_x, b.target_x)
    np.testing.assert_array_equal(a.target_y_hidden, b.target_y_hidden)


def test_no_shift_domains_are_indistinguishable():
    ds = generate(ShiftSpec(n_source=500, n_target=500, rotation_deg=0, seed=0))
    d = analysis.a_distance(ds.source_x, ds.target_x, seed=0)
    assert d < 0.25


def test_blob_half_turn_flips_binary_labels():
    # rotating 2-class blobs by 180 degrees swaps the clusters, so a
    # source-trained classifier should score near zero on true target labels
    ds = generate(ShiftSpec(generator="gaussian_blobs", rotation_deg=180,
                            n_source=400, n_target=400, noise_sigma=0.2, seed=1))
    cfg = TrainConfig(steps_k=0, pretrain_iters=300, batch_labeling=32,
                      batch_target=32, lr=0.05, hidden_dim=8, seed=0)
    state = init_state(cfg, 2, ds.num_classes)
    pretrain(state, ds.source_x, ds.source_y, cfg)
    assert evaluate(state.net, ds.source_x, ds.source_y)["ft"] > 0.95
    assert evaluate(state.net, ds.target_x, ds.target_y_hidden)["ft"] < 0.05


def test_rotated_moons_hurt_source_only_model():
    accs = []
    for seed in range(10):
        ds = generate(ShiftSpec(rotation_deg=30, noise_sigma=0.1, seed=seed))
        cfg = TrainConfig(steps_k=0, pretrain_iters=400, batch_labeling=64,
                          batch_target=64, lr=0.05, hidden_dim=16, seed=seed)
        state = init_state(cfg, 2, 2)
        pretrain(state, ds.source_x, ds.source_y, cfg)
        accs.append(evaluate(state.net, ds.target_x, ds.target_y_hidden)["ft"])
    mean = float(np.mean(accs))
    assert 0.5 < mean < 0.95  # hurt by the shift but above chance


def test_translation_moves_target_mean():
    base = generate(ShiftSpec(seed=3))
    shifted = generate(ShiftSpec(translation=(5.0, -1.0), seed=3))
    delta = shifted.target_x.mean(axis=0) - base.target_x.mean(axis=0)
    np.testing.assert_allclose(delta, [5.0, -1.0], atol=1e-9)


# ---------------------------------------------------------------------------
# sparse bag-of-words format


def test_sparse_bow_basic_parse(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("1 0:2.5 3:1.0\n-1 1:0.5\n\n0\n")
    x, y = load_sparse_bow(path, dim=4)
    np.testing.assert_allclose(x, [[2.5, 0, 0, 1.0], [0, 0.5, 0, 0], [0, 0, 0, 0]])
    np.testing.assert_array_equal(y, [1, 0, 0])  # -1 maps to 0


def test_sparse_bow_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    x, y = load_sparse_bow(path, dim=7)
    assert x.shape == (0, 7) and y.shape == (0,)


def test_sparse_bow_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 0:1.0\n1 zero:1.0\n")
    with pytest.raises(ParseError, match="line 2") as e:
        load_sparse_bow(path, dim=2)
    assert e.value.lineno == 2


def test_sparse_bow_rejects_bad_label(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("pos 0:1.0\n")
    with pytest.raises(ParseError, match="line 1"):
        load_sparse_bow(path, dim=2)


def test_sparse_bow_rejects_out_of_range_index(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 5:1.0\n")
    with pytest.raises(ParseError, match="out of range"):
        load_sparse_bow(path, dim=5)


def save_sparse_bow(path, x, y):
    """Write `<label> <index>:<value>` lines, the nonzero entries only."""
    with open(path, "w") as fh:
        for row, label in zip(x, y):
            toks = " ".join(f"{i}:{float(row[i])!r}" for i in np.flatnonzero(row))
            fh.write(f"{int(label)} {toks}".rstrip() + "\n")


def test_sparse_bow_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = np.where(rng.random((20, 15)) < 0.2, rng.random((20, 15)), 0.0)
    y = rng.integers(0, 2, size=20)
    path = tmp_path / "rt.txt"
    save_sparse_bow(path, x, y)
    x2, y2 = load_sparse_bow(path, dim=15)
    np.testing.assert_array_equal(x, x2)
    np.testing.assert_array_equal(y, y2)


# ---------------------------------------------------------------------------
# dataset directory round trip


def test_save_load_dataset_round_trip(tmp_path):
    spec = ShiftSpec(rotation_deg=30, n_target=600, seed=4)
    ds = generate(spec)
    save_dataset(tmp_path / "d", ds, spec)
    back = load_dataset(tmp_path / "d")
    np.testing.assert_array_equal(back.source_x, ds.source_x)
    np.testing.assert_array_equal(back.source_y, ds.source_y)
    np.testing.assert_array_equal(back.target_x, ds.target_x)
    np.testing.assert_array_equal(back.target_y_hidden, ds.target_y_hidden)
    assert back.num_classes == ds.num_classes


def test_dataset_dim_mismatch_rejected():
    with pytest.raises(ConfigError):
        DomainDataset(source_x=np.zeros((3, 2)), source_y=np.zeros(3, dtype=np.int64),
                      target_x=np.zeros((3, 3)), num_classes=2)


def _saved_dataset(tmp_path):
    spec = ShiftSpec(n_source=20, n_target=20, seed=1)
    save_dataset(tmp_path / "d", generate(spec), spec)
    return tmp_path / "d"


def _set_csv_field(path, lineno, col, value):
    lines = path.read_text().splitlines()
    fields = lines[lineno - 1].split(",")
    fields[col] = value
    lines[lineno - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_dataset_rejects_non_finite_features(tmp_path, value):
    d = _saved_dataset(tmp_path)
    _set_csv_field(d / "source.csv", 4, 1, value)
    with pytest.raises(ParseError, match="non-finite") as e:
        load_dataset(d)
    assert "source.csv" in str(e.value)
    assert e.value.lineno == 4


@pytest.mark.parametrize("label", ["2", "-1"])
def test_load_dataset_rejects_out_of_range_labels(tmp_path, label):
    d = _saved_dataset(tmp_path)
    _set_csv_field(d / "target.csv", 3, -1, label)
    with pytest.raises(ParseError, match=r"outside \[0, 2\)") as e:
        load_dataset(d)
    assert "target.csv" in str(e.value)
    assert e.value.lineno == 3


@pytest.mark.parametrize("line, message", [
    ("0.5,1", "2 fields, header has 3"),
    ("0.5,0.25,1,7", "4 fields, header has 3"),
    ("abc,0.25,1", "could not convert string to float: 'abc'"),
    ("0.5,0.25,1.0", "invalid literal for int"),
])
def test_load_dataset_rejects_malformed_rows(tmp_path, line, message):
    d = _saved_dataset(tmp_path)
    lines = (d / "source.csv").read_text().splitlines()
    lines[4] = line
    (d / "source.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=message) as e:
        load_dataset(d)
    assert "source.csv" in str(e.value)
    assert e.value.lineno == 5


def test_load_dataset_rejects_a_file_without_header(tmp_path):
    d = _saved_dataset(tmp_path)
    (d / "target.csv").write_text("")
    with pytest.raises(ParseError, match="target.csv, line 1: missing header"):
        load_dataset(d)
