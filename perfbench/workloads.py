"""The benchmark's two workloads, each a closed loop with one client.

A workload builds its inputs from the workload seed in `setup` (timed as
`setup_s`). The runner then makes passes over its items, calling `run` on
each in turn, one operation at a time; `wall_s` is the time of a pass.
Every item has a key; runs of the same key must produce byte-identical
outputs, which is the determinism check.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tritrain import analysis, cli, datagen, trainer

_clock = time.perf_counter


@dataclass
class Outcome:
    """Result of one operation: one `trainer.run` or one CLI call."""
    key: str
    wall_s: float = math.nan
    train_s: float = math.nan     # time inside trainer.run
    rows: int = 0                 # mini-batch rows fed to the objectives
    digest: str | None = None     # sha256 of the operation's output files
    acc_ft: float = math.nan
    adapt_gain: float = math.nan
    errors: list[str] = field(default_factory=list)


def _sha256(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _train(key, x_s, y_s, x_t, y_t, cfg, probe, workdir) -> Outcome:
    """One `trainer.run`, evaluated on the target pool like the acceptance
    fixture; the output is the metrics.csv it writes."""
    probe.reset()
    t0 = _clock()
    hist, _ = trainer.run(x_s, y_s, x_t, cfg, eval_x=x_t, eval_y=y_t, target_y_hidden=y_t)
    wall = _clock() - t0
    path = workdir / "metrics.csv"
    trainer.write_metrics_csv(hist, path)
    return Outcome(key=key, wall_s=wall, train_s=probe.train_s, rows=probe.rows,
                   digest=_sha256(path), acc_ft=hist[-1].acc_ft,
                   adapt_gain=hist[-1].acc_ft - hist[0].acc_ft)


NN_SPANS = ("nnlib.affine.fwd", "nnlib.affine.bwd", "nnlib.sigmoid.fwd",
            "nnlib.batch_norm.fwd", "nnlib.batch_norm.bwd", "nnlib.softmax_cross_entropy",
            "nnlib.opt_step", "nnlib.zero_grads", "trinet.joint_labeling_loss",
            "trinet.target_loss", "trinet.weight_divergence", "trinet.forward",
            "labeler.label_candidates", "labeler.sample_candidates",
            "trainer.run", "trainer.pretrain")
ADAPT_SPANS = NN_SPANS + ("trainer.adapt_step", "trainer.evaluate")


class Workload:
    name = ""
    reports_accuracy = True
    setups_per_op = 5       # set-ups timed before each untimed-loop operation
    expected_spans: tuple[str, ...] = ()   # spans a traced run must record

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.items: list[tuple] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, item, probe) -> Outcome:
        raise NotImplementedError

    def attempt(self, item, probe) -> Outcome:
        """Run one operation; one that raises or measures a non-finite or
        empty value fails."""
        try:
            out = self.run(item, probe)
        except Exception as exc:  # counted as a failed operation
            traceback.print_exc(file=sys.stderr)
            return Outcome(key=item[0], errors=[f"raised {exc!r}"])
        values = [out.wall_s, out.train_s]
        if self.reports_accuracy:
            values += [out.acc_ft, out.adapt_gain]
        if not all(math.isfinite(v) for v in values) or out.train_s <= 0 or out.rows <= 0:
            out.errors.append(f"non-finite or empty measurement: wall_s={out.wall_s} "
                              f"train_s={out.train_s} rows={out.rows} acc_ft={out.acc_ft}")
        return out

    def check_run(self, outcomes: list[Outcome]) -> list[str]:
        """Checks over all successful operations; returns failure messages."""
        return []


# the acceptance fixture's moons_benchmark_config, unchanged
MOONS_CONFIG = dict(steps_k=20, pretrain_iters=1000, iter_per_phase=100,
                    batch_labeling=64, batch_target=128, lr=0.05, lam=0.01,
                    hidden_dim=16, activation="sigmoid", use_bn=True)
MOONS_WINDOW = 4        # seeds per pass; every pass repeats them
MIN_MEAN_GAIN = 0.05    # acceptance criterion 4


class MoonsSweep(Workload):
    """Rotated two moons: one `trainer.run` per seed over consecutive seeds.
    Tiny matrices, so per-call overhead in nnlib/trinet bounds the run."""
    name = "moons_sweep"
    setups_per_op = 10
    expected_spans = ADAPT_SPANS + ("datagen.generate",)

    def setup(self):
        self.items = []
        for seed in range(self.seed, self.seed + MOONS_WINDOW):
            ds = datagen.generate(datagen.ShiftSpec(
                generator="two_moons", n_source=500, n_target=500,
                rotation_deg=30, noise_sigma=0.1, seed=seed))
            cfg = trainer.TrainConfig(**MOONS_CONFIG, seed=seed)
            self.items.append((f"seed={seed}", ds, cfg))

    def run(self, item, probe):
        key, ds, cfg = item
        return _train(key, ds.source_x, ds.source_y, ds.target_x, ds.target_y_hidden,
                      cfg, probe, self.workdir)

    def check_run(self, outcomes):
        gains = {o.key: o.adapt_gain for o in outcomes}
        mean = float(np.mean(list(gains.values())))
        if mean < MIN_MEAN_GAIN:
            return [f"mean adapt_gain {mean:.4f} over {len(gains)} seeds < {MIN_MEAN_GAIN}"]
        return []


BOUND_CONFIG = """\
data.generator = "two_moons"
data.n_source = 400
data.n_target = 400
data.rotation_deg = 30
data.noise_sigma = 0.1
train.hidden_dim = 16
bound.max_samples = 1000
bound.max_hypotheses = 4000
bound.thresholds_per_dim = 1000
"""


class BoundCli(Workload):
    """In-process `tritrain bound-check` on an enumerable rotated-moons
    instance near the sample cap, alternating the clean check with the
    `--inject-fault` control. The exhaustive H x H disagreement matrices and
    the Adagrad domain classifier dominate."""
    name = "bound_cli"
    reports_accuracy = False
    expected_spans = NN_SPANS + (
        "cli.main", "datagen.generate", "analysis.make_stump_class",
        "analysis.verify_theorem1", "analysis.verify_rho_bound",
        "analysis.empirical_hdh_distance", "analysis.a_distance")

    def setup(self):
        config = self.workdir / "bound.cfg"
        config.write_text(BOUND_CONFIG + f"data.seed = {self.seed}\ntrain.seed = {self.seed}\n")
        cfg = cli.load_config(config)
        ds = datagen.generate(cli.build_shift_spec(cfg))
        n = len(ds.source_x) + len(ds.target_x)
        h = analysis.make_stump_class(np.vstack([ds.source_x, ds.target_x]),
                                      max_thresholds_per_dim=cfg["bound.thresholds_per_dim"])
        if n > cfg["bound.max_samples"] or len(h) > cfg["bound.max_hypotheses"]:
            raise ValueError(f"instance of {n} samples and {len(h)} hypotheses exceeds the caps")
        self.items = [("clean", config, []), ("fault", config, ["--inject-fault"])]

    def run(self, item, probe):
        key, config, extra = item
        out_dir = self.workdir / key
        probe.reset()
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = _clock()
            rc = cli.main(["bound-check", "--config", str(config), "--out", str(out_dir)] + extra)
            wall = _clock() - t0
        report = out_dir / "report.json"
        out = Outcome(key=key, wall_s=wall, train_s=probe.train_s, rows=probe.rows,
                      digest=_sha256(report, out_dir / "metrics.csv"))
        summary = json.loads(report.read_text())
        if key == "clean":
            bad = summary["num_violations"] + summary["theorem1"]["num_violations"]
            if rc != cli.EXIT_OK or bad:
                out.errors.append(f"clean check exited {rc} with {bad} violations")
        elif rc != cli.EXIT_VERIFY:
            # only the exit code is checked: which bound flags the fault
            # depends on the instance
            out.errors.append(f"fault injection exited {rc}, expected {cli.EXIT_VERIFY}")
        return out


WORKLOADS = {w.name: w for w in (MoonsSweep, BoundCli)}
