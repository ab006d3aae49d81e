"""tritrain benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload {moons_sweep,bound_cli} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; it benchmarks the sources under `src/`. It
runs passes over the workload's items, one operation at a time, for S
seconds (`wall_s` is the median time of a pass), sets up the inputs from
the seed again before each operation (`setup_s` is the median of those
set-ups), and checks every output. With `--trace 1` it spends the first half of S
untraced and the second half with every module wrapped in spans, reports
the per-module metrics and the tracing overhead, and writes the spans to
`.bench_out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-module metrics with `--trace 1`. The lines before
it hold the provenance, every metric with its unit and kind, the output
digests and the checks.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("moons_sweep", "bound_cli")
MAX_WALL_S = 150.0    # start no operation after this, whatever --seconds says

_clock = time.perf_counter

# (name, unit): the end-to-end metrics of the final line, as in BENCHMARK.json
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("train_rows_per_s", "1/s"),
              ("peak_rss_mb", "MB"))

# (name, unit, kind): the per-module metrics of a traced run. Kinds:
# "measured" (time or rate from spans), "count" (exact count of calls, rows
# or items), "computed" (derived from shapes or sizes, not measured).
PER_LAYER = (
    ("nnlib.affine.fwd_s", "s", "measured"),
    ("nnlib.affine.bwd_s", "s", "measured"),
    ("nnlib.affine.calls", "count", "count"),
    ("nnlib.affine.gflop", "GFLOP-computed", "computed"),
    ("nnlib.sigmoid.fwd_s", "s", "measured"),
    ("nnlib.batch_norm.fwd_s", "s", "measured"),
    ("nnlib.batch_norm.bwd_s", "s", "measured"),
    ("nnlib.softmax_cross_entropy.s", "s", "measured"),
    ("nnlib.opt_step.s", "s", "measured"),
    ("nnlib.opt_step.calls", "count", "count"),
    ("nnlib.zero_grads.s", "s", "measured"),
    ("trinet.joint_labeling_loss.self_s", "s", "measured"),
    ("trinet.target_loss.self_s", "s", "measured"),
    ("trinet.weight_divergence.s", "s", "measured"),
    ("trinet.layer_calls_per_opt_step", "count", "count"),
    ("trinet.forward.s", "s", "measured"),
    ("trinet.forward.rows", "count", "count"),
    ("labeler.label_candidates.s", "s", "measured"),
    ("labeler.sample_candidates.s", "s", "measured"),
    ("labeler.candidates", "count", "count"),
    ("labeler.accepted", "count", "count"),
    ("labeler.accept_ratio", "ratio", "count"),
    ("trainer.pretrain.s", "s", "measured"),
    ("trainer.adapt_step.self_s", "s", "measured"),
    ("trainer.evaluate.s", "s", "measured"),
    ("trainer.evaluate.calls", "count", "count"),
    ("trainer.opt_steps", "count", "count"),
    ("trainer.rows", "count", "count"),
    ("trainer.labeling_phase_s", "s", "measured"),
    ("trainer.target_phase_s", "s", "measured"),
    ("trainer.pool_bytes_copied", "B-computed", "computed"),
    ("datagen.generate.s", "s", "measured"),
    ("analysis.verify_theorem1.s", "s", "measured"),
    ("analysis.verify_rho_bound.s", "s", "measured"),
    ("analysis.empirical_hdh_distance.s", "s", "measured"),
    ("analysis.empirical_hdh_distance.calls", "count", "count"),
    ("analysis.hypotheses", "count", "count"),
    ("analysis.hdh_pairs_per_s", "1/s", "measured"),
    ("analysis.disagreement_bytes", "B-computed", "computed"),
    ("analysis.a_distance.s", "s", "measured"),
    ("analysis.violations", "count", "count"),
    ("cli.main.s", "s", "measured"),
    ("cli.self_s", "s", "measured"),
    ("trace.overhead_s", "s", "measured"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def tail(samples):
    """(percentile, value) of the highest of p50/p90/p99/p99.9 that has at
    least ten samples above it (nearest rank), or None."""
    xs = sorted(samples)
    best = None
    for p in (50, 90, 99, 99.9):
        rank = math.ceil(p / 100 * len(xs))
        if rank >= 1 and len(xs) - rank >= 10:
            best = (p, xs[rank - 1])
    return best


def timing(samples):
    """Median, tail percentile and sample count of a timing."""
    t = tail(samples)
    return {"median": statistics.median(samples), "n": len(samples),
            "tail": None if t is None else {"p": t[0], "value": t[1]}}


def provenance(args, nproc):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": git_sha(), "src_sha256": src.hexdigest(),
            "nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
            "machine": platform.machine()}


def git_sha():
    """HEAD of the repository the benchmark sits in; None outside one."""
    # stop git from looking for a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def timed_setup(wl, setup_times):
    t0 = _clock()
    wl.setup()
    setup_times.append(_clock() - t0)


def closed_loop(wl, probe, seconds, t_start, tracer=None, setup_times=None):
    """Run passes over the workload's items, one operation at a time, for
    about `seconds`: at least one whole pass, and another operation only
    while the median operation so far still fits. With `setup_times`, set
    up again before each operation, so that the set-up samples span the run
    as the operations do. Returns the passes, each a list of outcomes; the
    last may be partial."""
    passes, lengths = [], []
    n_items = len(wl.items)
    start = _clock()
    while len(lengths) < n_items or (
            _clock() - start + statistics.median(lengths) <= seconds
            and _clock() - t_start < MAX_WALL_S):
        t0 = _clock()
        for _ in range(wl.setups_per_op if setup_times is not None else 0):
            timed_setup(wl, setup_times)
        # taken after set-up, so that the previous inputs can be freed
        item = wl.items[len(lengths) % n_items]
        if tracer is not None:
            tracer.begin_op(f"pass:{item[0]}")
        if len(lengths) % n_items == 0:
            passes.append([])
        passes[-1].append(wl.attempt(item, probe))
        lengths.append(_clock() - t0)
    return passes


def pass_times(passes, n_items):
    """Wall time of each whole pass whose operations all succeeded."""
    return [sum(o.wall_s for o in p) for p in passes
            if len(p) == n_items and not any(o.errors for o in p)]


def check_digests(outcomes):
    """Outputs of the same item must be byte-identical across passes and
    between the untraced and traced runs; mismatches count as failures.
    Returns the first digest per item and whether all agreed."""
    first, agree = {}, True
    for o in outcomes:
        if o.digest is None:
            continue
        ref = first.setdefault(o.key, o.digest)
        if o.digest != ref:
            agree = False
            o.errors.append(f"output digest {o.digest[:16]} differs from {ref[:16]} for {o.key}")
    return first, agree


def bench(args, t_start):
    import tracer
    import workloads

    wl = workloads.WORKLOADS[args.workload](
        args.seed, Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)))
    probe = tracer.Probe()
    tr = tracer.Tracer() if args.trace else None
    budget = args.seconds / 2 if args.trace else args.seconds
    try:
        setup_times = []
        timed_setup(wl, setup_times)
        with probe.installed():
            untraced_passes = closed_loop(wl, probe, budget, t_start, setup_times=setup_times)
            untraced = [o for p in untraced_passes for o in p]
            extra = []
            if len({o.key for o in untraced}) == len(untraced):
                # no item ran twice: repeat the first, untimed, for the
                # determinism check
                extra.append(wl.attempt(wl.items[0], probe))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            traced_passes = []
            if tr is not None:
                with tr.installed():
                    tr.begin_op("setup")
                    wl.setup()
                    traced_passes = closed_loop(wl, probe, budget, t_start, tracer=tr)
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)

    traced = [o for p in traced_passes for o in p]
    checks = {}
    everything = untraced + extra + traced
    digests, checks["determinism"] = check_digests(everything)
    ok = [o for o in untraced if not o.errors]
    walls = pass_times(untraced_passes, len(wl.items))
    run_errors = wl.check_run(ok) if ok else ["no operation succeeded"]
    checks["workload"] = not run_errors
    for o in untraced:
        o.errors.extend(run_errors)

    per_layer = {}
    if tr is not None:
        pass_ops = [i for i, label in enumerate(tr.op_labels) if label.startswith("pass:")]
        calls = tr.span_calls()
        missing = [s for s in wl.expected_spans if calls.get(s, 0) == 0]
        checks["patch_sites"] = not missing
        for o in traced:
            o.errors.extend(f"span {s} recorded no call" for s in missing)
        per_layer = tr.summarize(pass_ops)
        traced_walls = pass_times(traced_passes, len(wl.items))
        per_layer["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(walls)
            if traced_walls and walls else math.nan)
        tr.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")

    attempted = len(everything)
    failed = sum(1 for o in everything if o.errors)
    e2e = {}
    if walls:
        e2e["wall_s"] = timing(walls)
    if ok:
        e2e.update({
            "setup_s": timing(setup_times),
            # work over time summed across the run, not a per-call median:
            # trainer.run is short on bound_cli
            "train_rows_per_s": sum(o.rows for o in ok) / sum(o.train_s for o in ok),
            "peak_rss_mb": peak_rss_mb,
        })
        if wl.reports_accuracy:
            by_key = {o.key: o for o in ok}
            e2e["acc_ft"] = statistics.fmean(o.acc_ft for o in by_key.values())
            e2e["adapt_gain"] = statistics.fmean(o.adapt_gain for o in by_key.values())
    e2e["failed_frac"] = failed / attempted
    return {"e2e": e2e, "per_layer": per_layer, "attempted": attempted, "failed": failed,
            "checks": checks, "digests": digests,
            "missing_sites": tr.missing_sites if tr is not None else [],
            "errors": sorted({e for o in everything for e in o.errors})}


def _value(v):
    return v["median"] if isinstance(v, dict) else v


def report(prov, res, trace):
    """Human-readable lines, then the result object."""
    lines = [f"# provenance {json.dumps(prov, sort_keys=True)}", "# end-to-end (untraced)"]
    units = dict(END_TO_END, acc_ft="ratio", adapt_gain="ratio", failed_frac="ratio")
    for name in ("wall_s", "setup_s", "train_rows_per_s", "peak_rss_mb", "acc_ft",
                 "adapt_gain", "failed_frac"):
        v = res["e2e"].get(name)
        if v is None:
            lines.append(f"{name:<24} n/a")
        elif isinstance(v, dict):
            t = v["tail"]
            tail_s = (f"p{t['p']:g} {t['value']:.6g}" if t
                      else "no percentile has 10 samples beyond it")
            lines.append(f"{name:<24} {v['median']:<14.6g} {units[name]:<6} "
                         f"median of n={v['n']}; {tail_s}")
        else:
            lines.append(f"{name:<24} {v:<14.6g} {units[name]}")
    if trace:
        lines.append("# per-module (traced; per operation unless a rate or ratio)")
        for name, unit, kind in PER_LAYER:
            lines.append(f"{name:<38} {res['per_layer'][name]:<14.6g} {unit:<15} {kind}")
    for key, digest in sorted(res["digests"].items()):
        lines.append(f"# metrics digest {key} sha256={digest}")
    for name, ok in res["checks"].items():
        lines.append(f"# check {name}: {'ok' if ok else 'FAILED'}")
    for site in res["missing_sites"]:
        lines.append(f"# patch site no longer exists: {site}")
    for err in res["errors"]:
        lines.append(f"# failure: {err}")

    if trace:
        metrics = {n: {"value": res["per_layer"][n], "unit": u} for n, u, _ in PER_LAYER}
    else:
        metrics = {n: {"value": _value(res["e2e"].get(n, math.nan)), "unit": u}
                   for n, u in END_TO_END}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    if not finite:
        lines.append("# failure: a reported metric is not finite")
        for m in metrics.values():
            m["value"] = m["value"] if math.isfinite(m["value"]) else None
    correct = finite and res["failed"] == 0 and all(res["checks"].values())
    result = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    t_start = _clock()
    args = parse_args(argv)
    if not (ROOT / "src" / "tritrain" / "__init__.py").is_file():
        print(f"error: no tritrain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(nproc)   # before numpy loads BLAS
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    res = bench(args, t_start)
    lines, result = report(provenance(args, nproc), res, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
