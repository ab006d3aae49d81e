"""Mutation table: faults the tests must catch, each one snippet swap in `src/`.

Every entry names a source file, an exact snippet that occurs once in it,
the snippet's replacement and the tests that must fail on the mutant. The
tier-1 suite checks only that each snippet still occurs exactly once
(`tests/test_hygiene.py`); running the table is slower and kept out of it:

    python tests/mutants.py [NAME ...]

The runner copies the repository's `src/`, `tests/`, `perfbench/`, `demos/`
and `pyproject.toml` to a temporary directory and never writes to the
working tree. There it runs every listed test once unmutated, where each
must pass, then applies one mutant at a time and runs its tests with `-x`,
where one must fail. It exits 1 unless every mutant is caught.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "demos", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str           # path under the repository root
    snippet: str        # occurs exactly once in `file`
    replacement: str
    tests: tuple        # pytest ids, one of which must fail on the mutant


MUTANTS = (
    Mutant("f_stepped_under_closed_gate", "src/tritrain/trainer.py",
           "    if getattr(net.gates, gate):\n        params[\"f\"], grads[\"f\"]",
           "    if True:\n        params[\"f\"], grads[\"f\"]",
           ("tests/test_trainer.py::test_closed_gate_leaves_shared_arena_and_its_slot_untouched",)),
    Mutant("f_backpropagated_under_closed_gate", "src/tritrain/trinet.py",
           "        if getattr(self.gates, gate):",
           "        if True:",
           ("tests/test_trinet.py::test_gate_blocks_shared_update_from_labeling_heads",
            "tests/test_trinet.py::test_gate_blocks_shared_update_from_target_head")),
    Mutant("tanh_sigmoid", "src/tritrain/nnlib.py",
           "    return np.divide(num, e, out=num)",
           "    return (np.tanh(x / 2) + 1) / 2",
           ("tests/test_nnlib.py::test_sigmoid_bit_identical_to_reference",)),
    Mutant("no_finite_loss_check", "src/tritrain/trainer.py",
           "        if not math.isfinite(loss):",
           "        if False:",
           ("tests/test_trainer.py::test_divergent_pretraining_raises_naming_the_phase",
            "tests/test_cli.py::test_train_divergence_exits_diverged")),
    Mutant("one_generator_for_every_a_distance_fold", "src/tritrain/analysis.py",
           "[np.random.default_rng(s) for s in ss]",
           "[np.random.default_rng(ss[0])] * len(ss)",
           ("tests/test_analysis.py::test_a_distance_stacked_folds_equal_fold_by_fold_training",)),
    # f's backward: the activations', dropout's and the first layer's dW
    Mutant("sigmoid_backward_without_its_derivative", "src/tritrain/nnlib.py",
           "            dout = dout * self._act * (1.0 - self._act)",
           "            dout = dout * self._act",
           ("tests/test_trinet.py::test_joint_loss_full_gradient_matches_fd",
            "tests/test_acceptance.py::test_acceptance_gradient_suite")),
    Mutant("relu_backward_passes_every_unit", "src/tritrain/nnlib.py",
           "        else:\n            dout = dout * self._act\n",
           "        else:\n            dout = dout\n",
           ("tests/test_nnlib.py::test_sigmoid_relu_grads_match_finite_differences",
            "tests/test_acceptance.py::test_short_run_bytes_are_pinned")),
    Mutant("dropout_backward_without_its_mask", "src/tritrain/nnlib.py",
           "            dout = dout * self._mask",
           "            dout = dout",
           ("tests/test_acceptance.py::test_acceptance_gradient_suite",
            "tests/test_acceptance.py::test_short_run_bytes_are_pinned")),
    Mutant("first_layer_dW_halved", "src/tritrain/nnlib.py",
           "np.add(self.dW, dW, out=self.dW)",
           "np.add(self.dW, 0.5 * dW, out=self.dW)",
           ("tests/test_trinet.py::test_joint_loss_full_gradient_matches_fd",
            "tests/test_acceptance.py::test_acceptance_gradient_suite")),
    Mutant("batch_norm_backward_without_the_xhat_term", "src/tritrain/nnlib.py",
           "    dx -= xhat * sums[3]\n",
           "",
           ("tests/test_nnlib.py::test_bn_grads_match_finite_differences",)),
    Mutant("batch_norm_eval_on_batch_statistics", "src/tritrain/nnlib.py",
           "    xhat = (x - running[0]) / np.sqrt(running[1] + eps)",
           "    xhat = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + eps)",
           ("tests/test_nnlib.py::test_bn_eval_standardizes_with_the_running_statistics",
            "tests/test_acceptance.py::test_short_run_bytes_are_pinned")),
    Mutant("cross_entropy_gradient_unscaled", "src/tritrain/nnlib.py",
           "    grad /= n\n",
           "",
           ("tests/test_nnlib.py::test_ce_grad_matches_finite_differences",)),
    Mutant("weight_divergence_transposed_sign", "src/tritrain/trinet.py",
           "np.matmul(W1, s, out=grads[1])",
           "np.matmul(W1, s.T, out=grads[1])",
           ("tests/test_trinet.py::test_weight_divergence_grads_match_brute_force_and_fd",)),
    Mutant("no_checkpoint_version_check", "src/tritrain/trainer.py",
           "        if meta[\"version\"] != CHECKPOINT_VERSION:",
           "        if False:",
           ("tests/test_trinet.py::test_checkpoint_of_previous_version_is_rejected",)),
    Mutant("checkpoint_lr_not_loaded", "src/tritrain/trainer.py",
           "        state.opt.lr, state.step = float(lr), step",
           "        state.step = step",
           ("tests/test_trinet.py::test_checkpoint_round_trip",)),
    Mutant("fault_injection_injects_nothing", "src/tritrain/cli.py",
           "    c_offset = -0.1 if args.inject_fault else 0.0",
           "    c_offset = 0.0",
           ("tests/test_cli.py::test_bound_check_fault_injection_exits_verify",)),
)


def _pytest(tmp: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run(mutants) -> bool:
    """Print one line per mutant; True if the unmutated tests pass and
    every mutant is caught."""
    ok = True
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, tmp / name)
        every = sorted({t for m in mutants for t in m.tests})
        rc = _pytest(tmp, every)
        print(f"unmutated: {'pass' if rc == 0 else f'FAIL (pytest exit {rc})'}", flush=True)
        ok = rc == 0
        for m in mutants:
            path = tmp / m.file
            original = path.read_text()
            if original.count(m.snippet) != 1:
                print(f"{m.name}: snippet occurs {original.count(m.snippet)} times in {m.file}")
                ok = False
                continue
            path.write_text(original.replace(m.snippet, m.replacement))
            t0 = time.perf_counter()
            rc = _pytest(tmp, m.tests)
            path.write_text(original)
            caught = rc == 1
            ok &= caught
            print(f"{m.name}: {'caught' if caught else f'SURVIVED (pytest exit {rc})'} "
                  f"in {time.perf_counter() - t0:.1f} s", flush=True)
    return ok


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    t0 = time.perf_counter()
    ok = run([m for m in MUTANTS if not names or m.name in names])
    print(f"{'all caught' if ok else 'FAILED'} in {time.perf_counter() - t0:.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
