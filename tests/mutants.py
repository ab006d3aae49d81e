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
           "        if getattr(self.gates, ws[\"gate\"]):",
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
           "            dout *= np.subtract(_ONE, self._act, out=ws[\"e\"])\n",
           "            pass\n",
           ("tests/test_trinet.py::test_joint_loss_full_gradient_matches_fd",
            "tests/test_acceptance.py::test_acceptance_gradient_suite")),
    Mutant("relu_backward_passes_every_unit", "src/tritrain/nnlib.py",
           "            act = np.greater(z, 0.0, out=ws.get(\"mask\"))",
           "            act = np.greater(z, -np.inf, out=ws.get(\"mask\"))",
           ("tests/test_nnlib.py::test_sigmoid_relu_grads_match_finite_differences",
            "tests/test_acceptance.py::test_short_run_bytes_are_pinned")),
    Mutant("dropout_backward_without_its_mask", "src/tritrain/nnlib.py",
           "            dout = np.multiply(dout, self._mask, out=ws[\"z\"])",
           "            dout = dout",
           ("tests/test_acceptance.py::test_acceptance_gradient_suite",
            "tests/test_acceptance.py::test_short_run_bytes_are_pinned")),
    Mutant("first_layer_dW_halved", "src/tritrain/nnlib.py",
           "        affine_backward(dout, self._xt, out=(self.dW, self.db))\n",
           "        affine_backward(dout, self._xt, out=(self.dW, self.db))\n        self.dW *= 0.5\n",
           ("tests/test_trinet.py::test_joint_loss_full_gradient_matches_fd",
            "tests/test_acceptance.py::test_acceptance_gradient_suite")),
    Mutant("batch_norm_backward_without_the_xhat_term", "src/tritrain/nnlib.py",
           "    dx -= np.multiply(xhat, dgamma, out=buf[0])\n",
           "",
           ("tests/test_nnlib.py::test_bn_grads_match_finite_differences",)),
    Mutant("batch_norm_backward_without_its_gamma_factor", "src/tritrain/nnlib.py",
           "    scale = gamma.T * inv_std\n",
           "    scale = inv_std * 1.0\n",
           ("tests/test_nnlib.py::test_bn_grads_match_finite_differences",)),
    # the workspace: each buffer holds what its readers expect, and a new
    # batch size gets new buffers
    Mutant("batch_norm_backward_reads_the_squared_deviations", "src/tritrain/nnlib.py",
           "    cache = (xhat, inv_std, gamma, n)",
           "    cache = (sq, inv_std, gamma, n)",
           ("tests/test_nnlib.py::test_bn_grads_match_finite_differences",
            "tests/test_acceptance.py::test_short_run_bytes_are_pinned")),
    Mutant("workspace_kept_after_the_batch_size_changes", "src/tritrain/trinet.py",
           "        if ws is None or ws[\"key\"] != (phase, len(x)):",
           "        if ws is None or ws[\"key\"][0] != phase:",
           ("tests/test_trinet.py::test_objectives_at_changing_batch_sizes_equal_fresh_nets",
            "tests/test_acceptance.py::test_short_run_bytes_are_pinned")),
    Mutant("sigmoid_exp_of_plus_abs_x", "src/tritrain/nnlib.py",
           "    np.negative(e, out=e)\n",
           "",
           ("tests/test_nnlib.py::test_sigmoid_bit_identical_to_reference",
            "tests/test_nnlib.py::test_sigmoid_bits_equal_the_where_formula")),
    Mutant("batch_norm_eval_on_batch_statistics", "src/tritrain/nnlib.py",
           "    xhat = (x - mean) / np.sqrt(var + eps)",
           "    xhat = (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True)"
           " + eps)",
           ("tests/test_nnlib.py::test_bn_eval_standardizes_with_the_running_statistics",
            "tests/test_acceptance.py::test_short_run_bytes_are_pinned")),
    # the (features, batch) layout: statistics and normalisation must run
    # over the right axis; both mutants keep every shape valid
    Mutant("batch_norm_statistics_over_the_feature_axis", "src/tritrain/nnlib.py",
           "    mean, var, inv_std = stats[0], stats[1], stats[2]\n"
           "    np.add.reduce(x, axis=-1, keepdims=True, out=mean)\n    mean /= n\n"
           "    np.subtract(x, mean, out=xc)\n"
           "    np.add.reduce(np.multiply(xc, xc, out=sq), axis=-1, keepdims=True, out=var)\n",
           "    stats = np.empty((3, 1, x.shape[1]))\n"
           "    mean, var, inv_std = stats[0], stats[1], stats[2]\n"
           "    np.add.reduce(x, axis=0, keepdims=True, out=mean)\n    mean /= n\n"
           "    np.subtract(x, mean, out=xc)\n"
           "    np.add.reduce(np.multiply(xc, xc, out=sq), axis=0, keepdims=True, out=var)\n",
           ("tests/test_nnlib.py::test_bn_normalizes_columns",)),
    Mutant("softmax_normalised_over_the_batch_axis", "src/tritrain/nnlib.py",
           "    return e / e.sum(axis=-2, keepdims=True)",
           "    return e / e.sum(axis=-1, keepdims=True)",
           ("tests/test_nnlib.py::test_softmax_rows_sum_to_one",
            "tests/test_trinet.py::test_forward_probs_rows_sum_to_one")),
    # the heads' bias rides in their matmul on f's ones row; gradients are
    # written, so a second batch must not see the first one's
    Mutant("heads_ones_row_written_as_zero", "src/tritrain/nnlib.py",
           "        out[-1] = 1.0\n",
           "        out[-1] = 0.0\n",
           ("tests/test_trinet.py::test_forward_equals_per_head_pass",
            "tests/test_trinet.py::test_target_loss_perfect_prediction")),
    Mutant("objective_adds_into_its_gradient", "src/tritrain/trinet.py",
           "        np.matmul(h, ws[\"dzT\"], out=ws[\"dWb\"])\n",
           "        ws[\"dWb\"] += h @ ws[\"dzT\"]\n",
           ("tests/test_trinet.py::test_objective_writes_its_gradients_not_adds_to_them",)),
    Mutant("cross_entropy_gradient_unscaled", "src/tritrain/nnlib.py",
           "    grad /= n_op\n",
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
