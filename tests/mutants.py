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
    Mutant("f_stepped_under_closed_gate", "src/tritrain/trinet.py",
           "        names = (*heads, \"f\") if getattr(self.gates, gate) else heads",
           "        names = (*heads, \"f\")",
           ("tests/test_trainer.py::test_closed_gate_leaves_shared_arena_and_its_slot_untouched",)),
    Mutant("f_backpropagated_under_closed_gate", "src/tritrain/trinet.py",
           "        if getattr(self.gates, ws.gate):",
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
           "            dout *= np.subtract(_ONE, ws.act, out=ws.e)\n",
           "            pass\n",
           ("tests/test_trinet.py::test_joint_loss_full_gradient_matches_fd",
            "tests/test_acceptance.py::test_acceptance_gradient_suite")),
    Mutant("relu_backward_passes_every_unit", "src/tritrain/nnlib.py",
           "            np.greater(z, _ZERO, out=ws.act)",
           "            np.greater(z, -np.inf, out=ws.act)",
           ("tests/test_nnlib.py::test_sigmoid_relu_grads_match_finite_differences",
            "tests/test_acceptance.py::test_short_run_bytes_are_pinned")),
    Mutant("dropout_backward_without_its_mask", "src/tritrain/nnlib.py",
           "            dout = np.multiply(dout, ws.mask, out=ws.z)",
           "            dout = dout",
           ("tests/test_acceptance.py::test_acceptance_gradient_suite",
            "tests/test_acceptance.py::test_short_run_bytes_are_pinned")),
    Mutant("dropout_mask_scaled_by_the_drop_rate", "src/tritrain/nnlib.py",
           "            np.divide(ws.keep, self._keep_rate, out=ws.mask)",
           "            np.divide(ws.keep, self._rate, out=ws.mask)",
           ("tests/test_acceptance.py::test_short_run_bytes_are_pinned",)),
    Mutant("first_layer_dW_halved", "src/tritrain/nnlib.py",
           "        affine_backward(dout, ws.xt, ws.affine)\n",
           "        affine_backward(dout, ws.xt, ws.affine)\n        self.dW *= 0.5\n",
           ("tests/test_trinet.py::test_joint_loss_full_gradient_matches_fd",
            "tests/test_acceptance.py::test_acceptance_gradient_suite")),
    # f's incoming gradient: the heads' stacked product, in f's dout itself
    # for one head, summed there for two
    Mutant("one_labeling_head_reaches_f", "src/tritrain/trinet.py",
           "                np.add(*ws.dx, out=ws.f.dout)",
           "                np.copyto(ws.f.dout, ws.dx[0])",
           ("tests/test_trinet.py::test_joint_loss_full_gradient_matches_fd",
            "tests/test_acceptance.py::test_short_run_bytes_are_pinned")),
    Mutant("target_head_gradient_kept_apart_from_f", "src/tritrain/trinet.py",
           "        dx = f_work.dout[None] if len(heads) == 1 else",
           "        dx = np.empty((1, W.shape[1], n)) if len(heads) == 1 else",
           ("tests/test_trinet.py::test_target_phase_f_gradient_is_the_2d_product_of_its_head",
            "tests/test_trinet.py::test_target_loss_gradient_matches_fd")),
    Mutant("batch_norm_backward_without_the_xhat_term", "src/tritrain/nnlib.py",
           "    dx -= np.multiply(xhat, dgamma_col, out=buf_xhat)\n",
           "",
           ("tests/test_nnlib.py::test_bn_grads_match_finite_differences",)),
    Mutant("batch_norm_backward_without_its_gamma_factor", "src/tritrain/nnlib.py",
           "    np.multiply(gammaT, inv_std, out=scale)\n",
           "    np.multiply(_ONE, inv_std, out=scale)\n",
           ("tests/test_nnlib.py::test_bn_grads_match_finite_differences",)),
    # the workspace: each buffer holds what its readers expect, a phase's
    # shorter last batch gets new buffers, and an objective refuses a
    # workspace of another phase or size before anything moves
    Mutant("batch_norm_backward_reads_the_squared_deviations", "src/tritrain/nnlib.py",
           "    np.multiply(dout, xhat, out=buf_xhat)\n",
           "    np.multiply(dout, buf_xhat, out=buf_xhat)\n",
           ("tests/test_nnlib.py::test_bn_grads_match_finite_differences",
            "tests/test_acceptance.py::test_short_run_bytes_are_pinned")),
    Mutant("workspace_kept_after_the_batch_size_changes", "src/tritrain/trainer.py",
           "        if len(idx) != ws.n:\n            ws = net.workspace(phase, len(idx))\n",
           "",
           ("tests/test_acceptance.py::test_short_run_bytes_are_pinned",
            "tests/test_acceptance.py::test_short_run_without_batch_norm_bytes_are_pinned")),
    Mutant("workspace_of_another_phase_or_size_accepted", "src/tritrain/trinet.py",
           "        if ws.phase != phase or ws.n != n:",
           "        if False:",
           ("tests/test_trinet.py::test_a_workspace_of_another_phase_or_size_is_refused_by_name",)),
    # a bad label must be refused before f's pass moves batch norm's
    # running statistics
    Mutant("labels_range_unchecked_before_the_forward_pass", "src/tritrain/trinet.py",
           "        if np.maximum.reduce(y.view(np.uint64)) >= self.num_classes:",
           "        if False:",
           ("tests/test_trinet.py::test_a_bad_batch_raises_and_leaves_the_net_untouched",)),
    # the cross-entropy kernel reads the labels' bytes as int64 and checks
    # nothing; another dtype must be refused by name, not misread
    Mutant("cross_entropy_labels_dtype_unchecked", "src/tritrain/trinet.py",
           "        if y.shape != (n,) or y.dtype != np.int64:",
           "        if y.shape != (n,):",
           ("tests/test_trinet.py::test_a_bad_batch_raises_and_leaves_the_net_untouched",)),
    # labels that are no class index must be refused by name, not scored
    Mutant("evaluate_scores_labels_unchecked", "src/tritrain/trainer.py",
           "    y = class_labels(\"y\", y, net.num_classes)",
           "    y = np.asarray(y)",
           ("tests/test_trainer.py::"
            "test_evaluate_refuses_labels_that_are_not_class_indices_naming_them",)),
    Mutant("labeling_accuracy_scores_true_labels_unchecked", "src/tritrain/labeler.py",
           "    true_labels = class_labels(\"true_labels\", true_labels, None)",
           "    true_labels = np.asarray(true_labels)",
           ("tests/test_labeler.py::"
            "test_labeling_accuracy_refuses_true_labels_that_are_not_class_indices_naming_them",)),
    Mutant("sigmoid_exp_of_plus_abs_x", "src/tritrain/nnlib.py",
           "    np.negative(e, out=e)\n",
           "",
           ("tests/test_nnlib.py::test_sigmoid_bit_identical_to_reference",
            "tests/test_nnlib.py::test_sigmoid_bits_equal_the_where_formula")),
    Mutant("batch_norm_eval_on_batch_statistics", "src/tritrain/nnlib.py",
           "    xhat = (x - mean) / np.sqrt(var + BN_EPS)",
           "    xhat = (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True)"
           " + BN_EPS)",
           ("tests/test_nnlib.py::test_bn_eval_standardizes_with_the_running_statistics",
            "tests/test_acceptance.py::test_short_run_bytes_are_pinned")),
    # the (features, batch) layout: statistics and normalisation must run
    # over the right axis; both mutants keep every shape valid
    Mutant("batch_norm_statistics_over_the_feature_axis", "src/tritrain/nnlib.py",
           "    np.add.reduce(x, axis=-1, keepdims=True, out=mean)\n    mean /= n\n"
           "    np.subtract(x, mean, out=xhat)\n"
           "    np.add.reduce(np.multiply(xhat, xhat, out=sq), axis=-1, keepdims=True, out=var)\n",
           "    mean, var, inv_std = (np.empty((1, x.shape[1])) for _ in range(3))\n"
           "    np.add.reduce(x, axis=0, keepdims=True, out=mean)\n    mean /= n\n"
           "    np.subtract(x, mean, out=xhat)\n"
           "    np.add.reduce(np.multiply(xhat, xhat, out=sq), axis=0, keepdims=True, out=var)\n",
           ("tests/test_nnlib.py::test_bn_normalizes_columns",)),
    Mutant("softmax_normalised_over_the_batch_axis", "src/tritrain/nnlib.py",
           "    return e / e.sum(axis=-2, keepdims=True)",
           "    return e / e.sum(axis=-1, keepdims=True)",
           ("tests/test_nnlib.py::test_softmax_rows_sum_to_one",
            "tests/test_trinet.py::test_forward_probs_rows_sum_to_one")),
    # the heads' bias rides in their matmul on f's ones row, which a training
    # batch's workspace and an eval pass each make; gradients are written,
    # so a second batch must not see the first one's
    Mutant("heads_ones_row_written_as_zero", "src/tritrain/nnlib.py",
           "        out[-1] = 1.0\n",
           "        out[-1] = 0.0\n",
           ("tests/test_trinet.py::test_target_loss_perfect_prediction",
            "tests/test_trinet.py::test_joint_loss_full_gradient_matches_fd")),
    Mutant("eval_ones_row_written_as_zero", "src/tritrain/nnlib.py",
           "        return np.vstack([z, np.ones((1, z.shape[1]))])",
           "        return np.vstack([z, np.zeros((1, z.shape[1]))])",
           ("tests/test_trinet.py::test_forward_equals_per_head_pass",)),
    Mutant("objective_adds_into_its_gradient", "src/tritrain/trinet.py",
           "        np.matmul(h, ws.dzT, out=ws.dWb)\n",
           "        ws.dWb += h @ ws.dzT\n",
           ("tests/test_trinet.py::test_objective_writes_its_gradients_not_adds_to_them",)),
    Mutant("cross_entropy_gradient_unscaled", "src/tritrain/nnlib.py",
           "    grad /= n\n",
           "",
           ("tests/test_nnlib.py::test_ce_grad_matches_finite_differences",)),
    Mutant("weight_divergence_transposed_sign", "src/tritrain/trinet.py",
           "    np.matmul(W1, sign, out=dW2)",
           "    np.matmul(W1, signT, out=dW2)",
           ("tests/test_trinet.py::test_weight_divergence_grads_match_brute_force_and_fd",)),
    Mutant("no_checkpoint_version_check", "src/tritrain/trainer.py",
           "        if meta[\"version\"] != CHECKPOINT_VERSION:",
           "        if False:",
           ("tests/test_trinet.py::test_checkpoint_of_previous_version_is_rejected",)),
    Mutant("checkpoint_lr_not_loaded", "src/tritrain/trainer.py",
           "        state.opt.lr, state.step = float(lr), step",
           "        state.step = step",
           ("tests/test_trinet.py::test_checkpoint_round_trip",)),
    # one arena: each phase steps one slice of it, f's slot is one for both
    # phases, and each step reads the lr assigned last
    Mutant("labeling_slice_stops_before_f", "src/tritrain/trinet.py",
           "        return names, slice(min(s.start for s in spans), max(s.stop for s in spans))",
           "        return names, slice(min(s.start for s in spans),\n"
           "                            max(s.stop for s in spans[:len(heads)]))",
           ("tests/test_trainer.py::"
            "test_a_phase_steps_its_heads_and_f_if_its_gate_is_open_and_nothing_else",
            "tests/test_acceptance.py::test_momentum_run_bytes_are_pinned")),
    Mutant("a_slot_for_f_per_phase", "src/tritrain/trainer.py",
           "    bound = state.opt.bind(net.theta, net.grad, span)\n",
           "    bound = state.opt.bind(net.theta, net.grad, span)\n"
           "    if phase == \"target\":\n"
           "        # the target phase steps a slot of its own\n"
           "        slot = vars(state).setdefault(\"target_slot\", np.zeros_like(net.theta))\n"
           "        bound = (*bound[:2], slot[span], bound[3])\n",
           ("tests/test_trainer.py::test_both_phases_step_f_through_one_momentum_slot",
            "tests/test_acceptance.py::test_momentum_run_bytes_are_pinned")),
    Mutant("lr_taken_once_at_bind", "src/tritrain/nnlib.py",
           "        p, g, v, t = bound\n"
           "        v *= self.momentum\n"
           "        # g·lr is lr·g, to the bit\n"
           "        v -= np.multiply(g, self._lr, out=t[0])\n",
           "        # the lr of a bound tuple's first step, as if bind had taken it\n"
           "        lr = vars(self).setdefault(\"_lr_at_bind\", {}).setdefault(id(bound), "
           "float(self._lr))\n"
           "        p, g, v, t = bound\n"
           "        v *= self.momentum\n"
           "        v -= np.multiply(g, lr, out=t[0])\n",
           ("tests/test_nnlib.py::"
            "test_lr_assigned_between_steps_of_one_bound_list_applies_to_the_next",)),
    Mutant("slot_shape_unchecked_at_bind", "src/tritrain/nnlib.py",
           "        elif self.slot.shape != theta.shape:",
           "        elif False:",
           ("tests/test_nnlib.py::test_binding_an_arena_of_another_shape_than_the_slot_raises",)),
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
