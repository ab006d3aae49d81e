"""Walkthrough: adapting to a rotated two-moons target domain.

Generates a source/target pair where the target is the same two-moons
distribution rotated 30 degrees, trains a source-only baseline, then runs the
full tri-training adaptation loop and prints the per-step trajectory:
pseudo-label pool size, pseudo-label accuracy, and target accuracy of the
target-specific head.

Run:  python3 demos/adaptation_two_moons.py
"""
import dataclasses

from tritrain import datagen, trainer

spec = datagen.ShiftSpec(generator="two_moons", n_source=500, n_target=500,
                         rotation_deg=30, noise_sigma=0.1, seed=0)
ds = datagen.generate(spec)
print(f"source: {ds.source_x.shape[0]} labeled, target: {ds.target_x.shape[0]} unlabeled "
      f"(rotated {spec.rotation_deg} degrees)")

cfg = trainer.TrainConfig(steps_k=20, pretrain_iters=1000, iter_per_phase=100,
                          batch_labeling=64, batch_target=128, lr=0.05,
                          lam=0.01, hidden_dim=16, seed=0)

# source-only baseline: pretrain, never adapt
base_cfg = dataclasses.replace(cfg, steps_k=0)
base_hist, _ = trainer.run(ds.source_x, ds.source_y, ds.target_x, base_cfg,
                           eval_x=ds.target_x, eval_y=ds.target_y_hidden,
                           target_y_hidden=ds.target_y_hidden)
baseline = base_hist[0].acc_ft
print(f"\nsource-only baseline target accuracy: {baseline:.3f}\n")

hist, state = trainer.run(ds.source_x, ds.source_y, ds.target_x, cfg,
                          eval_x=ds.target_x, eval_y=ds.target_y_hidden,
                          target_y_hidden=ds.target_y_hidden)

print(f"{'step':>4} {'n_pseudo':>9} {'label_acc':>10} {'acc_ft':>7}")
for m in hist:
    print(f"{m.step:>4} {m.n_pseudo:>9} {m.labeling_acc:>10.3f} {m.acc_ft:>7.3f}")

final = hist[-1].acc_ft
print(f"\nadapted target accuracy: {final:.3f}  (gain over baseline: {final - baseline:+.3f})")
