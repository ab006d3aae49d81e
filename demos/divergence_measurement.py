"""Walkthrough: measuring domain divergence with the proxy A-distance.

The proxy A-distance d_A = 2 (1 - 2 eps) comes from the held-out error eps of
a linear classifier trained to tell the two domains apart. This script
sweeps the shift magnitude (translation of the target domain) and prints how
d_A grows from ~0 (indistinguishable) toward 2 (perfectly separable). It
then compares d_A on raw inputs against d_A on features learned by an
adapted network: representations fit for the task tend not to exaggerate the
domain gap.

Run:  python3 demos/divergence_measurement.py
"""
import numpy as np

from tritrain import analysis, datagen, trainer

print(f"{'translation':>12} {'d_A (raw inputs)':>17}")
for shift in (0.0, 0.3, 0.6, 1.0, 2.0, 5.0):
    ds = datagen.generate(datagen.ShiftSpec(translation=(shift, 0.0), seed=0))
    d = analysis.a_distance(ds.source_x, ds.target_x, seed=0)
    print(f"{shift:>12.1f} {d:>17.3f}")

# raw vs learned-feature divergence on a rotation shift
ds = datagen.generate(datagen.ShiftSpec(rotation_deg=30, seed=0))
cfg = trainer.TrainConfig(steps_k=20, pretrain_iters=1000, iter_per_phase=100,
                          batch_labeling=64, batch_target=128, lr=0.05,
                          lam=0.01, hidden_dim=16, seed=0)
_, state = trainer.run(ds.source_x, ds.source_y, ds.target_x, cfg)

d_raw = analysis.a_distance(ds.source_x, ds.target_x, seed=0)
d_feat = analysis.a_distance(state.net.features(ds.source_x),
                             state.net.features(ds.target_x), seed=0)
print(f"\n30-degree rotation shift:")
print(f"  d_A on raw inputs:       {d_raw:.3f}")
print(f"  d_A on learned features: {d_feat:.3f}")
