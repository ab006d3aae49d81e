"""Walkthrough: exhaustive verification of the domain-adaptation bound.

Builds a small binary shift instance, enumerates an axis-aligned stump
hypothesis class, and checks for every hypothesis that

    target risk <= source risk + (1/2) d_HdH + C,

where d_HdH is the empirical symmetric-difference divergence and C is the
combined risk of the ideal joint hypothesis -- both computed exactly over the
empirical samples. Then repeats the check for noisy pseudo labels with the
false-label rate rho, and finally shows that injecting a fault into the C
term is caught.

Run:  python3 demos/bound_verification.py
"""
import numpy as np

from tritrain import analysis, datagen

ds = datagen.generate(datagen.ShiftSpec(generator="gaussian_blobs",
                                        n_source=80, n_target=80,
                                        rotation_deg=25, noise_sigma=0.4,
                                        seed=0))
h = analysis.make_stump_class(np.vstack([ds.source_x, ds.target_x]),
                              max_thresholds_per_dim=15)
print(f"instance: {len(ds.source_x)}+{len(ds.target_x)} samples, "
      f"{len(h)} stump hypotheses (exhaustive)")

s_xy = (ds.source_x, ds.source_y)
t_xy = (ds.target_x, ds.target_y_hidden)
report = analysis.verify_theorem1(h, s_xy, t_xy)
print(f"\nd_HdH = {report.d_hdh:.3f}   C = {report.c_value:.3f}   "
      f"best joint hypothesis = #{report.best_hypothesis}")
print(f"violations over {len(h)} hypotheses: {len(report.violations)}")

# pseudo-label extension: flip 20% of target labels and re-check with rho
rng = np.random.default_rng(1)
flip = rng.random(len(ds.target_x)) < 0.2
pseudo = np.where(flip, 1 - ds.target_y_hidden, ds.target_y_hidden)
rho_report = analysis.verify_rho_bound(h, s_xy, t_xy, pseudo, theorem1=report)
print(f"\npseudo labels with rho = {rho_report.rho:.3f}: "
      f"{len(rho_report.violations)} violations")

# negative control on a tight instance: corrupting C must be detected
x = rng.normal(size=(30, 1))
y = (x[:, 0] > 0).astype(np.int64)
tight = analysis.make_stump_class(x, max_thresholds_per_dim=20)
control = analysis.verify_theorem1(tight, (x, y), (x, y), c_offset=-0.1)
print(f"\nfault injection (C lowered by 0.1 on a tight instance): "
      f"{len(control.violations)} violations detected")
