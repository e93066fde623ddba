"""Condition-number sweep on symmetric matrix factorization.

Muon, SignGD, and GD factor the same rank-2 targets whose condition number
kappa runs over {1, 5, 25, 125, 625}, all under the plateau schedule (learning
rate cut by 0.3 after 50 non-improving steps).  Muon's iteration count barely
moves with kappa; the entrywise and vanilla gradient methods slow down badly.

The sweep is ``demos/configs/mf_sweep_small.cfg`` (d = 30, T = 2000, seed 42)
run through ``run_experiment``, so its numbers are those of

    muonlab run --config demos/configs/mf_sweep_small.cfg

For the paper-scale d = 100, T = 5000 figure, run ``mf_sweep_full.cfg`` the
same way.
"""

import os

from muonlab.experiments import parse_config, run_experiment

HERE = os.path.dirname(__file__)
EPSILON = 1e-9

with open(os.path.join(HERE, "configs", "mf_sweep_small.cfg")) as fh:
    cfg = parse_config(fh.read())
out = run_experiment(cfg, out_dir=os.path.join(HERE, "output"))

hits = {
    (row["algorithm"], row["kappa"]): row["first_hit"]
    for row in out.summary_rows if row["epsilon"] == EPSILON
}
print(f"first iteration with ||U U^T - M|| <= {EPSILON:g}  "
      f"(d={cfg.d}, r={cfg.r}, k={cfg.k}, T={cfg.T}, seed={cfg.seed})")
print(f"{'kappa':>8} " + " ".join(f"{a:>8}" for a in cfg.algorithms))
for kappa in cfg.kappa:
    print(f"{kappa:>8g} " + " ".join(f"{hits[a, kappa]:>8g}" for a in cfg.algorithms))

for path in out.paths:
    if path.endswith((".svg", "summary.csv")):
        print("wrote", path)

print("""
Muon's column stays flat as kappa grows 625-fold: orthogonalizing the
gradient equalizes progress across the spectrum.  SignGD and GD pay for the
small eigenvalue directly in iterations.
""")
