"""The spectral-decoupling identity, checked to machine precision.

With an eigen-aligned start (or from Q_0 = 0 on the covariance problem),
simplified Muon's d x k matrix iteration collapses exactly into independent
scalar recursions, one per eigenvalue:

    u <- u - eta * sign((u^2 - lambda) u)        (factorization)
    theta <- theta - eta * sign(lambda*theta - 1)  (covariance inverse)

This script runs the full matrix trajectory and the scalar oracle side by
side on shared learning-rate draws and prints the largest per-step gap, plus
the per-step error bounds the scalar dynamics obey.
"""

import numpy as np

import muonlab as ml
from muonlab.oracle import FLOAT_SLACK, decoupling_gap

master = ml.RandomStream(404)
D, R, T = 20, 4, 100

print("=== factorization: full Muon vs diagonal oracle ===")
for i, k in enumerate((R, R + 3, D)):
    inst = ml.make_mf_instance(master.derive(i), D, R, k, kappa=125.0)
    gap = decoupling_gap(inst, master.derive(100 + i), T)
    print(f"  search rank k={k:>2}: max per-step spectral gap = {gap:.3e}")

print("\n=== covariance inverse: full Muon vs diagonal oracle ===")
inst = ml.make_icl_instance(master.derive(300), D, 625.0 ** (1.0 / 3.0), sigma_min=1.0)
print(f"  d={D}: max per-step spectral gap = {decoupling_gap(inst, master.derive(301), T):.3e}")

print("\n=== scalar error bounds along one mode ===")
values, etas = ml.scalar_muon_trajectory(0.3, 0.8, 1.0, 0.5, 12, c_eta=1.4)
margin = ml.check_scalar_mf_bounds(values, etas, 0.8, 0.5, 1.0)
print(f"  u_t      : {np.array2string(values[:8], precision=4)}")
print(f"  per-step bound check passed={margin >= -FLOAT_SLACK}, tightest margin={margin:.3e}")

print("""
The gaps sit at the float64 noise floor: the decoupling is an identity, not
an approximation, at this schedule (rho = 1/2).  With slower decay it stops
being exact in float64: at rho = 0.8 the gap grows to about 1e-7 to 1e-6,
and at rho = 0.9 to about 1e-2 (ROADMAP item 7).  Every matrix-level question about simplified Muon on
these problems reduces to the one-dimensional zigzag above, which contracts
toward sqrt(lambda) at the schedule's geometric rate regardless of lambda -
that is the condition-number-free mechanism.
""")
