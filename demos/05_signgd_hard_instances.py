"""Adversarial instances where SignGD provably needs ~kappa/4 iterations.

The mechanism: in the Hessian eigenbasis of the 2x2 hard quadratic, each
SignGD step moves exactly one coordinate by sqrt(2)*eta.  An initialization
built backward from the schedule keeps the slow coordinate frozen at
kappa*eps until eta decays below 4*eps - so no schedule reaches accuracy eps
in fewer than (kappa-1)/4 steps.  The same 2x2 engine embeds into matrix
factorization and the linear-attention quadratic through slices that SignGD
provably never leaves.
"""

import numpy as np

import muonlab as ml
from muonlab.lowerbounds import DEFAULT_RHO, DEFAULT_T, R0_MAX, lower_bound_verdict, step_bound

T = DEFAULT_T
print(f"{'family':>10} {'kappa':>7} {'first hit':>10} {'(kappa-1)/4':>12} {'slice dev':>10} {'verdict':>9}")

# eta_t = 0.98^t, except eta_0 = r0/4 = 1/64 on the factorization instance
for family, kappa in (("quadratic", 21.0), ("quadratic", 101.0), ("quadratic", 401.0),
                      ("mf", 41.0), ("icl", 101.0)):
    res = ml.run_lower_bound(family, kappa, T)
    dev = "-" if res.slice_deviation is None else f"{res.slice_deviation:.1e}"
    verdict = lower_bound_verdict(res, kappa, T)
    print(f"{family:>10} {kappa:>7g} {str(res.first_hit):>10} {step_bound(kappa):>12g} {dev:>10} {verdict:>9}")

print("""
'verdict' is lower_bound_verdict, the one verdict `muonlab lower-bound` and
the lowerbounds suite use.  'inf' means the run never reached the target
within its T steps (once the schedule has decayed, the frozen coordinate has
no movement budget left).  Such a censored run shows only first_hit >= T + 1,
so it is OK exactly when T + 1 >= (kappa-1)/4: here every row is, but at
T = 600 a censored kappa above 2405 would be UNDECIDED.  A run whose slice
deviation tops 1e-14 (or whose covariance norm bridge tops 1e-12) has left
the 2x2 reduction the bound is proved on and is OFF-SLICE; zero slice
deviation here confirms the reduction is exact, not just approximate.

Contrast with Muon on the same factorization instance:""")

hard_mf = ml.build_hard_mf_instance(41.0, [(R0_MAX / 4.0) * DEFAULT_RHO**t for t in range(T + 1)])
inst = hard_mf.instance
sched = ml.ExponentialSchedule(rho=0.5, base_scale=np.sqrt(inst.lambda_max), fixed_prefactor=1.0)
traj = ml.run_trajectory(inst, ml.OptimizerConfig("muon"), sched, hard_mf.start, 60)
losses = [rec.loss for rec in traj.records]
print(f"  muon on the kappa=41 hard instance: loss <= {hard_mf.epsilon:.2e} "
      f"first at t={ml.first_hit_time(losses, hard_mf.epsilon)}")
