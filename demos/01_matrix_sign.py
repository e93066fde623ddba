"""Matrix sign basics: exact SVD route vs the Newton-Schulz iteration.

The matrix sign of Z is the nearest matrix with orthonormal rows or columns,
U V^T from the compact SVD.  Muon never forms that SVD in practice; it runs
a few Newton-Schulz iterations instead.  This script shows both routes agree
to high accuracy whenever the input is not too badly conditioned, and what
happens (a flagged, not raised, non-convergence) when it is.
"""

import numpy as np

from muonlab import RandomStream, msign_exact, msign_newton_schulz

stream = RandomStream(2024)

print("=== exact matrix sign ===")
z = np.array([[0.0, 2.0], [-2.0, 0.0]])
print("Z =\n", z)
print("msign(Z) =\n", msign_exact(z))
print("(the rotation hiding inside Z: all singular values snapped to 1)\n")

print("=== Newton-Schulz agreement across conditioning ===")
print(f"{'sigma_min/sigma_max':>20} {'iterations':>10} {'converged':>10} {'residual':>10} {'gap to exact':>14}")
for ratio in (0.5, 0.1, 1e-2, 1e-3, 1e-5, 1e-12):
    d, k = 12, 6
    svals = np.linspace(1.0, ratio, k)
    z = (stream.haar_orthonormal(d, k) * svals) @ stream.haar_orthonormal(k, k).T
    res = msign_newton_schulz(z)
    gap = np.linalg.norm(res.matrix - msign_exact(z), 2)
    print(f"{ratio:>20.0e} {res.iterations:>10} {str(res.converged):>10} {res.residual:>10.2e} {gap:>14.3e}")

print("""
Inside the documented regime (ratio >= 1e-3) the two routes agree to well
under 1e-6 in spectral norm.  Far outside it (the 1e-12 row), the iteration
runs out of its 64-step budget and reports converged=False with the
residual, so a long optimization run can log the event instead of crashing.
""")
