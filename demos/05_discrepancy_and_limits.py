"""The sign argument behind the characterization, and two limits.

If D is not the ball B_r(x0) of equal volume, split the mismatch into
G_i = D minus the closed ball and G_e = the ball minus closed D.  The
two pieces have equal volume, and the radial field U is larger on G_e
(closer to x0) than on G_i, so int_{G_i} U - int_{G_e} U < 0 whenever
the size condition keeps U decreasing across D.  That number is
int_D U - int_{B_r} U, and the mean-value formula gives the ball term
exactly, so one volume mean of U over D decides the sign: here a box
Gauss rule on the square and the spectral disk rule on the shifted
ball, far beyond their error bars.  The modified-equation kernel
increases instead, flipping the predicted sign - and needing no size
condition.  Finally, as lambda -> 0 the kernel tends to 1 at rate
t^2 / (2(m+2)) and the whole test collapses to the harmonic (Kuran)
mean-value characterization.
"""

import numpy as np

from helmholtz_means import (
    ball,
    box,
    kuran_limit_check,
    make_problem,
    proof_discrepancy,
    theorem1_identity_check,
    translate,
)

square = box([-0.5, -0.5], [0.5, 0.5])
shifted = translate(ball([0.0, 0.0], 1.0), [0.3, 0.0])

print("sign functional int_{G_i} U - int_{G_e} U = int_D U - int_{B_r} U:\n")
for label, d in [("unit square", square), ("shifted ball", shifted)]:
    p = make_problem(d, 1.0, [0.0, 0.0])
    rep = proof_discrepancy(p)
    diag = rep.diagnostics
    print(f"{label} ({diag['method']}, {diag['nodes_or_samples']} nodes):")
    print(f"   difference = {rep.residual:+.4e}  (error bar {rep.error_bar:.1e})  -> {rep.verdict}")

print("\nmodified-equation variant on the square (monotone kernel, sign flips):")
p = make_problem(square, 1.0, [0.0, 0.0])
rep = proof_discrepancy(p, equation="modified_helmholtz")
print(f"   difference = {rep.residual:+.4e}  expected {rep.diagnostics['expected_sign']}  -> {rep.verdict}")

print("\nball form of the modified-equation identity (no size condition):")
for mu_r in (0.5, 1.0, 3.0):
    rep = theorem1_identity_check(1.0, np.zeros(3), mu_r, 3)
    print(f"   mu r = {mu_r}: residual = {rep.residual:+.1e}  -> {rep.verdict}")

print("\nsmall-wavenumber limit on the shifted ball about its true center:")
kernel, ident = kuran_limit_check(ball([0.3, 0.0], 1.0), [0.3, 0.0], lambdas=(0.3, 0.1, 0.03, 0.01))
for row in kernel.diagnostics["table"]:
    print(f"   lambda = {row['lambda']:<5} kernel ratio to -t^2/(2(m+2)): {row['kernel_ratio']:.8f}")
print(f"   identity residuals head to the harmonic one: {ident.verdict}")
