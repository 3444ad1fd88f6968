"""Updating a non-uniform prior toward one expectation target.

The symmetric exponential tilt exp(-lam A/2) rho0 exp(-lam A/2) / Z keeps
the state physical for every prior, even when the prior and the observable
do not commute.  With a uniform prior it reduces to the plain
maximum-entropy answer.
"""

import numpy as np

from qmaxent import (
    ConstraintSet,
    expectation,
    make_density,
    make_hermitian,
    relative_entropy,
    solve_maxent,
    solve_prior_tilt,
    trace_distance,
    von_neumann_entropy,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
sz = make_hermitian(Z)

print("== uniform prior reduces to the canonical estimate ==")
uniform = make_density(np.eye(2) / 2)
lam, tilted = solve_prior_tilt(uniform, sz, 0.6)
print("lambda  :", lam, "(closed form: -ln 2 =", -np.log(2.0), ")")
print("estimate:", np.round(np.diag(tilted.entries).real, 12))
reference = solve_maxent(ConstraintSet((sz,), [0.6])).estimate
print("trace distance to solve_maxent:", trace_distance(tilted, reference))
print("S(estimate || prior):", relative_entropy(tilted, uniform))
print("S(estimate) - ln 2  :", von_neumann_entropy(tilted) - np.log(2.0))

print("\n== non-commuting prior: (I + 0.5 sigma_x)/2, target <sigma_z> = 0.6 ==")
prior = make_density((np.eye(2) + 0.5 * X) / 2)
lam, tilted = solve_prior_tilt(prior, sz, 0.6)
print("lambda  :", lam)
print("estimate:\n", np.round(tilted.entries.real, 12))
print("achieved <sigma_z>:", expectation(tilted, sz))
print("S(estimate || prior):", relative_entropy(tilted, prior))
print("the x-coherence of the prior survives the update (off-diagonal 0.2)")

print("\n== a prior weight of 1e-13 lies on the support: diag(1 - 1e-13, 1e-13), target 0 ==")
faint = make_density(np.diag([1 - 1e-13, 1e-13]))
lam, tilted = solve_prior_tilt(faint, sz, 0.0)
print("lambda  :", lam, "(closed form: ln(1e13 - 1) / 2 =", np.log(1e13 - 1) / 2, ")")
print("estimate:", np.round(np.diag(tilted.entries).real, 12))
print("S(estimate || prior):", relative_entropy(tilted, faint))
print("finite: the update stays on the prior's support, whose rule relative_entropy shares")

print("\n== a target the prior already satisfies costs nothing ==")
lam, unchanged = solve_prior_tilt(prior, sz, 0.0)
print("lambda:", lam, " state is the prior object:", unchanged is prior)

print("\n== the tilted mean is strictly decreasing in lambda ==")
from qmaxent import closed_form_flow

for lam in (-2.0, -1.0, 0.0, 1.0, 2.0):
    state = closed_form_flow(prior, sz, lam) if lam != 0.0 else prior
    print(f"  lambda = {lam:+.1f}  <sigma_z> = {expectation(state, sz):+.6f}")
