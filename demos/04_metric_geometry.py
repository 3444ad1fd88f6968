"""The statistical metric on the manifold of density operators.

Raising/lowering between observables (1-forms) and tangent directions, the
metric in both pictures, and the coordinate form of the line element:
a Fisher-like term in eigenvalue shifts plus a rotation term weighted by
eigenvalue gaps.
"""

import numpy as np

from qmaxent import (
    SingularBase,
    TangentDecomposition,
    assemble_tangent,
    expectation,
    line_element,
    lower_vector,
    make_density,
    make_hermitian,
    metric_forms,
    metric_vectors,
    raise_form,
    zero_mean_form,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
sx, sz = make_hermitian(X), make_hermitian(Z)
uniform = make_density(np.eye(2) / 2)
rho = make_density(np.diag([0.8, 0.2]))

print("== 1-forms pair with states through the trace ==")
print("<sigma_z, diag(0.8, 0.2)> =", expectation(rho, sz))
print("<1, rho> =", expectation(rho, make_hermitian(np.eye(2))))

print("\n== raising and lowering ==")
print("R_{I/2}(sigma_x) =\n", np.round(raise_form(uniform, sx).entries.real, 12))
print("L_{I/2}(sigma_x) =\n", np.round(lower_vector(uniform, sx).entries.real, 12))
roundtrip = raise_form(rho, lower_vector(rho, sx))
print("raise(lower(sigma_x)) error:", np.abs(roundtrip.entries - X).max())
try:
    lower_vector(make_density(np.diag([1.0, 0.0])), sx)
except SingularBase as exc:
    print("pure states have no lowering operator:", exc)

print("\n== the metric in both pictures ==")
print("g_forms(I/2; sigma_x, sigma_x)  =", metric_forms(uniform, sx, sx))
print("g_forms(I/2; sigma_x, sigma_z)  =", metric_forms(uniform, sx, sz))
print("g_vectors(I/2; sigma_x, sigma_x) =", metric_vectors(uniform, sx, sx))
raised = raise_form(uniform, sx)
print("duality: g_vectors(R(sx), R(sx)) =", metric_vectors(uniform, raised, raised))

print("\n== line element ==")
d = TangentDecomposition(dp=[0.01, -0.01], dtheta=0.0, h=sx)
print("pure eigenvalue shift: ds^2 =", line_element(uniform, d), "(= 4e-4)")
eps = 1e-3
d = TangentDecomposition(dp=[0.0, 0.0], dtheta=eps, h=sx)
print("pure rotation at diag(0.8, 0.2): ds^2 =", line_element(rho, d), "(= 1.44e-6)")
d = TangentDecomposition(dp=[0.0, 0.0], dtheta=eps, h=sx)
print("pure rotation at I/2: ds^2 =", line_element(uniform, d), "(degenerate spectrum: 0)")

print("\n== line element == metric on the assembled direction ==")
rng = np.random.default_rng(4)
g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
h = make_hermitian((g + g.conj().T) / 2)
p = np.array([0.5, 0.3, 0.2])
base = make_density(np.diag(p))
dp = rng.normal(size=3)
dp -= dp.mean()
d = TangentDecomposition(dp=dp, dtheta=rng.normal(), h=h)
direction = assemble_tangent(base, d)
print("ds^2 (coordinates):", line_element(base, d))
print("g(drho, drho)     :", metric_vectors(base, direction, direction))

print("\n== zero-mean forms are metric-orthogonal to their level surfaces ==")
centered = zero_mean_form(rho, sz)
print("<recentered sigma_z> =", expectation(rho, centered))
