"""Operators, spectral functions, and entropies.

Walks through the value types everything else builds on: validated
Hermitian and density operators, the deterministic eigendecomposition,
exp/log of operators, expectation values, and the two entropy functions.
"""

import numpy as np

from qmaxent import (
    NotHermitian,
    SupportViolation,
    apply_spectral_function,
    commutator_norm,
    eig_hermitian,
    expectation,
    make_density,
    make_hermitian,
    relative_entropy,
    von_neumann_entropy,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

print("== validation ==")
sx = make_hermitian(X)
print("sigma_x accepted, dim", sx.dim)
try:
    make_hermitian([[0, 1j], [1j, 0]])
except NotHermitian as exc:
    print("rejected non-Hermitian input:", exc)

print("\n== spectral decomposition ==")
w, v = eig_hermitian(sx)
print("eigenvalues:", w)
print("eigenvectors (columns):\n", np.round(v.real, 6))

print("\n== spectral functions ==")
doubling = make_hermitian(np.log(2.0) * Z)
print("exp((ln 2) sigma_z) =\n", np.round(apply_spectral_function(doubling, "exp").entries.real, 12))
uniform = make_hermitian(np.eye(2) / 2)
print("log(I/2) =\n", np.round(apply_spectral_function(uniform, "log").entries.real, 6))

print("\n== expectations and commutators ==")
rho = make_density(np.diag([0.8, 0.2]))
sz = make_hermitian(Z)
print("<sigma_z> at diag(0.8, 0.2):", expectation(rho, sz))
print("||[sigma_x, sigma_z]||_F =", commutator_norm(sx, sz), "(= 2 sqrt 2)")
print("||[sigma_z, diag(3,7)]||_F =", commutator_norm(sz, make_hermitian(np.diag([3.0, 7.0]))))

print("\n== entropies (nats) ==")
print("S(pure)      =", von_neumann_entropy(make_density(np.diag([1.0, 0.0]))))
print("S(I/2)       =", von_neumann_entropy(make_density(np.eye(2) / 2)), "(= ln 2)")
print("S(0.8, 0.2)  =", von_neumann_entropy(rho))

print("\n== relative entropy (nonpositive sign convention) ==")
print("S(rho || rho)  =", relative_entropy(rho, rho))
value = relative_entropy(rho, make_density(np.eye(2) / 2))
print("S(rho || I/2)  =", value)
print("S(rho) - ln 2  =", von_neumann_entropy(rho) - np.log(2.0), "(identity for uniform priors)")
try:
    relative_entropy(make_density(np.diag([1.0, 0.0])), make_density(np.diag([0.0, 1.0])))
except SupportViolation as exc:
    print("disjoint supports:", exc)
