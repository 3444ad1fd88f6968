"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from qmaxent import (
    ConstraintSet,
    DensityOperator,
    HermitianOperator,
    expectation,
    make_density,
    make_hermitian,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with this checkout's ``src`` first on the path."""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def rand_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> HermitianOperator:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return make_hermitian(scale * (g + g.conj().T) / 2.0)


def rand_hermitian_radius(rng: np.random.Generator, dim: int, radius: float) -> HermitianOperator:
    """Random Hermitian operator rescaled to an exact spectral radius."""
    h = rand_hermitian(rng, dim)
    w = np.linalg.eigvalsh(h.entries)
    return make_hermitian(h.entries * (radius / np.abs(w).max()))


def rand_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases.conj()


def rand_density(
    rng: np.random.Generator, dim: int, min_eig: float = 0.0
) -> DensityOperator:
    """Random density operator; ``min_eig`` bounds the spectrum away from 0."""
    p = rng.random(dim)
    p /= p.sum()
    p = (1.0 - dim * min_eig) * p + min_eig
    u = rand_unitary(rng, dim)
    return make_density((u * p) @ u.conj().T)


def random_feasible_instance(rng: np.random.Generator, max_dim=8, max_m=6) -> ConstraintSet:
    """Observables plus targets drawn from a random interior state (eigenvalues >= 0.3 / n).

    The number of constraints is capped by the dimension of the traceless
    Hermitian space (n^2 - 1), past which random observables are
    necessarily dependent.
    """
    n = int(rng.integers(2, max_dim + 1))
    m = int(rng.integers(1, min(max_m, n * n - 1) + 1))
    observables = tuple(rand_hermitian(rng, n) for _ in range(m))
    interior = rand_density(rng, n, min_eig=0.3 / n)
    targets = [expectation(interior, a) for a in observables]
    return ConstraintSet(observables, targets)


def rand_spectrum_hermitian(
    rng: np.random.Generator, dim: int, low: float, high: float
) -> HermitianOperator:
    """Random Hermitian operator with eigenvalues uniform in [low, high]."""
    w = rng.uniform(low, high, size=dim)
    u = rand_unitary(rng, dim)
    return make_hermitian((u * w) @ u.conj().T)


def step_count(lambda_end: float, step: float) -> int:
    """integrate_flow's step count: ceil(|lambda_end| / step), a ratio within 1e-9 of an
    integer rounded to it, and at least one step to a nonzero lambda_end, the last of
    which lands on it."""
    ratio = abs(lambda_end) / step
    n_steps = int(round(ratio)) if abs(ratio - round(ratio)) < 1e-9 else int(np.ceil(ratio))
    return max(n_steps, int(lambda_end != 0.0))


def rk4_matrix_flow(
    start: DensityOperator, observable: HermitianOperator, lambda_end: float, step: float
) -> list[tuple[float, np.ndarray, float]]:
    """Classical RK4 of the flow in matrix form, recorded where ``integrate_flow`` records.

    Each stage is the velocity tr(yA) y - (yA + Ay)/2 in the fixed basis, with no change
    of basis; each step is symmetrized.  Returns (lam, state matrix, tr(state A)) per
    recorded step, starting at lam = 0.
    """
    a = observable.entries
    length, sign = abs(lambda_end), (1.0 if lambda_end >= 0.0 else -1.0)
    n_steps = step_count(lambda_end, step)
    every = max(1, int(np.ceil(n_steps / 1000)))

    def velocity(y):
        return np.trace(y @ a).real * y - 0.5 * (y @ a + a @ y)

    y = np.array(start.entries, dtype=complex)
    out = [(0.0, y, float(np.trace(y @ a).real))]
    for k in range(1, n_steps + 1):
        lam = sign * (length if k == n_steps else min(k * step, length))
        h = lam - sign * min((k - 1) * step, length)
        k1 = velocity(y)
        k2 = velocity(y + (h / 2.0) * k1)
        k3 = velocity(y + (h / 2.0) * k2)
        k4 = velocity(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y = (y + y.conj().T) / 2.0
        if k == n_steps or k % every == 0:
            out.append((lam, y, float(np.trace(y @ a).real)))
    return out


def bloch_state(r) -> DensityOperator:
    r = np.asarray(r, dtype=float)
    return make_density(
        (np.eye(2) + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z) / 2.0
    )


def zero_pairing_tangent(
    rng: np.random.Generator, dim: int, centered: np.ndarray
) -> HermitianOperator:
    """Random unit-norm traceless Hermitian t with tr(centered t) = 0."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    t0 = (g + g.conj().T) / 2.0
    gram = np.array(
        [
            [float(dim), np.trace(centered).real],
            [np.trace(centered).real, np.trace(centered @ centered).real],
        ]
    )
    rhs = np.array([np.trace(t0).real, np.trace(centered @ t0).real])
    c = np.linalg.solve(gram, rhs)
    t = t0 - c[0] * np.eye(dim) - c[1] * centered
    return make_hermitian(t / np.linalg.norm(t, "fro"))


def bloch_feasible_max_entropy(observables, targets, n_points: int = 10**6):
    """Brute-force entropy maximization over qubit states meeting the constraints.

    Every qubit observable is c 1 + a . sigma, so each constraint is affine
    in the Bloch vector: the feasible set is an affine slice of the unit
    ball.  The slice is parametrized exactly and covered with ~n_points
    grid points (so every grid point satisfies the constraints to float
    precision), and the binary entropy of (1 +/- |r|)/2 is maximized by
    enumeration.  Returns (max entropy, argmax Bloch vector); (-inf, None)
    if the slice misses the ball.  Shares nothing with the multiplier
    solver.
    """
    rows, rhs = [], []
    for obs, target in zip(observables, targets):
        e = obs.entries
        c = np.trace(e).real / 2.0
        a = (
            np.array(
                [
                    np.trace(e @ SIGMA_X).real,
                    np.trace(e @ SIGMA_Y).real,
                    np.trace(e @ SIGMA_Z).real,
                ]
            )
            / 2.0
        )
        rows.append(a)
        rhs.append(target - c)
    rows = np.array(rows).reshape(len(rows), 3)
    rhs = np.array(rhs)
    r0, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    if np.abs(rows @ r0 - rhs).max() > 1e-9:
        return -np.inf, None
    _, s, vt = np.linalg.svd(rows)
    null = vt[int(np.sum(s > 1e-12)):].T
    k = null.shape[1]
    base = float(r0 @ r0)
    if base > 1.0 + 1e-12:
        return -np.inf, None
    room = max(1.0 - base, 0.0)

    def entropy_of_norm2(norm2):
        r = np.sqrt(np.clip(norm2, 0.0, 1.0))
        p = np.clip((1.0 + r) / 2.0, 1e-300, 1.0)
        q = np.clip((1.0 - r) / 2.0, 1e-300, 1.0)
        return -(p * np.log(p) + q * np.log(q))

    if k == 0:
        return float(entropy_of_norm2(base)), r0
    if k == 1:
        u = np.linspace(-np.sqrt(room), np.sqrt(room), n_points)
        values = entropy_of_norm2(base + u**2)
        i = int(np.argmax(values))
        return float(values[i]), r0 + null[:, 0] * u[i]
    side = int(np.sqrt(n_points))
    u = np.linspace(-np.sqrt(room), np.sqrt(room), side)
    uu, vv = np.meshgrid(u, u)
    norm2 = base + uu**2 + vv**2
    values = np.where(norm2 <= 1.0, entropy_of_norm2(norm2), -np.inf)
    i = np.unravel_index(int(np.argmax(values)), values.shape)
    return float(values[i]), r0 + null[:, 0] * uu[i] + null[:, 1] * vv[i]
