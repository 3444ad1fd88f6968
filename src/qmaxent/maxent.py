"""Maximum-entropy estimation of density operators.

Given expectation-value constraints tr(rho A_j) = t_j, the entropy
maximizer has the canonical form

    rho(lam) = exp(-sum_k lam_k A_k) / Z(lam),   Z = tr exp(-sum_k lam_k A_k),

and the multipliers are the unique minimizer of the smooth convex dual

    value(lam) = log Z(lam) + sum_j lam_j t_j,

whose gradient is t_j - <A_j>_{rho(lam)} and whose Hessian is the Kubo-Mori
metric at rho(lam).  ``solve_maxent`` runs Newton's method with Armijo
backtracking from lam = 0 (the uniform state), solving each Newton system by
conjugate gradients on Hessian-vector products, which need no eigendecomposition
beyond the dual evaluation's own.  They are preconditioned with n Gram^-1
(Gram of the traceless parts), the exact inverse Hessian at I/n, and stop once
the linearized gradient is within a tenth of the tolerance.  The line search
also accepts a step whose gradient already meets the tolerance: that close to
the optimum, rounding in the dual value can outweigh the Armijo decrease.  The
entropy of the estimate comes from the spectrum of the last dual evaluation.
Every state meeting the targets has entropy between 0 and value(lam), for any
lam (weak duality), so a negative value proves the targets jointly unreachable.

A target must lie in its observable's spectral range [w_min, w_max]; by Cauchy
interlacing so do the eigenvalues of every 2x2 principal submatrix.  So
``ConstraintSet`` runs eigvalsh only on targets outside that inner range or
within 1e-10 ||A||_F (far above rounding and LAPACK's error) of its ends.  Its
independence check then scales its one stack of entries in place, in real
arithmetic, and copies the entries back before the stack is frozen.

The state, log Z, the dual value and its gradient come from one shifted
eigendecomposition of sum_k lam_k A_k and need no overflow guard; only
``partition_function``, which returns Z unshifted, guards the exponent.

``solve_prior_tilt`` handles the single-constraint update of an arbitrary
prior rho0 via the symmetric exponential tilt

    rho(lam) = exp(-lam A / 2) rho0 exp(-lam A / 2) / tr(exp(-lam A) rho0),

which is Hermitian and positive semidefinite for every input.  (The
asymmetric product rho0 exp(-lam A) / Z agrees with it only when rho0 and
A commute; this module always uses the symmetric form and makes no
optimality claim for it in the non-commuting case.)  In A's eigenbasis the
constraint reduces to a classical tilted mean that is strictly decreasing
in lam, so the multiplier is found by a safeguarded Newton iteration with
a bisection fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DependentConstraints,
    DimMismatch,
    Infeasible,
    InputValidationError,
    MaxIterExceeded,
    Overflow,
)
from .operators import (
    EXP_ARGUMENT_LIMIT,
    DensityOperator,
    HermitianOperator,
    _tilt,
    _tilt_support,
    eig_hermitian,
)
from .entropy import _entropy_of_spectrum

__all__ = [
    "ConstraintSet",
    "MaxEntSolution",
    "partition_function",
    "gibbs_state",
    "dual_objective",
    "solve_maxent",
    "entropy_sensitivity",
    "solve_prior_tilt",
    "classical_gibbs_oracle",
]

MULTIPLIER_CAP = 1e4
GRAM_CONDITION_LIMIT = 1e12
ARMIJO_SLOPE = 1e-4
ARMIJO_SHRINK = 0.5


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Observables A_1..A_m with target expectation values t_1..t_m.

    Construction checks that all observables share one dimension, that each
    target lies inside the spectral range of its observable (a necessary
    feasibility condition, certified by the 2x2 principal submatrices or else
    by ``eigvalsh``), and that the traceless parts of the observables
    are numerically independent (condition number of their correlation
    matrix at most 1e12, whatever their scales; one proportional to I fails);
    dependent constraints would make the multipliers non-unique and are
    rejected rather than regularized.  ``dim`` may be given explicitly,
    which is required when there are no observables at all.  A target on
    the boundary of its spectral range is accepted here and refused by
    ``solve_maxent``.
    """

    observables: tuple[HermitianOperator, ...]
    targets: np.ndarray
    dim: int | None = None

    def __post_init__(self) -> None:
        observables = tuple(self.observables)
        targets = np.atleast_1d(np.asarray(self.targets, dtype=np.float64)).copy()
        if targets.ndim != 1 or len(observables) != targets.size:
            raise DimMismatch(
                f"{len(observables)} observables but {targets.size} targets"
            )
        if targets.size and not np.isfinite(targets).all():
            raise InputValidationError("targets must be finite")
        dim = self.dim
        for a in observables:
            if dim is None:
                dim = a.dim
            elif a.dim != dim:
                raise DimMismatch(f"observable dims differ: {a.dim} != {dim}")
        if dim is None:
            raise DimMismatch("dimension required when no observables are given")
        stacked = np.array([a.entries for a in observables], np.complex128).reshape(-1, dim, dim)
        with np.errstate(over="ignore", invalid="ignore"):  # overflowing bounds certify nothing
            uncertain = self._uncertain(stacked, targets)
        boundary = None
        for k in uncertain:
            t, w = targets[k], np.linalg.eigvalsh(observables[k].entries)
            span = f"[{float(w[0])!r}, {float(w[-1])!r}]"
            if not (w[0] <= t <= w[-1]):
                raise Infeasible(f"target {float(t)!r} outside the spectral range {span}")
            if boundary is None and not (w[0] < t < w[-1]):
                boundary = (
                    f"target {float(t)!r} on the boundary of the spectral range {span}; "
                    "the multiplier would diverge"
                )
        gram = self._check_independent(stacked, dim)
        for k, a in enumerate(observables):  # the check scaled the stack in place
            stacked[k] = a.entries
        stacked.setflags(write=False)
        targets.setflags(write=False)
        object.__setattr__(self, "observables", observables)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "dim", int(dim))
        # the first boundary target's refusal, raised by solve_maxent
        object.__setattr__(self, "_boundary", boundary)
        # the (m, n, n) stacked entries and the traceless parts' (m, m) Gram
        # matrix, both empty when m = 0, for dual_objective and solve_maxent
        object.__setattr__(self, "_stacked", stacked)
        object.__setattr__(self, "_gram", gram)

    @staticmethod
    def _uncertain(stacked: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Indices of the targets that the 2x2 principal submatrices leave undecided."""
        m, n = stacked.shape[:2]
        flat = stacked.reshape(m, n * n)
        parts = flat.view(np.float64)  # ||A||_F >= ||A||_2 bounds LAPACK's error
        margin = 1e-10 * np.sqrt(np.einsum("ki,ki->k", parts, parts))
        diag = flat[:, :: n + 1].real
        lo, hi = diag.min(axis=1), diag.max(axis=1)
        rest = np.flatnonzero(~((lo + margin < targets) & (targets < hi - margin)))
        d, off = diag[rest], np.abs(flat[rest]) ** 2
        off[:, :: n + 1] = 0.0  # a 1x1 block's eigenvalue is a_ii itself
        mid = (d[:, :, None] + d[:, None, :]) / 2.0
        rad = np.sqrt(((d[:, :, None] - d[:, None, :]) / 2.0) ** 2 + off.reshape(-1, n, n))
        lo[rest], hi[rest] = (mid - rad).min(axis=(1, 2)), (mid + rad).max(axis=(1, 2))
        return np.flatnonzero(~((lo + margin < targets) & (targets < hi - margin)))

    @staticmethod
    def _check_independent(stacked: np.ndarray, dim: int) -> np.ndarray:
        """Gram matrix G of the traceless parts, after a scale-free independence check.

        The check reads D^-1/2 G D^-1/2, D = diag G, built from each observable
        scaled to unit peak entry, so it neither overflows nor underflows.  The
        scaling divides ``stacked`` in place, which the caller restores.  G is
        refused when it, or the preconditioner n G^-1 of ``solve_maxent``, is not
        finite.
        """
        # tr(X Y) = sum_ij Re X_ij Re Y_ij + Im X_ij Im Y_ij for Hermitian Y
        parts = stacked.reshape(-1, dim * dim).view(np.float64)
        peaks = np.maximum(parts.max(axis=1), -parts.min(axis=1))
        parts /= np.where(peaks > 0.0, peaks, 1.0)[:, None]
        diagonal = parts[:, :: 2 * (dim + 1)]
        diagonal -= diagonal.mean(axis=1)[:, None]
        inner = parts @ parts.T
        norms = np.sqrt(inner.diagonal())
        if not norms.all():
            raise DependentConstraints(
                f"observable {int(np.argmin(norms))} is a multiple of the identity; "
                "its constraint only fixes the trace"
            )
        s = np.linalg.eigvalsh(inner / norms[:, None] / norms[None, :])
        if s.size and (s[0] <= 0.0 or s[-1] / s[0] > GRAM_CONDITION_LIMIT):
            raise DependentConstraints(
                "constraint observables are linearly dependent (condition number of the "
                "traceless parts' correlation matrix above 1e12); multipliers would not be unique"
            )
        with np.errstate(over="ignore"):
            gram = inner * peaks[:, None] * peaks[None, :]
        if not np.isfinite(gram).all():
            raise InputValidationError("observables too large: their Gram matrix overflows")
        try:
            with np.errstate(over="ignore"):
                finite = np.isfinite(dim * np.linalg.inv(gram)).all()
        except np.linalg.LinAlgError:  # underflowed to an exactly singular matrix
            finite = False
        if not finite:
            raise InputValidationError(
                "observables too small: the inverse of their Gram matrix overflows"
            )
        return gram

    @property
    def m(self) -> int:
        return len(self.observables)


@dataclass(frozen=True, eq=False)
class MaxEntSolution:
    """Solved multipliers and the resulting canonical state.

    ``lambda0`` is log Z at the solution, ``s_max`` the entropy of the
    estimate, and ``residual`` the largest absolute constraint violation.
    """

    multipliers: np.ndarray
    lambda0: float
    estimate: DensityOperator
    achieved: np.ndarray
    s_max: float
    iterations: int
    residual: float


def _validated_multipliers(multipliers, m: int) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(multipliers, dtype=np.float64))
    if lam.ndim != 1 or lam.size != m:
        raise DimMismatch(f"{lam.size} multipliers but {m} observables")
    if not np.isfinite(lam).all():
        raise InputValidationError("multipliers must be finite")
    return lam


def _validated_pair(multipliers, observables) -> tuple[np.ndarray, np.ndarray]:
    lam = _validated_multipliers(multipliers, len(observables))
    if lam.size == 0:
        raise DimMismatch("at least one observable is required")
    dim = observables[0].dim
    for a in observables[1:]:
        if a.dim != dim:
            raise DimMismatch(f"observable dims differ: {a.dim} != {dim}")
    return lam, np.stack([a.entries for a in observables])


def _aggregate(lam: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    """sum_k lam_k A_k, one matrix-vector product with the flattened stack."""
    n = stacked.shape[-1]
    return (lam @ stacked.reshape(-1, n * n)).reshape(n, n)


def _eig_aggregate(lam: np.ndarray, stacked: np.ndarray):
    try:
        return np.linalg.eigh(_aggregate(lam, stacked))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc


def _softmax_state(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-W)/tr(exp(-W)) and its eigenvalues, from the eigensystem of W; stable under shifts.

    The state is Hermitian up to rounding, which leaves Re tr(rho A) unchanged;
    DensityOperator symmetrizes it.
    """
    u = -w
    q = np.exp(u - u.max())
    q /= q.sum()
    return (v * q) @ v.conj().T, q


def partition_function(multipliers, observables) -> float:
    """Z = tr exp(-sum_k lam_k A_k), unshifted: a spectral radius above 700 raises Overflow."""
    lam, stacked = _validated_pair(multipliers, observables)
    w = np.linalg.eigvalsh(_aggregate(lam, stacked))
    radius = float(np.abs(w).max())
    if radius > EXP_ARGUMENT_LIMIT:
        raise Overflow(
            f"spectral radius {radius:.6g} of the multiplier aggregate exceeds "
            f"the exponent guard {EXP_ARGUMENT_LIMIT:.0f}"
        )
    return float(np.exp(-w).sum())


def gibbs_state(multipliers, observables) -> DensityOperator:
    """The canonical state exp(-sum_k lam_k A_k) / Z; its exponent is shifted, so unguarded."""
    lam, stacked = _validated_pair(multipliers, observables)
    w, v = _eig_aggregate(lam, stacked)
    return DensityOperator(_softmax_state(w, v)[0])


def _dual_point(lam: np.ndarray, stacked: np.ndarray, targets: np.ndarray):
    """Dual value, gradient, state, log Z and eigensystem (w, V, p) at ``lam``; m = 0 gives I/n."""
    w, v = _eig_aggregate(lam, stacked)
    log_z = float(np.logaddexp.reduce(-w))
    state, p = _softmax_state(w, v)
    # tr(rho A_k) = sum_ij (A_k)_ij conj(rho_ij) for Hermitian rho
    achieved = (stacked.reshape(len(stacked), state.size) @ state.conj().ravel()).real
    return log_z + float(lam @ targets), targets - achieved, state, log_z, (w, v, p)


def _kubo_mori_product(stacked, achieved, w, v, p):
    """x -> H x, H the dual's Hessian (the Kubo-Mori metric of V diag(p) V^dag); no eigh.

    H_jk = sum_ab (B_j)_ab conj((B_k)_ab) K_ab - <A_j><A_k> with B = V^dag A V and K_ab =
    (p_a - p_b)/(w_b - w_a) = max(p_a, p_b) phi(|w_a - w_b|), phi(x) = -expm1(-x)/x,
    phi(0) = 1: the latter form is exact on degenerate pairs and cannot overflow.
    """
    gap = np.abs(w[:, None] - w[None, :])
    phi = np.ones_like(gap)
    np.divide(-np.expm1(-gap), gap, out=phi, where=gap > 0.0)
    kernel = np.maximum(p[:, None], p[None, :]) * phi
    flat, vh, vc, vt = stacked.reshape(len(stacked), gap.size), v.conj().T, v.conj(), v.T

    def product(x: np.ndarray) -> np.ndarray:
        # conj(Y) = conj(V) (K o M)^T V^T with Y = V (K o M) V^dag, M = V^dag X V Hermitian
        y_conj = vc @ (kernel * (vh @ (x @ flat).reshape(gap.shape) @ v)).T @ vt
        return (flat @ y_conj.ravel()).real - achieved * float(achieved @ x)

    return product


def dual_objective(multipliers, constraints: ConstraintSet):
    """Convex dual value log Z + lam . t and its exact gradient t_j - <A_j>.

    The gradient vanishes exactly at the maximum-entropy multipliers.  log Z
    is evaluated after a shift, so no exponent guard applies.
    """
    lam = _validated_multipliers(multipliers, constraints.m)
    value, gradient = _dual_point(lam, constraints._stacked, constraints.targets)[:2]
    return value, gradient


def _newton_direction(
    hessian, gradient: np.ndarray, precond: np.ndarray, tol: float
) -> np.ndarray:
    """H d = -g by at most m conjugate-gradient steps from d = 0, preconditioned with P.

    Stops when ||r||_P <= eta ||g||_P, eta = min(0.5, ||g||_P) (Eisenstat-Walker, in the
    P-norm so the stop ignores how observables are scaled), once the linearized
    gradient g + H d = -r is within the solver's tolerance (max|r| <= tol / 10),
    or at non-positive curvature with the last iterate, or -P g if there is none.
    """
    r, d = -gradient, np.zeros_like(gradient)  # residual, direction
    s = z = precond @ r  # search direction, preconditioned residual
    rz = float(r @ z)
    stop = min(0.25, rz) * rz  # eta^2 ||g||_P^2
    for k in range(r.size):
        hs = hessian(s)
        curvature = float(s @ hs)
        if not curvature > 0.0:
            return d if k else s
        alpha = rz / curvature
        d, r = d + alpha * s, r - alpha * hs
        z = precond @ r
        rz, previous = float(r @ z), rz
        if rz <= stop or abs(r).max() <= 0.1 * tol:
            break
        s = z + (rz / previous) * s
    return d


def solve_maxent(
    constraints: ConstraintSet, *, tol: float = 1e-10, max_iter: int = 500
) -> MaxEntSolution:
    """Solve for the entropy-maximizing state subject to the constraints.

    Minimizes the convex dual by Newton's method with Armijo backtracking
    (shrink 0.5, slope 1e-4) from lam = 0, each step solved by conjugate
    gradients on the exact Hessian, preconditioned with its inverse at 0 and
    stopped once the linearized constraint violation is at most ``tol / 10``.
    A trial step is accepted when it meets the Armijo rule or when its
    largest constraint violation is already at most ``tol``, which is
    convergence.
    Targets on or outside the boundary of the achievable set are reported as
    Infeasible, either up front (target on the spectral boundary) or by weak
    duality: every state meeting the targets has 0 <= S <= log Z + lam . t, so
    a dual value below 0 (beyond rounding) proves that no state meets them.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise InputValidationError(f"tol must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise InputValidationError(f"max_iter must be at least 1, got {max_iter!r}")
    if constraints._boundary is not None:
        raise Infeasible(constraints._boundary)
    n, stacked, targets = constraints.dim, constraints._stacked, constraints.targets

    lam = np.zeros(constraints.m)
    precond = n * np.linalg.inv(constraints._gram)
    value, gradient, state, log_z, eig = _dual_point(lam, stacked, targets)
    iterations = 0
    residual = float(abs(gradient).max(initial=0.0))
    while not residual <= tol:
        if iterations >= max_iter:
            raise MaxIterExceeded(
                f"no convergence after {max_iter} iterations (residual {residual:.3e})"
            )
        if value < -1e-12 * max(1.0, float(abs(eig[0]).max())):
            raise Infeasible(
                f"dual value {value:.6g} is negative, yet it bounds the entropy of every "
                "state meeting the targets from above; the targets are jointly unreachable"
            )
        hessian = _kubo_mori_product(stacked, targets - gradient, *eig)
        direction = _newton_direction(hessian, gradient, precond, tol)
        slope = float(gradient @ direction)
        # small cushion absorbs ties at the resolution of the dual value
        cushion = 1e-14 * max(1.0, abs(value))
        t = 1.0
        while True:
            trial = lam + t * direction
            point = _dual_point(trial, stacked, targets)  # value, gradient, state, log Z, eig
            if point[0] <= value + ARMIJO_SLOPE * t * slope + cushion:
                break
            # near the optimum the value's rounding can exceed the cushion
            if abs(point[1]).max() <= tol:
                break
            t *= ARMIJO_SHRINK
            if t < 1e-20:
                raise MaxIterExceeded(
                    "line search stalled before reaching the requested tolerance"
                )
        lam, (value, gradient, state, log_z, eig) = trial, point
        iterations += 1
        residual = float(abs(gradient).max(initial=0.0))

    estimate = DensityOperator(state)
    achieved = targets - gradient
    lam.setflags(write=False)
    achieved.setflags(write=False)
    return MaxEntSolution(
        multipliers=lam,
        lambda0=log_z,
        estimate=estimate,
        achieved=achieved,
        s_max=_entropy_of_spectrum(eig[2]),
        iterations=iterations,
        residual=residual,
    )


def entropy_sensitivity(
    constraints: ConstraintSet,
    step: float = 1e-4,
    *,
    tol: float = 1e-10,
    max_iter: int = 500,
) -> np.ndarray:
    """Central finite differences of the maximal entropy in each target.

    At the optimum the partial derivative of the achieved maximal entropy
    with respect to target j equals the solved multiplier lam_j, so this is
    a solver consistency check.  Solver errors at the perturbed targets
    propagate unchanged.
    """
    if not (np.isfinite(step) and step > 0.0):
        raise InputValidationError(f"step must be positive and finite, got {step!r}")
    out = np.zeros(constraints.m)
    for j in range(constraints.m):
        values = []
        for sign in (1.0, -1.0):
            shifted = constraints.targets.copy()
            shifted[j] += sign * step
            shifted_set = ConstraintSet(constraints.observables, shifted, dim=constraints.dim)
            values.append(solve_maxent(shifted_set, tol=tol, max_iter=max_iter).s_max)
        out[j] = (values[0] - values[1]) / (2.0 * step)
    return out


def _tilted_mean_var(lam: float, a: np.ndarray, d: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the spectrum ``a`` under weights d_i exp(-lam a_i)."""
    u = -lam * a
    q = d * np.exp(u - u.max())
    q /= q.sum()
    mean = float(q @ a)
    var = float(q @ (a - mean) ** 2)
    return mean, var


def solve_prior_tilt(
    prior: DensityOperator,
    observable: HermitianOperator,
    target: float,
    *,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> tuple[float, DensityOperator]:
    """Tilt a prior state until one expectation value hits its target.

    Returns (lam, state) with state the symmetric exponential tilt of the
    prior and |tr(state A) - target| <= tol.  In A's eigenbasis the mean is
    a classical tilted average with derivative minus a variance, hence
    strictly decreasing; the root is unique and found by safeguarded Newton
    with bisection fallback on a bracketing interval.  Feasible targets lie
    strictly between the smallest and largest eigenvalue of A that carries
    prior weight.
    """
    if prior.dim != observable.dim:
        raise DimMismatch(f"prior dim {prior.dim} != observable dim {observable.dim}")
    if not np.isfinite(target):
        raise InputValidationError("target must be finite")
    if not (np.isfinite(tol) and tol > 0.0):
        raise InputValidationError(f"tol must be positive and finite, got {tol!r}")
    w, v = eig_hermitian(observable)
    support = _tilt_support(prior, w, v, target, tol, "prior")
    if support is None:
        return 0.0, prior
    a_s, d_s = support

    mean0, _ = _tilted_mean_var(0.0, a_s, d_s)
    if abs(mean0 - target) <= tol:
        return 0.0, prior

    # mean is strictly decreasing in lam and saturates at an end of the support,
    # which lies strictly past the target: double away from 0 toward the target
    sign = 1.0 if mean0 > target else -1.0
    inner, outer = 0.0, sign
    while sign * (_tilted_mean_var(outer, a_s, d_s)[0] - target) > 0.0:
        inner, outer = outer, 2.0 * outer
        if not np.isfinite(outer * (a_s.max() - a_s.min())):
            raise Infeasible(f"target {target!r} numerically at the boundary")
    xlo, xhi = sorted((inner, outer))

    x = 0.5 * (xlo + xhi)
    for _ in range(max_iter):
        mean, var = _tilted_mean_var(x, a_s, d_s)
        fx = mean - target
        if abs(fx) <= tol:
            return float(x), _tilt(prior, w, v, x)
        if fx > 0.0:
            xlo = x
        else:
            xhi = x
        if var > 0.0:
            candidate = x + fx / var
        else:
            candidate = 0.5 * (xlo + xhi)
        if not (xlo < candidate < xhi):
            candidate = 0.5 * (xlo + xhi)
        x = candidate
    raise MaxIterExceeded(f"no convergence after {max_iter} Newton iterations")


def classical_gibbs_oracle(
    weights,
    values,
    targets,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> np.ndarray:
    """Classical tilted distribution p_i proportional to w_i exp(-sum_k lam_k v_ki).

    Solves the scalar analogue of the operator problem by a damped Newton
    iteration on the classical dual (the Hessian is the covariance of the
    value vectors, available in closed form).  Deliberately shares no code
    with the operator path so it can serve as an independent cross-check
    on commuting instances.
    """
    w = np.atleast_1d(np.asarray(weights, dtype=np.float64))
    if w.ndim != 1 or w.size == 0 or not np.isfinite(w).all():
        raise InputValidationError("weights must be a nonempty finite vector")
    if w.min() < -1e-12:
        raise InputValidationError(
            f"weights must be nonnegative, smallest is {float(w.min())!r}"
        )
    w = np.maximum(w, 0.0)
    if abs(w.sum() - 1.0) > 1e-10:
        raise InputValidationError(f"weights must sum to 1, got {float(w.sum())!r}")
    vals = np.atleast_2d(np.asarray(values, dtype=np.float64))
    t = np.atleast_1d(np.asarray(targets, dtype=np.float64))
    m = t.size
    if vals.shape != (m, w.size) and not (m == 0 and vals.size == 0):
        raise DimMismatch(
            f"values shape {vals.shape} incompatible with {m} targets over {w.size} points"
        )
    if m == 0:
        return w.copy()
    if not np.isfinite(vals).all() or not np.isfinite(t).all():
        raise InputValidationError("values and targets must be finite")

    support = w > 0.0
    ws = w[support]
    vs = vals[:, support]
    for k in range(m):
        lo, hi = float(vs[k].min()), float(vs[k].max())
        if not (lo < t[k] < hi):
            raise Infeasible(
                f"target {float(t[k])!r} outside the open achievable interval "
                f"({lo!r}, {hi!r})"
            )

    log_ws = np.log(ws)

    def point(lam):
        u = log_ws - lam @ vs
        q = np.exp(u - u.max())
        z = q.sum()
        p = q / z
        value = float(u.max() + np.log(z) + lam @ t)
        mean = vs @ p
        centered = vs - mean[:, None]
        hess = (centered * p) @ centered.T
        return value, t - mean, hess, p

    lam = np.zeros(m)
    value, gradient, hess, p = point(lam)
    for _ in range(max_iter):
        if abs(gradient).max() <= tol:
            out = np.zeros(w.size)
            out[support] = p
            return out
        if abs(lam).max() > MULTIPLIER_CAP:
            raise Infeasible(
                "multiplier norm exceeded 1e4 with a non-vanishing gradient; "
                "the targets are jointly unreachable"
            )
        jitter = 1e-14 * max(1.0, float(np.trace(hess)))
        direction = np.linalg.solve(hess + jitter * np.eye(m), -gradient)
        slope = float(gradient @ direction)
        if slope >= 0.0:
            direction = -gradient
            slope = -float(gradient @ gradient)
        cushion = 1e-14 * max(1.0, abs(value))
        step = 1.0
        while True:
            trial = lam + step * direction
            trial_value, trial_gradient, trial_hess, trial_p = point(trial)
            if trial_value <= value + ARMIJO_SLOPE * step * slope + cushion:
                break
            step *= ARMIJO_SHRINK
            if step < 1e-20:
                raise MaxIterExceeded("line search stalled")
        lam, value, gradient, hess, p = trial, trial_value, trial_gradient, trial_hess, trial_p
    raise MaxIterExceeded(f"no convergence after {max_iter} Newton iterations")
