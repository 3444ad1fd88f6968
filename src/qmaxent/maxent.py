"""Maximum-entropy estimation of density operators.

Given expectation-value constraints tr(rho A_j) = t_j, the entropy
maximizer has the canonical form

    rho(lam) = exp(-sum_k lam_k A_k) / Z(lam),   Z = tr exp(-sum_k lam_k A_k),

and the multipliers are the unique minimizer of the smooth convex dual

    value(lam) = log Z(lam) + sum_j lam_j t_j,

whose gradient is t_j - <A_j>_{rho(lam)} and whose Hessian is the Kubo-Mori
metric at rho(lam).  One evaluation of this family, ``_dual_point``, is the only
code that diagonalizes sum_k lam_k A_k and turns its spectrum into log Z, rho(lam)
and <A_j>; ``partition_function``, ``gibbs_state``, ``dual_objective`` and
``solve_maxent`` all read it.  ``solve_maxent`` runs Newton's method with Armijo
backtracking from lam = 0, where all of these are known in closed form: the
state I/n, log Z = log n, <A_j> = tr(A_j)/n, and the Hessian Gram/n (Gram of
the traceless parts), so the first step, -n Gram^-1 g, needs no
eigendecomposition.  Later Newton systems are solved by conjugate gradients on
Hessian-vector products in the dual evaluation's eigenbasis, preconditioned
with n Gram^-1 and stopped once the linearized gradient is within a tenth of
the tolerance.  The line search also accepts a step whose gradient already
meets the tolerance, since rounding in the dual value can outweigh the Armijo
decrease there.  The estimate V diag(p) V^dag and its entropy come from the last
dual evaluation, and so does its positivity: its spectrum is p >= 0 up to O(n eps),
so no second eigendecomposition judges it.  Every state has
tr(rho sum_k lam_k A_k) >= w_min, its smallest eigenvalue, and one meeting the
targets has it equal to lam . t, so lam . t < w_min (a separating hyperplane)
proves the targets unreachable; as log Z >= -w_min, this fires wherever the dual
value is negative, and sooner.

A target must lie in its observable's spectral range [w_min, w_max]; by Cauchy
interlacing so do the eigenvalues of every 2x2 principal submatrix.  So
``ConstraintSet`` climbs a ladder of certificates, each run only on the targets that
the rung before leaves outside its range or within 1e-10 ||A||_F (far above rounding
and LAPACK's error) of its ends: the diagonal; the O(n) pairs of the smallest or
largest diagonal entry; all O(n^2) pairs; eigvalsh.  Each A_k is held as its n^2
real coordinates c(A_k) (``operators._pack``): sum_k x_k A_k is x . c(A) unpacked
once, and tr(A_k Y) = c(A_k) . c(Y), Y's off-diagonal coordinates doubled.
Exponents are shifted, so Overflow means that sum_k lam_k A_k, Z or the dual value
is not finite.

``solve_prior_tilt`` handles the single-constraint update of an arbitrary
prior rho0 via the symmetric exponential tilt

    rho(lam) = exp(-lam A / 2) rho0 exp(-lam A / 2) / tr(exp(-lam A) rho0),

which is Hermitian and positive semidefinite for every input.  (The
asymmetric product rho0 exp(-lam A) / Z agrees with it only when rho0 and
A commute; this module always uses the symmetric form and makes no
optimality claim for it in the non-commuting case.)  In A's eigenbasis the
constraint reduces to a classical tilted mean that is strictly decreasing
in lam, so the multiplier is found by a safeguarded Newton iteration with
a bisection fallback, run on A's eigenvalues centred at the target and divided by
their spread, while the target is met in the caller's units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DependentConstraints,
    DimMismatch,
    Infeasible,
    InputValidationError,
    MaxIterExceeded,
    Overflow,
)
from .operators import (
    DensityOperator,
    HermitianOperator,
    _check_controls,
    _common_dim,
    _coordinates,
    _dual,
    _eigh,
    _eigvalsh,
    _in_basis,
    _measured_density,
    _pair_bounds,
    _pivot_bound,
    _split,
    _tilt,
    _tilt_support,
    _unpack,
    hermitian_part,
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

GRAM_CONDITION_LIMIT = 1e12
ARMIJO_SLOPE = 1e-4
ARMIJO_SHRINK = 0.5
SENSITIVITY_STEP = 1e-4


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Observables A_1..A_m with target expectation values t_1..t_m.

    Construction checks that all observables share one dimension, that each
    target lies inside the spectral range of its observable (a necessary
    feasibility condition, certified by the diagonal, then the 2x2 principal
    submatrices of the smallest or largest diagonal entry, then all of them, or else by
    ``eigvalsh``), and that the traceless parts of the observables
    are numerically independent (condition number of their correlation
    matrix at most 1e12, whatever their scales; one proportional to I fails);
    dependent constraints would make the multipliers non-unique and are
    rejected rather than regularized.  ``dim`` may be given explicitly,
    which is required when there are no observables at all.  A target on
    the boundary of its spectral range is accepted here and refused by
    ``solve_maxent``.  Every check and dual evaluation reads one read-only
    (m, n^2) float64 array of the observables' real coordinates.
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
        if self.dim is None and not observables:
            raise DimMismatch("dimension required when no observables are given")
        dim = _common_dim(*observables, dim=self.dim)
        coords = _coordinates(observables, dim)
        off = _split(coords)[1]  # tr(A B) = c(A) . c(B) + c(A)_off . c(B)_off
        with np.errstate(over="ignore", invalid="ignore"):  # overflowing bounds certify nothing
            squares = np.einsum("ki,ki->k", coords, coords) + np.einsum("ki,ki->k", off, off)
            uncertain = self._uncertain(coords, targets, squares)
        boundary = None
        for k in uncertain:
            t, w = targets[k], _eigvalsh(observables[k].entries)
            span = f"[{float(w[0])!r}, {float(w[-1])!r}]"
            if not (w[0] <= t <= w[-1]):
                raise Infeasible(f"target {float(t)!r} outside the spectral range {span}")
            if boundary is None and not (w[0] < t < w[-1]):
                boundary = (
                    f"target {float(t)!r} on the boundary of the spectral range {span}; "
                    "the multiplier would diverge"
                )
        precond = self._check_independent(coords, dim, squares, observables)
        coords.setflags(write=False)
        targets.setflags(write=False)
        object.__setattr__(self, "observables", observables)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "dim", int(dim))
        # the first boundary target's refusal, raised by solve_maxent
        object.__setattr__(self, "_boundary", boundary)
        # the observables' (m, n^2) coordinates and n Gram^-1 of their traceless parts,
        # (m, m), both empty when m = 0, for dual_objective and solve_maxent
        object.__setattr__(self, "_coords", coords)
        object.__setattr__(self, "_precond", precond)

    @staticmethod
    def _uncertain(coords: np.ndarray, targets: np.ndarray, squares: np.ndarray) -> np.ndarray:
        """Indices of the targets that the 2x2 principal submatrices leave undecided."""
        margin = 1e-10 * np.sqrt(squares)  # ||A||_F >= ||A||_2 bounds LAPACK's error
        diag = _split(coords)[0]
        lo, hi = diag.min(axis=1), diag.max(axis=1)
        for k in np.flatnonzero(~((lo + margin < targets) & (targets < hi - margin))):
            c, t, e = coords[k], targets[k], margin[k]
            if not lo[k] + e < t:  # O(n): the pairs of the smallest diagonal entry
                lo[k] = _pivot_bound(c, least=True)
            if not t < hi[k] - e:
                hi[k] = _pivot_bound(c, least=False)
            if not lo[k] + e < t < hi[k] - e:  # O(n^2): every pair
                lo[k], hi[k] = _pair_bounds(c)
        return np.flatnonzero(~((lo + margin < targets) & (targets < hi - margin)))

    @staticmethod
    def _check_independent(coords: np.ndarray, dim: int, squares: np.ndarray, observables):
        """n G^-1, G the Gram matrix of the traceless parts, after a scale-free independence check.

        The check reads D^-1/2 G D^-1/2, D = diag G.  Rows of ``coords`` whose ||A_k||_F^2
        (``squares``) is outside (2^-800, 2^800), where G could overflow or underflow, are
        scaled in place to unit peak entry (a zero row by the smallest normal number), then
        packed again from ``observables``.  G is refused when it, or n G^-1, is not finite.
        """
        extreme = np.flatnonzero(~((2.0**-800 < squares) & (squares < 2.0**800)))
        scales = np.ones(len(coords))
        scales[extreme] = np.abs(coords[extreme]).max(axis=1, initial=np.finfo(float).tiny)
        coords[extreme] /= scales[extreme, None]
        diag, off = _split(coords)
        centered = diag - diag.mean(axis=1, keepdims=True)
        inner = off @ off.T  # tr(B_k B_l): diagonals centered, off-diagonals counted twice
        inner *= 2.0
        inner += centered @ centered.T
        del centered  # one (m, n) array fewer at the peak of the checks below
        coords[extreme] = _coordinates([observables[k] for k in extreme], dim)
        norms = np.sqrt(inner.diagonal())
        if not norms.all():
            raise DependentConstraints(
                f"observable {int(np.argmin(norms))} is a multiple of the identity; "
                "its constraint only fixes the trace"
            )
        correlation = inner / norms
        correlation /= norms[:, None]
        s = _eigvalsh(correlation)
        if s.size and (s[0] <= 0.0 or s[-1] / s[0] > GRAM_CONDITION_LIMIT):
            raise DependentConstraints(
                "constraint observables are linearly dependent (condition number of the "
                "traceless parts' correlation matrix above 1e12); multipliers would not be unique"
            )
        gram = inner  # of the scaled rows, scaled back in place
        with np.errstate(over="ignore"):
            gram *= scales
            gram *= scales[:, None]
        if not np.isfinite(gram).all():
            raise InputValidationError("observables too large: their Gram matrix overflows")
        try:
            with np.errstate(over="ignore"):
                precond = np.linalg.inv(gram)
                precond *= dim
            finite = np.isfinite(precond).all()
        except np.linalg.LinAlgError:  # underflowed to an exactly singular matrix
            finite = False
        if not finite:
            raise InputValidationError(
                "observables too small: the inverse of their Gram matrix overflows"
            )
        precond.setflags(write=False)
        return precond

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


def _evaluated(multipliers, coords: np.ndarray, targets: np.ndarray | None = None):
    """``_dual_point`` at validated ``multipliers``; a value that is not finite raises Overflow.

    Without ``targets`` (partition_function, gibbs_state) lam . t = 0 and the value is log Z,
    which is infinite or NaN only when sum_k lam_k A_k or its spectrum overflows.
    """
    lam = np.atleast_1d(np.asarray(multipliers, dtype=np.float64))
    if lam.ndim != 1 or lam.size != len(coords):
        raise DimMismatch(f"{lam.size} multipliers but {len(coords)} observables")
    if not np.isfinite(lam).all():
        raise InputValidationError("multipliers must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        point = _dual_point(lam, coords, np.zeros(lam.size) if targets is None else targets)
    if np.isfinite(point[0]):
        return point
    if targets is None:
        raise Overflow("sum_k lam_k A_k is not finite in double precision")
    raise Overflow(f"dual value {point[0]!r} is not finite in double precision")


def _canonical(multipliers, observables):
    """``_evaluated`` at lam . t = 0 of raw observables: partition_function's and gibbs_state's."""
    if len(observables) == 0:
        raise DimMismatch("at least one observable is required")
    return _evaluated(multipliers, _coordinates(observables, _common_dim(*observables)))


def partition_function(multipliers, observables) -> float:
    """Z = tr exp(-sum_k lam_k A_k); Overflow if Z is not finite, ConvergenceFailure on eigh."""
    log_z = _canonical(multipliers, observables)[3]
    with np.errstate(over="ignore"):
        z = float(np.exp(log_z))
    if not np.isfinite(z):
        raise Overflow(f"Z = exp({log_z:.6g}) is not finite in double precision")
    return z


def gibbs_state(multipliers, observables) -> DensityOperator:
    """exp(-sum_k lam_k A_k) / Z, its exponent shifted; only an overflowing spectrum raises."""
    return DensityOperator(_canonical(multipliers, observables)[2])


def _dual_point(lam: np.ndarray, coords: np.ndarray, targets: np.ndarray):
    """Dual value, gradient, state, log Z and eigensystem (w, V, p) at ``lam``; m = 0 gives I/n.

    The state V diag(p) V^dag is Hermitian up to rounding: the pairings read its diagonal and
    upper triangle, and DensityOperator symmetrizes it.
    """
    w, v = _eigh(_unpack(lam @ coords))
    log_z = float(np.logaddexp.reduce(-w))
    p = np.exp(w[0] - w)  # exp(-w) over its largest term: eigh's eigenvalues ascend
    p /= p.sum()
    state = (v * p) @ v.conj().T
    achieved = coords @ _dual(state)  # tr(A_k rho), as in _pairing
    return log_z + float(lam @ targets), targets - achieved, state, log_z, (w, v, p)


def _kubo_mori_product(coords, achieved, w, v, p):
    """x -> H x, H the dual's Hessian (the Kubo-Mori metric of V diag(p) V^dag); no eigh.

    (H x)_j = tr(A_j Y) - <A_j> sum_k <A_k> x_k, Y = V (K o V^dag X V) V^dag, X = sum_k x_k A_k,
    with the Kubo-Mori kernel K_ab = (p_a - p_b)/(w_b - w_a), the logarithmic mean, written
    max(p_a, p_b) phi(|w_a - w_b|), phi(x) = -expm1(-x)/x, phi(0) = 1: that form is exact
    on degenerate pairs and cannot overflow.
    """
    gap = np.abs(w[:, None] - w[None, :])
    phi = np.ones_like(gap)
    np.divide(-np.expm1(-gap), gap, out=phi, where=gap > 0.0)
    kernel = np.maximum(p[:, None], p[None, :]) * phi

    def product(x: np.ndarray) -> np.ndarray:
        y = _in_basis(_unpack(x @ coords), v, kernel)
        return coords @ _dual(y) - achieved * (achieved @ x)

    return product


def dual_objective(multipliers, constraints: ConstraintSet):
    """Convex dual value log Z + lam . t and its exact gradient t_j - <A_j>.

    The gradient vanishes exactly at the maximum-entropy multipliers.  log Z
    is evaluated after a shift; only a value that is not finite raises Overflow.
    """
    return _evaluated(multipliers, constraints._coords, constraints.targets)[:2]


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
    (shrink 0.5, slope 1e-4) from lam = 0, where the Newton step is known in
    closed form; later steps are solved by conjugate gradients on the exact
    Hessian, preconditioned with its inverse at 0 and stopped once the linearized
    constraint violation is at most ``tol / 10``.  A trial step is accepted when
    it meets the Armijo rule or when its largest constraint violation is
    already at most ``tol``, which is convergence.  Targets on or outside the
    boundary of the achievable set are reported as Infeasible, either up front
    (target on the spectral boundary) or by a separating hyperplane: lam . t
    below w_min(sum_k lam_k A_k) (beyond rounding), a lower bound on
    tr(rho sum_k lam_k A_k) for every state, proves that none meets the targets.
    """
    _check_controls(tol, max_iter)
    if constraints._boundary is not None:
        raise Infeasible(constraints._boundary)
    coords, targets, n = constraints._coords, constraints.targets, constraints.dim
    # lam = 0 in closed form: state I/n, log Z = log n, <A_k> = tr A_k / n, Hessian precond^-1
    lam, precond, iterations = np.zeros(constraints.m), constraints._precond, 0
    value = log_z = float(np.log(n))
    gradient = targets - _split(coords)[0].sum(axis=1) / n
    state, eig = (np.eye(n) / n).astype(complex), (np.zeros(n), None, np.full(n, 1.0 / n))
    residual = float(abs(gradient).max(initial=0.0))
    while not residual <= tol:
        if iterations >= max_iter:
            raise MaxIterExceeded(
                f"no convergence after {max_iter} iterations (residual {residual:.3e})"
            )
        gap = float(eig[0][0]) - float(lam @ targets)  # w_min - lam . t
        if gap > 1e-12 * max(1.0, float(abs(eig[0]).max())):
            raise Infeasible(
                f"lam . t is {gap:.3e} below the smallest eigenvalue of sum_k lam_k A_k, a bound "
                "on tr(rho sum_k lam_k A_k) for every state; the targets are jointly unreachable"
            )
        if iterations:
            hessian = _kubo_mori_product(coords, targets - gradient, *eig)
            direction = _newton_direction(hessian, gradient, precond, tol)
        else:
            direction = -(precond @ gradient)
        slope = float(gradient @ direction)
        # small cushion absorbs ties at the resolution of the dual value
        cushion = 1e-14 * max(1.0, abs(value))
        t = 1.0
        while True:
            trial = lam + t * direction
            point = _dual_point(trial, coords, targets)  # value, gradient, state, log Z, eig
            # near the optimum the value's rounding can exceed the cushion; tol then suffices
            if point[0] <= value + ARMIJO_SLOPE * t * slope + cushion or abs(point[1]).max() <= tol:
                break
            t *= ARMIJO_SHRINK
            if t < 1e-20:
                raise MaxIterExceeded(
                    "line search stalled before reaching the requested tolerance"
                )
        lam, (value, gradient, state, log_z, eig) = trial, point
        iterations += 1
        residual = float(abs(gradient).max(initial=0.0))

    achieved, entries = targets - gradient, hermitian_part(state)
    lam.setflags(write=False)
    achieved.setflags(write=False)
    return MaxEntSolution(
        multipliers=lam,
        lambda0=log_z,
        # positive by construction: V diag(p) V^dag is within O(n eps) of its spectrum p >= 0
        estimate=_measured_density(entries, float(np.trace(entries).real), float(eig[2].min())),
        achieved=achieved,
        s_max=_entropy_of_spectrum(eig[2]),
        iterations=iterations,
        residual=residual,
    )


def entropy_sensitivity(
    constraints: ConstraintSet, *, tol: float = 1e-10, max_iter: int = 500
) -> np.ndarray:
    """Central finite differences, step ``SENSITIVITY_STEP``, of the maximal entropy in each target.

    At the optimum the partial derivative of the achieved maximal entropy
    with respect to target j equals the solved multiplier lam_j, so this is
    a solver consistency check.  Solver errors at the perturbed targets
    propagate unchanged.
    """
    _check_controls(tol, max_iter)
    out = np.zeros(constraints.m)
    for j in range(constraints.m):
        values = []
        for sign in (1.0, -1.0):
            shifted = constraints.targets.copy()
            shifted[j] += sign * SENSITIVITY_STEP
            shifted_set = ConstraintSet(constraints.observables, shifted, dim=constraints.dim)
            values.append(solve_maxent(shifted_set, tol=tol, max_iter=max_iter).s_max)
        out[j] = (values[0] - values[1]) / (2.0 * SENSITIVITY_STEP)
    return out


def _tilted_mean_var(mu: float, d: np.ndarray, ua: np.ndarray) -> tuple[float, float, float]:
    """Mean and variance of u, and the mean of a, under weights d_i exp(-mu u_i); ``ua`` holds
    the rows u and a."""
    u = ua[0]
    x = -mu * u
    q = d * np.exp(x - x.max())
    q /= q.sum()
    mean, caller = (ua @ q).tolist()
    return mean, float(q @ (u - mean) ** 2), caller


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
    prior weight.  The iteration runs on u = (a - target)/(max a - min a) over
    the support and mu = lam (max a - min a), so no rule depends on A's scale,
    while ``tol`` is met by the mean of A in the caller's units.
    """
    _check_controls(tol, max_iter)
    support = _tilt_support(prior, observable, target, tol, "prior")
    if support is None:
        return 0.0, prior
    w, v, a_s, d_s = support
    # a_s descends, as eig_hermitian's eigenvalues do; halved first so that no difference overflows
    spread = float(a_s[0]) / 2 - float(a_s[-1]) / 2
    ua = np.array((a_s / 2 - target / 2, a_s))
    ua[0] /= spread  # u = (a - target)/(max a - min a): the tilt by mu u is the tilt by lam a

    def met(mean: float) -> bool:
        return abs(mean / 2 - target / 2) <= tol / 2

    mean0, var0, mean = _tilted_mean_var(0.0, d_s, ua)
    if met(mean):
        return 0.0, prior

    # the mean is strictly decreasing in mu and saturates at an end of the support,
    # which lies strictly past the target: double away from 0 toward the target,
    # from the Newton step at 0
    sign = 1.0 if mean0 > 0.0 else -1.0
    inner, outer = 0.0, (mean0 / var0 if mean0 and var0 > 0.0 else sign)
    while sign * _tilted_mean_var(outer, d_s, ua)[0] > 0.0:
        inner, outer = outer, 2.0 * outer
        if not np.isfinite(outer / spread):  # lam = mu / (2 spread) too
            raise Infeasible(f"target {target!r} numerically at the boundary")
    xlo, xhi = sorted((inner, outer))

    x = 0.5 * (xlo + xhi)
    for _ in range(max_iter):
        fx, var, mean = _tilted_mean_var(x, d_s, ua)
        if met(mean):
            lam = x / 2 / spread
            return lam, _tilt(prior, w, v, lam)
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

    Solves the scalar analogue of the operator problem by a damped Newton iteration on
    the classical dual (the Hessian is the covariance of the value vectors, available in
    closed form) in values (v - t)/(max v - min v) over the support, so no rule depends on
    their scale, while convergence is judged on sum_i p_i v_ki - t_k in the caller's units (a
    target below the values' resolution raises MaxIterExceeded).  Each step solves
    (H + nu I) d = -g with nu = 1e-14 tr H + ||g|| / (1 + max|mu|) (Levenberg-Marquardt), so
    ||d|| <= 1 + max|mu| for the scaled multipliers mu: the large mu that tiny weights need
    are reached geometrically, and where H underflows to 0 the step is steepest descent's,
    of that length.
    The separating hyperplane lam . t < min_i lam . v_i over the support proves targets
    jointly unreachable.  Deliberately shares no code with the operator path so it can serve as
    an independent cross-check on commuting instances.
    """
    _check_controls(tol, max_iter)
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
    lo, hi = vs.min(axis=1), vs.max(axis=1)
    for k in range(m):
        if not (lo[k] < t[k] < hi[k]):
            raise Infeasible(
                f"target {float(t[k])!r} outside the open achievable interval "
                f"({float(lo[k])!r}, {float(hi[k])!r})"
            )
    spread = hi / 2 - lo / 2  # halved first so that no difference overflows
    us = (vs / 2 - t[:, None] / 2) / spread[:, None]  # t_k - <v_k> = -2 spread_k <u_k>
    log_ws = np.log(ws)

    def point(mu):
        u = log_ws - mu @ us
        q = np.exp(u - u.max())
        z = q.sum()
        p = q / z
        mean = us @ p
        centered = us - mean[:, None]
        hess = (centered * p) @ centered.T
        return float(u.max() + np.log(z)), -mean, hess, p

    mu = np.zeros(m)  # mu_k = lam_k (hi_k - lo_k), lam the caller's multipliers
    value, gradient, hess, p = point(mu)
    for _ in range(max_iter):
        if abs(vs @ p / 2 - t / 2).max() <= tol / 2:  # sum_i p_i v_ki within tol of t_k
            out = np.zeros(w.size)
            out[support] = p
            return out
        levels = mu @ us  # lam . v_i - lam . t
        if (gap := float(levels.min())) > 1e-12 * float(abs(levels).max()):
            raise Infeasible(
                f"lam . t is {gap:.3e} below min_i lam . v_i, a bound on sum_i p_i lam . v_i "
                "for every distribution; the targets are jointly unreachable"
            )
        nu = 1e-14 * float(np.trace(hess)) + float(np.linalg.norm(gradient) / (1.0 + abs(mu).max()))
        direction = np.linalg.solve(hess + nu * np.eye(m), -gradient)
        slope = float(gradient @ direction)
        cushion = 1e-14 * max(1.0, abs(value))
        step = 1.0
        while True:
            trial = mu + step * direction
            trial_value, trial_gradient, trial_hess, trial_p = point(trial)
            if trial_value <= value + ARMIJO_SLOPE * step * slope + cushion:
                break
            step *= ARMIJO_SHRINK
            if step < 1e-20:
                raise MaxIterExceeded("line search stalled")
        mu, value, gradient, hess, p = trial, trial_value, trial_gradient, trial_hess, trial_p
    raise MaxIterExceeded(f"no convergence after {max_iter} Newton iterations")
