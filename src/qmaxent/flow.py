"""The entropic flow driven by a single observable.

Moving a state so that the expectation of an observable A changes as fast
as possible means moving orthogonally to the level surfaces of the
recentered observable.  That path solves

    d rho / d lam = -R_rho(A - <A> 1),

whose solution through rho0 has the closed symmetric-exponential form

    rho(lam) = exp(-lam A / 2) rho0 exp(-lam A / 2) / tr(exp(-lam A) rho0).

This module provides the vector field, a fixed-step classical 4th-order
integrator in A's eigenbasis (the closed form is its exact oracle, so it
deliberately stays simple: no adaptivity, no trace renormalization), the closed
form itself, and bracketed root-finding (Illinois regula falsi) along the closed
form to hit a target expectation value.  In A's eigenbasis an RK4 step multiplies
every entry y_ij by a real factor F((a_i + a_j)/2) whose four stage means read the
diagonal alone, so the integrator steps the diagonal as Python floats, forms a
block of iterates with one factor product, and judges every iterate by the density
rule, its positivity certified for the block by one batched Cholesky factorization,
with a batched spectrum only where that fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import (
    Infeasible,
    InputValidationError,
    MaxIterExceeded,
    Overflow,
    PositivityLoss,
    StepInvalid,
)
from .operators import (
    POSITIVITY_TOL,
    SUPPORT_FLOOR,
    DensityOperator,
    HermitianOperator,
    _check_controls,
    _common_dim,
    _computed,
    _density_rule,
    _eigh,
    _eigvalsh,
    _reals,
    _tilt,
    _tilt_support,
    _weights,
    eig_hermitian,
    expectation,
    hermitian_part,
)
from .geometry import raise_form, zero_mean_form

__all__ = [
    "FlowSample",
    "FlowTrajectory",
    "flow_field",
    "integrate_flow",
    "closed_form_flow",
    "flow_to_constraint",
]

MAX_STORED_SAMPLES = 1000
MAX_STEPS = 10**6
# steps per block, whose iterates are checked and recorded together
FLOW_BLOCK = 64


@dataclass(frozen=True, eq=False)
class FlowSample:
    """One trajectory point: parameter value, state, and mean of the observable."""

    lam: float
    state: DensityOperator
    mean: float


@dataclass(frozen=True, eq=False)
class FlowTrajectory:
    """Ordered samples of ``integrate_flow``, at most ~1001, their lam strictly monotone."""

    observable: HermitianOperator
    samples: tuple[FlowSample, ...]
    step: float


def flow_field(state: DensityOperator, observable: HermitianOperator) -> HermitianOperator:
    """The flow's velocity -R_rho(A - <A> 1) at ``state``: the raised zero-mean form, traceless."""
    raised = raise_form(state, zero_mean_form(state, observable))
    return _computed(-raised.entries, HermitianOperator)


def _factor(x: np.ndarray, h, m1, m2, m3, m4) -> np.ndarray:
    """The RK4 factor F(x) at x = (a_i + a_j)/2 of steps h with stage means m1..m4.

    Stage s is k_s = (m_s - x) y_s with y_1 = y, y_2 = y + (h/2) k_1, ..., so k_s = t_s y
    with t_1 = m_1 - x, t_2 = (m_2 - x)(1 + (h/2) t_1), t_3 = (m_3 - x)(1 + (h/2) t_2),
    t_4 = (m_4 - x)(1 + h t_3), and the step multiplies y by 1 + (h/6)(t_1 + 2(t_2 + t_3) + t_4).
    """
    t1 = m1 - x
    t2 = (m2 - x) * (1.0 + h / 2.0 * t1)
    t3 = (m3 - x) * (1.0 + h / 2.0 * t2)
    t4 = (m4 - x) * (1.0 + h * t3)
    return 1.0 + h / 6.0 * (t1 + 2.0 * (t2 + t3) + t4)


def _diagonal_step(d: list, spectrum: list, midpoints: list, h: float) -> tuple[tuple, list]:
    """One RK4 step of y's diagonal d, as Python floats: the stage means, m_1 = sum_i a_i d_i
    and m_s = sum_i a_i d_i (1 + c_s t_(s-1)(x_i)) with c_s = h/2, h/2, h, then the next
    diagonal d_i F(x_i) at the ``midpoints`` x_i = (a_i + a_i)/2, in ``_factor``'s expression
    tree, so that it is the stepped y's diagonal bit for bit."""
    half, sixth = h / 2.0, h / 6.0
    weighted = list(map(mul, spectrum, d))
    m1 = sum(weighted)
    g2 = [1.0 + half * (m1 - x) for x in midpoints]
    m2 = sum(map(mul, weighted, g2))
    g3 = [1.0 + half * ((m2 - x) * g) for x, g in zip(midpoints, g2)]
    m3 = sum(map(mul, weighted, g3))
    g4 = [1.0 + h * ((m3 - x) * g) for x, g in zip(midpoints, g3)]
    m4 = sum(map(mul, weighted, g4))
    step = [
        e * (1.0 + sixth * ((m1 - x) + 2.0 * ((m2 - x) * p + (m3 - x) * q) + (m4 - x) * r))
        for e, x, p, q, r in zip(d, midpoints, g2, g3, g4)
    ]
    return (m1, m2, m3, m4), step


def _smallest_eigenvalues(ys: np.ndarray) -> np.ndarray:
    """Each iterate's smallest eigenvalue, or -POSITIVITY_TOL/2 for all of them when one
    batched Cholesky factorization certifies the block.

    Cholesky of M = y + (POSITIVITY_TOL/2) I runs to completion only if M + E is positive
    definite for some ||E||_2 within about n^2 eps tr(M) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm 10.3).  Where that is at most an eighth of the shift,
    no y has an eigenvalue below -(9/8) POSITIVITY_TOL/2, so -POSITIVITY_TOL/2 passes the
    density rule's positivity check wherever the spectrum would.  Otherwise, or when the
    factorization fails, eigvalsh.
    """
    n, shift = ys.shape[-1], POSITIVITY_TOL / 2.0
    traces = ys.trace(axis1=1, axis2=2).real + n * shift
    if len(ys) and n * n * np.finfo(float).eps * float(traces.max()) <= shift / 8.0:
        try:
            np.linalg.cholesky(ys + shift * np.eye(n))
            return np.full(len(ys), -shift)
        except np.linalg.LinAlgError:
            pass
    return _eigvalsh(ys)[:, 0]


def integrate_flow(
    start: DensityOperator,
    observable: HermitianOperator,
    lambda_end: float,
    step: float = 1e-3,
) -> FlowTrajectory:
    """Integrate the flow from ``start`` over [0, lambda_end] with fixed steps.

    Classical 4th-order Runge-Kutta on y = V† rho V, A = V diag(a) V† diagonalized once:
    the matrix-form scheme up to rounding, as Runge-Kutta commutes with a fixed change of
    basis.  Each stage is elementwise, (sum_k a_k y_kk - (a_i + a_j)/2) y_ij, so a step
    multiplies y by a real symmetric factor (``_factor``) and y stays exactly Hermitian.
    Its four stage means read only the diagonal, which Python floats step ahead.  The
    spectrum is centred, a - (a_max + a_min)/2: the same scheme while every stage keeps
    trace one, but the trace's rounding no longer grows like exp(<A> lam), so the iterates
    do not depend on an offset c I added to A.  A negative ``lambda_end`` integrates in the
    opposite direction; the trace is never renormalized, so its drift measures integrator
    error.  The last of ceil(|lambda_end| / step) steps, at least one for a nonzero
    lambda_end, lands on it exactly; more than ``MAX_STEPS`` (10^6) raise StepInvalid.

    The iterates of each block of ``FLOW_BLOCK`` (64) steps, fewer for n > 32, are formed
    by one running product of the block's factors, and checked and recorded together: one
    finiteness test, one batched Cholesky factorization of the finite ones shifted by
    POSITIVITY_TOL/2 (``_smallest_eigenvalues``), else one batched spectrum, and one
    V y V† for the recorded ones.  Each iterate is judged in step order: not finite, then
    the density rule on its trace sum_i y_ii and smallest eigenvalue.  A step too coarse
    raises PositivityLoss at the first failing step, naming the invariant it fails, so the
    verdict does not depend on which steps are recorded.  About every
    ceil(n_steps/1000)-th step is recorded, plus the endpoint, with mean sum_i a_i y_ii.
    """
    _common_dim(start, observable, states=1)
    step = float(_reals(step, "step", StepInvalid, ()))
    if not step > 0.0:
        raise StepInvalid(f"step must be positive, got {step!r}")
    lambda_end = float(_reals(lambda_end, "lambda_end", StepInvalid, ()))

    length = abs(lambda_end)
    sign = 1.0 if lambda_end >= 0.0 else -1.0
    ratio = length / step
    if not ratio <= MAX_STEPS:  # an infinite ratio too
        raise StepInvalid(f"step {step!r} needs > {MAX_STEPS} steps to lambda_end {lambda_end!r}")
    n_steps = int(round(ratio)) if abs(ratio - round(ratio)) < 1e-9 else int(np.ceil(ratio))
    n_steps = max(n_steps, int(length > 0.0))  # a nonzero lambda_end takes a step
    record_every = max(1, int(np.ceil(n_steps / MAX_STORED_SAMPLES)))

    a, v = _eigh(observable.entries)
    vh = v.conj().T
    # A - c I with c the middle of A's spectrum: the same flow, but the stage means, and so
    # the growth of the trace's rounding, stay within half the spectrum's spread
    centred = a - (a[-1] / 2.0 + a[0] / 2.0)
    pair = centred[:, None] / 2.0 + centred[None, :] / 2.0
    values, spectrum, midpoints = a.tolist(), centred.tolist(), pair.diagonal().tolist()

    n = len(a)  # a block of iterates holds at most 2^16 complex entries, 1 MiB
    size = max(1, min(FLOW_BLOCK, 2**16 // (n * n), n_steps))
    chain = np.empty((size + 1, n, n), np.complex128)  # an iterate, then each step's factor
    chain[0] = hermitian_part(vh @ start.entries @ v)
    d = chain[0].diagonal().real.tolist()
    samples = [FlowSample(0.0, start, expectation(start, observable))]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused as not finite
        for first in range(1, n_steps + 1, size):
            lams, stages, diagonals = [], [], []
            for k in range(first, min(first + size, n_steps + 1)):
                lam = sign * (length if k == n_steps else min(k * step, length))
                h = lam - sign * min((k - 1) * step, length)
                means, d = _diagonal_step(d, spectrum, midpoints, h)
                stages.append((h, *means))
                diagonals.append(d)
                lams.append(lam)
            count = len(lams)
            chain[1 : count + 1] = _factor(pair, *np.array(stages).T[..., None, None])
            ys = np.multiply.accumulate(chain[: count + 1], out=chain[: count + 1])[1:]
            # the first failing step, in step order: not finite, then the density rule
            finite = np.isfinite(ys).all(axis=(1, 2))
            lows = _smallest_eigenvalues(ys[: count if finite.all() else int(np.argmin(finite))])
            for i, lam in enumerate(lams):
                if i == len(lows):
                    raise PositivityLoss(
                        f"state at lambda {lam:.6g} is not finite; reduce the step"
                    )
                try:
                    _density_rule(sum(diagonals[i]), lambda: float(lows[i]))
                except InputValidationError as exc:
                    raise PositivityLoss(
                        f"state at lambda {lam:.6g} is not a density operator "
                        f"({type(exc).__name__}: {exc}); reduce the step"
                    ) from exc
            recorded = [
                i for i in range(count) if first + i == n_steps or (first + i) % record_every == 0
            ]
            states = hermitian_part(v @ ys[recorded] @ vh)
            for i, entries in zip(recorded, states):
                mean = sum(map(mul, values, diagonals[i]))
                state = _computed(entries, DensityOperator)
                samples.append(FlowSample(float(lams[i]), state, mean))
            chain[0] = ys[-1]
    return FlowTrajectory(observable=observable, samples=tuple(samples), step=step)


def closed_form_flow(
    start: DensityOperator, observable: HermitianOperator, lam: float
) -> DensityOperator:
    """The exact flow state exp(-lam A/2) rho0 exp(-lam A/2), normalized.

    lam = 0 returns ``start`` unchanged.  The kernel shifts the exponent over
    the support of rho0, so only a state that is not representable raises Overflow.
    """
    _common_dim(start, observable, states=1)
    lam = float(_reals(lam, "lam", shape=()))
    if lam == 0.0:
        return start
    w, v = eig_hermitian(observable)
    return _tilt(start, w, v, _weights(start, v) > SUPPORT_FLOOR, lam)


def flow_to_constraint(
    start: DensityOperator,
    observable: HermitianOperator,
    target: float,
    *,
    tol: float = 1e-10,
    max_iter: int = 500,
) -> tuple[float, DensityOperator]:
    """Follow the closed-form flow until <A> reaches ``target``.

    Returns (lam, state) with |tr(state A) - target| <= tol; a start that meets the target
    already is returned itself at lam 0.  The mean is strictly decreasing along the flow, so
    the crossing parameter is bracketed by doubling, whose end is returned once its mean is
    within ``tol``, and then isolated by the Illinois variant of regula falsi (Dowell &
    Jarratt, BIT 11 (1971) 168) on the matrix-valued closed form; A is diagonalized once.
    ``max_iter`` bounds the root-finding steps after bracketing.  This is an
    independent route to the same state as the variational single-constraint tilt.
    """
    _check_controls(tol, max_iter)
    setup = _tilt_support(start, observable, target, tol, "state")
    if setup is None:
        return 0.0, start
    w, v, support = setup[:3]
    f0 = expectation(start, observable) - target

    def offset(lam: float) -> tuple[float, DensityOperator]:
        state = _tilt(start, w, v, support, lam)
        return expectation(state, observable) - target, state

    # the mean saturates at an end of the support, strictly past the target: double away
    # from 0 on the side where the mean moves toward it, up to overflow or a mean within tol
    # (which need not cross); compare signs, as products of subnormal offsets underflow to 0
    a, fa, b = 0.0, f0, 1.0 if f0 > 0.0 else -1.0
    while True:
        try:
            fb, state = offset(b)
        except Overflow as exc:
            raise Infeasible(f"target {target!r} numerically at the boundary") from exc
        if np.sign(fb) * np.sign(f0) <= 0.0 or abs(fb) <= tol:
            break
        a, fa, b = b, fb, 2.0 * b

    # regula falsi between a and b that halves the value kept at a whenever
    # the new point lands on b's side again, so neither end stalls
    for _ in range(max_iter):
        if abs(fb) <= tol:
            break
        c = b - fb * (b - a) / (fb - fa)
        fc, state = offset(c)
        if np.sign(fc) * np.sign(fb) < 0.0:
            a, fa = b, fb
        else:
            fa *= 0.5
        b, fb = c, fc
    if abs(fb) > tol:
        raise MaxIterExceeded(
            f"root finding did not reach tolerance {tol!r} in {max_iter} iterations"
        )
    return float(b), state
