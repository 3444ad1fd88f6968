from __future__ import annotations

import warnings

import numpy as np
import pytest

import qmaxent.flow
import qmaxent.operators
from qmaxent import (
    Infeasible,
    InputValidationError,
    MaxIterExceeded,
    Overflow,
    PositivityLoss,
    StepInvalid,
    closed_form_flow,
    expectation,
    flow_field,
    flow_to_constraint,
    hermitian_part,
    integrate_flow,
    make_density,
    make_hermitian,
    metric_vectors,
    solve_prior_tilt,
    trace_distance,
    zero_mean_form,
)
from qmaxent.flow import FLOW_BLOCK, _diagonal_step, _factor, _smallest_eigenvalues
from qmaxent.operators import POSITIVITY_TOL, _measured_density, _pairing

from helpers import (
    SIGMA_X,
    SIGMA_Z,
    rand_density,
    rand_hermitian,
    rand_hermitian_radius,
    rk4_matrix_flow,
    step_count,
    zero_pairing_tangent,
)

SX = make_hermitian(SIGMA_X)
SZ = make_hermitian(SIGMA_Z)
UNIFORM = make_density(np.eye(2) / 2)


class TestFlowField:
    def test_identity_observable_is_stationary(self, rng):
        rho = rand_density(rng, 3)
        field = flow_field(rho, make_hermitian(np.eye(3)))
        assert np.abs(field.entries).max() <= 1e-15

    def test_uniform_base(self):
        field = flow_field(UNIFORM, SZ)
        assert np.allclose(field.entries, -SIGMA_Z / 2)

    def test_diagonal_base(self):
        # centered observable diag(0.4, -1.6); symmetrized product with the
        # state gives diag(0.32, -0.32), negated by the field
        field = flow_field(make_density(np.diag([0.8, 0.2])), SZ)
        assert np.allclose(field.entries, np.diag([-0.32, 0.32]), atol=1e-15)

    def test_traceless_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            field = flow_field(rand_density(rng, n), rand_hermitian(rng, n))
            assert abs(np.trace(field.entries)) <= 1e-12

    @pytest.mark.parametrize("scale", [1e5, 1e7, 1e10])
    def test_large_observables(self, rng, scale):
        # the field and a short trajectory at lam * scale = 1e-3 stay well defined;
        # the rounding in their products grows with the observable's scale
        for _ in range(20):
            n = int(rng.integers(4, 9))
            rho, a = rand_density(rng, n, 0.1 / n), rand_hermitian(rng, n)
            big = make_hermitian(scale * a.entries)
            field = flow_field(rho, big).entries
            error = np.linalg.norm(field - scale * flow_field(rho, a).entries)
            assert error <= 1e-12 * np.linalg.norm(field)
            traj = integrate_flow(rho, big, 1e-3 / scale, 1e-5 / scale)
            exact = closed_form_flow(rho, big, 1e-3 / scale)
            assert trace_distance(traj.samples[-1].state, exact) <= 1e-12
            assert traj.samples[-1].mean == pytest.approx(expectation(exact, big), rel=1e-12)


class TestIntegrateFlow:
    def test_identity_observable_constant_trajectory(self, rng):
        rho = rand_density(rng, 3)
        traj = integrate_flow(rho, make_hermitian(np.eye(3)), 1.0, 1e-2)
        assert trace_distance(traj.samples[-1].state, rho) <= 1e-12

    def test_uniform_to_tilted(self):
        traj = integrate_flow(UNIFORM, SZ, 1.0)
        final = traj.samples[-1].state
        expected = np.diag([np.exp(-1.0), np.exp(1.0)]) / (2.0 * np.cosh(1.0))
        assert np.abs(final.entries - expected).max() <= 1e-9
        assert traj.samples[-1].mean == pytest.approx(-np.tanh(1.0), abs=1e-9)

    def test_zero_length_single_sample(self):
        traj = integrate_flow(UNIFORM, SZ, 0.0)
        assert len(traj.samples) == 1
        assert traj.samples[0].state is UNIFORM

    @pytest.mark.parametrize(
        "lambda_end", [1e-13, -1e-300, 0.0020000000000005, -0.0020000000000005, -0.0019999999999995]
    )
    def test_last_step_lands_on_lambda_end(self, rng, lambda_end):
        # a length far below the step still takes one; a ratio within 1e-9 above an integer
        # rounds down, and its last step is the longer one
        rho0 = rand_density(rng, 3, min_eig=0.1)
        a = rand_hermitian(rng, 3)
        traj = integrate_flow(rho0, a, lambda_end)
        assert traj.samples[-1].lam == lambda_end
        assert len(traj.samples) == step_count(lambda_end, 1e-3) + 1
        assert len(traj.samples) == (2 if abs(lambda_end) < 1e-3 else 3)
        exact = closed_form_flow(rho0, a, lambda_end)
        assert trace_distance(traj.samples[-1].state, exact) <= 1e-12
        assert_same_as_per_step(rho0, a, lambda_end, 1e-3)

    def test_negative_direction(self):
        traj = integrate_flow(UNIFORM, SZ, -1.0)
        expected = np.diag([np.exp(1.0), np.exp(-1.0)]) / (2.0 * np.cosh(1.0))
        assert np.abs(traj.samples[-1].state.entries - expected).max() <= 1e-9
        lams = [s.lam for s in traj.samples]
        assert np.all(np.diff(lams) < 0.0)

    def test_step_validation(self):
        with pytest.raises(StepInvalid):
            integrate_flow(UNIFORM, SZ, 1.0, step=0.0)
        with pytest.raises(StepInvalid):
            integrate_flow(UNIFORM, SZ, 1.0, step=-1e-3)

    @pytest.mark.parametrize("lambda_end", [np.nan, np.inf])
    def test_lambda_end_must_be_finite(self, lambda_end):
        with pytest.raises(StepInvalid, match="lambda_end must be finite"):
            integrate_flow(UNIFORM, SZ, lambda_end)

    def test_step_count_must_be_finite(self):
        # 1.0 / 5e-324 overflows to an infinite step count
        with pytest.raises(StepInvalid, match=r"step 5e-324 .* lambda_end 1\.0"):
            integrate_flow(UNIFORM, SZ, 1.0, 5e-324)
        with pytest.raises(StepInvalid, match=r"step 1e-310 .* lambda_end -1e\+300"):
            integrate_flow(UNIFORM, SZ, -1e300, 1e-310)

    def test_step_count_is_bounded(self):
        # one step more than the documented 10^6 is refused before any is taken
        with pytest.raises(StepInvalid, match=r"needs > 1000000 steps to lambda_end 1\.0"):
            integrate_flow(UNIFORM, SZ, 1.0, 1.0 / (10**6 + 1))

    @pytest.mark.parametrize("scale", [1e150, 1e300])
    def test_non_finite_iterate_is_positivity_loss(self, scale):
        # a step of 0.5 along scale * sigma_z overflows within its stages
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PositivityLoss, match="lambda 0.5 is not finite"):
                integrate_flow(UNIFORM, make_hermitian(scale * SIGMA_Z), 1.0, 0.5)

    def test_coarse_step_positivity_loss(self):
        nearly_pure = make_density(np.diag([0.9999999, 1e-7]))
        strong = make_hermitian(10.0 * SIGMA_Z)
        with pytest.raises(PositivityLoss):
            integrate_flow(nearly_pure, strong, 4.0, step=1.0)

    def test_invalid_recorded_state_is_positivity_loss(self):
        # the iterate at 0.1 has an eigenvalue near -3.8e-9, below DensityOperator's -1e-10;
        # the density rule refuses it whether it is recorded (every step to 1.0) or not
        # (every third step to 200.1)
        psi = np.array([np.cos(0.286), np.sin(0.286)])
        start, half_z = make_density(np.outer(psi, psi)), make_hermitian(0.5 * SIGMA_Z)
        for lambda_end in (1.0, 200.1):
            with pytest.raises(PositivityLoss, match=r"lambda 0\.1 is .* \(NotPositive: "):
                integrate_flow(start, half_z, lambda_end, step=0.1)

    def test_one_certificate_per_block(self, eig_calls, monkeypatch):
        # one eigh of A sets up the eigenbasis; one batched Cholesky factorization certifies
        # the density rule's positivity check for each block's iterates, so this flow takes
        # no spectrum at all
        counted, factored = np.linalg.cholesky, []

        def cholesky(m):
            factored.append(int(np.prod(m.shape[:-2])))
            return counted(m)

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        eig_calls.clear()
        integrate_flow(UNIFORM, SZ, 1.0, 1e-3)
        assert eig_calls == {"eigh": 1}
        assert len(factored) == -(-1000 // FLOW_BLOCK) and sum(factored) == 1000

    @pytest.mark.parametrize("offset", [10.0, -10.0, 100.0, 1e3, 1e6])
    def test_invariant_to_identity_offsets(self, offset):
        # A + c I moves the same flow: the states within 1e-12 in trace distance, the means
        # by c; stepping with A as given let the trace's rounding grow like exp(<A> lam)
        base = integrate_flow(UNIFORM, SZ, 1.0, 1e-3).samples
        moved = integrate_flow(UNIFORM, make_hermitian(SIGMA_Z + offset * np.eye(2)), 1.0, 1e-3)
        assert len(moved.samples) == len(base)
        for got, want in zip(moved.samples, base):
            assert got.lam == want.lam
            assert trace_distance(got.state, want.state) <= 1e-12
            assert abs(got.mean - (want.mean + offset)) <= 1e-12 * (1.0 + abs(offset))

    def test_sample_budget(self):
        traj = integrate_flow(UNIFORM, SZ, 2.0, 1e-3)
        assert len(traj.samples) <= 1002
        assert traj.samples[-1].lam == pytest.approx(2.0)

    def test_matches_closed_form_random(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 9))
            a = rand_hermitian_radius(rng, n, 4.0)
            rho0 = rand_density(rng, n, min_eig=0.1 / n)
            traj = integrate_flow(rho0, a, 1.0, 1e-3)
            assert trace_distance(traj.samples[-1].state, closed_form_flow(rho0, a, 1.0)) <= 1e-6

    def test_fourth_order_convergence(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 9))
            a = rand_hermitian_radius(rng, n, 5.0)
            rho0 = rand_density(rng, n, min_eig=0.1 / n)
            exact = closed_form_flow(rho0, a, 1.0)
            # steps whose errors (~1e-12 at 2e-3) lie far above rounding, which would move the ratio
            e1 = trace_distance(integrate_flow(rho0, a, 1.0, 4e-3).samples[-1].state, exact)
            e2 = trace_distance(integrate_flow(rho0, a, 1.0, 2e-3).samples[-1].state, exact)
            assert 12.0 <= e1 / e2 <= 20.0

    def test_trace_conservation(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            rho = rand_density(rng, n)
            a = rand_hermitian(rng, n)
            assert abs(np.trace(flow_field(rho, a).entries)) <= 1e-12
        traj = integrate_flow(UNIFORM, SZ, 1.0, 1e-3)
        drift = abs(np.trace(traj.samples[-1].state.entries).real - 1.0)
        assert drift <= 1e-12

    def test_monotone_mean(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            a = rand_hermitian(rng, n)
            rho0 = rand_density(rng, n, min_eig=0.05)
            traj = integrate_flow(rho0, a, 1.0, 1e-2)
            means = [s.mean for s in traj.samples]
            assert np.all(np.diff(means) <= 0.0)
            assert np.all(np.diff(means) < 0.0)  # strict for generic observables


def assert_matches_matrix_form(rho, a, lambda_end, step):
    """Every recorded sample within 1e-12 in trace distance of the matrix-form RK4.

    Means are compared relative to the spectral radius of A, which bounds |tr(dX A)|
    per unit of trace norm.
    """
    samples = integrate_flow(rho, a, lambda_end, step).samples
    reference = rk4_matrix_flow(rho, a, lambda_end, step)
    assert [s.lam for s in samples] == [lam for lam, _, _ in reference]
    radius = max(1.0, float(np.abs(np.linalg.eigvalsh(a.entries)).max()))
    for sample, (_, y, mean) in zip(samples, reference):
        assert 0.5 * np.abs(np.linalg.eigvalsh(sample.state.entries - y)).sum() <= 1e-12
        assert abs(sample.mean - mean) <= 1e-12 * radius


class TestMatrixFormReference:
    # a Runge-Kutta method commutes with a fixed change of basis, so integrating in A's
    # eigenbasis reproduces the matrix-form iterates up to rounding

    @pytest.mark.parametrize("n", [1, *range(2, 9), 16, 32])
    def test_random_instances(self, rng, n):
        for lambda_end in (1.0, -1.0):
            a = rand_hermitian_radius(rng, n, 5.0)
            rho0 = rand_density(rng, n, min_eig=0.1 / n)
            assert_matches_matrix_form(rho0, a, lambda_end, 1e-2)

    def test_thinned_record(self, rng):
        # 2000 steps record every second one
        a, rho0 = rand_hermitian_radius(rng, 4, 5.0), rand_density(rng, 4, min_eig=0.025)
        assert_matches_matrix_form(rho0, a, -2.0, 1e-3)

    @pytest.mark.parametrize("scale", [1e5, 1e7, 1e10])
    def test_large_observables(self, rng, scale):
        for _ in range(5):
            n = int(rng.integers(4, 9))
            rho, a = rand_density(rng, n, 0.1 / n), rand_hermitian(rng, n)
            big = make_hermitian(scale * a.entries)
            assert_matches_matrix_form(rho, big, 1e-3 / scale, 1e-5 / scale)


def factor_steps(start, observable, lambda_end, step):
    """integrate_flow's RK4 one step at a time, in numpy: (lam, y, diagonal) per step.

    Each step multiplies y = V† rho V by the factor F at x = (a_i + a_j)/2 of A - c I, c the
    middle of A's spectrum, with the four stage means sum_i a_i (y_s)_ii, y_s = y g_s, summed
    in index order; ``diagonal`` is y's diagonal as Python floats.  The last step ends on
    lambda_end exactly.
    """
    length, sign = abs(lambda_end), (1.0 if lambda_end >= 0.0 else -1.0)
    n_steps = step_count(lambda_end, step)
    a, v = np.linalg.eigh(observable.entries)
    centred = a - (a[-1] / 2.0 + a[0] / 2.0)
    x = centred[:, None] / 2.0 + centred[None, :] / 2.0
    y = hermitian_part(v.conj().T @ start.entries @ v)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            lam = sign * (length if k == n_steps else min(k * step, length))
            h = lam - sign * min((k - 1) * step, length)
            weighted = centred * y.diagonal().real
            t1 = sum(weighted.tolist()) - x
            g2 = 1.0 + h / 2.0 * t1
            t2 = (sum((weighted * g2.diagonal()).tolist()) - x) * g2
            g3 = 1.0 + h / 2.0 * t2
            t3 = (sum((weighted * g3.diagonal()).tolist()) - x) * g3
            g4 = 1.0 + h * t3
            t4 = (sum((weighted * g4.diagonal()).tolist()) - x) * g4
            y = y * (1.0 + h / 6.0 * (t1 + 2.0 * (t2 + t3) + t4))
            yield lam, y, y.diagonal().real.tolist()


def per_step_flow(start, observable, lambda_end, step):
    """integrate_flow with each step checked on its own: (sample, failure) per step.

    The steps of ``factor_steps``, then the checks in their order: not finite, then the
    density rule on every step's trace, y's diagonal summed in index order, and smallest
    eigenvalue.  A recorded step's sample is (lam, mean, state); a failure is
    integrate_flow's message.  Stepping goes on past a failure, so a test can see the later
    ones too.
    """
    n_steps = step_count(lambda_end, step)
    every = max(1, int(np.ceil(n_steps / 1000)))
    a, v = np.linalg.eigh(observable.entries)
    steps = []
    for k, (lam, y, diagonal) in enumerate(factor_steps(start, observable, lambda_end, step), 1):
        sample = failure = None
        if not np.isfinite(y).all():
            failure = f"state at lambda {lam:.6g} is not finite; reduce the step"
        else:
            low = float(np.linalg.eigvalsh(y)[0])
            try:
                state = _measured_density(hermitian_part(v @ y @ v.conj().T), sum(diagonal), low)
            except InputValidationError as exc:
                failure = (
                    f"state at lambda {lam:.6g} is not a density operator "
                    f"({type(exc).__name__}: {exc}); reduce the step"
                )
            else:
                if k == n_steps or k % every == 0:
                    sample = (lam, sum((a * diagonal).tolist()), state)
        steps.append((sample, failure))
    return steps


def assert_same_as_per_step(start, observable, lambda_end, step):
    """integrate_flow gives the per-step reference's samples bit for bit, or its first failure."""
    steps = per_step_flow(start, observable, lambda_end, step)
    failures = [failure for _, failure in steps if failure]
    if failures:
        with pytest.raises(PositivityLoss) as info:
            integrate_flow(start, observable, lambda_end, step)
        assert str(info.value) == failures[0]
        return
    samples = integrate_flow(start, observable, lambda_end, step).samples
    expected = [sample for sample, _ in steps if sample]
    assert len(samples) == len(expected) + 1
    for got, (lam, mean, state) in zip(samples[1:], expected):
        assert (got.lam, got.mean) == (lam, mean)
        assert got.state.entries.tobytes() == state.entries.tobytes()


class TestBlocks:
    # the iterates of a block of steps are checked and recorded together; every output
    # bit and the first failing step's message are the per-step integrator's

    @pytest.mark.parametrize("n_steps", [1, FLOW_BLOCK - 1, FLOW_BLOCK, FLOW_BLOCK + 1])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_block_boundaries(self, rng, n, n_steps):
        for lambda_end in (1.0, -1.0):
            a = rand_hermitian_radius(rng, n, 4.0)
            rho0 = rand_density(rng, n, min_eig=0.1 / n)
            assert_same_as_per_step(rho0, a, lambda_end * n_steps / 128, 1 / 128)

    def test_thinned_record_over_many_blocks(self, rng):
        # 2500 steps record every third one, and the endpoint
        a, rho0 = rand_hermitian_radius(rng, 3, 4.0), rand_density(rng, 3, min_eig=0.03)
        assert len(integrate_flow(rho0, a, 2500 / 1024, 1 / 1024).samples) == 835
        assert_same_as_per_step(rho0, a, 2500 / 1024, 1 / 1024)

    def test_smaller_blocks_for_large_dimensions(self, rng):
        # at n = 40 a block holds 2^16 // 40^2 = 40 steps, so that its iterates fit 1 MiB
        a, rho0 = rand_hermitian_radius(rng, 40, 2.0), rand_density(rng, 40, min_eig=0.0025)
        assert_same_as_per_step(rho0, a, 41 / 512, 1 / 512)

    @pytest.mark.parametrize(
        "weights, values, step",
        [
            # an eigenvalue below -1e-10 at step 22, a trace off by more than 1e-10 at step 24,
            # a non-finite iterate at step 26
            ([0.5, 0.5], [1.0, -1.0], 2.08),
            # a trace off by more than 1e-10 at step 5, a non-finite iterate at step 10: the
            # trace's rounding grows while the mean sits at the top of the spectrum
            ([3e-12, 0.999999999997], [-0.6, -0.03], 10.89),
        ],
    )
    def test_first_failing_step_in_a_block(self, weights, values, step):
        start, a = make_density(np.diag(weights)), make_hermitian(np.diag(values))
        steps = per_step_flow(start, a, 128 * step, step)
        checks = {
            k: next(c for c in ("not finite", "NotPositive", "TraceNotOne") if c in failure)
            for k, (_, failure) in enumerate(steps)
            if failure
        }
        first = min(checks)
        assert 0 < first % FLOW_BLOCK < FLOW_BLOCK - 1  # inside a block
        assert any(
            k // FLOW_BLOCK == first // FLOW_BLOCK and check != checks[first]
            for k, check in checks.items()
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PositivityLoss) as info:
                integrate_flow(start, a, 128 * step, step)
        assert str(info.value) == steps[first][1]


class TestFactorStep:
    # a step multiplies y by a real symmetric factor whose stage means read y's diagonal,
    # which Python floats step on their own

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_float_diagonal_is_the_iterates_diagonal(self, rng, n):
        a = np.sort(rng.normal(size=n)) * 3.0
        x = a[:, None] / 2.0 + a[None, :] / 2.0
        y = hermitian_part(rand_density(rng, n).entries)
        d = y.diagonal().real.tolist()
        for h in rng.uniform(-0.2, 0.2, size=100):
            means, d = _diagonal_step(d, a.tolist(), x.diagonal().tolist(), float(h))
            y = y * _factor(x, float(h), *means)
            assert y.diagonal().real.tolist() == d and not y.diagonal().imag.any()
            assert (y == y.conj().T).all()

    def test_certificate_is_sound(self, rng, eig_calls):
        # blocks of iterates from near-pure starts and steps up to 0.2, some of them far
        # from positive: a block that Cholesky certifies has no eigenvalue below
        # -POSITIVITY_TOL, and every other block gets its spectrum from eigvalsh
        certified = refused = 0
        while certified + refused < 200:
            n = int(rng.choice([1, 2, 3, 4, 6, 8, 16]))
            a = rand_hermitian_radius(rng, n, float(rng.uniform(0.5, 5.0)))
            psi = rand_density(rng, n).entries[:, 0]
            mix = float(rng.choice([0.0, 1e-12, 1e-9, 1e-6, 1e-3]))
            pure = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
            start = make_density(hermitian_part((1.0 - mix) * pure + mix * np.eye(n) / n))
            step = float(rng.uniform(1e-3, 0.2))
            ys = []
            for _, y, _ in factor_steps(start, a, 4 * FLOW_BLOCK * step, step):
                if not np.isfinite(y).all():
                    break
                ys.append(y)
            for first in range(0, len(ys), FLOW_BLOCK):
                block = np.array(ys[first : first + FLOW_BLOCK])
                lowest = np.linalg.eigvalsh(block)[:, 0]
                eig_calls.clear()
                lows = _smallest_eigenvalues(block)
                if eig_calls["eigvalsh"]:
                    refused += 1
                    assert lows.tolist() == lowest.tolist()
                else:
                    certified += 1
                    assert lowest.min() >= -POSITIVITY_TOL
        assert certified >= 50 and refused >= 25

    def test_certificate_within_its_backward_error_bound(self, rng, eig_calls):
        # at trace 1e6 Cholesky's backward error could exceed the shift: eigvalsh decides
        states = np.array([rand_density(rng, 4).entries for _ in range(3)])
        eig_calls.clear()
        assert (_smallest_eigenvalues(states) == -POSITIVITY_TOL / 2.0).all()
        assert not eig_calls
        lows = _smallest_eigenvalues(1e6 * states)
        assert eig_calls == {"eigvalsh": 1}
        assert lows.tolist() == np.linalg.eigvalsh(1e6 * states)[:, 0].tolist()


class TestClosedForm:
    def test_zero_parameter_returns_start(self, rng):
        rho = rand_density(rng, 4)
        assert closed_form_flow(rho, rand_hermitian(rng, 4), 0.0) is rho

    def test_parameter_must_be_finite(self):
        with pytest.raises(InputValidationError, match="lam must be finite"):
            closed_form_flow(UNIFORM, SZ, np.inf)

    def test_scalar_evaluation(self):
        out = closed_form_flow(UNIFORM, SZ, 1.0)
        expected = np.diag([np.exp(-1.0), np.exp(1.0)]) / (2.0 * np.cosh(1.0))
        assert np.abs(out.entries - expected).max() <= 1e-15

    def test_non_commuting_hand_case(self):
        prior = make_density((np.eye(2) + 0.5 * SIGMA_X) / 2)
        out = closed_form_flow(prior, SZ, -np.log(2.0))
        expected = np.array([[0.8, 0.2], [0.2, 0.2]])
        assert np.abs(out.entries - expected).max() <= 1e-14

    def test_overflow_guard(self):
        # the shifted kernel returns every representable state, however large lam
        out = closed_form_flow(UNIFORM, SZ, 1e4)
        assert np.abs(out.entries - np.diag([0.0, 1.0])).max() <= 1e-15
        prior = make_density(np.diag([0.0, 0.5, 0.5]))
        a = make_hermitian(np.diag([0.0, 1.0, 1.0 + 1e-6]))
        lam, state = flow_to_constraint(prior, a, 1.0 + 1e-9, tol=1e-14)  # lam ~ 6.9e6
        assert trace_distance(closed_form_flow(prior, a, lam), state) <= 1e-15
        # only an exponent that is itself not finite overflows, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Overflow):
                closed_form_flow(UNIFORM, make_hermitian(np.diag([4.0, -4.0])), 1e308)

    def test_solves_the_flow_equation(self, rng):
        h = 1e-5
        for _ in range(50):
            n = int(rng.integers(2, 9))
            a = rand_hermitian_radius(rng, n, 4.0)
            rho0 = rand_density(rng, n, min_eig=0.05)
            lam = float(rng.uniform(-1.5, 1.5))
            fd = (
                closed_form_flow(rho0, a, lam + h).entries
                - closed_form_flow(rho0, a, lam - h).entries
            ) / (2.0 * h)
            field = flow_field(closed_form_flow(rho0, a, lam), a).entries
            assert np.linalg.norm(fd - field, "fro") <= 1e-6


class TestOrthogonalTransit:
    def test_field_orthogonal_to_level_surfaces(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            a = rand_hermitian(rng, n)
            rho0 = rand_density(rng, n, min_eig=0.05)
            traj = integrate_flow(rho0, a, 0.5, 1e-2)
            sample = traj.samples[int(rng.integers(0, len(traj.samples)))]
            centered = zero_mean_form(sample.state, a).entries
            tangent = zero_pairing_tangent(rng, n, centered)
            value = metric_vectors(sample.state, flow_field(sample.state, a), tangent)
            assert abs(value) <= 1e-10


class TestFlowToConstraint:
    def test_uniform_case(self):
        lam, state = flow_to_constraint(UNIFORM, SZ, 0.6)
        assert lam == pytest.approx(-np.log(2.0), abs=1e-10)
        assert np.allclose(np.diag(state.entries).real, [0.8, 0.2], atol=1e-10)

    def test_target_already_met(self, rng):
        rho = rand_density(rng, 3)
        a = rand_hermitian(rng, 3)
        lam, state = flow_to_constraint(rho, a, expectation(rho, a))
        assert lam == 0.0
        assert state is rho

    def test_non_commuting_hand_case(self):
        prior = make_density((np.eye(2) + 0.5 * SIGMA_X) / 2)
        lam, state = flow_to_constraint(prior, SZ, 0.6)
        assert lam == pytest.approx(-np.log(2.0), abs=1e-10)
        assert np.abs(state.entries - np.array([[0.8, 0.2], [0.2, 0.2]])).max() <= 1e-10

    def test_infeasible_target(self):
        with pytest.raises(Infeasible):
            flow_to_constraint(UNIFORM, SZ, 1.0)

    @pytest.mark.parametrize("route", [solve_prior_tilt, flow_to_constraint])
    @pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf])
    def test_target_must_be_finite(self, route, target):
        with pytest.raises(InputValidationError, match="target must be finite"):
            route(UNIFORM, SZ, target)

    def test_overflowing_bracket_is_infeasible(self, monkeypatch):
        # a tilt that overflows while the bracket doubles puts the target numerically at an
        # end of the achievable interval
        def overflowing(*args):
            raise Overflow("tilt factors not finite")

        monkeypatch.setattr(qmaxent.flow, "_tilt", overflowing)
        with pytest.raises(Infeasible, match=r"target 0\.6 numerically at the boundary") as caught:
            flow_to_constraint(UNIFORM, SZ, 0.6)
        assert isinstance(caught.value.__cause__, Overflow)

    def test_target_met_before_the_bracket_crosses(self):
        # one ulp below A's top eigenvalue: the doubling bracket's mean comes within tol of
        # the target without crossing it before the tilt overflows, so that end is returned
        a = make_hermitian(np.array([[-1.0, 1.0], [1.0, 0.1]]))
        target = float(np.nextafter(np.linalg.eigh(a.entries)[0][-1], -np.inf))
        lam_v, state_v = solve_prior_tilt(UNIFORM, a, target)
        lam_g, state_g = flow_to_constraint(UNIFORM, a, target)
        assert abs(expectation(state_v, a) - target) <= 1e-10
        assert abs(expectation(state_g, a) - target) <= 1e-10
        assert lam_v < 0.0 and lam_g < 0.0
        assert trace_distance(state_v, state_g) <= 1e-9

    @pytest.mark.parametrize(
        "route, role", [(solve_prior_tilt, "prior"), (flow_to_constraint, "state")]
    )
    def test_observable_constant_on_the_support(self, route, role):
        # A is 1 on the prior's support: the target 1 is met untilted, 0.5 never is
        prior = make_density(np.diag([0.5, 0.5, 0.0]))
        a = make_hermitian(np.diag([1.0, 1.0, -1.0]))
        lam, state = route(prior, a, 1.0)
        assert lam == 0.0
        assert state is prior
        with pytest.raises(Infeasible, match=rf"constant \(1\.0\) on the {role}'s support"):
            route(prior, a, 0.5)

    @pytest.mark.parametrize("route", [solve_prior_tilt, flow_to_constraint])
    def test_target_met_at_the_end_of_the_range(self, route):
        # the prior's mean is 2e-12 below A's top eigenvalue 1, which carries all but 1e-12
        # of its weight: the target 1 lies at the end of the range, yet is met untilted
        prior = make_density(np.diag([1.0 - 1e-12, 1e-12]))
        lam, state = route(prior, SZ, 1.0)
        assert lam == 0.0
        assert state is prior
        with pytest.raises(Infeasible, match="outside the open achievable interval"):
            route(prior, SZ, 1.0, tol=1e-12)

    def test_iteration_limit(self, rng):
        prior = rand_density(rng, 4, min_eig=0.05)
        a = rand_hermitian_radius(rng, 4, 1.0)
        target = expectation(closed_form_flow(prior, a, 1.3), a)
        with pytest.raises(MaxIterExceeded):
            flow_to_constraint(prior, a, target, tol=1e-13, max_iter=1)
        lam, _ = flow_to_constraint(prior, a, target, tol=1e-13)
        assert lam == pytest.approx(1.3, abs=1e-9)

    @pytest.mark.parametrize("route", [flow_to_constraint, solve_prior_tilt])
    def test_support_read_once(self, rng, monkeypatch, route):
        # the bracketing and root-finding steps tilt on the support _tilt_support found
        weights, calls = qmaxent.operators._weights, []
        monkeypatch.setattr(
            qmaxent.operators, "_weights", lambda *args: calls.append(args) or weights(*args)
        )
        for _ in range(5):
            prior = rand_density(rng, 5, min_eig=0.05)
            a = rand_hermitian_radius(rng, 5, 1.0)
            target = expectation(closed_form_flow(prior, a, float(rng.uniform(-2.0, 2.0))), a)
            calls.clear()
            route(prior, a, target, tol=1e-13)
            assert len(calls) == 1

    def test_offset_spectrum(self):
        # the kernel shifts the exponent, so only the spread of A counts against the guard
        a = make_hermitian(np.diag([1000.0, 1001.0]))
        lam_v, state_v = solve_prior_tilt(UNIFORM, a, 1000.1)
        lam_g, state_g = flow_to_constraint(UNIFORM, a, 1000.1)
        assert lam_v == pytest.approx(np.log(9.0), abs=1e-9)
        assert lam_g == pytest.approx(np.log(9.0), abs=1e-9)
        assert trace_distance(state_v, state_g) <= 1e-10
        assert expectation(closed_form_flow(UNIFORM, a, 2.2), a) < 1000.1

    @pytest.mark.parametrize("prior", [np.eye(3) / 3, np.diag([0.5, 0.5, 0.0])])
    def test_target_near_a_small_spectral_gap(self, prior):
        # lam ~ 5293: past any cap on lam times the spread of the whole spectrum
        prior, a = make_density(prior), make_hermitian(np.diag([0.0, 1e-3, 1.0]))
        lam_v, state_v = solve_prior_tilt(prior, a, 5e-6, tol=1e-14)
        lam_g, state_g = flow_to_constraint(prior, a, 5e-6, tol=1e-14)
        assert lam_v == pytest.approx(5293.3, rel=1e-4)
        assert lam_g == pytest.approx(lam_v, rel=1e-8)
        assert trace_distance(state_v, state_g) <= 1e-10

    def test_exponent_shifted_over_the_support(self):
        # shifted over the whole spectrum, the factor of eigenvalue 0, outside the
        # support, dominates and the support's factors underflow at lam ~ 7e6
        prior = make_density(np.diag([0.0, 0.5, 0.5]))
        a = make_hermitian(np.diag([0.0, 1.0, 1.0 + 1e-6]))
        lam_v, state_v = solve_prior_tilt(prior, a, 1.0 + 1e-9, tol=1e-14)
        lam_g, state_g = flow_to_constraint(prior, a, 1.0 + 1e-9, tol=1e-14)
        assert lam_v == pytest.approx(6.9e6, rel=1e-2)
        assert lam_g == pytest.approx(lam_v, rel=1e-6)
        assert trace_distance(state_v, state_g) <= 1e-9
        assert abs(expectation(state_g, a) - (1.0 + 1e-9)) <= 1e-14

    def test_subnormal_offsets_are_compared_by_sign(self):
        # offsets ~4e-306 have products that underflow to 0, which once counted as a
        # crossing and divided by fb - fa = 0; tol 1e-322 is out of reach for both routes
        prior = make_density(np.diag([0.5, 0.5, 0.0]))
        a = make_hermitian(np.diag([0.0, 1e-305, 1.0]))
        for route in (solve_prior_tilt, flow_to_constraint):
            with pytest.raises(MaxIterExceeded):
                route(prior, a, 9e-306, tol=1e-322)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("route", [solve_prior_tilt, flow_to_constraint])
    def test_routes_are_scale_free(self, route):
        prior = make_density((np.eye(2) + 0.5 * SIGMA_X) / 2)
        unit, _ = route(prior, SZ, 0.6, tol=1e-10)
        for s in (1e-15, 1e-7, 1.0, 1e3, 1e160, 1e300):
            a = make_hermitian(s * SIGMA_Z)
            lam, state = route(prior, a, s * 0.6, tol=1e-10 * s)
            assert abs(lam * s - unit) <= 1e-8
            assert abs(_pairing(state.entries, a.entries) - s * 0.6) <= 1e-10 * s

    def test_one_eigendecomposition_per_call(self, rng, eig_calls):
        prior = rand_density(rng, 4, min_eig=0.05)
        a = rand_hermitian_radius(rng, 4, 1.0)
        target = expectation(closed_form_flow(prior, a, -0.8), a)
        eig_calls.clear()
        flow_to_constraint(prior, a, target, tol=1e-13)
        assert eig_calls["eigh"] == 1

    def test_agrees_with_variational_tilt(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            a = rand_hermitian_radius(rng, n, 1.0)
            prior = rand_density(rng, n, min_eig=0.05)
            lam_true = float(rng.uniform(0.2, 2.0)) * (1 if rng.random() < 0.5 else -1)
            target = expectation(closed_form_flow(prior, a, lam_true), a)
            lam_v, state_v = solve_prior_tilt(prior, a, target, tol=1e-13)
            # plain regula falsi, which keeps one end fixed, needs ~30 steps here
            lam_g, state_g = flow_to_constraint(prior, a, target, tol=1e-13, max_iter=12)
            assert trace_distance(state_v, state_g) <= 1e-10
            assert abs(lam_v - lam_g) <= 1e-9
