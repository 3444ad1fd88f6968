from __future__ import annotations

import warnings

import numpy as np
import pytest

from qmaxent import (
    Infeasible,
    InputValidationError,
    MaxIterExceeded,
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
from qmaxent.flow import FLOW_BLOCK
from qmaxent.operators import _measured_density, _pairing

from helpers import (
    SIGMA_X,
    SIGMA_Z,
    rand_density,
    rand_hermitian,
    rand_hermitian_radius,
    rk4_matrix_flow,
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
        # every step passes the -1e-8 check, but the state recorded at 0.1
        # has an eigenvalue near -4e-9, below DensityOperator's -1e-10
        psi = np.array([np.cos(0.286), np.sin(0.286)])
        half_z = make_hermitian(0.5 * SIGMA_Z)
        with pytest.raises(PositivityLoss, match="NotPositive"):
            integrate_flow(make_density(np.outer(psi, psi)), half_z, 1.0, step=0.1)

    def test_one_spectrum_per_step(self, eig_calls, monkeypatch):
        # one eigh of A sets up the eigenbasis; each step's one spectrum serves both the
        # step's positivity check and a recorded state's validation, and one batched
        # eigvalsh takes the spectra of a block of steps
        counted, spectra = np.linalg.eigvalsh, []

        def eigvalsh(m):
            spectra.append(int(np.prod(m.shape[:-2])))
            return counted(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        eig_calls.clear()
        integrate_flow(UNIFORM, SZ, 1.0, 1e-3)
        assert eig_calls == {"eigh": 1, "eigvalsh": -(-1000 // FLOW_BLOCK)}
        assert sum(spectra) == 1000

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
            e1 = trace_distance(integrate_flow(rho0, a, 1.0, 1e-3).samples[-1].state, exact)
            e2 = trace_distance(integrate_flow(rho0, a, 1.0, 5e-4).samples[-1].state, exact)
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

    @pytest.mark.parametrize("n", range(2, 9))
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


def per_step_flow(start, observable, lambda_end, step):
    """integrate_flow's RK4 with each step checked on its own: (sample, failure) per step.

    The same operations on y = V† rho V, then the checks in their order: not finite, an
    eigenvalue below -1e-8, and at a recorded step the density rule.  A sample is
    (lam, mean, state); a failure is integrate_flow's message.  Stepping goes on past a
    failure, so a test can see the later ones too.
    """
    length, sign = abs(lambda_end), (1.0 if lambda_end >= 0.0 else -1.0)
    ratio = length / step
    n_steps = int(round(ratio)) if abs(ratio - round(ratio)) < 1e-9 else int(np.ceil(ratio))
    every = max(1, int(np.ceil(n_steps / 1000)))
    a, v = np.linalg.eigh(observable.entries)
    pair = (a[:, None] / 2.0 + a[None, :] / 2.0).astype(complex)
    sums = np.stack([np.ones_like(a), a])

    def rhs(m):
        return (m.diagonal().real @ a - pair) * m

    y = hermitian_part(v.conj().T @ start.entries @ v)
    steps = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            lam = sign * min(k * step, length)
            h = lam - sign * min((k - 1) * step, length)
            k1 = rhs(y)
            k2 = rhs(y + (h / 2.0) * k1)
            k3 = rhs(y + (h / 2.0) * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            sample = failure = None
            if not np.isfinite(y).all():
                failure = f"state at lambda {lam:.6g} is not finite; reduce the step"
            elif (low := float(np.linalg.eigvalsh(y)[0])) < -1e-8:
                failure = f"eigenvalue {low:.3e} at lambda {lam:.6g}; reduce the step"
            elif k == n_steps or k % every == 0:
                trace, mean = (sums @ y.diagonal().real).tolist()
                try:
                    state = _measured_density(hermitian_part(v @ y @ v.conj().T), trace, low)
                    sample = (lam, mean, state)
                except InputValidationError as exc:
                    failure = (
                        f"state at lambda {lam:.6g} is not a density operator "
                        f"({type(exc).__name__}: {exc}); reduce the step"
                    )
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
            # an eigenvalue below -1e-8 at step 22, a non-finite iterate at step 26
            ([0.5, 0.5], [1.0, -1.0], 2.08),
            # a recorded trace off by more than 1e-10 at step 14, non-finite at step 38
            ([0.444, 0.556], [0.45, 0.52], 2.32),
        ],
    )
    def test_first_failing_step_in_a_block(self, weights, values, step):
        start, a = make_density(np.diag(weights)), make_hermitian(np.diag(values))
        steps = per_step_flow(start, a, 128 * step, step)
        checks = {
            k: next(c for c in ("not finite", "eigenvalue", "density") if c in failure)
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


class TestClosedForm:
    def test_zero_parameter_returns_start(self, rng):
        rho = rand_density(rng, 4)
        assert closed_form_flow(rho, rand_hermitian(rng, 4), 0.0) is rho

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
        from qmaxent import Overflow

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

    def test_iteration_limit(self, rng):
        prior = rand_density(rng, 4, min_eig=0.05)
        a = rand_hermitian_radius(rng, 4, 1.0)
        target = expectation(closed_form_flow(prior, a, 1.3), a)
        with pytest.raises(MaxIterExceeded):
            flow_to_constraint(prior, a, target, tol=1e-13, max_iter=1)
        lam, _ = flow_to_constraint(prior, a, target, tol=1e-13)
        assert lam == pytest.approx(1.3, abs=1e-9)

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
