from __future__ import annotations

import numpy as np
import pytest

from qmaxent import (
    Infeasible,
    MaxIterExceeded,
    PositivityLoss,
    StepInvalid,
    closed_form_flow,
    expectation,
    flow_field,
    flow_to_constraint,
    integrate_flow,
    make_density,
    make_hermitian,
    metric_vectors,
    solve_prior_tilt,
    trace_distance,
    zero_mean_form,
)

from helpers import (
    SIGMA_X,
    SIGMA_Z,
    rand_density,
    rand_hermitian,
    rand_hermitian_radius,
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

    def test_one_eigvalsh_per_step(self, eig_calls):
        # a recorded step's validation doubles as its positivity check
        eig_calls.clear()
        integrate_flow(UNIFORM, SZ, 1.0, 1e-3)
        assert eig_calls == {"eigvalsh": 1000}

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

        with pytest.raises(Overflow):
            closed_form_flow(UNIFORM, SZ, 1e4)

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

    @pytest.mark.parametrize("route", [solve_prior_tilt, flow_to_constraint])
    def test_routes_are_scale_free(self, route):
        prior = make_density((np.eye(2) + 0.5 * SIGMA_X) / 2)
        unit, _ = route(prior, SZ, 0.6, tol=1e-10)
        for s in (1e-15, 1e-7, 1.0, 1e3):
            lam, _ = route(prior, make_hermitian(s * SIGMA_Z), s * 0.6, tol=1e-10 * s)
            assert abs(lam * s - unit) <= 1e-8

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
