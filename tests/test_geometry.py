from __future__ import annotations

import numpy as np
import pytest

from qmaxent import (
    DimMismatch,
    NotTraceless,
    Overflow,
    SingularBase,
    TangentDecomposition,
    assemble_tangent,
    commutator_norm,
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

from helpers import SIGMA_X, SIGMA_Z, rand_density, rand_hermitian

SX = make_hermitian(SIGMA_X)
SZ = make_hermitian(SIGMA_Z)
UNIFORM = make_density(np.eye(2) / 2)
DIAG82 = make_density(np.diag([0.8, 0.2]))


class TestTypes:
    def test_decomposition_shifts_must_balance(self):
        with pytest.raises(NotTraceless):
            TangentDecomposition(dp=[0.1, 0.0], dtheta=0.0, h=SX)
        TangentDecomposition(dp=[0.1, -0.1], dtheta=0.0, h=SX)

    def test_large_shifts_balance_to_their_rounding(self):
        # one ulp of 1e5 is 1.46e-11: these shifts sum to 5.8e-12 and cannot sum closer to 0
        h = make_hermitian(np.zeros((3, 3)))
        TangentDecomposition(dp=[1e5 + 0.1, -1e5, -0.1], dtheta=0.0, h=h)
        with pytest.raises(NotTraceless):
            TangentDecomposition(dp=[1e5, -1e5 + 1e-6, 0.0], dtheta=0.0, h=h)

    def test_decomposition_dim_check(self):
        with pytest.raises(DimMismatch):
            TangentDecomposition(dp=[0.1, -0.1, 0.0], dtheta=0.0, h=SX)


class TestPair:
    def test_identity_form(self, rng):
        rho = rand_density(rng, 4)
        assert expectation(rho, make_hermitian(np.eye(4))) == pytest.approx(1.0, abs=1e-14)

    def test_as_expectation(self):
        assert expectation(DIAG82, SZ) == pytest.approx(0.6, abs=1e-15)

    def test_zero_mean_case(self):
        assert expectation(UNIFORM, SX) == 0.0


class TestRaiseLower:
    def test_raise_uniform_halves(self):
        out = raise_form(UNIFORM, SX)
        assert np.allclose(out.entries, SIGMA_X / 2)

    def test_raise_off_diagonal_average(self):
        out = raise_form(DIAG82, SX)
        assert np.allclose(out.entries, np.array([[0.0, 0.5], [0.5, 0.0]]))

    def test_raise_linearity_zero(self):
        out = raise_form(DIAG82, make_hermitian(np.zeros((2, 2))))
        assert np.all(out.entries == 0.0)

    def test_lower_uniform_doubles(self):
        out = lower_vector(UNIFORM, SX)
        assert np.allclose(out.entries, 2.0 * SIGMA_X)

    def test_lower_off_diagonal_denominator(self):
        out = lower_vector(DIAG82, SX)
        assert np.allclose(out.entries, 2.0 * SIGMA_X, atol=1e-13)

    def test_lower_rejects_pure_state(self):
        with pytest.raises(SingularBase):
            lower_vector(make_density(np.diag([1.0, 0.0])), SX)

    def test_inversion_random(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 9))
            rho = rand_density(rng, n, min_eig=0.02)
            vec = rand_hermitian(rng, n)
            assert (
                np.abs(raise_form(rho, lower_vector(rho, vec)).entries - vec.entries).max()
                <= 1e-10
            )
            form = rand_hermitian(rng, n)
            back = lower_vector(rho, raise_form(rho, form))
            assert np.abs(back.entries - form.entries).max() <= 1e-10


class TestMetric:
    def test_forms_examples(self):
        assert metric_forms(UNIFORM, SX, SX) == pytest.approx(1.0, abs=1e-14)
        one = make_hermitian(np.eye(2))
        assert metric_forms(DIAG82, one, one) == pytest.approx(1.0, abs=1e-14)
        assert metric_forms(UNIFORM, SX, SZ) == pytest.approx(0.0, abs=1e-14)

    def test_vectors_example(self):
        assert metric_vectors(UNIFORM, SX, SX) == pytest.approx(4.0, abs=1e-12)
        zero = make_hermitian(np.zeros((2, 2)))
        assert metric_vectors(UNIFORM, zero, SX) == 0.0

    def test_duality(self):
        raised = raise_form(UNIFORM, SX)
        assert metric_vectors(UNIFORM, raised, raised) == pytest.approx(
            metric_forms(UNIFORM, SX, SX), abs=1e-12
        )

    def test_forms_equals_trace_against_raised(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            rho = rand_density(rng, n)
            a, b = rand_hermitian(rng, n), rand_hermitian(rng, n)
            direct = metric_forms(rho, a, b)
            via_raise = np.trace(a.entries @ raise_form(rho, b).entries).real
            assert abs(direct - via_raise) <= 1e-12

    def test_symmetry_and_bilinearity(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            rho = rand_density(rng, n)
            a, b, c = (rand_hermitian(rng, n) for _ in range(3))
            alpha, beta = rng.normal(), rng.normal()
            assert abs(metric_forms(rho, a, b) - metric_forms(rho, b, a)) <= 1e-12
            combo = make_hermitian(alpha * a.entries + beta * c.entries)
            lhs = metric_forms(rho, combo, b)
            rhs = alpha * metric_forms(rho, a, b) + beta * metric_forms(rho, c, b)
            assert abs(lhs - rhs) <= 1e-12

    def test_vector_metric_positive_definite(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            rho = rand_density(rng, n, min_eig=0.02)
            vec = rand_hermitian(rng, n)
            if np.linalg.norm(vec.entries, "fro") < 1e-8:
                continue
            assert metric_vectors(rho, vec, vec) > 1e-14

    def test_dual_consistency_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            rho = rand_density(rng, n, min_eig=0.02)
            a, b = rand_hermitian(rng, n), rand_hermitian(rng, n)
            lhs = metric_vectors(rho, raise_form(rho, a), raise_form(rho, b))
            rhs = metric_forms(rho, a, b)
            assert abs(lhs - rhs) <= 1e-10

    @pytest.mark.parametrize("scale", [1e5, 1e7, 1e10])
    def test_quadratic_at_any_scale(self, rng, scale):
        # both metrics are real by construction, however large the rounding in their products
        for _ in range(20):
            n = int(rng.integers(4, 9))
            rho = rand_density(rng, n, 0.1 / n)
            a, b = rand_hermitian(rng, n), rand_hermitian(rng, n)
            sa, sb = make_hermitian(scale * a.entries), make_hermitian(scale * b.entries)
            for metric in (metric_forms, metric_vectors):
                assert metric(rho, sa, sb) == pytest.approx(
                    scale**2 * metric(rho, a, b), rel=1e-12
                )


class TestLineElement:
    def test_classical_term(self):
        d = TangentDecomposition(dp=[0.01, -0.01], dtheta=0.0, h=SX)
        assert line_element(UNIFORM, d) == pytest.approx(4e-4, abs=1e-16)

    def test_rotation_term(self):
        eps = 1e-3
        d = TangentDecomposition(dp=[0.0, 0.0], dtheta=eps, h=SX)
        assert line_element(DIAG82, d) == pytest.approx(1.44 * eps**2, rel=1e-12)

    def test_degenerate_spectrum_kills_rotation(self, rng):
        d = TangentDecomposition(dp=[0.0, 0.0], dtheta=rng.normal(), h=rand_hermitian(rng, 2))
        assert line_element(UNIFORM, d) == pytest.approx(0.0, abs=1e-15)

    def test_matches_metric_on_assembled_direction(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 9))
            rho = rand_density(rng, n, min_eig=0.02)
            dp = rng.normal(size=n)
            dp -= dp.mean()
            d = TangentDecomposition(dp=dp, dtheta=rng.normal(), h=rand_hermitian(rng, n))
            direction = assemble_tangent(rho, d)
            assert abs(np.trace(direction.entries)) <= 1e-12
            assert abs(line_element(rho, d) - metric_vectors(rho, direction, direction)) <= 1e-10


class TestZeroMeanForm:
    def test_already_centered(self):
        out = zero_mean_form(UNIFORM, SZ)
        assert np.allclose(out.entries, SIGMA_Z)

    def test_subtracts_mean(self):
        out = zero_mean_form(DIAG82, SZ)
        assert np.allclose(out.entries, SIGMA_Z - 0.6 * np.eye(2))

    def test_identity_becomes_zero(self, rng):
        rho = rand_density(rng, 3)
        out = zero_mean_form(rho, make_hermitian(np.eye(3)))
        assert np.abs(out.entries).max() <= 1e-15

    def test_pairing_vanishes_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            rho = rand_density(rng, n)
            form = zero_mean_form(rho, rand_hermitian(rng, n))
            assert abs(expectation(rho, form)) <= 1e-12


def test_orthogonality_of_raised_zero_mean_form(rng):
    from helpers import zero_pairing_tangent

    for _ in range(100):
        n = int(rng.integers(2, 9))
        rho = rand_density(rng, n, min_eig=0.02)
        obs = rand_hermitian(rng, n)
        delta = zero_mean_form(rho, obs)
        tangent = zero_pairing_tangent(rng, n, delta.entries)
        value = metric_vectors(rho, raise_form(rho, delta), tangent)
        assert abs(value) <= 1e-10


@pytest.mark.filterwarnings("error")
def test_overflowing_results_are_typed():
    # every routine evaluates past double range without a warning and refuses what is not finite
    rho = make_density(np.diag([0.7, 0.2, 0.1]))
    big, huge = (make_hermitian(np.diag([s, -s, 0.0])) for s in (1e160, 1.5e308))
    off = make_hermitian(1e308 * np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
    shifts = TangentDecomposition([1e160, -1e160, 0.0], 0.0, make_hermitian(np.zeros((3, 3))))
    rotation = TangentDecomposition([0.0, 0.0, 0.0], 1e308, off)
    calls = [
        lambda: metric_forms(rho, big, big),  # once printed as {"value": Infinity}
        lambda: metric_forms(rho, huge, huge),
        lambda: metric_vectors(rho, big, big),
        lambda: raise_form(rho, huge),
        lambda: lower_vector(rho, huge),
        lambda: line_element(rho, shifts),
        lambda: assemble_tangent(rho, rotation),
        lambda: zero_mean_form(rho, huge),
        lambda: commutator_norm(off, huge),
    ]
    for call in calls:
        with pytest.raises(Overflow):
            call()
    # a norm whose squares overflow is still finite
    scaled = commutator_norm(make_hermitian(1e150 * SIGMA_X), make_hermitian(1e150 * SIGMA_Z))
    assert scaled == pytest.approx(1e300 * commutator_norm(SX, SZ), rel=1e-15)
