from __future__ import annotations

import math

import numpy as np
import pytest

from qmaxent import (
    SupportViolation,
    flow_to_constraint,
    make_density,
    make_hermitian,
    relative_entropy,
    solve_prior_tilt,
    von_neumann_entropy,
)

from helpers import rand_density, rand_unitary


def test_pure_state_entropy_is_zero():
    value = von_neumann_entropy(make_density(np.diag([1.0, 0.0])))
    assert value == 0.0 and math.copysign(1.0, value) == 1.0  # not -0.0


def test_uniform_state_entropy():
    assert von_neumann_entropy(make_density(np.eye(2) / 2)) == pytest.approx(
        np.log(2.0), abs=1e-14
    )


def test_binary_mixture_entropy():
    expected = -0.8 * np.log(0.8) - 0.2 * np.log(0.2)
    assert von_neumann_entropy(make_density(np.diag([0.8, 0.2]))) == pytest.approx(
        expected, abs=1e-14
    )


def test_entropy_range_random(rng):
    for _ in range(200):
        n = int(rng.integers(1, 9))
        s = von_neumann_entropy(rand_density(rng, n))
        assert 0.0 <= s <= np.log(n) + 1e-10


def test_unitary_invariance(rng):
    for _ in range(100):
        n = int(rng.integers(2, 9))
        rho = rand_density(rng, n)
        u = rand_unitary(rng, n)
        rotated = make_density(u @ rho.entries @ u.conj().T)
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) <= 1e-10


class TestRelativeEntropy:
    def test_identical_arguments(self):
        rho = make_density(np.diag([0.8, 0.2]))
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("tiny", [1e-13, 5e-13])
    def test_identical_arguments_with_a_tiny_eigenvalue(self, tiny):
        # the entropy sum keeps every p > 0: dropping p <= 1e-12 read -2.99e-12 and -1.42e-11
        rho = make_density(np.diag([1.0 - tiny, tiny]))
        assert relative_entropy(rho, rho) == 0.0

    def test_against_uniform_prior(self):
        rho = make_density(np.diag([0.8, 0.2]))
        expected = von_neumann_entropy(rho) - np.log(2.0)
        assert relative_entropy(rho, make_density(np.eye(2) / 2)) == pytest.approx(
            expected, abs=1e-14
        )
        assert expected == pytest.approx(-0.1927, abs=5e-5)

    def test_disjoint_supports(self):
        rho = make_density(np.diag([1.0, 0.0]))
        prior = make_density(np.diag([0.0, 1.0]))
        with pytest.raises(SupportViolation):
            relative_entropy(rho, prior)

    def test_uniform_prior_identity_random(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 9))
            rho = rand_density(rng, n)
            uniform = make_density(np.eye(n) / n)
            lhs = relative_entropy(rho, uniform)
            rhs = von_neumann_entropy(rho) - np.log(n)
            assert abs(lhs - rhs) <= 1e-12

    def test_nonpositive_random(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            rho = rand_density(rng, n, min_eig=1e-3)
            prior = rand_density(rng, n, min_eig=1e-3)
            assert relative_entropy(rho, prior) <= 1e-10

    def test_joint_unitary_invariance(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            rho = rand_density(rng, n, min_eig=1e-3)
            prior = rand_density(rng, n, min_eig=1e-3)
            u = rand_unitary(rng, n)
            rotated = relative_entropy(
                make_density(u @ rho.entries @ u.conj().T),
                make_density(u @ prior.entries @ u.conj().T),
            )
            assert abs(rotated - relative_entropy(rho, prior)) <= 1e-10


def _classical_relative_entropy(w: np.ndarray, d: np.ndarray) -> float:
    """-sum_i w_i log(w_i / d_i) over the diagonals, with 0 log 0 = 0."""
    on = w > 0.0
    return float(-(w[on] * np.log(w[on] / d[on])).sum())


class TestSupportRule:
    """relative_entropy and both prior updates share one support rule (SUPPORT_FLOOR)."""

    @pytest.mark.parametrize("route", [solve_prior_tilt, flow_to_constraint])
    def test_update_of_a_tiny_weight_prior_has_finite_divergence(self, route):
        # the 1e-13 eigenvector lies on the prior's support, so the update moves half the
        # weight there, and the divergence of the update from the prior is finite
        d = np.array([1 - 1e-13, 1e-13])
        prior = make_density(np.diag(d))
        _, state = route(prior, make_hermitian(np.diag([1.0, -1.0])), 0.0)
        w = np.diag(state.entries).real
        assert np.abs(w - 0.5).max() <= 1e-10
        expected = _classical_relative_entropy(w, d)  # -14.27365592390141
        assert abs(relative_entropy(state, prior) - expected) <= 1e-12

    def test_updates_of_rank_deficient_priors_random(self, rng):
        # commuting priors with eigenvalues 0, 1e-13 and 1e-11: every update has a finite
        # divergence from its prior, the classical one of the diagonals.  The entropy sum
        # keeps the state's tiny eigenvalues, so the two agree to rounding: the largest
        # error seen over 2400 updates is 7.1e-15 (dropping p <= 1e-12 gave up to 4.2e-11)
        for _ in range(60):
            n = int(rng.integers(4, 9))
            d = np.concatenate([[0.0, 1e-13, 1e-11], rng.random(n - 3)])
            d[3:] *= (1 - 1.01e-11) / d[3:].sum()
            d = rng.permutation(d)
            prior = make_density(np.diag(d))
            a = rng.normal(size=n)
            lo, hi = a[d > 0.0].min(), a[d > 0.0].max()
            target = lo + (hi - lo) * rng.uniform(0.02, 0.98)
            observable = make_hermitian(np.diag(a))
            for route in (solve_prior_tilt, flow_to_constraint):
                _, state = route(prior, observable, target)
                expected = _classical_relative_entropy(np.diag(state.entries).real, d)
                assert abs(relative_entropy(state, prior) - expected) <= 1e-13

    def test_weight_off_the_support_is_refused(self):
        # a 1e-13 weight on the prior's kernel gave +1.0e-13, of the wrong sign
        rho = make_density(np.diag([1 - 1e-13, 1e-13]))
        with pytest.raises(SupportViolation, match="weight 1.000e-13 outside"):
            relative_entropy(rho, make_density(np.diag([1.0, 0.0])))
