from __future__ import annotations

import math

import numpy as np
import pytest

from qmaxent import (
    SupportViolation,
    make_density,
    relative_entropy,
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
