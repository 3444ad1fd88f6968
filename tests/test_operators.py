from __future__ import annotations

import numpy as np
import pytest

import qmaxent as qm
from qmaxent import (
    ConvergenceFailure,
    DimMismatch,
    DomainError,
    NonSquare,
    NotHermitian,
    NotPositive,
    Overflow,
    TraceNotOne,
    apply_spectral_function,
    commutator_norm,
    eig_hermitian,
    expectation,
    hermitian_part,
    make_density,
    make_hermitian,
    trace_distance,
)

from qmaxent.operators import _coordinates, _dual, _pack, _pairing, _split, _unpack

from helpers import SIGMA_X, SIGMA_Z, rand_density, rand_hermitian, rand_spectrum_hermitian


class TestMakeHermitian:
    def test_pauli_z_accepted_unchanged(self):
        op = make_hermitian(SIGMA_Z)
        assert np.array_equal(op.entries, SIGMA_Z)
        assert op.dim == 2

    def test_antisymmetric_imaginary_rejected(self):
        with pytest.raises(NotHermitian):
            make_hermitian(np.array([[0, 1j], [1j, 0]]))

    def test_tiny_asymmetry_symmetrized(self):
        raw = np.array([[1.0, 1e-13j], [-1.001e-13j, 1.0]])
        op = make_hermitian(raw)
        assert np.abs(op.entries - op.entries.conj().T).max() == 0.0

    @pytest.mark.parametrize("tiny", [5e-324, 1.5e-323, 2.225073858507203e-308])
    def test_exact_hermitian_stored_unchanged(self, tiny):
        # halving rounds these (5e-324 / 2 is 0), so an exactly Hermitian entry is kept
        for raw in ([[1.0, tiny], [tiny, 1.0]], [[tiny, 1j * tiny], [-1j * tiny, 0.5]]):
            raw = np.array(raw, dtype=complex)
            assert np.array_equal(make_hermitian(raw).entries, raw)

    def test_halved_sum_otherwise(self, rng):
        # entries unequal to their mirror's conjugate are halved first, bit for bit; so
        # is every entry of a matrix without parts below twice the smallest normal
        def same_bits(x, y):
            """Entrywise: both parts of x and y have the same bits, signs of zero included."""
            bits = (m.view(np.int64).reshape(*m.shape, 2) for m in (x, y))
            return np.equal(*bits).all(axis=-1)

        values = np.array([0.0, -0.0, 5e-324, 1e-323, 0.5, -1.25, 1.5e308, -1.7e308])
        for _ in range(200):
            n = int(rng.integers(1, 5))
            raw = rng.choice(values, (n, n)) + 1j * rng.choice(values, (n, n))
            same = same_bits(hermitian_part(raw), raw / 2.0 + raw.conj().T / 2.0)
            assert same[raw != raw.conj().T].all()
        x, y = (rand_hermitian(rng, 6).entries for _ in range(2))
        for raw in (x.copy(), x @ y):
            raw[0, 0], raw[1, 2], raw[2, 1] = -0.0, complex(-0.0, -0.0), complex(-0.0, 0.0)
            assert same_bits(hermitian_part(raw), raw / 2.0 + raw.conj().T / 2.0).all()

    @pytest.mark.parametrize("scale", [1e4, 1e7, 1e10])
    def test_computed_product_at_any_scale(self, rng, scale):
        # the rounding asymmetry of XY + YX grows with its entries, and so does the margin
        for _ in range(20):
            n = int(rng.integers(4, 9))
            x, y = (scale * rand_hermitian(rng, n).entries for _ in range(2))
            raw = x @ y + y @ x
            assert np.array_equal(make_hermitian(raw).entries, hermitian_part(raw))

    @pytest.mark.parametrize(
        "raw",
        [
            # the margin is 1e-12 of the largest part, 1e-4 here: an asymmetry of 1 is refused
            [[1e8, 1.0], [0.0, 1e8]],
            # a modulus beyond double range leaves the margin finite and the asymmetry infinite
            [[0.0, 1.5e308 + 1.5e308j], [0.0, 0.0]],
            # M - M† overflows: refused as NotHermitian, without an overflow warning
            [[0.0, 1e308], [-1e308, 0.0]],
        ],
    )
    def test_large_asymmetry_rejected_at_large_scale(self, raw):
        with pytest.raises(NotHermitian, match="symmetry"):
            make_hermitian(np.array(raw))

    def test_non_square_rejected(self):
        with pytest.raises(NonSquare):
            make_hermitian(np.ones((2, 3)))

    def test_entries_read_only(self):
        op = make_hermitian(SIGMA_X)
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0


class TestMakeDensity:
    def test_maximally_mixed(self):
        rho = make_density(np.eye(2) / 2)
        assert rho.dim == 2

    def test_classical_vector(self):
        rho = make_density(np.diag([0.8, 0.2]))
        assert np.trace(rho.entries).real == pytest.approx(1.0)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositive):
            make_density(np.diag([1.2, -0.2]))

    def test_wrong_trace_rejected(self):
        with pytest.raises(TraceNotOne):
            make_density(np.eye(2))


class TestEig:
    def test_sigma_z(self):
        w, v = eig_hermitian(make_hermitian(SIGMA_Z))
        assert np.allclose(w, [1.0, -1.0])
        assert np.allclose(v, np.eye(2))

    def test_sigma_x_hand_diagonalization(self):
        w, v = eig_hermitian(make_hermitian(SIGMA_X))
        assert np.allclose(w, [1.0, -1.0])
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        assert np.allclose(v, expected, atol=1e-12)

    def test_degenerate_identity(self):
        w, _ = eig_hermitian(make_hermitian(np.eye(3)))
        assert np.allclose(w, [1.0, 1.0, 1.0])

    def test_reconstruction_and_unitarity_random(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            op = rand_hermitian(rng, n)
            w, v = eig_hermitian(op)
            assert np.all(np.diff(w) <= 0.0)
            rebuilt = (v * w) @ v.conj().T
            assert np.linalg.norm(rebuilt - op.entries, "fro") <= 1e-10
            gram = v.conj().T @ v
            assert np.linalg.norm(gram - np.eye(n), "fro") <= 1e-10

    def test_phase_convention_deterministic(self, rng):
        op = rand_hermitian(rng, 5)
        _, a = eig_hermitian(op)
        _, b = eig_hermitian(op)
        assert np.array_equal(a, b)


class TestSpectralFunctions:
    def test_exp_of_zero_is_identity(self):
        out = apply_spectral_function(make_hermitian(np.zeros((3, 3))), "exp")
        assert np.allclose(out.entries, np.eye(3))

    def test_exp_of_log2_sigma_z(self):
        out = apply_spectral_function(make_hermitian(np.log(2.0) * SIGMA_Z), "exp")
        assert np.allclose(out.entries, np.diag([2.0, 0.5]), atol=1e-14)

    def test_exp_overflows_only_past_double_range(self):
        out = apply_spectral_function(make_hermitian(np.diag([705.0, 0.0])), "exp")
        assert np.allclose(out.entries, np.diag([np.exp(705.0), 1.0]), rtol=1e-14)
        # the symmetrization halves each term before adding, so e^709.5 survives it
        out = apply_spectral_function(make_hermitian(np.diag([709.5, 0.0])), "exp")
        assert np.allclose(out.entries, np.diag([np.exp(709.5), 1.0]), rtol=1e-14)
        with pytest.raises(Overflow):
            apply_spectral_function(make_hermitian(np.diag([710.0, 0.0])), "exp")

    def test_log_of_uniform_state(self):
        out = apply_spectral_function(make_hermitian(np.eye(2) / 2), "log")
        assert np.allclose(out.entries, -np.log(2.0) * np.eye(2), atol=1e-14)

    def test_log_rejects_vanishing_spectrum(self):
        with pytest.raises(DomainError):
            apply_spectral_function(make_hermitian(np.diag([1.0, 0.0])), "log")

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            apply_spectral_function(make_hermitian(SIGMA_Z), "sqrt")

    def test_exp_log_roundtrip(self, rng):
        # Relative eigenvalue accuracy of a generic eigensolver limits the
        # spectral spread over which the roundtrip can hold at 1e-9: the small
        # exponentials are recovered with absolute error ~eps * exp(w_max).
        for _ in range(200):
            n = int(rng.integers(2, 9))
            op = rand_spectrum_hermitian(rng, n, -7.0, 7.0)
            back = apply_spectral_function(apply_spectral_function(op, "exp"), "log")
            assert np.linalg.norm(back.entries - op.entries, "fro") <= 1e-9


class TestExpectation:
    def test_uniform_symmetry(self):
        assert expectation(make_density(np.eye(2) / 2), make_hermitian(SIGMA_Z)) == 0.0

    def test_diagonal_mean(self):
        rho = make_density(np.diag([0.8, 0.2]))
        assert expectation(rho, make_hermitian(SIGMA_Z)) == pytest.approx(0.6, abs=1e-15)

    def test_off_diagonal_mean(self):
        rho = make_density(np.array([[0.8, 0.2], [0.2, 0.2]]))
        assert expectation(rho, make_hermitian(SIGMA_X)) == pytest.approx(0.4, abs=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            expectation(make_density(np.eye(2) / 2), make_hermitian(np.eye(3)))

    @pytest.mark.parametrize("scale", [1e5, 1e7, 1e10])
    def test_real_and_linear_at_any_scale(self, rng, scale):
        # rounding in a complex tr(rho A) leaves an imaginary part that grows with A's
        # scale; the pairing forms none, so nothing is refused
        for _ in range(20):
            n = int(rng.integers(4, 9))
            rho, a = rand_density(rng, n), rand_hermitian(rng, n)
            scaled = expectation(rho, make_hermitian(scale * a.entries))
            assert scaled == pytest.approx(scale * expectation(rho, a), rel=1e-12)

    def test_linearity_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            rho = rand_density(rng, n)
            a, b = rand_hermitian(rng, n), rand_hermitian(rng, n)
            alpha, beta = rng.normal(), rng.normal()
            combo = make_hermitian(alpha * a.entries + beta * b.entries)
            lhs = expectation(rho, combo)
            rhs = alpha * expectation(rho, a) + beta * expectation(rho, b)
            assert abs(lhs - rhs) <= 1e-12


class TestCoordinates:
    """The n^2 real coordinates that hold the MaxEnt constraints."""

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_dot_product_is_the_pairing(self, rng, scale):
        for n in range(1, 9):
            for _ in range(10):
                x, y = (rand_hermitian(rng, n, scale).entries for _ in range(2))
                bound = 1e-15 * np.linalg.norm(x) * np.linalg.norm(y)
                assert abs(_pack(x) @ _dual(y) - _pairing(x, y)) <= bound

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_unpack_inverts_pack(self, rng, scale):
        for n in range(1, 9):
            x = rand_hermitian(rng, n, scale).entries.copy()
            x[0, 0] = 5e-324  # subnormal parts
            if n > 1:
                x[0, 1] = complex(5e-324, -1e-310)
                x[1, 0] = x[0, 1].conjugate()
            coordinates = _pack(x)
            assert coordinates.shape == (n * n,)
            assert _unpack(coordinates).tobytes() == x.tobytes()

    def test_rows_give_norms_and_traces(self, rng):
        observables = tuple(rand_hermitian(rng, 5) for _ in range(3))
        coordinates = _coordinates(observables, 5)
        diagonal, off = _split(coordinates)
        for k, a in enumerate(observables):
            squares = coordinates[k] @ coordinates[k] + off[k] @ off[k]
            assert squares == pytest.approx(np.linalg.norm(a.entries) ** 2, rel=1e-14)
            assert diagonal[k].sum() == pytest.approx(np.trace(a.entries).real, rel=1e-14)


class TestCommutatorNorm:
    def test_both_diagonal(self):
        assert commutator_norm(make_hermitian(SIGMA_Z), make_hermitian(np.diag([3.0, 7.0]))) == 0.0

    def test_pauli_pair(self):
        value = commutator_norm(make_hermitian(SIGMA_X), make_hermitian(SIGMA_Z))
        assert value == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-14)

    def test_self_commutation(self):
        sx = make_hermitian(SIGMA_X)
        assert commutator_norm(sx, sx) == 0.0


class TestDensitySpectrum:
    def test_eigenvalue_bounds_random(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 9))
            rho = rand_density(rng, n)
            w = np.linalg.eigvalsh(rho.entries)
            assert w.min() >= -1e-10
            assert w.max() <= 1.0 + 1e-10
            assert abs(w.sum() - 1.0) <= 1e-10


def test_trace_distance_basics():
    a = make_density(np.diag([1.0, 0.0]))
    b = make_density(np.diag([0.0, 1.0]))
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-14)
    assert trace_distance(a, a) == 0.0


_RHO2, _RHO3 = make_density(np.eye(2) / 2), make_density(np.eye(3) / 3)
_A2, _A3 = make_hermitian(SIGMA_Z), make_hermitian(np.diag([1.0, 0.0, -1.0]))
_D3 = qm.TangentDecomposition(dp=[0.1, 0.0, -0.1], dtheta=0.1, h=_A3)
# each public routine that takes two or more operators, on a 2x2 / 3x3 mix
MISMATCHED = {
    "expectation": lambda: expectation(_RHO2, _A3),
    "commutator_norm": lambda: commutator_norm(_A2, _A3),
    "trace_distance": lambda: trace_distance(_RHO2, _RHO3),
    "relative_entropy": lambda: qm.relative_entropy(_RHO2, _RHO3),
    "raise_form": lambda: qm.raise_form(_RHO2, _A3),
    "lower_vector": lambda: qm.lower_vector(_RHO2, _A3),
    "metric_forms": lambda: qm.metric_forms(_RHO2, _A3, _A2),
    "metric_vectors": lambda: qm.metric_vectors(_RHO2, _A2, _A3),
    "line_element": lambda: qm.line_element(_RHO2, _D3),
    "assemble_tangent": lambda: qm.assemble_tangent(_RHO2, _D3),
    "zero_mean_form": lambda: qm.zero_mean_form(_RHO2, _A3),
    "flow_field": lambda: qm.flow_field(_RHO2, _A3),
    "integrate_flow": lambda: qm.integrate_flow(_RHO2, _A3, 0.1),
    "closed_form_flow": lambda: qm.closed_form_flow(_RHO2, _A3, 0.1),
    "flow_to_constraint": lambda: qm.flow_to_constraint(_RHO2, _A3, 0.0),
    "solve_prior_tilt": lambda: qm.solve_prior_tilt(_RHO2, _A3, 0.0),
    "ConstraintSet mixed": lambda: qm.ConstraintSet((_A2, _A3), [0.0, 0.0]),
    "ConstraintSet dim": lambda: qm.ConstraintSet((_A2,), [0.0], dim=3),
    "gibbs_state": lambda: qm.gibbs_state([0.1, 0.2], (_A2, _A3)),
    "partition_function": lambda: qm.partition_function([0.1, 0.2], (_A2, _A3)),
}


@pytest.mark.parametrize("routine", sorted(MISMATCHED))
def test_operands_share_one_dimension(routine):
    with pytest.raises(DimMismatch, match="operand dimensions differ"):
        MISMATCHED[routine]()


@pytest.mark.parametrize(
    "routine",
    [
        lambda: eig_hermitian(_A3),
        lambda: qm.relative_entropy(_RHO2, _RHO2),
        lambda: qm.gibbs_state([0.1], (_A2,)),
        lambda: qm.partition_function([0.1], (_A2,)),
    ],
    ids=["eig_hermitian", "relative_entropy", "gibbs_state", "partition_function"],
)
def test_eigensolver_failure_is_typed(monkeypatch, routine):
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceFailure, match="eigendecomposition failed"):
        routine()
