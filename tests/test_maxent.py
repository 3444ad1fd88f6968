from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

import qmaxent.maxent
from qmaxent.maxent import _coordinates, _unpack
from qmaxent import (
    ConstraintSet,
    DependentConstraints,
    DimMismatch,
    Infeasible,
    InputValidationError,
    MaxIterExceeded,
    NotPositive,
    Overflow,
    TraceNotOne,
    classical_gibbs_oracle,
    dual_objective,
    entropy_sensitivity,
    expectation,
    flow_to_constraint,
    gibbs_state,
    make_density,
    make_hermitian,
    metric_forms,
    partition_function,
    solve_maxent,
    solve_prior_tilt,
    trace_distance,
    von_neumann_entropy,
    zero_mean_form,
)

from helpers import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_feasible_max_entropy,
    rand_density,
    rand_hermitian,
    rand_hermitian_radius,
    random_feasible_instance,
)

SX = make_hermitian(SIGMA_X)
SZ = make_hermitian(SIGMA_Z)
# spectrum far from 0 with a spread of 1: the canonical states are shift-stable
OFFSET = make_hermitian(np.diag([1000.0, 1001.0]))
ARTANH_HALF = float(np.arctanh(0.5))


def gibbs_instance(rng, n, m, scale):
    """Unit-radius observables; targets of a Gibbs state with lam ~ N(0, scale^2)."""
    observables = tuple(rand_hermitian_radius(rng, n, 1.0) for _ in range(m))
    state = gibbs_state(rng.normal(0.0, scale, size=m), observables)
    return ConstraintSet(observables, [expectation(state, a) for a in observables])


def hessian_matrix(cs, lam):
    """The dual's Hessian at ``lam``, one solver Hessian-vector product per column."""
    _, gradient, _, _, eig = qmaxent.maxent._dual_point(lam, cs._coords, cs.targets)
    product = qmaxent.maxent._kubo_mori_product(cs._coords, cs.targets - gradient, *eig)
    return np.array([product(e) for e in np.eye(cs.m)]).T


def near_pure_instance(seed, delta):
    """The instance at ``delta`` of ``default_rng(seed)``'s ladder delta = 1e-2, 1e-4, ...:
    n in 2..6 and m < n^2 complex-normal observables, targets of (1 - delta)|psi><psi| + delta
    I/n, each rung drawn in turn."""
    rng = np.random.default_rng(seed)
    for rung in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n * n))
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        sigma = (1.0 - rung) * np.outer(psi, psi.conj()) + rung * np.eye(n) / n
        observables = []
        for _ in range(m):
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            observables.append(make_hermitian((g + g.conj().T) / 2.0))
        if rung == delta:
            state = make_density(sigma)
            return ConstraintSet(observables, [expectation(state, a) for a in observables])


def range_verdict(observables, targets):
    """The spectral-range rule of ConstraintSet on every observable's full spectrum."""
    boundary = None
    for a, t in zip(observables, np.asarray(targets, dtype=np.float64)):
        w = np.linalg.eigvalsh(a.entries)
        span = f"[{float(w[0])!r}, {float(w[-1])!r}]"
        if not (w[0] <= t <= w[-1]):
            return Infeasible, f"target {float(t)!r} outside the spectral range {span}"
        if boundary is None and not (w[0] < t < w[-1]):
            boundary = (
                f"target {float(t)!r} on the boundary of the spectral range {span}; "
                "the multiplier would diverge"
            )
    return None, boundary


def constraint_verdict(observables, targets):
    try:
        return None, ConstraintSet(observables, targets)._boundary
    except Infeasible as exc:
        return Infeasible, str(exc)


class TestConstraintSet:
    def test_target_outside_spectrum_rejected(self):
        with pytest.raises(Infeasible):
            ConstraintSet((SZ,), [1.5])

    def test_boundary_target_constructible(self):
        assert ConstraintSet((SZ,), [1.0]).m == 1

    def test_length_mismatch(self):
        with pytest.raises(DimMismatch):
            ConstraintSet((SZ,), [0.1, 0.2])

    def test_targets_must_be_finite(self):
        with pytest.raises(InputValidationError, match="targets must be finite"):
            ConstraintSet((SZ,), [np.nan])

    def test_targets_must_be_a_vector(self):
        # one target in a (1, 1) array: the message names the shape, not a count that matches
        with pytest.raises(DimMismatch, match=r"1 observables but targets shaped \(1, 1\)"):
            ConstraintSet((SZ,), [[0.1]])

    def test_dependent_observables_rejected(self):
        doubled = make_hermitian(2.0 * SIGMA_Z)
        with pytest.raises(DependentConstraints):
            ConstraintSet((SZ, doubled), [0.1, 0.2])
        # complex entries and non-commuting pairs exercise the Gram contraction
        sy = make_hermitian(SIGMA_Y)
        nearly = make_hermitian(2.0 * SIGMA_Y + 1e-15 * SIGMA_X)
        with pytest.raises(DependentConstraints):
            ConstraintSet((sy, nearly), [0.1, 0.2])
        assert ConstraintSet((SX, sy, SZ), [0.1, 0.2, 0.3]).m == 3

    def test_identity_observable_rejected(self):
        with pytest.raises(DependentConstraints, match="multiple of the identity"):
            ConstraintSet((make_hermitian(np.eye(2)),), [1.0])

    def test_independence_is_scale_free(self):
        # the Gram matrix of this pair overflows; its correlation matrix does not
        huge = np.array([[1e160, 3e159], [3e159, -1e160]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DependentConstraints, match="correlation"):
                ConstraintSet((make_hermitian(huge), make_hermitian(2.0 * huge)), [1e159, 2e159])
        # orthogonal however small: Gram diag(2, 2e-14), correlation the identity
        small = make_hermitian(1e-7 * SIGMA_Y)
        sol = solve_maxent(ConstraintSet((SX, small), [0.3, 1e-11]))
        expected = make_density((np.eye(2) + 0.3 * SIGMA_X + 1e-4 * SIGMA_Y) / 2)
        assert trace_distance(sol.estimate, expected) <= 1e-9

    def test_gram_overflow_is_an_input_error(self):
        # independent, but the squared norms pass the largest double
        huge = [make_hermitian(np.diag([8e307, 8e307, 8e307, -1e307]))]
        huge.append(make_hermitian(np.diag([0.0, 1e160, 0.0, -1e160])))
        for observables in (huge[:1], huge[1:], huge):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(InputValidationError, match="overflows") as caught:
                    ConstraintSet(tuple(observables), [0.0] * len(observables))
            assert type(caught.value) is InputValidationError

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gram_underflow_is_an_input_error(self):
        # (s sigma_x, sigma_z): Gram diag(2 s^2, 2), so n Gram^-1 overflows below s ~ 1e-154
        small = make_hermitian(1e-154 * SIGMA_X)
        sol = solve_maxent(ConstraintSet((small, SZ), [0.3e-154, 0.4]))
        expected = [-0.6 * ARTANH_HALF, -0.8 * ARTANH_HALF]
        assert sol.multipliers * [1e-154, 1.0] == pytest.approx(expected)
        for s in (1e-155, 1e-160, 1e-170, 1e-300, 1e-320):
            with pytest.raises(InputValidationError, match="too small") as caught:
                ConstraintSet((make_hermitian(s * SIGMA_X), SZ), [0.3 * s, 0.4])
            assert type(caught.value) is InputValidationError

    def test_stack_is_the_entries(self, rng):
        # the independence check scales the coordinates in place before restoring them
        observables = tuple(rand_hermitian(rng, 5, scale) for scale in (1e-150, 1.0, 1e150))
        cs = ConstraintSet(observables, [np.trace(a.entries).real / 5 for a in observables])
        assert not cs._coords.flags.writeable
        for k, a in enumerate(observables):
            assert _unpack(cs._coords[k]).tobytes() == a.entries.tobytes()

    def test_extreme_rows_packed_once(self, rng, monkeypatch):
        # ||A||_F^2 below 2^-800 (1e-140, 1e-125) or above 2^800 (1e130, 1e150): the independence
        # check scales those rows in place and puts back its copy, packing nothing again
        calls = []
        coordinates = qmaxent.maxent._coordinates
        monkeypatch.setattr(
            qmaxent.maxent, "_coordinates", lambda *a: calls.append(a) or coordinates(*a)
        )
        for n, scales in ((5, (1e-140, 1.0, 1e150)), (3, (1e-125, 1e130)), (6, (1e-140,) * 3)):
            observables = tuple(rand_hermitian(rng, n, scale) for scale in scales)
            cs = ConstraintSet(observables, [np.trace(a.entries).real / n for a in observables])
            squares = np.array([np.sum(np.abs(a.entries) ** 2) for a in observables])
            assert ((squares < 2.0**-800) | (squares > 2.0**800)).any()
            assert cs._coords.tobytes() == coordinates(observables, n).tobytes()
        assert len(calls) == 3  # one packing per set

    def test_unpacked_rows_are_the_entries(self, rng):
        def spectral(n, w):
            v = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            return make_hermitian((v * w) @ v.conj().T)

        operators = [rand_hermitian(rng, n) for n in (1, 2, 5, 8)] + [
            spectral(4, [1.0, 1.0, 0.0, 0.0]),  # a projector: two doubly degenerate eigenvalues
            spectral(6, [2.0] * 5 + [-1.0]),
            spectral(3, [0.0, 0.0, 3.0]),  # rank one
            make_hermitian(np.diag([1.0, 1.0, -2.0, 1.0])),
            make_hermitian(np.eye(4)),
            make_hermitian(np.zeros((3, 3))),
            make_hermitian(np.ones((3, 3))),
        ]
        for a in operators:
            assert _unpack(_coordinates((a,), a.dim)[0]).tobytes() == a.entries.tobytes()
        # the coordinates keep no sign of zero: -0.0 entries, made from a caller's negative
        # zeros, come back as +0.0 with the same spectrum
        a = make_hermitian(-np.eye(3))
        back = _unpack(_coordinates((a,), 3)[0])
        assert back.tobytes() == (a.entries + 0.0).tobytes()
        assert np.linalg.eigvalsh(back).tobytes() == np.linalg.eigvalsh(a.entries).tobytes()

    def test_one_constraint_buffer(self, rng):
        for n, m in ((32, 30), (32, 30), (32, 30), (64, 40), (64, 40), (64, 40)):
            observables = tuple(rand_hermitian_radius(rng, n, 1.0) for _ in range(m))
            state = gibbs_state(rng.normal(0.0, 0.5, size=m), observables)
            targets = [expectation(state, a) for a in observables]
            tracemalloc.start()
            try:
                cs = ConstraintSet(observables, targets)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # a scaled copy of the coordinates for the independence check would double them;
            # the pivot bounds read 2(n - 1) coordinates of one undecided target at a time
            assert peak <= 1.15 * cs._coords.nbytes

    def test_eigvalsh_only_for_uncertain_targets(self, rng, eig_calls):
        observables = tuple(rand_hermitian(rng, 4) for _ in range(3))
        spectra = [np.linalg.eigvalsh(a.entries) for a in observables]
        # the uniform state's means lie strictly inside each diagonal's range
        means = [float(np.trace(a.entries).real) / 4 for a in observables]
        eig_calls.clear()
        ConstraintSet(observables, means)
        assert eig_calls == {"eigvalsh": 1}  # the Gram check alone
        # a target on its boundary is not certified: one spectrum each, then the Gram check
        eig_calls.clear()
        cs = ConstraintSet(observables, [spectra[0][-1], means[1], spectra[2][0]])
        assert eig_calls == {"eigvalsh": 3} and cs._boundary is not None
        # an out-of-range target is refused before the Gram check
        eig_calls.clear()
        with pytest.raises(Infeasible):
            ConstraintSet(observables, [means[0], spectra[1][-1] + 1.0, means[2]])
        assert eig_calls == {"eigvalsh": 1}

    def test_certificate_agrees_with_full_spectra(self, rng, eig_calls):
        def diagonal(n):
            return make_hermitian(np.diag(rng.normal(size=n)))

        def blocks(n):
            # each 2x2 block's eigenvalues belong to the whole, so w_min and w_max are those
            # of some block: the pivot reaches them only when it lies in that block
            out = np.zeros((n, n), complex)
            for i in range(0, n, 2):
                g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                out[i : i + 2, i : i + 2] = g + g.conj().T
            return make_hermitian(out)

        def pivot_block(n):
            # one 2x2 block and a diagonal strictly between its diagonal entries, permuted: the
            # block holds the extreme diagonal entries and both w_min and w_max
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            g += g.conj().T
            out = np.diag(rng.uniform(*np.sort(g.diagonal().real), size=n)).astype(complex)
            out[:2, :2] = g
            perm = rng.permutation(n)
            return make_hermitian(out[np.ix_(perm, perm)])

        def candidates(w):
            lo, hi, scale = w[0], w[-1], np.abs(w).max()
            ulps = [edge + k * np.spacing(edge) for edge in (lo, hi) for k in (-3, -1, 0, 1, 3)]
            relative = [edge + r * scale for edge in (lo, hi) for r in (-1e-9, -1e-11, 1e-11)]
            return ulps + relative + [(lo + hi) / 2, hi + 0.5 * scale, lo - 0.5 * scale]

        for _ in range(300):
            n, m = int(rng.choice([4, 6, 16, 32, 64])), int(rng.integers(1, 4))
            kinds = (diagonal, blocks, pivot_block, lambda n: rand_hermitian(rng, n))
            make = kinds[int(rng.integers(len(kinds)))]
            observables = tuple(make(n) for _ in range(m))
            targets = [rng.choice(candidates(np.linalg.eigvalsh(a.entries))) for a in observables]
            assert constraint_verdict(observables, targets) == range_verdict(observables, targets)
        # the certificate is not vacuous: 1e-9 inside either edge, both kinds need no spectrum
        for a in (diagonal(6), pivot_block(6)):
            w = np.linalg.eigvalsh(a.entries)
            inside = np.array([w[0], w[-1]]) + np.array([1e-9, -1e-9]) * np.abs(w).max()
            squares = np.full(2, np.sum(np.abs(a.entries) ** 2))
            eig_calls.clear()
            assert ConstraintSet._judge(_coordinates((a, a), 6), inside, squares) is None
            assert not eig_calls["eigvalsh"]
        # pairs i < j alone enter |a_ij|: with i = j, sigma_z's pairs would span [-2, 2]
        for target in (1.0, -1.0, 1.0 - 1e-12, 1.5):
            assert constraint_verdict((SZ,), [target]) == range_verdict((SZ,), [target])
        assert ConstraintSet((SZ,), [1.0])._boundary is not None

    def test_empty_needs_dim(self):
        with pytest.raises(DimMismatch):
            ConstraintSet((), [])
        empty = ConstraintSet((), [], dim=3)
        assert empty.dim == 3
        assert empty._coords.shape == (0, 9) and empty._precond.shape == (0, 0)

    @pytest.mark.parametrize("dim", [0, -1, True, 2.0, "2"])
    def test_dim_must_be_a_positive_integer(self, dim):
        for observables, targets in (((), []), ((SZ,), [0.1])):
            with pytest.raises(DimMismatch, match="integer of at least 1") as caught:
                ConstraintSet(observables, targets, dim=dim)
            assert type(caught.value) is DimMismatch
        assert ConstraintSet((SZ,), [0.1], dim=np.int64(2)).dim == 2


class TestPartitionFunction:
    def test_zero_multiplier(self):
        assert partition_function([0.0], [SZ]) == pytest.approx(2.0, abs=1e-14)

    def test_scalar_sum(self):
        assert partition_function([np.log(2.0)], [SZ]) == pytest.approx(2.5, rel=1e-14)

    def test_two_zero_multipliers(self):
        assert partition_function([0.0, 0.0], [SX, SZ]) == pytest.approx(2.0, abs=1e-14)

    def test_overflow_guard(self):
        with pytest.raises(Overflow):
            partition_function([1000.0], [SZ])

    def test_multipliers_must_be_finite(self):
        with pytest.raises(InputValidationError, match="multipliers must be finite"):
            partition_function([np.inf], [SZ])

    def test_overflowing_aggregate(self):
        # each multiplier is finite, their sum_k lam_k A_k is not
        with pytest.raises(Overflow, match="sum_k lam_k A_k"):
            partition_function([1e308, 1e308], [SZ, SZ])

    def test_large_exponent_with_finite_sum(self):
        # Z = 1 + exp(-1000): only a Z that is not finite overflows
        assert partition_function([1000.0], [make_hermitian(np.diag([0.0, 1.0]))]) == 1.0


class TestGibbsState:
    def test_no_tilt_is_uniform(self):
        rho = gibbs_state([0.0], [SZ])
        assert np.allclose(rho.entries, np.eye(2) / 2)

    def test_needs_an_observable(self):
        with pytest.raises(DimMismatch, match="at least one observable"):
            gibbs_state([], ())

    def test_scalar_tilt(self):
        rho = gibbs_state([-np.log(2.0)], [SZ])
        assert np.allclose(np.diag(rho.entries).real, [0.8, 0.2], atol=1e-14)

    def test_bloch_closed_form(self):
        lam = [-ARTANH_HALF * 0.6, -ARTANH_HALF * 0.8]
        rho = gibbs_state(lam, [SX, SZ])
        expected = (np.eye(2) + 0.3 * SIGMA_X + 0.4 * SIGMA_Z) / 2
        assert np.abs(rho.entries - expected).max() <= 1e-12

    def test_strictly_positive_spectrum(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            obs = [rand_hermitian(rng, n) for _ in range(2)]
            rho = gibbs_state(rng.normal(size=2), obs)
            assert np.linalg.eigvalsh(rho.entries).min() > 0.0

    def test_overflowing_aggregate(self):
        with pytest.raises(Overflow, match="sum_k lam_k A_k"):
            gibbs_state([1e308, 1e308], [SZ, SZ])
        # a finite aggregate whose spectral spread overflows keeps its extreme weights
        rho = gibbs_state([1e308, 1e308], [SZ, SX])
        assert abs(np.linalg.eigvalsh(rho.entries) - [0.0, 1.0]).max() <= 1e-15
        # a finite aggregate whose smallest eigenvalue, -2e308, overflows
        with pytest.raises(Overflow, match="sum_k lam_k A_k"):
            gibbs_state([1e308], [make_hermitian(-np.ones((2, 2)))])

    def test_offset_spectrum(self):
        # the weights exp(-1000) and exp(-1001), shifted by 1000, are 1 and 1/e
        rho = gibbs_state([1.0], [OFFSET])
        expected = np.diag([np.e, 1.0]) / (np.e + 1.0)
        assert np.abs(rho.entries - expected).max() <= 1e-12


class TestDualObjective:
    def test_value_and_gradient_at_zero(self):
        value, grad = dual_objective([0.0], ConstraintSet((SZ,), [0.6]))
        assert value == pytest.approx(np.log(2.0), abs=1e-14)
        assert np.allclose(grad, [0.6])

    def test_stationarity_at_solution(self):
        _, grad = dual_objective([-np.log(2.0)], ConstraintSet((SZ,), [0.6]))
        assert np.abs(grad).max() <= 1e-12

    @pytest.mark.parametrize(
        "multipliers, error, message",
        [
            ([0.0, 0.0], DimMismatch, "2 multipliers but 1 observables"),
            ([np.nan], InputValidationError, "multipliers must be finite"),
            # one multiplier in a (1, 1) array: the shape is named, not a count that matches
            ([[0.0]], DimMismatch, r"1 observables but multipliers shaped \(1, 1\)"),
        ],
    )
    def test_multipliers_are_judged(self, multipliers, error, message):
        with pytest.raises(error, match=message):
            dual_objective(multipliers, ConstraintSet((SZ,), [0.6]))

    def test_value_that_is_not_finite(self):
        # log Z + lam . t overflows, or sum_k lam_k A_k does and the value is NaN
        with pytest.raises(Overflow, match="dual value inf"):
            dual_objective([1e308, 1e308], ConstraintSet((SZ, SX), [0.6, 0.1]))
        pair = (make_hermitian(np.diag([1.0, -1.0, 0.0])), make_hermitian(np.diag([1.0, 0.0, -1.0])))
        with pytest.raises(Overflow, match="dual value nan"):
            dual_objective([1e308, 1e308], ConstraintSet(pair, [0.1, 0.1]))

    def test_empty_constraints(self):
        value, grad = dual_objective([], ConstraintSet((), [], dim=4))
        assert value == pytest.approx(np.log(4.0))
        assert grad.size == 0

    def test_offset_spectrum_at_solution(self):
        cs = ConstraintSet((OFFSET,), [1000.1])
        sol = solve_maxent(cs)
        assert sol.multipliers[0] == pytest.approx(np.log(9.0), abs=1e-9)
        value, grad = dual_objective(sol.multipliers, cs)
        assert np.abs(grad).max() <= 1e-10
        assert value == pytest.approx(sol.lambda0 + 1000.1 * sol.multipliers[0], rel=1e-14)

    def test_convexity_probe(self, rng):
        for _ in range(50):
            cs = random_feasible_instance(rng, max_dim=6, max_m=3)
            a = rng.normal(size=cs.m)
            b = rng.normal(size=cs.m)
            va, _ = dual_objective(a, cs)
            vb, _ = dual_objective(b, cs)
            vm, _ = dual_objective((a + b) / 2, cs)
            assert vm <= (va + vb) / 2 + 1e-12

    def test_solver_start_is_the_hessian_at_zero(self, rng):
        n, m, h = 4, 5, 1e-4
        uniform = make_density(np.eye(n) / n)
        observables = tuple(rand_hermitian_radius(rng, n, 1.0) for _ in range(m))
        cs = ConstraintSet(observables, [expectation(uniform, a) for a in observables])
        hinv0 = cs._precond  # the inverse Hessian solve_maxent starts from
        hessian = np.linalg.inv(hinv0)
        steps = np.eye(m) * h
        fd = np.array(
            [(dual_objective(e, cs)[1] - dual_objective(-e, cs)[1]) / (2.0 * h) for e in steps]
        )
        assert np.abs(fd - hessian).max() <= 1e-8
        # at I/n the symmetric metric and the Kubo-Mori metric coincide
        forms = [zero_mean_form(uniform, a) for a in observables]
        metric = np.array([[metric_forms(uniform, f, g) for g in forms] for f in forms])
        assert np.abs(metric - hessian).max() <= 1e-12

    def test_hessian_product_is_the_gradient_jacobian(self, rng):
        def unit(n):
            return rand_hermitian_radius(rng, n, 1.0)

        def cases():
            for _ in range(20):
                n, m = int(rng.integers(2, 7)), int(rng.integers(1, 5))
                yield tuple(unit(n) for _ in range(m)), rng.normal(0.0, 1.5, size=m)
            # repeated eigenvalues of the aggregate: the kernel's phi(0) = 1 on off-diagonal pairs
            degenerate = [make_hermitian(np.diag([1.0, 1.0, 0.0, -2.0])), unit(4), unit(4)]
            yield tuple(degenerate), np.array([0.7, 0.0, 0.0])
            # a spread of 760 in the aggregate: exp(-760) underflows, the kernel stays finite
            spread = [make_hermitian(np.diag([0.0, 0.3, 700.0, 760.0])), unit(4), unit(4)]
            yield tuple(spread), np.array([1.0, 0.4, -0.3])

        h = 1e-5
        for observables, lam in cases():
            state = gibbs_state(lam, observables)
            cs = ConstraintSet(observables, [expectation(state, a) for a in observables])
            hessian = hessian_matrix(cs, lam)
            steps = np.eye(cs.m) * h
            rows = [dual_objective(lam + e, cs)[1] - dual_objective(lam - e, cs)[1] for e in steps]
            fd = np.array(rows).T / (2 * h)
            assert np.abs(fd - hessian).max() <= 1e-7 * np.abs(hessian).max()

    def test_hessian_below_symmetric_covariance(self, rng):
        # the logarithmic mean of (p_a, p_b) is at most their arithmetic mean
        for commuting in (False, True):
            for _ in range(20):
                # m >= 2: a lone observable commutes with its own canonical state
                n, m = int(rng.integers(2, 6)), int(rng.integers(2, 4))
                if commuting:
                    diagonals = rng.normal(size=(m, n))
                    observables = tuple(make_hermitian(np.diag(d)) for d in diagonals)
                else:
                    observables = tuple(rand_hermitian_radius(rng, n, 1.0) for _ in range(m))
                lam = rng.normal(0.0, 2.0, size=m)
                state = gibbs_state(lam, observables)
                try:
                    cs = ConstraintSet(observables, [expectation(state, a) for a in observables])
                except DependentConstraints:
                    continue
                forms = [zero_mean_form(state, a) for a in observables]
                covariance = np.array([[metric_forms(state, f, g) for g in forms] for f in forms])
                gap = covariance - hessian_matrix(cs, lam)
                scale = np.abs(covariance).max()
                if commuting:
                    assert np.abs(gap).max() <= 1e-12 * scale
                else:
                    # positive semidefinite, and not zero: the means differ off the diagonal
                    spectrum = np.linalg.eigvalsh((gap + gap.T) / 2)
                    assert spectrum[0] >= -1e-12 * scale and spectrum[-1] >= 1e-6 * scale


class TestSolveMaxEnt:
    def test_unconstrained_maximum(self):
        sol = solve_maxent(ConstraintSet((), [], dim=3))
        assert np.abs(sol.estimate.entries - np.eye(3) / 3).max() <= 1e-14
        assert sol.s_max == pytest.approx(np.log(3.0), abs=1e-14)
        assert sol.lambda0 == pytest.approx(np.log(3.0), abs=1e-14)
        assert sol.multipliers.size == sol.achieved.size == sol.iterations == 0

    def test_single_diagonal_constraint(self):
        sol = solve_maxent(ConstraintSet((SZ,), [0.6]))
        assert sol.multipliers[0] == pytest.approx(-np.log(2.0), abs=1e-9)
        assert np.allclose(np.diag(sol.estimate.entries).real, [0.8, 0.2], atol=1e-9)
        expected_s = -0.8 * np.log(0.8) - 0.2 * np.log(0.2)
        assert sol.s_max == pytest.approx(expected_s, abs=1e-9)

    def test_qubit_bloch_oracle(self):
        sol = solve_maxent(ConstraintSet((SX, SZ), [0.3, 0.4]))
        assert sol.multipliers[0] == pytest.approx(-ARTANH_HALF * 0.6, abs=1e-8)
        assert sol.multipliers[1] == pytest.approx(-ARTANH_HALF * 0.8, abs=1e-8)
        expected = make_density((np.eye(2) + 0.3 * SIGMA_X + 0.4 * SIGMA_Z) / 2)
        assert trace_distance(sol.estimate, expected) <= 1e-8

    def test_no_eigvalsh_per_observable(self, rng, eig_calls, monkeypatch):
        dual_point = qmaxent.maxent._dual_point
        evaluations = []
        monkeypatch.setattr(
            qmaxent.maxent,
            "_dual_point",
            lambda *args: evaluations.append(args) or dual_point(*args),
        )
        interior = rand_density(rng, 4, min_eig=0.05)
        counts = []
        for m in (1, 3):
            observables = tuple(rand_hermitian(rng, 4) for _ in range(m))
            constraints = ConstraintSet(observables, [expectation(interior, a) for a in observables])
            eig_calls.clear()
            evaluations.clear()
            solve_maxent(constraints)
            counts.append(eig_calls["eigvalsh"])
            # one eigh per dual evaluation; the estimate reuses the last accepted one
            assert eig_calls["eigh"] == len(evaluations)
        # none, whatever m is: the estimate's positivity and s_max read the dual's spectrum
        assert counts == [0, 0]

    def test_uniform_start_needs_no_decomposition(self, rng, eig_calls):
        n = 5
        observables = tuple(rand_hermitian(rng, n) for _ in range(3))
        constraints = ConstraintSet(observables, [np.trace(a.entries).real / n for a in observables])
        eig_calls.clear()
        sol = solve_maxent(constraints)
        # I/n meets the targets, and its spectrum 1/n certifies the estimate: nothing decomposes
        assert not eig_calls
        assert sol.iterations == 0 and not sol.multipliers.any()
        assert sol.lambda0 == np.log(n)
        assert sol.s_max == pytest.approx(np.log(n), abs=1e-14)

    def test_estimate_is_certified_by_its_spectrum(self, rng):
        # the estimate's positivity is read from the spectrum p it is built from, V diag(p) V^dag
        cases = [gibbs_instance(rng, n, m, 0.5) for n, m in ((2, 3), (8, 10), (16, 20), (32, 30))]
        for scale in (4.0, 6.0, 8.0):  # low temperature: unnormalised observables, large lam
            observables = tuple(rand_hermitian(rng, 6) for _ in range(4))
            state = gibbs_state(rng.normal(0.0, scale, size=4), observables)
            cases.append(ConstraintSet(observables, [expectation(state, a) for a in observables]))
        cases.append(ConstraintSet((), [], dim=3))
        for cs in cases:
            sol = solve_maxent(cs)
            p = qmaxent.maxent._dual_point(sol.multipliers, cs._coords, cs.targets)[4][2]
            smallest = np.linalg.eigvalsh(sol.estimate.entries)[0]
            assert smallest >= -1e-14
            assert abs(smallest - p.min()) <= 1e-14

    def test_one_decomposition_per_evaluation(self, rng, eig_calls, monkeypatch):
        constraints = gibbs_instance(rng, 16, 20, 0.5)  # before the count: gibbs_state evaluates too
        counts = {"evaluations": 0}
        dual_point = qmaxent.maxent._dual_point

        def counted_point(*args):
            counts["evaluations"] += 1
            return dual_point(*args)

        monkeypatch.setattr(qmaxent.maxent, "_dual_point", counted_point)
        eig_calls.clear()
        sol = solve_maxent(constraints)
        # none at lam = 0, and this traffic never backtracks: one evaluation per accepted step
        assert eig_calls["eigh"] == counts["evaluations"]
        assert counts["evaluations"] == sol.iterations

    def test_conjugate_gradients_stop_at_the_tolerance(self, rng, monkeypatch):
        instances = [gibbs_instance(rng, 16, 20, 0.5) for _ in range(4)]  # gibbs_state evaluates too
        dual_point, kubo_mori = qmaxent.maxent._dual_point, qmaxent.maxent._kubo_mori_product
        counts = {"evaluations": 0, "products": 0}

        def counted_product(*args):
            product = kubo_mori(*args)

            def counted(x):
                counts["products"] += 1
                return product(x)

            return counted

        def counted_point(*args):
            counts["evaluations"] += 1
            return dual_point(*args)

        monkeypatch.setattr(qmaxent.maxent, "_kubo_mori_product", counted_product)
        monkeypatch.setattr(qmaxent.maxent, "_dual_point", counted_point)
        for constraints in instances:
            solve_maxent(constraints)
        # CG run to its relative stop alone takes 74 products over the same 19 evaluations;
        # none is spent at lam = 0, whose value, gradient and Newton step are known
        assert counts["evaluations"] == 19
        assert counts["products"] < 74

    def test_direction_at_non_positive_curvature(self):
        gradient, precond = np.array([1.0, 1.0]), np.diag([2.0, 3.0])
        # curvature not positive at the first step: preconditioned steepest descent, -P g
        d = qmaxent.maxent._newton_direction(lambda s: -s, gradient, precond, 1e-10)
        assert d.tolist() == (-(precond @ gradient)).tolist()
        # not positive at the second step: the first step's iterate, -(g.Pg / s.Hs) P g
        products = []

        def turning(s):
            products.append(s)
            return np.diag([1.0, 4.0]) @ s if len(products) == 1 else -s

        d = qmaxent.maxent._newton_direction(turning, gradient, np.eye(2), 1e-10)
        assert len(products) == 2
        assert d.tolist() == [-0.4, -0.4]

    def test_overlong_direction_backtracks(self, rng, monkeypatch):
        constraints = gibbs_instance(rng, 8, 10, 0.5)
        expected = solve_maxent(constraints)
        counts = {"evaluations": 0}
        direction, dual_point = qmaxent.maxent._newton_direction, qmaxent.maxent._dual_point

        def counted_point(*args):
            counts["evaluations"] += 1
            return dual_point(*args)

        # five times the CG step is refused at t = 1 and met near t = 1/5, also below a residual
        # of 1e-8, where the value's rounding hides the overshoot; each refusal costs one dual
        # evaluation beyond the one per iteration (none at lam = 0)
        monkeypatch.setattr(qmaxent.maxent, "_newton_direction", lambda *a: 5.0 * direction(*a))
        monkeypatch.setattr(qmaxent.maxent, "_dual_point", counted_point)
        sol = solve_maxent(constraints, tol=1e-10)
        counts["backtracks"] = counts["evaluations"] - sol.iterations
        assert counts["backtracks"] >= sol.iterations - 1 > 0
        assert sol.residual <= 1e-10
        assert trace_distance(sol.estimate, expected.estimate) <= 1e-6

    @pytest.mark.parametrize("factor", [3.0, 5.0, 8.0])
    @pytest.mark.parametrize("n, m", [(4, 3), (8, 10)])
    def test_overlong_direction_meets_a_tight_tolerance(self, rng, monkeypatch, n, m, factor):
        # below a residual of about 1e-8 an overshoot changes the dual value by less than its
        # rounding cushion; the curvature test refuses it there and the secant step shortens it
        instances = [gibbs_instance(rng, n, m, 0.5) for _ in range(5)]
        expected = [solve_maxent(constraints) for constraints in instances]
        direction = qmaxent.maxent._newton_direction
        monkeypatch.setattr(qmaxent.maxent, "_newton_direction", lambda *a: factor * direction(*a))
        for constraints, reference in zip(instances, expected):
            sol = solve_maxent(constraints, tol=1e-10)
            assert sol.residual <= 1e-10
            assert trace_distance(sol.estimate, reference.estimate) <= 1e-8

    def test_ascent_direction_stalls_the_line_search(self, rng, monkeypatch):
        constraints = gibbs_instance(rng, 8, 10, 0.5)
        # every step up to 1e30 g, the gradient, raises the value past the Armijo bound
        monkeypatch.setattr(qmaxent.maxent, "_newton_direction", lambda h, g, p, tol: 1e30 * g)
        with pytest.raises(MaxIterExceeded, match="line search stalled before reaching"):
            solve_maxent(constraints)

    @pytest.mark.parametrize(
        "seed, delta, n, m",
        [
            (1, 1e-6, 6, 16),
            (7, 1e-12, 5, 12),
            (9, 1e-8, 6, 19),
            (30, 1e-4, 5, 10),
            (46, 1e-6, 5, 14),
            (64, 1e-10, 4, 11),
            (67, 1e-8, 5, 12),
            (79, 1e-8, 6, 19),
            (85, 1e-6, 5, 17),
        ],
    )
    def test_near_pure_targets_converge(self, seed, delta, n, m):
        # near purity the Hessian is ill-conditioned and rounding costs CG its conjugacy: m
        # CG steps left directions that the line search shortened until MaxIterExceeded
        constraints = near_pure_instance(seed, delta)
        assert (constraints.dim, len(constraints.observables)) == (n, m)
        sol = solve_maxent(constraints)
        assert sol.residual <= 1e-10 and sol.iterations <= 30
        means = [expectation(sol.estimate, a) for a in constraints.observables]
        assert np.abs(np.array(means) - constraints.targets).max() <= 2e-10

    def test_iterations_at_moderate_scale(self, rng):
        # from the identity, BFGS needs 29 or more iterations on these sizes
        for n, m in ((8, 10), (16, 20)):
            for _ in range(4):
                sol = solve_maxent(gibbs_instance(rng, n, m, 0.5))
                assert sol.iterations <= 25

    def test_iterates_invariant_under_rescaling(self, rng):
        cs = gibbs_instance(rng, 6, 8, 0.5)
        base = solve_maxent(cs)
        tight = solve_maxent(cs, tol=1e-13).iterations
        solved = {}
        for factor in (1e3, 1e-3):
            observables, targets = list(cs.observables), cs.targets.copy()
            observables[2] = make_hermitian(factor * observables[2].entries)
            targets[2] *= factor
            sol = solve_maxent(ConstraintSet(tuple(observables), targets))
            assert sol.multipliers[2] == pytest.approx(base.multipliers[2] / factor, rel=1e-6)
            solved[factor] = sol.iterations
        # the iterates do not change; only the stop does, since the rescaled
        # constraint's residual is 1e3 (1e-3) times the original one
        assert base.iterations <= solved[1e3] <= tight
        assert base.iterations - 1 <= solved[1e-3] <= base.iterations

    def test_converged_trial_accepted_despite_rounding(self):
        # low temperature: at dual evaluation 13 the residual is 5e-15, yet the dual value's
        # rounding (~4e-14) exceeds the Armijo cushion, so that rule alone rejects it
        rng = np.random.default_rng(np.random.SeedSequence(105).spawn(60)[43])
        observables = tuple(rand_hermitian(rng, 6) for _ in range(4))
        state = gibbs_state(rng.normal(0.0, 6.0, size=4), observables)
        targets = [expectation(state, a) for a in observables]
        sol = solve_maxent(ConstraintSet(observables, targets))
        assert sol.residual <= 1e-10 and sol.iterations < 30

    def test_boundary_target_infeasible(self):
        with pytest.raises(Infeasible):
            solve_maxent(ConstraintSet((SZ,), [1.0]))

    def test_jointly_unreachable_targets(self):
        with pytest.raises(Infeasible):
            solve_maxent(ConstraintSet((SX, SZ), [0.9, 0.9]))

    def test_barely_unreachable_targets_refused_early(self, monkeypatch):
        # the nearest face holds a mixed state, so the dual value only creeps toward 0
        # and stays above it past rounding resolution; the hyperplane refuses at once
        evaluations = []
        original = qmaxent.maxent._dual_point

        def counted(*args):
            evaluations.append(None)
            return original(*args)

        monkeypatch.setattr(qmaxent.maxent, "_dual_point", counted)
        x, z = (make_hermitian(np.kron(s, np.eye(2))) for s in (SIGMA_X, SIGMA_Z))
        with pytest.raises(Infeasible):
            solve_maxent(ConstraintSet((x, z), [0.6, 0.8 + 1e-9]))
        assert len(evaluations) <= 50

    # a small observable needs a large multiplier; only the dual value can refuse a target
    def test_small_observable_beside_a_unit_one(self):
        unit = solve_maxent(ConstraintSet((SX, make_hermitian(SIGMA_Y)), [0.3, 0.4]))
        small = make_hermitian(1e-7 * SIGMA_Y)
        sol = solve_maxent(ConstraintSet((SX, small), [0.3, 0.4e-7]))
        assert sol.multipliers * [1.0, 1e-7] == pytest.approx(unit.multipliers, rel=1e-6)

    def test_small_single_observable(self):
        cs = ConstraintSet((make_hermitian(1e-5 * SIGMA_Z),), [0.6e-5])
        sol = solve_maxent(cs, tol=1e-16)
        assert sol.multipliers[0] * 1e-5 == pytest.approx(-np.arctanh(0.6), abs=1e-8)

    def test_target_near_a_small_spectral_gap(self):
        a = make_hermitian(np.diag([0.0, 1e-3, 1.0]))
        sol = solve_maxent(ConstraintSet((a,), [4.5e-8]), tol=1e-18)
        lam, _ = solve_prior_tilt(make_density(np.eye(3) / 3), a, 4.5e-8, tol=1e-18)
        assert sol.residual <= 1e-18
        assert sol.multipliers[0] == pytest.approx(lam, rel=1e-8)

    def test_random_instances_residual(self, rng):
        for _ in range(60):
            sol = solve_maxent(random_feasible_instance(rng))
            assert sol.residual <= 1e-8

    def test_s_max_consistency(self, rng):
        for _ in range(30):
            cs = random_feasible_instance(rng, max_dim=6, max_m=4)
            sol = solve_maxent(cs)
            assert sol.s_max == pytest.approx(von_neumann_entropy(sol.estimate), abs=1e-8)
            explicit = sol.lambda0 + float(sol.multipliers @ cs.targets)
            assert sol.s_max == pytest.approx(explicit, abs=1e-8)

    def test_low_temperature_corpus(self, rng):
        # multipliers ~ N(0, s^2) on unnormalised observables: nearly pure canonical states
        for s in (4.0, 6.0, 8.0):
            for _ in range(10):
                observables = tuple(rand_hermitian(rng, 6) for _ in range(4))
                lam = rng.normal(0.0, s, size=4)
                aggregate = np.tensordot(lam, [a.entries for a in observables], axes=1)
                w = np.linalg.eigvalsh(aggregate)
                log_z = -w[0] + np.log(np.exp(w[0] - w).sum())
                state = gibbs_state(lam, observables)
                targets = np.array([expectation(state, a) for a in observables])
                # the dual is flat here: judge the residual and the entropy, not the multipliers
                sol = solve_maxent(ConstraintSet(observables, targets))
                assert sol.residual <= 1e-10
                assert sol.s_max == pytest.approx(log_z + float(lam @ targets), abs=1e-8)

    def test_qubit_entropy_maximality_against_grid(self, rng):
        for _ in range(5):
            m = int(rng.integers(1, 3))
            observables = tuple(rand_hermitian(rng, 2) for _ in range(m))
            interior = rand_density(rng, 2, min_eig=0.1)
            targets = [expectation(interior, a) for a in observables]
            sol = solve_maxent(ConstraintSet(observables, targets))
            grid_max, _ = bloch_feasible_max_entropy(observables, targets)
            assert sol.s_max >= grid_max - 1e-6

    def test_commuting_reduction(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, min(3, n - 1) + 1))
            vals = np.array([rng.normal(size=n) for _ in range(m)])
            observables = tuple(make_hermitian(np.diag(v)) for v in vals)
            p_interior = rng.random(n)
            p_interior /= p_interior.sum()
            p_interior = 0.6 * p_interior + 0.4 / n
            targets = vals @ p_interior
            sol = solve_maxent(ConstraintSet(observables, targets), tol=1e-13, max_iter=2000)
            classical = classical_gibbs_oracle(np.full(n, 1.0 / n), vals, targets, tol=1e-13)
            assert np.abs(np.diag(sol.estimate.entries).real - classical).max() <= 1e-10
            off = sol.estimate.entries - np.diag(np.diag(sol.estimate.entries))
            assert np.abs(off).max() <= 1e-12


class TestEntropySensitivity:
    def test_single_constraint_matches_artanh(self):
        sens = entropy_sensitivity(ConstraintSet((SZ,), [0.6]))
        assert abs(sens[0] + np.log(2.0)) / np.log(2.0) <= 1e-3

    def test_symmetric_point(self):
        sens = entropy_sensitivity(ConstraintSet((SZ,), [0.0]))
        assert abs(sens[0]) <= 1e-6

    def test_matches_solved_multipliers(self):
        cs = ConstraintSet((SX, SZ), [0.3, 0.4])
        sol = solve_maxent(cs)
        sens = entropy_sensitivity(cs)
        assert np.abs((sens - sol.multipliers) / sol.multipliers).max() <= 1e-3


    def test_observables_judged_once(self, rng, monkeypatch):
        # the 2m shifted solves reuse the observables' coordinates and preconditioner and
        # judge the targets again, with the results of fresh constraint sets bit for bit
        n, m = 4, 3
        observables = [rand_hermitian(rng, n) for _ in range(m)]
        state = rand_density(rng, n, min_eig=0.05)
        cs = ConstraintSet(observables, [expectation(state, a) for a in observables])
        expected = []
        for j in range(m):
            values = []
            for sign in (1.0, -1.0):
                shifted = cs.targets.copy()
                shifted[j] += sign * 1e-4
                values.append(solve_maxent(ConstraintSet(observables, shifted)).s_max)
            expected.append((values[0] - values[1]) / 2e-4)
        calls = []
        check = ConstraintSet._check_independent
        counted = staticmethod(lambda *args: calls.append(args) or check(*args))
        monkeypatch.setattr(ConstraintSet, "_check_independent", counted)
        assert entropy_sensitivity(cs).tolist() == expected
        assert not calls

    @pytest.mark.parametrize("target", [1.0 - 5e-5, 1.0 - 1e-4])
    def test_shift_past_the_spectral_edge(self, target):
        # past the edge (1.00005) and onto it (1.0 exactly): the refusal of a fresh set
        with pytest.raises(Infeasible) as fresh:
            solve_maxent(ConstraintSet((SZ,), np.array([target]) + 1e-4))
        with pytest.raises(Infeasible) as moved:
            entropy_sensitivity(ConstraintSet((SZ,), [target]))
        assert str(moved.value) == str(fresh.value)

    def test_boundary_target_not_moved(self):
        # target 1 on its spectral edge: the first shifted set, target 0 moved, refuses it
        # as a fresh set does
        with pytest.raises(Infeasible, match="on the boundary") as fresh:
            solve_maxent(ConstraintSet((SX, SZ), [0.3 + 1e-4, 1.0]))
        with pytest.raises(Infeasible) as moved:
            entropy_sensitivity(ConstraintSet((SX, SZ), [0.3, 1.0]))
        assert str(moved.value) == str(fresh.value)


class TestPriorTilt:
    def test_uniform_prior_reduces_to_gibbs(self):
        # tol bounds the mean, so lam only to about tol / var: solve well below 1e-10
        lam, est = solve_prior_tilt(make_density(np.eye(2) / 2), SZ, 0.6, tol=1e-13)
        assert lam == pytest.approx(-np.log(2.0), abs=1e-10)
        assert np.allclose(np.diag(est.entries).real, [0.8, 0.2], atol=1e-10)

    def test_already_satisfied(self):
        prior = make_density((np.eye(2) + 0.5 * SIGMA_X) / 2)
        lam, est = solve_prior_tilt(prior, SZ, 0.0)
        assert lam == 0.0
        assert est is prior

    def test_non_commuting_hand_case(self):
        prior = make_density((np.eye(2) + 0.5 * SIGMA_X) / 2)
        lam, est = solve_prior_tilt(prior, SZ, 0.6, tol=1e-13)
        assert lam == pytest.approx(-np.log(2.0), abs=1e-10)
        expected = np.array([[0.8, 0.2], [0.2, 0.2]])
        assert np.abs(est.entries - expected).max() <= 1e-10

    def test_infeasible_targets(self):
        prior = make_density(np.eye(2) / 2)
        with pytest.raises(Infeasible):
            solve_prior_tilt(prior, SZ, 1.0)
        with pytest.raises(Infeasible):
            solve_prior_tilt(prior, SZ, -1.2)

    def test_monotone_mean_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = rand_hermitian_radius(rng, n, 1.0)
            prior = rand_density(rng, n, min_eig=0.02)
            lams = np.linspace(-10.0, 10.0, 50)
            means = []
            for lam in lams:
                if lam == 0.0:
                    state = prior
                else:
                    from qmaxent import closed_form_flow

                    state = closed_form_flow(prior, a, float(lam))
                means.append(expectation(state, a))
            assert np.all(np.diff(means) < 0.0)

    def test_unresolved_target_stops_at_a_fixed_point(self):
        # eigenvalues -+1e300 resolve no mean near 0.5: the iterate repeats, so the solve
        # stops there instead of spending the remaining iterations
        a = make_hermitian(np.diag([1e300, -1e300]))
        with pytest.raises(MaxIterExceeded, match="below the resolution of the values.* repeat"):
            solve_prior_tilt(make_density(np.eye(2) / 2), a, 0.5, max_iter=500)

    def test_uniform_reduction_matches_solver(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = rand_hermitian(rng, n)
            interior = rand_density(rng, n, min_eig=0.1 / n)
            target = expectation(interior, a)
            lam, est = solve_prior_tilt(
                make_density(np.eye(n) / n), a, target, tol=1e-12
            )
            sol = solve_maxent(ConstraintSet((a,), [target]), tol=1e-12)
            assert trace_distance(est, sol.estimate) <= 1e-8


class TestClassicalOracle:
    def test_unconstrained_uniform(self):
        p = classical_gibbs_oracle([0.5, 0.5], np.zeros((0, 2)), [])
        assert np.allclose(p, [0.5, 0.5])

    def test_binary_tilt(self):
        p = classical_gibbs_oracle([0.5, 0.5], [[1.0, -1.0]], [0.6])
        assert np.allclose(p, [0.8, 0.2], atol=1e-12)

    def test_boundary_infeasible(self):
        with pytest.raises(Infeasible):
            classical_gibbs_oracle([0.5, 0.5], [[1.0, -1.0]], [1.0])

    @pytest.mark.parametrize(
        "weights, values", [([0.5, 0.5], [[1.0, 1.0]]), ([1 - 1e-13, 1e-13], [[1.0, -1.0]])]
    )
    def test_weights_that_meet_a_target_at_the_end_of_the_range(self, weights, values):
        # no tilt moves the mean inside the open range, but the weights meet the target 1.0
        # within tol as given
        p = classical_gibbs_oracle(weights, values, [1.0], tol=1e-12)
        assert np.array_equal(p, weights)

    @pytest.mark.parametrize(
        "weights, values, error, message",
        [
            ([], [[]], InputValidationError, "nonempty finite vector"),
            ([1.5, -0.5], [[1.0, -1.0]], NotPositive, "smallest eigenvalue -5.000e-01"),
            ([0.45, 0.45], [[1.0, -1.0]], TraceNotOne, "trace is 0.9"),
            ([0.5, 0.5], [[1.0, -1.0, 0.0]], DimMismatch, r"values shape \(1, 3\)"),
            ([0.5, 0.5], [[1.0, np.nan]], InputValidationError, "values and targets must be"),
        ],
    )
    def test_inputs_are_judged(self, weights, values, error, message):
        with pytest.raises(error, match=message):
            classical_gibbs_oracle(weights, values, [0.1])

    def test_weights_that_diag_accepts_are_accepted(self):
        # the density rule that make_density(np.diag(w)) applies; the -5e-11 weight is 0
        weights = [0.5 + 5e-11, 0.5, -5e-11]
        make_density(np.diag(weights))
        p = classical_gibbs_oracle(weights, [[1.0, -1.0, 0.0]], [0.2])
        assert np.abs(p - [0.6, 0.4, 0.0]).max() <= 1e-12 and p[2] == 0.0

    @pytest.mark.parametrize("scale", [1e-5, 1e-8, 1e-200])
    def test_scale_free(self, scale):
        reference = classical_gibbs_oracle([0.25, 0.25, 0.5], [[0.0, 1.0, 2.0]], [0.6])
        values, target = [[0.0, scale, 2.0 * scale]], [0.6 * scale]
        p = classical_gibbs_oracle([0.25, 0.25, 0.5], values, target, tol=1e-12 * scale)
        assert np.abs(p - reference).max() <= 1e-10

    def test_jointly_unreachable_targets(self):
        # each target lies inside its own range, but no distribution meets both
        with pytest.raises(Infeasible, match="below min_i lam . v_i"):
            classical_gibbs_oracle(np.full(3, 1 / 3), [[0, 1, 0], [0, 0, 1]], [0.6, 0.6])

    @pytest.mark.filterwarnings("error")
    def test_tiny_weight_reaches_two_point_answer(self):
        # a full Newton step from a near-zero covariance overshoots to where p is one-hot
        # (an exactly zero Hessian) or overflows; bounded steps reach the two-point answer
        v1, v2 = 0.0, 1.0
        for weights, t in ([1.0, 1e-20], 0.99999999), ([1.0, 1e-300], 0.5), ([1.0, 5e-324], 0.5):
            p = classical_gibbs_oracle(weights, [[v1, v2]], [t])
            assert np.abs(p - [(v2 - t) / (v2 - v1), (t - v1) / (v2 - v1)]).max() <= 1e-12

    def test_target_below_the_values_resolution_is_not_met(self):
        # centred at 3.0 and divided by their spread, the values are exactly -+1/2: their mean
        # 0 looks met there, a miss of 3.0 in the caller's units; the gradient there is
        # exactly 0, so the first step repeats the iterate and every later one would too
        with pytest.raises(MaxIterExceeded, match="below the resolution of the values"):
            classical_gibbs_oracle([0.5, 0.5], [[1e17, -1e17]], [3.0])
        # at a tolerance the values resolve, the same route meets a target off the midpoint
        p = classical_gibbs_oracle([0.5, 0.5], [[1e17, -1e17]], [3e12], tol=1e5)
        assert abs(p @ [1e17, -1e17] - 3e12) <= 1e5

    def test_overlong_direction_stalls_the_line_search(self, monkeypatch):
        # every step up to 1e-20 of a direction 1e30 times Newton's overshoots the Armijo bound,
        # in the oracle and in the prior tilt, which runs the same iteration
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: 1e30 * solve(a, b))
        with pytest.raises(MaxIterExceeded, match="^line search stalled$"):
            classical_gibbs_oracle([0.5, 0.5], [[1.0, -1.0]], [0.6])
        with pytest.raises(MaxIterExceeded, match="^line search stalled$"):
            solve_prior_tilt(make_density(np.diag([0.7, 0.3])), SX, 0.2)

    def test_targets_hit_random(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 10))
            m = int(rng.integers(1, min(4, n)))
            vals = np.array([rng.normal(size=n) for _ in range(m)])
            w = rng.random(n)
            w /= w.sum()
            p_interior = 0.5 * w + 0.5 / n
            targets = vals @ p_interior
            p = classical_gibbs_oracle(w, vals, targets)
            assert np.abs(vals @ p - targets).max() <= 1e-10
            assert abs(p.sum() - 1.0) <= 1e-12


# each call would return at once with valid controls: the target is already met,
# or there is nothing to solve, so the controls must be checked first
CONTROLLED_ROUTINES = {
    "solve_maxent": lambda **c: solve_maxent(ConstraintSet((SZ,), [0.0]), **c),
    "solve_prior_tilt": lambda **c: solve_prior_tilt(make_density(np.eye(2) / 2), SZ, 0.0, **c),
    "flow_to_constraint": lambda **c: flow_to_constraint(
        make_density(np.eye(2) / 2), SZ, 0.0, **c
    ),
    "classical_gibbs_oracle": lambda **c: classical_gibbs_oracle([1.0], np.zeros((0, 1)), [], **c),
    "entropy_sensitivity": lambda **c: entropy_sensitivity(ConstraintSet((), [], dim=2), **c),
}


@pytest.mark.parametrize("routine", sorted(CONTROLLED_ROUTINES))
@pytest.mark.parametrize(
    "control, value",
    [("tol", t) for t in (0.0, -1.0, np.nan, np.inf)]
    + [("max_iter", k) for k in (0, -3, 2.5, True)],
)
def test_solver_controls_checked_first(routine, control, value):
    CONTROLLED_ROUTINES[routine]()  # valid defaults pass
    with pytest.raises(InputValidationError):
        CONTROLLED_ROUTINES[routine](**{control: value})
