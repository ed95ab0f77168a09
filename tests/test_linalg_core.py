"""Linear-algebra kernel tests against numpy oracles and hand values."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from flab.errors import (
    DimensionMismatch,
    Error,
    InvalidProjection,
    NotPD,
    NotPSD,
    NotSymmetric,
)
from flab.linalg_core import (
    CostMatrix,
    Definiteness,
    Projection,
    check_symmetric,
    definiteness,
    jacobi_eigh,
    kahan_dot,
    max_norm,
    quad_form,
    span_within,
    sym_sqrt,
)


def random_symmetric(rng, d, scale=1.0):
    m = rng.normal(size=(d, d)) * scale
    return 0.5 * (m + m.T)


def random_spd(rng, d, lo=0.4, hi=3.0):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return q @ np.diag(rng.uniform(lo, hi, size=d)) @ q.T


class TestJacobi:
    def test_matches_numpy_eigh_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3, 4, 6, 8):
            for _ in range(20):
                m = random_symmetric(rng, d, scale=rng.uniform(0.1, 10.0))
                w, v = jacobi_eigh(m)
                w_ref = np.linalg.eigvalsh(m)
                scale = 1.0 + np.abs(w_ref).max()
                assert np.abs(w - w_ref).max() <= 1e-10 * scale
                assert max_norm(v.T @ v - np.eye(d)) <= 1e-12
                assert max_norm(v @ np.diag(w) @ v.T - m) <= 1e-11 * scale

    def test_eigenvalues_sorted_ascending(self):
        w, _ = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
        assert list(w) == sorted(w)

    def test_diagonal_matrix_exact(self):
        w, v = jacobi_eigh(np.diag([2.0, 5.0]))
        assert list(w) == [2.0, 5.0]
        assert max_norm(np.abs(v) - np.eye(2)) == 0.0

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetric):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_near_degenerate_pair(self):
        m = np.diag([1.0, 1.0 + 1e-13, 4.0])
        w, v = jacobi_eigh(m)
        assert np.abs(np.sort(w) - np.diag(m)).max() <= 1e-12
        assert max_norm(v.T @ v - np.eye(3)) <= 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("power", [-900, -500, 500, 900])
    def test_power_of_two_scaling_is_exact(self, power):
        # far from 1 the input is rescaled, and the result scales bit for bit
        rng = np.random.default_rng(12)
        for d in (1, 2, 3, 5):
            m = random_symmetric(rng, d)
            w, v = jacobi_eigh(m)
            w_scaled, v_scaled = jacobi_eigh(np.ldexp(m, power))
            assert np.array_equal(w_scaled, np.ldexp(w, power))
            assert np.array_equal(v_scaled, v)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("magnitude", [1e-200, 1e200])
    def test_extreme_magnitudes(self, magnitude):
        w, _ = jacobi_eigh(magnitude * np.array([[1.0, 0.9], [0.9, 1.0]]))
        assert w / magnitude == pytest.approx([0.1, 1.9], rel=1e-14)


def per_element_jacobi_eigh(matrix):
    """Cyclic Jacobi that rotates one entry at a time in scalar arithmetic.

    The reference for `jacobi_eigh`: same sweep order, same rotation angle
    and same stopping rule, with every row and column update spelled out
    as a loop over its entries.
    """
    a = np.array(matrix, dtype=float)
    a = 0.5 * (a + a.T)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), v
    scale = float(np.sqrt(np.sum(a * a)))
    if scale == 0.0:
        return np.zeros(n), v
    tol = 1e-13 * scale
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(100):
        if math.sqrt(float(np.sum(a[off_mask] ** 2))) < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                diff = a[q, q] - a[p, p]
                if abs(diff) > 1e12 * abs(apq):
                    t = apq / diff
                else:
                    theta = diff / (2.0 * apq)
                    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                for k in range(n):
                    akp = a[k, p]
                    akq = a[k, q]
                    a[k, p] = c * akp - s * akq
                    a[k, q] = s * akp + c * akq
                for k in range(n):
                    apk = a[p, k]
                    aqk = a[q, k]
                    a[p, k] = c * apk - s * aqk
                    a[q, k] = s * apk + c * aqk
                a[p, q] = 0.0
                a[q, p] = 0.0
                for k in range(n):
                    vkp = v[k, p]
                    vkq = v[k, q]
                    v[k, p] = c * vkp - s * vkq
                    v[k, q] = s * vkp + c * vkq
    else:
        raise AssertionError("reference Jacobi did not converge")
    w = a.diagonal().copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def assert_same_bits(m):
    w, v = jacobi_eigh(m)
    w_ref, v_ref = per_element_jacobi_eigh(m)
    assert np.array_equal(w, w_ref)
    assert np.array_equal(v, v_ref)


class TestJacobiRotations:
    """Whole-row and whole-column rotations round exactly like the per-entry loop."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16])
    def test_random_symmetric(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(5 if d < 16 else 2):
            assert_same_bits(random_symmetric(rng, d, scale=rng.uniform(0.1, 10.0)))

    @pytest.mark.parametrize("d,rank", [(2, 1), (3, 1), (5, 2), (8, 3), (16, 7)])
    def test_rank_deficient_projectors(self, d, rank):
        rng = np.random.default_rng(200 + d)
        q, _ = np.linalg.qr(rng.normal(size=(d, rank)))
        p = q @ q.T
        assert_same_bits(0.5 * (p + p.T))
        assert_same_bits(np.eye(d) - 0.5 * (p + p.T))

    def test_diagonal(self):
        assert_same_bits(np.diag([3.0, -1.0, 2.0, 0.5, -7.25]))

    def test_zero(self):
        assert_same_bits(np.zeros((4, 4)))


class TestDefiniteness:
    @pytest.mark.parametrize(
        "matrix,expected",
        [
            (np.diag([1.0, 2.0]), Definiteness.PD),
            (np.diag([0.0, 2.0]), Definiteness.PSD),
            (np.diag([-1.0, -2.0]), Definiteness.ND),
            (np.diag([0.0, -2.0]), Definiteness.NSD),
            (np.diag([-1.0, 2.0]), Definiteness.INDEFINITE),
            (np.zeros((2, 2)), Definiteness.ZERO),
        ],
    )
    def test_labels(self, matrix, expected):
        assert definiteness(matrix) is expected

    def test_tolerance_scales_with_magnitude(self):
        m = np.diag([1e6, 1e-5])
        assert definiteness(m) is Definiteness.PSD
        assert definiteness(np.diag([1.0, 1e-5])) is Definiteness.PD


class TestSymSqrt:
    def test_square_recovers_input(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = random_spd(rng, 3)
            r = sym_sqrt(m)
            assert max_norm(r @ r - m) <= 1e-10
            assert max_norm(r - r.T) == 0.0

    def test_diagonal_known_value(self):
        r = sym_sqrt(np.diag([0.25, 2.0 / 3.0]))
        assert r[0, 0] == 0.5
        assert r[1, 1] == pytest.approx(0.816496580927726, rel=1e-15)

    def test_clamps_roundoff_negatives(self):
        m = np.diag([1.0, -1e-12])
        r = sym_sqrt(m)
        assert r[1, 1] == 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            sym_sqrt(np.diag([1.0, -0.5]))


class TestCompensatedSums:
    def test_kahan_dot(self):
        x = np.array([1e8, 1.0, -1e8])
        y = np.array([1.0, 0.5, 1.0])
        assert kahan_dot(x, y) == 0.5

    def test_overflow_gives_ieee_values(self):
        # each term is finite, but the total overflows
        big = np.array([1e154, 1e154])
        assert kahan_dot(big, big) == np.inf
        assert quad_form(big, np.eye(2)) == np.inf
        with np.errstate(over="ignore"):
            assert np.isnan(kahan_dot(np.array([1e200, 1e200]), np.array([1e200, -1e200])))

    def test_quad_form_matches_direct(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = random_symmetric(rng, 4)
            x = rng.normal(size=4)
            assert quad_form(x, m) == pytest.approx(float(x @ m @ x), rel=1e-12, abs=1e-12)


class TestCostMatrix:
    def test_inverse_and_trace(self):
        cost = CostMatrix(np.diag([2.0, 1.0]))
        assert max_norm(cost.inverse - np.diag([0.5, 1.0])) == 0.0
        assert cost.trace_inverse == 1.5
        assert cost.dim == 2

    def test_inverse_of_rotated_matrix(self):
        rng = np.random.default_rng(41)
        m = random_spd(rng, 4)
        cost = CostMatrix(m)
        assert max_norm(cost.matrix @ cost.inverse - np.eye(4)) <= 1e-12

    def test_rejects_indefinite_and_singular(self):
        with pytest.raises(NotPD):
            CostMatrix(np.diag([1.0, -1.0]))
        with pytest.raises(NotPD):
            CostMatrix(np.diag([1.0, 0.0]))

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetric):
            CostMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.filterwarnings("error")
    def test_rejects_eigenvalue_whose_square_overflows(self):
        CostMatrix(np.diag([1e150, 1e154]))
        with pytest.raises(Error, match="squares out of floating-point range"):
            CostMatrix(np.array([[1e200, 9e199], [9e199, 1e200]]))

    def test_matrix_is_frozen(self):
        cost = CostMatrix(np.eye(2))
        with pytest.raises(ValueError):
            cost.matrix[0, 0] = 5.0


class TestProjection:
    def test_accepts_valid_projector(self):
        p = Projection(np.diag([1.0, 0.0]))
        assert p.rank == 1
        assert p.dim == 2

    def test_rejects_non_idempotent(self):
        with pytest.raises(InvalidProjection):
            Projection(np.diag([0.5, 1.0]))

    def test_from_span_orthonormalizes(self):
        p = Projection.from_span([np.array([2.0, 0.0]), np.array([1.0, 1.0])], dim=2)
        assert max_norm(p.matrix - np.eye(2)) <= 1e-12
        assert p.rank == 2

    def test_from_span_drops_dependent_vectors(self):
        p = Projection.from_span([np.array([1.0, 1.0]), np.array([2.0, 2.0])], dim=2)
        assert p.rank == 1
        assert max_norm(p.matrix - 0.5 * np.ones((2, 2))) <= 1e-12

    def test_from_span_empty_is_the_zero_projector(self):
        p = Projection.from_span([], dim=3)
        assert p.rank == 0
        assert np.array_equal(p.matrix, np.zeros((3, 3)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("big", [1e308, 3e154, -1e308])
    def test_from_span_huge_vector_keeps_its_direction(self, big):
        p = Projection.from_span([np.array([big, 0.0])], dim=2)
        assert np.array_equal(p.matrix, Projection.from_span([np.array([1.0, 0.0])], dim=2).matrix)
        assert p.rank == 1

    @pytest.mark.filterwarnings("error")
    def test_from_span_huge_diagonal_vector(self):
        p = Projection.from_span([np.array([1e154, 1e154])], dim=2)
        assert p.rank == 1
        assert max_norm(p.matrix - Projection.from_span([np.array([1.0, 1.0])], dim=2).matrix) <= 1e-15

    def test_from_span_dependence_threshold_stays_absolute(self):
        # beside a huge first vector, a residual of 1e-20 is still dependent
        p = Projection.from_span([np.array([1e300, 0.0]), np.array([1e300, 1e-20])], dim=2)
        assert p.rank == 1
        assert Projection.from_span([np.array([1e-11, 0.0])], dim=2).rank == 0

    @pytest.mark.filterwarnings("error")
    def test_out_of_range_entry_rejected_before_overflow(self):
        with pytest.raises(InvalidProjection, match="projector entry 1.000e\\+308 exceeds 1"):
            Projection(np.array([[1.0, 0.0], [0.0, 1e308]]))

    def test_oblique_projector_rejected(self):
        # idempotent but not symmetric, hence not orthogonal
        m = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert max_norm(m @ m - m) == 0.0
        with pytest.raises(InvalidProjection):
            Projection(m)


def complement_null_space_within(p1, p2):
    """The former null-space test: the complement projectors I - P1 and
    I - P2 (exactly symmetric, so `Projection` kept their bits), then
    span(I - P1) within span(I - P2) as (I - P2)(I - P1) = I - P1."""
    eye = np.eye(p1.dim)
    c1 = eye - p1.matrix
    c2 = eye - p2.matrix
    return max_norm(c2 @ c1 - c1) <= 1e-9


def projector(basis):
    """The projector onto orthonormal columns, symmetrised as `Projection`
    does, without its validating eigensolve."""
    m = basis @ basis.T
    return SimpleNamespace(matrix=0.5 * (m + m.T), dim=basis.shape[0])


def random_projector_pair(rng, d):
    """Two projectors onto leading columns of random orthonormal bases:
    nested either way, equal, the second nested in the first up to a tilt
    near the 1e-9 tolerance, or on independent bases."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    small, large = sorted(int(k) for k in rng.integers(0, d + 1, size=2))
    kind = rng.integers(5)
    if kind == 0:
        return projector(q[:, :small]), projector(q[:, :large])
    if kind == 1:
        return projector(q[:, :large]), projector(q[:, :small])
    if kind == 2:
        return projector(q[:, :large]), projector(q[:, :large])
    if kind == 3 and 0 < small and large < d:
        angle = 10.0 ** rng.uniform(-12, -6)
        tilted = q[:, :small].copy()
        tilted[:, -1] = math.cos(angle) * q[:, small - 1] + math.sin(angle) * q[:, large]
        return projector(q[:, :large]), projector(tilted)
    other, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return projector(q[:, :small]), projector(other[:, :large])


class TestSubspaceRelation:
    def test_all_four_outcomes(self):
        e1 = Projection(np.diag([1.0, 0.0, 0.0]))
        e12 = Projection(np.diag([1.0, 1.0, 0.0]))
        e2 = Projection(np.diag([0.0, 1.0, 0.0]))
        # equal, first within second, second within first, incomparable
        for first, second, forward, backward in (
            (e1, e1, True, True),
            (e1, e12, True, False),
            (e12, e1, False, True),
            (e1, e2, False, False),
        ):
            assert span_within(first, second) is forward
            assert span_within(second, first) is backward

    def test_rotated_basis(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        inner = Projection(q[:, :2] @ q[:, :2].T)
        outer = Projection(q[:, :3] @ q[:, :3].T)
        assert span_within(inner, outer)
        assert not span_within(outer, inner)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            span_within(Projection(np.eye(2)), Projection(np.eye(3)))

    def test_null_space_check_matches_complement_projectors(self):
        # null(P1) within null(P2) is span(P2) within span(P1)
        rng = np.random.default_rng(606)
        outcomes = {True: 0, False: 0}
        near_tolerance = 0
        for trial in range(2400):
            p1, p2 = random_projector_pair(rng, 1 + trial % 8)
            expect = complement_null_space_within(p1, p2)
            assert span_within(p2, p1) == expect, trial
            outcomes[expect] += 1
            near_tolerance += 1e-11 < max_norm(p1.matrix @ p2.matrix - p2.matrix) < 1e-7
        assert min(outcomes.values()) >= 600
        assert near_tolerance >= 100


class TestCheckSymmetric:
    def test_accepts_tiny_asymmetry(self):
        m = np.array([[1.0, 1e-14], [0.0, 1.0]])
        check_symmetric(m)

    def test_rejects_visible_asymmetry(self):
        with pytest.raises(NotSymmetric):
            check_symmetric(np.array([[1.0, 1e-3], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(Error):
            check_symmetric(np.zeros((2, 3)))
