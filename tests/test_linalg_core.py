"""Linear-algebra kernel tests against numpy oracles and hand values."""

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
    SpanRelation,
    check_symmetric,
    definiteness,
    jacobi_eigh,
    kahan_dot,
    max_norm,
    quad_form,
    subspace_relation,
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
            y = rng.normal(size=4)
            assert quad_form(x, m) == pytest.approx(float(x @ m @ x), rel=1e-12, abs=1e-12)
            assert quad_form(x, m, y) == pytest.approx(float(x @ m @ y), rel=1e-12, abs=1e-12)


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
        p = Projection.from_span([np.array([2.0, 0.0]), np.array([1.0, 1.0])])
        assert max_norm(p.matrix - np.eye(2)) <= 1e-12
        assert p.rank == 2

    def test_from_span_drops_dependent_vectors(self):
        p = Projection.from_span([np.array([1.0, 1.0]), np.array([2.0, 2.0])])
        assert p.rank == 1
        assert max_norm(p.matrix - 0.5 * np.ones((2, 2))) <= 1e-12

    def test_from_span_empty_needs_dim(self):
        with pytest.raises(DimensionMismatch):
            Projection.from_span([])
        p = Projection.from_span([], dim=3)
        assert p.rank == 0

    def test_complement(self):
        p = Projection(np.diag([1.0, 0.0, 0.0]))
        q = p.complement()
        assert q.rank == 2
        assert max_norm(p.matrix @ q.matrix) == 0.0

    def test_oblique_projector_rejected(self):
        # idempotent but not symmetric, hence not orthogonal
        m = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert max_norm(m @ m - m) == 0.0
        with pytest.raises(InvalidProjection):
            Projection(m)


class TestSubspaceRelation:
    def test_all_four_outcomes(self):
        e1 = Projection(np.diag([1.0, 0.0, 0.0]))
        e12 = Projection(np.diag([1.0, 1.0, 0.0]))
        e2 = Projection(np.diag([0.0, 1.0, 0.0]))
        assert subspace_relation(e1, e1) is SpanRelation.EQUAL_SPAN
        assert subspace_relation(e1, e12) is SpanRelation.FIRST_WITHIN_SECOND
        assert subspace_relation(e12, e1) is SpanRelation.SECOND_WITHIN_FIRST
        assert subspace_relation(e1, e2) is SpanRelation.INCOMPARABLE

    def test_rotated_basis(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        inner = Projection(q[:, :2] @ q[:, :2].T)
        outer = Projection(q[:, :3] @ q[:, :3].T)
        assert subspace_relation(inner, outer) is SpanRelation.FIRST_WITHIN_SECOND

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            subspace_relation(Projection(np.eye(2)), Projection(np.eye(3)))


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
