"""Small dense symmetric linear algebra with validated semantic wrappers.

Everything here targets small dense matrices, up to a few dozen rows:
eigendecomposition is a hand-rolled cyclic Jacobi iteration, each rotation
applied to whole rows and columns with elementwise numpy arithmetic, so
that results are bit-identical across platforms and thread counts. The
wrapper types (`CostMatrix`, `Projection`) validate their defining
properties on construction instead of trusting callers.

All functions are pure and all wrapper instances are immutable, so values
can be shared freely between threads.
"""

import enum
import math

import numpy as np

from .errors import (
    DimensionMismatch,
    Error,
    InvalidProjection,
    NotPD,
    NotPSD,
    NotSymmetric,
)

_JACOBI_MAX_SWEEPS = 100
_JACOBI_SAFE_EXPONENT = 400  # beyond 2^400 or below 2^-400 the squared norm can overflow or underflow


def _as_square(matrix):
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise Error("matrix has non-finite entries")
    return a


def max_norm(matrix):
    """Largest absolute entry."""
    a = np.asarray(matrix, dtype=float)
    return float(np.abs(a).max()) if a.size else 0.0


def check_symmetric(matrix):
    """Raise NotSymmetric unless the matrix equals its transpose within tolerance."""
    a = _as_square(matrix)
    tol = 1e-12 * (1.0 + max_norm(a))
    if max_norm(a - a.T) > tol:
        raise NotSymmetric(f"asymmetry {max_norm(a - a.T):.3e} exceeds {tol:.3e}")
    return a


def _exact_sum(terms):
    """Exactly rounded sum of a list of floats.

    ``math.fsum`` raises where the total overflows or meets inf - inf;
    there the plain float sum gives the IEEE inf or nan instead.
    """
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return sum(terms)


def kahan_dot(x, y):
    """Exactly rounded inner product of two equal-length vectors (``math.fsum``)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatch(f"dot of shapes {x.shape} and {y.shape}")
    return _exact_sum((x * y).tolist())


def quad_form(x, matrix):
    """x'Mx as the exactly rounded sum (``math.fsum``) of the d^2 terms x_i M_ij x_j."""
    a = _as_square(matrix)
    x = np.asarray(x, dtype=float)
    if x.shape != (a.shape[0],):
        raise DimensionMismatch(f"quadratic form of shapes {x.shape} and {a.shape}")
    return _exact_sum((x[:, None] * a * x).ravel().tolist())


def _rotate(x, y, c, s):
    """x, y = c*x - s*y, s*x + c*y in place, elementwise (no matmul, so no reordering)."""
    x0 = x.copy()
    x[:] = c * x0 - s * y
    y[:] = s * x0 + c * y


def jacobi_eigh(matrix):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Parameters
    ----------
    matrix : (d, d) array_like
        Symmetric input; validated against the shared symmetry tolerance.

    Returns
    -------
    w : (d,) ndarray
        Eigenvalues in ascending order.
    v : (d, d) ndarray
        Orthonormal eigenvectors as columns, matching the order of ``w``.

    Notes
    -----
    Sweeps run over the strict upper triangle in fixed row-major order and
    stop once the off-diagonal Frobenius mass falls below 1e-13 times the
    Frobenius norm of the input, so the result is deterministic down to the
    last bit for a given input. A rotation updates whole rows and columns.
    A matrix whose largest entry lies outside [2^-400, 2^400] is first
    scaled by a power of two to bring that entry into [1/2, 1), so the
    squared norms neither overflow nor underflow. Every step of the sweep
    commutes with an exact power-of-two scaling, and the eigenvalues are
    scaled back by the same power.
    """
    a = check_symmetric(matrix)
    exponent = math.frexp(max_norm(a))[1]
    shift = -exponent if abs(exponent) > _JACOBI_SAFE_EXPONENT else 0
    a = np.ldexp(a, shift)
    a = 0.5 * (a + a.T)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return np.ldexp(a.diagonal(), -shift), v
    scale = float(np.sqrt(np.sum(a * a)))
    if scale == 0.0:
        return np.zeros(n), v
    tol = 1e-13 * scale
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(_JACOBI_MAX_SWEEPS):
        # summing the off-diagonal entries directly avoids the cancellation
        # that ||A||_F^2 - ||diag||^2 suffers once they are tiny
        off = math.sqrt(float(np.sum(a[off_mask] ** 2)))
        if off < tol:
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
                _rotate(a[:, p], a[:, q], c, s)
                _rotate(a[p], a[q], c, s)
                a[p, q] = 0.0
                a[q, p] = 0.0
                _rotate(v[:, p], v[:, q], c, s)
    else:
        raise Error("Jacobi iteration failed to converge")
    w = np.ldexp(a.diagonal(), -shift)
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


class Definiteness(enum.Enum):
    PD = "PD"
    PSD = "PSD"
    ND = "ND"
    NSD = "NSD"
    INDEFINITE = "Indefinite"
    ZERO = "Zero"

    def __str__(self):
        return self.value


def label_eigenvalues(w):
    """The `definiteness` label of a symmetric matrix with eigenvalues ``w``."""
    w = np.asarray(w, dtype=float)
    tau = 1e-9 * (1.0 + (float(np.abs(w).max()) if w.size else 0.0))
    lo = float(w.min())
    hi = float(w.max())
    if abs(lo) <= tau and abs(hi) <= tau:
        return Definiteness.ZERO
    if lo > tau:
        return Definiteness.PD
    if lo >= -tau:
        return Definiteness.PSD
    if hi < -tau:
        return Definiteness.ND
    if hi <= tau:
        return Definiteness.NSD
    return Definiteness.INDEFINITE


def definiteness(matrix):
    """Classify a symmetric matrix as PD, PSD, ND, NSD, Indefinite, or Zero.

    The tolerance is 1e-9 scaled by (1 + largest |eigenvalue|), so matrices
    that are singular only up to roundoff land in the semidefinite labels.
    """
    w, _ = jacobi_eigh(matrix)
    return label_eigenvalues(w)


def sym_sqrt(matrix):
    """Symmetric PSD square root.

    Eigenvalues in [-1e-9 * ||M||, 0] are clamped to zero; anything below
    the clamp raises NotPSD. ||M|| is the largest absolute eigenvalue.
    """
    w, v = jacobi_eigh(matrix)
    bound = 1e-9 * float(np.abs(w).max())
    if float(w.min()) < -bound:
        raise NotPSD(f"eigenvalue {w.min():.6e} below clamp -{bound:.3e}")
    root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return 0.5 * (root + root.T)


def _freeze(array):
    array.setflags(write=False)
    return array


class CostMatrix:
    """Positive-definite quadratic cost with cached inverse and inverse trace.

    Construction validates symmetry, positive definiteness, and a largest
    eigenvalue whose square is finite (below about 1.3e154); the inverse
    is formed from the Jacobi eigendecomposition rather than a solver call,
    keeping the whole pipeline deterministic.
    """

    def __init__(self, matrix):
        a = check_symmetric(matrix)
        with np.errstate(over="ignore"):  # jacobi_eigh rejects an overflowed entry
            a = 0.5 * (a + a.T)
        w, v = jacobi_eigh(a)
        if label_eigenvalues(w) is not Definiteness.PD:
            raise NotPD(f"cost matrix eigenvalues {w} are not all positive")
        top = float(w[-1])
        if not math.isfinite(top * top):
            raise Error(f"cost matrix eigenvalue {top:g} squares out of floating-point range")
        inv = v @ np.diag(1.0 / w) @ v.T
        inv = 0.5 * (inv + inv.T)
        self.matrix = _freeze(a)
        self.inverse = _freeze(inv)
        self.eigenvalues = _freeze(w)
        self.trace_inverse = float(np.trace(inv))
        self.dim = a.shape[0]

    def __repr__(self):
        return f"CostMatrix(dim={self.dim}, eigenvalues={self.eigenvalues.tolist()})"


class Projection:
    """Orthogonal projection matrix, validated on construction.

    Accepts a full matrix; use :meth:`from_span` to build one from spanning
    vectors that need not be orthonormal.
    """

    def __init__(self, matrix):
        try:
            a = check_symmetric(matrix)
        except NotSymmetric as exc:
            raise InvalidProjection(str(exc)) from exc
        with np.errstate(over="ignore"):  # an overflowed entry fails the bound below
            p = 0.5 * (a + a.T)
        # no entry exceeds the spectral norm, which the eigenvalue check holds to 1 + 1e-8;
        # the bound also keeps p @ p from overflowing
        if not max_norm(p) <= 1.0 + 1e-8:
            raise InvalidProjection(f"projector entry {max_norm(a):.3e} exceeds 1 in magnitude")
        if max_norm(p @ p - p) > 1e-10:
            raise InvalidProjection(
                f"idempotency defect {max_norm(p @ p - p):.3e} exceeds 1e-10"
            )
        w, _ = jacobi_eigh(p)
        dist = np.minimum(np.abs(w), np.abs(w - 1.0))
        if float(dist.max()) > 1e-8:
            raise InvalidProjection(f"eigenvalues {w} not within 1e-8 of 0 or 1")
        self.matrix = _freeze(p)
        self.dim = p.shape[0]
        self.rank = int(round(float(np.sum(w))))

    @classmethod
    def from_span(cls, vectors, dim):
        """Projector in dimension ``dim`` onto the span of the given vectors.

        Vectors are orthonormalized by modified Gram-Schmidt; directions
        whose residual norm falls below 1e-10 are dropped as dependent.
        An empty span yields the zero projector.
        """
        basis = []
        for v in vectors:
            u = np.asarray(v, dtype=float)
            if u.shape != (dim,):
                raise DimensionMismatch(f"span vector shape {u.shape}, expected ({dim},)")
            # beyond 2^400 u @ u can overflow: work at an exact power-of-two scale
            exponent = math.frexp(max_norm(u))[1]
            shift = -exponent if exponent > _JACOBI_SAFE_EXPONENT else 0
            u = np.ldexp(u, shift)
            for b in basis:
                u -= (b @ u) * b
            norm = math.sqrt(float(u @ u))
            if norm < math.ldexp(1e-10, shift):
                continue
            basis.append(u / norm)
        if not basis:
            return cls(np.zeros((dim, dim)))
        b = np.column_stack(basis)
        return cls(b @ b.T)

    def __repr__(self):
        return f"Projection(dim={self.dim}, rank={self.rank})"


def span_within(first, second):
    """Whether the range of projector ``first`` lies within that of ``second``.

    span(P) is within span(Q) exactly when Q P = P, tested with a 1e-9
    max-norm tolerance.
    """
    if first.dim != second.dim:
        raise DimensionMismatch(f"projector dims {first.dim} and {second.dim}")
    return max_norm(second.matrix @ first.matrix - first.matrix) <= 1e-9
