"""Regime classification and the numeric validation behind it.

Disparity curves are classified twice on purpose: once through the exact
case analysis (the curve's exact polynomial, matrix definiteness) and once
by brute-force root counting on a log grid that brackets every exact root.
The classifiers report both and whether they agree, so a formula bug shows
up as a disagreement instead of silently propagating.
"""

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .agents import Metric, _integer, normal_stream, standard_normals
from .closed_form import (
    MAX_POINTS,
    CommonPrior,
    ProjectedPrior,
    _Curve,
    _noise_grid,
    _require_commuting,
    _require_prior,
    _require_trace_gap,
    disparity_value,
    endpoints,
    neutrality_sigma_score_bayes,
    noise_range,
)
from .errors import AssumptionViolated, InvalidBracket, Label, NonFinite
from .linalg_core import Definiteness, label_eigenvalues, max_norm, span_within

SIGN_TOL = 1e-10
TANGENT_TOL = 1e-11
_PD = (Definiteness.PD,)
_ND = (Definiteness.ND,)
_SEMI_POSITIVE = (Definiteness.PD, Definiteness.PSD, Definiteness.ZERO)
_SEMI_NEGATIVE = (Definiteness.ND, Definiteness.NSD)


class RegionLabel(Label):
    EXPLOITATION = "Exploitation"
    NEUTRALITY = "Neutrality"
    BURDEN = "Burden"


def label_region(value):
    """Sign of a disparity value with a small neutral band."""
    if not math.isfinite(value):
        raise NonFinite(f"cannot label non-finite value {value}")
    if value > SIGN_TOL:
        return RegionLabel.EXPLOITATION
    if value < -SIGN_TOL:
        return RegionLabel.BURDEN
    return RegionLabel.NEUTRALITY


def _score_band(at_zero, at_inf):
    """The neutral band of a score curve, scaled by its zero-noise value and infinite-noise limit."""
    return SIGN_TOL * (1.0 + abs(at_inf) + abs(at_zero))


@dataclass(frozen=True)
class RootScan:
    """Sign-change roots plus grid points that touch zero without crossing."""

    crossings: tuple
    tangential: tuple


def _bisect(fn, lo, hi, f_lo):
    for _ in range(300):
        if hi - lo <= 1e-12 * lo:
            break
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def find_roots(curve_fn, sigma_lo, sigma_hi, points=2001):
    """Locate zeros of a curve on a log grid over [sigma_lo, sigma_hi], built by `_noise_grid`.

    ``curve_fn`` must accept an array: the whole grid is evaluated in one
    call, and bisection then calls it with single floats. A grid point
    where the curve is exactly zero, or a run of them, is a root at its
    first point when the nearest nonzero values on either side have
    opposite signs. Sign changes between adjacent grid points are refined
    by bisection until the bracket is below 1e-12 relative width. A run of
    adjacent grid points with |value| < 1e-11, none of them next to a sign
    change or in a root's run of zeros, is one tangential contact, reported
    at its point nearest zero (the first on ties) rather than counted as a
    root. ``points`` is an integer from 2 to MAX_POINTS, else Error.
    """
    lo = float(sigma_lo)
    hi = float(sigma_hi)
    if not (math.isfinite(lo) and math.isfinite(hi)) or not 0.0 < lo < hi:
        raise InvalidBracket(f"need finite 0 < lo < hi, got ({sigma_lo}, {sigma_hi})")
    grid = _noise_grid(lo, hi, _integer(points, "points", 2, MAX_POINTS))
    vals = np.asarray(curve_fn(grid), dtype=float)
    signs = np.sign(vals)  # the product of two values below 1e-162 would underflow to 0
    change = signs[:-1] * signs[1:] < 0.0
    # each grid point's nearest nonzero values at or before it and at or after it; a grid end
    # indexes the appended 0, no sign
    zero, at = vals == 0.0, np.arange(vals.size)
    before = np.maximum.accumulate(np.where(zero, -1, at))
    after = np.minimum.accumulate(np.where(zero, vals.size, at)[::-1])[::-1]
    padded = np.append(signs, 0.0)
    crossing_zero = zero & (padded[before] * padded[after] < 0.0)
    crossings = grid[crossing_zero & ~np.insert(crossing_zero[:-1], 0, False)].tolist()
    for i in np.flatnonzero(change):
        crossings.append(_bisect(curve_fn, float(grid[i]), float(grid[i + 1]), float(vals[i])))

    near_change = np.append(change, False) | np.insert(change, 0, False)
    mag = np.abs(vals)
    tiny = (mag < TANGENT_TOL) & ~crossing_zero & ~near_change
    edges = np.diff(tiny.astype(np.int8), prepend=0, append=0)
    runs = zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1))
    tangential = tuple(float(grid[s + np.argmin(mag[s:e])]) for s, e in runs)
    return RootScan(tuple(sorted(crossings)), tangential)


class ScoreTrend(Label):
    DECREASING = "Decreasing"
    INCREASING = "Increasing"
    CONSTANT = "Constant"


@dataclass(frozen=True)
class ScoreShape:
    """Monotonicity of the shared-prior score disparity plus crossing info."""

    trend: ScoreTrend
    neutrality_sigma: "float | None"
    norm_condition_holds: bool


def classify_score_bayes(sc):
    """Direction of the shared-prior score disparity in the noise scale.

    The curve runs from the full-transparency value to the prior-driven
    value, so its direction is the comparison of those two endpoints. Also
    reports whether the prior's gap-metric norm is dominated by the rule's,
    the certificate for a non-increasing curve.
    """
    _require_prior(sc, CommonPrior, "classify_score_bayes")
    at_zero, at_inf = endpoints(sc, Metric.SCORE)
    if abs(at_inf - at_zero) <= _score_band(at_zero, at_inf):
        trend = ScoreTrend.CONSTANT
    elif at_inf < at_zero:
        trend = ScoreTrend.DECREASING
    else:
        trend = ScoreTrend.INCREASING
    c = sc.constants
    return ScoreShape(
        trend,
        neutrality_sigma_score_bayes(sc),
        c.prior_sq <= c.rule_sq,
    )


class UtilityCase(Label):
    MONOTONE_DECREASING = "MonotoneDecreasing"
    NON_MONOTONE = "NonMonotone"


@dataclass(frozen=True)
class UtilityRegime:
    """Case analysis of a utility disparity curve with numeric validation."""

    case: UtilityCase
    critical_scale: float
    sigma_min: "float | None"
    minimum_value: "float | None"
    predicted_roots: int
    exact_roots: tuple
    roots: tuple
    tangential: tuple
    count_matches: bool


def critical_prior_scale(sc):
    """Prior scale below which the utility disparity decreases monotonically."""
    _require_trace_gap(sc)
    return _Curve.of(sc, Metric.UTILITY).critical_scale


def scan_utility(sc, exact_roots):
    """`find_roots` on the utility curve over `noise_range`, widened only where one of the ascending
    ``exact_roots`` lies outside it, to one decade past the outermost, within the positive floats."""
    lo, hi = noise_range(sc)
    if exact_roots:
        lo = max(min(lo, exact_roots[0] / 10.0), sys.float_info.min)
        hi = min(max(hi, 10.0 * exact_roots[-1]), sys.float_info.max)
    return find_roots(lambda s: disparity_value(sc, Metric.UTILITY, s), lo, hi)


def _classify_utility(sc):
    _require_trace_gap(sc)
    curve = _Curve.of(sc, Metric.UTILITY)
    exact = curve.roots
    vertex = curve.vertex
    sigma_min, fu_min = vertex or (None, None)
    scan = scan_utility(sc, exact)
    return UtilityRegime(
        case=UtilityCase.MONOTONE_DECREASING if vertex is None else UtilityCase.NON_MONOTONE,
        critical_scale=curve.critical_scale,
        sigma_min=sigma_min,
        minimum_value=fu_min,
        predicted_roots=len(exact),
        exact_roots=exact,
        roots=scan.crossings,
        tangential=scan.tangential,
        count_matches=len(scan.crossings) == len(exact),
    )


def classify_utility_bayes(sc):
    """Case analysis of the shared-prior utility disparity.

    Monotone decrease holds up to the critical prior scale; beyond it the
    curve dips to an interior minimum before rising toward its limit. The
    predicted crossing count (0, 1, or 2) is the exact count of the curve's
    simple zeros, a touch of zero being no crossing; it is checked against
    a numeric scan over `noise_range`, widened to bracket every exact root.
    """
    _require_prior(sc, CommonPrior, "classify_utility_bayes")
    return _classify_utility(sc)


def classify_utility_projected(sc):
    """Same case analysis for projected priors via the shared constants."""
    _require_prior(sc, ProjectedPrior, "classify_utility_projected")
    _require_commuting(sc, "classify_utility_projected")
    return _classify_utility(sc)


def two_root_region_check(sc):
    """Whether the scenario sits in the region guaranteeing two crossings.

    The region demands a prior aligned enough with the rule (its gap-metric
    norm below twice the pairing) and a prior scale above both printed
    thresholds. Membership is monotone in the scale.
    """
    _require_prior(sc, CommonPrior, "two_root_region_check")
    _require_trace_gap(sc)
    c = sc.constants
    if not c.prior_sq < 2.0 * c.cross:
        return False
    thr_a = math.sqrt((2.0 * c.cross - c.prior_sq + 3.0 * c.rule_sq) / c.trace_gap)
    thr_b = math.sqrt((2.0 / c.trace_gap) * math.sqrt(max(c.mismatch, 0.0)))
    return sc.prior.scale > max(thr_a, thr_b)


@dataclass(frozen=True)
class MatrixConditionReport:
    """Definiteness evidence for one structural condition.

    ``guaranteed`` says the hypothesis label holds; ``checks`` lists the
    structural facts the hypothesis implies, each with its verification.
    """

    name: str
    label: Definiteness
    guaranteed: bool
    checks: tuple


def _is_identity(p):
    return max_norm(p.matrix - np.eye(p.dim)) <= 1e-9


def _is_zero(p):
    return max_norm(p.matrix) <= 1e-9


def _certificate(name, label, guaranteed, implied):
    """The report for a gap labelled ``label``: guaranteed when ``label`` is among ``guaranteed``,
    its checks each (description, verdict) of the ``(labels, description, verdict)`` rows of
    ``implied`` whose labels include ``label``, in order."""
    checks = tuple((desc, ok) for labels, desc, ok in implied if label in labels)
    return MatrixConditionReport(name, label, label in guaranteed, checks)


def exploitation_condition_projected(sc):
    """Certificate that the advantaged group leads at every noise scale.

    Holds for every rule exactly when the symmetrized known-subspace gap
    is positive semidefinite; strict definiteness further forces the first
    group to know the whole space.
    """
    _require_prior(sc, ProjectedPrior, "exploitation_condition_projected")
    p1, p2 = sc.prior.subspace1, sc.prior.subspace2
    # null spaces are orthogonal complements, so their containment is the reverse containment of the spans
    return _certificate("score exploitation at every noise scale", sc.known_gap.label, _SEMI_POSITIVE, (
        (_SEMI_POSITIVE, "null space of first projector within null space of second", span_within(p2, p1)),
        (_PD, "first projector is the identity", _is_identity(p1)),
    ))


class NeutralityCondition(NamedTuple):
    report: MatrixConditionReport
    sigma: "float | None"


def neutrality_condition_projected(sc):
    """Certificate that the score disparity crosses zero for every rule.

    Requires the symmetrized known-subspace gap to be negative definite;
    the crossing scale follows from the scenario's own rule, and the
    implied structure (second projector is the identity, first is not) is
    verified alongside.
    """
    _require_prior(sc, ProjectedPrior, "neutrality_condition_projected")
    lab = sc.known_gap.label
    p1, p2 = sc.prior.subspace1, sc.prior.subspace2
    implied = [
        (_ND, "second projector is the identity", _is_identity(p2)),
        (_ND, "first projector differs from the identity", not _is_identity(p1)),
    ]
    sigma = neutrality_sigma_score_bayes(sc) if lab in _ND else None
    if sigma is not None:
        vanishes = abs(disparity_value(sc, Metric.SCORE, sigma)) <= _score_band(*endpoints(sc, Metric.SCORE))
        implied.append((_ND, "score disparity vanishes at the crossing", vanishes))
    return NeutralityCondition(_certificate("score neutrality for every rule", lab, _ND, implied), sigma)


def monotonicity_condition_projected(sc):
    """Direction certificate for the projected score disparity.

    The symmetrized unknown-subspace gap decides the trend: semidefinite
    positive means non-increasing (and the first known subspace nests in
    the second), semidefinite negative the reverse. Strict labels force a
    projector to vanish outright.
    """
    _require_prior(sc, ProjectedPrior, "monotonicity_condition_projected")
    p1, p2 = sc.prior.subspace1, sc.prior.subspace2
    return _certificate("score disparity trend", sc.unknown_gap.label, _SEMI_POSITIVE + _SEMI_NEGATIVE, (
        (_SEMI_POSITIVE, "span of first projector within span of second", span_within(p1, p2)),
        (_PD, "first projector is zero", _is_zero(p1)),
        (_SEMI_NEGATIVE, "span of second projector within span of first", span_within(p2, p1)),
        (_ND, "second projector is zero", _is_zero(p2)),
        (_ND, "first projector is nonzero", not _is_zero(p1)),
    ))


class MatrixVerdict(Label):
    MONOTONE_ALL = "MonotoneForEveryRule"
    NON_MONOTONE_ALL = "NonMonotoneForEveryRule"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class ProjectedMatrixReport:
    """Rule-agnostic utility classification from matrix definiteness alone."""

    known_label: Definiteness
    unknown_label: Definiteness
    split_label: Definiteness
    verdict: MatrixVerdict
    samples_checked: int
    samples_agree: bool


_RULE_CHECK_SEED = 2718
_RULE_CHECK_KEY = 7
_RULE_CHECK_SAMPLES = 50


def classify_utility_projected_matrix(sc):
    """Classify projected utility curves for every rule at once.

    Preconditions mirror the structural hypotheses: the symmetrized
    known-subspace gap must be positive semidefinite and the unknown-side
    gap semidefinite one way or the other, else AssumptionViolated. The
    verdict compares the squared prior scale against the unknown-side gap
    as matrices. A verdict is cross-checked on 50 random unit rules, drawn
    at once from a fixed stream, whose margins come from the full and
    known-side gaps rather than the unknown-side gap the verdict read;
    a draw with norm below 1e-6 is skipped.
    """
    _require_prior(sc, ProjectedPrior, "classify_utility_projected_matrix")
    _require_commuting(sc, "classify_utility_projected_matrix")
    _require_trace_gap(sc)
    c = sc.constants
    scale = sc.prior.scale

    known_label = sc.known_gap.label
    if known_label not in _SEMI_POSITIVE:
        raise AssumptionViolated(
            f"known-subspace gap must be positive semidefinite, got {known_label}"
        )
    unknown_label = sc.unknown_gap.label
    if unknown_label is Definiteness.INDEFINITE:
        raise AssumptionViolated("unknown-subspace gap is indefinite")

    # the split (2 / trace_gap) * unknown_gap - scale^2 I has the gap's eigenvectors,
    # so its eigenvalues follow from the gap's without another eigensolve
    split_label = label_eigenvalues((2.0 / c.trace_gap) * sc.unknown_gap.eigenvalues - scale * scale)
    if split_label in _SEMI_POSITIVE:
        verdict = MatrixVerdict.MONOTONE_ALL
    elif split_label is Definiteness.ND:
        verdict = MatrixVerdict.NON_MONOTONE_ALL
    else:
        verdict = MatrixVerdict.INDETERMINATE

    checked = 0
    agree = True
    if verdict is not MatrixVerdict.INDETERMINATE:
        stream = normal_stream(_RULE_CHECK_SEED, (_RULE_CHECK_KEY,))
        draws = standard_normals(stream, (_RULE_CHECK_SAMPLES, sc.dim))
        norms = np.sqrt(np.einsum("ij,ij->i", draws, draws))
        kept = norms >= 1e-6
        units = draws[kept] / norms[kept, None]
        margins = (2.0 / c.trace_gap) * np.einsum(
            "ij,jk,ik->i", units, sc.gap.sym - sc.known_gap.raw, units
        ) - scale * scale
        band = 1e-8 * (1.0 + scale * scale)
        # a nan margin compares false either way, so it counts as agreeing
        against = margins < -band if verdict is MatrixVerdict.MONOTONE_ALL else margins > band
        checked = len(units)
        agree = not np.any(against)
    return ProjectedMatrixReport(
        known_label, unknown_label, split_label, verdict, checked, agree
    )
