"""Regime classification and the numeric validation behind it.

Disparity curves are classified twice on purpose: once through the exact
case analysis (signs, critical scales, matrix definiteness) and once by
brute-force root counting on a log grid. The classifiers report both and
whether they agree, so a formula bug shows up as a disagreement instead
of silently propagating.
"""

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .agents import Metric, normal_stream, standard_normals
from .closed_form import (
    CommonPrior,
    ProjectedPrior,
    _require_commuting,
    _require_prior,
    _require_trace_gap,
    disparity_value,
    endpoints,
    neutrality_sigma_score_bayes,
    noise_range,
)
from .errors import AssumptionViolated, InvalidBracket, NonFinite
from .linalg_core import Definiteness, label_eigenvalues, max_norm, span_within

SIGN_TOL = 1e-10
TANGENT_TOL = 1e-11
_SEMI_POSITIVE = (Definiteness.PD, Definiteness.PSD, Definiteness.ZERO)


class RegionLabel(enum.Enum):
    EXPLOITATION = "Exploitation"
    NEUTRALITY = "Neutrality"
    BURDEN = "Burden"

    def __str__(self):
        return self.value


def label_region(value):
    """Sign of a disparity value with a small neutral band."""
    if not math.isfinite(value):
        raise NonFinite(f"cannot label non-finite value {value}")
    if value > SIGN_TOL:
        return RegionLabel.EXPLOITATION
    if value < -SIGN_TOL:
        return RegionLabel.BURDEN
    return RegionLabel.NEUTRALITY


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
    """Locate zeros of a curve on a log grid over [sigma_lo, sigma_hi].

    ``curve_fn`` must accept an array: the whole grid is evaluated in one
    call, and bisection then calls it with single floats. Grid points
    where the curve is exactly zero are roots. Sign changes between
    adjacent grid points are refined by bisection until the bracket is
    below 1e-12 relative width. A run of adjacent grid points with
    0 < |value| < 1e-11, none of them next to a sign change, is one
    tangential contact, reported at its point nearest zero (the first on
    ties) rather than counted as a root.
    """
    lo = float(sigma_lo)
    hi = float(sigma_hi)
    if not (math.isfinite(lo) and math.isfinite(hi)) or not 0.0 < lo < hi:
        raise InvalidBracket(f"need finite 0 < lo < hi, got ({sigma_lo}, {sigma_hi})")
    grid = np.geomspace(lo, hi, points)
    vals = np.asarray(curve_fn(grid), dtype=float)
    # as with Python floats, 0 * inf is a quiet nan and a huge product a quiet inf
    with np.errstate(invalid="ignore", over="ignore"):
        change = vals[:-1] * vals[1:] < 0.0
    crossings = grid[vals == 0.0].tolist()
    for i in np.flatnonzero(change):
        crossings.append(_bisect(curve_fn, float(grid[i]), float(grid[i + 1]), float(vals[i])))

    near_change = np.append(change, False) | np.insert(change, 0, False)
    mag = np.abs(vals)
    tiny = (mag > 0.0) & (mag < TANGENT_TOL) & ~near_change
    edges = np.diff(tiny.astype(np.int8), prepend=0, append=0)
    runs = zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1))
    tangential = tuple(float(grid[s + np.argmin(mag[s:e])]) for s, e in runs)
    return RootScan(tuple(sorted(crossings)), tangential)


class ScoreTrend(enum.Enum):
    DECREASING = "Decreasing"
    INCREASING = "Increasing"
    CONSTANT = "Constant"

    def __str__(self):
        return self.value


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
    tol = SIGN_TOL * (1.0 + abs(at_inf) + abs(at_zero))
    if abs(at_inf - at_zero) <= tol:
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


class UtilityCase(enum.Enum):
    MONOTONE_DECREASING = "MonotoneDecreasing"
    NON_MONOTONE = "NonMonotone"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class UtilityRegime:
    """Case analysis of a utility disparity curve with numeric validation."""

    case: UtilityCase
    critical_scale: float
    sigma_min: "float | None"
    minimum_value: "float | None"
    predicted_roots: int
    roots: tuple
    tangential: tuple
    count_matches: bool


def _critical_scale_sq(sc):
    """2 mismatch / trace gap, the signed square of the critical prior scale."""
    _require_trace_gap(sc)
    return 2.0 * sc.constants.mismatch / sc.trace_gap


def critical_prior_scale(sc):
    """Prior scale below which the utility disparity decreases monotonically."""
    return math.sqrt(max(_critical_scale_sq(sc), 0.0))


def _classify_utility(sc):
    c = sc.constants
    scale = sc.prior.scale
    crit_sq = _critical_scale_sq(sc)
    if scale * scale <= crit_sq:
        case = UtilityCase.MONOTONE_DECREASING
        sigma_min = None
        fu_min = None
    else:
        case = UtilityCase.NON_MONOTONE
        ratio = crit_sq / (scale * scale)
        sigma_min = scale * math.sqrt(1.0 / (1.0 - ratio))
        fu_min = disparity_value(sc, Metric.UTILITY, sigma_min)

    at_zero, at_inf = endpoints(sc, Metric.UTILITY)
    if at_zero == 0.0:
        # the curve leaves 0 going down, so its start is no crossing
        predicted = 1 if case is UtilityCase.NON_MONOTONE and fu_min < 0.0 < at_inf else 0
    elif c.prior_sq > 2.0 * c.cross:
        predicted = 1
    elif case is UtilityCase.MONOTONE_DECREASING:
        predicted = 0
    elif fu_min > 0.0:
        predicted = 0
    elif fu_min < 0.0:
        predicted = 2
    else:
        predicted = 1
    scan = find_roots(lambda s: disparity_value(sc, Metric.UTILITY, s), *noise_range(sc))
    return UtilityRegime(
        case=case,
        critical_scale=critical_prior_scale(sc),
        sigma_min=sigma_min,
        minimum_value=fu_min,
        predicted_roots=predicted,
        roots=scan.crossings,
        tangential=scan.tangential,
        count_matches=len(scan.crossings) == predicted,
    )


def classify_utility_bayes(sc):
    """Case analysis of the shared-prior utility disparity.

    Monotone decrease holds up to the critical prior scale; beyond it the
    curve dips to an interior minimum before rising toward its limit. The
    predicted crossing count (0, 1, or 2) is keyed on the prior norm test
    and the sign at the minimum, then checked against a numeric scan.
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


def exploitation_condition_projected(sc):
    """Certificate that the advantaged group leads at every noise scale.

    Holds for every rule exactly when the symmetrized known-subspace gap
    is positive semidefinite; strict definiteness further forces the first
    group to know the whole space.
    """
    _require_prior(sc, ProjectedPrior, "exploitation_condition_projected")
    lab = sc.known_gap.label
    guaranteed = lab in _SEMI_POSITIVE
    checks = []
    if guaranteed:
        # null spaces are orthogonal complements, so their containment is
        # the reverse containment of the spans
        checks.append(
            (
                "null space of first projector within null space of second",
                span_within(sc.prior.subspace2, sc.prior.subspace1),
            )
        )
    if lab is Definiteness.PD:
        checks.append(("first projector is the identity", _is_identity(sc.prior.subspace1)))
    return MatrixConditionReport(
        "score exploitation at every noise scale", lab, guaranteed, tuple(checks)
    )


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
    guaranteed = lab is Definiteness.ND
    checks = []
    sigma = None
    if guaranteed:
        checks.append(("second projector is the identity", _is_identity(sc.prior.subspace2)))
        checks.append(("first projector differs from the identity", not _is_identity(sc.prior.subspace1)))
        sigma = neutrality_sigma_score_bayes(sc)
        if sigma is not None:
            at_zero, at_inf = endpoints(sc, Metric.SCORE)  # the tolerance `classify_score_bayes` puts on this curve
            vanishes = abs(disparity_value(sc, Metric.SCORE, sigma)) <= SIGN_TOL * (1.0 + abs(at_zero) + abs(at_inf))
            checks.append(("score disparity vanishes at the crossing", vanishes))
    return NeutralityCondition(
        MatrixConditionReport(
            "score neutrality for every rule", lab, guaranteed, tuple(checks)
        ),
        sigma,
    )


def monotonicity_condition_projected(sc):
    """Direction certificate for the projected score disparity.

    The symmetrized unknown-subspace gap decides the trend: semidefinite
    positive means non-increasing (and the first known subspace nests in
    the second), semidefinite negative the reverse. Strict labels force a
    projector to vanish outright.
    """
    _require_prior(sc, ProjectedPrior, "monotonicity_condition_projected")
    lab = sc.unknown_gap.label
    checks = []
    if lab in _SEMI_POSITIVE:
        checks.append(
            (
                "span of first projector within span of second",
                span_within(sc.prior.subspace1, sc.prior.subspace2),
            )
        )
    if lab is Definiteness.PD:
        checks.append(("first projector is zero", _is_zero(sc.prior.subspace1)))
    if lab in (Definiteness.ND, Definiteness.NSD):
        checks.append(
            (
                "span of second projector within span of first",
                span_within(sc.prior.subspace2, sc.prior.subspace1),
            )
        )
    if lab is Definiteness.ND:
        checks.append(("second projector is zero", _is_zero(sc.prior.subspace2)))
        checks.append(("first projector is nonzero", not _is_zero(sc.prior.subspace1)))
    return MatrixConditionReport(
        "score disparity trend", lab, lab is not Definiteness.INDEFINITE, tuple(checks)
    )


class MatrixVerdict(enum.Enum):
    MONOTONE_ALL = "MonotoneForEveryRule"
    NON_MONOTONE_ALL = "NonMonotoneForEveryRule"
    INDETERMINATE = "Indeterminate"

    def __str__(self):
        return self.value


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
