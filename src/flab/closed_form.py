"""Analytic disparity formulas, boundary values, and bounds.

A `Scenario` fixes the scoring rule, one positive-definite cost matrix per
group, and a prior specification. Everything else in the module is a pure
function of a scenario: equilibrium score and utility disparities as
functions of the noise scale, the exact zero-noise and infinite-noise
values, and the overlap bounds available when both groups share one cost.
A noise scale may be a float or an array; each array element equals the
float call bit for bit, so a whole grid is evaluated in one call.

Every disparity is evaluated by `disparity_value`. Each curve's zero-noise
value and infinite-noise limit are stated once, by `endpoints`, which the
evaluator, the classifiers and the command line all read. Common-prior and
projected-prior disparities go through one shared routine over the same
five derived constants, so the algebraic reduction between the two prior
families is also an implementation-level identity rather than a
coincidence of two formulas. Every other fact of a curve (its crossings,
its turning point and the critical prior scale) is read from one exact
polynomial of degree at most 2, the private `_Curve`.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .agents import Metric, _check_scale, _integer, noise_scales, scalar_or_array, signal_weight
from .errors import (
    AssumptionViolated,
    CostsDiffer,
    DimensionMismatch,
    Error,
    NonCommuting,
    NonFinite,
    NotPD,
    WrongPriorKind,
)
from .linalg_core import (
    CostMatrix,
    Definiteness,
    Projection,
    _rounded,
    definiteness,
    jacobi_eigh,
    kahan_dot,
    label_eigenvalues,
    max_norm,
    quad_form,
)

COMMUTE_TOL = 1e-10
MAX_POINTS = 10**7  # the most noise levels a grid may have


@dataclass(frozen=True)
class NaivePrior:
    """Agents best-respond to the raw signal."""


@dataclass(frozen=True, eq=False)
class CommonPrior:
    """Both groups share an isotropic Gaussian prior around one mean."""

    mean: np.ndarray
    scale: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        object.__setattr__(self, "mean", mean)
        if mean.ndim != 1 or not np.all(np.isfinite(mean)):
            raise Error(f"prior mean must be a finite vector, got {self.mean}")
        _check_scale(self.scale)


@dataclass(frozen=True, eq=False)
class ProjectedPrior:
    """Each group's prior mean is the rule projected onto its known subspace."""

    subspace1: Projection
    subspace2: Projection
    scale: float

    def __post_init__(self):
        if self.subspace1.dim != self.subspace2.dim:
            raise DimensionMismatch(
                f"projector dims {self.subspace1.dim} and {self.subspace2.dim}"
            )
        _check_scale(self.scale)


@dataclass(frozen=True)
class DisparityConstants:
    """Scalar constants every disparity formula is built from: each is one
    exact sum over the scenario's float gap matrices, correctly rounded.

    With r the rule, mu a common prior's mean and G = `Scenario.gap`, the
    symmetrized A1^-1 - A2^-1: rule_sq = r'Gr is the full-transparency score
    disparity, trace_gap = trace G, cross = mu'Gr, prior_sq = mu'G mu and mismatch =
    (mu - r)'G(mu - r). For a projected prior, cross = prior_sq = r'Kr, the
    infinite-noise score disparity, and mismatch = r'Ur, with K and U the
    known-side and unknown-side gaps (`Scenario.known_gap`, `Scenario.unknown_gap`;
    K + U = A1^-1 - A2^-1). The naive prior has rule_sq and trace_gap only.
    """

    rule_sq: float
    trace_gap: float
    cross: "float | None" = None
    prior_sq: "float | None" = None
    mismatch: "float | None" = None


@dataclass(frozen=True, eq=False)
class DisparityCurve:
    """Sampled disparity values plus the exact analytic endpoints."""

    sigmas: np.ndarray
    values: np.ndarray
    value_at_zero: float
    value_at_infinity: float


class GapMatrix:
    """A between-group gap matrix, its symmetric part, and that part's
    eigenvalues and definiteness label, which cost one eigensolve on first use."""

    def __init__(self, raw):
        self.raw = raw
        self.sym = 0.5 * (raw + raw.T)

    @cached_property
    def eigenvalues(self):
        return jacobi_eigh(self.sym)[0]

    @cached_property
    def label(self):
        return label_eigenvalues(self.eigenvalues)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Scoring rule, per-group costs, and prior specification.

    Construction enforces that the second group's cost dominates the
    first's: their difference must be positive definite, or, for projected
    priors only, where the equal-cost overlap bounds apply, labelled Zero.
    Costs labelled Zero are one cost: `cost2` becomes the `cost1` object, for
    the formulas, the simulated agents and the overlap bounds alike.
    Construction precomputes the constants of every formula over the
    inverse-cost gap A1^-1 - A2^-1 as `gap`, exactly +0.0 for one cost; a
    rounded gap that makes rule_sq, or a common prior's prior_sq or
    mismatch, negative raises NotPD. A projected prior also gets its
    known-side gap A1^-1 P1 - A2^-1 P2 and unknown-side gap
    A1^-1 (I - P1) - A2^-1 (I - P2) as `known_gap` and `unknown_gap`.
    """

    rule: np.ndarray
    cost1: CostMatrix
    cost2: CostMatrix
    prior: "NaivePrior | CommonPrior | ProjectedPrior"
    constants: DisparityConstants = field(init=False)

    def __post_init__(self):
        rule = np.asarray(self.rule, dtype=float)
        object.__setattr__(self, "rule", rule)
        d = self.cost1.dim
        if self.cost2.dim != d:
            raise DimensionMismatch(f"cost dims {d} and {self.cost2.dim}")
        if rule.shape != (d,) or not np.all(np.isfinite(rule)):
            raise DimensionMismatch(f"rule shape {rule.shape} for dimension {d}")

        cost_gap_label = definiteness(self.cost2.matrix - self.cost1.matrix)
        if cost_gap_label is Definiteness.ZERO:
            if not isinstance(self.prior, ProjectedPrior):
                raise AssumptionViolated("equal costs are only admitted for projected priors")
            object.__setattr__(self, "cost2", self.cost1)
        elif cost_gap_label is not Definiteness.PD:
            raise AssumptionViolated(f"second cost must dominate the first; gap is {cost_gap_label}")

        # x - x is +0.0, so one shared cost gives a gap and trace gap of exactly +0.0
        gap = GapMatrix(self.cost1.inverse - self.cost2.inverse)

        # a typed NonFinite below reports what overflows here
        with np.errstate(over="ignore", invalid="ignore"):
            # every prior kind shares the head (rule_sq, trace_gap); a belief-carrying
            # prior adds the tail (cross, prior_sq, mismatch)
            head = (quad_form(rule, gap.sym), kahan_dot(np.diagonal(gap.raw), np.ones(d)))
            tail, known, unknown, commute_defect = (), None, None, 0.0
            if isinstance(self.prior, NaivePrior):
                means = (np.zeros(d), np.zeros(d))
            elif isinstance(self.prior, CommonPrior):
                mean = self.prior.mean
                if mean.shape != (d,):
                    raise DimensionMismatch(f"prior mean shape {mean.shape} for dimension {d}")
                tail = (quad_form(mean, gap.sym, rule), quad_form(mean, gap.sym), quad_form(mean - rule, gap.sym))
                means = (mean, mean)
            elif isinstance(self.prior, ProjectedPrior):
                p1 = self.prior.subspace1
                p2 = self.prior.subspace2
                if p1.dim != d:
                    raise DimensionMismatch(f"projector dim {p1.dim} for dimension {d}")
                eye = np.eye(d)
                known = GapMatrix(self.cost1.inverse @ p1.matrix - self.cost2.inverse @ p2.matrix)
                unknown = GapMatrix(
                    self.cost1.inverse @ (eye - p1.matrix) - self.cost2.inverse @ (eye - p2.matrix)
                )
                known_side = quad_form(rule, known.raw)
                tail = (known_side, known_side, quad_form(rule, unknown.raw))
                means = (p1.matrix @ rule, p2.matrix @ rule)
                commute_defect = max(
                    max_norm(p1.matrix @ self.cost1.inverse - self.cost1.inverse @ p1.matrix),
                    max_norm(p2.matrix @ self.cost2.inverse - self.cost2.inverse @ p2.matrix),
                )
            else:
                raise WrongPriorKind(f"unsupported prior {type(self.prior).__name__}")
        constants = DisparityConstants(*head, *tail)
        bad = [k for k, v in vars(constants).items() if v is not None and not math.isfinite(v)]
        if bad:
            raise NonFinite(f"derived constant {bad[0]} is out of floating-point range")
        # G is positive definite, but the rounded G may not be; square roots take these
        squares = ("rule_sq", "prior_sq", "mismatch") if isinstance(self.prior, CommonPrior) else ("rule_sq",)
        negative = [k for k in squares if getattr(constants, k) < 0.0]
        if negative:
            raise NotPD(f"inverse-cost gap is negative: {negative[0]} = {getattr(constants, negative[0]):.6e}")

        derived = dict(
            cost_gap_label=cost_gap_label, gap=gap, trace_gap=constants.trace_gap, constants=constants,
            prior_means=means, commute_defect=commute_defect, known_gap=known, unknown_gap=unknown,
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def dim(self):
        return self.cost1.dim

    @property
    def commuting(self):
        return self.commute_defect <= COMMUTE_TOL


def _require_prior(sc, prior_cls, op_name):
    if not isinstance(sc.prior, prior_cls):
        raise WrongPriorKind(
            f"{op_name} needs a {prior_cls.__name__}, "
            f"scenario has {type(sc.prior).__name__}"
        )


def _require_commuting(sc, op_name):
    if not sc.commuting:
        raise NonCommuting(
            f"{op_name}: projector/inverse-cost commutator norm "
            f"{sc.commute_defect:.3e} exceeds {COMMUTE_TOL:.0e}"
        )


def _require_trace_gap(sc):
    if sc.trace_gap <= 0.0:
        raise AssumptionViolated("trace gap must be positive")


def _require_equal_costs(sc, op_name):
    if sc.cost_gap_label is not Definiteness.ZERO:
        raise CostsDiffer(f"{op_name}: needs one cost for both groups, cost gap is {sc.cost_gap_label}")


def score_variance_naive(sc, sigma):
    """Variance of the per-draw score difference between groups."""
    s = noise_scales(sigma)
    sq = sc.cost1.inverse @ sc.cost1.inverse + sc.cost2.inverse @ sc.cost2.inverse
    return scalar_or_array(s * s * quad_form(sc.rule, 0.5 * (sq + sq.T)))


def neutrality_sigma_naive(sc):
    """Noise scale at which the naive utility disparity crosses zero, if any."""
    _require_prior(sc, NaivePrior, "neutrality_sigma_naive")
    return next(iter(_Curve.of(sc, Metric.UTILITY).roots), None)


def neutrality_sigma_score_bayes(sc):
    """Noise scale where a belief-carrying prior's score disparity vanishes, if any."""
    if isinstance(sc.prior, NaivePrior):
        raise WrongPriorKind("neutrality_sigma_score_bayes needs a belief-carrying prior")
    return next(iter(_Curve.of(sc, Metric.SCORE).roots), None)


def overlap_proxy(sc):
    """Norm of the disagreement between the two projected prior means."""
    _require_prior(sc, ProjectedPrior, "overlap_proxy")
    diff = sc.prior_means[0] - sc.prior_means[1]
    return math.sqrt(kahan_dot(diff, diff))


def _overlap_bound(sc, factor):
    """factor |rule| |overlap| ||A^-1||_2 for the shared cost A, with ||A^-1||_2 = 1 / min eig A."""
    floor = float(sc.cost1.eigenvalues.min())
    rule_norm = math.sqrt(kahan_dot(sc.rule, sc.rule))
    return scalar_or_array(factor / floor * rule_norm * overlap_proxy(sc))


def score_overlap_bound(sc, sigma):
    """Upper bound on |score disparity| when both groups share one cost."""
    _require_prior(sc, ProjectedPrior, "score_overlap_bound")
    _require_equal_costs(sc, "score_overlap_bound")
    return _overlap_bound(sc, 1.0 - signal_weight(sc.prior.scale, sigma))


def utility_overlap_bound(sc, sigma):
    """Upper bound on |utility disparity| when both groups share one cost."""
    _require_prior(sc, ProjectedPrior, "utility_overlap_bound")
    _require_equal_costs(sc, "utility_overlap_bound")
    _require_commuting(sc, "utility_overlap_bound")
    return _overlap_bound(sc, 0.5 * (1.0 - signal_weight(sc.prior.scale, sigma)) ** 2)


def noise_range(sc):
    """Default noise interval, three decades either side of the prior scale floored at one."""
    u = max(getattr(sc.prior, "scale", 1.0), 1.0)
    return 1e-3 * u, 1e3 * u


def _noise_grid(lo, hi, points, spacing="log"):
    """Every noise grid flab builds: ``points`` levels from lo to hi, log-spaced, or evenly for "linear"."""
    with np.errstate(over="ignore"):  # a power may overflow at the float maximum; geomspace pins both ends
        return (np.geomspace if spacing == "log" else np.linspace)(lo, hi, points)


def sigma_grid(sc, points=241):
    """Log-spaced `_noise_grid` over `noise_range`; ``points`` is an integer from 1 to MAX_POINTS, else Error."""
    return _noise_grid(*noise_range(sc), _integer(points, "points", 1, MAX_POINTS))


def endpoints(sc, metric):
    """The disparity at zero noise and its limit as the noise grows without bound.

    The limit substitutes a zero signal weight, never a huge noise scale.
    Naive score is constant; naive utility is unbounded below, so its limit
    is -inf. Projected utility needs each projector to commute with its
    group's inverse cost, else NonCommuting.
    """
    metric = Metric(metric)
    c = sc.constants
    naive = isinstance(sc.prior, NaivePrior)
    if metric is Metric.SCORE:
        return c.rule_sq, c.rule_sq if naive else c.cross
    if isinstance(sc.prior, ProjectedPrior):
        _require_commuting(sc, "projected utility disparity")
    return 0.5 * c.rule_sq, -math.inf if naive else c.cross - c.prior_sq / 2.0


def disparity_value(sc, metric, sigma):
    """Analytic score or utility disparity of the scenario at noise scale sigma.

    The metric is read by `Metric` and sigma by `noise_scales`, which refuses a nan
    or infinite level; the limit is `endpoints`' to state. For naive agents the score
    disparity is constant and the utility disparity is half of it less a noise tax,
    unbounded below. The belief-carrying priors share one score and one utility
    formula over the scenario's constants, with the exact `endpoints` value at zero
    noise. Projected utility is valid only when each projector commutes with its
    group's inverse cost; a violation raises NonCommuting rather than returning a
    wrong value.
    """
    metric = Metric(metric)
    s = noise_scales(sigma)
    at_zero, at_inf = endpoints(sc, metric)
    c = sc.constants
    if isinstance(sc.prior, NaivePrior):
        if metric is Metric.SCORE:
            return scalar_or_array(np.full(s.shape, at_zero))
        with np.errstate(over="ignore"):  # unbounded below; an overflow gives -inf
            return scalar_or_array(0.5 * (c.rule_sq - s * s * c.trace_gap))
    w = signal_weight(sc.prior.scale, s)
    if metric is Metric.SCORE:
        level = (1.0 - w) * c.cross + w * c.rule_sq
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            spread = c.mismatch + s * s * c.trace_gap
            level = -(w * w / 2.0) * spread + w * c.mismatch + at_inf
        # Where the spread overflows, the weight is about prior_scale^2 / sigma^2
        # and the level equals its infinite-noise limit; the formula would give
        # 0 * inf = nan there.
        level = np.where(np.isfinite(spread), level, at_inf)
    return scalar_or_array(np.where(s == 0.0, at_zero, level))


def disparity_curve(sc, metric, sigmas=None, points=241):
    """Sample a disparity curve and attach its analytic `endpoints`."""
    grid = sigma_grid(sc, points=points) if sigmas is None else np.asarray(sigmas, float)
    return DisparityCurve(grid, disparity_value(sc, metric, grid), *endpoints(sc, metric))


def _sqrt(x):
    """The square root of an exact x >= 0: x is scaled by 4^-k into [1/2, 4), rounded by `_rounded` and its
    root scaled back by 2^k. It equals math.sqrt(float(x)) wherever float(x) is normal, is 0 at 0, keeps 53
    bits where float(x) would be subnormal or overflow, and is finite wherever the root fits, else inf."""
    num, den = x.as_integer_ratio()
    k = (num.bit_length() - den.bit_length()) // 2
    scaled = _rounded(num << -2 * k, den) if k < 0 else _rounded(num, den << 2 * k)
    try:
        return math.ldexp(math.sqrt(scaled), k)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class _Curve:
    """A disparity curve as an exact polynomial c2 x^2 + c1 x + c0, in `Fraction`s of the float constants.

    A belief-carrying prior's x is the signal weight w = g^2 / (g^2 + sigma^2) for its scale g, 1 at
    sigma = 0 and 0 in the limit: the score is (rule_sq - cross) w + cross, and the utility has a =
    (g^2 T - M) / 2, b = M - g^2 T / 2 and L = cross - prior_sq / 2, for M = mismatch and T = trace_gap.
    A naive prior's x is sigma^2 (``scale`` None). ``at_zero`` is `endpoints`' value at sigma = 0: the
    utility's a + b + L = M / 2 + L equals it only up to rounding, which decides its sign for a tiny rule.
    """

    c2: Fraction
    c1: Fraction
    c0: Fraction
    at_zero: Fraction
    scale: "float | None"

    @classmethod
    def of(cls, sc, metric):
        c, g = sc.constants, getattr(sc.prior, "scale", None)
        rule_sq = Fraction(c.rule_sq)
        if Metric(metric) is Metric.SCORE:
            cross = rule_sq if g is None else Fraction(c.cross)
            return cls(0, rule_sq - cross, cross, rule_sq, g)
        if g is None:
            return cls(0, -Fraction(sc.trace_gap) / 2, rule_sq / 2, rule_sq / 2, g)
        mismatch = Fraction(c.mismatch)
        b = mismatch - Fraction(g) ** 2 * Fraction(sc.trace_gap) / 2
        return cls(mismatch / 2 - b, b, Fraction(c.cross) - Fraction(c.prior_sq) / 2, rule_sq / 2, g)

    def _sigma(self, u):
        return (self.scale or 1.0) * _sqrt(u)

    @property
    def roots(self):
        """The noise scales of the simple zeros at 0 < sigma < inf, ascending; a double zero, or one at
        sigma = 0, only touches zero. In u = sigma^2 / g^2 (sigma^2 for a naive prior) the curve has the
        sign of p2 u^2 + p1 u + p0, (1 + u)^2 times the curve at w = 1 / (1 + u), with p0 = ``at_zero``
        and p2 the limit. Its zeros q / p2 and p0 / q, for q = -(p1 + sign(p1) sqrt(disc)) / 2, have
        exact signs, and the stable formula puts each sigma within a few ulps."""
        p2, p1 = (self.c2, self.c1) if self.scale is None else (self.c0, self.c1 + 2 * self.c0)
        p0 = self.at_zero
        if not p2:
            zeros = (-p0 / p1,) if p1 else ()
        else:
            disc = p1 * p1 - 4 * p2 * p0
            if disc <= 0:
                return ()
            root = Fraction(math.isqrt(disc.numerator * disc.denominator << 128), disc.denominator << 64)
            q = -(p1 + root if p1 >= 0 else p1 - root) / 2
            zeros = (q / p2, p0 / q)
        return tuple(sorted(self._sigma(u) for u in zeros if u > 0))

    @property
    def vertex(self):
        """A utility's minimum as (sigma, value), or None: for T > 0 it lies inside 0 < w < 1 where b < 0,
        at w = -b / (2 a), so sigma = g sqrt((2 a + b) / -b) = g / sqrt(1 - 2 M / (g^2 T))."""
        if self.c1 >= 0:
            return None
        value = self.c0 - self.c1**2 / (4 * self.c2)
        return self._sigma((2 * self.c2 + self.c1) / -self.c1), _rounded(*value.as_integer_ratio())

    @property
    def critical_scale(self):
        """A utility's sqrt(2 M / T) for T > 0, or 0 for M <= 0: the scale where b = 0, and the vertex leaves
        0 < w < 1 at w = 0. As a + b = M / 2 and 2 a + b = g^2 T / 2, 2 M / T = 2 g^2 (a + b) / (2 a + b)."""
        ratio = 2 * Fraction(self.scale) ** 2 * (self.c2 + self.c1) / (2 * self.c2 + self.c1)
        return _sqrt(max(ratio, 0))
