"""Property tests of the paper's model claims over random valid scenarios.

Scenarios have d = 2..4, costs and projectors in random orthonormal bases,
and a second cost that dominates the first (or equals it, for the overlap
bounds). Hypothesis runs derandomized with a fixed example count, so these
tests draw the same scenarios on every run. The crossing properties draw a
seed for the acceptance tests' own generator and keep every draw it makes,
the far-root ones that acceptance test 06 skips included.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flab.agents import Metric
from flab.closed_form import (
    CommonPrior,
    NaivePrior,
    ProjectedPrior,
    Scenario,
    disparity_value,
    endpoints,
    noise_range,
    score_overlap_bound,
    sigma_grid,
    utility_overlap_bound,
)
from flab.linalg_core import CostMatrix, Projection
from flab.regimes import classify_utility_bayes, classify_utility_projected, two_root_region_check
from test_acceptance import draw_cost_pair_and_vectors, log_argmin
from test_recipes import recipes

PROPERTY = settings(max_examples=120, derandomize=True, deadline=None, database=None)
SEEDED = settings(PROPERTY, max_examples=60)
# past about 1.3e154 sigma^2 overflows, which the evaluator maps to the limit
HUGE_SIGMAS = [1e6, 1e12, 1e150, 1e200, 1e300]


def vectors(d, lo, hi):
    return st.lists(st.floats(lo, hi), min_size=d, max_size=d).map(np.array)


@st.composite
def bases(draw, d):
    """An orthonormal basis: the Q factor of any d x d matrix is orthogonal."""
    raw = draw(st.lists(st.floats(-1.0, 1.0), min_size=d * d, max_size=d * d))
    return np.linalg.qr(np.reshape(raw, (d, d)))[0]


def rotated(basis, diagonal):
    m = basis @ np.diag(diagonal) @ basis.T
    return 0.5 * (m + m.T)


@st.composite
def scenarios(draw, kind, equal_costs=False):
    """A valid scenario with a prior of ``kind``: "naive", "common" or "projected".

    Projectors share the first cost's basis, and so does a projected
    prior's second cost, so each projector commutes with its group's
    inverse cost.
    """
    d = draw(st.integers(2, 4))
    basis = draw(bases(d))
    low = draw(vectors(d, 0.5, 3.0))
    cost1 = CostMatrix(rotated(basis, low))
    if equal_costs:
        cost2 = cost1
    else:
        extra = draw(vectors(d, 0.1, 3.0))
        gap_basis = basis if kind == "projected" else draw(bases(d))
        cost2 = CostMatrix(rotated(basis, low) + rotated(gap_basis, extra))
    scale = math.exp(draw(st.floats(math.log(1e-2), math.log(1e2))))
    if kind == "naive":
        prior = NaivePrior()
    elif kind == "common":
        prior = CommonPrior(draw(vectors(d, -3.0, 3.0)), scale)
    else:
        masks = [draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=d, max_size=d)) for _ in range(2)]
        prior = ProjectedPrior(Projection(rotated(basis, masks[0])), Projection(rotated(basis, masks[1])), scale)
    return Scenario(draw(vectors(d, -3.0, 3.0)), cost1, cost2, prior)


def noise_levels(sc):
    return np.concatenate([[0.0], sigma_grid(sc), HUGE_SIGMAS])


@PROPERTY
@given(sc=scenarios("naive"), level=st.floats(-1e6, 1e6))
def test_naive_utility_gap_falls_below_any_level(sc, level):
    # the noise tax sigma^2 trace_gap / 2 grows without bound
    values = disparity_value(sc, Metric.UTILITY, 10.0 ** np.arange(0, 20))
    assert np.all(np.diff(values) <= 0.0)
    assert values[-1] < level


@PROPERTY
@given(sc=scenarios("common") | scenarios("projected"))
def test_belief_gaps_stay_within_their_endpoints(sc):
    sigmas = noise_levels(sc)
    c = sc.constants

    at_zero, at_inf = endpoints(sc, Metric.SCORE)
    tol = 1e-12 * (1.0 + abs(at_zero) + abs(at_inf))
    score = disparity_value(sc, Metric.SCORE, sigmas)
    assert np.all(score >= min(at_zero, at_inf) - tol)
    assert np.all(score <= max(at_zero, at_inf) + tol)

    at_zero, at_inf = endpoints(sc, Metric.UTILITY)
    classify = classify_utility_bayes if isinstance(sc.prior, CommonPrior) else classify_utility_projected
    regime = classify(sc)
    floor = min(at_zero, at_inf)
    if regime.minimum_value is not None:
        floor = min(floor, regime.minimum_value)
    # each term of the formula is at most |mismatch|, scale^2 trace_gap or the limit in size
    tol = 1e-12 * (1.0 + abs(c.mismatch) + sc.prior.scale**2 * sc.trace_gap + abs(at_zero) + abs(at_inf))
    utility = disparity_value(sc, Metric.UTILITY, sigmas)
    assert np.all(utility >= floor - tol)
    assert np.all(utility <= max(at_zero, at_inf) + tol)


@PROPERTY
@given(sc=scenarios("projected", equal_costs=True))
def test_overlap_bounds_never_undercut(sc):
    sigmas = noise_levels(sc)
    for metric, bound in ((Metric.SCORE, score_overlap_bound), (Metric.UTILITY, utility_overlap_bound)):
        slack = bound(sc, sigmas) - np.abs(disparity_value(sc, metric, sigmas))
        # the slack `flab bounds` allows
        assert np.all(slack >= -1e-12), metric


def acceptance_scenario(rng, scale):
    """The next common-prior scenario of the acceptance tests' generator, past the short rules it rejects, at
    the prior scale ``scale(constants)``, for the constants at scale 1; a None scale rejects the draw too."""
    while True:
        drawn = draw_cost_pair_and_vectors(rng)
        if drawn is None:
            continue
        th, a1, a2, th0 = drawn
        gam = scale(Scenario(th, CostMatrix(a1), CostMatrix(a2), CommonPrior(th0, 1.0)).constants)
        if gam is not None:
            return Scenario(th, CostMatrix(a1), CostMatrix(a2), CommonPrior(th0, gam))


def as_spec(sc):
    """A common-prior scenario as the scenario dict the exact model reads."""
    return {"dimension": sc.dim, "rule": sc.rule.tolist(), "cost1": sc.cost1.matrix.tolist(),
            "cost2": sc.cost2.matrix.tolist(),
            "prior": {"kind": "common", "mean": sc.prior.mean.tolist(), "scale": sc.prior.scale}}


@SEEDED
@given(seed=st.integers(0, 2**32 - 1))
def test_predicted_crossings_are_the_exact_models_and_the_scans(seed):
    # acceptance test 06's draws, every one kept: the scan's window brackets every exact root
    rng = np.random.default_rng(seed)
    sc = acceptance_scenario(rng, lambda c: float(rng.uniform(0.2, 4.0)))
    regime = classify_utility_bayes(sc)
    assert regime.predicted_roots == recipes.exact_crossings(as_spec(sc)) == len(regime.roots)
    assert regime.count_matches


@SEEDED
@given(seed=st.integers(0, 2**32 - 1))
def test_minimum_is_the_numeric_argmin(seed):
    # acceptance test 05's common-prior draws: a prior scale 1.1 to 3 times the critical one
    rng = np.random.default_rng(seed)

    def past_critical(c):
        if c.mismatch < 1e-6:
            return None
        return math.sqrt(2.0 * c.mismatch / c.trace_gap) * float(rng.uniform(1.1, 3.0))

    sc = acceptance_scenario(rng, past_critical)
    regime = classify_utility_bayes(sc)
    numeric = log_argmin(lambda s: disparity_value(sc, Metric.UTILITY, s), *noise_range(sc))
    assert abs(numeric - regime.sigma_min) <= 1e-4 * regime.sigma_min


@SEEDED
@given(seed=st.integers(0, 2**32 - 1))
def test_two_root_region_has_two_exact_roots(seed):
    # acceptance test 07's draws: a prior scale 1.05 to 2 times the larger of the region's two thresholds
    rng = np.random.default_rng(seed)

    def inside(c):
        if not c.prior_sq < 2.0 * c.cross:
            return None
        thr_a = math.sqrt((2.0 * c.cross - c.prior_sq + 3.0 * c.rule_sq) / c.trace_gap)
        thr_b = math.sqrt((2.0 / c.trace_gap) * math.sqrt(c.mismatch))
        return max(thr_a, thr_b) * float(rng.uniform(1.05, 2.0))

    sc = acceptance_scenario(rng, inside)
    assert two_root_region_check(sc)
    regime = classify_utility_bayes(sc)
    assert regime.predicted_roots == len(regime.exact_roots) == 2
