"""Property tests of the paper's model claims over random valid scenarios.

Scenarios have d = 2..4, costs and projectors in random orthonormal bases,
and a second cost that dominates the first (or equals it, for the overlap
bounds). Hypothesis runs derandomized with a fixed example count, so these
tests draw the same scenarios on every run.
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
    score_overlap_bound,
    sigma_grid,
    utility_overlap_bound,
)
from flab.linalg_core import CostMatrix, Projection
from flab.regimes import classify_utility_bayes, classify_utility_projected

PROPERTY = settings(max_examples=120, derandomize=True, deadline=None, database=None)
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
