"""Regime classification tests: frozen fixtures and structural conditions."""

import math

import numpy as np
import pytest

from flab import regimes
from flab.agents import normal_stream, standard_normals
from flab.closed_form import (
    CommonPrior,
    GapMatrix,
    NaivePrior,
    ProjectedPrior,
    Scenario,
    neutrality_sigma_score_bayes,
)
from flab.errors import AssumptionViolated, InvalidBracket, NonCommuting, NonFinite
from flab.linalg_core import CostMatrix, Definiteness, Projection, definiteness, quad_form
from flab.regimes import (
    TANGENT_TOL,
    MatrixVerdict,
    RegionLabel,
    RootScan,
    ScoreTrend,
    UtilityCase,
    _bisect,
    classify_score_bayes,
    classify_utility_bayes,
    classify_utility_projected,
    classify_utility_projected_matrix,
    critical_prior_scale,
    exploitation_condition_projected,
    find_roots,
    label_region,
    monotonicity_condition_projected,
    neutrality_condition_projected,
    two_root_region_check,
)

RULE = np.array([1.0, 0.5])


@pytest.fixture
def costs():
    return CostMatrix(np.diag([2.0, 1.0])), CostMatrix(np.diag([4.0, 3.0]))


def common_scenario(costs, mean, scale):
    return Scenario(RULE, costs[0], costs[1], CommonPrior(np.asarray(mean, float), scale))


def projected_scenario(costs, mask1, mask2, scale):
    prior = ProjectedPrior(
        Projection(np.diag(np.asarray(mask1, float))),
        Projection(np.diag(np.asarray(mask2, float))),
        scale,
    )
    return Scenario(RULE, costs[0], costs[1], prior)


class TestLabelRegion:
    def test_signs(self):
        assert label_region(0.5) is RegionLabel.EXPLOITATION
        assert label_region(-0.5) is RegionLabel.BURDEN
        assert label_region(0.0) is RegionLabel.NEUTRALITY
        assert label_region(5e-11) is RegionLabel.NEUTRALITY

    def test_rejects_non_finite(self):
        with pytest.raises(NonFinite):
            label_region(math.nan)
        with pytest.raises(NonFinite):
            label_region(math.inf)


class TestFindRoots:
    def test_quadratic_roots_located(self):
        scan = find_roots(lambda x: (x - 1.0) * (x - 3.0), 0.5, 10.0)
        assert len(scan.crossings) == 2
        assert scan.crossings[0] == pytest.approx(1.0, rel=1e-9)
        assert scan.crossings[1] == pytest.approx(3.0, rel=1e-9)
        assert scan.tangential == ()

    def test_exact_grid_zero_counts_once(self):
        scan = find_roots(lambda x: x - 1.0, 0.5, 2.0, points=3)
        assert scan.crossings == (1.0,)

    def test_exact_zero_at_a_bisection_midpoint_is_the_root(self):
        # the grid is [0.5, 1.5]; bisection's first midpoint 1.0 reads exactly zero
        scan = find_roots(lambda x: x - 1.0, 0.5, 1.5, points=2)
        assert scan.crossings == (1.0,)

    def test_tangential_touch_reported_separately(self):
        grid = np.geomspace(0.5, 2.0, 2001)
        c = float(grid[1000])
        scan = find_roots(lambda x: (x - c) ** 2 + 1e-12, 0.5, 2.0)
        assert scan.crossings == ()
        assert len(scan.tangential) == 1
        assert scan.tangential[0] == pytest.approx(c, rel=1e-12)

    def test_sign_change_whose_product_underflows(self):
        # 1e-170 (1.1 - x) changes sign between two grid points whose values' product underflows to -0.0
        scan = find_roots(lambda x: 1e-170 * (1.1 - x), 0.5, 2.0)
        assert len(scan.crossings) == 1
        assert scan.crossings[0] == pytest.approx(1.1, rel=1e-9)

    def test_no_roots(self):
        scan = find_roots(lambda x: 1.0 + x, 0.1, 10.0)
        assert scan.crossings == ()

    def test_grid_evaluated_in_one_call(self):
        shapes = []

        def curve(x):
            shapes.append(np.shape(x))
            return x - 1.1

        find_roots(curve, 0.5, 2.0, points=101)
        assert shapes[0] == (101,)
        assert len(shapes) > 1 and all(s == () for s in shapes[1:])

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (1.0, math.inf)])
    def test_invalid_brackets(self, lo, hi):
        with pytest.raises(InvalidBracket):
            find_roots(lambda x: x, lo, hi)

    def test_tangential_run_reported_at_first_point_nearest_zero(self):
        vals = np.array([1.0, 5e-12, 2e-12, 2e-12, 3e-12, 1.0, -1.0, 1e-12, 1.0, 4e-12])
        grid = np.geomspace(0.5, 2.0, len(vals))
        scan = find_roots(lambda x: vals if np.ndim(x) else -1.0, 0.5, 2.0, points=len(vals))
        assert len(scan.crossings) == 2
        # 1e-12 at index 7 touches the sign change from index 6, so two runs remain
        assert scan.tangential == (float(grid[2]), float(grid[9]))

    def test_inf_next_to_exact_zero_is_quiet(self):
        vals = np.array([1.0, math.inf, 0.0, -math.inf, math.nan, 1e300, -1e300])
        grid = np.geomspace(0.5, 2.0, len(vals))
        scan = find_roots(lambda x: vals if np.ndim(x) else -1.0, 0.5, 2.0, points=len(vals))
        assert scan.crossings[0] == float(grid[2])
        assert len(scan.crossings) == 2


def loop_find_roots(curve_fn, sigma_lo, sigma_hi, points=2001):
    """The per-point scan that `find_roots` replaced, kept as its reference."""
    grid = np.geomspace(float(sigma_lo), float(sigma_hi), points)
    vals = np.asarray(curve_fn(grid), dtype=float).tolist()
    crossings = []
    change = [False] * (len(grid) - 1)
    for i in range(len(grid) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            crossings.append(float(grid[i]))
            continue
        if a < 0.0 < b or b < 0.0 < a:
            change[i] = True
            crossings.append(_bisect(curve_fn, float(grid[i]), float(grid[i + 1]), a))
    if vals[-1] == 0.0:
        crossings.append(float(grid[-1]))

    tangential = []
    cluster = []
    for i, v in enumerate(vals):
        near_change = (i > 0 and change[i - 1]) or (i < len(change) and change[i])
        if abs(v) < TANGENT_TOL and v != 0.0 and not near_change:
            cluster.append(i)
        elif cluster:
            best = min(cluster, key=lambda j: abs(vals[j]))
            tangential.append(float(grid[best]))
            cluster = []
    if cluster:
        best = min(cluster, key=lambda j: abs(vals[j]))
        tangential.append(float(grid[best]))
    return RootScan(tuple(sorted(crossings)), tuple(tangential))


SCAN_LO, SCAN_HI = 0.5, 8.0
LIFTS = (0.0, 1e-12, -1e-12, 5e-12)


def _anchor(rng, grid):
    """A point on the first, an interior or the last grid point, or off the grid."""
    pick = rng.integers(4)
    if pick == 0:
        return float(grid[0])
    if pick == 1:
        return float(grid[rng.integers(len(grid))])
    if pick == 2:
        return float(grid[-1])
    return float(np.exp(rng.uniform(np.log(SCAN_LO), np.log(SCAN_HI))))


def _roots_curve(rng, grid):
    """0-3 simple roots, some exactly on grid points."""
    roots = [_anchor(rng, grid) for _ in range(rng.integers(4))]
    sign = rng.choice([-1.0, 1.0])

    def curve(x):
        out = sign * np.ones_like(x)
        for r in roots:
            out = out * (x - r)
        return out

    return curve


def _lifted_square(rng, grid):
    """k (x - c)^2 + lift: flat enough near c for runs of tiny values, which
    touch a grid end when c sits there and flank the sign changes when the
    lift is negative."""
    c = _anchor(rng, grid)
    k = 10.0 ** rng.uniform(-12.0, 0.0)
    lift = LIFTS[rng.integers(len(LIFTS))]
    return lambda x: k * (x - c) ** 2 + lift


def _non_finite(rng, grid):
    """Either curve above with nan and +-inf planted in its grid values,
    among them an inf next to an exact zero; bisection sees the formula."""
    base = (_roots_curve, _lifted_square)[rng.integers(2)](rng, grid)
    planted = {}
    for _ in range(rng.integers(1, 4)):
        i = int(rng.integers(len(grid)))
        planted[i] = (math.nan, math.inf, -math.inf, 0.0)[rng.integers(4)]
        if i + 1 < len(grid) and rng.integers(2):
            planted[i + 1] = 0.0 if planted[i] != 0.0 else math.inf

    def curve(x):
        out = base(x)
        if np.ndim(x):
            out = np.array(out, dtype=float)
            for i, v in planted.items():
                out[i] = v
        return out

    return curve


def _recorded(curve):
    calls = []

    def fn(x):
        calls.append(np.array(x, dtype=float).tolist())
        return curve(x)

    return fn, calls


class TestFindRootsMatchesLoopScan:
    @pytest.mark.parametrize("points", [2, 3, 101, 2001])
    @pytest.mark.parametrize("family", [_roots_curve, _lifted_square, _non_finite])
    def test_same_scan_and_same_calls(self, family, points):
        rng = np.random.default_rng(points)
        grid = np.geomspace(SCAN_LO, SCAN_HI, points)
        seen = {"crossings": 0, "grid zeros": 0, "tangential": 0}
        for _ in range(150):
            curve = family(rng, grid)
            fn, calls = _recorded(curve)
            ref_fn, ref_calls = _recorded(curve)
            scan = find_roots(fn, SCAN_LO, SCAN_HI, points)
            assert scan == loop_find_roots(ref_fn, SCAN_LO, SCAN_HI, points)
            assert calls == ref_calls
            seen["crossings"] += bool(scan.crossings)
            seen["grid zeros"] += bool(set(scan.crossings) & set(grid.tolist()))
            seen["tangential"] += bool(scan.tangential)
        if points > 3:
            # the family reaches each branch of the scan, so the match means something
            wanted = {"crossings", "grid zeros", "tangential"}
            if family is _roots_curve:
                wanted -= {"tangential"}
            assert all(seen[k] > 0 for k in wanted), seen


class TestScoreClassification:
    def test_increasing_for_aligned_prior(self, costs):
        shape = classify_score_bayes(common_scenario(costs, [0.5, 2.0], 1.0))
        assert shape.trend is ScoreTrend.INCREASING
        assert shape.neutrality_sigma is None
        assert not shape.norm_condition_holds

    def test_decreasing_with_crossing_for_opposed_prior(self, costs):
        shape = classify_score_bayes(common_scenario(costs, [-0.5, -2.0], 1.0))
        assert shape.trend is ScoreTrend.DECREASING
        assert shape.neutrality_sigma == pytest.approx(math.sqrt(10.0 / 19.0), rel=1e-12)

    def test_constant_for_matched_prior(self, costs):
        shape = classify_score_bayes(common_scenario(costs, RULE, 1.0))
        assert shape.trend is ScoreTrend.CONSTANT
        assert shape.norm_condition_holds


class TestUtilityClassificationCommon:
    def test_reference_nonmonotone_single_root(self, costs):
        regime = classify_utility_bayes(common_scenario(costs, [0.5, 2.0], 2.0))
        assert regime.case is UtilityCase.NON_MONOTONE
        assert regime.critical_scale == pytest.approx(1.846372364689991, rel=1e-12)
        assert regime.sigma_min == pytest.approx(5.203549084703927, rel=1e-12)
        assert regime.predicted_roots == 1
        assert regime.count_matches
        assert len(regime.roots) == 1
        assert regime.roots[0] == pytest.approx(0.7462449647770764, rel=1e-9)

    def test_below_critical_scale_is_monotone(self, costs):
        regime = classify_utility_bayes(common_scenario(costs, [0.5, 2.0], 1.0))
        assert regime.case is UtilityCase.MONOTONE_DECREASING
        assert regime.sigma_min is None
        # heavy prior: the large-noise limit is negative, one crossing
        assert regime.predicted_roots == 1
        assert regime.count_matches

    def test_matched_prior_minimum_at_prior_scale(self, costs):
        # mean equal to the rule: mismatch 0, minimum sits exactly at the
        # prior scale and stays positive, no crossings
        regime = classify_utility_bayes(common_scenario(costs, RULE, 1.0))
        assert regime.case is UtilityCase.NON_MONOTONE
        assert regime.critical_scale == 0.0
        assert regime.sigma_min == pytest.approx(1.0, rel=1e-12)
        assert regime.minimum_value == pytest.approx(0.09375, rel=1e-12)
        assert regime.predicted_roots == 0
        assert regime.count_matches

    def test_critical_prior_scale_op(self, costs):
        sc = common_scenario(costs, [0.5, 2.0], 1.0)
        assert critical_prior_scale(sc) == pytest.approx(1.846372364689991, rel=1e-12)


class TestZeroRule:
    """A zero rule starts the utility curve at 0, which is no crossing."""

    ZERO = np.zeros(2)

    @pytest.mark.parametrize("mean, scale", [([0.5, 2.0], 2.0), ([0.5, 2.0], 0.5), ([0.0, 0.0], 1.0)])
    def test_common_prior(self, costs, mean, scale):
        sc = Scenario(self.ZERO, costs[0], costs[1], CommonPrior(np.asarray(mean, float), scale))
        regime = classify_utility_bayes(sc)
        assert regime.predicted_roots == len(regime.roots)
        assert regime.count_matches

    @pytest.mark.parametrize("mask1, scale", [([0.0, 0.0], 1.0), ([1.0, 0.0], 3.0)])
    def test_projected_prior(self, costs, mask1, scale):
        prior = ProjectedPrior(Projection(np.diag(mask1)), Projection(np.eye(2)), scale)
        regime = classify_utility_projected(Scenario(self.ZERO, costs[0], costs[1], prior))
        assert regime.predicted_roots == len(regime.roots)
        assert regime.count_matches


class TestTwoRootRegion:
    @pytest.fixture
    def fixture_scenario(self, costs):
        return common_scenario(costs, 0.4 * RULE, 1.5)

    def test_fixture_is_inside_region(self, fixture_scenario):
        assert two_root_region_check(fixture_scenario)

    def test_fixture_has_exactly_two_roots(self, fixture_scenario):
        regime = classify_utility_bayes(fixture_scenario)
        assert regime.case is UtilityCase.NON_MONOTONE
        assert regime.sigma_min == pytest.approx(1.622645593900361, rel=1e-12)
        assert regime.minimum_value == pytest.approx(-0.06969975490196073, rel=1e-12)
        assert regime.predicted_roots == 2
        assert regime.count_matches
        assert regime.roots[0] == pytest.approx(0.9104792783509308, rel=1e-9)
        assert regime.roots[1] == pytest.approx(3.089032410592724, rel=1e-9)

    def test_zero_at_the_minimum_predicts_no_crossing(self):
        # costs I and 2I, a mean equal to the rule (3/8, 3/8) and scale 3/4: the utility is
        # (9/128) (u - 1)^2 / (1 + u)^2 in u = sigma^2 / scale^2, exactly 0 at its minimum sigma = 3/4,
        # which touches zero without crossing it, as find_roots counts a touch
        rule = np.array([0.375, 0.375])
        sc = Scenario(rule, CostMatrix(np.eye(2)), CostMatrix(2.0 * np.eye(2)), CommonPrior(rule.copy(), 0.75))
        regime = classify_utility_bayes(sc)
        assert (regime.sigma_min, regime.minimum_value) == (0.75, 0.0)
        assert regime.predicted_roots == 0 and regime.exact_roots == regime.roots == ()
        assert regime.count_matches

    def test_smaller_scale_leaves_region(self, costs):
        assert not two_root_region_check(common_scenario(costs, 0.4 * RULE, 1.2))

    def test_heavy_prior_never_in_region(self, costs):
        assert not two_root_region_check(common_scenario(costs, [0.5, 2.0], 50.0))


class TestProjectedClassification:
    def test_reference_masks_nonmonotone_no_roots(self, costs):
        regime = classify_utility_projected(projected_scenario(costs, [1, 0], [1, 1], 1.0))
        assert regime.case is UtilityCase.NON_MONOTONE
        assert regime.critical_scale == pytest.approx(math.sqrt(6.0 / 11.0), rel=1e-12)
        assert regime.sigma_min == pytest.approx(math.sqrt(2.2), rel=1e-12)
        assert regime.minimum_value == pytest.approx(0.05078125, rel=1e-12)
        assert regime.predicted_roots == 0
        assert regime.count_matches

    def test_noncommuting_rejected(self, costs):
        slanted = Projection.from_span([np.array([1.0, 1.0])], dim=2)
        prior = ProjectedPrior(slanted, Projection(np.eye(2)), 1.0)
        sc = Scenario(RULE, costs[0], costs[1], prior)
        with pytest.raises(NonCommuting):
            classify_utility_projected(sc)

    def test_minimum_location_versus_scale(self, costs):
        # the interior minimum sits at or above the prior scale exactly when
        # the rule carries at least as much gap mass as the known gap
        for mask1, mask2, scale in [([1, 0], [1, 1], 1.0), ([0, 0], [1, 1], 0.7)]:
            sc = projected_scenario(costs, mask1, mask2, scale)
            regime = classify_utility_projected(sc)
            if regime.case is UtilityCase.NON_MONOTONE:
                c = sc.constants
                expected = regime.sigma_min >= scale
                assert (c.rule_sq >= c.cross) == expected


class TestMatrixConditions:
    def test_exploitation_guaranteed_when_first_knows_more(self, costs):
        sc = projected_scenario(costs, [1, 1], [1, 0], 1.0)
        report = exploitation_condition_projected(sc)
        assert report.label is Definiteness.PD
        assert report.guaranteed
        assert all(ok for _, ok in report.checks)

    def test_exploitation_not_guaranteed_for_reference_masks(self, costs):
        report = exploitation_condition_projected(
            projected_scenario(costs, [1, 0], [1, 1], 1.0)
        )
        assert report.label is Definiteness.INDEFINITE
        assert not report.guaranteed

    def test_neutrality_certificate_and_crossing(self, costs):
        sc = projected_scenario(costs, [0, 0], [1, 1], 2.0)
        result = neutrality_condition_projected(sc)
        assert result.report.label is Definiteness.ND
        assert result.report.guaranteed
        assert all(ok for _, ok in result.report.checks)
        assert result.sigma == pytest.approx(2.0 * math.sqrt(1.25), rel=1e-12)
        assert result.sigma.hex() == neutrality_sigma_score_bayes(sc).hex()

    def test_neutrality_absent_for_aligned_masks(self, costs):
        result = neutrality_condition_projected(
            projected_scenario(costs, [1, 1], [1, 0], 1.0)
        )
        assert not result.report.guaranteed
        assert result.sigma is None

    def test_monotonicity_direction_both_ways(self, costs):
        down = monotonicity_condition_projected(
            projected_scenario(costs, [1, 0], [1, 1], 1.0)
        )
        assert down.label is Definiteness.PSD
        assert down.guaranteed
        assert all(ok for _, ok in down.checks)
        up = monotonicity_condition_projected(
            projected_scenario(costs, [1, 1], [0, 0], 1.0)
        )
        assert up.label is Definiteness.ND
        assert all(ok for _, ok in up.checks)


_NULL_SPACES = "null space of first projector within null space of second"
_SPAN_1_IN_2 = "span of first projector within span of second"
_SPAN_2_IN_1 = "span of second projector within span of first"
_VANISHES = "score disparity vanishes at the crossing"


# (certificate, masks of P1 and P2, rule, label of its gap, guaranteed, descriptions of its checks);
# with the `costs` fixture the known-side gap is diag(m1 / 2 - m2 / 4, m1' - m2' / 3) and the
# unknown-side gap the same over the complements 1 - m
CERTIFICATE_ROWS = [
    ("exploitation", [1, 1], [1, 0], RULE, Definiteness.PD, True, (_NULL_SPACES, "first projector is the identity")),
    ("exploitation", [1, 0], [0, 0], RULE, Definiteness.PSD, True, (_NULL_SPACES,)),
    ("exploitation", [0, 0], [0, 0], RULE, Definiteness.ZERO, True, (_NULL_SPACES,)),
    ("exploitation", [0, 0], [1, 1], RULE, Definiteness.ND, False, ()),
    ("exploitation", [0, 0], [1, 0], RULE, Definiteness.NSD, False, ()),
    ("exploitation", [1, 0], [1, 1], RULE, Definiteness.INDEFINITE, False, ()),
    ("neutrality", [1, 1], [1, 0], RULE, Definiteness.PD, False, ()),
    ("neutrality", [1, 0], [0, 0], RULE, Definiteness.PSD, False, ()),
    ("neutrality", [0, 0], [0, 0], RULE, Definiteness.ZERO, False, ()),
    ("neutrality", [0, 0], [1, 1], RULE, Definiteness.ND, True,
     ("second projector is the identity", "first projector differs from the identity", _VANISHES)),
    ("neutrality", [0, 0], [1, 1], np.zeros(2), Definiteness.ND, True,
     ("second projector is the identity", "first projector differs from the identity")),
    ("neutrality", [0, 0], [1, 0], RULE, Definiteness.NSD, False, ()),
    ("neutrality", [1, 0], [1, 1], RULE, Definiteness.INDEFINITE, False, ()),
    ("monotonicity", [0, 0], [1, 0], RULE, Definiteness.PD, True, (_SPAN_1_IN_2, "first projector is zero")),
    ("monotonicity", [0, 1], [1, 1], RULE, Definiteness.PSD, True, (_SPAN_1_IN_2,)),
    ("monotonicity", [1, 1], [1, 1], RULE, Definiteness.ZERO, True, (_SPAN_1_IN_2,)),
    ("monotonicity", [1, 1], [0, 0], RULE, Definiteness.ND, True,
     (_SPAN_2_IN_1, "second projector is zero", "first projector is nonzero")),
    ("monotonicity", [1, 1], [0, 1], RULE, Definiteness.NSD, True, (_SPAN_2_IN_1,)),
    ("monotonicity", [0, 1], [1, 0], RULE, Definiteness.INDEFINITE, False, ()),
]


@pytest.mark.parametrize("name, mask1, mask2, rule, label, guaranteed, descriptions", CERTIFICATE_ROWS)
def test_certificate_lists_the_facts_its_label_implies(costs, name, mask1, mask2, rule, label, guaranteed,
                                                       descriptions):
    prior = ProjectedPrior(Projection(np.diag(np.asarray(mask1, float))),
                           Projection(np.diag(np.asarray(mask2, float))), 2.0)
    sc = Scenario(rule, costs[0], costs[1], prior)
    report = getattr(regimes, f"{name}_condition_projected")(sc)
    if name == "neutrality":
        report = report.report
    assert (report.label, report.guaranteed) == (label, guaranteed)
    assert tuple(desc for desc, _ in report.checks) == descriptions
    assert all(ok for _, ok in report.checks)


def rotated_projected_scenarios(seed, count):
    """Commuting projected scenarios at d = 2..4: costs and projectors share a random basis."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(2, 5))
        basis = np.linalg.qr(rng.normal(size=(d, d)))[0]
        low = rng.uniform(0.5, 3.0, size=d)
        high = low + rng.uniform(0.1, 3.0, size=d)
        masks = rng.integers(0, 2, size=(2, d)).astype(float)

        def rotated(diagonal):
            m = basis @ np.diag(diagonal) @ basis.T
            return 0.5 * (m + m.T)

        prior = ProjectedPrior(Projection(rotated(masks[0])), Projection(rotated(masks[1])),
                               float(np.exp(rng.uniform(-4.0, 1.0))))
        yield Scenario(rng.normal(size=d), CostMatrix(rotated(low)), CostMatrix(rotated(high)), prior)


def loop_rule_check(sc, verdict):
    """The sampled-rule check one rule at a time: 50 draws of d normals, each
    margin from exactly rounded quadratic forms. Reference for the one-draw check."""
    stream = normal_stream(2718, (7,))
    scale = sc.prior.scale
    band = 1e-8 * (1.0 + scale * scale)
    checked = 0
    agree = True
    for _ in range(50):
        v = standard_normals(stream, sc.dim)
        norm = math.sqrt(float(v @ v))
        if norm < 1e-6:
            continue
        v = v / norm
        margin = (2.0 / sc.trace_gap) * (quad_form(v, sc.gap.sym) - quad_form(v, sc.known_gap.raw)) - scale * scale
        checked += 1
        if verdict is MatrixVerdict.MONOTONE_ALL and margin < -band:
            agree = False
        if verdict is MatrixVerdict.NON_MONOTONE_ALL and margin > band:
            agree = False
    return checked, agree


class TestMatrixClassifier:
    def test_full_knowledge_both_groups_never_monotone(self, costs):
        report = classify_utility_projected_matrix(
            projected_scenario(costs, [1, 1], [1, 1], 1.0)
        )
        assert report.known_label is Definiteness.PD
        assert report.unknown_label is Definiteness.ZERO
        assert report.verdict is MatrixVerdict.NON_MONOTONE_ALL
        assert report.samples_checked == 50
        assert report.samples_agree

    def test_split_costs_no_eigensolve(self, costs, monkeypatch):
        from flab import closed_form, linalg_core

        sc = projected_scenario(costs, [1, 1], [1, 1], 1.0)
        calls = []
        true_eigh = linalg_core.jacobi_eigh

        def counted(matrix):
            calls.append(1)
            return true_eigh(matrix)

        for module in (linalg_core, closed_form):
            monkeypatch.setattr(module, "jacobi_eigh", counted)
        report = classify_utility_projected_matrix(sc)
        assert report.verdict is MatrixVerdict.NON_MONOTONE_ALL
        # one solve per gap matrix; the split is labelled from the unknown gap's eigenvalues
        assert len(calls) == 2

    def test_split_label_equals_its_eigensolve(self):
        verdicts = {
            Definiteness.PD: MatrixVerdict.MONOTONE_ALL,
            Definiteness.PSD: MatrixVerdict.MONOTONE_ALL,
            Definiteness.ZERO: MatrixVerdict.MONOTONE_ALL,
            Definiteness.ND: MatrixVerdict.NON_MONOTONE_ALL,
        }
        reached = []
        for sc in rotated_projected_scenarios(31, 300):
            try:
                report = classify_utility_projected_matrix(sc)
            except AssumptionViolated:
                continue
            split = (2.0 / sc.trace_gap) * sc.unknown_gap.sym - sc.prior.scale**2 * np.eye(sc.dim)
            label = definiteness(split)
            assert report.split_label is label
            assert report.verdict is verdicts.get(label, MatrixVerdict.INDETERMINATE)
            reached.append(report.verdict)
        assert set(reached) == set(MatrixVerdict)
        assert len(reached) >= 50

    def test_one_draw_check_matches_per_rule_loop(self):
        sampled = 0
        for sc in rotated_projected_scenarios(37, 300):
            try:
                report = classify_utility_projected_matrix(sc)
            except AssumptionViolated:
                continue
            if report.verdict is MatrixVerdict.INDETERMINATE:
                assert (report.samples_checked, report.samples_agree) == (0, True)
                continue
            assert (report.samples_checked, report.samples_agree) == loop_rule_check(sc, report.verdict)
            sampled += 1
        assert sampled >= 40

    def test_no_knowledge_small_scale_monotone_for_every_rule(self, costs):
        report = classify_utility_projected_matrix(
            projected_scenario(costs, [0, 0], [0, 0], 0.5)
        )
        assert report.verdict is MatrixVerdict.MONOTONE_ALL
        assert report.samples_agree

    def test_no_knowledge_middle_scale_indeterminate(self, costs):
        report = classify_utility_projected_matrix(
            projected_scenario(costs, [0, 0], [0, 0], 1.0)
        )
        assert report.split_label is Definiteness.INDEFINITE
        assert report.verdict is MatrixVerdict.INDETERMINATE
        assert report.samples_checked == 0

    def test_reference_masks_violate_hypothesis(self, costs):
        with pytest.raises(AssumptionViolated):
            classify_utility_projected_matrix(
                projected_scenario(costs, [1, 0], [1, 1], 1.0)
            )

    def test_noncommuting_rejected(self, costs):
        slanted = Projection.from_span([np.array([1.0, 1.0])], dim=2)
        prior = ProjectedPrior(slanted, slanted, 1.0)
        sc = Scenario(RULE, costs[0], costs[1], prior)
        with pytest.raises(NonCommuting):
            classify_utility_projected_matrix(sc)

    def test_default_calls_give_equal_reports(self, costs):
        sc = projected_scenario(costs, [1, 1], [1, 1], 1.0)
        assert classify_utility_projected_matrix(sc) == classify_utility_projected_matrix(sc)

    @pytest.mark.parametrize(
        "masks, scale, verdict, shift",
        [
            (([0, 0], [0, 0]), 0.5, MatrixVerdict.MONOTONE_ALL, -100.0),
            (([1, 1], [1, 1]), 1.0, MatrixVerdict.NON_MONOTONE_ALL, 100.0),
        ],
    )
    def test_sampled_margins_contradicting_the_verdict_disagree(self, costs, masks, scale, verdict, shift):
        sc = projected_scenario(costs, *masks, scale)
        assert classify_utility_projected_matrix(sc).samples_agree
        # the verdict reads the unknown-side gap; the samples read gap - known_gap.raw,
        # so shifting the full gap moves every sampled margin by 2 shift / trace_gap
        object.__setattr__(sc, "gap", GapMatrix(sc.gap.raw + shift * np.eye(2)))
        report = classify_utility_projected_matrix(sc)
        assert report.verdict is verdict
        assert report.samples_checked == 50
        assert not report.samples_agree
        assert loop_rule_check(sc, verdict) == (50, False)


class TestGuards:
    def test_wrong_prior_kinds(self, costs):
        naive = Scenario(RULE, costs[0], costs[1], NaivePrior())
        from flab.errors import WrongPriorKind

        with pytest.raises(WrongPriorKind):
            classify_utility_bayes(naive)
        with pytest.raises(WrongPriorKind):
            classify_score_bayes(naive)
        with pytest.raises(WrongPriorKind):
            exploitation_condition_projected(naive)

    def test_equal_cost_classification_refused(self):
        cost = CostMatrix(np.diag([2.0, 1.0]))
        prior = ProjectedPrior(
            Projection(np.diag([1.0, 0.0])), Projection(np.eye(2)), 1.0
        )
        sc = Scenario(RULE, cost, cost, prior)
        with pytest.raises(AssumptionViolated):
            classify_utility_projected(sc)
        with pytest.raises(AssumptionViolated):
            critical_prior_scale(sc)
