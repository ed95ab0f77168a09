"""Closed-form evaluators pinned to independently derived values.

The reference configuration throughout: rule [1, 0.5], first cost
diag(2, 1), second cost diag(4, 3). All expected numbers were computed
by hand or with straightforward high-precision arithmetic, not by
running this package.
"""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from flab.agents import Metric, signal_weight
from flab.closed_form import (
    CommonPrior,
    NaivePrior,
    ProjectedPrior,
    Scenario,
    _Curve,
    disparity_curve,
    disparity_value,
    endpoints,
    neutrality_sigma_naive,
    neutrality_sigma_score_bayes,
    noise_range,
    overlap_proxy,
    score_overlap_bound,
    score_variance_naive,
    sigma_grid,
    utility_overlap_bound,
)
from flab.errors import (
    AssumptionViolated,
    CostsDiffer,
    DimensionMismatch,
    Error,
    NegativeSigma,
    NonCommuting,
    NonFinite,
    WrongPriorKind,
)
from flab.linalg_core import CostMatrix, Definiteness, Projection, definiteness, kahan_dot, max_norm, quad_form

RULE = np.array([1.0, 0.5])
PRIOR_MEAN = np.array([0.5, 2.0])


@pytest.fixture
def costs():
    return CostMatrix(np.diag([2.0, 1.0])), CostMatrix(np.diag([4.0, 3.0]))


@pytest.fixture
def naive(costs):
    return Scenario(RULE, costs[0], costs[1], NaivePrior())


@pytest.fixture
def common(costs):
    return Scenario(RULE, costs[0], costs[1], CommonPrior(PRIOR_MEAN, 1.0))


@pytest.fixture
def projected(costs):
    prior = ProjectedPrior(
        Projection(np.diag([1.0, 0.0])), Projection(np.eye(2)), 1.0
    )
    return Scenario(RULE, costs[0], costs[1], prior)


class TestScenarioConstruction:
    def test_gap_reference(self, naive):
        gap = naive.gap.sym
        assert max_norm(gap - np.diag([0.5 - 0.25, 1.0 - 1.0 / 3.0])) == 0.0
        assert gap[1, 1] == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_trace_gap_reference(self, naive):
        assert naive.trace_gap == pytest.approx(11.0 / 12.0, rel=1e-14)

    def test_trace_gap_is_the_exact_diagonal_sum_rounded_once(self):
        from flab.cli import load_scenario

        # on this d=32 scenario a difference of the two rounded inverse traces is 1 ulp off
        sc = load_scenario(str(Path(__file__).resolve().parent / "data" / "highdim_projected.json")).scenario
        assert sc.trace_gap == float(sum(map(Fraction, np.diagonal(sc.gap.raw).tolist())))
        assert sc.trace_gap.hex() == "0x1.b3b6bc4044743p+2"

    def test_constants_reference(self, common):
        c = common.constants
        assert c.rule_sq == pytest.approx(5.0 / 12.0, rel=1e-12)
        assert c.cross == pytest.approx(19.0 / 24.0, rel=1e-12)
        assert c.prior_sq == pytest.approx(2.7291666666666665, rel=1e-12)
        assert c.mismatch == pytest.approx(1.5625, rel=1e-12)

    def test_mismatch_is_squared_gap_distance(self, costs, naive):
        # identity: mismatch equals the squared gap-metric norm of mean-rule
        rng = np.random.default_rng(55)
        gap = naive.gap.sym
        for _ in range(25):
            mean = rng.normal(size=2) * rng.uniform(0.1, 10.0)
            sc = Scenario(RULE, costs[0], costs[1], CommonPrior(mean, 1.0))
            delta = mean - RULE
            direct = float(delta @ gap @ delta)
            assert sc.constants.mismatch == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_projected_constants_unify(self, projected):
        c = projected.constants
        assert c.cross == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert c.prior_sq == c.cross
        assert c.mismatch == pytest.approx(c.rule_sq - c.cross, rel=1e-14)

    def test_projected_gap_matrices(self, projected, naive, common):
        p1, p2 = projected.prior.subspace1, projected.prior.subspace2
        inv1, inv2 = projected.cost1.inverse, projected.cost2.inverse
        known, unknown = projected.known_gap, projected.unknown_gap
        assert np.array_equal(known.raw, inv1 @ p1.matrix - inv2 @ p2.matrix)
        eye = np.eye(2)
        assert np.array_equal(unknown.raw, inv1 @ (eye - p1.matrix) - inv2 @ (eye - p2.matrix))
        for gap in (known, unknown):
            assert np.array_equal(gap.sym, 0.5 * (gap.raw + gap.raw.T))
            assert "label" not in vars(gap)  # no eigensolve until a label is asked for
            assert gap.label is definiteness(gap.sym)
        # known = diag(1/2 - 1/4, 0 - 1/3), unknown = diag(0, 1)
        assert known.label is Definiteness.INDEFINITE
        assert unknown.label is Definiteness.PSD
        assert naive.known_gap is None and common.unknown_gap is None

    def test_rejects_equal_costs_without_projection(self, costs):
        with pytest.raises(AssumptionViolated):
            Scenario(RULE, costs[0], costs[0], NaivePrior())

    def test_rejects_indefinite_cost_gap(self, costs):
        flipped = CostMatrix(np.diag([4.0, 0.5]))
        with pytest.raises(AssumptionViolated):
            Scenario(RULE, costs[0], flipped, NaivePrior())

    def test_rejects_dimension_mismatch(self, costs):
        with pytest.raises(DimensionMismatch):
            Scenario(np.array([1.0, 0.5, 0.2]), costs[0], costs[1], NaivePrior())
        with pytest.raises(DimensionMismatch):
            Scenario(RULE, costs[0], costs[1], CommonPrior(np.zeros(3), 1.0))

    def test_equal_costs_admitted_for_projected(self, projected):
        cost = CostMatrix(np.diag([2.0, 1.0]))
        sc = Scenario(RULE, cost, cost, projected.prior)
        assert sc.trace_gap == 0.0
        assert sc.constants.rule_sq == 0.0

    @pytest.mark.parametrize("cost2", [
        *(np.diag([2.0 + e, 1.0 + e]) for e in (1e-13, 1e-11, 5e-10)),
        np.diag([math.nextafter(2.0, 3.0), 1.0]),
        np.diag([math.nextafter(2.0, 1.0), 1.0]),
        np.diag([math.nextafter(2.0, 3.0), math.nextafter(1.0, 0.0)]),
    ], ids=["diag+1e-13", "diag+1e-11", "diag+5e-10", "ulp up", "ulp down", "ulps apart"])
    def test_zero_labelled_costs_are_one_cost(self, projected, cost2):
        cost = CostMatrix(np.diag([2.0, 1.0]))
        sc = Scenario(RULE, cost, CostMatrix(cost2), projected.prior)
        assert sc.cost_gap_label is Definiteness.ZERO
        assert sc.cost1 is cost and sc.cost2 is cost
        gaps = [*sc.gap.raw.ravel().tolist(), *sc.gap.sym.ravel().tolist(), sc.trace_gap, sc.constants.rule_sq]
        assert all(g == 0.0 and math.copysign(1.0, g) == 1.0 for g in gaps)  # +0.0, not -0.0


def exact_form(x, matrix, y):
    """float() of the exact rational x'My, every float read as the rational it is."""
    return float(sum(
        Fraction(float(xi)) * Fraction(float(m)) * Fraction(float(yj))
        for xi, row in zip(x, matrix) for m, yj in zip(row, y)
    ))


def random_spd_pair(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    low = q @ np.diag(rng.uniform(0.5, 3.0, size=d)) @ q.T
    m = rng.normal(size=(d, d))
    return CostMatrix(0.5 * (low + low.T)), CostMatrix(0.5 * (low + low.T) + m @ m.T + 0.1 * np.eye(d))


def seeded_scenarios():
    """Common-prior and projected-prior scenarios with random costs, d = 2 to 8."""
    rng = np.random.default_rng(1717)
    for k in range(60):
        d = 2 + k % 7
        cost1, cost2 = random_spd_pair(rng, d)
        rule = rng.normal(size=d) * 10.0 ** rng.uniform(-3, 3)
        if k % 2:
            spans = [rng.normal(size=(int(rng.integers(0, d + 1)), d)) for _ in range(2)]
            prior = ProjectedPrior(*(Projection.from_span(list(s), d) for s in spans), 1.0)
        else:
            # a mean near the rule makes the mismatch cancel in any sum of the other three
            mean = rule * (1.0 + 1e-6 * rng.normal()) if k % 4 == 0 else rng.normal(size=d)
            prior = CommonPrior(mean, 1.0)
        yield Scenario(rule, cost1, cost2, prior)


def committed_scenarios():
    from flab.cli import load_scenario

    for path in sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json")):
        yield load_scenario(str(path)).scenario


class TestExactConstants:
    """Every constant is its quadratic form over the float gap matrices, correctly rounded."""

    @pytest.mark.parametrize("source", [committed_scenarios, seeded_scenarios])
    def test_constants_are_correctly_rounded_forms(self, source):
        kinds = set()
        for sc in source():
            c, r, gap = sc.constants, sc.rule, sc.gap.sym
            assert c.rule_sq == exact_form(r, gap, r)
            if isinstance(sc.prior, CommonPrior):
                mu = sc.prior.mean
                assert c.cross == exact_form(mu, gap, r)
                assert c.prior_sq == exact_form(mu, gap, mu)
                assert c.mismatch == exact_form(mu - r, gap, mu - r)
            elif isinstance(sc.prior, ProjectedPrior):
                known = exact_form(r, sc.known_gap.raw, r)
                assert c.cross == known and c.prior_sq == known
                assert c.mismatch == exact_form(r, sc.unknown_gap.raw, r)
            kinds.add(type(sc.prior))
        assert CommonPrior in kinds and ProjectedPrior in kinds


class TestNaiveFormulas:
    def test_score_disparity_constant(self, naive):
        for sigma in (0.0, 1.0, 1e200):
            assert disparity_value(naive, Metric.SCORE, sigma) == pytest.approx(5.0 / 12.0, rel=1e-12)

    def test_variance_reference_value(self, naive):
        assert score_variance_naive(naive, 1.0) == pytest.approx(
            0.5902777777777778, rel=1e-13
        )

    def test_variance_scales_quadratically(self, naive):
        v1 = score_variance_naive(naive, 1.0)
        v2 = score_variance_naive(naive, 2.0)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-13)
        assert score_variance_naive(naive, 0.0) == 0.0

    def test_utility_reference_value(self, naive):
        assert disparity_value(naive, Metric.UTILITY, 0.5) == pytest.approx(0.09375, rel=1e-12)

    def test_utility_zero_noise_is_half_score(self, naive):
        fu0 = disparity_value(naive, Metric.UTILITY, 0.0)
        assert fu0 == 0.5 * naive.constants.rule_sq

    def test_neutrality_sigma(self, naive):
        root = neutrality_sigma_naive(naive)
        assert root == pytest.approx(math.sqrt(5.0 / 11.0), rel=1e-13)
        assert disparity_value(naive, Metric.UTILITY, root) == pytest.approx(0.0, abs=1e-15)

    def test_wrong_prior_rejected(self, common):
        with pytest.raises(WrongPriorKind):
            neutrality_sigma_naive(common)

    @pytest.mark.parametrize("trace_gap", [0.0, -0.0, -1e-17])
    def test_no_crossing_without_a_positive_trace_gap(self, naive, trace_gap):
        # (rule_sq - sigma^2 trace_gap) / 2 then never falls through zero
        object.__setattr__(naive, "trace_gap", trace_gap)
        assert neutrality_sigma_naive(naive) is None


@pytest.mark.parametrize(
    "coefficients, roots",
    [
        ((0, -1, 1, None), (1.0,)),  # a naive utility, falling through zero at t = sigma^2 = 1
        ((0, -1, 0, None), ()),  # a zero start is no crossing
        ((2, -1, 0, 2.0), (2.0,)),  # w (2w - 1): nor is a zero limit
        ((4, -4, 1, 2.0), ()),  # (2w - 1)^2: nor a touch at the minimum
        ((8, -6, 1, 2.0), (2.0, 2.0 * math.sqrt(3.0))),  # (2w - 1)(4w - 1), at w = 1/2 and 1/4
        ((0, 2, -1, 2.0), (2.0,)),  # a score from 1 at w = 1 to -1 in the limit
    ],
)
def test_curve_roots(coefficients, roots):
    # in the signal weight w = g^2 / (g^2 + sigma^2), for g = 2: w = 1/2 at sigma = 2
    *terms, scale = coefficients
    c2, c1, c0 = map(Fraction, terms)
    at_zero = c0 if scale is None else c2 + c1 + c0
    assert _Curve(c2, c1, c0, at_zero, scale).roots == roots


class TestCommonPriorFormulas:
    def test_score_reference_value(self, common):
        assert disparity_value(common, Metric.SCORE, 1.0) == pytest.approx(
            0.6041666666666666, rel=1e-13
        )

    def test_utility_reference_value(self, common):
        assert disparity_value(common, Metric.UTILITY, 1.0) == pytest.approx(
            -0.1015625, rel=1e-12
        )

    def test_boundary_values_exact(self, common):
        c = common.constants
        assert disparity_value(common, Metric.SCORE, 0.0) == c.rule_sq
        assert disparity_value(common, Metric.UTILITY, 0.0) == 0.5 * c.rule_sq

    @pytest.mark.filterwarnings("error")
    def test_infinity_limits(self, common):
        c = common.constants
        big = 1e3 * noise_range(common)[1]
        assert disparity_value(common, Metric.SCORE, big) == pytest.approx(c.cross, rel=1e-6)
        limit = c.cross - 0.5 * c.prior_sq
        assert limit == pytest.approx(-0.5729166666666666, rel=1e-13)
        assert disparity_value(common, Metric.UTILITY, big) == pytest.approx(limit, rel=1e-6)
        # sigma^2 overflows: the limits exactly, with no overflow warning
        huge = np.array([1e154, 1e160, 1e200, np.finfo(float).max])
        assert np.all(disparity_value(common, Metric.SCORE, huge) == c.cross)
        assert np.all(disparity_value(common, Metric.UTILITY, huge) == limit)

    def test_matched_prior_utility_value(self, costs):
        sc = Scenario(RULE, costs[0], costs[1], CommonPrior(RULE.copy(), 1.0))
        assert disparity_value(sc, Metric.UTILITY, 1.0) == pytest.approx(0.09375, rel=1e-12)

    def test_neutrality_none_when_aligned(self, common):
        assert neutrality_sigma_score_bayes(common) is None

    def test_neutrality_value_when_opposed(self, costs):
        sc = Scenario(RULE, costs[0], costs[1], CommonPrior(-PRIOR_MEAN, 1.0))
        root = neutrality_sigma_score_bayes(sc)
        assert root == pytest.approx(math.sqrt(10.0 / 19.0), rel=1e-13)
        assert disparity_value(sc, Metric.SCORE, root) == pytest.approx(0.0, abs=1e-14)

    def test_neutrality_needs_a_belief_prior(self, naive, projected):
        with pytest.raises(WrongPriorKind):
            neutrality_sigma_score_bayes(naive)
        # the projected reference's known-side value 1/6 is positive: no crossing
        assert neutrality_sigma_score_bayes(projected) is None

    def test_weight_consistency(self, common):
        # the score curve is affine in the signal weight
        for sigma in (0.3, 1.7, 6.0):
            w = signal_weight(1.0, sigma)
            c = common.constants
            expect = (1.0 - w) * c.cross + w * c.rule_sq
            assert disparity_value(common, Metric.SCORE, sigma) == expect


class TestProjectedFormulas:
    def test_score_reference_value(self, projected):
        assert disparity_value(projected, Metric.SCORE, 1.0) == pytest.approx(
            7.0 / 24.0, rel=1e-13
        )

    @pytest.mark.filterwarnings("error")
    def test_utility_limit(self, projected):
        big = 1e6
        c = projected.constants
        limit = c.cross - 0.5 * c.prior_sq
        assert limit == pytest.approx(1.0 / 12.0, rel=1e-13)
        assert disparity_value(projected, Metric.UTILITY, big) == pytest.approx(
            limit, rel=1e-6
        )
        assert disparity_value(projected, Metric.UTILITY, 1e200) == limit

    def test_unknown_rule_prior_limit(self, costs):
        prior = ProjectedPrior(Projection(np.zeros((2, 2))), Projection(np.eye(2)), 1.0)
        sc = Scenario(RULE, costs[0], costs[1], prior)
        assert sc.constants.cross == pytest.approx(-1.0 / 3.0, rel=1e-13)

    def test_noncommuting_rejected_for_utility(self, costs):
        slanted = Projection.from_span([np.array([1.0, 1.0])], dim=2)
        prior = ProjectedPrior(slanted, Projection(np.eye(2)), 1.0)
        sc = Scenario(RULE, costs[0], costs[1], prior)
        assert not sc.commuting
        with pytest.raises(NonCommuting):
            disparity_value(sc, Metric.UTILITY, 1.0)
        # the score formula needs no commutativity
        disparity_value(sc, Metric.SCORE, 1.0)

    def test_commuting_flag_for_diagonal_setup(self, projected):
        assert projected.commuting
        assert projected.commute_defect <= 1e-15


class TestOverlapBounds:
    @pytest.fixture
    def equal_cost(self):
        cost = CostMatrix(np.diag([2.0, 1.0]))
        prior = ProjectedPrior(
            Projection(np.diag([1.0, 0.0])), Projection(np.eye(2)), 1.0
        )
        return Scenario(RULE, cost, cost, prior)

    def test_proxy_reference_value(self, equal_cost):
        assert overlap_proxy(equal_cost) == 0.5

    def test_score_bound_reference(self, equal_cost):
        # |F_s| = 0.25 (1-w) against bound |rule| |overlap| ||A^-1|| (1-w)
        # = 1.11803 * 0.5 * 1 (1-w), as the smallest cost eigenvalue is 1
        for sigma in (0.1, 1.0, 10.0):
            w = signal_weight(1.0, sigma)
            fs = disparity_value(equal_cost, Metric.SCORE, sigma)
            assert abs(fs) == pytest.approx(0.25 * (1.0 - w), rel=1e-12)
            bound = score_overlap_bound(equal_cost, sigma)
            assert bound == pytest.approx(
                0.5590169943749474 * (1.0 - w), rel=1e-12
            )
            assert abs(fs) <= bound

    def test_utility_bound_reference(self, equal_cost):
        for sigma in (0.1, 1.0, 10.0):
            w = signal_weight(1.0, sigma)
            fu = disparity_value(equal_cost, Metric.UTILITY, sigma)
            bound = utility_overlap_bound(equal_cost, sigma)
            assert bound == pytest.approx(
                0.2795084971874737 * (1.0 - w) ** 2, rel=1e-12
            )
            assert abs(fu) <= bound + 1e-15

    def test_bounds_hold_for_anisotropic_shared_costs(self):
        # projectors spanned by cost eigenvectors commute with the inverse
        # cost; the bounds scale with ||A^-1|| = 1 / (smallest eigenvalue)
        def sym(m):
            return 0.5 * (m + m.T)

        rng = np.random.default_rng(2024)
        worst = math.inf
        for _ in range(100):
            d = int(rng.integers(2, 5))
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            cost = CostMatrix(sym((q * rng.uniform(0.4, 3.0, size=d)) @ q.T))
            p1, p2 = (
                Projection(sym(q[:, keep] @ q[:, keep].T))
                for keep in (rng.random(d) < 0.5, rng.random(d) < 0.5)
            )
            gam = float(rng.uniform(0.3, 3.0))
            sc = Scenario(rng.normal(size=d), cost, cost, ProjectedPrior(p1, p2, gam))
            for sigma in np.geomspace(1e-3 * max(gam, 1.0), 1e3 * max(gam, 1.0), 21):
                s = float(sigma)
                worst = min(
                    worst,
                    score_overlap_bound(sc, s) - abs(disparity_value(sc, Metric.SCORE, s)),
                    utility_overlap_bound(sc, s) - abs(disparity_value(sc, Metric.UTILITY, s)),
                )
        assert worst >= -1e-12

    def test_identical_subspaces_give_zero(self):
        cost = CostMatrix(np.diag([2.0, 1.0]))
        p = Projection(np.diag([1.0, 0.0]))
        sc = Scenario(RULE, cost, cost, ProjectedPrior(p, p, 1.0))
        assert overlap_proxy(sc) == 0.0
        for sigma in (0.2, 2.0):
            assert disparity_value(sc, Metric.SCORE, sigma) == 0.0
            assert disparity_value(sc, Metric.UTILITY, sigma) == 0.0
            assert score_overlap_bound(sc, sigma) == 0.0

    def test_unequal_costs_rejected(self, projected):
        with pytest.raises(CostsDiffer):
            score_overlap_bound(projected, 1.0)
        with pytest.raises(CostsDiffer):
            utility_overlap_bound(projected, 1.0)

    def test_unequal_costs_message_names_the_cost_gap(self, projected):
        with pytest.raises(CostsDiffer, match=r"^utility_overlap_bound: needs one cost for both groups, cost gap is PD$"):
            utility_overlap_bound(projected, 1.0)


class TestCurves:
    def test_grid_shape_and_range(self, common):
        grid = sigma_grid(common)
        assert grid.shape == (241,)
        assert grid[0] == pytest.approx(1e-3, rel=1e-12)
        assert grid[-1] == pytest.approx(1e3, rel=1e-12)

    def test_noise_grid_is_the_one_numpy_grid_call(self):
        # every noise grid of flab comes from closed_form._noise_grid, so a change to
        # how grids are built (their bits under CPU dispatch, say) lands in one function
        src = Path(__file__).resolve().parent.parent / "src" / "flab"
        inside, outside = [], []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            builders = (fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_noise_grid")
            owned = {id(node) for fn in builders for node in ast.walk(fn)}
            for node in ast.walk(tree):
                name = getattr(node, "attr", getattr(node, "id", None))
                if isinstance(node, (ast.Attribute, ast.Name)) and name in ("geomspace", "linspace"):
                    (inside if id(node) in owned else outside).append(f"{path.name}:{node.lineno}")
        assert len(inside) == 2 and not outside, outside

    def test_scipy_is_one_import_of_ndtri_in_agents(self):
        # flab's whole scipy surface is agents' ndtri, so replacing scipy is one import line
        src = Path(__file__).resolve().parent.parent / "src" / "flab"
        found = []
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                else:
                    continue
                found += [(path.name, name) for name in names if name.split(".")[0] == "scipy"]
        assert found == [("agents.py", "scipy.special.ndtri")]

    def test_grid_scales_with_prior(self, costs):
        sc = Scenario(RULE, costs[0], costs[1], CommonPrior(PRIOR_MEAN, 5.0))
        grid = sigma_grid(sc)
        assert grid[0] == pytest.approx(5e-3, rel=1e-12)
        assert grid[-1] == pytest.approx(5e3, rel=1e-12)

    def test_curve_endpoints(self, naive, common, projected):
        cn = disparity_curve(naive, Metric.UTILITY)
        assert cn.value_at_infinity == -math.inf
        assert cn.value_at_zero == 0.5 * naive.constants.rule_sq
        cc = disparity_curve(common, Metric.SCORE)
        assert cc.value_at_infinity == common.constants.cross
        cp = disparity_curve(projected, Metric.UTILITY, sigmas=[0.5, 1.0])
        assert cp.values[1] == disparity_value(projected, Metric.UTILITY, 1.0)

    @pytest.mark.parametrize("kind", ["naive", "common", "projected"])
    @pytest.mark.parametrize("metric", [Metric.SCORE, Metric.UTILITY])
    def test_endpoints_are_the_evaluator_at_both_ends(self, kind, metric, request):
        # at zero noise exactly; at a noise scale whose square overflows, the limit
        sc = request.getfixturevalue(kind)
        at_zero, at_inf = endpoints(sc, metric)
        assert disparity_value(sc, metric, 0.0).hex() == at_zero.hex()
        assert disparity_value(sc, metric, 1e200).hex() == at_inf.hex()

    def test_zero_rule_score_is_zero_but_costs_still_differ(self, costs):
        # a zero rule kills every score term, yet agents still chase noise
        # and pay for it at group-specific rates, so the utility disparity
        # keeps a pure noise term (confirmed against the MC oracle)
        sc = Scenario(np.zeros(2), costs[0], costs[1], CommonPrior(np.zeros(2), 1.0))
        for sigma in (0.0, 0.5, 3.0):
            assert disparity_value(sc, Metric.SCORE, sigma) == 0.0
        assert disparity_value(sc, Metric.UTILITY, 0.0) == 0.0
        for sigma in (0.5, 3.0):
            w = signal_weight(1.0, sigma)
            expect = -0.5 * w * w * sigma * sigma * sc.trace_gap
            assert disparity_value(sc, Metric.UTILITY, sigma) == pytest.approx(expect, rel=1e-13)


def _same_bits(array, scalars):
    return array.dtype == np.float64 and array.tobytes() == np.array(scalars).tobytes()


def _weight(scale, sigma):
    return scale * scale / (scale * scale + sigma * sigma)


def _loop_value(sc, metric, sigma):
    """The disparity formulas in Python float arithmetic, one noise scale at a time."""
    c = sc.constants
    if isinstance(sc.prior, NaivePrior):
        return c.rule_sq if metric is Metric.SCORE else 0.5 * (c.rule_sq - sigma * sigma * c.trace_gap)
    if sigma == 0.0:
        return c.rule_sq if metric is Metric.SCORE else 0.5 * c.rule_sq
    w = _weight(sc.prior.scale, sigma)
    if metric is Metric.SCORE:
        return (1.0 - w) * c.cross + w * c.rule_sq
    spread = c.mismatch + sigma * sigma * c.trace_gap
    return -(w * w / 2.0) * spread + w * c.mismatch + (c.cross - c.prior_sq / 2.0)


def _loop_bounds(sc, sigma):
    """Both overlap bounds in Python float arithmetic at one noise scale."""
    w = 1.0 if sigma == 0.0 else _weight(sc.prior.scale, sigma)
    floor = float(sc.cost1.eigenvalues.min())
    rule_norm = math.sqrt(math.fsum(float(r) * float(r) for r in sc.rule))
    proxy = overlap_proxy(sc)
    return (1.0 - w) / floor * rule_norm * proxy, 0.5 * (1.0 - w) ** 2 / floor * rule_norm * proxy


class TestArrayEvaluation:
    """An array of noise scales gives exactly the per-element scalar calls,
    and both give exactly the per-point float arithmetic of the formulas."""

    SIGMAS = np.concatenate([[0.0, 1e-300, 0.5, 1.0, 7.25, 1e150], np.geomspace(1e-3, 1e3, 97)])

    @pytest.mark.parametrize("kind", ["naive", "common", "projected"])
    @pytest.mark.parametrize("metric", [Metric.SCORE, Metric.UTILITY])
    def test_disparity_value_matches_scalar_calls(self, kind, metric, request):
        sc = request.getfixturevalue(kind)
        scalars = [disparity_value(sc, metric, float(s)) for s in self.SIGMAS]
        assert all(type(v) is float for v in scalars)
        assert _same_bits(np.array(scalars), [_loop_value(sc, metric, float(s)) for s in self.SIGMAS])
        assert _same_bits(disparity_value(sc, metric, self.SIGMAS), scalars)
        grid = self.SIGMAS.reshape(1, -1)
        assert disparity_value(sc, metric, grid).shape == grid.shape
        assert _same_bits(disparity_curve(sc, metric, sigmas=self.SIGMAS).values, scalars)

    def test_overlap_bounds_match_scalar_calls(self):
        from flab.cli import load_scenario

        path = Path(__file__).resolve().parent.parent / "scenarios" / "equal_costs_bounds.json"
        sc = load_scenario(str(path)).scenario
        loop = [_loop_bounds(sc, float(s)) for s in self.SIGMAS]
        for i, bound in enumerate((score_overlap_bound, utility_overlap_bound)):
            scalars = [bound(sc, float(s)) for s in self.SIGMAS]
            assert all(type(v) is float for v in scalars)
            assert _same_bits(np.array(scalars), [pair[i] for pair in loop])
            assert _same_bits(bound(sc, self.SIGMAS), scalars)

    @pytest.mark.parametrize("kind", ["naive", "common", "projected"])
    @pytest.mark.parametrize("metric", [Metric.SCORE, Metric.UTILITY])
    def test_negative_sigma_anywhere_rejected(self, kind, metric, request):
        sc = request.getfixturevalue(kind)
        with pytest.raises(NegativeSigma):
            disparity_value(sc, metric, np.array([0.0, 1.0, -1e-9, 2.0]))

    def test_negative_sigma_rejected_by_bounds(self):
        cost = CostMatrix(np.diag([2.0, 1.0]))
        prior = ProjectedPrior(Projection(np.diag([1.0, 0.0])), Projection(np.eye(2)), 1.0)
        sc = Scenario(RULE, cost, cost, prior)
        for bound in (score_overlap_bound, utility_overlap_bound):
            with pytest.raises(NegativeSigma):
                bound(sc, np.array([1.0, -2.0]))

    @pytest.mark.parametrize("kind", ["naive", "common", "projected"])
    @pytest.mark.parametrize("metric", [Metric.SCORE, Metric.UTILITY])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, kind, metric, bad, request):
        # no level stands for the infinite-noise limit: that is `endpoints`' to state
        sc = request.getfixturevalue(kind)
        for sigma in (bad, np.array([0.0, 1.0, bad, 2.0])):
            with pytest.raises(NonFinite, match=f"^noise scale {bad} is not finite$"):
                disparity_value(sc, metric, sigma)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sigma_rejected_by_variance_and_bounds(self, naive, bad):
        cost = CostMatrix(np.diag([2.0, 1.0]))
        prior = ProjectedPrior(Projection(np.diag([1.0, 0.0])), Projection(np.eye(2)), 1.0)
        sc = Scenario(RULE, cost, cost, prior)
        for call in (
            lambda: score_variance_naive(naive, bad),
            lambda: score_overlap_bound(sc, np.array([1.0, bad])),
            lambda: utility_overlap_bound(sc, bad),
        ):
            with pytest.raises(NonFinite):
                call()


class TestMetricArgument:
    """`Metric(x)` reads every metric: a member and its value select it, anything else is refused."""

    @pytest.mark.parametrize("kind", ["naive", "common", "projected"])
    def test_value_selects_its_member(self, kind, request):
        sc = request.getfixturevalue(kind)
        for metric in Metric:
            assert endpoints(sc, metric.value) == endpoints(sc, metric)
            assert disparity_value(sc, metric.value, 1.0) == disparity_value(sc, metric, 1.0)

    @pytest.mark.parametrize("metric", ["bogus", "Score", 0, None])
    def test_any_other_metric_is_refused(self, common, metric):
        for call in (lambda: endpoints(common, metric), lambda: disparity_value(common, metric, 1.0)):
            with pytest.raises(Error, match="^unknown metric"):
                call()


class TestPriorScale:
    """One check decides a prior scale, for both prior kinds and the signal weight alike."""

    @pytest.mark.parametrize("scale", [0.0, -0.0, -2.0, math.nan, math.inf, 1e-170, 1e160])
    def test_refused_everywhere(self, scale):
        eye = Projection(np.eye(2))
        for build in (
            lambda: CommonPrior(PRIOR_MEAN, scale),
            lambda: ProjectedPrior(eye, eye, scale),
            lambda: signal_weight(scale, 1.0),
        ):
            with pytest.raises(Error, match="prior scale"):
                build()


COSTS = (CostMatrix(np.diag([2.0, 1.0])), CostMatrix(np.diag([4.0, 3.0])))


class TestTypedErrors:
    """Library guards that the command line never reaches: each raises its own typed error."""

    @pytest.mark.parametrize("build, error, message", [
        (lambda: CommonPrior(np.array([math.nan, 0.0]), 1.0), Error, r"^prior mean must be a finite vector, got \["),
        (lambda: CommonPrior(np.zeros((2, 2)), 1.0), Error, r"^prior mean must be a finite vector, got \[\["),
        (lambda: ProjectedPrior(Projection(np.eye(2)), Projection(np.eye(3)), 1.0), DimensionMismatch,
         r"^projector dims 2 and 3$"),
        (lambda: Scenario(RULE, COSTS[0], CostMatrix(np.diag([4.0, 3.0, 2.0])), NaivePrior()), DimensionMismatch,
         r"^cost dims 2 and 3$"),
        (lambda: Scenario(RULE, *COSTS, ProjectedPrior(Projection(np.eye(3)), Projection(np.eye(3)), 1.0)),
         DimensionMismatch, r"^projector dim 3 for dimension 2$"),
        (lambda: Scenario(RULE, *COSTS, object()), WrongPriorKind, r"^unsupported prior object$"),
        (lambda: kahan_dot(np.ones(2), np.ones(3)), DimensionMismatch, r"^dot of shapes \(2,\) and \(3,\)$"),
        (lambda: quad_form(np.ones(2), np.eye(3)), DimensionMismatch,
         r"^quadratic form of shapes \(2,\), \(3, 3\), \(2,\)$"),
        (lambda: Projection.from_span([[1, 2, 3]], dim=2), DimensionMismatch,
         r"^span vector shape \(3,\), expected \(2,\)$"),
    ], ids=["nan mean", "2-d mean", "projector dims", "cost dims", "projector on scenario", "unknown prior",
            "kahan_dot shapes", "quad_form shapes", "span vector"])
    def test_guard_raises_its_typed_error(self, build, error, message):
        with pytest.raises(Error, match=message) as excinfo:
            build()
        assert excinfo.type is error
