"""Release gate: one test per acceptance criterion, in order.

Each test name is the pass line printed under ``pytest -v``. Tolerances
and seeds are pinned here and nowhere else. Randomized instances draw
from fixed generators whose rejection rules are part of the recipe; the
numeric cross-checks (argmin search, root scan, Monte Carlo) never call
the formula under test to produce their own answer.
"""

import math
import time

import numpy as np
import pytest

from flab import linalg_core
from flab.agents import (
    Metric,
    bayesian_best_response,
    bayesian_posterior,
    naive_best_response,
    signal_weight,
)
from flab.closed_form import (
    CommonPrior,
    NaivePrior,
    ProjectedPrior,
    Scenario,
    disparity_value,
    neutrality_sigma_naive,
    noise_range,
    score_variance_naive,
)
from flab.errors import AssumptionViolated
from flab.linalg_core import CostMatrix, Projection
from flab.mc_oracle import compare, estimate_disparities, estimate_variance_naive
from flab.regimes import (
    UtilityCase,
    classify_utility_bayes,
    classify_utility_projected,
    classify_utility_projected_matrix,
    exploitation_condition_projected,
    find_roots,
    monotonicity_condition_projected,
    neutrality_condition_projected,
    two_root_region_check,
)

RULE = np.array([1.0, 0.5])
PRIOR_MEAN = np.array([0.5, 2.0])


def reference_costs():
    return CostMatrix(np.diag([2.0, 1.0])), CostMatrix(np.diag([4.0, 3.0]))


def rand_spd(rng, d, lo=0.4, hi=3.0):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return q @ np.diag(rng.uniform(lo, hi, size=d)) @ q.T


def draw_cost_pair_and_vectors(rng):
    """One generic draw; None when the rule vector is rejected as too short.

    The rejection happens before the prior center is drawn, which keeps
    the generator stream identical to the recipe rehearsed offline.
    """
    d = int(rng.integers(2, 5))
    a1 = rand_spd(rng, d)
    a2 = a1 + rand_spd(rng, d, 0.3, 2.0)
    th = rng.normal(size=d)
    if np.linalg.norm(th) < 0.3:
        return None
    th0 = rng.normal(size=d)
    return th, a1, a2, th0


def log_argmin(fn, lo, hi, points=2001, iters=200):
    """Grid seed plus golden-section refinement on the log axis."""
    xs = np.geomspace(lo, hi, points)
    ys = np.array([fn(float(x)) for x in xs])
    i = int(np.argmin(ys))
    la = math.log(xs[max(i - 1, 0)])
    lb = math.log(xs[min(i + 1, points - 1)])
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = lb - phi * (lb - la)
    x2 = la + phi * (lb - la)
    f1, f2 = fn(math.exp(x1)), fn(math.exp(x2))
    for _ in range(iters):
        if f1 < f2:
            lb, x2, f2 = x2, x1, f1
            x1 = lb - phi * (lb - la)
            f1 = fn(math.exp(x1))
        else:
            la, x1, f1 = x1, x2, f2
            x2 = la + phi * (lb - la)
            f2 = fn(math.exp(x2))
    return math.exp(0.5 * (la + lb))


def test_01_reference_naive_curves_flat_score_crossing_and_zero_noise_limit():
    start = time.monotonic()
    c1, c2 = reference_costs()
    sc = Scenario(RULE, c1, c2, NaivePrior())

    flat = 5.0 / 12.0
    for sigma in np.geomspace(1e-3, 10.0, 200):
        assert abs(disparity_value(sc, Metric.SCORE, float(sigma)) - flat) <= 1e-12

    scan = find_roots(lambda s: disparity_value(sc, Metric.UTILITY, s), 1e-3, 10.0)
    assert len(scan.crossings) == 1
    assert abs(scan.crossings[0] - math.sqrt(5.0 / 11.0)) <= 1e-6
    assert abs(neutrality_sigma_naive(sc) - math.sqrt(5.0 / 11.0)) <= 1e-12

    near_zero = disparity_value(sc, Metric.UTILITY, 1e-8)
    assert abs(near_zero - flat / 2.0) <= 1e-8

    assert time.monotonic() - start < 1.0


def followed_scenarios():
    """Five-scenario verification matrix spanning every prior kind."""
    c1, c2 = reference_costs()
    th3 = np.array([1.0, -0.5, 0.25])
    c13 = CostMatrix(np.diag([2.0, 1.0, 1.5]))
    c23 = CostMatrix(np.diag([4.0, 3.0, 2.5]))
    return [
        Scenario(RULE, c1, c2, NaivePrior()),
        Scenario(RULE, c1, c2, CommonPrior(PRIOR_MEAN, 1.0)),
        Scenario(RULE, c1, c2, CommonPrior(-PRIOR_MEAN, 1.0)),
        Scenario(
            RULE,
            c1,
            c2,
            ProjectedPrior(
                Projection(np.diag([1.0, 0.0])), Projection(np.eye(2)), 1.0
            ),
        ),
        Scenario(
            th3,
            c13,
            c23,
            ProjectedPrior(
                Projection(np.diag([1.0, 1.0, 0.0])), Projection(np.eye(3)), 0.8
            ),
        ),
    ]


def test_02_monte_carlo_agreement_across_sixty_comparisons():
    start = time.monotonic()
    zs = []
    sigmas = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
    for sc in followed_scenarios():
        analytic = np.stack([disparity_value(sc, metric, sigmas) for metric in Metric], axis=1)
        z, passed, _ = compare(analytic, *estimate_disparities(sc, sigmas, 100000, 42))
        assert passed.all(), z
        zs.extend(np.abs(z).ravel().tolist())
    assert len(zs) >= 50
    assert max(zs) <= 4.0
    assert sum(1 for z in zs if z > 3.0) / len(zs) <= 0.02
    assert time.monotonic() - start < 60.0


def test_03_naive_score_variance_value_and_quadratic_noise_scaling():
    c1, c2 = reference_costs()
    sc = Scenario(RULE, c1, c2, NaivePrior())

    analytic = score_variance_naive(sc, 1.0)
    assert abs(analytic - 0.5902777777777778) <= 1e-15

    var1, stderr1 = estimate_variance_naive(sc, 1.0, 100000, 42)
    assert abs(var1 - analytic) <= 5.0 * stderr1

    var2, _ = estimate_variance_naive(sc, 2.0, 100000, 42)
    ratio = var2 / var1
    assert abs(ratio - 4.0) <= 0.4


def test_04_shared_prior_boundary_values_exact_and_far_noise_limits():
    rng = np.random.default_rng(555)
    done = 0
    while done < 20:
        drawn = draw_cost_pair_and_vectors(rng)
        if drawn is None:
            continue
        th, a1, a2, th0 = drawn
        gam = float(rng.uniform(0.3, 3.0))
        sc = Scenario(th, CostMatrix(a1), CostMatrix(a2), CommonPrior(th0, gam))
        c = sc.constants
        fs_limit = c.cross
        fu_limit = c.cross - c.prior_sq / 2.0
        if abs(fs_limit) < 1e-3 or abs(fu_limit) < 1e-3:
            continue

        assert disparity_value(sc, Metric.SCORE, 0.0) == c.rule_sq
        assert disparity_value(sc, Metric.UTILITY, 0.0) == 0.5 * c.rule_sq

        far = 1e6 * gam
        fs_far = disparity_value(sc, Metric.SCORE, far)
        fu_far = disparity_value(sc, Metric.UTILITY, far)
        assert abs(fs_far - fs_limit) <= 1e-6 * abs(fs_limit)
        assert abs(fu_far - fu_limit) <= 1e-6 * abs(fu_limit)
        done += 1


def test_05_interior_minimum_formula_matches_numeric_argmin():
    rng = np.random.default_rng(1234)
    done = 0
    while done < 20:
        drawn = draw_cost_pair_and_vectors(rng)
        if drawn is None:
            continue
        th, a1, a2, th0 = drawn
        probe = Scenario(th, CostMatrix(a1), CostMatrix(a2), CommonPrior(th0, 1.0))
        c = probe.constants
        if c.mismatch < 1e-6:
            continue
        crit = math.sqrt(2.0 * c.mismatch / c.trace_gap)
        gam = crit * float(rng.uniform(1.1, 3.0))
        sc = Scenario(th, CostMatrix(a1), CostMatrix(a2), CommonPrior(th0, gam))
        regime = classify_utility_bayes(sc)
        assert regime.case is UtilityCase.NON_MONOTONE
        lo, hi = noise_range(sc)
        numeric = log_argmin(lambda s: disparity_value(sc, Metric.UTILITY, s), lo, hi)
        assert abs(numeric - regime.sigma_min) <= 1e-4 * regime.sigma_min
        done += 1

    rng = np.random.default_rng(12340)
    done = 0
    while done < 20:
        d = int(rng.integers(2, 5))
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        w1 = rng.uniform(0.4, 3.0, size=d)
        bump = rng.uniform(0.2, 2.0, size=d)
        a1 = q @ np.diag(w1) @ q.T
        a2 = q @ np.diag(w1 + bump) @ q.T
        mask1 = rng.integers(0, 2, size=d).astype(float)
        mask2 = rng.integers(0, 2, size=d).astype(float)
        th = rng.normal(size=d)
        if np.linalg.norm(th) < 0.3:
            continue
        prior = ProjectedPrior(
            Projection(q @ np.diag(mask1) @ q.T),
            Projection(q @ np.diag(mask2) @ q.T),
            1.0,
        )
        probe = Scenario(th, CostMatrix(a1), CostMatrix(a2), prior)
        c = probe.constants
        if c.mismatch < 1e-6:
            continue
        crit = math.sqrt(2.0 * c.mismatch / c.trace_gap)
        gam = crit * float(rng.uniform(1.1, 3.0))
        sc = Scenario(
            th,
            CostMatrix(a1),
            CostMatrix(a2),
            ProjectedPrior(prior.subspace1, prior.subspace2, gam),
        )
        regime = classify_utility_projected(sc)
        assert regime.case is UtilityCase.NON_MONOTONE
        lo, hi = noise_range(sc)
        numeric = log_argmin(lambda s: disparity_value(sc, Metric.UTILITY, s), lo, hi)
        assert abs(numeric - regime.sigma_min) <= 1e-4 * regime.sigma_min
        done += 1


def test_06_crossing_count_prediction_agrees_with_scan_on_200_draws():
    rng = np.random.default_rng(4242)
    done = 0
    tries = 0
    while done < 200:
        tries += 1
        assert tries < 5000
        drawn = draw_cost_pair_and_vectors(rng)
        if drawn is None:
            continue
        th, a1, a2, th0 = drawn
        gam = float(rng.uniform(0.2, 4.0))
        sc = Scenario(th, CostMatrix(a1), CostMatrix(a2), CommonPrior(th0, gam))
        c = sc.constants
        crit_sq = 2.0 * c.mismatch / c.trace_gap

        # independent prediction from the constants alone
        if gam * gam <= crit_sq:
            expected = 1 if c.prior_sq > 2.0 * c.cross else 0
        else:
            sigma_min = gam * math.sqrt(1.0 / (1.0 - crit_sq / (gam * gam)))
            if c.prior_sq > 2.0 * c.cross:
                expected = 1
            else:
                at_min = disparity_value(sc, Metric.UTILITY, sigma_min)
                if abs(at_min) < 1e-8:
                    continue
                expected = 0 if at_min > 0.0 else 2

        limit = c.cross - c.prior_sq / 2.0
        if abs(limit) < 1e-6:
            continue
        hi = 1e3 * max(gam, 1.0)
        tail = disparity_value(sc, Metric.UTILITY, hi)
        if math.copysign(1.0, tail) != math.copysign(1.0, limit) or abs(tail) < 1e-9:
            continue

        regime = classify_utility_bayes(sc)
        assert regime.predicted_roots == expected
        assert len(regime.roots) == expected
        assert regime.count_matches
        assert not regime.tangential
        done += 1


def test_07_two_crossing_region_fixture_and_100_member_draws():
    c1, c2 = reference_costs()
    fixture = Scenario(RULE, c1, c2, CommonPrior(0.4 * RULE, 1.5))
    assert two_root_region_check(fixture)
    regime = classify_utility_bayes(fixture)
    assert len(regime.roots) == 2
    assert regime.predicted_roots == 2

    rng = np.random.default_rng(777)
    done = 0
    tries = 0
    while done < 100:
        tries += 1
        assert tries < 100000
        drawn = draw_cost_pair_and_vectors(rng)
        if drawn is None:
            continue
        th, a1, a2, th0 = drawn
        probe = Scenario(th, CostMatrix(a1), CostMatrix(a2), CommonPrior(th0, 1.0))
        c = probe.constants
        if not c.prior_sq < 2.0 * c.cross:
            continue
        thr_a = math.sqrt((2.0 * c.cross - c.prior_sq + 3.0 * c.rule_sq) / c.trace_gap)
        thr_b = math.sqrt((2.0 / c.trace_gap) * math.sqrt(c.mismatch))
        gam = max(thr_a, thr_b) * float(rng.uniform(1.05, 2.0))
        sc = Scenario(th, CostMatrix(a1), CostMatrix(a2), CommonPrior(th0, gam))
        assert two_root_region_check(sc)
        regime = classify_utility_bayes(sc)
        assert len(regime.roots) == 2, (done, gam)
        assert regime.count_matches
        done += 1


def test_08_projector_structure_implications_hold_on_500_instances(monkeypatch):
    solves = []
    true_eigh = linalg_core.jacobi_eigh

    def counted(matrix):
        solves.append(1)
        return true_eigh(matrix)

    monkeypatch.setattr(linalg_core, "jacobi_eigh", counted)
    rng = np.random.default_rng(31337)
    rule_rng = np.random.default_rng(987)
    fired_null = 0
    fired_span = 0
    for trial in range(500):
        d = int(rng.integers(2, 5))
        shared = trial % 2 == 0
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        w1 = rng.uniform(0.4, 3.0, size=d)
        if shared:
            qa = qb = q
        else:
            qa = q
            qb, _ = np.linalg.qr(rng.normal(size=(d, d)))
        if shared:
            a1 = qa @ np.diag(w1) @ qa.T
            a2 = qa @ np.diag(w1 + rng.uniform(0.2, 2.0, size=d)) @ qa.T
        else:
            a1 = qa @ np.diag(w1) @ qa.T
            a2 = a1 + rand_spd(rng, d, 0.3, 2.0)
            _, qb = np.linalg.eigh(a2)
        mask1 = rng.integers(0, 2, size=d).astype(float)
        mask2 = rng.integers(0, 2, size=d).astype(float)
        if trial % 7 == 0:
            mask1 = np.ones(d)
        if trial % 11 == 0:
            mask2 = np.zeros(d)
        before = len(solves)
        p1 = Projection(qa @ np.diag(mask1) @ qa.T)
        p2 = Projection(qb @ np.diag(mask2) @ qb.T)
        # symmetry and idempotency settle both projectors, with no eigensolve
        assert len(solves) == before, trial

        th = rule_rng.normal(size=d)
        while np.linalg.norm(th) < 0.3:
            th = rule_rng.normal(size=d)
        sc = Scenario(
            th, CostMatrix(a1), CostMatrix(a2), ProjectedPrior(p1, p2, 1.0)
        )

        exploitation = exploitation_condition_projected(sc)
        for desc, ok in exploitation.checks:
            assert ok, (trial, exploitation.label, desc)
        if exploitation.guaranteed:
            fired_null += 1

        neutral = neutrality_condition_projected(sc)
        for desc, ok in neutral.report.checks:
            assert ok, (trial, neutral.report.label, desc)

        trend = monotonicity_condition_projected(sc)
        for desc, ok in trend.checks:
            assert ok, (trial, trend.label, desc)
        if trend.guaranteed:
            fired_span += 1

        try:
            verdict = classify_utility_projected_matrix(sc)
        except AssumptionViolated:
            verdict = None
        if verdict is not None and verdict.samples_checked:
            assert verdict.samples_agree, (trial, verdict)

    assert fired_null >= 10
    assert fired_span >= 10


def test_09_equal_cost_overlap_bounds_never_undercut_either_curve():
    from flab.closed_form import score_overlap_bound, utility_overlap_bound

    rng = np.random.default_rng(909)
    worst = math.inf
    for _ in range(100):
        d = int(rng.integers(2, 5))
        alpha = float(rng.uniform(0.4, 3.0))
        cost = CostMatrix(alpha * np.eye(d))
        th = rng.normal(size=d)
        while np.linalg.norm(th) < 0.3:
            th = rng.normal(size=d)
        r1, r2 = int(rng.integers(0, d + 1)), int(rng.integers(0, d + 1))
        q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
        q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
        p1 = Projection(q1[:, :r1] @ q1[:, :r1].T)
        p2 = Projection(q2[:, :r2] @ q2[:, :r2].T)
        gam = float(rng.uniform(0.3, 3.0))
        sc = Scenario(th, cost, cost, ProjectedPrior(p1, p2, gam))
        unit = max(gam, 1.0)
        for sigma in np.geomspace(1e-3 * unit, 1e3 * unit, 21):
            s = float(sigma)
            slack_s = score_overlap_bound(sc, s) - abs(
                disparity_value(sc, Metric.SCORE, s)
            )
            slack_u = utility_overlap_bound(sc, s) - abs(
                disparity_value(sc, Metric.UTILITY, s)
            )
            worst = min(worst, slack_s, slack_u)
    assert worst >= -1e-12


def test_10_full_knowledge_projection_reduces_to_shared_prior():
    c1, c2 = reference_costs()
    for gam in (0.6, 1.0, 2.5):
        proj = Scenario(
            RULE,
            c1,
            c2,
            ProjectedPrior(Projection(np.eye(2)), Projection(np.eye(2)), gam),
        )
        common = Scenario(RULE, c1, c2, CommonPrior(RULE, gam))
        for sigma in np.geomspace(1e-3, 1e3, 61):
            s = float(sigma)
            for metric in (Metric.SCORE, Metric.UTILITY):
                a = disparity_value(proj, metric, s)
                b = disparity_value(common, metric, s)
                assert abs(a - b) <= 1e-14, (gam, s, metric)

    sc = Scenario(RULE, c1, c2, CommonPrior(PRIOR_MEAN, 1.0))
    signal = RULE[:, None]  # one agent is one column
    for cost, prior_mean in zip((sc.cost1, sc.cost2), sc.prior_means):
        weight = signal_weight(sc.prior.scale, 0.0)
        assert weight == 1.0
        posterior = bayesian_posterior(prior_mean, weight, signal.copy())
        assert np.array_equal(
            bayesian_best_response(cost, posterior),
            naive_best_response(cost, signal),
        )
    stacked = np.tile(signal, (1, 5))
    posterior = bayesian_posterior(sc.prior_means[0], signal_weight(1.0, 0.0), stacked.copy())
    assert np.array_equal(
        bayesian_best_response(sc.cost1, posterior),
        naive_best_response(sc.cost1, stacked),
    )
