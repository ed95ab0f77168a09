"""Monte Carlo estimator tests: determinism, calibration, mutation alarm."""

import math

import numpy as np
import pytest

from flab.agents import Metric, normal_stream, signal_weight, standard_normals
from flab.closed_form import (
    CommonPrior,
    NaivePrior,
    ProjectedPrior,
    Scenario,
    disparity_value,
    score_variance_naive,
)
from flab.errors import Error, NegativeSigma, WrongPriorKind, ZeroStderrMismatch
from flab.linalg_core import CostMatrix, Projection
from flab.mc_oracle import (
    _STREAM_KEY,
    compare,
    estimate_disparities,
    estimate_disparity,
    estimate_variance_naive,
    tree_sum,
)

RULE = np.array([1.0, 0.5])


@pytest.fixture
def naive():
    return Scenario(
        RULE, CostMatrix(np.diag([2.0, 1.0])), CostMatrix(np.diag([4.0, 3.0])), NaivePrior()
    )


@pytest.fixture
def common():
    return Scenario(
        RULE,
        CostMatrix(np.diag([2.0, 1.0])),
        CostMatrix(np.diag([4.0, 3.0])),
        CommonPrior(np.array([0.5, 2.0]), 1.0),
    )


@pytest.fixture
def projected():
    prior = ProjectedPrior(Projection(np.diag([1.0, 0.0])), Projection.identity(2), 1.0)
    return Scenario(
        RULE, CostMatrix(np.diag([2.0, 1.0])), CostMatrix(np.diag([4.0, 3.0])), prior
    )


def row_pipeline_reference(sc, metric, sigma, n, seed):
    """One (metric, sigma) estimate the way a per-call oracle on row stacks computes it."""
    z = standard_normals(normal_stream(seed, (_STREAM_KEY,)), (n, 2, sc.dim))
    gains = []
    for g in (1, 2):
        group = sc.group_params(g)
        belief = sc.rule + sigma * z[:, g - 1, :]
        if not isinstance(sc.prior, NaivePrior):
            w = signal_weight(sc.prior.scale, sigma)
            belief = group.prior_mean + w * (belief - group.prior_mean)
        dx = belief @ group.cost.inverse
        score = dx @ sc.rule
        cost = 0.5 * np.einsum("ij,jk,ik->i", dx, group.cost.matrix, dx)
        gains.append(score if metric is Metric.SCORE else score - cost)
    diffs = gains[0] - gains[1]
    mean = tree_sum(diffs) / n
    resid = diffs - mean
    return mean, math.sqrt(tree_sum(resid * resid) / (n - 1)) / math.sqrt(n)


class TestTreeSum:
    def test_matches_fsum(self):
        rng = np.random.default_rng(2)
        for size in (1, 2, 3, 7, 64, 1000, 4097):
            v = rng.normal(size=size) * 10.0 ** rng.integers(-6, 6, size=size)
            ref = math.fsum(v)
            assert tree_sum(v) == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_empty_is_zero(self):
        assert tree_sum([]) == 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=1234)
        assert tree_sum(v) == tree_sum(v.copy())

    def test_rejects_matrices(self):
        with pytest.raises(Error):
            tree_sum(np.zeros((2, 2)))


class TestEstimates:
    def test_repeat_runs_bit_identical(self, naive):
        a = estimate_disparity(naive, Metric.SCORE, 0.5, 2000, 11)
        b = estimate_disparity(naive, Metric.SCORE, 0.5, 2000, 11)
        assert a.mean == b.mean
        assert a.stderr == b.stderr

    def test_different_seeds_differ(self, naive):
        a = estimate_disparity(naive, Metric.SCORE, 0.5, 2000, 11)
        b = estimate_disparity(naive, Metric.SCORE, 0.5, 2000, 12)
        assert a.mean != b.mean

    def test_zero_noise_is_exact(self, naive, common):
        for sc in (naive, common):
            for metric in (Metric.SCORE, Metric.UTILITY):
                est = estimate_disparity(sc, metric, 0.0, 5000, 1)
                assert est.stderr == 0.0
                analytic = disparity_value(sc, metric, 0.0)
                assert abs(est.mean - analytic) <= 1e-12

    def test_within_noise_of_analytic(self, naive, common):
        for sc in (naive, common):
            for metric in (Metric.SCORE, Metric.UTILITY):
                for sigma in (0.25, 1.0, 4.0):
                    analytic = disparity_value(sc, metric, sigma)
                    est = estimate_disparity(sc, metric, sigma, 50000, 42)
                    assert compare(analytic, est).passed

    def test_projected_prior_supported(self):
        prior = ProjectedPrior(
            Projection(np.diag([1.0, 0.0])), Projection.identity(2), 1.0
        )
        sc = Scenario(
            RULE, CostMatrix(np.diag([2.0, 1.0])), CostMatrix(np.diag([4.0, 3.0])), prior
        )
        analytic = disparity_value(sc, Metric.UTILITY, 0.7)
        est = estimate_disparity(sc, Metric.UTILITY, 0.7, 50000, 42)
        assert compare(analytic, est).passed

    def test_sample_floor_enforced(self, naive):
        with pytest.raises(Error):
            estimate_disparity(naive, Metric.SCORE, 1.0, 999, 0)

    def test_negative_sigma_rejected(self, naive):
        with pytest.raises(NegativeSigma):
            estimate_disparity(naive, Metric.SCORE, -1.0, 2000, 0)

    def test_metric_accepts_strings(self, naive):
        a = estimate_disparity(naive, "score", 0.5, 2000, 11)
        b = estimate_disparity(naive, Metric.SCORE, 0.5, 2000, 11)
        assert a.mean == b.mean


class TestBatchedEstimates:
    SIGMAS = (0.0, 0.25, 1.0, 4.0)

    def test_equals_per_call_estimates_bit_for_bit(self, naive, common, projected):
        for sc in (naive, common, projected):
            batch = estimate_disparities(sc, self.SIGMAS, 5000, 11)
            assert len(batch) == len(self.SIGMAS)
            for sigma, by_metric in zip(self.SIGMAS, batch):
                for metric in (Metric.SCORE, Metric.UTILITY):
                    one = estimate_disparity(sc, metric, sigma, 5000, 11)
                    assert by_metric[metric] == one

    def test_order_of_noise_levels_does_not_matter(self, common):
        forward = estimate_disparities(common, self.SIGMAS, 5000, 11)
        backward = estimate_disparities(common, self.SIGMAS[::-1], 5000, 11)
        assert forward == backward[::-1]

    def test_matches_row_pipeline_reference_bit_for_bit(self, naive, common, projected):
        for sc in (naive, common, projected):
            batch = estimate_disparities(sc, self.SIGMAS[1:], 5000, 11)
            for sigma, by_metric in zip(self.SIGMAS[1:], batch):
                for metric in (Metric.SCORE, Metric.UTILITY):
                    est = by_metric[metric]
                    assert (est.mean, est.stderr) == row_pipeline_reference(sc, metric, sigma, 5000, 11)

    def test_negative_sigma_anywhere_rejected(self, naive):
        with pytest.raises(NegativeSigma):
            estimate_disparities(naive, [0.5, -1.0], 2000, 0)


class TestVarianceEstimator:
    def test_keeps_its_bits(self, naive):
        est = estimate_variance_naive(naive, 1.0, 100000, 42)
        assert est.mean == float.fromhex("0x1.2f2abb665d0fdp-1")
        assert est.stderr == float.fromhex("0x1.5b166521c2f80p-9")

    def test_matches_analytic_law(self, naive):
        est = estimate_variance_naive(naive, 1.0, 100000, 42)
        truth = score_variance_naive(naive, 1.0)
        assert truth == pytest.approx(0.5902777777777778, rel=1e-13)
        assert abs(est.mean - truth) <= 5.0 * est.stderr

    def test_quadratic_scaling_with_shared_draws(self, naive):
        v1 = estimate_variance_naive(naive, 1.0, 50000, 42)
        v2 = estimate_variance_naive(naive, 2.0, 50000, 42)
        # identical draws make the empirical ratio exactly four
        assert v2.mean == pytest.approx(4.0 * v1.mean, rel=1e-12)

    def test_zero_noise_variance_is_zero(self, naive):
        est = estimate_variance_naive(naive, 0.0, 5000, 1)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_rejects_belief_priors(self, common):
        with pytest.raises(WrongPriorKind):
            estimate_variance_naive(common, 1.0, 5000, 1)


class TestCompare:
    def test_z_and_gate(self, naive):
        est = estimate_disparity(naive, Metric.SCORE, 1.0, 20000, 5)
        out = compare(est.mean + 2.0 * est.stderr, est)
        assert out.z == pytest.approx(-2.0, rel=1e-12)
        assert out.passed
        assert not compare(est.mean + 5.0 * est.stderr, est).passed
        assert compare(est.mean + 5.0 * est.stderr, est, z_max=6.0).passed

    def test_exact_mode_mismatch_raises(self, naive):
        est = estimate_disparity(naive, Metric.SCORE, 0.0, 5000, 1)
        assert est.stderr == 0.0
        with pytest.raises(ZeroStderrMismatch):
            compare(est.mean + 1e-6, est)

    def test_corrupted_formula_sets_off_alarm(self, naive):
        # a one-percent error must be far outside statistical noise
        sigma = 0.25
        analytic = disparity_value(naive, Metric.SCORE, sigma)
        est = estimate_disparity(naive, Metric.SCORE, sigma, 100000, 42)
        out = compare(analytic * 1.01, est)
        assert not out.passed
        assert abs(out.z) > 5.0
