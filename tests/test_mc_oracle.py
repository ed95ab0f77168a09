"""Monte Carlo estimator tests: determinism, calibration, mutation alarm."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from flab import mc_oracle
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
    _BLOCK,
    _STREAM_KEY,
    McEstimate,
    _block_columns,
    _node_sum,
    _pooled_tree_sum,
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


@pytest.fixture
def common_d8():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(8, 8))
    cost1 = m @ m.T / 8.0 + np.eye(8)
    cost2 = cost1 + np.diag(rng.uniform(0.5, 1.5, size=8))
    prior = CommonPrior(rng.normal(size=8), 1.5)
    return Scenario(rng.normal(size=8), CostMatrix(cost1), CostMatrix(cost2), prior)


def reference_pipeline(sc, metric, sigma, n, seed, columns=False):
    """One (metric, sigma) estimate computed on whole-length arrays, with no blocks.

    By default agents are (n, d) row stacks, as a per-call oracle held them.
    With ``columns`` they are the transpose of a contiguous (d, n) stack, the
    oracle's own layout: its contractions round like the oracle's at every d,
    while the row layout agrees with it at d = 2 only.
    """
    z = standard_normals(normal_stream(seed, (_STREAM_KEY,)), (n, 2, sc.dim))
    gains = []
    for g in (1, 2):
        group = sc.group_params(g)
        noise = np.ascontiguousarray(z[:, g - 1, :].T).T if columns else z[:, g - 1, :]
        belief = sc.rule + sigma * noise
        if not isinstance(sc.prior, NaivePrior):
            w = signal_weight(sc.prior.scale, sigma)
            belief = group.prior_mean + w * (belief - group.prior_mean)
        dx = (group.cost.inverse.T @ belief.T).T if columns else belief @ group.cost.inverse
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


def blocked_tree_sum(values, term):
    """tree_sum(term(values)) the oracle's way: node sums of aligned blocks, pooled."""
    return float(_pooled_tree_sum(
        values.size, lambda lo: _node_sum(term(values[lo : lo + _BLOCK]), values.size)
    ))


class TestBlocks:
    SIZES = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5, 2**20)

    def test_blocked_sum_equals_tree_sum(self):
        rng = np.random.default_rng(4)
        for size in self.SIZES:
            v = rng.normal(size=size) * 10.0 ** rng.integers(-6, 6, size=size)
            assert blocked_tree_sum(v, lambda block: block) == tree_sum(v)
            assert blocked_tree_sum(v, np.square) == tree_sum(v * v)
            # the sign of an all-zero total follows the padded whole-vector tree too
            zeros = np.full(size, -0.0)
            assert blocked_tree_sum(zeros, lambda block: block).hex() == tree_sum(zeros).hex()

    @pytest.mark.parametrize("n", [5000, 2 * _BLOCK, 2 * _BLOCK + 7],
                             ids=["part_block", "whole_blocks", "blocks_and_remainder"])
    def test_matches_unblocked_reference(self, n, naive, common, projected, common_d8):
        for sc in (naive, common, projected, common_d8):
            batch = estimate_disparities(sc, [0.0, 0.7], n, 3)
            for metric in (Metric.SCORE, Metric.UTILITY):
                est = batch[1][metric]
                expected = reference_pipeline(sc, metric, 0.7, n, 3, columns=True)
                assert (est.mean, est.stderr) == expected

    def test_peak_memory_per_agent(self, common):
        n = 2**20
        tracemalloc.start()
        try:
            estimate_disparities(common, [0.0, 0.5, 2.0], n, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # resident: 32 B of draws and 16 B of differences per agent, plus one block's temporaries
        assert peak <= 72 * n


class TestStreamedBlocks:
    """Blocks drawn on their own, run on any number of workers, in bounded memory."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 32])
    def test_skip_ahead_blocks_equal_one_draw(self, dim):
        n = 2 * _BLOCK + 5
        whole = standard_normals(normal_stream(7, (_STREAM_KEY,)), (n, 2, dim)).transpose(1, 2, 0)
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            assert np.array_equal(_block_columns(dim, 7, lo, hi), whole[:, :, lo:hi])

    def test_worker_count_does_not_move_bits(self, monkeypatch, naive, common, projected):
        sigmas = [0.0, 0.25, 1.0, 4.0]
        n = 3 * _BLOCK + 5

        def bits(sc):
            estimates = [e for level in estimate_disparities(sc, sigmas, n, 11) for e in level.values()]
            if sc is naive:
                estimates.append(estimate_variance_naive(sc, 1.0, n, 11))
            return [(e.mean.hex(), e.stderr.hex()) for e in estimates]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to vary the schedule
        try:
            for sc in (naive, common, projected):
                runs = []
                for workers in (1, 2, 3, 8):
                    monkeypatch.setattr(mc_oracle, "_worker_count", lambda w=workers: w)
                    runs.append(bits(sc))
                assert all(run == runs[0] for run in runs[1:])
        finally:
            sys.setswitchinterval(interval)

    def test_worker_error_reaches_the_caller(self, monkeypatch, common):
        threads = []

        def fail(*args):
            threads.append(threading.current_thread())
            raise Error("raised in a worker")

        monkeypatch.setattr(mc_oracle, "_block_columns", fail)
        with pytest.raises(Error, match="raised in a worker"):
            estimate_disparities(common, [0.5], 3 * _BLOCK, 1)
        assert threads and threading.main_thread() not in threads

    @staticmethod
    def traced_peak(sc, n, seed):
        tracemalloc.start()
        try:
            estimate_disparities(sc, [0.5], n, seed)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_one_worker_peak_does_not_grow_with_n(self, monkeypatch, common):
        monkeypatch.setattr(mc_oracle, "_worker_count", lambda: 1)
        assert self.traced_peak(common, 2**22, 1) <= self.traced_peak(common, 2**18, 1) + 256 * 1024

    def test_two_worker_peak_per_agent(self, monkeypatch, common):
        monkeypatch.setattr(mc_oracle, "_worker_count", lambda: 2)
        n = 2**20
        assert self.traced_peak(common, n, 1) <= 16 * n


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
                    assert (est.mean, est.stderr) == reference_pipeline(sc, metric, sigma, 5000, 11)

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

    def test_stderr_below_double_spacing_uses_exact_mode(self):
        # z_max standard errors span less than one ulp of the values compared
        est = McEstimate(0.79, 2.46e-18, 100000, 42, Metric.SCORE, 1000.0)
        out = compare(math.nextafter(0.79, 1.0), est)
        assert out.passed
        assert out.z == 0.0
        with pytest.raises(ZeroStderrMismatch):
            compare(0.79 + 1e-9, est)
        # one that spans more is still scored in standard errors
        est = McEstimate(0.79, 1e-16, 100000, 42, Metric.SCORE, 1000.0)
        assert compare(0.79 + 5e-15, est).z == pytest.approx(-50.0, rel=1e-3)

    def test_corrupted_formula_sets_off_alarm(self, naive):
        # a one-percent error must be far outside statistical noise
        sigma = 0.25
        analytic = disparity_value(naive, Metric.SCORE, sigma)
        est = estimate_disparity(naive, Metric.SCORE, sigma, 100000, 42)
        out = compare(analytic * 1.01, est)
        assert not out.passed
        assert abs(out.z) > 5.0
