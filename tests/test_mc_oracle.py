"""Monte Carlo estimator tests: determinism, calibration, mutation alarm."""

import functools
import json
import math
import operator
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from flab import mc_oracle
from flab.agents import (
    Metric,
    _integer,
    bayesian_best_response,
    bayesian_posterior,
    normal_stream,
    realized_quantities,
    signal_weight,
    standard_normals,
)
from flab.closed_form import (
    MAX_POINTS,
    CommonPrior,
    NaivePrior,
    ProjectedPrior,
    Scenario,
    disparity_curve,
    disparity_value,
    score_variance_naive,
    sigma_grid,
)
from flab.errors import Error, NegativeSigma, NonFinite, WrongPriorKind
from flab.linalg_core import CostMatrix, Projection
from flab.regimes import RootScan, find_roots
from flab.mc_oracle import (
    _BLOCK,
    _STREAM_KEY,
    MAX_SAMPLES,
    MIN_SAMPLES,
    Z_MAX,
    compare,
    estimate_disparities,
    estimate_disparity,
    estimate_variance_naive,
    tree_sum,
)

RULE = np.array([1.0, 0.5])
# scenarios/reference_common.json
REFERENCE_COMMON = Scenario(
    RULE, CostMatrix(np.diag([2.0, 1.0])), CostMatrix(np.diag([4.0, 3.0])), CommonPrior(np.array([0.5, 2.0]), 2.0)
)


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
    prior = ProjectedPrior(Projection(np.diag([1.0, 0.0])), Projection(np.eye(2)), 1.0)
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


def reference_differences(sc, metric, sigma, n, seed, columns=False):
    """One (metric, sigma) vector of group differences on whole-length arrays, agent by agent.

    This is the per-agent pipeline the oracle's algebra stands for: each
    agent's signal, posterior, best response and realized gains, with no
    blocks and no split into centre and deviation. By default agents are
    (n, d) row stacks; with ``columns`` they are the transpose of a
    contiguous (d, n) stack, as `flab.agents` holds them.
    """
    z = standard_normals(normal_stream(seed, (_STREAM_KEY,)), (n, 2, sc.dim))
    gains = []
    for g, cost_matrix in enumerate((sc.cost1, sc.cost2)):
        prior_mean = sc.prior_means[g]
        noise = np.ascontiguousarray(z[:, g, :].T).T if columns else z[:, g, :]
        belief = sc.rule + sigma * noise
        if not isinstance(sc.prior, NaivePrior):
            w = signal_weight(sc.prior.scale, sigma)
            belief = prior_mean + w * (belief - prior_mean)
        dx = (cost_matrix.inverse.T @ belief.T).T if columns else belief @ cost_matrix.inverse
        score = dx @ sc.rule
        cost = 0.5 * np.einsum("ij,jk,ik->i", dx, cost_matrix.matrix, dx)
        gains.append(score if metric is Metric.SCORE else score - cost)
    return gains[0] - gains[1]


def reference_pipeline(sc, metric, sigma, n, seed, columns=False):
    """Mean and two-pass standard error of the per-agent reference differences."""
    diffs = reference_differences(sc, metric, sigma, n, seed, columns)
    mean = tree_sum(diffs) / n
    resid = diffs - mean
    return mean, math.sqrt(tree_sum(resid * resid) / (n - 1)) / math.sqrt(n)


def in_order(rows):
    """rows[0] + rows[1] + ..., added left to right."""
    return functools.reduce(operator.add, rows)


def reference_terms(sc, n, seed):
    """The (3, n) difference rows (D_a, D_b, D_c) of all n agents at once, in the oracle's arithmetic.

    For each group, y = A^-T e is summed over the coordinates in order, and
    a = r'y, b = (r - mu)'y and c = e'y likewise.
    """
    z = standard_normals(normal_stream(seed, (_STREAM_KEY,)), (n, 2, sc.dim))
    terms = []
    for g, cost in enumerate((sc.cost1, sc.cost2)):
        noise = z[:, g, :].T
        y = in_order(cost.inverse[j][:, None] * noise[j] for j in range(sc.dim))
        factors = (sc.rule[:, None], (sc.rule - sc.prior_means[g])[:, None], noise)
        terms.append(np.array([in_order(factor * y) for factor in factors]))
    return terms[0] - terms[1]


def reference_centre(sc, weight):
    """The (score, utility) difference of one agent per group whose signal is the rule itself."""
    gains = []
    for cost, mean in zip((sc.cost1, sc.cost2), sc.prior_means):
        dx = bayesian_best_response(cost, bayesian_posterior(mean, weight, sc.rule[:, None]))
        realized = realized_quantities(cost, sc.rule, dx)
        gains.append(np.array([realized.score_gain[0], realized.utility_gain[0]]))
    return gains[0] - gains[1]


def node_sum(block, n):
    """The node over one aligned block of the pairwise tree over all n, per row.

    Past one block, a short last block is zero-padded to `_BLOCK` terms,
    so a -0.0 total turns +0.0 just as it does in the whole tree.
    """
    if block.shape[-1] < _BLOCK < n:
        block = np.concatenate((block, np.zeros(block.shape[:-1] + (_BLOCK - block.shape[-1],))), axis=-1)
    return tree_sum(block)


LEFT, RIGHT = [0, 1, 2, 1], [0, 1, 2, 2]  # the scatter's entries aa, bb, cc and bc


def block_scatter(diffs):
    """The scatter (aa, bb, cc, bc) of the (3, n) rows about their means, combined from per-block moments.

    Each aligned block keeps its node sums s, and the sums and the products
    of its residuals about s / m. The products about the overall means
    follow exactly from these, whatever rounding s carries.
    """
    n = diffs.shape[-1]
    means = tree_sum(diffs) / n
    spreads = []
    for lo in range(0, n, _BLOCK):
        block = diffs[:, lo : lo + _BLOCK]
        m = block.shape[-1]
        s = node_sum(block, n)
        resid = block - s[:, None] / m
        r = tree_sum(resid)
        shift = s / m - means
        spreads.append(tree_sum(resid[LEFT] * resid[RIGHT]) + shift[LEFT] * (r[RIGHT] + m * shift[RIGHT])
                       + shift[RIGHT] * r[LEFT])
    return tree_sum(np.array(spreads).T)


def reference_estimates(sc, sigmas, n, seed):
    """Means and standard errors, (levels, 2) each, from whole-n difference rows, and two-pass standard errors.

    The means and the first standard errors follow the oracle's block
    arithmetic; the two-pass ones sum the squares of each agent's
    deviation about its mean.
    """
    diffs = reference_terms(sc, n, seed)
    pooled = tree_sum(diffs) / n
    aa, bb, cc, bc = block_scatter(diffs)
    means, stderrs, two_pass = (np.zeros((len(sigmas), 2)) for _ in range(3))
    for i, sigma in enumerate(sigmas):
        naive = isinstance(sc.prior, NaivePrior)
        weight = 1.0 if naive else signal_weight(sc.prior.scale, sigma)
        means[i] = reference_centre(sc, weight)
        if sigma == 0.0:
            continue
        ka = weight * sigma
        kb = 0.0 if naive else ka * (sigma * sigma / (sc.prior.scale * sc.prior.scale + sigma * sigma))
        kc = -0.5 * ka * ka
        means[i] += (ka * pooled[0], kb * pooled[1] + kc * pooled[2])
        variances = np.array([ka * ka * aa, kb * kb * bb + 2.0 * kb * kc * bc + kc * kc * cc]) / (n - 1)
        stderrs[i] = np.sqrt(variances) / math.sqrt(n)
        for j, deviation in enumerate((ka * diffs[0], kb * diffs[1] + kc * diffs[2])):
            resid = deviation - tree_sum(deviation) / n
            two_pass[i, j] = math.sqrt(tree_sum(resid * resid) / (n - 1)) / math.sqrt(n)
    return means, stderrs, two_pass


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

    def test_rejects_scalars(self):
        with pytest.raises(Error):
            tree_sum(np.float64(1.0))

    @pytest.mark.parametrize("length", [1, 2, 3, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_stack_sums_each_row_bit_for_bit(self, length):
        rng = np.random.default_rng(length)
        rows = rng.normal(size=(3, length)) * 10.0 ** rng.integers(-6, 6, size=(3, length))
        rows[1] = -0.0
        totals = tree_sum(rows)
        assert totals.shape == (3,)
        assert [t.hex() for t in totals.tolist()] == [tree_sum(row).hex() for row in rows]
        # a deeper stack sums along its last axis the same way
        deep = tree_sum(rows.reshape(3, 1, length))
        assert [t.hex() for t in deep.ravel().tolist()] == [t.hex() for t in totals.tolist()]


def blocked_tree_sum(values, term):
    """tree_sum(term(values)) the oracle's way: node sums of aligned blocks, tree-summed in block order."""
    return tree_sum([node_sum(term(values[lo : lo + _BLOCK]), values.size) for lo in range(0, values.size, _BLOCK)])


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
            means, stderrs = estimate_disparities(sc, [0.0, 0.7], n, 3)
            ref_means, ref_stderrs, two_pass = reference_estimates(sc, [0.0, 0.7], n, 3)
            assert hexes((means, stderrs)) == hexes((ref_means, ref_stderrs))
            assert stderrs[1] == pytest.approx(two_pass[1], rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n", [5000, 2 * _BLOCK + 7])
    def test_agrees_with_the_per_agent_pipeline(self, n, naive, common, projected, common_d8):
        # the centre-plus-deviation split against each agent run whole: means to 1e-6
        # standard errors and standard errors to 1e-10 relative (measured: at most
        # 5.8e-13 standard errors and 7.5e-16 relative over these cases)
        sigmas = [0.25, 0.7, 4.0]
        for sc in (naive, common, projected, common_d8):
            means, stderrs = estimate_disparities(sc, sigmas, n, 3)
            for i, sigma in enumerate(sigmas):
                for j, metric in enumerate(Metric):
                    mean, stderr = reference_pipeline(sc, metric, sigma, n, 3, columns=True)
                    assert abs(means[i, j] - mean) <= 1e-6 * stderr
                    assert stderrs[i, j] == pytest.approx(stderr, rel=1e-10, abs=0.0)

    def test_peak_memory_per_agent(self, common):
        n = 2**20
        tracemalloc.start()
        try:
            estimate_disparities(common, [0.0, 0.5, 2.0], n, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # agents stream in blocks, so the peak is one block's draws and terms:
        # about 0.6 MiB for blocks of 2^12 agents at d = 2 (see the tests below)
        assert peak <= 3 * 2**20

    def test_peak_memory_is_one_block_one_stack_one_pass(self, common):
        # a looser bound than the one below, which holds one block's draws and terms
        # (about 0.6 MiB)
        tracemalloc.start()
        try:
            estimate_disparities(common, [0.0, 0.5, 2.0], 2**20, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * 2**20

    def test_peak_memory_is_one_block(self, common):
        # one block's noise (128 KiB at d = 2), two buffers of three difference rows
        # (96 KiB each) and one that takes its draw, then its response terms, then the
        # residual products (128 KiB), with the scenario's and scipy's own: about 0.6 MiB.
        # Per-level work or tallies exceed the bound
        tracemalloc.start()
        try:
            estimate_disparities(common, [0.0, 0.5, 2.0], 2**20, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * 2**20

    def test_peak_does_not_grow_with_levels_times_n(self, common):
        # the tallies are 80 B per block whatever the level count: 20 KiB at n = 2^20
        sigmas = np.linspace(0.01, 5.0, 1000)
        peaks = []
        for n in (2**16, 2**20):
            tracemalloc.start()
            try:
                estimate_disparities(common, sigmas, n, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 256 * 1024


def hexes(arrays):
    return [[v.hex() for v in a.ravel().tolist()] for a in arrays]


class TestPassShapes:
    """How many agents a draw takes decides what is held at once, never a bit."""

    LEVELS = [0.0, 0.7, 5.0, 1e3]

    # each block is drawn in parts of at most ``bound`` agents: 7 and 1000 divide no
    # block here, 64 divides every full one, and _BLOCK splits nothing
    @pytest.mark.parametrize("bound", [7, 64, 1000, _BLOCK])
    @pytest.mark.parametrize("n", [1000, _BLOCK - 1, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_pass_bound_moves_no_bit(self, bound, n, naive, common, projected, common_d8, monkeypatch):
        whole = mc_oracle.standard_normals

        def in_parts(stream, shape, out=None):
            out = np.empty(shape) if out is None else out
            for lo in range(0, shape[0], bound):
                whole(stream, out[lo : lo + bound].shape, out[lo : lo + bound])
            return out

        for sc in (naive, common, projected, common_d8):
            default = estimate_disparities(sc, self.LEVELS, n, 5)
            monkeypatch.setattr(mc_oracle, "standard_normals", in_parts)
            shaped = estimate_disparities(sc, self.LEVELS, n, 5)
            monkeypatch.undo()
            assert hexes(shaped) == hexes(default)


THREADS_CHILD = """
import json, sys
import numpy as np
from flab.closed_form import CommonPrior, Scenario, sigma_grid
from flab.linalg_core import CostMatrix
from flab.mc_oracle import estimate_disparities

rng = np.random.default_rng(32)
m = rng.normal(size=(32, 32))
cost1 = np.einsum("ik,jk->ij", m, m) / 32.0 + np.eye(32)
cost2 = cost1 + np.diag(rng.uniform(0.5, 1.5, size=32))
sc = Scenario(rng.normal(size=32), CostMatrix(cost1), CostMatrix(cost2), CommonPrior(rng.normal(size=32), 1.5))
grids = ([0.0, *sigma_grid(sc, 3).tolist()], sigma_grid(sc, 300).tolist())
out = [[v.hex() for a in estimate_disparities(sc, grid, n, 42) for v in a.ravel().tolist()]
       for n in (1001, 8193) for grid in grids]
json.dump(out, sys.stdout)
"""


class TestThreadCount:
    def test_d32_estimates_ignore_blas_threads(self):
        # at d >= 3 BLAS rounds a column by where it falls in a call, and with two
        # threads by where the call is split, so an agent's terms never go through it
        src = str(Path(mc_oracle.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        children = [subprocess.Popen([sys.executable, "-c", THREADS_CHILD], stdout=subprocess.PIPE,
                                     env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads))
                    for threads in ("1", "2")]
        one, two = (json.loads(child.communicate(timeout=300)[0]) for child in children)
        assert all(child.returncode == 0 for child in children)
        assert one == two


class TestStreamedBlocks:
    """Blocks drawn in order from one stream, in memory that does not grow with n."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 32])
    def test_skip_ahead_blocks_equal_one_draw(self, dim):
        # each block skips ahead past the draws of the blocks before it, by
        # drawing them; an odd d leaves Philox's four-draw buffer part-used
        n = 2 * _BLOCK + 5
        whole = standard_normals(normal_stream(7, (_STREAM_KEY,)), (n, 2, dim))
        stream = normal_stream(7, (_STREAM_KEY,))
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            block = standard_normals(stream, (hi - lo, 2, dim), out=np.empty((hi - lo, 2, dim)))
            assert np.array_equal(block, whole[lo:hi])

    @staticmethod
    def traced_peak(sc, n, seed):
        tracemalloc.start()
        try:
            estimate_disparities(sc, [0.5], n, seed)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_one_worker_peak_does_not_grow_with_n(self, common):
        assert self.traced_peak(common, 2**22, 1) <= self.traced_peak(common, 2**18, 1) + 256 * 1024


class TestEstimates:
    def test_repeat_runs_bit_identical(self, naive):
        a = estimate_disparity(naive, Metric.SCORE, 0.5, 2000, 11)
        b = estimate_disparity(naive, Metric.SCORE, 0.5, 2000, 11)
        assert a == b

    def test_different_seeds_differ(self, naive):
        a = estimate_disparity(naive, Metric.SCORE, 0.5, 2000, 11)
        b = estimate_disparity(naive, Metric.SCORE, 0.5, 2000, 12)
        assert a[0] != b[0]

    def test_zero_noise_is_exact(self, naive, common):
        for sc in (naive, common):
            means, stderrs = estimate_disparities(sc, [0.0, 0.0], 5000, 1)
            assert np.all(stderrs == 0.0)
            for j, metric in enumerate(Metric):
                analytic = disparity_value(sc, metric, 0.0)
                assert np.all(np.abs(means[:, j] - analytic) <= 1e-12)

    def test_within_noise_of_analytic(self, naive, common):
        sigmas = np.array([0.25, 1.0, 4.0])
        for sc in (naive, common):
            analytic = np.stack([disparity_value(sc, metric, sigmas) for metric in Metric], axis=1)
            _, passed, _ = compare(analytic, *estimate_disparities(sc, sigmas, 50000, 42))
            assert passed.all()

    def test_projected_prior_supported(self):
        prior = ProjectedPrior(
            Projection(np.diag([1.0, 0.0])), Projection(np.eye(2)), 1.0
        )
        sc = Scenario(
            RULE, CostMatrix(np.diag([2.0, 1.0])), CostMatrix(np.diag([4.0, 3.0])), prior
        )
        analytic = disparity_value(sc, Metric.UTILITY, 0.7)
        _, passed, _ = compare(analytic, *estimate_disparity(sc, Metric.UTILITY, 0.7, 50000, 42))
        assert passed

    def test_sample_floor_enforced(self, naive):
        with pytest.raises(Error):
            estimate_disparity(naive, Metric.SCORE, 1.0, 999, 0)

    def test_sample_ceiling_enforced(self, naive):
        # checked before the blocks are laid out, so nothing is allocated
        with pytest.raises(Error, match="at most"):
            estimate_disparity(naive, Metric.SCORE, 1.0, MAX_SAMPLES + 1, 0)
        with pytest.raises(Error, match="at most"):
            estimate_variance_naive(naive, 1.0, MAX_SAMPLES + 1, 0)

    def test_negative_sigma_rejected(self, naive):
        with pytest.raises(NegativeSigma):
            estimate_disparity(naive, Metric.SCORE, -1.0, 2000, 0)

    def test_metric_accepts_strings(self, naive):
        a = estimate_disparity(naive, "score", 0.5, 2000, 11)
        b = estimate_disparity(naive, Metric.SCORE, 0.5, 2000, 11)
        assert a == b

    def test_unknown_metric_is_a_typed_error(self, naive):
        with pytest.raises(Error, match="^unknown metric 'bogus'"):
            estimate_disparity(naive, "bogus", 0.5, 2000, 11)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, naive, common, bad):
        # refused where the level is read, as the formulas refuse it, not as an estimate out of range
        for sc in (naive, common):
            with pytest.raises(NonFinite, match=f"^noise scale {bad} is not finite$"):
                estimate_disparities(sc, [0.5, bad], 2000, 0)
        with pytest.raises(NonFinite, match=f"^noise scale {bad} is not finite$"):
            estimate_variance_naive(naive, bad, 2000, 0)

    def test_negative_seed_rejected(self, common):
        with pytest.raises(Error, match="must be non-negative"):
            estimate_disparities(common, [1.0], 1000, -1)

    def test_huge_levels_scale_exactly(self, naive):
        # k'Sk holds (w sigma)^4, past range from sigma = 1e77, so each level's k is scaled by a power of
        # two first, exactly: sigma times 2^300 gives the score stderr times 2^300 and the utility's times 4^300
        means, stderrs = estimate_disparities(naive, [0.75, math.ldexp(0.75, 300)], 1000, 1)
        assert np.isfinite(means).all()
        assert stderrs[1, 0] == math.ldexp(stderrs[0, 0], 300)
        assert stderrs[1, 1] == math.ldexp(stderrs[0, 1], 600)

    def test_large_prior_scale_levels_estimated(self):
        # a variance formed from the unscaled k, with (w sigma)^4 in it, overflows at 1e100 and 1e103
        sc = Scenario(
            RULE, CostMatrix(np.diag([2.0, 1.0])), CostMatrix(np.diag([4.0, 3.0])),
            CommonPrior(np.array([0.5, 2.0]), 1e100),
        )
        sigmas = np.array([1e70, 1e100, 1e103])
        analytic = np.stack([disparity_value(sc, metric, sigmas) for metric in Metric], axis=1)
        means, stderrs = estimate_disparities(sc, sigmas, 1000, 1)
        assert np.isfinite(stderrs).all() and (stderrs > 0.0).all()
        assert compare(analytic, means, stderrs)[1].all()

    def test_out_of_range_mean_rejected(self):
        # with costs of 1e-8, the utility mean, about -(w sigma)^2 1e8 / 2, leaves range near sigma = 2e150
        sc = Scenario(
            RULE, CostMatrix(np.diag([1e-8, 1e-8])), CostMatrix(np.diag([2e-8, 2e-8])),
            CommonPrior(np.array([0.5, 2.0]), 1e152),
        )
        means, stderrs = estimate_disparities(sc, [0.0, 1e149, 1e150], 1000, 1)
        assert np.isfinite(means).all() and np.isfinite(stderrs).all()
        with pytest.raises(Error, match=r"^estimate at sigma=1e\+152 is out of floating-point range$"):
            estimate_disparities(sc, [0.0, 1e149, 1e152, 1e155], 1000, 1)

    def test_out_of_range_centre_rejected(self, common):
        # rule_sq is 1.32e308, but group 1's noise-free score gain r'A^-1 r is 2.16e308
        sc = Scenario(np.array([1.2e154, 1.2e154]), common.cost1, common.cost2, common.prior)
        with pytest.raises(Error, match=r"^estimate at sigma=0 is out of floating-point range$"):
            estimate_disparities(sc, [0.0], 1000, 1)

    def test_naive_level_out_of_range_rejected(self, naive):
        # kc = -(w sigma)^2 / 2 overflows at 1e308, and with it the utility mean
        with pytest.raises(Error, match=r"^estimate at sigma=1e\+308 is out of floating-point range$"):
            estimate_disparity(naive, Metric.SCORE, 1e308, 1000, 0)
        with pytest.raises(Error, match=r"^estimate at sigma=1e\+308 is out of floating-point range$"):
            estimate_variance_naive(naive, 1e308, 1000, 0)

    def test_common_prior_level_past_range_is_the_limit(self, common):
        # sigma^2 overflows at 1e308, so the weight is 0: every agent is the prior's, with no spread
        means, stderrs = estimate_disparities(common, [0.0, 1e308, 0.5], 1000, 0)
        assert np.isfinite(means).all()
        assert (stderrs[1] == 0.0).all()
        analytic = [disparity_value(common, metric, 1e308) for metric in Metric]
        _, passed, exact = compare(analytic, means[1], stderrs[1])
        assert passed.all() and exact.all()


def seeded_scenario(seed):
    """A d=2 scenario with a rule up to 1e154, costs down to 1e-8 and either prior, from ``seed``.

    A scenario whose constants leave floating-point range is refused, and
    the example with it.
    """
    rng = np.random.default_rng(seed)
    rule = rng.normal(size=2) * 10.0 ** rng.uniform(-3.0, 154.0)
    a1 = 10.0 ** rng.uniform(-8.0, 2.0, size=2)
    a2 = a1 * (1.0 + rng.uniform(0.1, 2.0, size=2))
    prior = NaivePrior() if rng.integers(2) else CommonPrior(rng.normal(size=2), 10.0 ** rng.uniform(-3.0, 150.0))
    try:
        return Scenario(rule, CostMatrix(np.diag(a1)), CostMatrix(np.diag(a2)), prior)
    except Error:
        reject()


LEVELS = st.one_of(
    st.sampled_from([0.0, 1e77, 1e154, 1e200, 1e300, 1e308, float(np.finfo(float).max)]),
    st.floats(0.0, 1e300),
    st.floats(0.0, 1.0).map(lambda u: 10.0 ** (616.0 * u - 308.0)),
)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), sigmas=st.lists(LEVELS, min_size=1, max_size=5))
def test_estimates_are_finite_or_name_the_first_level_out_of_range(seed, sigmas):
    # a RuntimeWarning fails this test; an estimate depends on its level alone, so each level is tried alone
    sc = seeded_scenario(seed)
    alone, refused = [], None
    for sigma in sigmas:
        try:
            means, stderrs = estimate_disparities(sc, [sigma], 1000, 1)
        except Error as exc:
            refused = str(exc)
            assert refused == f"estimate at sigma={sigma:g} is out of floating-point range"
            break
        assert np.isfinite(means).all() and np.isfinite(stderrs).all()
        alone.append((means, stderrs))
    if refused:
        with pytest.raises(Error) as caught:
            estimate_disparities(sc, sigmas, 1000, 1)
        assert str(caught.value) == refused
    else:
        means, stderrs = estimate_disparities(sc, sigmas, 1000, 1)
        assert np.array_equal(means, np.concatenate([m for m, _ in alone]))
        assert np.array_equal(stderrs, np.concatenate([s for _, s in alone]))


def refused_or(call):
    """The call's value, or None where it raises a flab Error."""
    try:
        return call()
    except Error:
        return None


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    metric=st.sampled_from([*Metric, "score", "utility", "bogus", 0, None]),
    sigma=st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 5e-324, 1e308])),
)
def test_formulas_and_oracle_read_the_same_arguments(metric, sigma):
    # both halves read the metric through `Metric` and the level through `noise_scales`
    sc = REFERENCE_COMMON
    formula = refused_or(lambda: disparity_value(sc, metric, sigma))
    estimate = refused_or(lambda: estimate_disparity(sc, metric, sigma, 1000, 1))
    assert (formula is None) == (estimate is None)
    if formula is not None:
        member = Metric(metric)
        assert formula == disparity_value(sc, member, sigma)
        assert estimate == estimate_disparity(sc, member, sigma, 1000, 1)


class TestBatchedEstimates:
    SIGMAS = (0.0, 0.25, 1.0, 4.0)

    def test_equals_per_call_estimates_bit_for_bit(self, naive, common, projected):
        for sc in (naive, common, projected):
            means, stderrs = estimate_disparities(sc, self.SIGMAS, 5000, 11)
            assert means.shape == stderrs.shape == (len(self.SIGMAS), 2)
            for i, sigma in enumerate(self.SIGMAS):
                for j, metric in enumerate(Metric):
                    one = estimate_disparity(sc, metric, sigma, 5000, 11)
                    assert (means[i, j], stderrs[i, j]) == one

    def test_order_of_noise_levels_does_not_matter(self, common):
        forward = estimate_disparities(common, self.SIGMAS, 5000, 11)
        backward = estimate_disparities(common, self.SIGMAS[::-1], 5000, 11)
        for ahead, behind in zip(forward, backward):
            assert np.array_equal(ahead, behind[::-1])

    def test_matches_row_pipeline_reference_bit_for_bit(self, naive, common, projected):
        for sc in (naive, common, projected):
            means, stderrs = estimate_disparities(sc, self.SIGMAS[1:], 5000, 11)
            ref_means, ref_stderrs, two_pass = reference_estimates(sc, self.SIGMAS[1:], 5000, 11)
            assert hexes((means, stderrs)) == hexes((ref_means, ref_stderrs))
            assert stderrs == pytest.approx(two_pass, rel=1e-15, abs=0.0)

    def test_negative_sigma_anywhere_rejected(self, naive):
        with pytest.raises(NegativeSigma):
            estimate_disparities(naive, [0.5, -1.0], 2000, 0)


class TestVarianceEstimator:
    def test_keeps_its_bits(self, naive):
        var, stderr = estimate_variance_naive(naive, 1.0, 100000, 42)
        assert var == float.fromhex("0x1.2f2abb665d0fbp-1")
        assert stderr == float.fromhex("0x1.5b166521c2f7ep-9")
        # the variance is a view of the score estimate's standard error
        assert var == 100000 * estimate_disparity(naive, Metric.SCORE, 1.0, 100000, 42)[1] ** 2

    def test_matches_analytic_law(self, naive):
        var, stderr = estimate_variance_naive(naive, 1.0, 100000, 42)
        truth = score_variance_naive(naive, 1.0)
        assert truth == pytest.approx(0.5902777777777778, rel=1e-13)
        assert abs(var - truth) <= 5.0 * stderr

    def test_quadratic_scaling_with_shared_draws(self, naive):
        v1, _ = estimate_variance_naive(naive, 1.0, 50000, 42)
        v2, _ = estimate_variance_naive(naive, 2.0, 50000, 42)
        # identical draws make the empirical ratio exactly four
        assert v2 == pytest.approx(4.0 * v1, rel=1e-12)

    def test_zero_noise_variance_is_zero(self, naive):
        assert estimate_variance_naive(naive, 0.0, 5000, 1) == (0.0, 0.0)

    def test_rejects_belief_priors(self, common):
        with pytest.raises(WrongPriorKind):
            estimate_variance_naive(common, 1.0, 5000, 1)


def scalar_compare(analytic, mean, stderr, z_max=Z_MAX):
    """The one-value rule `compare` applies elementwise, on Python floats: (z, passed, exact)."""
    analytic = float(analytic)
    resolution = math.ulp(max(abs(analytic), abs(mean)))
    if stderr == 0.0 or z_max * stderr < resolution:
        return 0.0, abs(analytic - mean) <= 1e-12, True
    z = (mean - analytic) / stderr
    return z, abs(z) <= z_max, False


class TestCompare:
    def test_z_and_gate(self, naive):
        mean, stderr = estimate_disparity(naive, Metric.SCORE, 1.0, 20000, 5)
        z, passed, exact = compare([mean + 2.0 * stderr, mean + 5.0 * stderr], mean, stderr)
        assert z[0] == pytest.approx(-2.0, rel=1e-12)
        assert passed.tolist() == [True, False]
        assert not exact.any()
        assert compare(mean + 5.0 * stderr, mean, stderr, z_max=6.0)[1]

    def test_exact_mode_mismatch_fails(self, naive):
        mean, stderr = estimate_disparity(naive, Metric.SCORE, 0.0, 5000, 1)
        assert stderr == 0.0
        z, passed, exact = compare([mean + 1e-6, mean + 1e-13], mean, stderr)
        assert exact.all()
        assert passed.tolist() == [False, True]
        assert z.tolist() == [0.0, 0.0]

    def test_stderr_below_double_spacing_uses_exact_mode(self):
        # z_max standard errors span less than one ulp of the values compared
        z, passed, exact = compare([math.nextafter(0.79, 1.0), 0.79 + 1e-9], 0.79, 2.46e-18)
        assert exact.all()
        assert passed.tolist() == [True, False]
        assert z.tolist() == [0.0, 0.0]
        # one that spans more is still scored in standard errors
        z, passed, exact = compare(0.79 + 5e-15, 0.79, 1e-16)
        assert z == pytest.approx(-50.0, rel=1e-3)
        assert not exact and not passed

    def test_matches_the_scalar_rule_bit_for_bit(self):
        big = sys.float_info.max
        analytic = [0.0, -0.0, 5e-324, 0.79, math.nextafter(0.79, 1.0), 0.79 + 1e-9, 0.79 + 5e-15,
                    0.79 + 3.9, 0.79 - 4.1, 1e308, big, -big, math.inf, -math.inf, math.nan]
        means = [0.0, 0.79, -3.0, big, -big, math.inf, math.nan]
        stderrs = [0.0, 5e-324, 2.46e-18, 1e-16, 1.0, 1e300, big, math.inf, math.nan]
        cases = np.array([(a, m, s) for a in analytic for m in means for s in stderrs])
        for z_max in (Z_MAX, 0.5, 1e10):
            z, passed, exact = compare(*cases.T, z_max=z_max)
            expected = [scalar_compare(a, m, s, z_max) for a, m, s in cases.tolist()]
            assert [v.hex() for v in z.tolist()] == [e[0].hex() for e in expected]
            assert passed.tolist() == [e[1] for e in expected]
            assert exact.tolist() == [e[2] for e in expected]
        # the largest double's spacing is the one below it, 2^971, as math.ulp reads it
        _, _, exact = compare(big, big, [2.0**968, 2.0**969])
        assert exact.tolist() == [True, False]

    def test_corrupted_formula_sets_off_alarm(self, naive):
        # a one-percent error must be far outside statistical noise
        sigma = 0.25
        analytic = disparity_value(naive, Metric.SCORE, sigma)
        z, passed, _ = compare(analytic * 1.01, *estimate_disparity(naive, Metric.SCORE, sigma, 100000, 42))
        assert not passed
        assert abs(z) > 5.0


# every reader of an integer or gate argument, as (argument, lowest, highest, calls); each call takes the
# argument and returns a value that an accepted argument must share with its exact int (or float, for z_max)
NAIVE = Scenario(RULE, CostMatrix(np.diag([2.0, 1.0])), CostMatrix(np.diag([4.0, 3.0])), NaivePrior())
CHEAP = 4096  # the largest count the property runs through an estimate or a grid; above it, the reader alone
READERS = {
    "seed": (0, math.inf, [
        lambda x: estimate_disparities(REFERENCE_COMMON, [0.0, 1.0], 1000, x),
        lambda x: estimate_disparity(REFERENCE_COMMON, "utility", 1.0, 1000, x),
        lambda x: estimate_variance_naive(NAIVE, 1.0, 1000, x),
        lambda x: standard_normals(normal_stream(x), (4,)),
    ]),
    "key": (0, math.inf, [lambda x: standard_normals(normal_stream(3, (x,)), (4,))]),
    "n": (MIN_SAMPLES, MAX_SAMPLES, [
        lambda x: estimate_disparities(REFERENCE_COMMON, [0.0, 1.0], x, 1),
        lambda x: estimate_disparity(REFERENCE_COMMON, "score", 1.0, x, 1),
        lambda x: estimate_variance_naive(NAIVE, 0.0, x, 1),
    ]),
    "scan points": (2, MAX_POINTS, [lambda x: find_roots(lambda s: s - 1.0, 0.5, 2.0, x)]),
    "grid points": (1, MAX_POINTS, [
        lambda x: sigma_grid(REFERENCE_COMMON, x),
        lambda x: disparity_curve(REFERENCE_COMMON, Metric.SCORE, points=x).values,
    ]),
    "z_max": (None, None, [lambda x: compare([0.0, 1.0, 2.0], [0.5, 1.0, -1.0], [0.25, 0.0, 1.0], x)]),
}
ARGUMENTS = st.one_of(
    st.integers(),
    st.floats(),
    st.integers(-10**4, 10**4).map(float),
    st.integers(-10**4, 10**4).map(np.int64),
    st.integers(0, 10**4).map(np.uint64),
    st.floats(width=32).map(np.float32),
    st.floats(width=16).map(np.float16),
    st.sampled_from([
        1.0, 2.0, 1000.0, 1000.9, 2.7, -1.5, -0.0, 0.5, 2.0**53, 1e300, math.nan, math.inf, -math.inf,
        True, False, np.True_, None, "3", "", b"7", 1j,
    ]),
)


def bits(value):
    """Every number in a nest of tuples, RootScans and arrays, as hex strings."""
    if isinstance(value, RootScan):
        return bits((value.crossings, value.tangential))
    if isinstance(value, (tuple, list)):
        return [bits(v) for v in value]
    return [float(v).hex() for v in np.ravel(value)]


def accepted(argument, value):
    """The exact int (or float, for z_max) the reader of ``argument`` must accept ``value`` as, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return None
    value = value.item() if isinstance(value, np.generic) else value
    low, high, _ = READERS[argument]
    if argument == "z_max":
        return float(value) if 0.0 < value <= sys.float_info.max else None
    if isinstance(value, float) and not (math.isfinite(value) and value.is_integer()):
        return None
    return int(value) if low <= value <= high else None


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(argument=st.sampled_from(sorted(READERS)), value=ARGUMENTS)
def test_each_argument_reader_accepts_exact_values_in_range_and_refuses_the_rest(argument, value):
    # a builtin exception, or a RuntimeWarning, fails this test
    low, high, calls = READERS[argument]
    exact = accepted(argument, value)
    if exact is None:
        for call in calls:
            with pytest.raises(Error):
                call(value)
    elif argument in ("n", "scan points", "grid points") and exact > CHEAP:
        got = _integer(value, argument, low, high)
        assert type(got) is int and got == exact
    else:
        for call in calls:
            assert bits(call(value)) == bits(call(exact))


class TestIntegerArguments:
    """The cases that the bare ``int`` reads and the zero-noise shortcut let through or turned into builtin errors."""

    @pytest.mark.parametrize("seed", [math.nan, 2.7, "3", True, -1])
    def test_bad_seed_is_refused_by_every_estimate(self, naive, seed):
        # nan raised ValueError, 2.7 drew seed 2's agents, "3" and True were read as 3 and 1
        for sigmas in ([1.0], [0.0]):  # a grid of zeros read no seed at all
            with pytest.raises(Error):
                estimate_disparities(naive, sigmas, 1000, seed)
        for sigma in (1.0, 0.0):
            with pytest.raises(Error):
                estimate_disparity(naive, Metric.SCORE, sigma, 1000, seed)
            with pytest.raises(Error):
                estimate_variance_naive(naive, sigma, 1000, seed)
        with pytest.raises(Error):
            normal_stream(seed)

    @pytest.mark.parametrize("n", [math.nan, 1000.9, "1000"])
    def test_bad_sample_count_is_refused_by_every_estimate(self, naive, n):
        # nan raised ValueError and 1000.9 was read as 1000
        with pytest.raises(Error):
            estimate_disparities(naive, [0.0, 1.0], n, 1)
        with pytest.raises(Error):
            estimate_disparity(naive, Metric.SCORE, 1.0, n, 1)
        with pytest.raises(Error):
            estimate_variance_naive(naive, 1.0, n, 1)

    def test_messages_check_the_range_first(self, naive):
        with pytest.raises(Error, match=r"^seed must be non-negative, got -1.5$"):
            estimate_disparities(naive, [0.0], 1000, -1.5)
        with pytest.raises(Error, match=r"^need at least 1000 samples, got 999.5$"):
            estimate_disparities(naive, [0.0], 999.5, 1)
        with pytest.raises(Error, match=rf"^need at most {MAX_SAMPLES} samples, got inf$"):
            estimate_disparities(naive, [0.0], math.inf, 1)
        with pytest.raises(Error, match=r"^samples must be an integer, got nan$"):
            estimate_disparities(naive, [0.0], math.nan, 1)


class TestGateAndGridArguments:
    @pytest.mark.parametrize("z_max", [-1.0, 0.0, math.nan, math.inf, -math.inf, "4", None, True, 10**400])
    def test_compare_refuses_a_gate_that_is_not_finite_and_positive(self, z_max):
        # -1 put every entry in exact mode, 0 passed a 1e-13 gap, and nan failed every entry
        with pytest.raises(Error, match="^z_max must be finite and positive"):
            compare([1.0], [1.5], [0.1], z_max=z_max)

    @pytest.mark.parametrize("points", [1, 0, -3, 1.5, math.nan, "5", None, True, MAX_POINTS + 1])
    def test_find_roots_needs_two_points(self, points):
        # 1 and 0 scanned nothing and returned an empty RootScan
        with pytest.raises(Error):
            find_roots(lambda s: s - 1.0, 0.5, 2.0, points=points)

    @pytest.mark.parametrize("points", [0, -3, 1.5, math.nan, "5", None, True, MAX_POINTS + 1])
    def test_grids_need_one_point(self, common, points):
        # 1.5 raised TypeError, -3 ValueError, and 0 gave an empty grid
        with pytest.raises(Error):
            sigma_grid(common, points)
        with pytest.raises(Error):
            disparity_curve(common, Metric.SCORE, points=points)
