"""Monte Carlo estimates of the disparities, built only from agent behavior.

The estimators here deliberately never call the closed-form evaluators:
each draw runs the per-agent pipeline (signal, best response, realized
score and cost) and averages the group difference. Agreement with the
analytic module is therefore evidence, not circularity.

`estimate_disparities` streams its agents in aligned blocks of `_BLOCK`.
A block's normals come from the seed's counter stream entered at the
block's first draw, so each block is drawn on its own and all blocks
together equal one draw of shape (n, 2, d). A block runs at every noise
level and keeps only one tree sum per level and metric of its score and
utility differences. An estimate takes two passes: the first sums the
differences, the second draws every block again and sums the squared
residuals about the first pass's means. Nothing of length n is kept, so
memory depends on the block size and the worker count, not on n.

The blocks run on a thread pool with one worker per CPU this process may
run on. A block's total is the node over its agents of the zero-padded
pairwise tree over all n, and the block totals are tree-summed in block
order, so each sum equals `tree_sum` over the whole vector bit for bit.
An estimate therefore depends only on (scenario, sigma, n, seed): not on
the worker count, the schedule, or the other noise levels of a batch.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .agents import (
    Metric,
    Signal,
    bayesian_best_response,
    bayesian_posterior,
    naive_best_response,
    normal_stream,
    realized_quantities,
    standard_normals,
)
from .closed_form import NaivePrior
from .errors import Error, NegativeSigma, WrongPriorKind, ZeroStderrMismatch

_STREAM_KEY = 101
_MIN_SAMPLES = 1000
_BLOCK = 2**15  # agents per block; a power of two, so blocks align with the sum tree
_ROUND = 64  # blocks per pool.map call, bounding the pending futures for any n


@dataclass(frozen=True)
class McEstimate:
    """One Monte Carlo estimate with its standard error and provenance."""

    mean: float
    stderr: float
    n: int
    seed: int
    metric: Metric
    sigma: float


@dataclass(frozen=True)
class McComparison:
    analytic: float
    estimate: McEstimate
    z: float
    passed: bool


def tree_sum(values):
    """Sum by a fixed-shape pairwise tree, zero-padded to a power of two.

    The reduction order depends only on the input length, so totals are
    bit-identical however the surrounding work is scheduled.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise Error(f"tree_sum expects a vector, got shape {v.shape}")
    if v.size == 0:
        return 0.0
    size = 1
    while size < v.size:
        size *= 2
    buf = np.zeros(size)
    buf[: v.size] = v
    while buf.size > 1:
        pairs = buf.reshape(-1, 2)
        buf = pairs[:, 0] + pairs[:, 1]
    return float(buf[0])


def _node_sum(terms, n):
    """The node over one block's terms of the pairwise tree over all n.

    With n at most one block that node is the root, `tree_sum` of the
    terms. Otherwise it spans exactly `_BLOCK` terms, so a short last
    block is zero-padded; the padding turns a -0.0 total into +0.0 just
    as it does in the whole tree.
    """
    if terms.size < _BLOCK < n:
        terms = np.concatenate((terms, np.zeros(_BLOCK - terms.size)))
    return tree_sum(terms)


def _check_inputs(sigmas, n):
    sigmas = [float(s) for s in sigmas]
    for sigma in sigmas:
        if sigma < 0.0:
            raise NegativeSigma(f"sigma must be nonnegative, got {sigma}")
    n = int(n)
    if n < _MIN_SAMPLES:
        raise Error(f"need at least {_MIN_SAMPLES} samples, got {n}")
    return sigmas, n


def _realized(sc, group_id, sigma, columns):
    """Realized quantities of one group's agents at noise level sigma.

    Agent i of group g sees the signal rule + sigma * columns[g - 1][:, i].
    With ``columns`` None, one noiseless agent stands for the whole group.
    """
    group = sc.group_params(group_id)
    values = sc.rule if columns is None else sc.rule + sigma * columns[group_id - 1].T
    signal = Signal(values, sigma)
    if isinstance(sc.prior, NaivePrior):
        dx = naive_best_response(group, signal)
    else:
        dx = bayesian_best_response(group, bayesian_posterior(group, sc.prior.scale, signal))
    return realized_quantities(group, sc.rule, dx)


def _group_differences(sc, sigma, columns):
    """Score-gain and utility-gain differences, group 1 minus group 2."""
    r1 = _realized(sc, 1, sigma, columns)
    r2 = _realized(sc, 2, sigma, columns)
    return r1.score_gain - r2.score_gain, r1.utility_gain - r2.utility_gain


def _worker_count():
    """Pool size: one worker per CPU this process may run on."""
    return len(os.sched_getaffinity(0))


def _block_columns(dim, seed, lo, hi):
    """Normals of agents lo..hi-1 as a contiguous (group, coordinate, agent) stack.

    Agent i sees draws 2di to 2d(i+1)-1 of the seed's stream, in the
    (sample, group, coordinate) order of one draw of shape (n, 2, d).
    Blocks start at even agents, hence at a multiple of 4 draws, where
    the counter stream is entered directly.
    """
    stream = normal_stream(seed, (_STREAM_KEY,), start=2 * dim * lo)
    return np.ascontiguousarray(standard_normals(stream, (hi - lo, 2, dim)).transpose(1, 2, 0))


def _block_totals(sc, sigmas, n, seed, lo, term):
    """One block's sums of term(level, metric, differences), shape (levels, 2)."""
    columns = _block_columns(sc.dim, seed, lo, min(lo + _BLOCK, n))
    totals = np.empty((len(sigmas), 2))
    for i, sigma in enumerate(sigmas):
        for j, diffs in enumerate(_group_differences(sc, sigma, columns)):
            totals[i, j] = _node_sum(term(i, j, diffs), n)
    return totals


def _pooled_tree_sum(n, block_sums):
    """Tree sums over n terms from ``block_sums(lo)``, the node sums of one block.

    ``block_sums`` gets the first index of each aligned block and returns
    the `_node_sum` of that block's terms, one array entry per sum. The
    pool runs the blocks of a round in any order, and `map` hands their
    totals back in block order to be tree-summed, so each sum equals the
    whole-vector `tree_sum` bit for bit.
    """
    starts = range(0, n, _BLOCK)
    totals = []
    with ThreadPoolExecutor(min(_worker_count(), len(starts))) as pool:
        for first in range(0, len(starts), _ROUND):
            totals.extend(pool.map(block_sums, starts[first : first + _ROUND]))
    return np.apply_along_axis(tree_sum, 0, np.stack(totals))


def _moments(sc, sigmas, n, seed):
    """Means and sample variances of the group differences, shape (levels, 2) each.

    Metrics are in (score, utility) order. Each moment is one streamed pass.
    """

    def streamed(term):
        return _pooled_tree_sum(n, lambda lo: _block_totals(sc, sigmas, n, seed, lo, term))

    means = streamed(lambda i, j, diffs: diffs) / n

    def squared_residuals(i, j, diffs):
        resid = diffs - means[i, j]
        return resid * resid

    return means, streamed(squared_residuals) / (n - 1)


def estimate_disparities(sc, sigmas, n, seed):
    """Estimate both group disparities at each noise level from one seed.

    Returns one {Metric: McEstimate} mapping per entry of ``sigmas``, in
    order. Both groups see independent noise, and all noise levels share
    the same random numbers. At sigma = 0 the pipeline is deterministic
    and a single evaluation with zero standard error is returned.
    """
    sigmas, n = _check_inputs(sigmas, n)
    seed = int(seed)
    noisy = [sigma for sigma in sigmas if sigma > 0.0]
    moments = zip(*_moments(sc, noisy, n, seed)) if noisy else iter(())
    out = []
    for sigma in sigmas:
        if sigma == 0.0:
            pairs = [(float(d), 0.0) for d in _group_differences(sc, sigma, None)]
        else:
            means, variances = next(moments)
            pairs = [(float(m), math.sqrt(v) / math.sqrt(n)) for m, v in zip(means, variances)]
        out.append({
            metric: McEstimate(mean, stderr, n, seed, metric, sigma)
            for metric, (mean, stderr) in zip((Metric.SCORE, Metric.UTILITY), pairs)
        })
    return out


def estimate_disparity(sc, metric, sigma, n, seed):
    """Estimate one group disparity from n independent signal draws.

    The same estimate `estimate_disparities` returns for this noise level.
    """
    metric = Metric(metric)
    return estimate_disparities(sc, [sigma], n, seed)[0][metric]


def estimate_variance_naive(sc, sigma, n, seed):
    """Estimate the variance of the naive score-gain difference.

    The differences are the ones `estimate_disparities` averages. The
    standard error uses the chi-square approximation for a sample
    variance, s^2 * sqrt(2 / (n - 1)).
    """
    if not isinstance(sc.prior, NaivePrior):
        raise WrongPriorKind(
            f"variance estimate is for the naive prior, scenario has "
            f"{type(sc.prior).__name__}"
        )
    (sigma,), n = _check_inputs([sigma], n)
    if sigma == 0.0:
        return McEstimate(0.0, 0.0, n, int(seed), Metric.SCORE, sigma)
    _, variances = _moments(sc, [sigma], n, seed)
    var = float(variances[0, 0])
    return McEstimate(var, var * math.sqrt(2.0 / (n - 1)), n, int(seed), Metric.SCORE, sigma)


def compare(analytic, estimate, z_max=4.0):
    """Compare an analytic value against a Monte Carlo estimate.

    With a positive standard error the discrepancy is scored in standard
    errors. A zero standard error means the estimate is exact, and the
    two values must agree to 1e-12 absolutely; a larger gap is an error,
    not a statistical fluke. A standard error whose z_max multiple is below
    the double spacing at the larger magnitude counts as zero: a z-score
    cannot resolve values closer than one spacing, so the exact rule decides.
    """
    analytic = float(analytic)
    resolution = math.ulp(max(abs(analytic), abs(estimate.mean)))
    if estimate.stderr == 0.0 or z_max * estimate.stderr < resolution:
        if abs(analytic - estimate.mean) <= 1e-12:
            return McComparison(analytic, estimate, 0.0, True)
        raise ZeroStderrMismatch(
            f"exact estimate {estimate.mean!r} differs from analytic "
            f"{analytic!r} by {abs(analytic - estimate.mean):.3e}"
        )
    z = (estimate.mean - analytic) / estimate.stderr
    return McComparison(analytic, estimate, z, abs(z) <= z_max)
