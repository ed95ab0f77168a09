"""Monte Carlo estimates of the disparities, built only from agent behavior.

The estimators here deliberately never call the closed-form evaluators:
each draw runs the per-agent pipeline (signal, best response, realized
score and cost) and averages the group difference. Agreement with the
analytic module is therefore evidence, not circularity.

`estimate_disparities` draws the (sample, group, coordinate) normals of a
seed once and reuses them at every noise level. They stay resident as one
(group, coordinate, agent) column stack, 16 d bytes per agent. Everything
after the draw runs on aligned blocks of `_BLOCK` agents: each noise level
pushes one block at a time through the respond-and-realize pipeline and
writes the score and utility differences into two length-n vectors, a
further 16 bytes per agent, which are reduced block by block. The counter
stream makes a block-by-block draw equal one big draw, and zero padding
adds exactly 0, so the blocked tree sums equal `tree_sum` over the whole
vector. The work is single-threaded and every reduction has a fixed shape,
so an estimate depends only on (scenario, sigma, n, seed): a batched
estimate is bit-identical to a one-level `estimate_disparity` call.
"""

import math
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
_BLOCK = 2**16  # agents per block; a power of two, so blocks align with the sum tree


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


def _blocked_tree_sum(values, term):
    """tree_sum(term(values)), with term applied to one aligned block at a time.

    A vector of at most one block is summed whole. A longer one is cut at
    multiples of `_BLOCK`, each block's terms are zero-padded to `_BLOCK`
    and tree-summed, and the block totals are tree-summed in turn. These
    are the partial sums of the whole-vector tree, so the total is
    bit-identical to it, and term's output never exceeds one block.
    """
    if values.size <= _BLOCK:
        return tree_sum(term(values))
    totals = []
    for lo in range(0, values.size, _BLOCK):
        block = term(values[lo : lo + _BLOCK])
        if block.size < _BLOCK:
            block = np.concatenate((block, np.zeros(_BLOCK - block.size)))
        totals.append(tree_sum(block))
    return tree_sum(totals)


def _mean_and_variance(diffs, n):
    mean = _blocked_tree_sum(diffs, lambda block: block) / n

    def squared_residuals(block):
        resid = block - mean
        return resid * resid

    return mean, _blocked_tree_sum(diffs, squared_residuals) / (n - 1)


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


def _draw_columns(dim, n, seed):
    """The seed's normals as a contiguous (group, coordinate, agent) stack.

    The (sample, group, coordinate) order of one draw of shape (n, 2, d)
    fixes which normals each agent sees. The counter stream yields the same
    numbers block by block, so each block is drawn and transposed straight
    into its columns and no full-length copy is built.
    """
    columns = np.empty((2, dim, n))
    stream = normal_stream(seed, (_STREAM_KEY,))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        columns[:, :, lo:hi] = standard_normals(stream, (hi - lo, 2, dim)).transpose(1, 2, 0)
    return columns


def _disparity_samples(sc, sigmas, n, seed):
    """Yield the (score, utility) group differences at each noise level.

    Every positive level reuses one draw and runs the agents one aligned
    block at a time, writing into two length-n vectors. The same two
    vectors are yielded at every level and overwritten by the next, so a
    consumer reduces them before it advances. Zero noise runs the
    deterministic single-agent path and yields scalars.
    """
    columns = None
    for sigma in sigmas:
        if sigma == 0.0:
            yield _group_differences(sc, sigma, None)
            continue
        if columns is None:
            columns = _draw_columns(sc.dim, n, seed)
            score, utility = np.empty(n), np.empty(n)
        for lo in range(0, n, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            score[block], utility[block] = _group_differences(sc, sigma, columns[:, :, block])
        yield score, utility


def estimate_disparities(sc, sigmas, n, seed):
    """Estimate both group disparities at each noise level from one draw.

    Returns one {Metric: McEstimate} mapping per entry of ``sigmas``, in
    order. Both groups see independent noise, and all noise levels share
    the same random numbers. At sigma = 0 the pipeline is deterministic
    and a single evaluation with zero standard error is returned.
    """
    sigmas, n = _check_inputs(sigmas, n)
    seed = int(seed)
    out = []
    for sigma, diffs in zip(sigmas, _disparity_samples(sc, sigmas, n, seed)):
        by_metric = {}
        for metric, d in zip((Metric.SCORE, Metric.UTILITY), diffs):
            if sigma == 0.0:
                mean, stderr = float(d), 0.0
            else:
                mean, var = _mean_and_variance(d, n)
                stderr = math.sqrt(var) / math.sqrt(n)
            by_metric[metric] = McEstimate(mean, stderr, n, seed, metric, sigma)
        out.append(by_metric)
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
    score_diffs, _ = next(_disparity_samples(sc, [sigma], n, seed))
    _, var = _mean_and_variance(score_diffs, n)
    return McEstimate(var, var * math.sqrt(2.0 / (n - 1)), n, int(seed), Metric.SCORE, sigma)


def compare(analytic, estimate, z_max=4.0):
    """Compare an analytic value against a Monte Carlo estimate.

    With a positive standard error the discrepancy is scored in standard
    errors. A zero standard error means the estimate is exact, and the
    two values must agree to 1e-12 absolutely; a larger gap is an error,
    not a statistical fluke.
    """
    analytic = float(analytic)
    if estimate.stderr == 0.0:
        if abs(analytic - estimate.mean) <= 1e-12:
            return McComparison(analytic, estimate, 0.0, True)
        raise ZeroStderrMismatch(
            f"exact estimate {estimate.mean!r} differs from analytic "
            f"{analytic!r} by {abs(analytic - estimate.mean):.3e}"
        )
    z = (estimate.mean - analytic) / estimate.stderr
    return McComparison(analytic, estimate, z, abs(z) <= z_max)
