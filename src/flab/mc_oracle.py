"""Monte Carlo estimates of the disparities, built only from agent behavior.

The estimators here deliberately never call the closed-form evaluators:
each draw runs the per-agent pipeline (signal, best response, realized
score and cost) and averages the group difference. Agreement with the
analytic module is therefore evidence, not circularity.

`estimate_disparities` streams its agents in aligned blocks of `_BLOCK`,
drawn in order from the seed's stream, so all blocks together equal one
draw of shape (n, 2, d). A block is a (2, d, m) stack of noise columns,
one agent per column, and each noise level runs each group's (d, m)
signal columns through `flab.agents`; at sigma = 0 every agent sees the
rule itself, so one column per group stands for all of them. A block
keeps, per level and metric, three numbers: the tree sum of its score or
utility differences, and the sum and the sum of squares of their
residuals about the block's own mean. Means and variances are combined from these in one
pass. Nothing of length n is kept: the working set is one block's stacks,
plus tallies of 48 B per block and noise level (about 3 kB per level at
n = 1e6). Everything runs on the calling thread.

`tree_sum` is the one reduction. It sums along the last axis, so a block
reduces the (score, utility) row stack of one level in one call, and the
block totals are summed as rows over the block axis. A block's sum is the
node over its agents of the zero-padded pairwise tree over all n, and the
block sums are tree-summed in block order, so each mean equals `tree_sum`
over the whole vector bit for bit. An estimate depends only on
(scenario, sigma, n, seed), not on the other noise levels of a batch.
"""

import math
from dataclasses import dataclass

import numpy as np

from .agents import (
    Metric,
    bayesian_best_response,
    bayesian_posterior,
    noise_scales,
    normal_stream,
    realized_quantities,
    signal_weight,
    standard_normals,
)
from .closed_form import NaivePrior
from .errors import Error, WrongPriorKind

_STREAM_KEY = 101
MIN_SAMPLES = 1000  # the fewest agents an estimate accepts
MAX_SAMPLES = 2**32  # the most; at 48 B per block and noise level, its tallies take 12 MiB a level
_BLOCK = 2**14  # agents per block; a power of two, so blocks align with the sum tree
Z_MAX = 4.0  # the default gate of `compare`, in standard errors


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
    """An analytic value against a Monte Carlo estimate, and the verdict.

    In exact mode (``exact`` True) ``z`` is 0 and ``passed`` says the two
    values agree to 1e-12 absolutely. Otherwise ``z`` is the estimate's
    discrepancy in standard errors and ``passed`` says |z| <= z_max.
    """

    analytic: float
    estimate: McEstimate
    z: float
    passed: bool
    exact: bool


def tree_sum(values):
    """Sum along the last axis by a fixed-shape pairwise tree, zero-padded to a power of two.

    A vector gives one float. A stack of rows gives one total per row, each
    equal bit for bit to the `tree_sum` of that row alone. The reduction
    order depends only on the row length, so totals are bit-identical
    however the surrounding work is scheduled.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 0:
        raise Error("tree_sum expects a vector or a stack of rows, got a scalar")
    length = v.shape[-1]
    size = 1 << (length - 1).bit_length()  # an empty row pads to two zeros
    buf = v
    if size != length:
        buf = np.zeros(v.shape[:-1] + (size,))
        buf[..., :length] = v
    while buf.shape[-1] > 1:
        buf = buf[..., 0::2] + buf[..., 1::2]
    return float(buf[0]) if v.ndim == 1 else buf[..., 0]


def _check_inputs(sigmas, n):
    sigmas = noise_scales(sigmas).tolist()
    n = int(n)
    if n < MIN_SAMPLES:
        raise Error(f"need at least {MIN_SAMPLES} samples, got {n}")
    if n > MAX_SAMPLES:
        raise Error(f"need at most {MAX_SAMPLES} samples, got {n}")
    return sigmas, n


def _differences(sc, sigma, noise):
    """Score-gain and utility-gain differences, group 1 minus group 2, stacked as two rows.

    Agent i of group g sees the signal rule + sigma * noise[g - 1, :, i],
    and its posterior mean is written over that signal.
    At sigma = 0 every agent sees the rule itself, so one column stands
    for each group and ``noise`` is not read.
    """
    rule = sc.rule[:, None]
    if sigma == 0.0:
        signals = np.stack((rule, rule))
    else:
        with np.errstate(over="ignore"):  # an overflowing signal is reported below
            signals = sigma * noise
            signals += rule
    if not np.isfinite(signals).all():
        raise Error("signal has non-finite entries")
    # a naive agent trusts its signal outright: all its posterior weight is on the signal
    weight = 1.0 if isinstance(sc.prior, NaivePrior) else signal_weight(sc.prior.scale, sigma)
    gains = []
    for cost, mean, beliefs in zip((sc.cost1, sc.cost2), sc.prior_means, signals):
        posterior = bayesian_posterior(mean, weight, beliefs)
        # no name holds the responses, so they are freed once their realized values are taken
        gains.append(realized_quantities(cost, sc.rule, bayesian_best_response(cost, posterior)))
    first, second = gains
    return np.stack((first.score_gain - second.score_gain, first.utility_gain - second.utility_gain))


def _block_columns(stream, size, dim):
    """The stream's next ``size`` agents as a contiguous (group, coordinate, agent) stack.

    Agents take their 2d normals in the (sample, group, coordinate) order
    of one draw of shape (n, 2, d), so blocks drawn in order from one
    stream equal that draw bit for bit.
    """
    return np.ascontiguousarray(standard_normals(stream, (size, 2, dim)).transpose(1, 2, 0))


def _moments(sc, sigmas, n, seed):
    """Means and sample variances of the group differences, shape (levels, 2) each.

    Metrics are in (score, utility) order. One pass draws the aligned
    blocks in order. Per level and metric, block b of m_b agents keeps its
    node sum s_b and, about its own mean c_b = s_b / m_b, the sum r_b and
    the sum of squares q_b of its residuals. The mean is the tree sum of
    the s_b over n. The variance is the tree sum over blocks of
    q_b + (c_b - mean) (2 r_b + m_b (c_b - mean)), over n - 1 (Chan, Golub
    and LeVeque, Am. Stat. 37, 1983). r_b is zero but for the rounding of
    s_b; keeping it makes the combination exact, so the result agrees with
    a two-pass sum of squares about the mean to rounding.
    """
    stream = normal_stream(seed, (_STREAM_KEY,))
    sizes = np.minimum(_BLOCK, n - np.arange(0, n, _BLOCK))
    sums = np.empty((sizes.size, len(sigmas), 2))
    drifts = np.empty_like(sums)
    squares = np.empty_like(sums)
    for b, size in enumerate(sizes):
        noise = _block_columns(stream, int(size), sc.dim)
        for i, sigma in enumerate(sigmas):
            resid = _differences(sc, sigma, noise)  # residuals once the sums are taken
            # past one block, a short last block's node spans _BLOCK zero-padded terms, as
            # in the tree over all n; the padding turns a -0.0 total into +0.0 there too
            node = np.pad(resid, ((0, 0), (0, _BLOCK - size))) if size < _BLOCK < n else resid
            sums[b, i] = tree_sum(node)
            resid -= sums[b, i, :, None] / size  # in place, so a level holds one (2, size) stack
            drifts[b, i] = tree_sum(resid)
            resid *= resid
            squares[b, i] = tree_sum(resid)
    means = tree_sum(np.moveaxis(sums, 0, -1)) / n
    m = sizes[:, None, None]
    shift = sums / m - means
    spread = squares + shift * (2.0 * drifts + m * shift)
    return means, tree_sum(np.moveaxis(spread, 0, -1)) / (n - 1)


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
            pairs = [(d, 0.0) for d in _differences(sc, sigma, None)[:, 0].tolist()]
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


def compare(analytic, estimate, z_max=Z_MAX):
    """Compare an analytic value against a Monte Carlo estimate; a mismatch is a failed result.

    Exact mode decides when the standard error is zero, or when z_max of
    them span less than the double spacing at the larger magnitude, which
    a z-score cannot resolve.
    """
    analytic = float(analytic)
    resolution = math.ulp(max(abs(analytic), abs(estimate.mean)))
    if estimate.stderr == 0.0 or z_max * estimate.stderr < resolution:
        return McComparison(analytic, estimate, 0.0, abs(analytic - estimate.mean) <= 1e-12, True)
    z = (estimate.mean - analytic) / estimate.stderr
    return McComparison(analytic, estimate, z, abs(z) <= z_max, False)
