"""Monte Carlo estimates of the disparities, built only from agent behavior.

The estimators here never call the closed-form evaluators: they simulate
agents (signal, posterior, best response, realized score and cost) and
average the group difference, so agreement with the analytic module is
evidence, not circularity.

Each agent's gains are affine in its own noise. An agent with cost A,
prior mean mu and rule r, at noise level sigma with signal weight w (1 if
naive), believes mb + w sigma e, with mb = mu + w (r - mu), and responds
xb + w sigma y, with xb = A^-1 mb and y = A^-1 e. Since A xb = mb, its
score gain is r'xb + w sigma a and its utility gain is
U(xb) + w sigma (1 - w) b - (w sigma)^2 c / 2, where a = r'y,
b = (r - mu)'y and c = e'y do not depend on the level. So a level's group
differences are its centre, the noise-free agents' difference, plus an
affine map k of each agent's group differences D = (D_a, D_b, D_c): their
mean is the centre plus k times the pooled means of D, and their sample
variance is k'Sk / (n - 1), with S the pooled scatter of D. Scaling k by
a power of two first is exact in the normal range (Higham, 2002, 2.1),
so k'Sk overflows only where the standard error does. The drawn agents
are reduced once, whatever the number of levels. A level's centre runs
through `flab.agents` as one agent per group whose signal is the rule
itself, and at sigma = 0 it is the estimate. So the centre is computed,
not sampled: at sigma > 0 the simulation tests the deviations from it,
and the sigma = 0 rows test the centre.

`estimate_disparities` streams its agents in aligned blocks of `_BLOCK`,
drawn in order from the seed's stream into one reused (2, d, `_BLOCK`)
buffer, so all blocks together equal one draw of shape (n, 2, d). An
agent's y and D are elementwise sums over the coordinates in a fixed
order, never BLAS, so they depend neither on the agent's place in a block
nor on the number of BLAS threads. A block keeps 10 numbers, 80 B: the
`tree_sum` of each row of D, their residual sums about the block's means,
and the residual products aa, bb, cc and bc. The working set is one
block's noise and rows, in buffers made once per estimate (a tracemalloc
peak of about 0.6 MiB at d = 2). Everything runs on the calling thread.
A block's sum is the node over its agents of the zero-padded pairwise
tree over all n, and the block sums are tree-summed in block order, so
each pooled mean equals `tree_sum` over all n bit for bit. An estimate
depends only on (scenario, sigma, n, seed), not on the other levels.

`estimate_disparities` returns a noise grid's means and standard errors as
two (levels, 2) arrays; its one overflow check, at the end, refuses the
first level where either is not finite. `compare` judges such arrays
against the analytic values elementwise, into z-scores and verdicts.
"""

import math

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
MAX_SAMPLES = 2**32  # the most; at 80 B per block, its tallies take 80 MiB
_BLOCK = 2**12  # agents per block; a power of two, so blocks align with the sum tree
# the residual products a block keeps, as pairs of its difference rows (a, b, c): aa, bb, cc, bc
_LEFT, _RIGHT = [0, 1, 2, 1], [0, 1, 2, 2]
Z_MAX = 4.0  # the default gate of `compare`, in standard errors
_BELOW_MAX = np.nextafter(np.finfo(float).max, 0.0)  # the largest double's neighbour below


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
    sigmas = noise_scales(sigmas)
    n = int(n)
    if n < MIN_SAMPLES:
        raise Error(f"need at least {MIN_SAMPLES} samples, got {n}")
    if n > MAX_SAMPLES:
        raise Error(f"need at most {MAX_SAMPLES} samples, got {n}")
    return sigmas, n


def _weights(sc, sigmas):
    """The posterior weight w on the signal at each noise level."""
    if isinstance(sc.prior, NaivePrior):
        return np.ones(sigmas.size)  # a naive agent trusts its signal outright
    return signal_weight(sc.prior.scale, sigmas)


def _centres(sc, sigmas):
    """Score and utility differences, (levels, 2), of agents who see the rule itself as their signal.

    Each distinct weight runs one agent per group through `flab.agents`,
    and group 2's gains are subtracted from group 1's. At sigma = 0 this
    is the estimate.
    """
    weights, levels = np.unique(_weights(sc, sigmas), return_inverse=True)
    out = np.empty((weights.size, 2))
    for row, weight in zip(out, weights.tolist()):
        for g, (cost, mean) in enumerate(zip((sc.cost1, sc.cost2), sc.prior_means)):
            dx = bayesian_best_response(cost, bayesian_posterior(mean, weight, sc.rule[:, None]))
            realized = realized_quantities(cost, sc.rule, dx)
            gain = (realized.score_gain[0], realized.utility_gain[0])
            row[:] = gain if g == 0 else row - gain
    return out[levels]


def _noise_terms(inverse, rule, mean, noise, out, work):
    """Write a = r'y, b = (r - mu)'y and c = e'y of each noise column e, with y = A^-1 e, as the rows of ``out``.

    y is the inverse.T @ noise that `flab.agents` forms, but it and the
    contractions are elementwise sums over the coordinates, in order, never
    BLAS. ``work`` is two (d, m) buffers.
    """
    y, scratch = work
    np.multiply(inverse[0][:, None], noise[0], out=y)
    for j in range(1, noise.shape[0]):
        np.multiply(inverse[j][:, None], noise[j], out=scratch)
        y += scratch
    for row, factor in zip(out, (rule[:, None], (rule - mean)[:, None], noise)):
        np.multiply(y, factor, out=scratch)
        row[...] = scratch[0]
        for part in scratch[1:]:
            row += part


def _block_columns(stream, size, dim, out=None):
    """The stream's next ``size`` agents as a (group, coordinate, agent) stack, written into ``out``.

    Agents take their 2d normals in the (sample, group, coordinate) order
    of one draw of shape (n, 2, d), so blocks drawn in order from one
    stream equal that draw bit for bit. The normals are computed in place
    in ``out``, through its transpose, or in a new contiguous stack.
    """
    if out is None:
        out = np.empty((2, dim, size))
    standard_normals(stream, (size, 2, dim), out=out.transpose(2, 0, 1))
    return out


def _reduce_block(sc, noise, padded, out, work):
    """Write one block's 10 tallies into ``out``, from its (2, d, m) ``noise``.

    The tallies are the node sums of the difference rows (D_a, D_b, D_c),
    the sums of their residuals about the block's own means, and the
    residual products aa, bb, cc and bc. ``work`` holds the flat buffers
    that `_moments` makes once: two for difference rows and one for the
    response terms, which the residual products then reuse.
    """
    size = noise.shape[-1]
    # past one block, a short last block's node spans _BLOCK zero-padded terms, as in
    # the tree over all n; the padding turns a -0.0 total into +0.0 there too
    width = _BLOCK if padded else size
    first, second, flat = work
    diffs = first[: 3 * width].reshape(3, width)
    diffs[:, size:] = 0.0
    rows = (diffs[:, :size], second[: 3 * size].reshape(3, size))
    terms = flat[: 2 * sc.dim * size].reshape(2, sc.dim, size)
    for g, (cost, mean) in enumerate(zip((sc.cost1, sc.cost2), sc.prior_means)):
        _noise_terms(cost.inverse, sc.rule, mean, noise[g], rows[g], terms)
    resid = rows[0]  # group 2's terms come off group 1's, then the residuals overwrite them
    resid -= rows[1]
    out[:3] = tree_sum(diffs)
    resid -= out[:3, None] / size
    out[3:6] = tree_sum(resid)
    products = flat[: 4 * size].reshape(4, size)
    np.multiply(resid, resid, out=products[:3])
    np.multiply(resid[1], resid[2], out=products[3])
    out[6:] = tree_sum(products)


def _moments(sc, n, seed):
    """Pooled means (a, b, c) and scatter (aa, bb, cc, bc) of the difference rows.

    One pass draws the aligned blocks in order. Per row, block b of m_b
    agents keeps its node sum s_b and, about its own mean s_b / m_b, its
    residual sum r_b and residual products q_b. A mean is the tree sum of
    the s_b over n. With e_b = s_b / m_b - mean, the scatter of rows k and l
    is the tree sum over blocks of q_b + e_bk (r_bl + m_b e_bl) + e_bl r_bk
    (Chan, Golub and LeVeque, Am. Stat. 37, 1983); keeping r_b, zero but for
    the rounding of s_b, makes it exact.
    """
    stream = normal_stream(seed, (_STREAM_KEY,))
    sizes = np.minimum(_BLOCK, n - np.arange(0, n, _BLOCK))
    tallies = np.empty((sizes.size, 10))
    # every buffer the blocks use is made here once and refilled, so the block loop's
    # heap neither grows nor shrinks and no block faults in fresh pages
    width = int(sizes[0])
    noise = np.empty((2, sc.dim, width))
    work = (np.empty(3 * width), np.empty(3 * width), np.empty(max(2 * sc.dim, 4) * width))
    for tally, size in zip(tallies, sizes.tolist()):
        block = _block_columns(stream, size, sc.dim, noise[:, :, :size])
        _reduce_block(sc, block, size < _BLOCK < n, tally, work)
    sums, drifts, products = tallies[:, :3].T, tallies[:, 3:6].T, tallies[:, 6:].T
    means = tree_sum(sums) / n
    shift = sums / sizes - means[:, None]
    spread = products + shift[_LEFT] * (drifts[_RIGHT] + sizes * shift[_RIGHT]) + shift[_RIGHT] * drifts[_LEFT]
    return means, tree_sum(spread)


def _deviations(sc, sigmas, n, seed):
    """Means, sample variances over 4^e, and exponents e of the agents' deviations from each level's centre.

    Means and variances are (levels, 2). Each level's k is scaled by 2^-e,
    e the exponent of its largest entry, before k'Sk is formed.
    """
    means, (aa, bb, cc, bc) = _moments(sc, n, seed)
    # at each level the agents deviate by ka D_a in score and by kb D_b + kc D_c in utility
    ka = _weights(sc, sigmas) * sigmas  # w sigma
    if isinstance(sc.prior, NaivePrior):
        kb = np.zeros_like(ka)  # 1 - w is 0
    else:  # where sigma^2 overflows, w is 0 and 1 - w is 1
        s2 = sigmas * sigmas
        kb = ka * np.where(np.isinf(s2), 1.0, s2 / (sc.prior.scale * sc.prior.scale + s2))
    kc = -0.5 * ka * ka
    shifts = np.stack((ka * means[0], kb * means[1] + kc * means[2]), axis=1)
    _, exponents = np.frexp(np.abs([ka, kb, kc]).max(axis=0))
    ka, kb, kc = (np.ldexp(k, -exponents) for k in (ka, kb, kc))
    variances = np.stack((ka * ka * aa, kb * kb * bb + 2.0 * kb * kc * bc + kc * kc * cc), axis=1)
    return shifts, variances / (n - 1), exponents


def estimate_disparities(sc, sigmas, n, seed):
    """Estimate both group disparities at each noise level from one seed.

    Returns ``(means, stderrs)``, float arrays of shape (levels, 2) whose
    rows follow ``sigmas`` and whose columns follow ``tuple(Metric)``
    (score, utility). Both groups see independent noise, and all noise
    levels share the same random numbers. At sigma = 0 every agent is the
    noise-free one, so the centre is the mean, with zero standard error.
    The first level whose mean or standard error is not finite raises Error.
    """
    levels, n = _check_inputs(sigmas, n)
    noisy = levels != 0.0
    stderrs = np.zeros((levels.size, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        means = _centres(sc, levels)
        if noisy.any():
            shifts, variances, exponents = _deviations(sc, levels[noisy], n, int(seed))
            means[noisy] += shifts
            stderrs[noisy] = np.ldexp(np.sqrt(variances) / math.sqrt(n), exponents[:, None])
    bad = np.flatnonzero(~(np.isfinite(means) & np.isfinite(stderrs)).all(axis=1))
    if bad.size:
        raise Error(f"estimate at sigma={levels[bad[0]]:g} is out of floating-point range")
    return means, stderrs


# kept only because perfbench/tracer.py wraps it by name (ROADMAP item 8)
def estimate_disparity(sc, metric, sigma, n, seed):
    """The (mean, stderr) of one group disparity, as `estimate_disparities` gives it."""
    column = tuple(Metric).index(Metric(metric))
    means, stderrs = estimate_disparities(sc, [sigma], n, seed)
    return float(means[0, column]), float(stderrs[0, column])


# kept only because perfbench/tracer.py wraps it by name (ROADMAP item 8)
def estimate_variance_naive(sc, sigma, n, seed):
    """Estimate the variance of the naive score-gain difference, as a (variance, stderr) pair.

    The differences are the ones `estimate_disparities` averages. The
    standard error uses the chi-square approximation for a sample
    variance, s^2 * sqrt(2 / (n - 1)).
    """
    if not isinstance(sc.prior, NaivePrior):
        raise WrongPriorKind(
            f"variance estimate is for the naive prior, scenario has "
            f"{type(sc.prior).__name__}"
        )
    levels, n = _check_inputs([sigma], n)
    if levels[0] == 0.0:
        return 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        _, variances, exponents = _deviations(sc, levels, n, seed)
        var = float(np.ldexp(variances[0, 0], 2 * exponents[0]))
    if not math.isfinite(var):
        raise Error(f"estimate at sigma={levels[0]:g} is out of floating-point range")
    return var, var * math.sqrt(2.0 / (n - 1))


def compare(analytic, means, stderrs, z_max=Z_MAX):
    """Judge analytic values against Monte Carlo estimates, elementwise; returns arrays (z, passed, exact).

    Exact mode decides where the standard error is zero, or where z_max of
    them span less than the double spacing (`math.ulp`) at the larger
    magnitude, which a z-score cannot resolve: there ``z`` is 0 and
    ``passed`` says the two values agree to 1e-12 absolutely. Elsewhere
    ``z`` is the estimate's discrepancy in standard errors and ``passed``
    says |z| <= z_max. A mismatch is a failed entry, never an error.
    """
    analytic, means, stderrs = (np.asarray(a, dtype=float) for a in (analytic, means, stderrs))
    scale, other = np.abs(analytic), np.abs(means)
    scale = np.where(other > scale, other, scale)  # Python's max: a nan analytic wins, a nan mean loses
    # as with Python floats, inf - inf gives nan and an overflow inf; no z divided by a zero stderr is read
    with np.errstate(all="ignore"):
        # math.ulp reads the largest double's spacing below it, the same as its neighbour's
        resolution = np.where(np.isinf(scale), np.inf, np.spacing(np.minimum(scale, _BELOW_MAX)))
        exact = (stderrs == 0.0) | (z_max * stderrs < resolution)
        gap = means - analytic
        z = np.where(exact, 0.0, gap / stderrs)
        passed = np.where(exact, np.abs(gap) <= 1e-12, np.abs(z) <= z_max)
    return z, passed, exact
