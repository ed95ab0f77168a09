"""Monte Carlo estimates of the disparities, built only from agent behavior.

The estimators here deliberately never call the closed-form evaluators:
each draw runs the per-agent pipeline (signal, best response, realized
score and cost) and averages the group difference. Agreement with the
analytic module is therefore evidence, not circularity.

`estimate_disparities` streams its agents in aligned blocks of `_BLOCK`,
drawn in order from the seed's stream, so all blocks together equal one
draw of shape (n, 2, d). A block is a (2, d, m) stack of noise columns,
one agent per column, in one buffer that each block refills in parts of
at most `_PASS` = 2^13 agents. Each noise level runs the block through
`flab.agents` in passes, one group's (d, columns) signal stack at a
time: a full block in two passes of `_PASS` agents, a shorter one in a
single pass. At sigma = 0 every agent sees the rule itself, so one column
per group stands for all of them. The passes fill (levels, 2, m) stacks
of at most `_BLOCK` columns, and each stack is reduced by three
`tree_sum` calls: per level and metric, a block keeps the tree sum of its
score or utility differences, and the sum and the sum of squares of their
residuals about the block's own mean. Neither shape moves a bit: equal
power-of-two passes round every column as a whole-block call does, and
every row of a stack sums as it would alone. Levels never share a pass,
since BLAS rounds a column at d >= 3 by where it falls in the call.
Means and variances are combined from the tallies in one pass. Nothing
of length n is kept: the working set is one block's noise, one stack and
one pass's buffers (a tracemalloc peak of 1.3 MiB at d = 2), plus
tallies of 48 B per block and noise level (about 3 kB per level at
n = 1e6). Those buffers are made once per estimate and refilled; the
normals are computed in place in the noise buffer, and a pass writes its
rows straight into the stack. The only sizeable arrays a block allocates
are a draw part's integers and `tree_sum`'s halvings, so the heap stays
put from block to block instead of giving pages back to the system and
faulting them in again. Everything runs on the calling thread.

`tree_sum` is the one reduction. It sums along the last axis, so one call
reduces a whole stack, each row bit for bit as it would alone, and the
block totals are summed as rows over the block axis. A block's sum is the
node over its agents of the zero-padded pairwise tree over all n, and the
block sums are tree-summed in block order, so each mean equals `tree_sum`
over the whole vector bit for bit. An estimate depends only on
(scenario, sigma, n, seed), not on the other noise levels of a batch.

Results are arrays: `estimate_disparities` returns the means and standard
errors of a whole noise grid as two (levels, 2) arrays, and `compare`
judges any such array against the analytic values elementwise, by one
rule, into arrays of z-scores and verdicts.
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
MAX_SAMPLES = 2**32  # the most; at 48 B per block and noise level, its tallies take 12 MiB a level
_BLOCK = 2**14  # agents per block; a power of two, so blocks align with the sum tree
_PASS = _BLOCK // 2  # agents per pass of a full block through `flab.agents`, and per part of its draw
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


def _pass_width(size):
    """Agents per pass through `flab.agents` for a block of ``size``: `_PASS` where it divides the block, else all."""
    return _PASS if size % _PASS == 0 else size


def _workspace(dim, width):
    """Flat buffers for passes of up to ``width`` agents, for `_pass_arrays`."""
    return np.empty(max(dim, 3) * width), np.empty(dim * width)


def _pass_arrays(buffers, dim, columns):
    """Signal, response and realized-row arrays of a pass of ``columns`` agents, over a `_workspace`.

    A group's signals are spent once its responses are solved, so its
    (score, cost, utility) rows reuse their buffer.
    """
    shared, solved = buffers
    return (shared[: dim * columns].reshape(dim, columns), solved[: dim * columns].reshape(dim, columns),
            shared[: 3 * columns].reshape(3, columns))


def _differences(sc, sigma, noise, out=None, work=None):
    """Score-gain and utility-gain differences, group 1 minus group 2, written as two rows into ``out``.

    Agent i of group g sees the signal rule + sigma * noise[g - 1, :, i],
    and its posterior mean is written over that signal. The groups go
    through `flab.agents` one at a time in the `_pass_arrays` ``work``,
    and group 2's rows are subtracted in place from group 1's. Without
    ``out`` or ``work`` the rows or arrays are new; the block loop passes
    both, so that a pass allocates nothing of its width.
    At sigma = 0 every agent sees the rule itself, so one column stands
    for each group and ``noise`` is not read.
    """
    columns = 1 if sigma == 0.0 else noise.shape[-1]
    if work is None:
        work = _pass_arrays(_workspace(sc.dim, columns), sc.dim, columns)
    signals, responses, gains = work
    if out is None:
        out = np.empty((2, columns))
    rule = sc.rule[:, None]
    # a naive agent trusts its signal outright: all its posterior weight is on the signal
    weight = 1.0 if isinstance(sc.prior, NaivePrior) else signal_weight(sc.prior.scale, sigma)
    for g, (cost, mean) in enumerate(zip((sc.cost1, sc.cost2), sc.prior_means)):
        if sigma == 0.0:
            signals[...] = rule
        else:
            with np.errstate(over="ignore"):  # an overflowing signal is reported below
                np.multiply(sigma, noise[g], out=signals)
                signals += rule
        if not np.isfinite(signals).all():
            raise Error("signal has non-finite entries")
        bayesian_best_response(cost, bayesian_posterior(mean, weight, signals), out=responses)
        realized = realized_quantities(cost, sc.rule, responses, out=gains)
        if g == 0:
            out[0] = realized.score_gain
            out[1] = realized.utility_gain
        else:
            out[0] -= realized.score_gain
            out[1] -= realized.utility_gain
    return out


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


def _block_tallies(sc, sigmas, noise, padded, tallies, work):
    """Write one block's sums, residual sums and residual squares, each (levels, 2), into ``tallies``.

    The levels are reduced as zero-padded (levels, 2, width) stacks of at
    most `_BLOCK` columns, by 3 `tree_sum` calls a stack. Each level fills
    its row of a stack in passes through `_differences`, of
    `_pass_width` agents: `_PASS` in every full block. Equal power-of-two
    passes never end inside BLAS's column unroll, so each column rounds
    as in a whole-block call; a narrower last pass, or levels sharing one
    call, would round some columns differently at d >= 3. ``work`` is a
    flat buffer for the stacks and a `_workspace` for the passes, both
    made once by `_moments`.
    """
    size = noise.shape[-1]
    # past one block, a short last block's node spans _BLOCK zero-padded terms, as in
    # the tree over all n; the padding turns a -0.0 total into +0.0 there too
    width = _BLOCK if padded else size
    depth = _BLOCK // width  # levels per stack
    agents = _pass_width(size)
    sums, drifts, squares = tallies
    buffer, passes = work
    passes = _pass_arrays(passes, sc.dim, agents)
    stacks = buffer[: min(depth, len(sigmas)) * 2 * width].reshape(-1, 2, width)
    stacks[:, :, size:] = 0.0  # the padding, which the levels leave as it is
    for lo in range(0, len(sigmas), depth):
        hi = min(lo + depth, len(sigmas))
        stack = stacks[: hi - lo]
        for rows, sigma in zip(stack, sigmas[lo:hi]):
            for start in range(0, size, agents):
                part = slice(start, start + agents)
                _differences(sc, sigma, noise[:, :, part], rows[:, part], passes)
        sums[lo:hi] = tree_sum(stack)
        resid = stack[:, :, :size]  # the residuals overwrite the differences
        resid -= sums[lo:hi, :, None] / size
        drifts[lo:hi] = tree_sum(resid)
        resid *= resid
        squares[lo:hi] = tree_sum(resid)


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
    # every buffer the blocks use is made here once and refilled, so the block loop's
    # heap neither grows nor shrinks and no block faults in fresh pages
    noise = np.empty((2, sc.dim, int(sizes[0])))  # one block's noise
    work = (np.empty(2 * min(len(sigmas) * n, _BLOCK)),  # its stacks
            _workspace(sc.dim, max(_pass_width(s) for s in set(sizes.tolist()))))
    for b, size in enumerate(sizes.tolist()):
        block = noise[:, :, :size]
        for lo in range(0, size, _PASS):  # in stream order, a part at a time
            _block_columns(stream, min(_PASS, size - lo), sc.dim, block[:, :, lo : lo + _PASS])
        _block_tallies(sc, sigmas, block, size < _BLOCK < n, (sums[b], drifts[b], squares[b]), work)
    means = tree_sum(np.moveaxis(sums, 0, -1)) / n
    m = sizes[:, None, None]
    shift = sums / m - means
    spread = squares + shift * (2.0 * drifts + m * shift)
    return means, tree_sum(np.moveaxis(spread, 0, -1)) / (n - 1)


def estimate_disparities(sc, sigmas, n, seed):
    """Estimate both group disparities at each noise level from one seed.

    Returns ``(means, stderrs)``, float arrays of shape (levels, 2) whose
    rows follow ``sigmas`` and whose columns follow ``tuple(Metric)``
    (score, utility). Both groups see independent noise, and all noise
    levels share the same random numbers. At sigma = 0 the pipeline is
    deterministic: one evaluation gives the mean, with zero standard error.
    """
    levels, n = _check_inputs(sigmas, n)
    noisy = levels != 0.0
    means = np.zeros((levels.size, 2))
    stderrs = np.zeros_like(means)
    if noisy.any():
        noisy_means, variances = _moments(sc, levels[noisy].tolist(), n, int(seed))
        means[noisy] = noisy_means
        stderrs[noisy] = np.sqrt(variances) / math.sqrt(n)
    if not noisy.all():
        means[~noisy] = _differences(sc, 0.0, None)[:, 0]
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
    (sigma,), n = _check_inputs([sigma], n)
    if sigma == 0.0:
        return 0.0, 0.0
    _, variances = _moments(sc, [float(sigma)], n, seed)
    var = float(variances[0, 0])
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
