"""Signal generation, posterior updates, and per-agent best responses.

Agents observe a noisy disclosure of the scoring rule and move their
features to maximize expected score gain minus a quadratic cost. A naive
agent takes the signal at face value; a Bayesian agent shrinks it toward
a prior mean first. Both responses are closed-form solves against the
group's cost matrix.

Agents are columns. Signals, posterior means and feature changes are
(d, m) arrays with one agent per column, and a single agent is a (d, 1)
column. Each stage returns a new array and leaves its arguments as they
were: the posterior is elementwise, the response is one (d, d) @ (d, m)
product, and the realized score and cost are fixed contractions down
each column. The Monte Carlo oracle runs one noise-free agent per group
and distinct signal weight through these calls.
"""

import enum
import math
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .errors import DimensionMismatch, Error, NegativeSigma

_TWO_53 = float(2**53)
_BELOW_ONE = np.nextafter(1.0, 0.0)


class Metric(enum.Enum):
    """Which realized quantity a disparity compares between groups."""

    SCORE = "score"
    UTILITY = "utility"

    def __str__(self):
        return self.value


def normal_stream(seed, key=()):
    """Independent counter-based random stream for (seed, key).

    Streams are value-typed: every call builds a fresh generator, so two
    consumers with the same (seed, key) see identical draws and never
    share mutable state.
    """
    entropy = (int(seed),) + tuple(int(k) for k in key)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def standard_normals(stream, shape, out=None):
    """Standard normal draws via inverse CDF on the counter stream, written into ``out`` if given.

    Each normal consumes exactly one 64-bit draw of the stream: a range of
    2^53 divides 2^64, so the bounded integer sampler never rejects. Each
    53-bit integer k becomes the uniform (k + 0.5) / 2^53, rounded to
    a double. Below 2^52 that is the exact midpoint; above it k + 0.5 rounds
    to an even integer, and k = 2^53 - 1 rounds up to u = 1, where the
    inverse CDF is +inf. That one value is clamped to the largest double
    below 1, so every draw is finite and a function of k alone.
    ``out`` may be any float array of ``shape``, a strided view too.
    """
    u = np.empty(shape) if out is None else out
    u[...] = stream.integers(0, 2**53, size=shape)
    u += 0.5
    u /= _TWO_53
    np.minimum(u, _BELOW_ONE, out=u)
    return ndtri(u, out=u)


def noise_scales(sigma):
    """sigma as a float array; a negative entry anywhere raises NegativeSigma."""
    s = np.asarray(sigma, dtype=float)
    negative = s[s < 0.0]
    if negative.size:
        raise NegativeSigma(f"noise scale {negative[0]} is negative")
    return s


def scalar_or_array(values):
    """A 0-d result as a float; any other shape as the array itself."""
    return float(values) if np.ndim(values) == 0 else values


def _check_scale(scale):
    """Reject a prior scale that is not finite and positive, or whose square overflows or underflows to 0."""
    if not (math.isfinite(scale) and scale > 0.0):
        raise Error(f"prior scale must be finite and positive, got {scale}")
    if not 0.0 < scale * scale < math.inf:
        raise Error(f"prior scale {scale:g} squares out of floating-point range")


def signal_weight(prior_scale, sigma):
    """Posterior weight g^2 / (g^2 + sigma^2) on the signal, for the prior scale g.

    ``sigma`` is a scalar or an array; each entry is weighted on its own.
    A scale that is not finite and positive, or whose square leaves
    floating-point range, raises Error. So g^2 is finite and positive: the
    weight is exactly 1 at zero noise, and exactly 0 where sigma^2 overflows.
    """
    s = noise_scales(sigma)
    _check_scale(prior_scale)
    g2 = prior_scale * prior_scale
    with np.errstate(over="ignore"):
        return scalar_or_array(g2 / (g2 + s * s))


class Realized(NamedTuple):
    score_gain: np.ndarray
    cost: np.ndarray
    utility_gain: np.ndarray


def naive_best_response(cost, beliefs):
    """Feature changes A^-1 m that maximize m'dx - dx'A dx/2, one per belief column m.

    A naive agent's belief is its signal. The columns go through one
    (d, d) @ (d, m) product with A^-T.
    """
    if beliefs.shape[0] != cost.dim:
        raise DimensionMismatch(f"belief columns of shape {beliefs.shape} for dimension {cost.dim}")
    return np.matmul(cost.inverse.T, beliefs)


# a Bayesian agent responds to its posterior mean as a naive one to its signal (perfbench wraps both)
bayesian_best_response = naive_best_response


def bayesian_posterior(prior_mean, weight, signals):
    """Posterior mean columns mu + w (s - mu), as a new array; ``signals`` is left as it was.

    ``weight`` is the `signal_weight` of the prior scale and noise level.
    The w = 1 and w = 0 endpoints give the signals and the prior mean
    verbatim, keeping zero-noise behavior exact.
    """
    mean = np.asarray(prior_mean, dtype=float)[:, None]
    posterior = np.array(signals, dtype=float)
    if weight == 0.0:
        posterior[...] = mean
    elif weight != 1.0:
        posterior -= mean
        posterior *= weight
        posterior += mean
    return posterior


def realized_quantities(cost, rule, dx):
    """Score gain dx'r, quadratic cost dx'A dx/2 and net utility gain of each column of ``dx``.

    Each is one fixed contraction over the stack. BLAS and einsum may
    round a column of a wide stack differently from the same column
    alone, so compare columns only within one stack layout.
    """
    score = np.matmul(dx.T, rule)
    effort = 0.5 * np.einsum("ji,jk,ki->i", dx, cost.matrix, dx)
    return Realized(score, effort, score - effort)
