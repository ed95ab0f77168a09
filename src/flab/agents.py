"""Signal generation, posterior updates, and per-agent best responses.

Agents observe a noisy disclosure of the scoring rule and move their
features to maximize expected score gain minus a quadratic cost. A naive
agent takes the signal at face value; a Bayesian agent shrinks it toward
a prior mean first. Both responses are closed-form solves against the
group's cost matrix.

Response and evaluation functions accept either a single vector or a
stack of row vectors, so Monte Carlo callers can push whole populations
through the same code path that handles one agent. Responses contract
a stack of n rows through its transpose: one wide (d, d) @ (d, n)
product instead of n skinny row products. The result is the transpose
of a contiguous (d, n) array, so the realized-quantity contractions
that follow also read contiguous columns.
"""

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .errors import DegeneratePrior, DimensionMismatch, Error, NegativeSigma
from .linalg_core import kahan_dot, quad_form

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


def standard_normals(stream, shape):
    """Standard normal draws via inverse CDF on the counter stream.

    Each normal consumes exactly one 64-bit draw of the stream: a range of
    2^53 divides 2^64, so the bounded integer sampler never rejects. Each
    53-bit integer k becomes the uniform (k + 0.5) / 2^53, rounded to
    a double. Below 2^52 that is the exact midpoint; above it k + 0.5 rounds
    to an even integer, and k = 2^53 - 1 rounds up to u = 1, where the
    inverse CDF is +inf. That one value is clamped to the largest double
    below 1, so every draw is finite and a function of k alone.
    """
    u = stream.integers(0, 2**53, size=shape) + 0.5
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


def signal_weight(prior_scale, sigma):
    """Posterior weight on the signal relative to the prior.

    ``sigma`` is a scalar or an array; each entry is weighted on its own.
    Equals 1 at zero noise and 0 for a dogmatic (zero-scale) prior; both
    endpoints are returned exactly rather than through the generic ratio.
    """
    s = noise_scales(sigma)
    if prior_scale < 0.0:
        raise Error(f"prior scale {prior_scale} is negative")
    if prior_scale == 0.0:
        if np.any(s == 0.0):
            raise DegeneratePrior("prior scale and noise scale are both zero")
        return scalar_or_array(np.zeros_like(s))
    g2 = prior_scale * prior_scale
    with np.errstate(over="ignore"):  # an overflowing sigma^2 gives the limit weight 0
        weight = g2 / (g2 + s * s)
    return scalar_or_array(np.where(s == 0.0, 1.0, weight))


@dataclass(frozen=True, eq=False)
class Signal:
    """Noisy disclosure of the scoring rule: one row per agent."""

    values: np.ndarray
    sigma: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if self.sigma < 0.0:
            raise NegativeSigma(f"noise scale {self.sigma} is negative")
        if not np.all(np.isfinite(values)):
            raise Error("signal has non-finite entries")


@dataclass(frozen=True, eq=False)
class Posterior:
    """Posterior summary: mean rows and the signal weight behind them."""

    mean: np.ndarray
    weight: float


@dataclass(frozen=True, eq=False)
class GroupParams:
    """Cost matrix and prior mean for one agent group."""

    cost: "object"
    prior_mean: np.ndarray
    group_id: int

    def __post_init__(self):
        mean = np.asarray(self.prior_mean, dtype=float)
        object.__setattr__(self, "prior_mean", mean)
        if mean.shape != (self.cost.dim,):
            raise DimensionMismatch(
                f"prior mean shape {mean.shape} for cost dim {self.cost.dim}"
            )
        if self.group_id not in (1, 2):
            raise Error(f"group_id must be 1 or 2, got {self.group_id}")


class Realized(NamedTuple):
    score_gain: "float | np.ndarray"
    cost: "float | np.ndarray"
    utility_gain: "float | np.ndarray"


def _check_rows(values, dim, what):
    if values.shape[-1] != dim or values.ndim not in (1, 2):
        raise DimensionMismatch(f"{what} shape {values.shape} for dimension {dim}")


def _times_inverse(group, rows):
    """rows @ A^-1, computed as (A^-T @ rows^T)^T over contiguous columns."""
    return (group.cost.inverse.T @ rows.T).T


def naive_best_response(group, signal):
    """Optimal feature change for an agent that trusts the signal outright."""
    _check_rows(signal.values, group.cost.dim, "signal")
    return _times_inverse(group, signal.values)


def bayesian_posterior(group, prior_scale, signal):
    """Combine the group prior with a signal into posterior parameters.

    The weight-1 and weight-0 endpoints return the signal and the prior
    mean verbatim, keeping zero-noise behavior exact.
    """
    _check_rows(signal.values, group.cost.dim, "signal")
    w = signal_weight(prior_scale, signal.sigma)
    if w == 1.0:
        mean = signal.values
    elif w == 0.0:
        mean = np.broadcast_to(group.prior_mean, signal.values.shape).copy()
    else:
        mean = group.prior_mean + w * (signal.values - group.prior_mean)
    return Posterior(mean, w)


def bayesian_best_response(group, posterior):
    """Optimal feature change against the posterior mean score rule."""
    _check_rows(np.asarray(posterior.mean), group.cost.dim, "posterior mean")
    return _times_inverse(group, posterior.mean)


def realized_quantities(group, rule, dx):
    """Score gain, quadratic cost, and net utility gain of a feature change.

    A single vector uses exactly rounded scalar sums; stacked rows use a
    fixed einsum contraction per row. Both are deterministic.
    """
    rule = np.asarray(rule, dtype=float)
    dx = np.asarray(dx, dtype=float)
    _check_rows(dx, group.cost.dim, "feature change")
    if rule.shape != (group.cost.dim,):
        raise DimensionMismatch(f"rule shape {rule.shape} for dim {group.cost.dim}")
    a = group.cost.matrix
    if dx.ndim == 1:
        score = kahan_dot(rule, dx)
        cost = 0.5 * quad_form(dx, a)
    else:
        score = dx @ rule
        cost = 0.5 * np.einsum("ij,jk,ik->i", dx, a, dx)
    return Realized(score, cost, score - cost)
