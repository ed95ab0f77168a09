"""Agent behavior tests: stream determinism, posterior algebra, responses."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from flab.agents import (
    Metric,
    bayesian_best_response,
    bayesian_posterior,
    naive_best_response,
    noise_scales,
    normal_stream,
    realized_quantities,
    signal_weight,
    standard_normals,
)
from flab.errors import DimensionMismatch, Error, NegativeSigma, NonFinite
from flab.linalg_core import CostMatrix

PRIOR_MEAN = np.array([0.5, 2.0])


def column(*values):
    """One agent: a (d, 1) column."""
    return np.array(values, dtype=float)[:, None]


def plain(state):
    """A bit generator's state with its arrays as lists, so two states compare with ==."""
    if isinstance(state, dict):
        return {k: plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


@pytest.fixture
def cost_one():
    return CostMatrix(np.diag([2.0, 1.0]))


class TestStreams:
    def test_same_seed_same_draws(self):
        a = standard_normals(normal_stream(9, (1,)), (100,))
        b = standard_normals(normal_stream(9, (1,)), (100,))
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = standard_normals(normal_stream(9, (1,)), (100,))
        b = standard_normals(normal_stream(9, (2,)), (100,))
        assert not np.array_equal(a, b)

    def test_moments_match_standard_normal(self):
        z = standard_normals(normal_stream(123), (200000,))
        n = z.size
        assert abs(z.mean()) <= 4.0 / math.sqrt(n)
        assert abs(z.var() - 1.0) <= 4.0 * math.sqrt(2.0 / n)
        # symmetry of the inverse-CDF construction
        assert abs(np.mean(z**3)) <= 4.0 * math.sqrt(15.0 / n)

    @pytest.mark.parametrize("seed, key", [(-1, ()), (-1.5, (1,)), (3, (-2,))])
    def test_negative_seed_or_key_refused(self, seed, key):
        with pytest.raises(Error, match="must be non-negative"):
            normal_stream(seed, key)

    def test_shape_is_respected(self):
        z = standard_normals(normal_stream(5), (7, 2, 3))
        assert z.shape == (7, 2, 3)

    @pytest.mark.parametrize("size", [1, 3, 5, 7, 4097, (3, 2, 5)])
    def test_one_philox_word_per_normal(self, size):
        # standard_normals rests on this: over [0, 2^53) the bounded sampler keeps the top 53 bits
        # of one 64-bit word per value and never rejects, so n normals advance the stream n words
        for seed, key in [(0, ()), (9, (1,)), (123, (2, 7)), (2**40, (5,))]:
            sampled, raw = normal_stream(seed, key), normal_stream(seed, key)
            words = raw.bit_generator.random_raw(size) >> np.uint64(11)
            assert np.array_equal(sampled.integers(0, 2**53, size), words)
            assert plain(sampled.bit_generator.state) == plain(raw.bit_generator.state)

    def test_largest_integer_gives_finite_draw(self):
        class Stub:
            def integers(self, low, high, size):
                assert (low, high) == (0, 2**53)
                return np.array([2**53 - 1, 0, 2**52 + 1]).reshape(size)

        z = standard_normals(Stub(), (3,))
        below_one = float.fromhex("0x1.fffffffffffffp-1")
        assert z[0] == ndtri(below_one)
        assert math.isfinite(z[0]) and z[0] > 8.0
        # every other integer keeps its unclamped uniform
        assert z[1] == ndtri(0.5 / 2**53)
        assert z[2] == ndtri((2**52 + 2) / 2**53)


class TestSignalWeight:
    def test_zero_noise_gives_full_weight(self):
        assert signal_weight(1.5, 0.0) == 1.0

    def test_zero_scale_rejected(self):
        for sigma in (2.0, 0.0):
            with pytest.raises(Error, match="must be finite and positive, got 0.0"):
                signal_weight(0.0, sigma)

    def test_generic_value(self):
        # scale 1, noise 1: weight 1/2 exactly
        assert signal_weight(1.0, 1.0) == 0.5

    def test_monotone_in_noise(self):
        weights = [signal_weight(1.0, s) for s in (0.1, 0.5, 1.0, 5.0, 50.0)]
        assert weights == sorted(weights, reverse=True)

    def test_negative_noise_rejected(self):
        with pytest.raises(NegativeSigma):
            signal_weight(1.0, -0.5)


class TestResponses:
    def test_naive_response_reference_values(self, cost_one):
        dx = naive_best_response(cost_one, column(1.0, 0.5))
        assert np.array_equal(dx, column(0.5, 0.5))

    def test_posterior_and_response_reference_values(self, cost_one):
        # scale 1, noise 1: weight 1/2, posterior mean midway prior/signal
        weight = signal_weight(1.0, 1.0)
        assert weight == 0.5
        post = bayesian_posterior(PRIOR_MEAN, weight, column(1.0, 0.5))
        assert np.array_equal(post, column(0.75, 1.25))
        dx = bayesian_best_response(cost_one, post)
        assert np.array_equal(dx, column(0.375, 1.25))

    def test_realized_quantities_reference_values(self, cost_one):
        rule = np.array([1.0, 0.5])
        out = realized_quantities(cost_one, rule, column(0.5, 0.5))
        assert out.score_gain.tolist() == [0.75]
        assert out.cost.tolist() == [0.375]
        assert out.utility_gain.tolist() == [0.375]

    def test_zero_noise_posterior_is_signal(self):
        values = column(0.3, -0.8)
        weight = signal_weight(1.0, 0.0)
        assert weight == 1.0
        post = bayesian_posterior(PRIOR_MEAN, weight, values)
        assert np.array_equal(post, values)

    def test_bayesian_equals_naive_at_zero_noise(self, cost_one):
        for signal in (column(1.0, 0.5), np.tile(column(1.0, 0.5), (1, 5))):
            post = bayesian_posterior(PRIOR_MEAN, signal_weight(1.0, 0.0), signal)
            assert np.array_equal(
                bayesian_best_response(cost_one, post),
                naive_best_response(cost_one, signal),
            )

    @pytest.mark.parametrize("weight", [0.0, 0.3, 1.0])
    def test_posterior_is_a_new_array_and_signals_keep_their_bits(self, weight):
        rng = np.random.default_rng(29)
        prior_mean = rng.normal(size=3)
        signals = rng.normal(size=(3, 4))
        before = signals.copy()
        post = bayesian_posterior(prior_mean, weight, signals)
        assert signals.tobytes() == before.tobytes()
        assert not np.shares_memory(post, signals)
        mean = prior_mean[:, None]
        want = {0.0: np.broadcast_to(mean, signals.shape), 1.0: before}.get(weight, mean + weight * (before - mean))
        assert post.shape == signals.shape
        assert post.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_dogmatic_posterior_is_prior_mean(self):
        # weight 0, as where sigma^2 overflows
        assert signal_weight(1.0, 1e200) == 0.0
        post = bayesian_posterior(PRIOR_MEAN, 0.0, column(0.3, -0.8))
        assert np.array_equal(post, column(*PRIOR_MEAN))

    def test_response_maximizes_believed_objective(self):
        # brute-force argmax of mean'dx - dx'A dx/2 over a fine grid
        rng = np.random.default_rng(77)
        for _ in range(5):
            a = np.diag(rng.uniform(0.5, 3.0, size=2))
            prior_mean = rng.normal(size=2)
            post = bayesian_posterior(prior_mean, signal_weight(1.3, 0.7), column(*rng.normal(size=2)))
            dx = bayesian_best_response(CostMatrix(a), post)[:, 0]
            axis = np.linspace(-5.0, 5.0, 401)
            xx, yy = np.meshgrid(axis, axis, indexing="ij")
            objective = (
                post[0, 0] * xx
                + post[1, 0] * yy
                - 0.5 * (a[0, 0] * xx**2 + a[1, 1] * yy**2)
            )
            i, j = np.unravel_index(np.argmax(objective), objective.shape)
            spacing = axis[1] - axis[0]
            assert abs(axis[i] - dx[0]) <= spacing
            assert abs(axis[j] - dx[1]) <= spacing

    @pytest.mark.parametrize("dim", [2, 8])
    def test_batched_columns_match_single_columns(self, dim):
        # The posterior is elementwise, so a column keeps its bits in any stack.
        # BLAS and einsum run a stack through other kernels than one column, and
        # these may round differently: responses agree bit for bit at d = 2,
        # realized values and d = 8 responses to the last few bits.
        rng = np.random.default_rng(13 + dim)
        m = rng.normal(size=(dim, dim))
        cost = CostMatrix(m @ m.T / dim + np.eye(dim))
        prior_mean = rng.normal(size=dim)
        rule = rng.normal(size=dim)
        signals = rng.normal(size=(dim, 9))
        weight = signal_weight(2.0, 0.5)
        naive_dx = naive_best_response(cost, signals)
        batch = bayesian_posterior(prior_mean, weight, signals)
        batch_dx = bayesian_best_response(cost, batch)
        batch_out = realized_quantities(cost, rule, batch_dx)
        for i in range(signals.shape[1]):
            one = signals[:, i : i + 1].copy()
            naive_one = naive_best_response(cost, one)
            single = bayesian_posterior(prior_mean, weight, one)
            assert np.array_equal(single, batch[:, i : i + 1])
            dx = bayesian_best_response(cost, single)
            out = realized_quantities(cost, rule, dx)
            if dim == 2:
                assert np.array_equal(naive_one, naive_dx[:, i : i + 1])
                assert np.array_equal(dx, batch_dx[:, i : i + 1])
            else:
                assert naive_one[:, 0] == pytest.approx(naive_dx[:, i], rel=1e-15)
                assert dx[:, 0] == pytest.approx(batch_dx[:, i], rel=1e-15)
            for got, want in zip(out, batch_out):
                assert got[0] == pytest.approx(want[i], rel=1e-15)


class TestValidation:
    def test_signal_rejects_negative_sigma(self):
        with pytest.raises(NegativeSigma):
            noise_scales(-1.0)

    @pytest.mark.parametrize("sigma, error", [
        (math.nan, NonFinite), (math.inf, NonFinite), (-math.inf, NegativeSigma),
        ([0.5, -1.0, math.nan], NegativeSigma), ([0.0, 1e308, math.inf, -1.0], NonFinite),
    ])
    def test_noise_scales_are_finite(self, sigma, error):
        # the first entry that is no finite level names the error; the limit is `endpoints`' to state
        with pytest.raises(error):
            noise_scales(sigma)
        with pytest.raises(error):
            signal_weight(2.0, sigma)

    def test_response_rejects_wrong_width(self, cost_one):
        with pytest.raises(DimensionMismatch):
            naive_best_response(cost_one, np.zeros((3, 1)))

    def test_metric_values(self):
        assert Metric("score") is Metric.SCORE
        assert Metric("utility") is Metric.UTILITY

    @pytest.mark.parametrize("value", ["bogus", "Score", 0, None, ["score"]])
    def test_unknown_metric_is_a_typed_error(self, value):
        with pytest.raises(Error, match=r"^unknown metric .*, expected 'score' or 'utility'$"):
            Metric(value)
