"""Agent behavior tests: stream determinism, posterior algebra, responses."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from flab.agents import (
    GroupParams,
    Metric,
    Signal,
    bayesian_best_response,
    bayesian_posterior,
    naive_best_response,
    normal_stream,
    realized_quantities,
    signal_weight,
    standard_normals,
)
from flab.errors import DegeneratePrior, DimensionMismatch, Error, NegativeSigma
from flab.linalg_core import CostMatrix


@pytest.fixture
def group_one():
    return GroupParams(CostMatrix(np.diag([2.0, 1.0])), np.array([0.5, 2.0]), 1)


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

    def test_start_skips_ahead_to_that_draw(self):
        whole = standard_normals(normal_stream(9, (1,)), (100,))
        for start in (0, 4, 12, 96):
            tail = standard_normals(normal_stream(9, (1,), start=start), (100 - start,))
            assert np.array_equal(tail, whole[start:])

    @pytest.mark.parametrize("start", [-4, 2, 5])
    def test_start_off_the_counter_grid_rejected(self, start):
        with pytest.raises(Error):
            normal_stream(9, (1,), start=start)

    def test_shape_is_respected(self):
        z = standard_normals(normal_stream(5), (7, 2, 3))
        assert z.shape == (7, 2, 3)

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

    def test_zero_scale_gives_zero_weight(self):
        assert signal_weight(0.0, 2.0) == 0.0

    def test_generic_value(self):
        # scale 1, noise 1: weight 1/2 exactly
        assert signal_weight(1.0, 1.0) == 0.5

    def test_monotone_in_noise(self):
        weights = [signal_weight(1.0, s) for s in (0.1, 0.5, 1.0, 5.0, 50.0)]
        assert weights == sorted(weights, reverse=True)

    def test_degenerate_pair_rejected(self):
        with pytest.raises(DegeneratePrior):
            signal_weight(0.0, 0.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(NegativeSigma):
            signal_weight(1.0, -0.5)


class TestResponses:
    def test_naive_response_reference_values(self, group_one):
        signal = Signal(np.array([1.0, 0.5]), 0.0)
        dx = naive_best_response(group_one, signal)
        assert np.array_equal(dx, np.array([0.5, 0.5]))

    def test_posterior_and_response_reference_values(self, group_one):
        # scale 1, noise 1: weight 1/2, posterior mean midway prior/signal
        signal = Signal(np.array([1.0, 0.5]), 1.0)
        post = bayesian_posterior(group_one, 1.0, signal)
        assert post.weight == 0.5
        assert np.array_equal(post.mean, np.array([0.75, 1.25]))
        dx = bayesian_best_response(group_one, post)
        assert np.array_equal(dx, np.array([0.375, 1.25]))

    def test_realized_quantities_reference_values(self, group_one):
        rule = np.array([1.0, 0.5])
        dx = np.array([0.5, 0.5])
        out = realized_quantities(group_one, rule, dx)
        assert out.score_gain == 0.75
        assert out.cost == 0.375
        assert out.utility_gain == 0.375

    def test_zero_noise_posterior_is_signal(self, group_one):
        values = np.array([0.3, -0.8])
        post = bayesian_posterior(group_one, 1.0, Signal(values, 0.0))
        assert np.array_equal(post.mean, values)
        assert post.weight == 1.0

    def test_bayesian_equals_naive_at_zero_noise(self, group_one):
        signal = Signal(np.array([1.0, 0.5]), 0.0)
        post = bayesian_posterior(group_one, 1.0, signal)
        assert np.array_equal(
            bayesian_best_response(group_one, post),
            naive_best_response(group_one, signal),
        )

    def test_response_maximizes_believed_objective(self):
        # brute-force argmax of mean'dx - dx'A dx/2 over a fine grid
        rng = np.random.default_rng(77)
        for _ in range(5):
            a = np.diag(rng.uniform(0.5, 3.0, size=2))
            group = GroupParams(CostMatrix(a), rng.normal(size=2), 1)
            signal = Signal(rng.normal(size=2), 0.7)
            post = bayesian_posterior(group, 1.3, signal)
            dx = bayesian_best_response(group, post)
            axis = np.linspace(-5.0, 5.0, 401)
            xx, yy = np.meshgrid(axis, axis, indexing="ij")
            objective = (
                post.mean[0] * xx
                + post.mean[1] * yy
                - 0.5 * (a[0, 0] * xx**2 + a[1, 1] * yy**2)
            )
            i, j = np.unravel_index(np.argmax(objective), objective.shape)
            spacing = axis[1] - axis[0]
            assert abs(axis[i] - dx[0]) <= spacing
            assert abs(axis[j] - dx[1]) <= spacing

    def test_batched_rows_match_single_rows(self, group_one):
        rng = np.random.default_rng(13)
        values = rng.normal(size=(6, 2))
        batch = bayesian_posterior(group_one, 2.0, Signal(values, 0.5))
        batch_dx = bayesian_best_response(group_one, batch)
        rule = np.array([1.0, 0.5])
        batch_out = realized_quantities(group_one, rule, batch_dx)
        for i in range(6):
            single = bayesian_posterior(group_one, 2.0, Signal(values[i], 0.5))
            assert np.array_equal(batch.mean[i], single.mean)
            dx = bayesian_best_response(group_one, single)
            assert np.array_equal(batch_dx[i], dx)
            out = realized_quantities(group_one, rule, dx)
            assert batch_out.score_gain[i] == pytest.approx(out.score_gain, rel=1e-15)
            assert batch_out.cost[i] == pytest.approx(out.cost, rel=1e-15)


class TestValidation:
    def test_signal_rejects_negative_sigma(self):
        with pytest.raises(NegativeSigma):
            Signal(np.array([1.0]), -1.0)

    def test_signal_rejects_non_finite(self):
        with pytest.raises(Error):
            Signal(np.array([np.nan]), 1.0)

    def test_group_rejects_bad_id(self):
        with pytest.raises(Error):
            GroupParams(CostMatrix(np.eye(2)), np.zeros(2), 3)

    def test_group_rejects_mean_shape(self):
        with pytest.raises(DimensionMismatch):
            GroupParams(CostMatrix(np.eye(2)), np.zeros(3), 1)

    def test_response_rejects_wrong_width(self, group_one):
        with pytest.raises(DimensionMismatch):
            naive_best_response(group_one, Signal(np.zeros(3), 0.1))

    def test_metric_values(self):
        assert Metric("score") is Metric.SCORE
        assert Metric("utility") is Metric.UTILITY
