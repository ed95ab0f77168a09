"""In-process timings of the Monte Carlo oracle's stages (pytest-benchmark).

    python -m pytest bench --benchmark-json=bench.json

Run from the root of a checkout. Tier-1 `pytest` collects only `tests/`,
so these run only when asked for. They use only `normal_stream`,
`standard_normals`, `tree_sum`, `estimate_disparities`, `load_scenario`,
`sigma_grid`, `Scenario`, `CommonPrior` and `CostMatrix`, and the
oracle's block loop `_moments`, with the signatures the previous commit
shares, so one file times two versions of flab alike.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from flab.agents import normal_stream, standard_normals
from flab.cli import load_scenario
from flab.closed_form import CommonPrior, Scenario, sigma_grid
from flab.linalg_core import CostMatrix
from flab.mc_oracle import _moments, estimate_disparities, tree_sum

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
BLOCK = 2**14  # a fixed work unit of agents, so one file times two commits on the same work
ORACLE_BLOCK = 2**12  # the agents of one of the oracle's own blocks
SEED = 42


def test_draw_one_block(benchmark):
    # one block's normals at d = 2: (agent, group, coordinate)
    stream = normal_stream(SEED, (101,))
    z = benchmark(standard_normals, stream, (BLOCK, 2, 2))
    assert z.shape == (BLOCK, 2, 2)


def test_tree_sum_row_stack(benchmark):
    # one level's (score, utility) rows of one block
    rows = np.random.default_rng(SEED).normal(size=(2, BLOCK))
    totals = benchmark(tree_sum, rows)
    assert totals.shape == (2,)


def traced_peak(fn, *args):
    """tracemalloc's peak, in bytes, of one call of ``fn`` after a warm-up call."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_moments_one_block(benchmark):
    # the per-agent stage on one of the oracle's blocks at d = 2: its draw, response terms, group
    # differences and 10 tallies, then the pooled moments; extra_info keeps the tracemalloc peak
    sc = load_scenario(str(SCENARIOS / "reference_common.json")).scenario
    benchmark.extra_info["peak_bytes"] = traced_peak(_moments, sc, ORACLE_BLOCK, SEED)
    means, scatter = benchmark(_moments, sc, ORACLE_BLOCK, SEED)
    assert means.shape == (3,) and scatter.shape == (4,)


def test_moments_highdim(benchmark):
    # the same stage at d = 32 on five blocks, where the block's buffers grow with d; extra_info
    # keeps the tracemalloc peak
    sc = load_scenario(str(DATA / "highdim_common.json")).scenario
    benchmark.extra_info["peak_bytes"] = traced_peak(_moments, sc, 2 * 10**4, SEED)
    means, scatter = benchmark(_moments, sc, 2 * 10**4, SEED)
    assert means.shape == (3,) and scatter.shape == (4,)


@pytest.mark.parametrize("n", [10**5, 10**6])
@pytest.mark.parametrize("name", ["reference_naive", "reference_common", "reference_projected"])
def test_estimate_disparities_verify_grid(benchmark, name, n):
    # what `flab verify --n N --seed 42` estimates: sigma = 0 and the default six grid points
    sc = load_scenario(str(SCENARIOS / f"{name}.json")).scenario
    sigmas = [0.0, *sigma_grid(sc, 6).tolist()]
    means, stderrs = benchmark(estimate_disparities, sc, sigmas, n, SEED)
    assert means.shape == stderrs.shape == (len(sigmas), 2)


def test_estimate_disparities_many_levels(benchmark):
    # `flab verify --n 1000 --seed 1 --points 10000`: per-level overhead, not agents, dominates
    sc = load_scenario(str(SCENARIOS / "reference_common.json")).scenario
    sigmas = [0.0, *sigma_grid(sc, 10000).tolist()]
    means, stderrs = benchmark(estimate_disparities, sc, sigmas, 1000, 1)
    assert means.shape == stderrs.shape == (len(sigmas), 2)


def test_estimate_disparities_highdim(benchmark):
    # d = 32, where each agent's response terms cost O(d^2): a common prior, sigma = 0 and 2 levels
    rng = np.random.default_rng(SEED)
    m = rng.normal(size=(32, 32))
    cost1 = m @ m.T / 32.0 + np.eye(32)
    cost2 = cost1 + np.diag(rng.uniform(0.5, 1.5, size=32))
    sc = Scenario(rng.normal(size=32), CostMatrix(cost1), CostMatrix(cost2), CommonPrior(rng.normal(size=32), 1.5))
    sigmas = [0.0, *sigma_grid(sc, 2).tolist()]
    means, stderrs = benchmark(estimate_disparities, sc, sigmas, 2 * 10**4, SEED)
    assert means.shape == stderrs.shape == (len(sigmas), 2)
