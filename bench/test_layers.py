"""In-process timings of flab's layers below the oracle (pytest-benchmark).

    python -m pytest bench --benchmark-json=bench.json

Run from the root of a checkout. One benchmark per layer: scenario parse,
`Scenario` construction (its Jacobi eigensolves), the closed-form curve
over a grid, the root scan, the agents' response and realized
quantities for one block, and `jacobi_eigh` alone. They use only names
and signatures the previous commit shares, so one file times two
versions of flab alike. The slow solves run a few rounds only.
"""

from pathlib import Path

import numpy as np
import pytest

from flab.agents import Metric, naive_best_response, realized_quantities
from flab.cli import load_scenario
from flab.closed_form import CommonPrior, Scenario, disparity_value, noise_range, sigma_grid
from flab.linalg_core import CostMatrix, jacobi_eigh
from flab.regimes import find_roots

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BLOCK = 2**15  # the oracle's agents per block
SEED = 42


def committed(name):
    return load_scenario(str(SCENARIOS / f"{name}.json")).scenario


def random_spd(rng, d, floor):
    """A symmetric matrix with eigenvalues in [floor, floor + 2] in a random basis."""
    basis = np.linalg.qr(rng.normal(size=(d, d)))[0]
    m = basis @ np.diag(floor + 2.0 * rng.uniform(size=d)) @ basis.T
    return 0.5 * (m + m.T)


def test_load_scenario(benchmark):
    loaded = benchmark(load_scenario, str(SCENARIOS / "reference_projected.json"))
    assert loaded.scenario.dim == 2


@pytest.mark.parametrize("d", [2, 32, 64])
def test_scenario_construction(benchmark, d):
    # what `load_scenario` builds after parsing: two costs, then the scenario
    rng = np.random.default_rng(d)
    low = random_spd(rng, d, 1.0)
    high = low + random_spd(rng, d, 0.5)
    prior = CommonPrior(rng.normal(size=d), 2.0)
    rule = rng.normal(size=d)

    def build():
        return Scenario(rule, CostMatrix(low), CostMatrix(high), prior)

    rounds = 20 if d == 2 else 3
    sc = benchmark.pedantic(build, rounds=rounds, iterations=1, warmup_rounds=0)
    assert sc.dim == d


@pytest.mark.parametrize("metric", list(Metric))
def test_disparity_value_dense_grid(benchmark, metric):
    sc = committed("reference_common")
    grid = sigma_grid(sc, 20_000)
    values = benchmark(disparity_value, sc, metric, grid)
    assert values.shape == grid.shape


def test_find_roots_two_crossings(benchmark):
    # the scan `flab classify` runs on the utility curve
    sc = committed("two_crossings")
    scan = benchmark(find_roots, lambda s: disparity_value(sc, Metric.UTILITY, s), *noise_range(sc))
    assert len(scan.crossings) == 2


def test_naive_best_response_one_block(benchmark):
    sc = committed("reference_common")
    beliefs = np.random.default_rng(SEED).normal(size=(sc.dim, BLOCK))
    dx = benchmark(naive_best_response, sc.cost1, beliefs)
    assert dx.shape == (sc.dim, BLOCK)


def test_realized_quantities_one_block(benchmark):
    sc = committed("reference_common")
    dx = np.random.default_rng(SEED).normal(size=(sc.dim, BLOCK))
    realized = benchmark(realized_quantities, sc.cost1, sc.rule, dx)
    assert realized.utility_gain.shape == (BLOCK,)


@pytest.mark.parametrize("d", [32, 64, 128])
def test_jacobi_eigh(benchmark, d):
    matrix = random_spd(np.random.default_rng(d), d, 1.0)
    rounds = {32: 5, 64: 3, 128: 2}[d]
    w, v = benchmark.pedantic(jacobi_eigh, args=(matrix,), rounds=rounds, iterations=1, warmup_rounds=0)
    assert w.shape == (d,) and v.shape == (d, d)
