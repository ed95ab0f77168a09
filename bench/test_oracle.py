"""In-process timings of the Monte Carlo oracle's stages (pytest-benchmark).

    python -m pytest bench --benchmark-json=bench.json

Run from the root of a checkout. Tier-1 `pytest` collects only `tests/`,
so these run only when asked for. They use only `normal_stream`,
`standard_normals`, `tree_sum`, `estimate_disparities`, `load_scenario`
and `sigma_grid`, so one file times two versions of flab alike.
"""

from pathlib import Path

import numpy as np
import pytest

from flab.agents import normal_stream, standard_normals
from flab.cli import load_scenario
from flab.closed_form import sigma_grid
from flab.mc_oracle import estimate_disparities, tree_sum

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BLOCK = 2**14  # a fixed work unit, one oracle block, so one file times two commits on the same work
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


@pytest.mark.parametrize("n", [10**5, 10**6])
@pytest.mark.parametrize("name", ["reference_naive", "reference_common", "reference_projected"])
def test_estimate_disparities_verify_grid(benchmark, name, n):
    # what `flab verify --n N --seed 42` estimates: sigma = 0 and the default six grid points
    sc = load_scenario(str(SCENARIOS / f"{name}.json")).scenario
    sigmas = [0.0, *sigma_grid(sc, 6).tolist()]
    means, stderrs = benchmark(estimate_disparities, sc, sigmas, n, SEED)
    assert means.shape == stderrs.shape == (len(sigmas), 2)
