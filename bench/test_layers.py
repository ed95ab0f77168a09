"""Timings of flab's layers below the oracle (pytest-benchmark).

    python -m pytest bench --benchmark-json=bench.json

Run from the root of a checkout. One benchmark per layer: start-up (a
fresh interpreter's `import flab.cli`), then in process scenario parse,
`Scenario` construction (its Jacobi eigensolves) with a shared or a
projected prior, a `Projection` alone, the closed-form curve over a grid,
the root scan, the utility classifiers, the projector certificates,
`jacobi_eigh` and `kahan_dot` alone, and whole `sweep` and `bounds`
commands through `cli.main` on the `dense_grid` workload's inputs. They use only names and signatures the
previous commit shares, so one file times two versions of flab alike. The
slow solves run a few rounds only.
"""

import compileall
import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flab
from flab import cli
from flab.agents import Metric
from flab.cli import load_scenario
from flab.closed_form import CommonPrior, ProjectedPrior, Scenario, disparity_value, noise_range, sigma_grid
from flab.errors import AssumptionViolated
from flab.linalg_core import CostMatrix, Projection, jacobi_eigh, kahan_dot
from flab.regimes import (
    classify_utility_bayes,
    classify_utility_projected,
    classify_utility_projected_matrix,
    exploitation_condition_projected,
    find_roots,
    monotonicity_condition_projected,
    neutrality_condition_projected,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
DATA = ROOT / "tests" / "data"  # the dense_grid inputs, as perfbench/gen.py --seed 1 writes them


def committed(name):
    return load_scenario(str(SCENARIOS / f"{name}.json")).scenario


def random_spd(rng, d, floor):
    """A symmetric matrix with eigenvalues in [floor, floor + 2] in a random basis."""
    basis = np.linalg.qr(rng.normal(size=(d, d)))[0]
    m = basis @ np.diag(floor + 2.0 * rng.uniform(size=d)) @ basis.T
    return 0.5 * (m + m.T)


def test_cli_import(benchmark):
    # the start-up every command pays: a fresh interpreter importing the flab under test, its
    # bytecode written first; extra_info keeps one `-X importtime` run's cumulative µs
    src = Path(flab.__file__).resolve().parent
    compileall.compile_dir(src, quiet=1)
    command = [sys.executable, "-c", "import flab.cli"]
    env = {**os.environ, "PYTHONPATH": str(src.parent)}
    benchmark.pedantic(subprocess.run, args=(command,), kwargs={"env": env, "check": True},
                       rounds=15, iterations=1, warmup_rounds=1)
    trace = subprocess.run([sys.executable, "-X", "importtime", *command[1:]],
                           env=env, check=True, capture_output=True, text=True).stderr
    rows = (line.split("|") for line in trace.splitlines())
    cumulative = {row[2].strip(): int(row[1]) for row in rows if len(row) == 3 and row[1].strip().isdigit()}
    # fractions (with decimal) loads for the classifiers' exact curves; None where a version does not import it
    benchmark.extra_info["import_us"] = {name: cumulative.get(name)
                                         for name in ("numpy", "scipy.special", "fractions", "decimal", "flab.cli")}


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


def commuting_projected(d):
    """Costs diagonal in one random basis, and two projectors onto random
    halves of that basis, so both commute with the inverse costs."""
    rng = np.random.default_rng(d)
    basis = np.linalg.qr(rng.normal(size=(d, d)))[0]
    lam1 = 1.0 + 2.0 * rng.uniform(size=d)
    lam2 = lam1 + 0.5 + 2.0 * rng.uniform(size=d)
    low, high = ((basis * lam) @ basis.T for lam in (lam1, lam2))
    halves = [basis[:, rng.permutation(d)[: d // 2]] for _ in range(2)]
    p1, p2 = (half @ half.T for half in halves)
    return rng.normal(size=d), 0.5 * (low + low.T), 0.5 * (high + high.T), p1, p2


@pytest.mark.parametrize("d", [2, 32, 64])
def test_projected_scenario_construction(benchmark, d):
    # what `load_scenario` builds for a projected prior given as full matrices
    rule, low, high, p1, p2 = commuting_projected(d)

    def build():
        prior = ProjectedPrior(Projection(p1), Projection(p2), 1.5)
        return Scenario(rule, CostMatrix(low), CostMatrix(high), prior)

    rounds = 20 if d == 2 else 3
    sc = benchmark.pedantic(build, rounds=rounds, iterations=1, warmup_rounds=0)
    assert sc.dim == d


def test_projection_d64(benchmark):
    p = commuting_projected(64)[3]
    projection = benchmark.pedantic(Projection, args=(p,), rounds=5, iterations=1, warmup_rounds=0)
    assert projection.rank == 32


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


@pytest.mark.parametrize("name, classify", [("reference_common", classify_utility_bayes),
                                             ("two_crossings", classify_utility_bayes),
                                             ("reference_projected", classify_utility_projected)])
def test_classify_curves(benchmark, name, classify):
    # the utility case analysis `flab classify` prints: the exact curve, its crossing count and the root scan
    sc = committed(name)
    regime = benchmark(classify, sc)
    assert regime.count_matches


@pytest.mark.parametrize("path, rounds", [(SCENARIOS / "reference_projected.json", 20),
                                          (ROOT / "tests" / "data" / "highdim_projected.json", 3)],
                         ids=["reference_projected", "highdim_projected"])
def test_projected_certificates(benchmark, path, rounds):
    # the three certificates and the rule-agnostic verdict `flab classify` prints for a projected prior, each
    # round on a freshly loaded scenario, so the eigensolves of the two gap labels are timed with them
    def certify(sc):
        reports = [exploitation_condition_projected(sc), neutrality_condition_projected(sc).report,
                   monotonicity_condition_projected(sc)]
        try:
            classify_utility_projected_matrix(sc)
        except AssumptionViolated:
            pass  # what classify prints as "not applicable", as on reference_projected's indefinite known gap
        return reports

    reports = benchmark.pedantic(certify, setup=lambda: ((load_scenario(str(path)).scenario,), {}),
                                 rounds=rounds, iterations=1)
    assert len(reports) == 3


@pytest.mark.parametrize("d", [32, 64, 128])
def test_jacobi_eigh(benchmark, d):
    matrix = random_spd(np.random.default_rng(d), d, 1.0)
    rounds = {32: 5, 64: 3, 128: 2}[d]
    w, v = benchmark.pedantic(jacobi_eigh, args=(matrix,), rounds=rounds, iterations=1, warmup_rounds=0)
    assert w.shape == (d,) and v.shape == (d, d)


@pytest.mark.parametrize("d", [2, 32, 64])
def test_kahan_dot(benchmark, d):
    # the exact inner product `Scenario` construction takes for `trace_gap`
    x, y = np.random.default_rng(d).normal(size=(2, d))
    assert math.isfinite(benchmark(kahan_dot, x, y))


def quiet_main(argv):
    """`cli.main` on ``argv`` with its output captured: its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_cli_sweep_dense_files(benchmark, tmp_path):
    # `flab sweep --out-csv --out-svg` on 20,000 levels, in process: the curves, the CSV rows and the SVG
    argv = ["sweep", str(DATA / "dense_common.json"),
            "--out-csv", str(tmp_path / "out.csv"), "--out-svg", str(tmp_path / "out.svg")]
    code, _ = benchmark.pedantic(quiet_main, args=(argv,), rounds=10, iterations=1, warmup_rounds=1)
    assert code == 0


def test_cli_bounds_dense(benchmark):
    # `flab bounds --points 10000` on the equal-cost input, in process: the bound curves and the table rows
    argv = ["bounds", str(DATA / "dense_equal.json"), "--points", "10000"]
    code, out = benchmark.pedantic(quiet_main, args=(argv,), rounds=10, iterations=1, warmup_rounds=1)
    assert code == 0 and out
