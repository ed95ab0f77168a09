"""bench/recipes.py: the defect probes' scenario recipes, pinned by digest, and the exact model's
crossing count, constants and zero-noise disparities, pinned on scenarios whose values are known, with
the property that ``classify`` never exits 0 with a crossing count other than the model's.

The probes' counts in CHANGES.md and every BENCH file are counts over
these scenarios, so a recipe edit that moves one draw must show here.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from flab import cli
from flab.cli import load_scenario
from flab.closed_form import noise_range
from flab.errors import Error
from flab.regimes import classify_utility_bayes

ROOT = Path(__file__).resolve().parent.parent


def load_recipes():
    spec = importlib.util.spec_from_file_location("bench_recipes", ROOT / "bench" / "recipes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


recipes = load_recipes()

# (scenarios, sha256 of every scenario as sorted-key JSON, one a line), recorded from the generators
# as they stood in bench/test_probes.py before they moved, and from the d <= 4 recipe as it landed
DIGESTS = {
    "classify_scenarios": (600, "543a5cea8b6080b2b655e5e55ec2428fe580cdb66c715afaf89436c320ac6e04"),
    "neutrality_scenarios": (400, "e5ef128c245dbd45ec3464c0cfb7392c411fa23d9064574c7503846ca72c918e"),
    "exact_multiple_scenarios": (1000, "d70ab7ca01c2603fe07d75f0e68c2a2f48559f64d0e5198ccf1edbe38c898ae1"),
    "unit_change_scenarios": (75, "fbcb5ce5eddf103fc339c630e37168400c3ee4f4502d13c9c7980f1da29794b6"),
    "small_dimension_scenarios": (600, "9d131055b6db4b7622c8bce7d119cecc37d9f31eca425a468a0712249d644cfb"),
}


@pytest.mark.parametrize("name", DIGESTS)
def test_recipe_digest(name):
    digest = hashlib.sha256()
    count = 0
    for _, spec in getattr(recipes, name)():
        digest.update(json.dumps(spec, sort_keys=True).encode() + b"\n")
        count += 1
    assert (count, digest.hexdigest()) == DIGESTS[name]


@pytest.mark.parametrize("name", DIGESTS)
def test_every_scenario_loads_or_is_refused_with_a_flab_error(name, tmp_path):
    for i, (_, spec) in enumerate(getattr(recipes, name)()):
        path = tmp_path / f"{i:04d}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        try:
            load_scenario(str(path))
        except Error:
            pass  # a refusal the command reports with its exit code, as the costs times 2^-30 are today


@pytest.mark.parametrize("name, count", [("reference_common", 1), ("two_crossings", 2), ("reference_projected", 0)])
def test_exact_crossings_of_the_committed_scenarios_equal_the_printed_count(name, count, capsys):
    assert recipes.exact_crossings(dict(recipes.committed_scenarios())[name]) == count
    assert cli.main(["classify", str(ROOT / "scenarios" / f"{name}.json")]) == 0
    assert re.search(r"utility crossings: (\d+)", capsys.readouterr().out).group(1) == str(count)


def classify_crossings(spec, tmp_path):
    """``classify``'s exit code on a scenario dict, and the counts its crossings line prints: found and predicted."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["classify", str(path)])
    found = re.search(r"utility crossings: (\d+) at \[.*\] \(predicted (\d+), ", out.getvalue())
    return code, found and tuple(map(int, found.groups()))


@pytest.mark.parametrize("t, count", [(1.99999999, 2), (2.0, 1)])
def test_exact_crossings_of_a_mean_near_twice_the_rule(t, count, tmp_path):
    # at t = 1.99999999 the second root lies at sigma = 3162.3, past noise_range's 1000: the scan widens to it
    spec = dict(recipes.committed_scenarios())["reference_common"]
    spec["prior"] = {"kind": "common", "mean": [t * v for v in spec["rule"]], "scale": 1.0}
    assert recipes.exact_crossings(spec) == count
    assert classify_crossings(spec, tmp_path) == (0, (count, count))


def test_exact_crossings_of_a_double_root_and_of_a_zero_rule(tmp_path):
    # U(w) = 25/16 w^2 - 5/8 w + 1/16 = (25/16)(w - 1/5)^2 touches zero at w = 1/5
    spec = {"dimension": 2, "rule": [2.0, 0.0], "cost1": [[1.0, 0.0], [0.0, 1.0]],
            "cost2": [[2.0, 0.0], [0.0, 4.0]], "prior": {"kind": "common", "mean": [0.5, -1.0], "scale": 2.0}}
    assert recipes.exact_crossings(spec) == 0
    assert classify_crossings(spec, tmp_path) == (0, (0, 0))
    spec["rule"] = [0.0, 0.0]
    assert recipes.exact_crossings(spec) == 0
    assert classify_crossings(spec, tmp_path) == (0, (0, 0))


@pytest.mark.parametrize("name, change, count", [("reference_common", None, 2), ("reference_common", (-10, -10), 1),
                                                 ("two_crossings", (-10, -10), 2)])
def test_classify_brackets_roots_outside_the_default_window(name, change, count, tmp_path):
    # a mean of (2 - 2^-40) times the rule puts the second root at sigma = 3.9e6, past 1e6 times the prior scale 2;
    # costs, rule, mean and scale times 2^-10 put each root below noise_range's 1e-3
    spec = dict(recipes.committed_scenarios())[name]
    if change is None:
        spec["prior"]["mean"] = [(2.0 - 2.0**-40) * v for v in spec["rule"]]
    else:
        spec = recipes.rescaled(spec, *change)
    assert recipes.exact_crossings(spec) == count
    assert classify_crossings(spec, tmp_path) == (0, (count, count))
    sc = load_scenario(str(tmp_path / "scenario.json")).scenario
    roots = classify_utility_bayes(sc).exact_roots
    lo, hi = noise_range(sc)
    assert len(roots) == count and not lo <= roots[0] <= roots[-1] <= hi
    assert change is not None or roots[-1] > 1e6 * sc.prior.scale


def test_exact_constants_of_the_committed_scenarios():
    # G = A1^-1 - A2^-1 = diag(1/4, 2/3) and r = (1, 1/2) on all three; reference_projected knows e1 in
    # group 1 and everything in group 2, so cross = r'A1^-1 P1 r - r'A2^-1 r = 1/2 - 1/3
    specs = dict(recipes.committed_scenarios())
    constants = {name: {k: str(v) for k, v in recipes.exact_constants(specs[name]).items()}
                 for name in ("reference_common", "reference_projected", "reference_naive")}
    assert constants == {
        "reference_common": {"rule_sq": "5/12", "trace_gap": "11/12", "cross": "19/24", "prior_sq": "131/48",
                             "mismatch": "25/16"},
        "reference_projected": {"rule_sq": "5/12", "trace_gap": "11/12", "cross": "1/6", "prior_sq": "1/6",
                                "mismatch": "1/4"},
        "reference_naive": {"rule_sq": "5/12", "trace_gap": "11/12"},
    }


def test_exact_disparity_at_zero_noise_is_the_full_transparency_value():
    # at sigma = 0 every agent sees the rule: the score disparity is rule_sq and the utility one half of it,
    # flab's `endpoints` value, on the committed scenarios the model takes and 60 draws at d <= 4
    scenarios = [*recipes.committed_scenarios(), *recipes.small_dimension_scenarios(count=60)]
    checked = 0
    for _, spec in scenarios:
        try:
            rule_sq = recipes.exact_constants(spec)["rule_sq"]
        except ValueError:
            continue  # a span-form projector
        assert recipes.exact_disparity(spec, "score", 0.0) == rule_sq
        assert recipes.exact_disparity(spec, "utility", 0.0) == rule_sq / 2
        checked += 1
    assert checked == 64


def test_exact_inverse_at_every_small_dimension():
    for key, spec in recipes.small_dimension_scenarios(count=12):
        cost = [[Fraction(v) for v in row] for row in spec["cost2"]]
        inverse = recipes._inverse(spec["cost2"])
        d = key[0]
        assert [[sum(inverse[i][k] * cost[k][j] for k in range(d)) for j in range(d)] for i in range(d)] == \
            [[int(i == j) for j in range(d)] for i in range(d)]


def test_exact_model_refuses_what_it_does_not_model():
    specs = dict(recipes.committed_scenarios())
    wide = {"dimension": 9, "rule": [1.0] * 9, "cost1": np.eye(9).tolist(), "cost2": (2 * np.eye(9)).tolist(),
            "prior": {"kind": "common", "mean": [0.0] * 9, "scale": 1.0}}
    with pytest.raises(ValueError):
        recipes.exact_crossings(specs["reference_naive"])
    for model in (recipes.exact_crossings, recipes.exact_constants):
        for spec in (specs["equal_costs_bounds"], wide):  # a span-form projector, and d = 9
            with pytest.raises(ValueError):
                model(spec)


def test_classify_exits_0_only_with_the_exact_crossing_count(tmp_path):
    # a wrong exit 0 is the worst outcome a check can give: wherever classify exits 0 on a scenario the
    # model takes, its printed count is the model's, on the committed scenarios and 300 draws at d <= 4
    scenarios = [*recipes.committed_scenarios(), *recipes.small_dimension_scenarios(count=300)]
    checked = 0
    for i, (_, spec) in enumerate(scenarios):
        try:
            count = recipes.exact_crossings(spec)
        except ValueError:
            continue  # a naive prior or a span-form projector
        path = tmp_path / f"{i:04d}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["classify", str(path)])
        if code == 0:
            checked += 1
            assert re.search(r"utility crossings: (\d+)", out.getvalue()).group(1) == str(count), spec
    assert checked > 100
