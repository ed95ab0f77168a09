"""bench/recipes.py: the defect probes' scenario recipes, pinned by digest, and the exact model's
crossing count, pinned on scenarios whose count is known.

The probes' counts in CHANGES.md and every BENCH file are counts over
these scenarios, so a recipe edit that moves one draw must show here.
"""

import hashlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

from flab import cli
from flab.cli import load_scenario
from flab.errors import Error

ROOT = Path(__file__).resolve().parent.parent


def load_recipes():
    spec = importlib.util.spec_from_file_location("bench_recipes", ROOT / "bench" / "recipes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


recipes = load_recipes()

# (scenarios, sha256 of every scenario as sorted-key JSON, one a line), recorded from the generators
# as they stood in bench/test_probes.py before they moved
DIGESTS = {
    "classify_scenarios": (600, "543a5cea8b6080b2b655e5e55ec2428fe580cdb66c715afaf89436c320ac6e04"),
    "neutrality_scenarios": (400, "e5ef128c245dbd45ec3464c0cfb7392c411fa23d9064574c7503846ca72c918e"),
    "exact_multiple_scenarios": (1000, "d70ab7ca01c2603fe07d75f0e68c2a2f48559f64d0e5198ccf1edbe38c898ae1"),
    "unit_change_scenarios": (75, "fbcb5ce5eddf103fc339c630e37168400c3ee4f4502d13c9c7980f1da29794b6"),
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


@pytest.mark.parametrize("t, count", [(1.99999999, 2), (2.0, 1)])
def test_exact_crossings_of_a_mean_near_twice_the_rule(t, count):
    # at t = 1.99999999 classify's scan window holds one of the two roots, so it exits 4 with a count of 1
    spec = dict(recipes.committed_scenarios())["reference_common"]
    spec["prior"] = {"kind": "common", "mean": [t * v for v in spec["rule"]], "scale": 1.0}
    assert recipes.exact_crossings(spec) == count


def test_exact_crossings_of_a_double_root_and_of_a_zero_rule():
    # U(w) = 25/16 w^2 - 5/8 w + 1/16 = (25/16)(w - 1/5)^2 touches zero at w = 1/5
    spec = {"dimension": 2, "rule": [2.0, 0.0], "cost1": [[1.0, 0.0], [0.0, 1.0]],
            "cost2": [[2.0, 0.0], [0.0, 4.0]], "prior": {"kind": "common", "mean": [0.5, -1.0], "scale": 2.0}}
    assert recipes.exact_crossings(spec) == 0
    spec["rule"] = [0.0, 0.0]
    assert recipes.exact_crossings(spec) == 0
