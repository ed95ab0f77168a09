"""Golden SHA-256 digests of CLI outputs on the committed scenarios.

The digests pin output bytes across refactors: `verify` stdout at each
scenario's own n and seed and on one 3001-level grid, the `sweep` CSV and SVG files, the `bounds`
table, and the `classify` and `validate` reports. A change that moves them on purpose records the old and
new digests in CHANGES.md.
"""

import hashlib
import threading
from pathlib import Path

import pytest

from flab import cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

VERIFY = {
    "reference_naive": "260225e67e3e29730beb68ce590e5205d3187f69f55de8527afbda240fd44011",
    "reference_common": "bc5c82b7d42bafd94b550cf7ec8a2c5df6b967494d28116ff6d56143bfbfd59a",
    "reference_projected": "d09a552ffedd7c01f2f17e2e78b272c04ada7b7191323a1c200d176c302b6350",
    "two_crossings": "50c9902fab2fb20d41feb9bfdb45f606cff843dbc53856a349c5302cd6fe16f6",
    # row formatting over arrays far longer than the six default levels
    "reference_common --n 1000 --seed 1 --points 3000": "79fa5d6b57d8d54b3fae8bfda70bdc20159c074102ee8718725a90038943b33c",
}

# sha256 of the CSV bytes followed by the SVG bytes
SWEEP = {
    "reference_naive": "885681b7a7bc9d8caae49821fc5a920923d38d2ec221f7fe70a30d877727ee05",
    "reference_common": "4802d1969bdbdf8981809e13f7a17ca8fe3ffec05436a1f75c103620abf770b2",
    "reference_projected": "91b84a125e695abad01bfd580d2e93f3eecf357ec9f38d950509bdddab93405c",
    "two_crossings": "44a34eb1c5764b3c9fc95f9c4265383bdb9fb9fc115fdfd9c36c2613c9f1e225",
    "equal_costs_bounds": "33ef2f51022ad58439435a30a0036ab5110e5aa3f38ed89682c16fd510986682",
}

BOUNDS = {
    "equal_costs_bounds": "63a6acbd74be41a0dbe01d6c68e81807656e41158f7813bf4582cc6fcd559518",
}

# equal_costs_bounds is left out: its zero trace gap makes classify exit 3
CLASSIFY = {
    "reference_naive": "24102437d3006df4bcd777c67af7ba2a232389079adf7f6d30d2b900e3fc762a",
    "reference_common": "b89b8b8a1c5c9027835e87a9a9a13357a6c92199e9f88ed5d28f5256a63c0d30",
    "reference_projected": "b51e77fb21e63eafb8081c11a04dd6d9f41fc547e94cd3370588caf9b1b77c0e",
    "two_crossings": "2dc8e403a42105a06ad5e42cdb30f56f160d6dd9809d4a435f4633240b21ffb8",
}

VALIDATE = {
    "reference_naive": "044769b33677ec4b7ba5107c4d005cc834f7cc8aac1f8747d36ea00dd0badaba",
    "reference_common": "2b7167fb6497ef2469582af3ec10963c4761c63834e9f9426b4ea0c416137e48",
    "reference_projected": "b0ceaf25eb9165f0bc6902bf06f57999e148f2799bc82ce185acaa50b3840041",
    "two_crossings": "7322be876123f754c9225b3d52b7c20d405dc0afce45a1744164effd20e11dd1",
    "equal_costs_bounds": "88cdd5e3818f71c2f16958c60e5f8c0b91077750caeb7a7d9797711f585a887f",
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(VERIFY))
def test_verify_stdout(name, capsys):
    scenario, *flags = name.split()
    assert cli.main(["verify", str(SCENARIOS / f"{scenario}.json"), *flags]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == VERIFY[name]


def test_verify_starts_no_thread(capsys, monkeypatch):
    def refuse(thread):
        raise AssertionError(f"verify started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    # n = 100000 is four blocks of agents, so the block loop runs four times
    assert cli.main(["verify", str(SCENARIOS / "reference_naive.json")]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == VERIFY["reference_naive"]


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_sweep_files(name, tmp_path):
    csv, svg = tmp_path / "out.csv", tmp_path / "out.svg"
    path = str(SCENARIOS / f"{name}.json")
    assert cli.main(["sweep", path, "--out-csv", str(csv), "--out-svg", str(svg)]) == 0
    assert _sha256(csv.read_bytes() + svg.read_bytes()) == SWEEP[name]


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_bounds_stdout(name, capsys):
    assert cli.main(["bounds", str(SCENARIOS / f"{name}.json")]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == BOUNDS[name]


@pytest.mark.parametrize("name", sorted(CLASSIFY))
def test_classify_stdout(name, capsys):
    assert cli.main(["classify", str(SCENARIOS / f"{name}.json")]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == CLASSIFY[name]


@pytest.mark.parametrize("name", sorted(VALIDATE))
def test_validate_stdout(name, capsys):
    assert cli.main(["validate", str(SCENARIOS / f"{name}.json")]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == VALIDATE[name]
