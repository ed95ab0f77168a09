"""Golden SHA-256 digests of CLI outputs on the committed scenarios.

The digests pin output bytes across refactors: `verify` stdout at each
scenario's own n and seed, on one 3001-level grid and at perfbench's
`mc_large_n` n and seed, the `sweep` CSV and SVG files
(one set on a linear grid), the `bounds` table, and the `classify` and `validate` reports. A change that moves them on purpose records the old and
new digests in CHANGES.md. Two more files, in tests/data, are what
`perfbench/gen.py --seed 1` writes for the `dense_grid` workload: their
20,000-point `sweep` files and a 10,000-point `bounds` table are pinned too.
The Monte Carlo oracle's bits are pinned in process, on the four scenarios
with an `mc` block and the d=32 files `perfbench/gen.py --seed 7` writes.
"""

import hashlib
import json
import threading
from pathlib import Path

import pytest

from flab import cli
from flab.closed_form import sigma_grid
from flab.mc_oracle import estimate_disparities

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DATA = Path(__file__).resolve().parent / "data"

VERIFY = {
    "reference_naive": "260225e67e3e29730beb68ce590e5205d3187f69f55de8527afbda240fd44011",
    "reference_common": "bc5c82b7d42bafd94b550cf7ec8a2c5df6b967494d28116ff6d56143bfbfd59a",
    "reference_projected": "d09a552ffedd7c01f2f17e2e78b272c04ada7b7191323a1c200d176c302b6350",
    "two_crossings": "50c9902fab2fb20d41feb9bfdb45f606cff843dbc53856a349c5302cd6fe16f6",
    # row formatting over arrays far longer than the six default levels
    "reference_common --n 1000 --seed 1 --points 3000": "79fa5d6b57d8d54b3fae8bfda70bdc20159c074102ee8718725a90038943b33c",
    # the mc_large_n workload of perfbench: 245 blocks of agents, the last one of 576
    "reference_naive --n 1000000 --seed 42": "3b5e16aeeed8310d67cee5c8c8a235ef4e8b04b970fb1c157fc45d9f39b78880",
    "reference_common --n 1000000 --seed 42": "7e8c8f8a40739b8a245df7b1eae784ab65737e5c346385c8d6acfce1201ef320",
    "reference_projected --n 1000000 --seed 42": "5d1ddff3f39308288f8a9796723dffc5bbace3f13b8b4705b55467ef03f91882",
}

# sha256 of the CSV bytes followed by the SVG bytes
SWEEP = {
    "reference_naive": "885681b7a7bc9d8caae49821fc5a920923d38d2ec221f7fe70a30d877727ee05",
    "reference_common": "4802d1969bdbdf8981809e13f7a17ca8fe3ffec05436a1f75c103620abf770b2",
    "reference_projected": "91b84a125e695abad01bfd580d2e93f3eecf357ec9f38d950509bdddab93405c",
    "two_crossings": "44a34eb1c5764b3c9fc95f9c4265383bdb9fb9fc115fdfd9c36c2613c9f1e225",
    "equal_costs_bounds": "33ef2f51022ad58439435a30a0036ab5110e5aa3f38ed89682c16fd510986682",
}

# reference_common over a linear grid from zero, the only golden of the linear axis
LINEAR_GRID = {"sigma_min": 0.0, "sigma_max": 10.0, "points": 11, "spacing": "linear"}
SWEEP_LINEAR = "9a118c4683adc335fd1df8ee9ce88fe91b993d96ffeb4ffea3be90da4ba1ab2d"

BOUNDS = {
    "equal_costs_bounds": "63a6acbd74be41a0dbe01d6c68e81807656e41158f7813bf4582cc6fcd559518",
}

# the dense_grid workload's inputs, as perfbench/gen.py --seed 1 writes them
DENSE_SWEEP = {
    "dense_common": "c3584b139ebc4da255c878298b510a7c5490092e20ea4da139aa99b8737e05b3",
    "dense_equal": "c55cfcd55d40505c060328f939c459e0065fe22b7d3c0b767c8ff802324bedd6",
}
DENSE_BOUNDS = "4a4b4d7e9805b98554839983e881d1be6dc13aa0d1c727751dc6748ad42e3c15"  # dense_equal --points 10000

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

# sha256 of the float.hex lines of every estimate_disparities mean and then every standard error, at
# seed 42, n = 1000 and 100003, and sigma = 0 followed by sigma_grid(sc, 6), scenario by scenario
ORACLE = "d2b2e2acf5eb07bbd7efd7f15fefa4c61e4f43aba5dcdf110a2c3cbdffa17d77"
ORACLE_FILES = (*(SCENARIOS / f"{name}.json" for name in ("reference_common", "reference_naive",
                                                          "reference_projected", "two_crossings")),
                DATA / "highdim_common.json", DATA / "highdim_projected.json")


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
    # n = 100000 is 25 blocks of 2^12 agents, 24 full and one of 1,696, so the block loop runs 25 times
    assert cli.main(["verify", str(SCENARIOS / "reference_naive.json")]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == VERIFY["reference_naive"]


def test_oracle_bits():
    lines = []
    for path in ORACLE_FILES:
        sc = cli.load_scenario(str(path)).scenario
        for n in (1000, 100003):
            for values in estimate_disparities(sc, [0.0, *sigma_grid(sc, 6)], n, 42):
                lines += [v.hex() for v in values.ravel().tolist()]
    assert _sha256("\n".join(lines).encode()) == ORACLE


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_sweep_files(name, tmp_path):
    csv, svg = tmp_path / "out.csv", tmp_path / "out.svg"
    path = str(SCENARIOS / f"{name}.json")
    assert cli.main(["sweep", path, "--out-csv", str(csv), "--out-svg", str(svg)]) == 0
    assert _sha256(csv.read_bytes() + svg.read_bytes()) == SWEEP[name]


def test_sweep_files_linear_grid(tmp_path):
    body = json.loads((SCENARIOS / "reference_common.json").read_text(encoding="utf-8"))
    body["sweep"] = LINEAR_GRID
    path = tmp_path / "reference_common.json"
    path.write_text(json.dumps(body), encoding="utf-8")
    csv, svg = tmp_path / "out.csv", tmp_path / "out.svg"
    assert cli.main(["sweep", str(path), "--out-csv", str(csv), "--out-svg", str(svg)]) == 0
    assert _sha256(csv.read_bytes() + svg.read_bytes()) == SWEEP_LINEAR


@pytest.mark.parametrize("name", sorted(DENSE_SWEEP))
def test_dense_sweep_files(name, tmp_path):
    csv, svg = tmp_path / "out.csv", tmp_path / "out.svg"
    assert cli.main(["sweep", str(DATA / f"{name}.json"), "--out-csv", str(csv), "--out-svg", str(svg)]) == 0
    assert _sha256(csv.read_bytes() + svg.read_bytes()) == DENSE_SWEEP[name]


def test_dense_bounds_stdout(capsys):
    assert cli.main(["bounds", str(DATA / "dense_equal.json"), "--points", "10000"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == DENSE_BOUNDS


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
