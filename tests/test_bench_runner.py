"""bench/alternate.py: alternating rounds of the bench/ suite against two source trees."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runner():
    spec = importlib.util.spec_from_file_location("bench_alternate", ROOT / "bench" / "alternate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rounds_alternate_and_summary_counts_wins(monkeypatch):
    runner = load_runner()
    calls = []
    times = {"parent": iter([2.0, 2.0, 2.0]), "change": iter([1.0, 3.0, 1.5])}

    def fake_minima(src, selection, options=()):
        calls.append(src)
        return {"test_case": next(times[src])}

    monkeypatch.setattr(runner, "minima", fake_minima)
    result = runner.alternate("parent", "change", "test_case", 3)
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    assert [run["round"] for run in result["runs"]] == [1, 1, 2, 2, 3, 3]
    assert result["summary"] == {"test_case": {"median_ratio": 0.75, "change_wins": 2, "rounds": 3}}


def test_one_round_on_one_case_writes_its_json(tmp_path):
    out = tmp_path / "alternate.json"
    src = str(ROOT / "src")
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "alternate.py"), src, src, "-k", "test_load_scenario",
         "--rounds", "1", "--out", str(out), "--benchmark-max-time=0.001", "--benchmark-min-rounds=1"],
        check=True, timeout=300,
    )
    result = json.loads(out.read_text(encoding="utf-8"))
    assert (result["parent"], result["change"], result["selection"]) == (src, src, "test_load_scenario")
    assert [(run["round"], run["side"]) for run in result["runs"]] == [(1, "parent"), (1, "change")]
    for run in result["runs"]:
        assert list(run["min_s"]) == ["test_load_scenario"]
        assert run["min_s"]["test_load_scenario"] > 0.0
    summary = result["summary"]["test_load_scenario"]
    assert summary["rounds"] == 1 and summary["change_wins"] in (0, 1) and summary["median_ratio"] > 0.0


def load_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "bench" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_alternate_and_summary_reads_each_metric(monkeypatch):
    runner = load_pairs()
    calls = []
    walls = {"parent": iter([2.0, 2.0, 4.0]), "change": iter([1.0, 3.0, 2.5])}

    def fake_run(checkout, workload, seed, benchmark):
        calls.append((checkout, workload, seed))
        result = {"correct": True, "attempted": 6, "failed": 0,
                  "metrics": {"wall_s": {"value": next(walls[checkout]), "unit": "s"}}}
        return {"rounds": 2.0, "result": result}

    monkeypatch.setattr(runner, "run", fake_run)
    benchmark = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    result = runner.pairs("parent", "change", 3, ["w"], benchmark)
    assert calls == [("parent", "w", 1), ("change", "w", 1), ("change", "w", 2), ("parent", "w", 2),
                     ("parent", "w", 3), ("change", "w", 3)]
    summary = result["summary"]["w"]
    assert summary["wall_s"] == {
        "parent_median": 2.0, "change_median": 2.5, "parent_iqr": 1.0, "change_over_parent": 1.25,
        "bound": 0.25, "within_bound": True, "change_lower_pairs": 2, "pairs": 3,
    }
    assert summary["change_operations"] == {"attempted": 18, "failed": 0, "runs_correct": 3, "rounds": [2.0] * 3}


def test_pairs_run_keeps_the_last_line_and_the_round_count(tmp_path):
    runner = load_pairs()
    line = {"correct": True, "attempted": 15, "failed": 0, "metrics": {}}
    (tmp_path / "fake_run.py").write_text(
        "import sys\n"
        "print(f'workload {sys.argv[2]}, seed {sys.argv[4]}: 3 operations per round')\n"
        f"print({json.dumps(json.dumps(line))})\n",
        encoding="utf-8",
    )
    benchmark = {"command": [sys.executable, "fake_run.py"], "run_seconds": 10}
    assert runner.run(tmp_path, "dense_grid", 1, benchmark) == {"rounds": 5.0, "result": line}
