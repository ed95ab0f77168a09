"""bench/pairs.py: alternating pairs of perfbench, the bench/ suite and the probes on two checkouts.

Every test fakes the commands the runner starts, so none runs perfbench or pytest-benchmark.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}


def load_runner():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "bench" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake(monkeypatch, runner, walls=None, minima=None):
    """Record every perfbench run and every pytest-benchmark report the runner asks for, and give
    each side's next value of every metric or next case minimum; a probe's extra_info names its
    side. A checkout's last path component is its side."""
    calls = []

    def perfbench(checkout, workload, seed, benchmark):
        side = Path(checkout).name
        calls.append(("perfbench", side, workload, seed))
        value = next(walls[side])
        result = {"correct": True, "attempted": 6, "failed": 0,
                  "metrics": {m["name"]: {"value": value} for m in benchmark["end_to_end"]}}
        return {"rounds": 2.0, "result": result}

    def benchmarks(checkout, *selection):
        side = Path(checkout).name
        calls.append(("pytest", side, *selection))
        if selection == ("bench/test_probes.py",):
            return [{"name": "test_probe", "extra_info": {"side": side}}]
        return [{"name": "test_case", "stats": {"min": next(minima[side])}}]

    monkeypatch.setattr(runner, "perfbench", perfbench)
    monkeypatch.setattr(runner, "benchmarks", benchmarks)
    return calls


PROBES = [("pytest", "parent", "bench/test_probes.py"), ("pytest", "change", "bench/test_probes.py")]


def test_rounds_alternate_and_summary_counts_wins(monkeypatch):
    runner = load_runner()
    minima = {"parent": iter([2.0, 2.0, 2.0]), "change": iter([1.0, 3.0, 1.5])}
    calls = fake(monkeypatch, runner, minima=minima)
    result = runner.pairs("parent", "change", 3, [], "test_case", BENCHMARK)
    suite = [("pytest", side, "bench", "-k", "test_case") for side in ("parent", "change")]
    assert calls == [*suite, *suite[::-1], *suite, *PROBES]
    assert [(run["pair"], run["side"]) for run in result["suite"]["runs"]] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"), (3, "parent"), (3, "change")]
    assert result["suite"]["summary"] == {"test_case": {
        "parent_median": 2.0, "change_median": 1.5, "parent_iqr": 0.0, "change_over_parent": 0.75,
        "change_better_pairs": 2, "pairs": 3, "gain_shown": False,
    }}
    assert result["probes"] == {"parent": {"test_probe": {"side": "parent"}},
                                "change": {"test_probe": {"side": "change"}}}


def test_suite_rounds_keep_each_case_extra_info(monkeypatch):
    runner = load_runner()

    def benchmarks(checkout, *selection):
        side = Path(checkout).name
        return [{"name": "test_timed", "stats": {"min": 1.0}, "extra_info": {"side": side}},
                {"name": "test_plain", "stats": {"min": 2.0}, "extra_info": {}}]

    monkeypatch.setattr(runner, "benchmarks", benchmarks)
    result = runner.pairs("parent", "change", 1, [], "test", BENCHMARK)
    assert [run["extra_info"] for run in result["suite"]["runs"]] == [
        {"test_timed": {"side": "parent"}}, {"test_timed": {"side": "change"}}]


def test_pairs_alternate_and_summary_reads_each_metric(monkeypatch):
    runner = load_runner()
    walls = {"parent": iter([2.0, 2.0, 4.0]), "change": iter([1.0, 3.0, 2.5])}
    calls = fake(monkeypatch, runner, walls=walls)
    result = runner.pairs("parent", "change", 3, ["w"], None, BENCHMARK)
    assert calls == [("perfbench", "parent", "w", 1), ("perfbench", "change", "w", 1),
                     ("perfbench", "change", "w", 2), ("perfbench", "parent", "w", 2),
                     ("perfbench", "parent", "w", 3), ("perfbench", "change", "w", 3), *PROBES]
    assert "suite" not in result
    summary = result["perfbench"]["summary"]["w"]
    assert summary["wall_s"] == {
        "parent_median": 2.0, "change_median": 2.5, "parent_iqr": 1.0, "change_over_parent": 1.25,
        "bound": 0.25, "within_bound": True, "change_better_pairs": 2, "pairs": 3, "gain_shown": False,
    }
    assert summary["change_operations"] == {"attempted": 18, "failed": 0, "runs_correct": 3, "rounds": [2.0] * 3}


def test_each_pair_runs_its_workloads_then_its_suite_round(monkeypatch):
    runner = load_runner()
    walls = {side: iter([1.0] * 4) for side in ("parent", "change")}
    minima = {side: iter([1.0] * 2) for side in ("parent", "change")}
    calls = fake(monkeypatch, runner, walls=walls, minima=minima)
    runner.pairs("parent", "change", 2, ["a", "b"], "x", BENCHMARK)
    assert [call[:3] if call[0] == "perfbench" else call[:2] for call in calls] == [
        ("perfbench", "parent", "a"), ("perfbench", "change", "a"),
        ("perfbench", "parent", "b"), ("perfbench", "change", "b"), ("pytest", "parent"), ("pytest", "change"),
        ("perfbench", "change", "a"), ("perfbench", "parent", "a"),
        ("perfbench", "change", "b"), ("perfbench", "parent", "b"), ("pytest", "change"), ("pytest", "parent"),
        ("pytest", "parent"), ("pytest", "change"),
    ]


def test_gain_shown_needs_nine_pairs_of_ten_and_a_gap_wider_than_the_parent_iqr():
    summarise = load_runner().summarise
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]  # inclusive quartiles 11 and 13
    assert summarise(parent, [p - 2.5 for p in parent])["gain_shown"]
    # the same drop with one pair lost: 9 of 10 still shows it, 8 of 10 does not
    assert summarise(parent, [p - 2.5 for p in parent[:9]] + [20.0])["gain_shown"]
    assert not summarise(parent, [p - 2.5 for p in parent[:8]] + [20.0, 20.0])["gain_shown"]
    # every pair won, but the medians differ by no more than the parent's spread
    narrow = summarise(parent, [p - 2.0 for p in parent])
    assert narrow["change_better_pairs"] == 10 and narrow["parent_iqr"] == 2.0 and not narrow["gain_shown"]
    # nine pairs are too few, all won or not
    assert not summarise(parent[:9], [p - 2.5 for p in parent[:9]])["gain_shown"]
    # a tie counts for neither side
    assert summarise([1.0, 1.0], [1.0, 1.0])["change_better_pairs"] == 0
    higher = summarise(parent, [p + 2.5 for p in parent], better="higher", bound=0.1)
    assert higher["gain_shown"] and higher["within_bound"]
    assert not summarise(parent, [p + 2.5 for p in parent], bound=0.1)["within_bound"]


def test_pairs_run_keeps_the_last_line_and_the_round_count(tmp_path):
    runner = load_runner()
    line = {"correct": True, "attempted": 15, "failed": 0, "metrics": {}}
    (tmp_path / "fake_run.py").write_text(
        "import sys\n"
        "print(f'workload {sys.argv[2]}, seed {sys.argv[4]}: 3 operations per round')\n"
        f"print({json.dumps(json.dumps(line))})\n",
        encoding="utf-8",
    )
    benchmark = {"command": [sys.executable, "fake_run.py"], "run_seconds": 10}
    assert runner.perfbench(tmp_path, "dense_grid", 1, benchmark) == {"rounds": 5.0, "result": line}


def test_benchmarks_reads_the_benchmark_json_of_the_sides_src(monkeypatch, tmp_path):
    runner = load_runner()
    seen = []
    report = {"benchmarks": [{"name": "test_case", "stats": {"min": 0.5}, "extra_info": {}}]}

    def fake_run(argv, cwd, check, stdout):
        seen.append((argv, cwd))
        out = next(arg for arg in argv if arg.startswith("--benchmark-json="))
        Path(out.split("=", 1)[1]).write_text(json.dumps(report), encoding="utf-8")
        return subprocess.CompletedProcess(argv, 0)

    monkeypatch.setattr(runner.subprocess, "run", fake_run)
    assert runner.benchmarks(tmp_path, "bench", "-k", "case") == report["benchmarks"]
    (argv, cwd), = seen
    assert cwd == ROOT
    assert argv[:6] == [sys.executable, "-m", "pytest", "bench", "-k", "case"]
    assert f"pythonpath={tmp_path / 'src'}" in argv


def test_one_command_writes_every_section(monkeypatch, tmp_path):
    runner = load_runner()
    walls = {side: iter([1.0]) for side in ("parent", "change")}
    minima = {side: iter([1.0]) for side in ("parent", "change")}
    fake(monkeypatch, runner, walls=walls, minima=minima)
    out = tmp_path / "bench.json"
    assert runner.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--pairs", "1", "--workload", "cli_reference",
                        "-k", "test_case", "--out", str(out)]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    assert list(result) == ["parent", "change", "perfbench", "suite", "probes"]
    assert list(result["perfbench"]["summary"]) == ["cli_reference"]
    assert [m for m in result["perfbench"]["summary"]["cli_reference"] if not m.endswith("_operations")] == [
        "setup_s", "wall_s", "call_s", "peak_rss_mb"]
    assert result["suite"]["selection"] == "test_case"
