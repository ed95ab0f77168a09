"""Compare two checkouts in alternating pairs: perfbench, the bench/ suite and the defect probes.

    python bench/pairs.py PARENT CHANGE [--pairs K] [--workload W ...] [-k EXPR] [--out FILE]

PARENT and CHANGE are whole checkouts, for example two ``git archive``
copies. Pair p runs on each side, odd pairs the parent first and even
pairs the change first, so a machine that grows busier or quieter during
the run does not favour one side:

- every workload of perfbench/run.py with ``--seed p``, from the root of
  each checkout, so each side reads its own files and writes its own
  perfbench/_work. The command, the run length, the gated workloads and
  each metric's bound come from this checkout's BENCHMARK.json.
- with ``-k EXPR``, the bench/ cases that EXPR selects, once: this
  checkout's bench files against the side's src (``-o pythonpath=SIDE/src``),
  so the bench files must use only names and signatures both sides share.
  Each case keeps its pytest-benchmark minimum, and its ``extra_info``
  where it records one.

After the pairs, bench/test_probes.py runs once on each side, the parent
first, and each probe keeps its ``extra_info``.

The output is one JSON object with a section for each part. The perfbench
section holds every run's last line, which is perfbench's result, with
the run's round count beside it: the operations attempted over the
operations per round that the run printed first. `summarise` gives each
workload's metrics and each bench/ case the same summary. Only the
standard library is used, and nothing on the machine is set.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

_OPS_PER_ROUND = re.compile(r"(\d+) operations per round")


def perfbench(checkout, workload, seed, benchmark):
    """One perfbench run from the root of ``checkout``: its result line and its round count."""
    proc = subprocess.run(
        [*benchmark["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(benchmark["run_seconds"]), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    per_round = int(_OPS_PER_ROUND.search(proc.stdout).group(1))
    return {"rounds": result["attempted"] / per_round, "result": result}


def benchmarks(checkout, *selection):
    """pytest-benchmark's report on the cases of this checkout's bench/ that ``selection`` picks,
    run against the flab in ``checkout``/src."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bench.json"
        subprocess.run(
            [sys.executable, "-m", "pytest", *selection, "-q", "-p", "no:cacheprovider",
             "-o", f"pythonpath={Path(checkout) / 'src'}", "--benchmark-quiet", f"--benchmark-json={out}"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        return json.loads(out.read_text(encoding="utf-8"))["benchmarks"]


def summarise(parent, change, better="lower", bound=None):
    """Both sides' medians over the pairs, the parent's interquartile range (inclusive quartiles),
    the change's median over the parent's beside ``bound`` if there is one, the pairs in which the
    change read better, and whether that shows a gain: at least ten pairs, the change better in at
    least nine of each ten, and its median better than the parent's by more than the parent's
    interquartile range."""
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else parent * 3
    before, after = statistics.median(parent), statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    entry = {"parent_median": before, "change_median": after, "parent_iqr": q3 - q1,
             "change_over_parent": after / before}
    if bound is not None:
        entry["bound"] = bound
        entry["within_bound"] = after / before <= 1.0 + bound if sign > 0 else after / before >= 1.0 - bound
    shown = len(parent) >= 10 and 10 * wins >= 9 * len(parent) and sign * (before - after) > q3 - q1
    entry.update(change_better_pairs=wins, pairs=len(parent), gain_shown=shown)
    return entry


def pairs(parent, change, count, workloads, selection, benchmark):
    checkouts = dict(zip(SIDES, (parent, change)))
    runs, rounds = [], []
    for pair in range(1, count + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                runs.append({"pair": pair, "side": side, "workload": workload,
                             **perfbench(checkouts[side], workload, pair, benchmark)})
        if selection:
            for side in order:
                report = benchmarks(checkouts[side], "bench", "-k", selection)
                rounds.append({"pair": pair, "side": side, "min_s": {b["name"]: b["stats"]["min"] for b in report},
                               "extra_info": {b["name"]: b["extra_info"] for b in report if b.get("extra_info")}})
    probes = {side: {b["name"]: b["extra_info"] for b in benchmarks(checkouts[side], "bench/test_probes.py")}
              for side in SIDES}

    summary = {}
    for workload in workloads:
        mine = {side: [r for r in runs if r["workload"] == workload and r["side"] == side] for side in SIDES}
        entry = summary[workload] = {
            m["name"]: summarise(*([r["result"]["metrics"][m["name"]]["value"] for r in mine[side]]
                                   for side in SIDES), m["better"], m["bound"])
            for m in benchmark["end_to_end"]
        }
        for side in SIDES:
            results = [r["result"] for r in mine[side]]
            entry[f"{side}_operations"] = {
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "runs_correct": sum(r["correct"] for r in results),
                "rounds": [r["rounds"] for r in mine[side]],
            }
    result = {"parent": str(parent), "change": str(change), "perfbench": {"runs": runs, "summary": summary}}
    if selection:
        cases = {case: summarise(*([r["min_s"][case] for r in rounds if r["side"] == side] for side in SIDES))
                 for case in rounds[0]["min_s"]}
        result["suite"] = {"selection": selection, "runs": rounds, "summary": cases}
    result["probes"] = probes
    return result


def main(argv=None):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    gated = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's checkout")
    parser.add_argument("change", type=Path, help="the change's checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=gated,
                        help="a workload to run (repeatable); default: every gated workload")
    parser.add_argument("-k", dest="selection", help="pytest -k expression of the bench/ cases to time")
    parser.add_argument("--out", type=Path, help="write the JSON here instead of to stdout")
    args = parser.parse_args(argv)
    result = pairs(args.parent.resolve(), args.change.resolve(), args.pairs, args.workload or gated,
                   args.selection, benchmark)
    text = json.dumps(result, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
