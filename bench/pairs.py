"""Run perfbench on two checkouts in alternating pairs, and summarise each end-to-end metric.

    python bench/pairs.py PARENT_DIR CHANGE_DIR [--pairs K] [--workload W ...] [--out FILE]

PARENT_DIR and CHANGE_DIR are whole checkouts, for example two
``git archive`` copies. perfbench/run.py runs from the root of each, so
each side reads its own files and writes its own perfbench/_work. Pair p
runs every workload once on each side with ``--seed p``, odd pairs the
parent first and even pairs the change first, so a machine that grows
busier or quieter during the run does not favour one side. The command,
the run length, the gated workloads and each metric's bound come from
this checkout's BENCHMARK.json.

The output is one JSON object. It holds every run's last line, which is
perfbench's result, with the run's round count beside it: the operations
attempted over the operations per round that the run printed first.
Per workload and metric it holds both sides' medians, the parent's
interquartile range (inclusive quartiles), the change's median over the
parent's beside the bound, and the number of pairs in which the change
read lower. Only the standard library is used, and nothing on the machine
is set.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

_OPS_PER_ROUND = re.compile(r"(\d+) operations per round")


def run(checkout, workload, seed, benchmark):
    """One perfbench run from the root of ``checkout``: its result line and its round count."""
    proc = subprocess.run(
        [*benchmark["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(benchmark["run_seconds"]), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    per_round = int(_OPS_PER_ROUND.search(proc.stdout).group(1))
    return {"rounds": result["attempted"] / per_round, "result": result}


def _quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def summarise(runs, workloads, metrics):
    """Per workload: each metric's medians, the parent's IQR, the ratio against its bound, and the
    pairs the change read lower; then each side's operations, correct runs and round counts."""
    summary = {}
    for workload in workloads:
        mine = {side: sorted((r for r in runs if r["workload"] == workload and r["side"] == side),
                             key=lambda r: r["pair"]) for side in SIDES}
        entry = summary[workload] = {}
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            parent, change = ([r["result"]["metrics"][name]["value"] for r in mine[side]] for side in SIDES)
            q1, _, q3 = _quartiles(parent)
            ratio = statistics.median(change) / statistics.median(parent)
            entry[name] = {
                "parent_median": statistics.median(parent),
                "change_median": statistics.median(change),
                "parent_iqr": q3 - q1,
                "change_over_parent": ratio,
                "bound": bound,
                "within_bound": ratio <= 1.0 + bound if metric["better"] == "lower" else ratio >= 1.0 - bound,
                "change_lower_pairs": sum(c < p for p, c in zip(parent, change)),
                "pairs": len(parent),
            }
        for side in SIDES:
            results = [r["result"] for r in mine[side]]
            entry[f"{side}_operations"] = {
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "runs_correct": sum(r["correct"] for r in results),
                "rounds": [r["rounds"] for r in mine[side]],
            }
    return summary


def pairs(parent, change, count, workloads, benchmark):
    runs = []
    for pair in range(1, count + 1):
        order = (("parent", parent), ("change", change))
        for workload in workloads:
            for side, checkout in order if pair % 2 else order[::-1]:
                runs.append({"pair": pair, "side": side, "workload": workload,
                             **run(checkout, workload, pair, benchmark)})
    return {"parent": str(parent), "change": str(change), "runs": runs,
            "summary": summarise(runs, workloads, benchmark["end_to_end"])}


def main(argv=None):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    gated = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's checkout")
    parser.add_argument("change", type=Path, help="the change's checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=gated,
                        help="a workload to run (repeatable); default: every gated workload")
    parser.add_argument("--out", type=Path, help="write the JSON here instead of to stdout")
    args = parser.parse_args(argv)
    result = pairs(args.parent.resolve(), args.change.resolve(), args.pairs, args.workload or gated, benchmark)
    text = json.dumps(result, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
