"""Time this checkout's bench/ suite against two flab source trees, in alternating rounds.

    python bench/alternate.py PARENT_SRC CHANGE_SRC -k EXPR [--rounds K] [--out FILE] [PYTEST_OPTION ...]

Run from the root of a checkout. Each round runs the selected benchmarks
once against each tree, odd rounds the parent first and even rounds the
change first, so a machine that grows busier or quieter during the run
does not favour one side. pytest imports flab from the given tree
(``-o pythonpath=TREE``), so the bench files are the same on both sides
and must use only names and signatures both trees share. Any other
option, such as ``--benchmark-max-time=0.1``, is passed on to pytest.

The output is one JSON object: every run's minimum time per benchmark,
and per benchmark the median over rounds of the change's minimum over the
parent's, and the number of rounds in which the change's minimum was the
lower. Only the standard library and pytest-benchmark's
``--benchmark-json`` are used, and nothing on the machine is set.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def minima(src, selection, options=()):
    """Each selected benchmark's minimum time in seconds, timed against the flab in ``src``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bench.json"
        subprocess.run(
            [sys.executable, "-m", "pytest", "bench", "-q", "-p", "no:cacheprovider", "-k", selection,
             "-o", f"pythonpath={src}", "--benchmark-quiet", f"--benchmark-json={out}", *options],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        report = json.loads(out.read_text(encoding="utf-8"))
    return {b["name"]: b["stats"]["min"] for b in report["benchmarks"]}


def alternate(parent, change, selection, rounds, options=()):
    runs = []
    for r in range(1, rounds + 1):
        order = (("parent", parent), ("change", change))
        for side, src in order if r % 2 else order[::-1]:
            runs.append({"round": r, "side": side, "min_s": minima(src, selection, options)})
    summary = {}
    for name in runs[0]["min_s"]:
        ratios = []
        for r in range(1, rounds + 1):
            side = {run["side"]: run["min_s"][name] for run in runs if run["round"] == r}
            ratios.append(side["change"] / side["parent"])
        summary[name] = {"median_ratio": statistics.median(ratios), "change_wins": sum(x < 1.0 for x in ratios),
                         "rounds": rounds}
    return {"parent": str(parent), "change": str(change), "selection": selection, "runs": runs, "summary": summary}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's src/ directory")
    parser.add_argument("change", type=Path, help="the change's src/ directory")
    parser.add_argument("-k", dest="selection", required=True, help="pytest -k expression")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--out", type=Path, help="write the JSON here instead of to stdout")
    args, options = parser.parse_known_args(argv)
    result = alternate(args.parent.resolve(), args.change.resolve(), args.selection, args.rounds, options)
    text = json.dumps(result, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
