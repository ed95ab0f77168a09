"""Seeded defect probes, run in process, their counts kept with the timings (pytest-benchmark).

    python -m pytest bench --benchmark-json=bench.json

Run from the root of a checkout. Each probe runs the command on every
scenario of one recipe in ``bench/recipes.py`` and records its tally in
``benchmark.extra_info``, so ``--benchmark-json`` puts the counts in the
same file as the timings. A probe measures; it asserts no count. It uses
only ``flab.cli.main``, so one file probes two versions of flab alike.
The classify probes also measure the printed crossing count against the
exact model's (``recipes.exact_crossings``) on every run that exits 0.
"""

import contextlib
import io
import json
import re
from collections import Counter

import recipes
from flab import cli

UNIT_COMMANDS = (("validate",), ("sweep",), ("classify",), ("verify", "--n", "20000", "--seed", "1"), ("bounds",))
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?")
_CROSSINGS = re.compile(r"utility crossings: (\d+)")


def run(benchmark, tmp_path, recipe, commands=(("classify",),)):
    """Write each scenario of ``recipe`` to its own file, then run every command on each file through
    ``cli.main`` as one timed round: each scenario's key with its (exit code, stdout) per command."""
    keys, paths = [], []
    for i, (key, spec) in enumerate(recipe):
        paths.append(tmp_path / f"{i:04d}.json")
        paths[-1].write_text(json.dumps(spec), encoding="utf-8")
        keys.append(key)

    def outcome(command, path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command[0], str(path), *command[1:]])
        return code, out.getvalue()

    runs = benchmark.pedantic(lambda: [[outcome(c, p) for c in commands] for p in paths], rounds=1, iterations=1)
    return list(zip(keys, runs))


def model_check(scenarios, results):
    """The exit-0 classify runs, and those among them whose printed crossing count differs from the
    exact model's, as ``exit0_checked`` and ``exit0_model_differs``."""
    printed = [(spec, int(_CROSSINGS.search(out).group(1)))
               for (_, spec), (_, [(code, out)]) in zip(scenarios, results) if code == 0]
    return {"exit0_checked": len(printed),
            "exit0_model_differs": sum(count != recipes.exact_crossings(spec) for spec, count in printed)}


def exits(codes):
    """``{"code": n}`` over exit codes, in code order."""
    return {str(code): n for code, n in sorted(Counter(codes).items())}


def test_probe_classify_common_prior(benchmark, tmp_path):
    # the crossing-count probe (ROADMAP items 2 and 13): exit 4 is a count mismatch
    scenarios = list(recipes.classify_scenarios())
    results = run(benchmark, tmp_path, scenarios)
    benchmark.extra_info.update({
        "scenarios": len(results),
        "exit_codes": exits(code for _, [(code, _)] in results),
        "exits_by_rule": {kind: exits(code for k, [(code, _)] in results if k == kind) for kind in recipes.RULE_KINDS},
        **model_check(scenarios, results),
    })


def test_probe_classify_projected_neutrality(benchmark, tmp_path):
    # the neutrality probe: exit 4 from a score that misses zero at its own crossing, or a count mismatch
    scenarios = list(recipes.neutrality_scenarios())
    results = run(benchmark, tmp_path, scenarios)
    benchmark.extra_info.update({
        "scenarios": len(results),
        "exit_codes": exits(code for _, [(code, _)] in results),
        "vanishing_no_lines": sum(out.count("vanishes at the crossing: NO") for _, [(_, out)] in results),
        "mismatch_lines": sum(out.count("MISMATCH") for _, [(_, out)] in results),
        **model_check(scenarios, results),
    })


def test_probe_classify_exact_multiple(benchmark, tmp_path):
    # the exact-multiple probe (ROADMAP items 2 and 13): exit 4 is a count mismatch
    scenarios = list(recipes.exact_multiple_scenarios())
    results = run(benchmark, tmp_path, scenarios)
    benchmark.extra_info.update({
        "scenarios": len(results),
        "exits_by_multiple": {str(t): exits(code for m, [(code, _)] in results if m == t) for t in recipes.MULTIPLES},
        "negative_minimum_exits_by_multiple": {str(t): exits(code for m, [(code, out)] in results
                                                             if m == t and "(value -" in out) for t in recipes.MULTIPLES},
        **model_check(scenarios, results),
    })


def test_probe_change_of_units(benchmark, tmp_path):
    # the change-of-units recipe (ROADMAP item 17, step 1): a run differs when its exit code differs, or its
    # stdout with every number as "#" and runs of spaces as one (labels, trends, cases, crossing lists, verdicts)
    scenarios = [((None, name), spec) for name, spec in recipes.committed_scenarios()]
    scenarios += recipes.unit_change_scenarios()
    outcomes = {key: [(code, re.sub(r" +", " ", _NUMBER.sub("#", out))) for code, out in runs]
                for key, runs in run(benchmark, tmp_path, scenarios, UNIT_COMMANDS)}
    results = [(change, command[0], name, before, after)
               for (change, name), runs in outcomes.items() if change is not None
               for command, before, after in zip(UNIT_COMMANDS, outcomes[None, name], runs)]
    exit_differs = Counter((change, command) for change, command, _, (c0, _), (c1, _) in results if c0 != c1)
    differs = Counter((change, command) for change, command, _, before, after in results if before != after)
    benchmark.extra_info.update({
        "runs": len(results),
        "differing_runs": sum(differs.values()),
        "differing_exit_codes": sum(exit_differs.values()),
        "differing_by_command": {c: sum(n for (_, cmd), n in differs.items() if cmd == c) for c, *_ in UNIT_COMMANDS},
        "differing_by_change": {f"{a},{b}": sum(n for (ch, _), n in differs.items() if ch == (a, b))
                                for a, b in recipes.UNIT_CHANGES},
        "differing_scenarios": sorted({f"{a},{b} {cmd} {name}" for (a, b), cmd, name, before, after in results
                                       if before != after}),
    })
