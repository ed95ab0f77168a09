"""Seeded defect probes, run in process, their counts kept with the timings (pytest-benchmark).

    python -m pytest bench --benchmark-json=bench.json

Run from the root of a checkout. Each probe runs the command on every
scenario of one recipe in ``bench/recipes.py`` and records its tally in
``benchmark.extra_info``, so ``--benchmark-json`` puts the counts in the
same file as the timings. A probe measures; it asserts no count. It uses
only ``flab.cli.main``, ``flab.cli.load_scenario`` and, for the curves,
``flab.closed_form.sigma_grid`` and ``disparity_value``, so one file
probes two versions of flab alike. The classify probes also measure the
printed crossing count against the exact model's
(``recipes.exact_crossings``) on every run that exits 0, and the ulp
probes measure each loaded scenario's constants and curves against the
model's (``recipes.exact_constants``, ``recipes.exact_disparity``).
"""

import contextlib
import io
import json
import math
import re
from collections import Counter
from fractions import Fraction

import recipes
from flab import cli
from flab.closed_form import disparity_value, sigma_grid
from flab.errors import Error

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


def test_probe_classify_small_dimension(benchmark, tmp_path):
    # the exact model's d <= 4 recipe (ROADMAP item 22): exit 4 is a count mismatch, and an exit 0 whose
    # count differs from the model's would be a wrong exit 0
    scenarios = list(recipes.small_dimension_scenarios())
    results = run(benchmark, tmp_path, scenarios)
    benchmark.extra_info.update({
        "scenarios": len(results),
        "exits_by_key": {" ".join(map(str, key)): exits(code for k, [(code, _)] in results if k == key)
                         for key in sorted({k for k, _ in results})},
        **model_check(scenarios, results),
    })


def ulps(value, exact):
    """|value - exact| in units in the last place of the exact value, or None for a nonzero value
    against an exact 0 (0 where both are 0)."""
    if exact == 0:
        return None if value else 0.0
    near = float(exact)
    unit = math.ulp(near)
    if abs(Fraction(near)) > abs(exact) and math.frexp(near)[0] in (0.5, -0.5):
        unit /= 2.0  # the exact value lies below the power of two it rounds up to
    return float(abs(Fraction(value) - exact) / Fraction(unit))


def test_probe_constants_ulps(benchmark, tmp_path):
    # the yardstick of ROADMAP item 3: each constant of every scenario that load_scenario accepts and the
    # exact model takes, in ulps of the model's value; the round times the loads
    recipe_names = ("committed", "classify", "neutrality", "exact_multiple", "small_dimension")
    scenarios = [(name, spec) for name in recipe_names for _, spec in getattr(recipes, f"{name}_scenarios")()]
    paths = []
    for i, (_, spec) in enumerate(scenarios):
        paths.append(tmp_path / f"{i:04d}.json")
        paths[-1].write_text(json.dumps(spec), encoding="utf-8")

    def load(path):
        try:
            return cli.load_scenario(str(path)).scenario
        except Error:
            return None  # a refusal the command reports with its exit code

    loaded = benchmark.pedantic(lambda: [load(p) for p in paths], rounds=1, iterations=1)
    profile = {name: {} for name in recipe_names}
    for (name, spec), sc in zip(scenarios, loaded):
        try:
            exact = recipes.exact_constants(spec)
        except ValueError:
            continue  # a span-form projector
        if sc is None:
            continue
        for constant, value in exact.items():
            row = profile[name].setdefault(constant, {"compared": 0, "worst_ulps": 0.0, "above_half_ulp": 0,
                                                      "nonzero_against_exact_zero": 0})
            error = ulps(getattr(sc.constants, constant), value)
            row["compared"] += 1
            if error is None:
                row["nonzero_against_exact_zero"] += 1
            else:
                row["worst_ulps"] = max(row["worst_ulps"], round(error, 2))
                row["above_half_ulp"] += error > 0.5
    benchmark.extra_info.update({"ulps": profile})


def test_probe_curve_ulps(benchmark):
    # the yardstick of ROADMAP items 13 and 22: disparity_value on each committed scenario's 241-point
    # sigma_grid, per metric, in ulps of the model's value at the same float level; the round times the curves
    scenarios = []
    for name, spec in recipes.committed_scenarios():
        try:
            recipes.exact_constants(spec)
        except ValueError:
            continue  # a span-form projector
        sc = cli.load_scenario(str(recipes.SCENARIOS / f"{name}.json")).scenario
        scenarios.append((name, spec, sc, sigma_grid(sc)))
    metrics = ("score", "utility")
    curves = benchmark.pedantic(lambda: [[disparity_value(sc, m, grid) for m in metrics] for _, _, sc, grid in scenarios],
                                rounds=1, iterations=1)
    profile = {}
    for (name, spec, _, grid), values in zip(scenarios, curves):
        for metric, curve in zip(metrics, values):
            errors = [ulps(value, recipes.exact_disparity(spec, metric, sigma))
                      for sigma, value in zip(grid.tolist(), curve.tolist())]
            measured = [e for e in errors if e is not None]
            profile.setdefault(name, {})[metric] = {
                "points": len(errors), "worst_ulps": round(max(measured), 2),
                "above_half_ulp": sum(e > 0.5 for e in measured), "nonzero_against_exact_zero": errors.count(None)}
    benchmark.extra_info.update({"ulps": profile})


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
