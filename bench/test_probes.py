"""Seeded defect probes, run in process, their counts kept with the timings (pytest-benchmark).

    python -m pytest bench --benchmark-json=bench.json

Run from the root of a checkout. Each probe rebuilds a recipe that found a
defect, runs the command on every scenario it builds and records the
counts in ``benchmark.extra_info``, so ``--benchmark-json`` puts them in
the same file as the timings. A probe measures; it asserts no count. It
uses only ``flab.cli.main``, so one file probes two versions of flab alike.
"""

import contextlib
import io
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np

from flab import cli

RULE_KINDS = ("zero", "tiny", "unit")
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def classify_scenarios(seed=7, count=600):
    """The classify probe's d=2 common-prior scenarios, as (rule kind, scenario dict) pairs.

    Per scenario, in this draw order from ``default_rng(seed)``: the rule
    kind (zero, 1e-9·z or z, for a standard normal 2-vector z), then z,
    the prior scale 10^U(-6, 6), A1 = diag U(0.5, 3), the lift of
    A2 = A1 + diag U(0.3, 2), and the prior mean, a fresh standard normal
    2-vector times 1e-9, 1 or 10.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        kind = RULE_KINDS[rng.integers(3)]
        z = rng.standard_normal(2)
        rule = {"zero": np.zeros(2), "tiny": 1e-9 * z, "unit": z}[kind]
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        a1 = rng.uniform(0.5, 3.0, size=2)
        a2 = a1 + rng.uniform(0.3, 2.0, size=2)
        mean = rng.standard_normal(2) * (1e-9, 1.0, 10.0)[rng.integers(3)]
        yield kind, {
            "label": f"classify probe, {kind} rule",
            "dimension": 2,
            "rule": rule.tolist(),
            "cost1": np.diag(a1).tolist(),
            "cost2": np.diag(a2).tolist(),
            "prior": {"kind": "common", "mean": mean.tolist(), "scale": float(scale)},
        }


def test_probe_classify_common_prior(benchmark, tmp_path):
    # the crossing-count probe (ROADMAP items 2 and 13): exit 4 is a count mismatch
    paths = []
    for i, (kind, spec) in enumerate(classify_scenarios()):
        path = tmp_path / f"s{i:03d}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        paths.append((kind, str(path)))

    def run():
        exits = []
        for kind, path in paths:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                exits.append((kind, cli.main(["classify", path])))
        return exits

    exits = benchmark.pedantic(run, rounds=1, iterations=1)
    by_code = Counter(code for _, code in exits)
    by_rule = Counter(exits)
    benchmark.extra_info.update({
        "scenarios": len(exits),
        "exit_codes": {str(code): n for code, n in sorted(by_code.items())},
        "exits_by_rule": {
            kind: {str(code): n for (k, code), n in sorted(by_rule.items()) if k == kind} for kind in RULE_KINDS
        },
    })


def neutrality_scenarios(seed=3, count=400):
    """The neutrality probe's d=2 projected-prior scenarios, whose known-subspace gap is negative definite.

    Per scenario, in this draw order from ``default_rng(seed)``: the rule,
    a standard normal 2-vector times 10^U(-3, 6), A1 = diag U(0.5, 3),
    A2 = A1 + diag U(0.3, 2) and the prior scale 10^U(-3, 3). The first
    projector is 0 and the second the identity.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rule = rng.normal(size=2) * 10.0 ** rng.uniform(-3.0, 6.0)
        a1 = rng.uniform(0.5, 3.0, size=2)
        a2 = a1 + rng.uniform(0.3, 2.0, size=2)
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        yield {
            "label": "neutrality probe",
            "dimension": 2,
            "rule": rule.tolist(),
            "cost1": np.diag(a1).tolist(),
            "cost2": np.diag(a2).tolist(),
            "prior": {"kind": "projected", "subspace1": np.zeros((2, 2)).tolist(),
                      "subspace2": np.eye(2).tolist(), "scale": float(scale)},
        }


def test_probe_classify_projected_neutrality(benchmark, tmp_path):
    # the neutrality probe: exit 4 from a score that misses zero at its own crossing, or a count mismatch
    paths = []
    for i, spec in enumerate(neutrality_scenarios()):
        path = tmp_path / f"p{i:03d}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        paths.append(str(path))

    def run():
        results = []
        for path in paths:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                results.append((cli.main(["classify", path]), out.getvalue()))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    by_code = Counter(code for code, _ in results)
    benchmark.extra_info.update({
        "scenarios": len(results),
        "exit_codes": {str(code): n for code, n in sorted(by_code.items())},
        "vanishing_no_lines": sum(out.count("vanishes at the crossing: NO") for _, out in results),
        "mismatch_lines": sum(out.count("MISMATCH") for _, out in results),
    })


MULTIPLES = (0.5, 1.0, 2.0, 4.0)


def exact_multiple_scenarios(seed=11, count=250):
    """The exact-multiple probe's d=2 common-prior scenarios, as (t, scenario dict) pairs, whose mean is t·rule.

    Per draw, in this draw order from ``default_rng(seed)``: the rule, a
    standard normal 2-vector, A1 = diag U(0.5, 3), A2 = A1 + diag U(0.3, 2)
    and the prior scale 10^U(-1, 2). Each draw gives one scenario per t in
    MULTIPLES. At t = 2 the utility limit cross - prior_sq / 2 is exactly 0.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rule = rng.standard_normal(2)
        a1 = rng.uniform(0.5, 3.0, size=2)
        a2 = a1 + rng.uniform(0.3, 2.0, size=2)
        scale = 10.0 ** rng.uniform(-1.0, 2.0)
        for t in MULTIPLES:
            yield t, {
                "label": f"exact-multiple probe, mean {t} rule",
                "dimension": 2,
                "rule": rule.tolist(),
                "cost1": np.diag(a1).tolist(),
                "cost2": np.diag(a2).tolist(),
                "prior": {"kind": "common", "mean": (t * rule).tolist(), "scale": float(scale)},
            }


def test_probe_classify_exact_multiple(benchmark, tmp_path):
    # the exact-multiple probe (ROADMAP items 2 and 13): exit 4 is a count mismatch
    paths = []
    for i, (t, spec) in enumerate(exact_multiple_scenarios()):
        path = tmp_path / f"m{i:04d}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        paths.append((t, str(path)))

    def run():
        results = []
        for t, path in paths:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["classify", path])
            results.append((t, code, "(value -" in out.getvalue()))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    by_multiple = Counter((t, code) for t, code, _ in results)
    below_zero = Counter((t, code) for t, code, negative in results if negative)
    benchmark.extra_info.update({
        "scenarios": len(results),
        "exits_by_multiple": {
            str(t): {str(code): n for (m, code), n in sorted(by_multiple.items()) if m == t} for t in MULTIPLES
        },
        "negative_minimum_exits_by_multiple": {
            str(t): {str(code): n for (m, code), n in sorted(below_zero.items()) if m == t} for t in MULTIPLES
        },
    })


# (a, b): costs times 2^a, and rule, prior mean, prior scale and sweep range times 2^b (ROADMAP item 17)
UNIT_CHANGES = ((5, 0), (-7, 0), (0, 3), (0, -4), (9, 6), (40, 0), (-30, 0), (0, -20), (-10, -10),
                (20, 0), (-20, 0), (0, 20), (10, 10), (-4, -2), (0, -499))
UNIT_COMMANDS = (("validate",), ("sweep",), ("classify",), ("verify", "--n", "20000", "--seed", "1"), ("bounds",))
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?")


def rescaled(spec, a, b):
    """``spec`` in other units: costs times 2^a, and every length (rule, mean, scale, sweep range) times 2^b."""
    out = json.loads(json.dumps(spec))
    out["cost1"], out["cost2"] = ([[math.ldexp(v, a) for v in row] for row in spec[k]] for k in ("cost1", "cost2"))
    out["rule"] = [math.ldexp(v, b) for v in spec["rule"]]
    if "mean" in spec["prior"]:
        out["prior"]["mean"] = [math.ldexp(v, b) for v in spec["prior"]["mean"]]
    if "scale" in spec["prior"]:
        out["prior"]["scale"] = math.ldexp(spec["prior"]["scale"], b)
    if "sweep" in spec:
        for key in ("sigma_min", "sigma_max"):
            out["sweep"][key] = math.ldexp(spec["sweep"][key], b)
    return out


def test_probe_change_of_units(benchmark, tmp_path):
    # the change-of-units recipe (ROADMAP item 17, step 1): a run differs when its exit code differs, or its
    # stdout with every number as "#" and runs of spaces as one (labels, trends, cases, crossing lists, verdicts)
    originals = sorted(SCENARIOS.glob("*.json"))
    cases = []
    for a, b in UNIT_CHANGES:
        folder = tmp_path / f"{a}_{b}"
        folder.mkdir()
        for path in originals:
            copy = folder / path.name
            copy.write_text(json.dumps(rescaled(json.loads(path.read_text(encoding="utf-8")), a, b)), encoding="utf-8")
            cases.append(((a, b), path, copy))

    def outcome(command, path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command[0], str(path), *command[1:]])
        return code, re.sub(r" +", " ", _NUMBER.sub("#", out.getvalue()))  # column widths follow the numbers

    def run():
        base = {(c, p): outcome(c, p) for c in UNIT_COMMANDS for p in originals}
        return [(change, command[0], path.stem, base[command, path], outcome(command, copy))
                for change, path, copy in cases for command in UNIT_COMMANDS]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    exit_differs = Counter((change, command) for change, command, _, (c0, _), (c1, _) in results if c0 != c1)
    differs = Counter((change, command) for change, command, _, before, after in results if before != after)
    benchmark.extra_info.update({
        "runs": len(results),
        "differing_runs": sum(differs.values()),
        "differing_exit_codes": sum(exit_differs.values()),
        "differing_by_command": {c: sum(n for (_, cmd), n in differs.items() if cmd == c) for c, *_ in UNIT_COMMANDS},
        "differing_by_change": {f"{a},{b}": sum(n for (ch, _), n in differs.items() if ch == (a, b))
                                for a, b in UNIT_CHANGES},
        "differing_scenarios": sorted({f"{a},{b} {cmd} {name}" for (a, b), cmd, name, before, after in results
                                       if before != after}),
    })
