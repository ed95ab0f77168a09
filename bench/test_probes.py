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
from collections import Counter

import numpy as np

from flab import cli

RULE_KINDS = ("zero", "tiny", "unit")


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
