"""The seeded scenario recipes of flab's defect probes, as plain scenario dicts.

``bench/test_probes.py`` runs the command on every scenario a recipe
builds and records the counts; ``tests/test_recipes.py`` pins each
recipe's output by digest and checks that every scenario loads or is
refused with a flab error. The module imports nothing from flab, so the
probes and the tests read it alike against any version of flab.

A recipe is a generator of (key, scenario dict) pairs, the key being what
its probe tallies by. Each draws from its own ``default_rng(seed)`` in a
fixed order, so a recipe edit changes its digest.

``exact_crossings`` is the model's own crossing count for a d=2 scenario,
in exact rational arithmetic, against which the probes measure the count
``classify`` prints.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
RULE_KINDS = ("zero", "tiny", "unit")
MULTIPLES = (0.5, 1.0, 2.0, 4.0)
# (a, b): costs times 2^a, and rule, prior mean, prior scale and sweep range times 2^b (ROADMAP item 17)
UNIT_CHANGES = ((5, 0), (-7, 0), (0, 3), (0, -4), (9, 6), (40, 0), (-30, 0), (0, -20), (-10, -10),
                (20, 0), (-20, 0), (0, 20), (10, 10), (-4, -2), (0, -499))


def _diagonal_costs(rng):
    """A1 = diag U(0.5, 3) and A2 = A1 + diag U(0.3, 2), as the scenario's two cost entries."""
    a1 = rng.uniform(0.5, 3.0, size=2)
    a2 = a1 + rng.uniform(0.3, 2.0, size=2)
    return {"cost1": np.diag(a1).tolist(), "cost2": np.diag(a2).tolist()}


def classify_scenarios(seed=7, count=600):
    """The classify probe's d=2 common-prior scenarios, keyed by rule kind.

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
        costs = _diagonal_costs(rng)
        mean = rng.standard_normal(2) * (1e-9, 1.0, 10.0)[rng.integers(3)]
        yield kind, {
            "label": f"classify probe, {kind} rule",
            "dimension": 2,
            "rule": rule.tolist(),
            **costs,
            "prior": {"kind": "common", "mean": mean.tolist(), "scale": float(scale)},
        }


def neutrality_scenarios(seed=3, count=400):
    """The neutrality probe's d=2 projected-prior scenarios, whose known-subspace gap is negative
    definite, each keyed by None.

    Per scenario, in this draw order from ``default_rng(seed)``: the rule,
    a standard normal 2-vector times 10^U(-3, 6), A1 = diag U(0.5, 3),
    A2 = A1 + diag U(0.3, 2) and the prior scale 10^U(-3, 3). The first
    projector is 0 and the second the identity.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rule = rng.normal(size=2) * 10.0 ** rng.uniform(-3.0, 6.0)
        costs = _diagonal_costs(rng)
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        yield None, {
            "label": "neutrality probe",
            "dimension": 2,
            "rule": rule.tolist(),
            **costs,
            "prior": {"kind": "projected", "subspace1": np.zeros((2, 2)).tolist(),
                      "subspace2": np.eye(2).tolist(), "scale": float(scale)},
        }


def exact_multiple_scenarios(seed=11, count=250):
    """The exact-multiple probe's d=2 common-prior scenarios, keyed by t, whose mean is t·rule.

    Per draw, in this draw order from ``default_rng(seed)``: the rule, a
    standard normal 2-vector, A1 = diag U(0.5, 3), A2 = A1 + diag U(0.3, 2)
    and the prior scale 10^U(-1, 2). Each draw gives one scenario per t in
    MULTIPLES. At t = 2 the utility limit cross - prior_sq / 2 is exactly 0.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rule = rng.standard_normal(2)
        costs = _diagonal_costs(rng)
        scale = 10.0 ** rng.uniform(-1.0, 2.0)
        for t in MULTIPLES:
            yield t, {
                "label": f"exact-multiple probe, mean {t} rule",
                "dimension": 2,
                "rule": rule.tolist(),
                **costs,
                "prior": {"kind": "common", "mean": (t * rule).tolist(), "scale": float(scale)},
            }


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


def committed_scenarios():
    """The committed scenarios in ``scenarios/``, keyed by file stem, in name order."""
    for path in sorted(SCENARIOS.glob("*.json")):
        yield path.stem, json.loads(path.read_text(encoding="utf-8"))


def unit_change_scenarios():
    """The change-of-units probe's scenarios: every committed scenario under each (a, b) of
    UNIT_CHANGES, in that order, keyed by ((a, b), file stem)."""
    originals = list(committed_scenarios())
    for a, b in UNIT_CHANGES:
        for name, spec in originals:
            yield ((a, b), name), rescaled(spec, a, b)


def _inverse(matrix):
    """The exact inverse of a 2x2 matrix of floats, as rows of Fractions."""
    (p, q), (r, s) = ([Fraction(v) for v in row] for row in matrix)
    det = p * s - q * r
    return [[s / det, -q / det], [-r / det, p / det]]


def _form(m, x):
    """x' M x."""
    return sum(x[i] * m[i][j] * x[j] for i in range(2) for j in range(2))


def _open_unit_roots(a, b, c):
    """The simple roots of a w² + b w + c in 0 < w < 1, decided exactly; a double root, or a root at
    w = 0 or w = 1, touches zero and is not counted."""
    lo, hi = c, a + b + c
    if lo * hi < 0:
        return 1  # one sign change, so one simple root
    if a == 0 or b * b - 4 * a * c <= 0:
        return 0  # a line with no sign change, no real root, or a double root
    vertex = -b / (2 * a)
    if lo == 0 or hi == 0:  # one root at an end, the other as far past the vertex
        return int(0 < 2 * vertex - (0 if lo == 0 else 1) < 1)
    return 2 if lo * a > 0 and 0 < vertex < 1 else 0


def exact_crossings(spec):
    """The model's count of utility crossings in 0 < σ < ∞ for a d=2 scenario dict with a common or a
    full-matrix projected prior, in exact rational arithmetic on its floats.

    With the signal weight w = g²/(g² + σ²) for prior scale g, the utility disparity is
    U(w) = a w² + b w + L, where a = (g²T - M)/2, b = M - g²T/2 and L = (Δ r'A⁻¹r - M)/2, over
    M = Δ q'A⁻¹q, T = Δ tr A⁻¹ and q_i = r - μ_i, for group i's exact inverse cost A_i⁻¹ and own
    prior mean μ_i (the mean, or P_i r), Δ being group 1 minus group 2. σ maps one to one onto
    0 < w < 1, so the count is U's simple roots there. Any other scenario raises ValueError.
    """
    prior = spec["prior"]
    full_matrices = all(isinstance(prior.get(k, []), list) for k in ("subspace1", "subspace2"))
    if spec["dimension"] != 2 or prior["kind"] not in ("common", "projected") or not full_matrices:
        raise ValueError("exact_crossings takes d=2 scenarios with a common or full-matrix projected prior")
    rule = [Fraction(v) for v in spec["rule"]]
    if prior["kind"] == "common":
        means = [[Fraction(v) for v in prior["mean"]]] * 2
    else:
        means = [[sum(Fraction(p) * x for p, x in zip(row, rule)) for row in prior[k]]
                 for k in ("subspace1", "subspace2")]
    rule_gap = mismatch = trace_gap = 0
    for sign, cost, mean in zip((1, -1), (spec["cost1"], spec["cost2"]), means):
        inverse = _inverse(cost)
        q = [x - m for x, m in zip(rule, mean)]
        rule_gap += sign * _form(inverse, rule)
        mismatch += sign * _form(inverse, q)
        trace_gap += sign * (inverse[0][0] + inverse[1][1])
    g2t = Fraction(prior["scale"]) ** 2 * trace_gap
    return _open_unit_roots((g2t - mismatch) / 2, mismatch - g2t / 2, (rule_gap - mismatch) / 2)
