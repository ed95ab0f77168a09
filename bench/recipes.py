"""The seeded scenario recipes of flab's defect probes, as plain scenario dicts.

``bench/test_probes.py`` runs the command on every scenario a recipe
builds and records the counts; ``tests/test_recipes.py`` pins each
recipe's output by digest and checks that every scenario loads or is
refused with a flab error. The module imports nothing from flab, so the
probes and the tests read it alike against any version of flab.

A recipe is a generator of (key, scenario dict) pairs, the key being what
its probe tallies by. Each draws from its own ``default_rng(seed)`` in a
fixed order, so a recipe edit changes its digest.

``exact_crossings`` is the model's own crossing count, ``exact_constants``
its disparity constants and ``exact_disparity`` its curves, for a scenario
of dimension at most MAX_EXACT_DIM, from exact inverses of its float costs
by Gauss–Jordan elimination over ``Fraction``s. Against them the probes
measure the count ``classify`` prints, the constants ``load_scenario``
builds and the values ``disparity_value`` gives.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
RULE_KINDS = ("zero", "tiny", "unit")
MULTIPLES = (0.5, 1.0, 2.0, 4.0)
MAX_EXACT_DIM = 8  # the largest dimension the exact model takes
CONSTANTS = ("rule_sq", "trace_gap", "cross", "prior_sq", "mismatch")  # flab's `DisparityConstants`, in order
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


def _reflection(rng, d):
    """A random orthogonal basis as the columns of one Householder reflection I - 2vv'/v'v, for a standard
    normal d-vector v, in elementwise numpy with v'v correctly rounded, so its bits do not depend on LAPACK."""
    v = rng.standard_normal(d)
    return np.eye(d) - np.multiply.outer(v, v) * (2.0 / math.fsum(v * v))


def _in_basis(basis, weights):
    """Σ_k weights_k h_k h_k' over the basis columns h_k, summed in order, elementwise and exactly symmetric."""
    out = np.zeros((len(weights), len(weights)))
    for h, weight in zip(basis.T, weights):
        out += weight * np.multiply.outer(h, h)
    return out


def small_dimension_scenarios(seed=1, count=600):
    """Common- and projected-prior scenarios at d ≤ 4, keyed by (d, prior kind, rule kind).

    Per scenario, in this draw order from ``default_rng(seed)``: d from {2, 3, 4}, the prior kind
    (common or projected), the rule kind (1e-9·z or z, for a standard normal d-vector z), then z and
    the prior scale 10^U(-3, 3). A common prior then takes a basis H1, A1 with eigenvalues U(0.5, 3)
    in H1, a basis H2, A2 = A1 plus eigenvalues U(0.3, 2) in H2, and a mean, a fresh standard normal
    d-vector times 1e-9, 1 or 10. A projected prior takes one basis H, A1 with eigenvalues λ = U(0.5, 3)
    and A2 with λ + U(0.3, 2), both in H, and each group's projector onto a random subset of H's
    columns, so that both commute with the inverse costs. Each basis is one `_reflection`.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(2, 5))
        prior_kind = ("common", "projected")[rng.integers(2)]
        rule_kind = ("tiny", "unit")[rng.integers(2)]
        z = rng.standard_normal(d)
        rule = 1e-9 * z if rule_kind == "tiny" else z
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        basis = _reflection(rng, d)
        low = rng.uniform(0.5, 3.0, size=d)
        cost1 = _in_basis(basis, low)
        if prior_kind == "common":
            cost2 = cost1 + _in_basis(_reflection(rng, d), rng.uniform(0.3, 2.0, size=d))
            mean = rng.standard_normal(d) * (1e-9, 1.0, 10.0)[rng.integers(3)]
            prior = {"kind": "common", "mean": mean.tolist(), "scale": float(scale)}
        else:
            cost2 = _in_basis(basis, low + rng.uniform(0.3, 2.0, size=d))
            p1, p2 = (_in_basis(basis, subset).tolist() for subset in rng.integers(2, size=(2, d)))
            prior = {"kind": "projected", "subspace1": p1, "subspace2": p2, "scale": float(scale)}
        yield (d, prior_kind, rule_kind), {
            "label": f"small-dimension probe, d={d}, {prior_kind} prior, {rule_kind} rule",
            "dimension": d,
            "rule": rule.tolist(),
            "cost1": cost1.tolist(),
            "cost2": cost2.tolist(),
            "prior": prior,
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
    """The exact inverse of a square matrix of floats, as rows of Fractions, by Gauss–Jordan elimination."""
    d = len(matrix)
    rows = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(matrix)]
    for col in range(d):
        pivot = next(r for r in range(col, d) if rows[r][col] != 0)  # a singular matrix raises StopIteration
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(d):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    return [row[d:] for row in rows]


def _form(m, x, y=None):
    """x' M y (x' M x by default)."""
    y = x if y is None else y
    return sum(x[i] * m[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))


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


def _exact_inputs(spec):
    """A scenario dict's rule, prior and each group's (exact inverse cost, own prior mean), as Fractions;
    the mean is None for a naive prior. Raises ValueError past MAX_EXACT_DIM or on a span-form projector."""
    prior = spec["prior"]
    full_matrices = all(isinstance(prior.get(k, []), list) for k in ("subspace1", "subspace2"))
    if not 1 <= spec["dimension"] <= MAX_EXACT_DIM or not full_matrices:
        raise ValueError(f"the exact model takes dimensions up to {MAX_EXACT_DIM} and full-matrix projectors")
    rule = [Fraction(v) for v in spec["rule"]]
    if prior["kind"] == "common":
        means = [[Fraction(v) for v in prior["mean"]]] * 2
    elif prior["kind"] == "projected":
        means = [[sum(Fraction(p) * x for p, x in zip(row, rule)) for row in prior[k]]
                 for k in ("subspace1", "subspace2")]
    else:
        means = [None, None]
    return rule, prior, list(zip((_inverse(spec[k]) for k in ("cost1", "cost2")), means))


def exact_constants(spec):
    """The model's disparity constants for a scenario dict, in exact rational arithmetic on its floats, by
    flab's own definitions (`DisparityConstants`): a dict of Fractions keyed by constant name.

    Each is a group difference Δ, group 1 minus group 2, over the exact inverse costs A_i⁻¹: rule_sq =
    Δ r'A⁻¹r and trace_gap = Δ tr A⁻¹ for every prior; for a common prior with mean μ, cross = Δ μ'A⁻¹r,
    prior_sq = Δ μ'A⁻¹μ and mismatch = Δ (μ - r)'A⁻¹(μ - r); for a projected prior with projectors P_i,
    cross = prior_sq = Δ r'A⁻¹P r and mismatch = Δ r'A⁻¹(I - P) r. A naive prior has the first two only.
    Dimensions past MAX_EXACT_DIM and span-form projectors raise ValueError.
    """
    rule, prior, groups = _exact_inputs(spec)
    out = dict.fromkeys(("rule_sq", "trace_gap") if prior["kind"] == "naive" else CONSTANTS, Fraction(0))
    for sign, (inverse, mean) in zip((1, -1), groups):
        out["rule_sq"] += sign * _form(inverse, rule)
        out["trace_gap"] += sign * sum(inverse[i][i] for i in range(len(rule)))
        if prior["kind"] == "common":
            out["cross"] += sign * _form(inverse, mean, rule)
            out["prior_sq"] += sign * _form(inverse, mean)
            out["mismatch"] += sign * _form(inverse, [m - x for m, x in zip(mean, rule)])
        elif prior["kind"] == "projected":
            known = sign * _form(inverse, rule, mean)  # r'A⁻¹(P r)
            out["cross"] += known
            out["prior_sq"] += known
            out["mismatch"] += sign * _form(inverse, rule) - known
    return out


def exact_disparity(spec, metric, sigma):
    """The model's score or utility disparity at the float noise level ``sigma``, an exact Fraction from
    `exact_constants`, with the signal weight w = g²/(g² + σ²) taken exactly on the floats g and σ.

    As flab's `disparity_value` states them over its constants: a naive prior's score is rule_sq and
    its utility (rule_sq - σ² trace_gap)/2; a common or projected prior's score is
    (1 - w) cross + w rule_sq and its utility -(w²/2)(mismatch + σ² trace_gap) + w mismatch + cross -
    prior_sq/2, which at σ = 0 is rule_sq/2. ``metric`` is "score" or "utility".
    """
    c, prior = exact_constants(spec), spec["prior"]
    s2 = Fraction(sigma) ** 2
    if prior["kind"] == "naive":
        return c["rule_sq"] if metric == "score" else (c["rule_sq"] - s2 * c["trace_gap"]) / 2
    g2 = Fraction(prior["scale"]) ** 2
    w = g2 / (g2 + s2)
    if metric == "score":
        return (1 - w) * c["cross"] + w * c["rule_sq"]
    return -(w * w / 2) * (c["mismatch"] + s2 * c["trace_gap"]) + w * c["mismatch"] + c["cross"] - c["prior_sq"] / 2


def exact_crossings(spec):
    """The model's count of utility crossings in 0 < σ < ∞ for a scenario dict of dimension at most
    MAX_EXACT_DIM with a common or full-matrix projected prior, in exact rational arithmetic on its floats.

    With the signal weight w = g²/(g² + σ²) for prior scale g, the utility disparity is
    U(w) = a w² + b w + L, where a = (g²T - M)/2, b = M - g²T/2 and L = (Δ r'A⁻¹r - M)/2, over
    M = Δ q'A⁻¹q, T = Δ tr A⁻¹ and q_i = r - μ_i, for group i's exact inverse cost A_i⁻¹ and own
    prior mean μ_i (the mean, or P_i r), Δ being group 1 minus group 2. σ maps one to one onto
    0 < w < 1, so the count is U's simple roots there. Any other scenario raises ValueError.
    """
    rule, prior, groups = _exact_inputs(spec)
    if prior["kind"] not in ("common", "projected"):
        raise ValueError("exact_crossings takes a common or a full-matrix projected prior")
    rule_gap = mismatch = trace_gap = 0
    for sign, (inverse, mean) in zip((1, -1), groups):
        q = [x - m for x, m in zip(rule, mean)]
        rule_gap += sign * _form(inverse, rule)
        mismatch += sign * _form(inverse, q)
        trace_gap += sign * sum(inverse[i][i] for i in range(len(rule)))
    g2t = Fraction(prior["scale"]) ** 2 * trace_gap
    return _open_unit_roots((g2t - mismatch) / 2, mismatch - g2t / 2, (rule_gap - mismatch) / 2)
