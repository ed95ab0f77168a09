"""Command-line front end: validate, sweep, classify, verify, bounds.

Scenario files are JSON with a fixed schema; unknown fields are rejected
with a JSON-pointer style location. Exit codes are scriptable: 0 ok,
2 parse error, 3 model assumption violated, 4 verification failed,
5 bound violated.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .agents import Metric
from .closed_form import (
    CommonPrior,
    NaivePrior,
    ProjectedPrior,
    Scenario,
    disparity_value,
    endpoints,
    neutrality_sigma_naive,
    score_overlap_bound,
    sigma_grid,
    utility_overlap_bound,
)
from .errors import AssumptionViolated, Error, NonFinite, ParseError, ZeroStderrMismatch
from .linalg_core import CostMatrix, Projection
from .mc_oracle import compare, estimate_disparities
from .regimes import (
    RegionLabel,
    UtilityCase,
    classify_score_bayes,
    classify_utility_bayes,
    classify_utility_projected,
    classify_utility_projected_matrix,
    critical_prior_scale,
    exploitation_condition_projected,
    label_region,
    monotonicity_condition_projected,
    neutrality_condition_projected,
)

CSV_HEADER = "sigma,score_disparity,utility_disparity,score_region,utility_region,mc_mean,mc_stderr,z"

_EXIT_OK = 0
_EXIT_PARSE = 2
_EXIT_ASSUMPTION = 3
_EXIT_VERIFY = 4
_EXIT_BOUND = 5


@dataclass(frozen=True)
class SweepConfig:
    sigma_lo: float
    sigma_hi: float
    points: int
    spacing: str


@dataclass(frozen=True)
class McConfig:
    n: int
    seed: int
    z_max: float


@dataclass(frozen=True)
class LoadedScenario:
    scenario: Scenario
    sweep: "SweepConfig | None"
    mc: "McConfig | None"
    name: str  # for display: the scenario's label, else the file's base name


def _fail(pointer, message):
    raise ParseError(pointer, message)


def _check_keys(obj, pointer, required, optional=()):
    if not isinstance(obj, dict):
        _fail(pointer, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in required and key not in optional:
            _fail(f"{pointer}/{key}", "unknown field")
    for key in required:
        if key not in obj:
            _fail(pointer, f"missing required field '{key}'")


def _number(value, pointer):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(pointer, f"expected a number, got {type(value).__name__}")
    if not math.isfinite(value):
        _fail(pointer, f"expected a finite number, got {value}")
    return float(value)


def _integer(value, pointer):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(pointer, f"expected an integer, got {type(value).__name__}")
    return int(value)


def _string(value, pointer):
    if not isinstance(value, str):
        _fail(pointer, f"expected a string, got {type(value).__name__}")
    return value


def _vector(value, pointer, dim):
    if not isinstance(value, list):
        _fail(pointer, f"expected an array, got {type(value).__name__}")
    out = [_number(v, f"{pointer}/{i}") for i, v in enumerate(value)]
    if len(out) != dim:
        _fail(pointer, f"expected {dim} entries, got {len(out)}")
    return np.array(out)


def _matrix(value, pointer, dim):
    if not isinstance(value, list):
        _fail(pointer, f"expected an array of rows, got {type(value).__name__}")
    if len(value) != dim:
        _fail(pointer, f"expected {dim} rows, got {len(value)}")
    return np.array([_vector(row, f"{pointer}/{i}", dim) for i, row in enumerate(value)])


def _projection(value, pointer, dim):
    if isinstance(value, dict):
        _check_keys(value, pointer, required=("span",))
        rows = value["span"]
        if not isinstance(rows, list):
            _fail(f"{pointer}/span", "expected an array of vectors")
        vectors = [_vector(v, f"{pointer}/span/{i}", dim) for i, v in enumerate(rows)]
        return Projection.from_span(vectors, dim=dim)
    return Projection(_matrix(value, pointer, dim))


def _positive(value, pointer):
    if value <= 0.0:
        _fail(pointer, f"must be positive, got {value}")
    return value


def _parse_prior(node, dim):
    _check_keys(node, "/prior", required=("kind",), optional=("mean", "scale", "subspace1", "subspace2"))
    kind = _string(node["kind"], "/prior/kind")
    if kind == "naive":
        _check_keys(node, "/prior", required=("kind",))
        return NaivePrior()
    if kind == "common":
        _check_keys(node, "/prior", required=("kind", "mean", "scale"))
        mean = _vector(node["mean"], "/prior/mean", dim)
        scale = _positive(_number(node["scale"], "/prior/scale"), "/prior/scale")
        return CommonPrior(mean, scale)
    if kind == "projected":
        _check_keys(node, "/prior", required=("kind", "subspace1", "subspace2", "scale"))
        p1 = _projection(node["subspace1"], "/prior/subspace1", dim)
        p2 = _projection(node["subspace2"], "/prior/subspace2", dim)
        scale = _positive(_number(node["scale"], "/prior/scale"), "/prior/scale")
        return ProjectedPrior(p1, p2, scale)
    _fail("/prior/kind", f"unknown prior kind '{kind}'")


def _parse_sweep(node):
    _check_keys(node, "/sweep", required=("sigma_min", "sigma_max", "points"), optional=("spacing",))
    lo = _number(node["sigma_min"], "/sweep/sigma_min")
    hi = _number(node["sigma_max"], "/sweep/sigma_max")
    points = _integer(node["points"], "/sweep/points")
    spacing = _string(node.get("spacing", "log"), "/sweep/spacing")
    if spacing not in ("log", "linear"):
        _fail("/sweep/spacing", f"expected 'log' or 'linear', got '{spacing}'")
    if points < 2:
        _fail("/sweep/points", f"need at least 2 points, got {points}")
    if not lo < hi:
        _fail("/sweep", f"need sigma_min < sigma_max, got {lo} and {hi}")
    if spacing == "log" and lo <= 0.0:
        _fail("/sweep/sigma_min", "log spacing needs a positive lower bound")
    if spacing == "linear" and lo < 0.0:
        _fail("/sweep/sigma_min", "noise scale cannot be negative")
    return SweepConfig(lo, hi, points, spacing)


def _check_mc(n, seed, n_at, seed_at):
    """Reject fewer samples than the oracle needs, or a negative seed."""
    if n < 1000:
        _fail(n_at, f"need at least 1000 samples, got {n}")
    if seed < 0:
        _fail(seed_at, f"must be nonnegative, got {seed}")


def _parse_mc(node):
    _check_keys(node, "/mc", required=("n", "seed"), optional=("z_max",))
    n = _integer(node["n"], "/mc/n")
    seed = _integer(node["seed"], "/mc/seed")
    z_max = _number(node.get("z_max", 4.0), "/mc/z_max")
    _check_mc(n, seed, "/mc/n", "/mc/seed")
    if z_max <= 0.0:
        _fail("/mc/z_max", f"must be positive, got {z_max}")
    return McConfig(n, seed, z_max)


def load_scenario(path):
    """Parse and validate a scenario file into model objects."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        _fail("/", f"cannot read {path}: {exc}")
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail("/", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    _check_keys(
        root,
        "/",
        required=("dimension", "rule", "cost1", "cost2", "prior"),
        optional=("sweep", "mc", "label"),
    )
    dim = _integer(root["dimension"], "/dimension")
    if dim < 1:
        _fail("/dimension", f"must be at least 1, got {dim}")
    rule = _vector(root["rule"], "/rule", dim)
    cost1 = CostMatrix(_matrix(root["cost1"], "/cost1", dim))
    cost2 = CostMatrix(_matrix(root["cost2"], "/cost2", dim))
    prior = _parse_prior(root["prior"], dim)
    label = _string(root.get("label", ""), "/label")
    sweep = _parse_sweep(root["sweep"]) if "sweep" in root else None
    mc = _parse_mc(root["mc"]) if "mc" in root else None
    scenario = Scenario(rule, cost1, cost2, prior, label=label)
    return LoadedScenario(scenario, sweep, mc, label or os.path.basename(path))


def _points(args, minimum, default=None):
    """The --points value, or ``default`` when absent; too few points is a parse error."""
    if args.points is None:
        return default
    if args.points < minimum:
        _fail("--points", f"need at least {minimum}, got {args.points}")
    return args.points


def _sweep_sigmas(loaded, points=None, default_points=241):
    cfg = loaded.sweep
    if points is None:
        points = default_points if cfg is None else cfg.points
    if cfg is None:
        return sigma_grid(loaded.scenario, points=points)
    if cfg.spacing == "log":
        return np.geomspace(cfg.sigma_lo, cfg.sigma_hi, points)
    return np.linspace(cfg.sigma_lo, cfg.sigma_hi, points)


def _g17(x):
    return f"{float(x):.17g}"


def _g5(x):
    return f"{float(x):.5g}"


def _require_finite(name, values, grid):
    """Raise NonFinite naming the first noise scale where ``values`` is not finite."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NonFinite(f"{name} at sigma={_g5(grid[bad[0]])} is {values[bad[0]]}")


# --------------------------------------------------------------------------
# SVG emission


_SVG_COLORS = ("#1f6feb", "#d1242f", "#2da44e", "#9a6700")


def render_svg(sigmas, curves, title, spacing="log"):
    """Minimal deterministic line chart: linear y, dashed zero line.

    ``curves`` is a sequence of (name, values) pairs over the shared grid.
    The x axis follows the grid's ``spacing``: "log" puts ticks at whole
    decades, "linear" at quarters of the range, which may start at zero.
    """
    width, height = 720.0, 460.0
    ml, mr, mt, mb = 70.0, 24.0, 34.0, 52.0
    inner_w = width - ml - mr
    inner_h = height - mt - mb
    if spacing == "log":
        lx = [math.log10(float(s)) for s in sigmas]
        decades = range(math.ceil(lx[0] - 1e-9), math.floor(lx[-1] + 1e-9) + 1)
        ticks = [(float(k), f"1e{k}") for k in decades]
    else:
        lx = [float(s) for s in sigmas]
        quarters = (lx[0] + f * (lx[-1] - lx[0]) for f in (0.0, 0.25, 0.5, 0.75, 1.0))
        ticks = [(v, f"{v:.3g}") for v in quarters]
    x_lo, x_hi = lx[0], lx[-1]
    all_vals = [float(v) for _, values in curves for v in values if math.isfinite(v)]
    y_lo = min(all_vals + [0.0])
    y_hi = max(all_vals + [0.0])
    if y_hi - y_lo < 1e-300:
        y_lo -= 1.0
        y_hi += 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def sx(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * inner_w

    def sy(v):
        return mt + (y_hi - v) / (y_hi - y_lo) * inner_h

    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    parts.append(f'<rect width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>')
    parts.append(
        f'<text x="{ml:.2f}" y="{mt - 12:.2f}" font-family="sans-serif" '
        f'font-size="14" fill="#222222">{_escape(title)}</text>'
    )
    axis = f'stroke="#222222" stroke-width="1"'
    parts.append(f'<line x1="{ml:.2f}" y1="{mt + inner_h:.2f}" x2="{ml + inner_w:.2f}" y2="{mt + inner_h:.2f}" {axis}/>')
    parts.append(f'<line x1="{ml:.2f}" y1="{mt:.2f}" x2="{ml:.2f}" y2="{mt + inner_h:.2f}" {axis}/>')

    for v, label in ticks:
        x = sx(v)
        parts.append(
            f'<line x1="{x:.2f}" y1="{mt + inner_h:.2f}" x2="{x:.2f}" '
            f'y2="{mt + inner_h + 5:.2f}" {axis}/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{mt + inner_h + 20:.2f}" font-family="sans-serif" '
            f'font-size="11" fill="#222222" text-anchor="middle">{label}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = y_lo + frac * (y_hi - y_lo)
        y = sy(v)
        parts.append(f'<line x1="{ml - 5:.2f}" y1="{y:.2f}" x2="{ml:.2f}" y2="{y:.2f}" {axis}/>')
        parts.append(
            f'<text x="{ml - 9:.2f}" y="{y + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" fill="#222222" text-anchor="end">{v:.3g}</text>'
        )
    parts.append(
        f'<text x="{ml + inner_w / 2:.2f}" y="{height - 12:.2f}" font-family="sans-serif" '
        f'font-size="12" fill="#222222" text-anchor="middle">noise scale</text>'
    )

    if y_lo < 0.0 < y_hi:
        y0 = sy(0.0)
        parts.append(
            f'<line x1="{ml:.2f}" y1="{y0:.2f}" x2="{ml + inner_w:.2f}" y2="{y0:.2f}" '
            f'stroke="#555555" stroke-width="1" stroke-dasharray="6 4"/>'
        )

    for idx, (name, values) in enumerate(curves):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        pts = " ".join(
            f"{sx(lx[i]):.2f},{sy(float(v)):.2f}"
            for i, v in enumerate(values)
            if math.isfinite(v)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.8" points="{pts}"/>'
        )
        ly = mt + 16 + 16 * idx
        lx0 = ml + inner_w - 150
        parts.append(
            f'<line x1="{lx0:.2f}" y1="{ly:.2f}" x2="{lx0 + 22:.2f}" y2="{ly:.2f}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{lx0 + 28:.2f}" y="{ly + 4:.2f}" font-family="sans-serif" '
            f'font-size="12" fill="#222222">{_escape(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text):
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


def _write_text(path, content):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)


# --------------------------------------------------------------------------
# subcommands


def cmd_validate(args, out=None):
    out = sys.stdout if out is None else out
    loaded = load_scenario(args.scenario)
    sc = loaded.scenario
    c = sc.constants
    print(f"scenario OK: {loaded.name}", file=out)
    print(f"  dimension: {sc.dim}", file=out)
    print(f"  cost gap: {sc.cost_gap_label}", file=out)
    print(f"  trace gap: {_g5(sc.trace_gap)}", file=out)
    if isinstance(sc.prior, NaivePrior):
        print("  prior: naive", file=out)
        print(f"  score disparity (all noise levels): {_g5(c.rule_sq)}", file=out)
        if sc.trace_gap > 0.0:
            print(f"  utility crossing: {_g5(neutrality_sigma_naive(sc))}", file=out)
        return _EXIT_OK
    if isinstance(sc.prior, CommonPrior):
        print(f"  prior: common, scale {_g5(sc.prior.scale)}", file=out)
        print(
            f"  gap-metric constants: rule {_g5(c.rule_sq)}, prior {_g5(c.prior_sq)}, "
            f"cross {_g5(c.cross)}, mismatch {_g5(c.mismatch)}",
            file=out,
        )
    else:
        print(f"  prior: projected, scale {_g5(sc.prior.scale)}", file=out)
        print(
            f"  subspace ranks: {sc.prior.subspace1.rank} and {sc.prior.subspace2.rank}",
            file=out,
        )
        print(
            f"  gap-metric constants: rule {_g5(c.rule_sq)}, known-side {_g5(c.cross)}",
            file=out,
        )
        print(f"  commutation defect: {sc.commute_defect:.3e}", file=out)
    if sc.trace_gap > 0.0:
        print(f"  critical prior scale: {_g5(critical_prior_scale(sc))}", file=out)
    return _EXIT_OK


def cmd_sweep(args, out=None):
    out = sys.stdout if out is None else out
    points = _points(args, 2)
    loaded = load_scenario(args.scenario)
    grid = _sweep_sigmas(loaded, points)
    scores = disparity_value(loaded.scenario, Metric.SCORE, grid)
    utilities = disparity_value(loaded.scenario, Metric.UTILITY, grid)
    _require_finite("score disparity", scores, grid)
    _require_finite("utility disparity", utilities, grid)
    scores, utilities, sigmas = scores.tolist(), utilities.tolist(), grid.tolist()
    lines = [CSV_HEADER]
    for s, fs, fu in zip(sigmas, scores, utilities):
        lines.append(f"{_g17(s)},{_g17(fs)},{_g17(fu)},{label_region(fs)},{label_region(fu)},,,")
    csv_text = "\n".join(lines) + "\n"
    if args.out_csv:
        _write_text(args.out_csv, csv_text)
        print(f"wrote {args.out_csv} ({len(sigmas)} rows)", file=out)
    else:
        out.write(csv_text)
    if args.out_svg:
        svg = render_svg(
            sigmas,
            [("score disparity", scores), ("utility disparity", utilities)],
            loaded.name,
            "log" if loaded.sweep is None else loaded.sweep.spacing,
        )
        _write_text(args.out_svg, svg)
        print(f"wrote {args.out_svg}", file=out)
    return _EXIT_OK


def _print_matrix_report(report, out):
    """Print a certificate and its checks; True when every check passed."""
    print(f"  {report.name}: label {report.label}, "
          f"{'holds' if report.guaranteed else 'no guarantee'}", file=out)
    for desc, ok in report.checks:
        print(f"    - {desc}: {'yes' if ok else 'NO'}", file=out)
    return all(ok for _, ok in report.checks)


def cmd_classify(args, out=None):
    out = sys.stdout if out is None else out
    loaded = load_scenario(args.scenario)
    sc = loaded.scenario
    print(f"classification: {loaded.name}", file=out)
    if isinstance(sc.prior, NaivePrior):
        fs = sc.constants.rule_sq
        print(f"  score: constant {_g5(fs)} ({label_region(fs)})", file=out)
        if sc.trace_gap > 0.0:
            root = neutrality_sigma_naive(sc)
            print(f"  utility: MonotoneDecreasing, crossing at {_g5(root)}", file=out)
        else:
            print("  utility: MonotoneDecreasing, no crossing", file=out)
        return _EXIT_OK

    passed = []  # one entry per internal cross-check; any False exits 4
    if isinstance(sc.prior, CommonPrior):
        shape = classify_score_bayes(sc)
        line = f"  score: {shape.trend}"
        if shape.neutrality_sigma is not None:
            line += f", crossing at {_g5(shape.neutrality_sigma)}"
        print(line, file=out)
        regime = classify_utility_bayes(sc)
    else:
        regime = classify_utility_projected(sc)
        passed.append(_print_matrix_report(exploitation_condition_projected(sc), out))
        neutral = neutrality_condition_projected(sc)
        passed.append(_print_matrix_report(neutral.report, out))
        if neutral.sigma is not None:
            print(f"    crossing at {_g5(neutral.sigma)}", file=out)
        passed.append(_print_matrix_report(monotonicity_condition_projected(sc), out))
        try:
            matrix_report = classify_utility_projected_matrix(sc)
        except AssumptionViolated as exc:
            print(f"  rule-agnostic utility verdict: not applicable ({exc})", file=out)
        else:
            passed.append(matrix_report.samples_agree)
            print(
                f"  rule-agnostic utility verdict: {matrix_report.verdict} "
                f"(sampled rules agree: {'yes' if matrix_report.samples_agree else 'NO'})",
                file=out,
            )

    passed.append(regime.count_matches)
    line = f"  utility: {regime.case}, critical scale {_g5(regime.critical_scale)}"
    if regime.case is UtilityCase.NON_MONOTONE:
        line += f", minimum at {_g5(regime.sigma_min)} (value {_g5(regime.minimum_value)})"
    print(line, file=out)
    print(
        f"  utility crossings: {len(regime.roots)} at "
        f"[{', '.join(_g5(r) for r in regime.roots)}] "
        f"(predicted {regime.predicted_roots}, "
        f"{'match' if regime.count_matches else 'MISMATCH'})",
        file=out,
    )

    score_zero, score_inf = map(label_region, endpoints(sc, Metric.SCORE))
    if score_zero is score_inf and score_zero is not RegionLabel.NEUTRALITY:
        print(f"  score region: {score_zero} throughout", file=out)
    else:
        print(
            f"  score region: {score_zero} at zero noise, {score_inf} in the limit",
            file=out,
        )
    utility_zero, utility_inf = map(label_region, endpoints(sc, Metric.UTILITY))
    print(f"  utility region: {utility_zero} at zero noise, {utility_inf} in the limit", file=out)
    return _EXIT_OK if all(passed) else _EXIT_VERIFY


def cmd_verify(args, out=None):
    out = sys.stdout if out is None else out
    points = _points(args, 1, default=6)
    loaded = load_scenario(args.scenario)
    if loaded.mc is None and (args.n is None or args.seed is None):
        _fail("/mc", "verify needs an mc block or both --n and --seed")
    sc = loaded.scenario
    n = args.n if args.n is not None else loaded.mc.n
    seed = args.seed if args.seed is not None else loaded.mc.seed
    _check_mc(n, seed, "--n", "--seed")  # the mc block passed these checks on load
    z_max = loaded.mc.z_max if loaded.mc is not None else 4.0
    sigmas = [0.0] + sigma_grid(sc, points).tolist()
    rows = []
    for sigma, estimates in zip(sigmas, estimate_disparities(sc, sigmas, n, seed)):
        for metric in (Metric.SCORE, Metric.UTILITY):
            try:
                result = compare(disparity_value(sc, metric, sigma), estimates[metric], z_max)
            except ZeroStderrMismatch as exc:
                result = exc
            rows.append((metric, sigma, result))

    print(f"verification: n={n}, seed={seed}, z_max={_g5(z_max)}", file=out)
    print("  metric   sigma         analytic       mc_mean        stderr       z      status", file=out)
    failures = 0
    for metric, sigma, result in rows:
        if isinstance(result, ZeroStderrMismatch):
            failures += 1
            print(f"  {metric.value:<8} {_g5(sigma):<12}  exact-mode mismatch: {result}", file=out)
            continue
        status = "ok" if result.passed else "FAIL"
        if not result.passed:
            failures += 1
        est = result.estimate
        print(
            f"  {metric.value:<8} {_g5(sigma):<12} {result.analytic:>13.6g} "
            f"{est.mean:>13.6g} {est.stderr:>13.6g} {result.z:>+7.2f}  {status}",
            file=out,
        )
    if failures:
        print(f"{failures} comparison(s) failed", file=out)
        return _EXIT_VERIFY
    print("all comparisons passed", file=out)
    return _EXIT_OK


def cmd_bounds(args, out=None):
    out = sys.stdout if out is None else out
    points = _points(args, 2)
    loaded = load_scenario(args.scenario)
    sc = loaded.scenario
    grid = _sweep_sigmas(loaded, points, default_points=21)
    score = np.abs(disparity_value(sc, Metric.SCORE, grid))
    utility = np.abs(disparity_value(sc, Metric.UTILITY, grid))
    score_bound = score_overlap_bound(sc, grid)
    utility_bound = utility_overlap_bound(sc, grid)
    score_slack = score_bound - score
    utility_slack = utility_bound - utility
    # a nan would pass any comparison with the tolerance below
    _require_finite("score slack", score_slack, grid)
    _require_finite("utility slack", utility_slack, grid)
    columns = (grid, score, score_bound, score_slack, utility, utility_bound, utility_slack)
    print("  sigma        |score|      score_bound  slack        |utility|    utility_bound  slack", file=out)
    worst = math.inf
    for s, afs, bs, slack_s, afu, bu, slack_u in zip(*(c.tolist() for c in columns)):
        worst = min(worst, slack_s, slack_u)
        print(
            f"  {_g5(s):<12} {afs:<12.6g} {bs:<12.6g} {slack_s:<12.3e} "
            f"{afu:<12.6g} {bu:<14.6g} {slack_u:.3e}",
            file=out,
        )
    print(f"worst slack: {worst:.3e}", file=out)
    if worst < -1e-12:
        print("bound violated", file=out)
        return _EXIT_BOUND
    print("all bounds hold", file=out)
    return _EXIT_OK


# --------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flab",
        description="Analytic and Monte Carlo disparity analysis for strategic "
        "agents responding to a noisy linear scoring rule.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("validate", help="check a scenario file and print its constants")
    p.add_argument("scenario")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("sweep", help="evaluate disparity curves over a noise grid")
    p.add_argument("scenario")
    p.add_argument("--out-csv", metavar="PATH")
    p.add_argument("--out-svg", metavar="PATH")
    p.add_argument("--points", type=int, metavar="K")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("classify", help="report the regime of each disparity curve")
    p.add_argument("scenario")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("verify", help="compare analytic values against Monte Carlo")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, metavar="N")
    p.add_argument("--n", type=int, metavar="N")
    p.add_argument("--points", type=int, metavar="K")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bounds", help="check overlap bounds for equal-cost scenarios")
    p.add_argument("scenario")
    p.add_argument("--points", type=int, metavar="K")
    p.set_defaults(fn=cmd_bounds)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_PARSE
    except ZeroStderrMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VERIFY
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ASSUMPTION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
