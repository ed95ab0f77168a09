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
import re
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
from .errors import AssumptionViolated, Error, NonFinite, ParseError
from .linalg_core import CostMatrix, Projection
from .mc_oracle import MAX_SAMPLES, MIN_SAMPLES, Z_MAX, compare, estimate_disparities
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

MAX_POINTS = 10**7  # the most noise levels a grid may have
MAX_DIGITS = 17  # the longest integer any field or option takes


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
    name: str  # for display: the file's "label", else its base name


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
    try:
        number = float(value)
    except OverflowError:
        _fail(pointer, "expected a finite number, got an integer beyond floating-point range")
    if not math.isfinite(number):
        _fail(pointer, f"expected a finite number, got {value}")
    return number


_INTEGER_TEXT = re.compile(rf"[+-]?[0-9]{{1,{MAX_DIGITS}}}")


def _count(value, pointer, lo, hi):
    """A count held to [lo, hi], where a ``hi`` of None is no upper bound.

    The value is a JSON integer, or, where ``pointer`` names an option such
    as ``--n``, the option's text: an optional sign and 1 to MAX_DIGITS
    ASCII digits.
    """
    if pointer.startswith("--"):
        if not _INTEGER_TEXT.fullmatch(value):
            _fail(pointer, f"expected an integer of at most {MAX_DIGITS} digits")
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(pointer, f"expected an integer, got {type(value).__name__}")
    if abs(value) >= 10**MAX_DIGITS:  # so an error line never echoes a huge value
        _fail(pointer, f"expected an integer of at most {MAX_DIGITS} digits")
    if value < lo:
        _fail(pointer, f"need at least {lo}, got {value}")
    if hi is not None and value > hi:
        _fail(pointer, f"need at most {hi}, got {value}")
    return value


def _string(value, pointer):
    if not isinstance(value, str):
        _fail(pointer, f"expected a string, got {type(value).__name__}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate escape such as "\ud800"
        _fail(pointer, f"invalid Unicode at character {exc.start}: {exc.reason}")
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
    points = _count(node["points"], "/sweep/points", 2, MAX_POINTS)
    spacing = _string(node.get("spacing", "log"), "/sweep/spacing")
    if spacing not in ("log", "linear"):
        _fail("/sweep/spacing", f"expected 'log' or 'linear', got '{spacing}'")
    if not lo < hi:
        _fail("/sweep", f"need sigma_min < sigma_max, got {lo} and {hi}")
    if spacing == "log" and lo <= 0.0:
        _fail("/sweep/sigma_min", "log spacing needs a positive lower bound")
    if spacing == "linear" and lo < 0.0:
        _fail("/sweep/sigma_min", "noise scale cannot be negative")
    return SweepConfig(lo, hi, points, spacing)


def _parse_mc(node):
    _check_keys(node, "/mc", required=("n", "seed"), optional=("z_max",))
    n = _count(node["n"], "/mc/n", MIN_SAMPLES, MAX_SAMPLES)
    seed = _count(node["seed"], "/mc/seed", 0, None)
    z_max = _positive(_number(node.get("z_max", Z_MAX), "/mc/z_max"), "/mc/z_max")
    return McConfig(n, seed, z_max)


def load_scenario(path):
    """Parse and validate a scenario file into model objects."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        _fail("/", f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        _fail("/", f"not UTF-8 text: {exc.reason} at byte {exc.start}")
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail("/", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        _fail("/", "invalid JSON: arrays or objects nested too deeply")
    except ValueError:  # the interpreter's limit on integer digits
        _fail("/", "invalid JSON: an integer literal has too many digits")
    _check_keys(
        root,
        "/",
        required=("dimension", "rule", "cost1", "cost2", "prior"),
        optional=("sweep", "mc", "label"),
    )
    dim = _count(root["dimension"], "/dimension", 1, None)
    rule = _vector(root["rule"], "/rule", dim)
    cost1 = CostMatrix(_matrix(root["cost1"], "/cost1", dim))
    cost2 = CostMatrix(_matrix(root["cost2"], "/cost2", dim))
    prior = _parse_prior(root["prior"], dim)
    label = _string(root.get("label", ""), "/label")
    sweep = _parse_sweep(root["sweep"]) if "sweep" in root else None
    mc = _parse_mc(root["mc"]) if "mc" in root else None
    scenario = Scenario(rule, cost1, cost2, prior)
    return LoadedScenario(scenario, sweep, mc, label or os.path.basename(path))


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
    if x_hi == x_lo:  # a log grid so narrow that both ends have one log10: every point mid-axis
        x_lo -= 1.0
        x_hi += 1.0
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

    def line(x1, y1, x2, y2, stroke='stroke="#222222" stroke-width="1"'):
        parts.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" {stroke}/>')

    def text(x, y, size, body, anchor=""):
        anchor = f' text-anchor="{anchor}"' if anchor else ""
        parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-family="sans-serif" '
            f'font-size="{size}" fill="#222222"{anchor}>{body}</text>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>',
    ]
    text(ml, mt - 12, 14, _escape(title))
    line(ml, mt + inner_h, ml + inner_w, mt + inner_h)
    line(ml, mt, ml, mt + inner_h)
    for v, label in ticks:
        line(sx(v), mt + inner_h, sx(v), mt + inner_h + 5)
        text(sx(v), mt + inner_h + 20, 11, label, "middle")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = y_lo + frac * (y_hi - y_lo)
        line(ml - 5, sy(v), ml, sy(v))
        text(ml - 9, sy(v) + 4, 11, f"{v:.3g}", "end")
    text(ml + inner_w / 2, height - 12, 12, "noise scale", "middle")
    if y_lo < 0.0 < y_hi:
        line(ml, sy(0.0), ml + inner_w, sy(0.0), 'stroke="#555555" stroke-width="1" stroke-dasharray="6 4"')
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
        line(lx0, ly, lx0 + 22, ly, f'stroke="{color}" stroke-width="1.8"')
        text(lx0 + 28, ly + 4, 12, _escape(name))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# every character XML 1.0 cannot hold: C0 controls but tab, LF and CR, lone surrogates, U+FFFE and U+FFFF
_NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _escape(text):
    """``text`` as SVG character data: markup escaped, and each character XML cannot hold as U+FFFD."""
    return _NOT_XML.sub("\ufffd", str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _write_outputs(outputs):
    """Write each (option, path, text), or leave no file of this run behind.

    Every path is first opened for appending, which creates a missing file
    and leaves an existing one as it was; only then is any written. An
    OSError is a bad value of that path's option, and so is a path naming
    the same file as an earlier option's; either way the files this run
    created are removed before the parse error is raised.
    """
    created = []
    try:
        for option, path, _ in outputs:
            existed = os.path.lexists(path)
            with open(path, "a", encoding="utf-8"):
                pass
            if not existed:
                created.append(path)
        for i, (option, path, _) in enumerate(outputs):
            for earlier, other, _ in outputs[:i]:
                if os.path.samefile(other, path):
                    raise ParseError(option, f"same file as {earlier}")
        for option, path, text in outputs:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except (OSError, ParseError) as exc:
        for done in created:
            os.remove(done)
        if isinstance(exc, OSError):
            _fail(option, f"cannot write {path}: {exc.strerror or exc}")
        raise


# --------------------------------------------------------------------------
# subcommands


def cmd_validate(args):
    loaded = load_scenario(args.scenario)
    sc = loaded.scenario
    c = sc.constants
    print(f"scenario OK: {loaded.name}")
    print(f"  dimension: {sc.dim}")
    print(f"  cost gap: {sc.cost_gap_label}")
    print(f"  trace gap: {_g5(sc.trace_gap)}")
    if isinstance(sc.prior, NaivePrior):
        print("  prior: naive")
        print(f"  score disparity (all noise levels): {_g5(c.rule_sq)}")
        crossing = neutrality_sigma_naive(sc) if sc.trace_gap > 0.0 else None
        if crossing is not None:
            print(f"  utility crossing: {_g5(crossing)}")
        return _EXIT_OK
    if isinstance(sc.prior, CommonPrior):
        print(f"  prior: common, scale {_g5(sc.prior.scale)}")
        print(
            f"  gap-metric constants: rule {_g5(c.rule_sq)}, prior {_g5(c.prior_sq)}, "
            f"cross {_g5(c.cross)}, mismatch {_g5(c.mismatch)}",
        )
    else:
        print(f"  prior: projected, scale {_g5(sc.prior.scale)}")
        print(f"  subspace ranks: {sc.prior.subspace1.rank} and {sc.prior.subspace2.rank}")
        print(f"  gap-metric constants: rule {_g5(c.rule_sq)}, known-side {_g5(c.cross)}")
        print(f"  commutation defect: {sc.commute_defect:.3e}")
    if sc.trace_gap > 0.0:
        print(f"  critical prior scale: {_g5(critical_prior_scale(sc))}")
    return _EXIT_OK


def cmd_sweep(args):
    points = None if args.points is None else _count(args.points, "--points", 2, MAX_POINTS)
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
    outputs = [("--out-csv", args.out_csv, csv_text)] if args.out_csv else []
    if args.out_svg:
        curves = [("score disparity", scores), ("utility disparity", utilities)]
        spacing = "log" if loaded.sweep is None else loaded.sweep.spacing
        outputs.append(("--out-svg", args.out_svg, render_svg(sigmas, curves, loaded.name, spacing)))
    _write_outputs(outputs)  # before stdout gets a byte
    if args.out_csv:
        print(f"wrote {args.out_csv} ({len(sigmas)} rows)")
    else:
        sys.stdout.write(csv_text)
    if args.out_svg:
        print(f"wrote {args.out_svg}")
    return _EXIT_OK


def _certificate_lines(report):
    """A certificate's verdict line and one line per check."""
    return [
        f"  {report.name}: label {report.label}, {'holds' if report.guaranteed else 'no guarantee'}",
        *(f"    - {desc}: {'yes' if ok else 'NO'}" for desc, ok in report.checks),
    ]


def cmd_classify(args):
    loaded = load_scenario(args.scenario)
    sc = loaded.scenario
    lines = [f"classification: {loaded.name}"]  # printed once every value is computed
    if isinstance(sc.prior, NaivePrior):
        fs = sc.constants.rule_sq
        lines.append(f"  score: constant {_g5(fs)} ({label_region(fs)})")
        crossing = neutrality_sigma_naive(sc) if sc.trace_gap > 0.0 else None
        where = "no crossing" if crossing is None else f"crossing at {_g5(crossing)}"
        lines.append(f"  utility: MonotoneDecreasing, {where}")
        print("\n".join(lines))
        return _EXIT_OK

    passed = []  # one entry per internal cross-check; any False exits 4
    if isinstance(sc.prior, CommonPrior):
        shape = classify_score_bayes(sc)
        line = f"  score: {shape.trend}"
        if shape.neutrality_sigma is not None:
            line += f", crossing at {_g5(shape.neutrality_sigma)}"
        lines.append(line)
        regime = classify_utility_bayes(sc)
    else:
        regime = classify_utility_projected(sc)
        exploitation = exploitation_condition_projected(sc)
        neutral = neutrality_condition_projected(sc)
        monotone = monotonicity_condition_projected(sc)
        passed += [all(ok for _, ok in r.checks) for r in (exploitation, neutral.report, monotone)]
        lines += _certificate_lines(exploitation) + _certificate_lines(neutral.report)
        if neutral.sigma is not None:
            lines.append(f"    crossing at {_g5(neutral.sigma)}")
        lines += _certificate_lines(monotone)
        try:
            matrix_report = classify_utility_projected_matrix(sc)
        except AssumptionViolated as exc:
            lines.append(f"  rule-agnostic utility verdict: not applicable ({exc})")
        else:
            passed.append(matrix_report.samples_agree)
            lines.append(
                f"  rule-agnostic utility verdict: {matrix_report.verdict} "
                f"(sampled rules agree: {'yes' if matrix_report.samples_agree else 'NO'})",
            )

    passed.append(regime.count_matches)
    line = f"  utility: {regime.case}, critical scale {_g5(regime.critical_scale)}"
    if regime.case is UtilityCase.NON_MONOTONE:
        line += f", minimum at {_g5(regime.sigma_min)} (value {_g5(regime.minimum_value)})"
    lines.append(line)
    lines.append(
        f"  utility crossings: {len(regime.roots)} at "
        f"[{', '.join(_g5(r) for r in regime.roots)}] "
        f"(predicted {regime.predicted_roots}, "
        f"{'match' if regime.count_matches else 'MISMATCH'})",
    )

    score_zero, score_inf = map(label_region, endpoints(sc, Metric.SCORE))
    if score_zero is score_inf and score_zero is not RegionLabel.NEUTRALITY:
        lines.append(f"  score region: {score_zero} throughout")
    else:
        lines.append(f"  score region: {score_zero} at zero noise, {score_inf} in the limit")
    utility_zero, utility_inf = map(label_region, endpoints(sc, Metric.UTILITY))
    lines.append(f"  utility region: {utility_zero} at zero noise, {utility_inf} in the limit")
    print("\n".join(lines))
    return _EXIT_OK if all(passed) else _EXIT_VERIFY


def cmd_verify(args):
    points = 6 if args.points is None else _count(args.points, "--points", 1, MAX_POINTS)
    loaded = load_scenario(args.scenario)
    if loaded.mc is None and (args.n is None or args.seed is None):
        _fail("/mc", "verify needs an mc block or both --n and --seed")
    sc = loaded.scenario
    n = loaded.mc.n if args.n is None else _count(args.n, "--n", MIN_SAMPLES, MAX_SAMPLES)
    seed = loaded.mc.seed if args.seed is None else _count(args.seed, "--seed", 0, None)
    z_max = loaded.mc.z_max if loaded.mc is not None else Z_MAX
    sigmas = np.concatenate(([0.0], sigma_grid(sc, points)))
    # the formulas first: a scenario they refuse draws no agents
    analytic = np.stack([disparity_value(sc, metric, sigmas) for metric in Metric], axis=1)
    means, stderrs = estimate_disparities(sc, sigmas, n, seed)
    z, passed, exact = compare(analytic, means, stderrs, z_max)

    print(f"verification: n={n}, seed={seed}, z_max={_g5(z_max)}")
    print("  metric   sigma         analytic       mc_mean        stderr       z      status")
    for i, sigma in enumerate(sigmas):
        # Python floats, whose repr the exact-mode line prints
        rows = zip(Metric, *(column[i].tolist() for column in (analytic, means, stderrs, z, passed, exact)))
        for metric, value, mean, stderr, z_i, ok, exact_i in rows:
            if exact_i and not ok:
                detail = (f" exact-mode mismatch: exact estimate {mean!r} differs from analytic "
                          f"{value!r} by {abs(value - mean):.3e}")
            else:
                detail = f"{value:>13.6g} {mean:>13.6g} {stderr:>13.6g} {z_i:>+7.2f}  {'ok' if ok else 'FAIL'}"
            print(f"  {metric.value:<8} {_g5(sigma):<12} {detail}")
    failures = np.count_nonzero(~passed)
    if failures:
        print(f"{failures} comparison(s) failed")
        return _EXIT_VERIFY
    print("all comparisons passed")
    return _EXIT_OK


def cmd_bounds(args):
    points = None if args.points is None else _count(args.points, "--points", 2, MAX_POINTS)
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
    print("  sigma        |score|      score_bound  slack        |utility|    utility_bound  slack")
    worst = math.inf
    for s, afs, bs, slack_s, afu, bu, slack_u in zip(*(c.tolist() for c in columns)):
        worst = min(worst, slack_s, slack_u)
        print(
            f"  {_g5(s):<12} {afs:<12.6g} {bs:<12.6g} {slack_s:<12.3e} "
            f"{afu:<12.6g} {bu:<14.6g} {slack_u:.3e}",
        )
    print(f"worst slack: {worst:.3e}")
    if worst < -1e-12:
        print("bound violated")
        return _EXIT_BOUND
    print("all bounds hold")
    return _EXIT_OK


# --------------------------------------------------------------------------
# entry point


_ARGUMENT_ERROR = re.compile(r"argument (\S+): (.*)")


class _Parser(argparse.ArgumentParser):
    """The option parser, reporting a usage error as one `ParseError` rather than usage and exit."""

    def error(self, message):
        # "argument --points: expected one argument" names the option as its pointer
        match = _ARGUMENT_ERROR.fullmatch(message)
        raise ParseError(*match.groups()) if match else ParseError(self.prog, message)


def build_parser():
    parser = _Parser(
        prog="flab",
        description="Analytic and Monte Carlo disparity analysis for strategic "
        "agents responding to a noisy linear scoring rule.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    # built on each call, so that a patched or wrapped cli.cmd_* is the one that runs
    commands = (
        ("validate", "check a scenario file and print its constants", cmd_validate, ""),
        ("sweep", "evaluate disparity curves over a noise grid", cmd_sweep, "--out-csv PATH --out-svg PATH --points K"),
        ("classify", "report the regime of each disparity curve", cmd_classify, ""),
        ("verify", "compare analytic values against Monte Carlo", cmd_verify, "--seed N --n N --points K"),
        ("bounds", "check overlap bounds for equal-cost scenarios", cmd_bounds, "--points K"),
    )
    for name, help_text, fn, options in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario")
        for option, metavar in re.findall(r"(\S+) (\S+)", options):  # each option, then its metavar
            p.add_argument(option, metavar=metavar)
        p.set_defaults(fn=fn)
    return parser


def _unencodable(exc):
    """Stdout's bytes for a character its encoding cannot hold: an undecodable byte of a file
    name (U+DC80 to U+DCFF) as that byte, as UTF-8 mode writes it, else a backslash escape."""
    char = exc.object[exc.start]
    raw = "\udc80" <= char <= "\udcff"
    return bytes([ord(char) - 0xDC00]) if raw else char.encode("ascii", "backslashreplace"), exc.start + 1


def main(argv=None):
    try:
        if sys.stdout is None:  # Python's stdout where fd 1 is closed: print would drop every line
            raise OSError("standard output is closed")
        if getattr(sys.stdout, "errors", None) in ("strict", "surrogateescape"):  # Python's own handlers
            import codecs  # loaded with the interpreter

            codecs.register_error("flab.unencodable", _unencodable)
            sys.stdout.reconfigure(errors="flab.unencodable")
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_PARSE
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ASSUMPTION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a run too large for this machine is a bad option value
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return _EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
