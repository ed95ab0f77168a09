"""Checks of flab's printed and written outputs against the numpy reference.

Every check returns a list of error strings; an empty list means the output
is correct. Printed numbers carry 5 (`%.5g`) or 6 (`%.6g`) significant
digits, so they are compared with a relative tolerance a little above
their rounding, plus an absolute floor of 1e-9 times the size of the terms
that cancel in the value.
"""

import math
import re
import xml.etree.ElementTree as ET

import numpy as np

from reference import region

CSV_HEADER = "sigma,score_disparity,utility_disparity,score_region,utility_region,mc_mean,mc_stderr,z"
G5 = 6e-5
G6 = 6e-6
_SEMI_POSITIVE = ("PD", "PSD", "Zero")


def close(printed, ref, rel, floor=1e-12):
    return abs(float(printed) - ref) <= rel * abs(ref) + floor


def sigma_grid(spec, points, default_points):
    """Noise grid a subcommand evaluates, from the scenario's sweep block."""
    block = spec.get("sweep")
    if block is None:
        u = max(float(spec["prior"].get("scale", 0.0)), 1.0)
        return np.geomspace(1e-3 * u, 1e3 * u, points or default_points)
    k = points or block["points"]
    if block.get("spacing", "log") == "log":
        return np.geomspace(block["sigma_min"], block["sigma_max"], k)
    return np.linspace(block["sigma_min"], block["sigma_max"], k)


def _flips(model, metric, x, rel=2e-4):
    """Whether the reference curve changes sign across x(1 -/+ rel)."""
    s, u, _ = model.curves([x * (1.0 - rel), x * (1.0 + rel)])
    v = s if metric == "score" else u
    return v[0] * v[1] < 0.0


def _label_ok(printed_label, value, scale):
    """A region label must match the reference sign unless the value sits in the band."""
    if abs(abs(value) - 1e-10) <= 1e-9 * scale:
        return True
    return printed_label == str(region(value))


# -- validate -----------------------------------------------------------


def check_validate(model, text):
    errors = []
    c = model.constants()
    floor = 1e-9 * (1.0 + max(abs(v) for v in c.values() if isinstance(v, float)))
    fields = {}
    for line in text.splitlines():
        key, _, value = line.strip().partition(": ")
        fields[key] = value
    if not text.startswith("scenario OK: "):
        errors.append("validate: no 'scenario OK' line")
    if fields.get("dimension") != str(model.dim):
        errors.append(f"validate: dimension {fields.get('dimension')!r}")
    if fields.get("cost gap") != c["cost_gap"]:
        errors.append(f"validate: cost gap {fields.get('cost gap')!r}, reference {c['cost_gap']}")

    def num(key, ref):
        if key not in fields or not close(fields[key], ref, G5, floor):
            errors.append(f"validate: {key} {fields.get(key)!r}, reference {ref:.6g}")

    num("trace gap", c["trace_gap"])
    if model.kind == "naive":
        num("score disparity (all noise levels)", c["rule_sq"])
        if c["trace_gap"] > 0.0:
            num("utility crossing", math.sqrt(c["rule_sq"] / c["trace_gap"]))
        return errors
    if "critical_scale" in c:
        num("critical prior scale", c["critical_scale"])
    consts = dict(re.findall(r"([a-z-]+) (\S+?)(?:,|$)", fields.get("gap-metric constants", "")))
    if model.kind == "common":
        want = {"rule": "rule_sq", "prior": "prior_sq", "cross": "cross", "mismatch": "mismatch"}
    else:
        want = {"rule": "rule_sq", "known-side": "prior_limit"}
        if fields.get("subspace ranks") != "{} and {}".format(*c["ranks"]):
            errors.append(f"validate: subspace ranks {fields.get('subspace ranks')!r}")
        defect = float(fields.get("commutation defect", "inf"))
        if not defect <= 1e-10:
            errors.append(f"validate: commutation defect {defect} above 1e-10")
    for name, key in want.items():
        if name not in consts or not close(consts[name], c[key], G5, floor):
            errors.append(f"validate: constant {name} {consts.get(name)!r}, reference {c[key]:.6g}")
    return errors


# -- sweep ----------------------------------------------------------------


def check_csv(model, sigmas, text):
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        return ["sweep: bad CSV header or missing final newline"]
    rows = [line.split(",") for line in lines[1:-1]]
    if len(rows) != len(sigmas):
        return [f"sweep: {len(rows)} rows, expected {len(sigmas)}"]
    if any(len(r) != 8 or r[5:] != ["", "", ""] for r in rows):
        return ["sweep: malformed CSV row"]
    got = np.array([[float(v) for v in r[:3]] for r in rows]).reshape(-1, 3)
    errors = []
    if not np.allclose(got[:, 0], sigmas, rtol=1e-14, atol=0.0):
        errors.append("sweep: sigma column differs from the configured grid")
    score, utility, scale = model.curves(sigmas)
    for col, ref, name in ((1, score, "score"), (2, utility, "utility")):
        bad = np.abs(got[:, col] - ref) > 1e-9 * scale
        if bad.any():
            i = int(np.argmax(bad))
            errors.append(f"sweep: {name} at sigma {sigmas[i]:.6g} is {float(got[i, col])!r}, "
                          f"reference {float(ref[i])!r}")
        labels = [r[col + 2] for r in rows]
        wrong = [i for i in range(len(rows)) if not _label_ok(labels[i], ref[i], scale[i])]
        if wrong:
            errors.append(f"sweep: {name} region {labels[wrong[0]]} at sigma {sigmas[wrong[0]]:.6g}")
    return errors


def check_svg(csv_text, svg_text):
    """The plot draws both curves: x rises with sigma, y falls linearly in the value."""
    try:
        root = ET.fromstring(svg_text)
    except ET.ParseError as exc:
        return [f"sweep: SVG does not parse: {exc}"]
    lines = [line.split(",") for line in csv_text.split("\n")[1:-1]]
    lines = [line for line in lines if len(line) >= 3]
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    if not root.tag.endswith("svg") or len(polylines) != 2:
        return [f"sweep: SVG has {len(polylines)} polylines, expected 2"]
    errors = []
    for col, poly in zip((1, 2), polylines):
        pts = np.array(
            [[float(v) for v in p.split(",")] for p in poly.get("points", "").split()]
        ).reshape(-1, 2)
        values = np.array([float(line[col]) for line in lines])
        if len(pts) != len(values):
            errors.append(f"sweep: polyline has {len(pts)} points for {len(values)} rows")
            continue
        if len(pts) > 1 and not np.all(np.diff(pts[:, 0]) > 0.0):
            errors.append("sweep: polyline x does not increase with sigma")
        if np.ptp(values) > 0.0:
            fit = np.polyfit(values, pts[:, 1], 1)
            resid = np.abs(np.polyval(fit, values) - pts[:, 1]).max()
            if not (fit[0] < 0.0 and resid <= 0.01):
                errors.append(f"sweep: polyline y not a falling linear map of the values (residual {resid:.3g})")
        elif np.ptp(pts[:, 1]) > 0.0:
            errors.append("sweep: constant curve drawn at varying height")
    return errors


# -- classify ---------------------------------------------------------------


def _classify_fields(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.strip().partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def check_classify(model, text):
    errors = []
    c = model.constants()
    floor = 1e-9 * (1.0 + max(abs(v) for v in c.values() if isinstance(v, float)))
    f = _classify_fields(text)
    if not text.startswith("classification: "):
        errors.append("classify: no 'classification' line")
    if " NO" in text or "MISMATCH" in text:
        errors.append("classify: the program reports a failed internal check")

    if model.kind == "naive":
        m = re.fullmatch(r"constant (\S+) \((\w+)\)", f.get("score", ""))
        if not m or not close(m.group(1), c["rule_sq"], G5, floor) or m.group(2) != region(c["rule_sq"]):
            errors.append(f"classify: score line {f.get('score')!r}")
        if c["trace_gap"] > 0.0:
            m = re.fullmatch(r"MonotoneDecreasing, crossing at (\S+)", f.get("utility", ""))
            root = math.sqrt(c["rule_sq"] / c["trace_gap"])
            if not m or not close(m.group(1), root, G5) or not _flips(model, "utility", float(m.group(1))):
                errors.append(f"classify: utility line {f.get('utility')!r}")
        return errors

    u = model.noise_unit()
    if model.kind == "common":
        tol = 1e-10 * (1.0 + abs(c["cross"]) + abs(c["rule_sq"]))
        if abs(c["cross"] - c["rule_sq"]) <= tol:
            trend = "Constant"
        else:
            trend = "Decreasing" if c["cross"] < c["rule_sq"] else "Increasing"
        m = re.fullmatch(r"(\w+)(?:, crossing at (\S+))?", f.get("score", ""))
        if not m or m.group(1) != trend:
            errors.append(f"classify: score trend {f.get('score')!r}, reference {trend}")
        elif (m.group(2) is None) != (c["cross"] >= 0.0):
            errors.append("classify: score crossing reported where the reference has none, or missed")
        elif m.group(2) is not None:
            root = math.sqrt(-c["rule_sq"] / c["cross"]) * model.scale
            if not close(m.group(2), root, G5) or not _flips(model, "score", float(m.group(2))):
                errors.append(f"classify: score crossing {m.group(2)}, reference {root:.6g}")
    else:
        errors += _check_certificates(model, text, f)

    crit_sq = 2.0 * c["mismatch"] / c["trace_gap"]
    case = "NonMonotone" if model.scale ** 2 > crit_sq else "MonotoneDecreasing"
    m = re.fullmatch(
        r"(\w+), critical scale (\S+)(?:, minimum at (\S+) \(value (\S+)\))?", f.get("utility", "")
    )
    if not m or m.group(1) != case or not close(m.group(2), c["critical_scale"], G5, floor):
        errors.append(f"classify: utility line {f.get('utility')!r}, reference {case}")
    elif case == "NonMonotone":
        s_min = model.scale * math.sqrt(1.0 / (1.0 - crit_sq / model.scale ** 2))
        _, v_min, scale = model.curves([s_min])
        if not close(m.group(3), s_min, G5) or not close(m.group(4), v_min[0], G5, 1e-9 * scale[0]):
            errors.append(f"classify: minimum {m.group(3)} ({m.group(4)}), reference {s_min:.6g} ({v_min[0]:.6g})")

    m = re.fullmatch(r"(\d+) at \[(.*)\] \(predicted (\d+), (match|MISMATCH)\)", f.get("utility crossings", ""))
    brackets = model.utility_sign_changes(1e-3 * u, 1e3 * u)
    if not m:
        errors.append(f"classify: crossings line {f.get('utility crossings')!r}")
    else:
        roots = [float(r) for r in m.group(2).split(", ") if r]
        if int(m.group(1)) != len(brackets) or len(roots) != len(brackets):
            errors.append(f"classify: {m.group(1)} crossings, reference curve changes sign {len(brackets)} times")
        if int(m.group(3)) != len(brackets):
            errors.append(f"classify: predicted {m.group(3)} crossings, reference {len(brackets)}")
        for r in roots:
            if not _flips(model, "utility", r):
                errors.append(f"classify: reported crossing {r} brackets no sign change")

    (s0, u0), (s_inf, u_inf) = model.limits()
    scale = 1.0 + abs(s0) + abs(s_inf) + abs(u0) + abs(u_inf)
    m = re.fullmatch(r"(\w+) (?:throughout|at zero noise, (\w+) in the limit)", f.get("score region", ""))
    if not m or not _label_ok(m.group(1), s0, scale) or not _label_ok(m.group(2) or m.group(1), s_inf, scale):
        errors.append(f"classify: score region {f.get('score region')!r}")
    m = re.fullmatch(r"(\w+) at zero noise, (\w+) in the limit", f.get("utility region", ""))
    if not m or not _label_ok(m.group(1), u0, scale) or not _label_ok(m.group(2), u_inf, scale):
        errors.append(f"classify: utility region {f.get('utility region')!r}")
    return errors


def _check_certificates(model, text, fields):
    errors = []
    labels = model.certificate_labels()
    blocks = {
        "score exploitation at every noise scale": (labels["known"], labels["known"] in _SEMI_POSITIVE),
        "score neutrality for every rule": (labels["known"], labels["known"] == "ND"),
        "score disparity trend": (labels["unknown"], labels["unknown"] != "Indefinite"),
    }
    for name, (lab, holds) in blocks.items():
        want = f"label {lab}, {'holds' if holds else 'no guarantee'}"
        if fields.get(name) != want:
            errors.append(f"classify: certificate {name!r} is {fields.get(name)!r}, eigvalsh gives {want!r}")
    if labels["known"] == "ND":
        m = re.search(r"^    crossing at (\S+)$", text, re.M)
        if not m or not _flips(model, "score", float(m.group(1))):
            errors.append("classify: neutrality crossing missing or not a sign change")
    verdict = model.matrix_verdict()
    line = fields.get("rule-agnostic utility verdict", "")
    if verdict is None:
        ok = line.startswith("not applicable")
    else:
        ok = line == f"{verdict} (sampled rules agree: yes)"
    if not ok:
        errors.append(f"classify: matrix verdict {line!r}, eigvalsh gives {verdict}")
    return errors


# -- verify -------------------------------------------------------------------


def check_verify(model, text, n, seed, points):
    lines = text.splitlines()
    m = re.fullmatch(r"verification: n=(\d+), seed=(-?\d+), z_max=(\S+)", lines[0] if lines else "")
    if not m or int(m.group(1)) != n or int(m.group(2)) != seed:
        return [f"verify: header {lines[:1]!r}"]
    z_max = float(m.group(3))
    u = model.noise_unit()
    sigmas = np.concatenate([[0.0], np.geomspace(1e-3 * u, 1e3 * u, points)])
    rows = [line.split() for line in lines[2:-1]]
    if len(rows) != 2 * len(sigmas) or lines[-1] != "all comparisons passed":
        return [f"verify: {len(rows)} rows or a failed comparison: {lines[-1]!r}"]
    score, utility, scale = model.curves(sigmas)
    errors = []
    for i, row in enumerate(rows):
        k, metric = divmod(i, 2)
        ref = (score, utility)[metric][k]
        floor = 1e-9 * scale[k]
        if len(row) != 7 or row[0] != ("score", "utility")[metric] or row[6] != "ok":
            errors.append(f"verify: row {row}")
            continue
        analytic, mean, stderr = (float(v) for v in row[2:5])
        if not close(row[1], sigmas[k], G5) or not close(analytic, ref, G6, floor):
            errors.append(f"verify: {row[0]} at {row[1]}: analytic {analytic}, reference {ref:.7g}")
        # the mean must lie within z_max standard errors of the reference value
        slack = z_max * stderr + G6 * (abs(mean) + z_max * stderr) + floor
        if abs(mean - ref) > slack:
            errors.append(f"verify: {row[0]} at {row[1]}: mean {mean} is {abs(mean - ref) / max(stderr, 1e-300):.2f} stderr from {ref:.7g}")
    return errors


# -- bounds -------------------------------------------------------------------


def check_bounds(model, sigmas, text):
    lines = text.splitlines()
    rows = [line.split() for line in lines[1:-2]]
    if len(rows) != len(sigmas) or lines[-1] != "all bounds hold":
        return [f"bounds: {len(rows)} rows for {len(sigmas)} sigmas, last line {lines[-1:]!r}"]
    got = np.array([[float(v) for v in r] for r in rows]).reshape(-1, 7)
    score, utility, scale = model.curves(sigmas)
    errors = []
    if not np.allclose(got[:, 0], sigmas, rtol=G5, atol=0.0):
        errors.append("bounds: sigma column differs from the grid")
    for col, ref, name in ((1, score, "score"), (4, utility, "utility")):
        if np.any(np.abs(got[:, col] - np.abs(ref)) > G6 * np.abs(ref) + 1e-9 * scale):
            errors.append(f"bounds: |{name}| differs from the reference")
        # each printed |disparity| stays under its printed bound, up to print rounding
        if np.any(got[:, col] > got[:, col + 1] * (1.0 + 2 * G6) + 1e-12):
            errors.append(f"bounds: |{name}| exceeds its printed bound")
    return errors
