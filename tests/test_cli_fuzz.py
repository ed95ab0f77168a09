"""Property tests of the command line: a committed scenario with one key
changed to any JSON value, or dropped, any valid sweep grid, or any text as
the value of a count option, never crashes a subcommand, and a parse error
or a violated assumption leaves no output behind. The command line and the
library also admit the same prior scales."""

import contextlib
import io
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flab import cli
from flab.agents import signal_weight
from flab.closed_form import CommonPrior, ProjectedPrior
from flab.errors import Error
from flab.linalg_core import Projection

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
COMMITTED = {p.stem: json.loads(p.read_text(encoding="utf-8")) for p in sorted(SCENARIOS.glob("*.json"))}

COMMANDS = {
    "validate": {},
    "sweep": {"--points": "5"},
    "classify": {},
    "verify": {"--n": "1000", "--seed": "1", "--points": "1"},
    "bounds": {"--points": "5"},
}
COUNT_OPTIONS = [(command, option) for command, options in COMMANDS.items() for option in options]


def key_paths(node, prefix=()):
    """The path of every key in a JSON object, nested objects included."""
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


KEYS = [(name, path) for name, body in COMMITTED.items() for path in key_paths(body)]

ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)
# values of the right shape get past the schema to the model's own checks
NUMBERS = st.floats(-10.0, 10.0) | st.sampled_from([0.0, -1.0, 1e-300, 1e300])
VECTORS = st.lists(NUMBERS, min_size=1, max_size=3)
MATRICES = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(NUMBERS, min_size=d, max_size=d), min_size=d, max_size=d)
)
DROP = object()  # a sentinel: no generated JSON value is this object
VALUES = ANY_JSON | NUMBERS | VECTORS | MATRICES | st.fixed_dictionaries({"span": st.lists(VECTORS, max_size=2)})
# every code point but a lone surrogate, which /label refuses: an SVG title may hold characters XML cannot
LABELS = st.text(st.characters(exclude_categories=["Cs"]), max_size=6)
# the (encoding, errors) of a captured stdout: the default UTF-8 mode's, and ones that cannot hold every label
STDOUTS = st.tuples(st.sampled_from(["utf-8", "ascii", "latin-1"]), st.sampled_from(["strict", "surrogateescape"]))
# any text, text that reads as an option, long digit strings beyond int()'s 4,300-digit limit,
# and signed integers, some near the bounds
COUNT_TEXT = (
    st.text(max_size=8)
    | st.text(max_size=7).map("-".__add__)
    | st.tuples(st.sampled_from("0123456789"), st.integers(1, 5001)).map(lambda t: t[0] * t[1])
    | st.from_regex(r"[+-]?[0-9]{1,20}", fullmatch=True)
    | st.integers(-(10**18), 10**18).map(str)
    | st.integers(-3, 3000).map(str)
)


def exits_cleanly(tmp, body, command, options, files, joined=True, stdout=("utf-8", "strict")):
    """Run ``command`` on ``body``: a known exit code, and on exit 2 or 3 no output and one reason.

    Each option is passed as ``--n=TEXT``, or, unless ``joined``, as the
    two words ``--n TEXT``, where a text such as ``-x`` reads as an option.
    The captured stdout has the ``(encoding, errors)`` of ``stdout``.
    """
    scenario = tmp / "scenario.json"
    scenario.write_text(json.dumps(body), encoding="utf-8")
    args = [command, str(scenario)]
    for option, text in options.items():
        args += [f"{option}={text}"] if joined else [option, text]
    outputs = []
    if command == "sweep" and files:
        outputs = [tmp / "curves.csv", tmp / "curves.svg"]
        args += ["--out-csv", str(outputs[0]), "--out-svg", str(outputs[1])]

    out, err = io.TextIOWrapper(io.BytesIO(), *stdout), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    out.flush()
    assert code in (0, 2, 3, 4, 5), err.getvalue()
    if code in (2, 3):
        assert out.buffer.getvalue() == b"", (args, body)
        assert not any(p.exists() for p in outputs)
        assert err.getvalue().startswith("error: ")
    if code == 0 and outputs:
        ET.parse(outputs[1])


@st.composite
def mutations(draw):
    """A committed scenario's key path and its new value, or DROP; a label may also be any text."""
    name, path = draw(st.sampled_from(KEYS))
    values = st.just(DROP) | VALUES
    if path == ("label",):
        values = LABELS | values
    return name, path, draw(values)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(mutation=mutations(), command=st.sampled_from(sorted(COMMANDS)), files=st.booleans(), stdout=STDOUTS)
@example(mutation=("reference_common", ("label",), "a\x01b"), command="sweep", files=True, stdout=("utf-8", "surrogateescape"))
@example(mutation=("two_crossings", ("label",), "\ufffe"), command="sweep", files=True, stdout=("utf-8", "surrogateescape"))
@example(mutation=("reference_naive", ("label",), "na\xefve \u2013 \xfc"), command="validate", files=False,
         stdout=("ascii", "strict"))
def test_mutated_scenario_exits_cleanly(tmp_path_factory, mutation, command, files, stdout):
    name, path, value = mutation
    body = json.loads(json.dumps(COMMITTED[name]))
    parent = body
    for part in path[:-1]:
        parent = parent[part]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    exits_cleanly(tmp_path_factory.mktemp("fuzz"), body, command, COMMANDS[command], files, stdout=stdout)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    name=st.sampled_from(sorted(COMMITTED)),
    count=st.sampled_from(COUNT_OPTIONS),
    text=COUNT_TEXT,
    files=st.booleans(),
    joined=st.booleans(),
)
def test_count_option_text_exits_cleanly(tmp_path_factory, name, count, text, files, joined):
    command, option = count
    options = {**COMMANDS[command], option: text}
    # low caps keep every accepted count a run of well under a second; the reader is the same at any cap
    with mock.patch.multiple(cli, MAX_POINTS=100, MAX_SAMPLES=100_000):
        exits_cleanly(tmp_path_factory.mktemp("fuzz"), COMMITTED[name], command, options, files, joined)


@st.composite
def sweep_blocks(draw):
    """A valid `sweep` block of either spacing, from 2 to 50 points, as narrow as one ulp or up to 1e308."""
    spacing = draw(st.sampled_from(["log", "linear"]))
    starts = [5e-324, 1.0, 10.0] + ([0.0] if spacing == "linear" else [])
    lo = draw(st.floats(5e-324, 1e300) | st.sampled_from(starts))
    ulp = math.nextafter(lo, math.inf) - lo
    hi = draw(
        st.integers(1, 8).map(lambda k: lo + k * ulp)
        | st.floats(lo + ulp, max(lo + ulp, lo * 1.001))
        | st.floats(lo + ulp, 1e308)
    )
    points = draw(st.integers(2, 50))
    return {"sigma_min": lo, "sigma_max": hi, "points": points, "spacing": spacing}


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(COMMITTED)), sweep=sweep_blocks())
# log10 of both ends rounds to one double, so the x axis spans nothing
@example(name="reference_common", sweep={"sigma_min": 10.0, "sigma_max": 10.000000000000002, "points": 2})
def test_any_sweep_grid_exits_cleanly(tmp_path_factory, name, sweep):
    tmp = tmp_path_factory.mktemp("fuzz")
    exits_cleanly(tmp, {**COMMITTED[name], "sweep": sweep}, "sweep", {}, files=True)
    if (tmp / "curves.svg").exists():
        root = ET.parse(tmp / "curves.svg").getroot()
        assert sum(e.tag.endswith("polyline") for e in root.iter()) == 2


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(scale=st.floats(allow_nan=False, allow_infinity=False))
@example(scale=0.0)
@example(scale=-0.0)
@example(scale=5e-324)
@example(scale=1e-170)
@example(scale=1.3e154)
@example(scale=1e160)
@example(scale=-2.0)
def test_cli_and_library_admit_the_same_prior_scales(tmp_path_factory, scale):
    tmp = tmp_path_factory.mktemp("scale")
    square = scale * scale
    want = 2 if scale <= 0.0 else 3 if not 0.0 < square < math.inf else 0
    for name in ("reference_common", "reference_projected"):
        body = json.loads(json.dumps(COMMITTED[name]))
        body["prior"]["scale"] = scale
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(["validate", str(path)]) == want, err.getvalue()
        assert ("/prior/scale" in err.getvalue()) == (want == 2)
    eye = Projection(np.eye(2))
    for build in (
        lambda: CommonPrior(np.zeros(2), scale),
        lambda: ProjectedPrior(eye, eye, scale),
        lambda: signal_weight(scale, 1.0),
    ):
        try:
            build()
        except Error:
            assert want != 0
        else:
            assert want == 0
