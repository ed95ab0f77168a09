"""CLI tests: parsing, exit codes, file emission, determinism."""

import ast
import contextlib
import dataclasses
import hashlib
import importlib
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from flab import cli, mc_oracle
from flab.agents import Metric
from flab.closed_form import disparity_value, endpoints, neutrality_sigma_score_bayes
from flab.errors import NonFinite
from flab.mc_oracle import _BLOCK
from flab.regimes import SIGN_TOL, RegionLabel, label_region

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

REF = {
    "label": "reference",
    "dimension": 2,
    "rule": [1.0, 0.5],
    "cost1": [[2.0, 0.0], [0.0, 1.0]],
    "cost2": [[4.0, 0.0], [0.0, 3.0]],
    "prior": {"kind": "naive"},
    "sweep": {"sigma_min": 1e-3, "sigma_max": 10.0, "points": 21},
    "mc": {"n": 20000, "seed": 42},
}


def write_scenario(tmp_path, body, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


def variant(**changes):
    body = json.loads(json.dumps(REF))
    body.update(changes)
    return body


def committed_with_sweep(name, sigma_min, sigma_max, points):
    body = json.loads((SCENARIOS / f"{name}.json").read_text(encoding="utf-8"))
    body["sweep"] = {"sigma_min": sigma_min, "sigma_max": sigma_max, "points": points}
    return body


def child_env(**env):
    """os.environ with flab's source tree on PYTHONPATH and ``env`` added."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p), **env)


def run_flab(args, prelude="", stdout=subprocess.PIPE, preexec_fn=None, **env):
    """`flab *args` run as a fresh process, after ``prelude``, with ``env`` added."""
    code = prelude + "import sys; from flab.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *args], env=child_env(**env), stdout=stdout,
                          stderr=subprocess.PIPE, preexec_fn=preexec_fn, timeout=300, check=False)


def fresh_flab(args, prelude="", **env):
    """stdout of `flab *args` run as a fresh process, after ``prelude``, with ``env`` added."""
    proc = run_flab(args, prelude, **env)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def outputs_per_blas_thread_count(args, out_files=()):
    """stdout plus the named output files of `flab *args`, run as a fresh process
    under OPENBLAS_NUM_THREADS=1 and =2."""
    return [
        fresh_flab(args, OPENBLAS_NUM_THREADS=threads) + b"".join(Path(f).read_bytes() for f in out_files)
        for threads in ("1", "2")
    ]


class TestParsing:
    def test_valid_file_loads(self, tmp_path):
        loaded = cli.load_scenario(write_scenario(tmp_path, REF))
        assert loaded.scenario.dim == 2
        assert loaded.sweep.points == 21
        assert loaded.mc.n == 20000
        assert loaded.mc.z_max == 4.0

    def test_unknown_field_rejected_with_pointer(self, tmp_path, capsys):
        body = variant(gamma=2.0)
        rc = cli.main(["validate", write_scenario(tmp_path, body)])
        assert rc == 2
        assert "/gamma" in capsys.readouterr().err

    def test_nested_unknown_field_pointer(self, tmp_path, capsys):
        body = variant(prior={"kind": "naive", "mean": [1.0, 0.0]})
        rc = cli.main(["validate", write_scenario(tmp_path, body)])
        assert rc == 2
        assert "/prior" in capsys.readouterr().err

    def test_syntax_error_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"dimension\": 2,,\n}", encoding="utf-8")
        rc = cli.main(["validate", str(path)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        rc = cli.main(["validate", str(tmp_path / "absent.json")])
        assert rc == 2

    def test_wrong_vector_length(self, tmp_path, capsys):
        rc = cli.main(["validate", write_scenario(tmp_path, variant(rule=[1.0]))])
        assert rc == 2
        assert "/rule" in capsys.readouterr().err

    def test_span_subspace_accepted(self, tmp_path):
        body = variant(
            prior={
                "kind": "projected",
                "subspace1": {"span": [[1.0, 0.0]]},
                "subspace2": [[1.0, 0.0], [0.0, 1.0]],
                "scale": 1.0,
            }
        )
        loaded = cli.load_scenario(write_scenario(tmp_path, body))
        assert loaded.scenario.prior.subspace1.rank == 1

    def test_equal_subspace_text_is_still_checked(self, tmp_path, capsys):
        # [[true, 0], ...] equals [[1, 0], ...] in Python, but a boolean is no number
        prior = {"kind": "projected", "subspace1": [[1, 0], [0, 0]], "subspace2": [[True, 0], [0, 0]], "scale": 1.0}
        assert cli.main(["validate", write_scenario(tmp_path, variant(prior=prior))]) == 2
        assert "/prior/subspace2/0/0" in capsys.readouterr().err

    def test_nonpositive_prior_scale_rejected(self, tmp_path):
        body = variant(prior={"kind": "common", "mean": [0.5, 2.0], "scale": 0.0})
        rc = cli.main(["validate", write_scenario(tmp_path, body)])
        assert rc == 2

    def test_projectors_need_no_eigensolve(self, tmp_path, monkeypatch):
        from flab import linalg_core

        # the projected scenarios perfbench/gen.py writes for the benchmark's seeds
        perfbench = SCENARIOS.parent / "perfbench"
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(perfbench))
        spec = importlib.util.spec_from_file_location("perfbench_gen", perfbench / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        paths = sorted(str(p) for p in SCENARIOS.glob("*.json"))
        for seed in (1, 7):
            generated = {**gen.highdim(seed), **gen.dense(seed)}
            for name in ("highdim_projected.json", "dense_equal.json"):
                paths.append(write_scenario(tmp_path, generated[name], f"seed{seed}_{name}"))

        solves = []
        true_eigh = linalg_core.jacobi_eigh

        def counted(matrix):
            if sys._getframe(1).f_code is linalg_core.Projection.__init__.__code__:
                solves.append(matrix)
            return true_eigh(matrix)

        monkeypatch.setattr(linalg_core, "jacobi_eigh", counted)
        ranks = []
        for path in paths:
            prior = cli.load_scenario(path).scenario.prior
            if hasattr(prior, "subspace1"):
                ranks.append((prior.subspace1.rank, prior.subspace2.rank))
        assert ranks == [(1, 2), (1, 2), (16, 16), (1, 2), (16, 16), (1, 2)]
        assert solves == []

    # each file's bytes, and how its one stderr line starts (the whole line where the README documents it)
    MALFORMED = {
        "not UTF-8": (json.dumps(variant(label="café"), ensure_ascii=False).encode("latin-1"), "/: "),
        "nested 100,000 deep": (b"[" * 100_000, "/: "),
        "5,001-digit integer": (json.dumps(REF).replace('"dimension": 2', '"dimension": 1' + "0" * 5000).encode(), "/: "),
        "integer beyond float range": (json.dumps(variant(rule=[10**400, 0.5])).encode(), "/rule/0: "),
        "lone surrogate": (json.dumps(variant(label="\ud800")).encode(), "/label: "),
        "infinite rule entry": (
            json.dumps(variant(rule=[math.inf, 0.5])).encode(),
            "/rule/0: expected a finite number, got inf\n",
        ),
        "nan prior scale": (
            json.dumps(variant(prior={"kind": "common", "mean": [0.5, 2.0], "scale": math.nan})).encode(),
            "/prior/scale: expected a finite number, got nan\n",
        ),
        "unknown prior kind": (
            json.dumps(variant(prior={"kind": "dogmatic"})).encode(),
            "/prior/kind: unknown prior kind 'dogmatic'\n",
        ),
        "unknown spacing": (
            json.dumps(variant(sweep={"sigma_min": 1e-3, "sigma_max": 10.0, "points": 21, "spacing": "cubic"})).encode(),
            "/sweep/spacing: expected 'log' or 'linear', got 'cubic'\n",
        ),
        "negative linear sigma_min": (
            json.dumps(variant(sweep={"sigma_min": -1.0, "sigma_max": 10.0, "points": 21, "spacing": "linear"})).encode(),
            "/sweep/sigma_min: noise scale cannot be negative\n",
        ),
        "span not vectors": (
            json.dumps(variant(prior={
                "kind": "projected", "subspace1": {"span": 3}, "subspace2": [[1.0, 0.0], [0.0, 1.0]], "scale": 1.0,
            })).encode(),
            "/prior/subspace1/span: expected an array of vectors\n",
        ),
    }

    @pytest.mark.parametrize("command", [["validate"], ["sweep", "--out-csv", "c.csv", "--out-svg", "c.svg"]])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_is_one_parse_error(self, case, command, tmp_path, capsys, monkeypatch):
        raw, start = self.MALFORMED[case]
        (tmp_path / "scenario.json").write_bytes(raw)
        monkeypatch.chdir(tmp_path)
        assert cli.main([command[0], "scenario.json", *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {start}") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]

    # the option parser's own usage errors; "S" stands for a scenario path
    USAGE = {
        "--points -x": (["sweep", "S", "--points", "-x"], "error: --points: expected one argument\n"),
        "--seed -x": (["verify", "S", "--seed", "-x"], "error: --seed: expected one argument\n"),
        "no command": ([], "error: flab: the following arguments are required: command\n"),
        "unknown option": (["validate", "S", "--bogus"], "error: flab: unrecognized arguments: --bogus\n"),
    }

    @pytest.mark.parametrize("case", sorted(USAGE))
    def test_usage_error_is_one_parse_error(self, case, tmp_path, capsys):
        argv, expected = self.USAGE[case]
        path = write_scenario(tmp_path, REF)
        assert cli.main([path if arg == "S" else arg for arg in argv]) == 2  # a SystemExit would fail here
        assert capsys.readouterr() == ("", expected)

    def test_help_still_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: flab [-h] command ...\n") and err == ""

    # sha256 of the stdout of `flab [command] --help` at a terminal width of 80
    HELP = {
        "": "2ac14b29622d56663db2804c30e9aad59aa0477e6eaeffbc7bf80515de3c6d3f",
        "validate": "f185e80ecee424e5eafbccf2b3c5c982270b1ec3edf62f282333b331494bea76",
        "sweep": "0fcf33ca4763f12061b8b113905884a273d94b9bb1ff67aab1ce523dacb5537b",
        "classify": "0ba076548367c8d87584b1fe17cecd0a94d7ad85448b3dc10bd3a60f788a2617",
        "verify": "e4e60c626c3fc5495e6bc1585302b89c5debb6e4f5474ac8932a8da61d726751",
        "bounds": "68f3fd93304af1bfda0639fc51364e312a863a6c07e6b813c60f0a7b65b8fe3a",
    }

    @pytest.mark.parametrize("command", sorted(HELP))
    def test_help_text_is_pinned(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert hashlib.sha256(out.encode()).hexdigest() == self.HELP[command] and err == ""


class TestValidateCommand:
    def test_reference_summary(self, tmp_path, capsys):
        rc = cli.main(["validate", write_scenario(tmp_path, REF)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.91667" in out
        assert "0.41667" in out

    def test_equal_costs_rejected(self, tmp_path, capsys):
        rc = cli.main(["validate", write_scenario(tmp_path, variant(cost2=REF["cost1"]))])
        assert rc == 3

    def test_asymmetric_cost_rejected(self, tmp_path):
        body = variant(cost1=[[2.0, 0.5], [0.0, 1.0]])
        assert cli.main(["validate", write_scenario(tmp_path, body)]) == 3

    def test_invalid_projection_rejected(self, tmp_path):
        body = variant(
            prior={
                "kind": "projected",
                "subspace1": [[0.5, 0.0], [0.0, 1.0]],
                "subspace2": [[1.0, 0.0], [0.0, 1.0]],
                "scale": 1.0,
            }
        )
        assert cli.main(["validate", write_scenario(tmp_path, body)]) == 3


    def test_mismatch_near_the_rule_does_not_cancel(self, tmp_path, capsys):
        # (mu - r)' G (mu - r) for mu = r (1 + 1e-8) is 1e-16 rule_sq; prior_sq + rule_sq - 2 cross gave 0
        body = json.loads((SCENARIOS / "reference_common.json").read_text(encoding="utf-8"))
        body["prior"]["mean"] = [r * (1.0 + 1e-8) for r in body["rule"]]
        assert cli.main(["validate", write_scenario(tmp_path, body)]) == 0
        out = capsys.readouterr().out
        assert "mismatch 4.1667e-17\n" in out
        assert "critical prior scale: 9.5346e-09\n" in out

    @pytest.mark.filterwarnings("error")
    def test_huge_span_vector_keeps_its_rank(self, tmp_path, capsys):
        body = json.loads((SCENARIOS / "equal_costs_bounds.json").read_text(encoding="utf-8"))
        body["prior"]["subspace1"] = {"span": [[1e308, 0.0]]}
        assert cli.main(["validate", write_scenario(tmp_path, body)]) == 0
        captured = capsys.readouterr()
        assert "subspace ranks: 1 and 2" in captured.out
        assert captured.err == ""

    @pytest.mark.filterwarnings("error")
    def test_out_of_range_projector_is_one_error_line(self, tmp_path, capsys):
        body = json.loads((SCENARIOS / "reference_projected.json").read_text(encoding="utf-8"))
        body["prior"]["subspace1"] = [[1.0, 0.0], [0.0, 1e308]]
        assert cli.main(["validate", write_scenario(tmp_path, body)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: projector entry 1.000e+308 exceeds 1 in magnitude\n"
        assert captured.out == ""

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 8.00 EiB for an array"), "Unable to allocate 8.00 EiB for an array"),
        (MemoryError(), "out of memory"),
    ])
    def test_memory_error_exits_2(self, error, message, capsys, monkeypatch):
        def exhaust(args):
            raise error

        monkeypatch.setattr(cli, "cmd_validate", exhaust)
        assert cli.main(["validate", str(SCENARIOS / "reference_naive.json")]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
    def test_unwritable_stdout_exits_1(self):
        with open("/dev/full", "w") as full:
            proc = run_flab(["validate", str(SCENARIOS / "reference_naive.json")], stdout=full)
        assert proc.returncode == 1
        assert proc.stderr == b"error: [Errno 28] No space left on device\n"


ENCODING_CHILD = """
import sys
from flab.cli import main
codes = [main([command, path]) for path in sys.argv[1:] for command in ("validate", "classify")]
print(sys.stdout.encoding, *codes, file=sys.stderr)
"""


def written(text, encoding):
    """The bytes of ``text`` on a stdout of ``encoding``, by the README's rule."""
    out = b""
    for char in text:
        try:
            out += char.encode(encoding)
        except UnicodeEncodeError:
            if "\udc80" <= char <= "\udcff":  # an undecodable byte of a file name
                out += bytes([ord(char) - 0xDC00])
            else:
                out += char.encode("ascii", "backslashreplace")
    return out


class TestStdoutEncoding:
    # characters of tests/test_cli_fuzz.py's LABELS alphabet: Latin-1 and beyond, controls,
    # noncharacters, a combining mark, right-to-left and astral letters
    LABELS = ["na\xefve \u2013 \xfc", "a\x01b\x7f", "\ufffe\uffff", "e\u0301 \u05d0\u05d1",
              "\U0001f600\U0010fffd", "\x85\xa0\u2028", "\u65e5\u672c"]
    ENVIRONMENTS = [{"PYTHONIOENCODING": "ascii"}, {"PYTHONIOENCODING": "latin-1"},
                    {"PYTHONIOENCODING": "utf-8"}, {"LC_ALL": "C", "PYTHONUTF8": "0"}, {}]

    def test_every_stdout_encoding_writes_every_name(self, tmp_path):
        body = json.loads((SCENARIOS / "reference_common.json").read_text(encoding="utf-8"))
        paths = [write_scenario(tmp_path, {**body, "label": label}, f"{i}.json") for i, label in enumerate(self.LABELS)]
        del body["label"]
        # label-less, so the name is a file name that is not UTF-8
        unnamed = [os.fsdecode(raw) for raw in (b"\xff.json", b"caf\xe9.json")]
        paths += [write_scenario(tmp_path, body, name) for name in unnamed]
        names = self.LABELS + unnamed
        children = []
        for env in self.ENVIRONMENTS:
            inherited = {k: v for k, v in child_env().items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
            children.append(subprocess.Popen([sys.executable, "-c", ENCODING_CHILD, *paths], env={**inherited, **env},
                                             stdout=subprocess.PIPE, stderr=subprocess.PIPE))
        for env, child in zip(self.ENVIRONMENTS, children):
            out, err = child.communicate(timeout=300)
            assert child.returncode == 0, (env, err.decode(errors="replace"))
            encoding, *codes = err.decode().split()
            assert codes == ["0"] * (2 * len(paths)), env
            lines = out.split(b"\n")
            for head in ("scenario OK: ", "classification: "):
                expected = [head.encode() + written(name, encoding) for name in names]
                assert [line for line in lines if line.startswith(head.encode())] == expected, env

    def test_closed_stdout_exits_1(self):
        proc = run_flab(["validate", str(SCENARIOS / "reference_naive.json")], stdout=None,
                        preexec_fn=lambda: os.close(1))
        assert proc.returncode == 1
        assert proc.stderr == b"error: standard output is closed\n"


class TestSweepCommand:
    def test_csv_round_trip(self, tmp_path):
        from flab.agents import Metric
        from flab.closed_form import disparity_value

        path = write_scenario(tmp_path, REF)
        out_csv = tmp_path / "out.csv"
        assert cli.main(["sweep", path, "--out-csv", str(out_csv)]) == 0
        text = out_csv.read_text(encoding="utf-8")
        assert "\r" not in text
        lines = text.strip().split("\n")
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 22
        loaded = cli.load_scenario(path)
        for line in lines[1:]:
            cells = line.split(",")
            sigma, fs, fu = float(cells[0]), float(cells[1]), float(cells[2])
            assert abs(fs - disparity_value(loaded.scenario, Metric.SCORE, sigma)) <= 1e-12
            assert abs(fu - disparity_value(loaded.scenario, Metric.UTILITY, sigma)) <= 1e-12
            assert cells[3] == str(label_region(fs))
            assert cells[4] == str(label_region(fu))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_naive_utility_is_a_typed_error(self, tmp_path, capsys):
        body = committed_with_sweep("reference_naive", 1.0, 1e200, 11)
        out_csv = tmp_path / "out.csv"
        assert cli.main(["sweep", write_scenario(tmp_path, body), "--out-csv", str(out_csv)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: utility disparity at sigma=1e+160 is -inf\n"
        assert captured.out == ""
        assert not out_csv.exists()

    def test_byte_determinism_across_thread_counts(self, tmp_path):
        out_csv, out_svg = str(tmp_path / "out.csv"), str(tmp_path / "out.svg")
        args = ["sweep", write_scenario(tmp_path, REF), "--out-csv", out_csv, "--out-svg", out_svg]
        one, two = outputs_per_blas_thread_count(args, (out_csv, out_svg))
        assert one == two
        assert cli.CSV_HEADER.encode() in one

    @pytest.mark.filterwarnings("error")
    def test_overflowing_noise_keeps_finite_limits(self, tmp_path, capsys):
        body = committed_with_sweep("reference_common", 1e-3, 1e200, 41)
        assert cli.main(["sweep", write_scenario(tmp_path, body)]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert len(rows) == 41
        assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(",")[:3])

    def test_svg_well_formed(self, tmp_path):
        path = write_scenario(tmp_path, REF)
        out_svg = tmp_path / "plot.svg"
        assert cli.main(["sweep", path, "--out-csv", str(tmp_path / "c.csv"), "--out-svg", str(out_svg)]) == 0
        root = ET.parse(out_svg).getroot()
        assert root.tag.endswith("svg")
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) >= 2
        dashed = [e for e in root.iter() if e.get("stroke-dasharray")]
        assert dashed, "zero line missing"

    def test_svg_spans_curves_below_1e_300(self, tmp_path):
        # reference_common with rule, mean, scale and sweep times 2^-499: the utility crosses zero,
        # from about -2.1e-301 to 7.8e-302, and the plot keeps that span rather than drawing it flat
        body = json.loads((SCENARIOS / "reference_common.json").read_text(encoding="utf-8"))
        scale = 2.0 ** -499
        body["rule"] = [v * scale for v in body["rule"]]
        body["prior"]["mean"] = [v * scale for v in body["prior"]["mean"]]
        body["prior"]["scale"] *= scale
        body["sweep"]["sigma_min"] *= scale
        body["sweep"]["sigma_max"] *= scale
        out_csv, out_svg = tmp_path / "c.csv", tmp_path / "p.svg"
        assert cli.main(["sweep", write_scenario(tmp_path, body), "--out-csv", str(out_csv),
                         "--out-svg", str(out_svg)]) == 0
        utilities = [float(row.split(",")[2]) for row in out_csv.read_text(encoding="utf-8").split("\n")[1:-1]]
        assert min(utilities) < 0.0 < max(utilities) < 1e-300
        root = ET.parse(out_svg).getroot()
        utility = [e for e in root.iter() if e.tag.endswith("polyline")][1]
        assert len({point.split(",")[1] for point in utility.get("points").split()}) > 1
        assert [e for e in root.iter() if e.get("stroke-dasharray")], "zero line missing"

    @pytest.mark.parametrize(("name", "label", "title"), [
        (os.fsdecode(b"\xff.json"), None, "\ufffd.json"),
        ("\x01.json", None, "\ufffd.json"),
        ("s.json", "a\u0001b", "a\ufffdb"),
        ("s.json", "\ufffe", "\ufffd"),
    ], ids=["undecodable_name", "control_name", "control_label", "noncharacter_label"])
    def test_svg_title_xml_cannot_hold_becomes_replacement_character(self, name, label, title, tmp_path, capsys):
        # a lone surrogate (from a file name that is not UTF-8) cannot be encoded, and C0 controls
        # and U+FFFE are no XML characters: each becomes U+FFFD, and the file parses
        body = json.loads((SCENARIOS / "reference_common.json").read_text(encoding="utf-8"))
        del body["label"]
        if label is not None:
            body["label"] = label
        out_svg = tmp_path / "t.svg"
        assert cli.main(["sweep", write_scenario(tmp_path, body, name), "--points", "5", "--out-svg", str(out_svg)]) == 0
        assert capsys.readouterr().err == ""
        texts = [e.text for e in ET.parse(out_svg).getroot().iter() if e.tag.endswith("text")]
        assert texts[0] == title

    @pytest.mark.parametrize("bad", ["--out-csv", "--out-svg"])
    @pytest.mark.parametrize("other", [True, False], ids=["other_to_file", "other_absent"])
    @pytest.mark.parametrize("kind", ["missing_dir", "directory"])
    def test_unwritable_output_exits_2_with_no_output(self, bad, other, kind, tmp_path, capsys):
        # without --out-csv the CSV goes to stdout, so none of it may be printed either
        bad_path = tmp_path / "missing" / "out" if kind == "missing_dir" else tmp_path
        good = {"--out-csv": tmp_path / "c.csv", "--out-svg": tmp_path / "p.svg"}
        argv = ["sweep", write_scenario(tmp_path, REF), bad, str(bad_path)]
        if other:
            good_option = "--out-svg" if bad == "--out-csv" else "--out-csv"
            argv += [good_option, str(good[good_option])]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: cannot write {bad_path}: ")
        assert captured.err.count("\n") == 1
        assert not any(path.exists() for path in good.values())

    def test_unwritable_output_leaves_existing_files_as_they_were(self, tmp_path, capsys):
        out_csv = tmp_path / "c.csv"
        out_csv.write_bytes(b"kept\n")
        argv = ["sweep", write_scenario(tmp_path, REF), "--out-csv", str(out_csv), "--out-svg", str(tmp_path)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().out == ""
        assert out_csv.read_bytes() == b"kept\n"

    @pytest.mark.parametrize("link", [False, True], ids=["same_path", "symlink"])
    @pytest.mark.parametrize("existed", [False, True], ids=["new_file", "old_file"])
    def test_one_file_named_by_both_outputs_is_a_parse_error(self, link, existed, tmp_path, capsys):
        out_csv = tmp_path / "c.csv"
        if existed:
            out_csv.write_bytes(b"kept\n")
        out_svg = out_csv
        if link:
            out_svg = tmp_path / "p.svg"
            out_svg.symlink_to(out_csv)
        argv = ["sweep", write_scenario(tmp_path, REF), "--out-csv", str(out_csv), "--out-svg", str(out_svg)]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", "error: --out-svg: same file as --out-csv\n")
        if existed:
            assert out_csv.read_bytes() == b"kept\n"
        else:
            assert not out_csv.exists()

    def test_stdout_when_no_output_path(self, tmp_path, capsys):
        assert cli.main(["sweep", write_scenario(tmp_path, REF)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(cli.CSV_HEADER)

    def test_zero_rule_scores_all_neutral(self, tmp_path, capsys):
        body = variant(rule=[0.0, 0.0])
        assert cli.main(["sweep", write_scenario(tmp_path, body)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        assert all(line.split(",")[3] == str(RegionLabel.NEUTRALITY) for line in lines)

    def test_linear_grid_from_zero_plots_linear_axis(self, tmp_path):
        body = variant(sweep={"sigma_min": 0.0, "sigma_max": 10.0, "points": 11, "spacing": "linear"})
        out_svg = tmp_path / "plot.svg"
        path = write_scenario(tmp_path, body)
        assert cli.main(["sweep", path, "--out-csv", str(tmp_path / "c.csv"), "--out-svg", str(out_svg)]) == 0
        root = ET.parse(out_svg).getroot()
        labels = [e.text for e in root.iter() if e.tag.endswith("text") and e.get("text-anchor") == "middle"]
        assert labels == ["0", "2.5", "5", "7.5", "10", "noise scale"]
        for poly in (e for e in root.iter() if e.tag.endswith("polyline")):
            xs = [float(p.split(",")[0]) for p in poly.get("points").split()]
            steps = np.diff(xs)
            assert len(xs) == 11
            assert np.allclose(steps, steps[0], atol=0.011)

    def test_log_grid_narrower_than_the_axis_plots_mid_axis(self, tmp_path, capsys):
        # log10 of both ends rounds to one double, so the x range is widened as a flat y range is
        body = committed_with_sweep("reference_common", 10.0, 10.000000000000002, 2)
        out_svg = tmp_path / "plot.svg"
        path = write_scenario(tmp_path, body)
        assert cli.main(["sweep", path, "--out-csv", str(tmp_path / "c.csv"), "--out-svg", str(out_svg)]) == 0
        assert capsys.readouterr().err == ""
        polylines = [e for e in ET.parse(out_svg).getroot().iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2
        for poly in polylines:
            assert [p.split(",")[0] for p in poly.get("points").split()] == ["383.00", "383.00"]


class TestPointsOption:
    @pytest.mark.parametrize(
        "command, points",
        [("sweep", "1"), ("sweep", "0"), ("bounds", "1"), ("bounds", "-3"), ("verify", "0")],
    )
    def test_too_few_points_rejected_before_any_output(self, command, points, tmp_path, capsys):
        scenario = TestBoundsCommand.EQUAL if command == "bounds" else REF
        argv = [command, write_scenario(tmp_path, scenario), "--points", points]
        if command == "sweep":
            argv += ["--out-csv", str(tmp_path / "c.csv"), "--out-svg", str(tmp_path / "p.svg")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "--points" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "c.csv").exists() and not (tmp_path / "p.svg").exists()

    @pytest.mark.parametrize("command", ["sweep", "bounds", "verify"])
    def test_too_many_points_rejected_before_any_output(self, command, tmp_path, capsys):
        scenario = TestBoundsCommand.EQUAL if command == "bounds" else REF
        argv = [command, write_scenario(tmp_path, scenario), "--points", str(cli.MAX_POINTS + 1)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --points: need at most {cli.MAX_POINTS}, got {cli.MAX_POINTS + 1}\n"
        assert captured.out == ""

    def test_too_many_sweep_points_in_file_rejected(self, tmp_path, capsys):
        body = variant(sweep={"sigma_min": 1e-3, "sigma_max": 10.0, "points": cli.MAX_POINTS + 1})
        assert cli.main(["sweep", write_scenario(tmp_path, body)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: /sweep/points: need at most")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    # option text other than an optional sign and 1 to 17 ASCII digits
    OPTION_TEXT = {
        "--points 5,001 digits": ["sweep", "--points", "1" + "0" * 5000],  # beyond int()'s 4,300-digit limit
        "--points 1_000": ["bounds", "--points", "1_000"],
        "--seed abc": ["verify", "--n", "2000", "--seed", "abc"],
        "--n 1e5": ["verify", "--n", "1e5"],
    }

    @pytest.mark.parametrize("case, expected", [
        ("/mc/n", "error: /mc/n: expected an integer of at most 17 digits\n"),
        ("/sweep/points", "error: /sweep/points: expected an integer of at most 17 digits\n"),
        ("/dimension", "error: /dimension: expected an integer of at most 17 digits\n"),
        ("--points", "error: --points: expected an integer of at most 17 digits\n"),
        ("--seed", "error: --seed: expected an integer of at most 17 digits\n"),
        *((case, f"error: {case.split()[0]}: expected an integer of at most 17 digits\n") for case in OPTION_TEXT),
    ])
    def test_huge_integer_is_not_echoed_whole(self, case, expected, tmp_path, capsys):
        body = json.loads((SCENARIOS / "reference_common.json").read_text(encoding="utf-8"))
        argv = ["verify", None]
        if case == "/mc/n":
            body["mc"]["n"] = 10**400
        elif case == "/sweep/points":
            body["sweep"]["points"] = 10**400
        elif case == "/dimension":
            body["dimension"] = 10**400
        elif case == "--points":
            argv = ["sweep", None, "--points", "1" + "0" * 400]
        elif case == "--seed":
            argv = ["verify", None, "--n", "2000", "--seed", "-1" + "0" * 400]
        else:
            command, *options = self.OPTION_TEXT[case]
            argv = [command, None, *options]
        argv[1] = write_scenario(tmp_path, body)
        assert cli.main(argv) == 2  # a SystemExit from argparse would fail here
        captured = capsys.readouterr()
        assert captured.err == expected and len(captured.err) < 200
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["20000", True, 2e4, None])
    def test_integer_field_is_not_read_as_option_text(self, value, tmp_path, capsys):
        body = variant(mc={"n": value, "seed": 1})
        assert cli.main(["verify", write_scenario(tmp_path, body)]) == 2
        assert capsys.readouterr() == ("", f"error: /mc/n: expected an integer, got {type(value).__name__}\n")

    def test_smallest_accepted_counts(self, tmp_path, capsys):
        path = write_scenario(tmp_path, REF)
        assert cli.main(["sweep", path, "--points", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert cli.main(["verify", path, "--points", "1", "--n", "2000", "--seed", "3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 + 4 + 1


class TestClassifyCommand:
    def test_naive(self, tmp_path, capsys):
        assert cli.main(["classify", write_scenario(tmp_path, REF)]) == 0
        out = capsys.readouterr().out
        assert "MonotoneDecreasing" in out
        assert "0.6742" in out

    def test_zero_rule_naive_has_no_crossing(self, tmp_path, capsys):
        # the utility curve leaves 0 going down, as a common prior's does with a zero rule and mean
        path = write_scenario(tmp_path, variant(rule=[0.0, 0.0]))
        assert cli.main(["validate", path]) == 0
        assert "crossing" not in capsys.readouterr().out
        assert cli.main(["classify", path]) == 0
        assert "  utility: MonotoneDecreasing, no crossing\n" in capsys.readouterr().out

    def test_naive_scan_disagreement_exits_4(self, tmp_path, capsys, monkeypatch):
        # the naive utility crossing is checked by the same root scan as a belief-carrying prior's
        from flab.regimes import RootScan

        monkeypatch.setattr(cli, "scan_utility", lambda sc, exact: RootScan((), ()))
        assert cli.main(["classify", write_scenario(tmp_path, REF)]) == 4
        out = capsys.readouterr().out
        assert out.endswith("  utility: MonotoneDecreasing, crossing at 0.6742\n"
                            "  utility crossings: 0 at [] (predicted 1, MISMATCH)\n")

    def test_common_nonmonotone(self, tmp_path, capsys):
        body = variant(prior={"kind": "common", "mean": [0.5, 2.0], "scale": 2.0})
        assert cli.main(["classify", write_scenario(tmp_path, body)]) == 0
        out = capsys.readouterr().out
        assert "NonMonotone" in out
        assert "5.2035" in out
        assert "predicted 1, match" in out

    def test_mean_at_twice_the_rule_has_one_crossing(self, tmp_path, capsys):
        # the utility limit cross - prior_sq / 2 is exactly 0, so the dip below zero is crossed once
        body = variant(prior={"kind": "common", "mean": [2.0, 1.0], "scale": 2.0})
        assert cli.main(["classify", write_scenario(tmp_path, body)]) == 0
        assert "  utility crossings: 1 at [0.76696] (predicted 1, match)\n" in capsys.readouterr().out

    def test_underflowed_rule_has_no_score_crossing(self, tmp_path, capsys):
        # rule_sq underflows to 0.0, so the score starts at zero and falls from there
        body = variant(rule=[1e-170, 1e-170], prior={"kind": "common", "mean": [-1.0, -1.0], "scale": 2.0})
        path = write_scenario(tmp_path, body)
        assert cli.main(["classify", path]) == 0
        assert "  score: Constant\n" in capsys.readouterr().out
        sc = cli.load_scenario(path).scenario
        assert sc.constants.rule_sq == 0.0 and sc.constants.cross < 0.0
        assert neutrality_sigma_score_bayes(sc) is None

    PROJECTED = variant(
        prior={
            "kind": "projected",
            "subspace1": [[1.0, 0.0], [0.0, 0.0]],
            "subspace2": [[1.0, 0.0], [0.0, 1.0]],
            "scale": 1.0,
        }
    )

    def test_projected_report(self, tmp_path, capsys):
        assert cli.main(["classify", write_scenario(tmp_path, self.PROJECTED)]) == 0
        out = capsys.readouterr().out
        assert "NonMonotone" in out
        assert "1.4832" in out
        assert "Exploitation throughout" in out
        assert "not applicable" in out

    def test_eigensolves_per_classify(self, tmp_path, capsys, monkeypatch):
        from flab import closed_form, linalg_core
        from flab.regimes import (
            exploitation_condition_projected,
            monotonicity_condition_projected,
            neutrality_condition_projected,
        )

        calls = []
        true_eigh = linalg_core.jacobi_eigh

        def counted(matrix):
            calls.append(1)
            return true_eigh(matrix)

        # the gap matrices solve through closed_form's import of jacobi_eigh
        for module in (linalg_core, closed_form):
            monkeypatch.setattr(module, "jacobi_eigh", counted)
        assert cli.main(["classify", str(SCENARIOS / "reference_projected.json")]) == 0
        # two costs and the cost gap on load (the constants and the projectors
        # need none), then one label for each of the two gap matrices
        assert len(calls) == 5
        # equal subspaces parse to two equal projectors, neither of which solves anything
        body = variant(prior=dict(self.PROJECTED["prior"], subspace2=self.PROJECTED["prior"]["subspace1"]))
        del calls[:]
        assert cli.main(["classify", write_scenario(tmp_path, body, "equal.json")]) == 0
        assert len(calls) == 5
        # a non-projected scenario solves the two costs and the cost gap only
        for name in ("reference_naive", "reference_common"):
            del calls[:]
            cli.load_scenario(str(SCENARIOS / f"{name}.json"))
            assert len(calls) == 3

        first_knows_all = dict(
            self.PROJECTED["prior"], subspace1=[[1.0, 0.0], [0.0, 1.0]], subspace2=[[1.0, 0.0], [0.0, 0.0]]
        )
        certificates = (
            exploitation_condition_projected,
            neutrality_condition_projected,
            monotonicity_condition_projected,
        )
        paths = (str(SCENARIOS / "reference_projected.json"), write_scenario(tmp_path, variant(prior=first_knows_all)))
        for path in paths:
            sc = cli.load_scenario(path).scenario
            sc.known_gap.label, sc.unknown_gap.label  # one eigensolve each, on first use
            before = len(calls)
            reports = [certificate(sc) for certificate in certificates for _ in range(2)]
            # past the two gap labels, no certificate solves anything, twice over
            assert len(calls) == before
        assert reports[0].guaranteed and reports[0].checks

    NON_COMMUTING = variant(
        cost1=[[2.0, 0.5], [0.5, 1.0]],
        prior={
            "kind": "projected",
            "subspace1": {"span": [[1.0, 0.3]]},
            "subspace2": [[1.0, 0.0], [0.0, 1.0]],
            "scale": 1.0,
        },
    )

    @pytest.mark.parametrize("case", ["equal costs", "non-commuting"])
    def test_violated_assumption_prints_nothing(self, case, tmp_path, capsys):
        if case == "equal costs":
            path = str(SCENARIOS / "equal_costs_bounds.json")
        else:
            path = write_scenario(tmp_path, self.NON_COMMUTING)
        assert cli.main(["classify", path]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_root_count_mismatch_exits_4(self, tmp_path, capsys, monkeypatch):
        from flab.regimes import classify_utility_bayes as true_classifier

        def miscounted(sc):
            regime = true_classifier(sc)
            return dataclasses.replace(regime, predicted_roots=regime.predicted_roots + 1, count_matches=False)

        monkeypatch.setattr(cli, "classify_utility_bayes", miscounted)
        body = variant(prior={"kind": "common", "mean": [0.5, 2.0], "scale": 2.0})
        assert cli.main(["classify", write_scenario(tmp_path, body)]) == 4
        assert "MISMATCH" in capsys.readouterr().out

    def test_failed_certificate_check_exits_4(self, tmp_path, capsys, monkeypatch):
        from flab.regimes import monotonicity_condition_projected as true_condition

        def failing(sc):
            return dataclasses.replace(true_condition(sc), checks=(("forced check", False),))

        monkeypatch.setattr(cli, "monotonicity_condition_projected", failing)
        assert cli.main(["classify", write_scenario(tmp_path, self.PROJECTED)]) == 4
        assert "- forced check: NO" in capsys.readouterr().out

    # the known-subspace gap is negative definite, and the crossing's score residual is -2.4e-7 on terms of 1.6e9
    LARGE_RULE_NEUTRAL = variant(
        rule=[33212.072819146, -41588.58243424358],
        cost1=[[1.9554050901609195, 0.0], [0.0, 0.7353216056009979]],
        cost2=[[2.991720888562925, 0.0], [0.0, 1.8497088124404157]],
        prior={
            "kind": "projected",
            "subspace1": [[0.0, 0.0], [0.0, 0.0]],
            "subspace2": [[1.0, 0.0], [0.0, 1.0]],
            "scale": 0.009087271168968543,
        },
    )

    def test_neutrality_tolerance_scales_with_the_curve(self, tmp_path, capsys):
        assert cli.main(["classify", write_scenario(tmp_path, self.LARGE_RULE_NEUTRAL)]) == 0
        out = capsys.readouterr().out
        assert "    - score disparity vanishes at the crossing: yes\n" in out
        assert "    crossing at 0.010106\n" in out

    def test_common_prior_score_crossing(self, tmp_path, capsys):
        body = json.loads((SCENARIOS / "reference_common.json").read_text(encoding="utf-8"))
        body["prior"]["mean"] = [-0.5, -2.0]
        path = write_scenario(tmp_path, body)
        assert cli.main(["classify", path]) == 0
        assert "  score: Decreasing, crossing at 1.451\n" in capsys.readouterr().out
        sc = cli.load_scenario(path).scenario
        at_zero, at_inf = endpoints(sc, Metric.SCORE)  # the band `classify_score_bayes` puts on this curve
        crossing = disparity_value(sc, Metric.SCORE, neutrality_sigma_score_bayes(sc))
        assert abs(crossing) <= SIGN_TOL * (1.0 + abs(at_zero) + abs(at_inf))

    def test_neutrality_off_the_crossing_exits_4(self, tmp_path, capsys, monkeypatch):
        from flab import regimes

        true_sigma = regimes.neutrality_sigma_score_bayes
        monkeypatch.setattr(regimes, "neutrality_sigma_score_bayes", lambda sc: 1.01 * true_sigma(sc))
        assert cli.main(["classify", write_scenario(tmp_path, self.LARGE_RULE_NEUTRAL)]) == 4
        assert "    - score disparity vanishes at the crossing: NO\n" in capsys.readouterr().out

    def test_sampled_rule_disagreement_exits_4(self, tmp_path, capsys, monkeypatch):
        from flab.linalg_core import Definiteness
        from flab.regimes import MatrixVerdict, ProjectedMatrixReport

        def disagreeing(sc):
            psd = Definiteness.PSD
            return ProjectedMatrixReport(psd, psd, psd, MatrixVerdict.MONOTONE_ALL, 50, False)

        monkeypatch.setattr(cli, "classify_utility_projected_matrix", disagreeing)
        assert cli.main(["classify", write_scenario(tmp_path, self.PROJECTED)]) == 4
        assert "sampled rules agree: NO" in capsys.readouterr().out


class TestVerifyCommand:
    def test_reference_passes(self, tmp_path, capsys):
        assert cli.main(["verify", write_scenario(tmp_path, REF)]) == 0
        out = capsys.readouterr().out
        assert "all comparisons passed" in out

    def test_flag_overrides(self, tmp_path, capsys):
        body = variant()
        del body["mc"]
        path = write_scenario(tmp_path, body)
        assert cli.main(["verify", path, "--n", "5000", "--seed", "7"]) == 0
        assert "n=5000, seed=7" in capsys.readouterr().out

    def test_ignores_thread_setting(self, tmp_path):
        # more than one block of agents, so the blocked sums run
        args = ["verify", write_scenario(tmp_path, REF), "--n", str(_BLOCK + 1000), "--points", "2"]
        one, two = outputs_per_blas_thread_count(args)
        assert one == two
        assert b"all comparisons passed" in one

    def test_rounding_level_stderr_is_no_failure(self, tmp_path, capsys):
        # at sigma = 1000 the standard errors are far below one ulp of the means
        body = json.loads((SCENARIOS / "reference_common.json").read_text(encoding="utf-8"))
        body["prior"]["scale"] = 1e-6
        assert cli.main(["verify", write_scenario(tmp_path, body), "--n", "100000", "--seed", "42"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale, costs, n, points, refused", [
        (1e76, None, "100000", "6", None),
        (1e77, None, "100000", "6", None),
        (1e100, None, "100000", "6", None),
        (1e150, None, "100000", "6", None),
        (1e152, (1e-8, 2e-8), "1000", "3", "1e+152"),
    ])
    def test_out_of_range_estimate_is_one_error_line(self, scale, costs, n, points, refused, tmp_path, capsys):
        # (w sigma)^4 in the utility variance overflows near sigma = 1e77, though the standard error
        # does not; with costs of 1e-8 the utility mean, about -(w sigma)^2 1e8 / 2, leaves range near 2e150
        body = json.loads((SCENARIOS / "reference_common.json").read_text(encoding="utf-8"))
        body["prior"]["scale"] = scale
        if costs:
            body["cost1"], body["cost2"] = (np.diag([c, c]).tolist() for c in costs)
        args = ["verify", write_scenario(tmp_path, body), "--n", n, "--seed", "1", "--points", points]
        assert cli.main(args) == (3 if refused else 0)
        out, err = capsys.readouterr()
        if refused:
            assert out == ""
            assert err == f"error: estimate at sigma={refused} is out of floating-point range\n"
        else:
            assert err == "" and "inf" not in out
            assert out.endswith("all comparisons passed\n")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_centre_is_one_error_line(self, tmp_path, capsys):
        # the formulas' rule_sq, 1.32e308, is in range, but group 1's noise-free score gain, 2.16e308, is not
        body = json.loads((SCENARIOS / "reference_common.json").read_text(encoding="utf-8"))
        body["rule"] = [1.2e154, 1.2e154]
        args = ["verify", write_scenario(tmp_path, body), "--n", "1000", "--seed", "1", "--points", "2"]
        assert cli.main(args) == 3
        assert capsys.readouterr() == ("", "error: estimate at sigma=0 is out of floating-point range\n")

    def test_stdout_independent_of_cpu_affinity(self, tmp_path):
        args = ["verify", write_scenario(tmp_path, REF), "--n", str(3 * _BLOCK + 5), "--points", "2"]
        cpu = min(os.sched_getaffinity(0))
        one_cpu = fresh_flab(args, prelude=f"import os; os.sched_setaffinity(0, [{cpu}]); ")
        assert one_cpu == fresh_flab(args)
        assert b"all comparisons passed" in one_cpu

    def test_refused_formula_draws_no_agents(self, tmp_path, capsys, monkeypatch):
        # the formulas are evaluated first, so a scenario they refuse exits before the oracle runs
        def refuse(*args):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(cli, "estimate_disparities", refuse)
        path = write_scenario(tmp_path, TestClassifyCommand.NON_COMMUTING)
        assert cli.main(["verify", path, "--n", "4000000", "--seed", "1"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: projected utility disparity: projector/inverse-cost commutator norm 8.126e-02 exceeds 1e-10\n"

    def test_peak_memory_per_noise_level(self):
        # one (levels, 2) array per quantity: about 2.2 MiB at 10^4 levels, where
        # per-level result objects took 10.6 MiB
        args = ["verify", str(SCENARIOS / "reference_common.json"), "--n", "1000", "--seed", "1"]
        with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
            assert cli.main([*args, "--points", "2"]) == 0
            tracemalloc.start()
            try:
                assert cli.main([*args, "--points", "10000"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize("error, code", [(NonFinite, 3)])
    def test_worker_error_is_a_typed_exit(self, error, code, tmp_path, capsys, monkeypatch):
        # raised inside the block loop, the oracle's one worker
        blocks = []

        def fail(inverse, rule, mean, noise, out, work):
            blocks.append(noise)
            raise error("raised in the block loop")

        monkeypatch.setattr(mc_oracle, "_noise_terms", fail)
        assert cli.main(["verify", write_scenario(tmp_path, REF)]) == code
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: raised in the block loop\n")
        assert blocks and blocks[0] is not None

    @pytest.mark.parametrize(
        "flags, pointer",
        [(["--seed", "-1"], "--seed"), (["--n", "500"], "--n"), (["--n", "999", "--seed", "3"], "--n"),
         (["--n", str(mc_oracle.MAX_SAMPLES + 1), "--seed", "3"], "--n")],
    )
    def test_bad_flags_are_parse_errors(self, flags, pointer, tmp_path, capsys):
        assert cli.main(["verify", write_scenario(tmp_path, REF), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {pointer}:")
        assert captured.out == ""

    def test_negative_seed_in_mc_block_rejected(self, tmp_path, capsys):
        body = variant(mc={"n": 20000, "seed": -1})
        assert cli.main(["verify", write_scenario(tmp_path, body)]) == 2
        assert "/mc/seed" in capsys.readouterr().err

    def test_too_many_samples_in_mc_block_rejected(self, tmp_path, capsys):
        body = variant(mc={"n": mc_oracle.MAX_SAMPLES + 1, "seed": 1})
        assert cli.main(["verify", write_scenario(tmp_path, body)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: /mc/n: need at most {mc_oracle.MAX_SAMPLES}, got {mc_oracle.MAX_SAMPLES + 1}\n"
        assert captured.out == ""

    def test_missing_mc_block_rejected(self, tmp_path):
        body = variant()
        del body["mc"]
        assert cli.main(["verify", write_scenario(tmp_path, body)]) == 2

    def test_exact_mode_mismatch_is_a_failed_row(self, tmp_path, capsys):
        # at zero noise a large rule's disparities are about 3.5e5, where 1e-12 is below one ulp:
        # the correctly rounded score agrees with the oracle's, its float utility is 1 ulp off
        body = json.loads((SCENARIOS / "reference_common.json").read_text(encoding="utf-8"))
        body.update(rule=[1000.0, 500.0], cost1=[[2.0, 0.3], [0.3, 1.0]], cost2=[[4.1, 0.7], [0.7, 3.3]])
        assert cli.main(["verify", write_scenario(tmp_path, body), "--n", "20000", "--seed", "3"]) == 4
        out, err = capsys.readouterr()
        assert err == ""
        lines = out.splitlines()
        assert lines[2] == "  score    0                   350281        350281             0   +0.00  ok"
        assert lines[3] == (
            "  utility  0             exact-mode mismatch: exact estimate 175140.7268814441 "
            "differs from analytic 175140.72688144413 by 2.910e-11"
        )
        assert lines[-1] == "1 comparison(s) failed"

    def test_ill_conditioned_valid_costs_are_accepted(self, tmp_path, capsys):
        # valid costs whose rounded inverse-cost gap has an eigenvalue of -9.5e-19, below
        # -1e-9 times its largest: the constants are forms over that gap, so nothing rejects it
        body = {
            "dimension": 2,
            "rule": [-0.14980189732262295, -1.950995926689043],
            "cost1": [[95818.44143890914, -202821.303655742], [-202821.303655742, 429534.1944908555]],
            "cost2": [[95818.44143894127, -202821.3036557491], [-202821.3036557491, 429534.1944908742]],
            "prior": {"kind": "common", "mean": [0.4321099357768022, 0.520464591828513], "scale": 1.0},
        }
        assert cli.main(["verify", write_scenario(tmp_path, body), "--n", "20000", "--seed", "3"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.endswith("all comparisons passed\n")

    NEGATIVE_DIRECTION = [0.4269866441869587, -0.9042579309499914]

    @pytest.mark.parametrize("command", ["validate", "classify"])
    @pytest.mark.parametrize("rule, prior, name", [
        (NEGATIVE_DIRECTION, {"kind": "naive"}, "rule_sq"),
        (NEGATIVE_DIRECTION, {"kind": "common", "mean": [-0.1498, -1.951], "scale": 1.0}, "rule_sq"),
        ([-0.1498, -1.951], {"kind": "common", "mean": NEGATIVE_DIRECTION, "scale": 1.0}, "prior_sq"),
    ], ids=["naive rule", "common rule", "common mean"])
    def test_negative_gap_norm_is_a_typed_error(self, rule, prior, name, command, tmp_path, capsys):
        # the costs above, with the rule or the mean along the eigenvector of the rounded
        # gap's -9.5e-19: the squared gap norm is negative, which no square root may take
        body = {
            "dimension": 2,
            "rule": rule,
            "cost1": [[95818.44143890914, -202821.303655742], [-202821.303655742, 429534.1944908555]],
            "cost2": [[95818.44143894127, -202821.3036557491], [-202821.3036557491, 429534.1944908742]],
            "prior": prior,
        }
        assert cli.main([command, write_scenario(tmp_path, body)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: inverse-cost gap is negative: {name} = -9.463320e-19\n"

    def test_corrupted_formula_fails(self, tmp_path, capsys, monkeypatch):
        from flab.closed_form import disparity_value as true_value

        def corrupted(sc, metric, sigma):
            return true_value(sc, metric, sigma) * 1.05

        monkeypatch.setattr(cli, "disparity_value", corrupted)
        rc = cli.main(["verify", write_scenario(tmp_path, REF)])
        assert rc == 4
        out = capsys.readouterr().out
        assert out.count("  FAIL\n") == 6
        assert out.count("exact-mode mismatch") == 2
        assert out.endswith("8 comparison(s) failed\n")


class TestBoundsCommand:
    EQUAL = {
        "label": "equal-cost",
        "dimension": 2,
        "rule": [1.0, 0.5],
        "cost1": [[2.0, 0.0], [0.0, 1.0]],
        "cost2": [[2.0, 0.0], [0.0, 1.0]],
        "prior": {
            "kind": "projected",
            "subspace1": [[1.0, 0.0], [0.0, 0.0]],
            "subspace2": [[1.0, 0.0], [0.0, 1.0]],
            "scale": 1.0,
        },
    }

    def test_bounds_hold(self, tmp_path, capsys):
        assert cli.main(["bounds", write_scenario(tmp_path, self.EQUAL)]) == 0
        assert "all bounds hold" in capsys.readouterr().out

    def test_identical_subspaces_all_zero(self, tmp_path, capsys):
        body = json.loads(json.dumps(self.EQUAL))
        body["prior"]["subspace2"] = body["prior"]["subspace1"]
        assert cli.main(["bounds", write_scenario(tmp_path, body)]) == 0

    def test_unequal_costs_rejected(self, tmp_path):
        assert cli.main(["bounds", write_scenario(tmp_path, REF)]) == 3

    def test_unequal_projected_costs_name_their_gap(self, capsys):
        assert cli.main(["bounds", str(SCENARIOS / "reference_projected.json")]) == 3
        assert capsys.readouterr() == ("", "error: score_overlap_bound: needs one cost for both groups, cost gap is PD\n")

    @pytest.mark.parametrize("nudge", [
        *(lambda c, e=e: [[c[0][0] + e, 0.0], [0.0, c[1][1] + e]] for e in (1e-13, 1e-11, 1e-10, 5e-10)),
        lambda c: [[math.nextafter(c[0][0], 3.0), 0.0], [0.0, c[1][1]]],
        lambda c: [[math.nextafter(c[0][0], 1.0), 0.0], [0.0, c[1][1]]],
        lambda c: [[math.nextafter(c[0][0], 3.0), 0.0], [0.0, math.nextafter(c[1][1], 1.0)]],
        lambda c: [[c[0][0], 1e-17], [1e-17, c[1][1]]],
    ], ids=["diag+1e-13", "diag+1e-11", "diag+1e-10", "diag+5e-10", "ulp up", "ulp down", "ulps apart", "off-diag"])
    def test_costs_labelled_zero_are_one_cost_to_every_command(self, tmp_path, capsys, nudge):
        # costs labelled Zero are one cost, so the agents' sigma=0 rows equal the formulas'
        # exact 0.0 and the bounds apply
        body = json.loads((SCENARIOS / "equal_costs_bounds.json").read_text(encoding="utf-8"))
        body["cost2"] = nudge(body["cost2"])
        path = write_scenario(tmp_path, body)
        assert cli.main(["validate", path]) == 0
        assert "  cost gap: Zero\n" in capsys.readouterr().out
        assert cli.main(["verify", path, "--n", "20000", "--seed", "3", "--points", "2"]) == 0
        assert cli.main(["bounds", path, "--points", "3"]) == 0
        capsys.readouterr()
        assert cli.main(["classify", path]) == 3  # as on exactly equal costs
        assert capsys.readouterr() == ("", "error: trace gap must be positive\n")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_noise_gives_finite_slacks(self, tmp_path, capsys):
        body = committed_with_sweep("equal_costs_bounds", 1e150, 1e200, 11)
        assert cli.main(["bounds", write_scenario(tmp_path, body)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        rows = [line.split() for line in lines[1:-2]]
        assert len(rows) == 11
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)
        assert lines[-1] == "all bounds hold"

    def test_nan_slack_is_a_failed_check(self, tmp_path, monkeypatch, capsys):
        from flab.closed_form import utility_overlap_bound as true_bound

        def nan_at_last_point(sc, sigma):
            bound = true_bound(sc, sigma)
            bound[-1] = np.nan
            return bound

        monkeypatch.setattr(cli, "utility_overlap_bound", nan_at_last_point)
        assert cli.main(["bounds", write_scenario(tmp_path, self.EQUAL)]) == 3
        captured = capsys.readouterr()
        assert "all bounds hold" not in captured.out
        assert captured.err.startswith("error: utility slack at sigma=")

    def test_shrunk_bound_trips_exit_code(self, tmp_path, monkeypatch, capsys):
        from flab.closed_form import score_overlap_bound as true_bound

        def shrunk(sc, sigma):
            return 0.1 * true_bound(sc, sigma)

        monkeypatch.setattr(cli, "score_overlap_bound", shrunk)
        rc = cli.main(["bounds", write_scenario(tmp_path, self.EQUAL)])
        assert rc == 5
        assert "bound violated" in capsys.readouterr().out


class TestExtremeInputs:
    """Valid files with extreme values end in a typed error or a verdict,
    never in a traceback, a leaked numpy warning or a printed inf or nan."""

    def test_zero_rule_projected_classify(self, tmp_path, capsys):
        prior = {"kind": "projected", "subspace1": [[0.0, 0.0], [0.0, 0.0]],
                 "subspace2": [[1.0, 0.0], [0.0, 1.0]], "scale": 1.0}
        code = cli.main(["classify", write_scenario(tmp_path, variant(rule=[0.0, 0.0], prior=prior))])
        out, err = capsys.readouterr()
        assert code in (0, 2, 3, 4, 5)
        assert "Traceback" not in out + err
        assert "vanishes at the crossing" not in out

    COMMON_PRIOR = {"kind": "common", "mean": [0.5, 2.0], "scale": 2.0}
    EXTREMES = {
        "huge rule": {"rule": [1e308, 1e308]},
        "huge cost": {"cost1": [[1e308, 0.0], [0.0, 1e308]]},
        "huge cost pair": {"cost1": [[1e200, 9e199], [9e199, 1e200]],
                           "cost2": [[2e200, 9e199], [9e199, 2e200]]},
        "huge prior scale": {"prior": dict(COMMON_PRIOR, scale=1e308)},
        # mean - rule overflows, so the mismatch form has an infinite vector
        "huge mean opposite the rule": {"rule": [-1e308, 0.0], "prior": dict(COMMON_PRIOR, mean=[1e308, 0.0])},
        "tiny prior scale": {"prior": dict(COMMON_PRIOR, scale=1e-320)},
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["validate", "sweep", "classify", "verify", "bounds"])
    @pytest.mark.parametrize("case", sorted(EXTREMES))
    def test_extreme_finite_values_are_typed_errors(self, case, command, tmp_path, capsys):
        body = json.loads((SCENARIOS / "reference_common.json").read_text(encoding="utf-8"))
        body.update(self.EXTREMES[case])
        code = cli.main([command, write_scenario(tmp_path, body)])
        out, err = capsys.readouterr()
        assert code in (2, 3), out + err
        assert not re.search(r"\b(inf|nan)\b", out + err, re.IGNORECASE), out + err


class TestBenchmarkTracerTargets:
    """perfbench/tracer.py wraps flab functions by module and name, so a
    renamed or deleted one breaks `perfbench/run.py --trace 1`."""

    @pytest.fixture(scope="class")
    def tracer(self):
        path = SCENARIOS.parent / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_every_wrapped_function_resolves(self, tracer):
        for group, targets in tracer.GROUPS.items():
            for module, attr in targets:
                fn = getattr(importlib.import_module(f"flab.{module}"), attr, None)
                assert callable(fn), (group, module, attr)

    def test_draw_hook_reads_the_shape_argument(self, tracer):
        # the hook reads `shape` by keyword or as the second positional argument
        for module, attr in tracer.GROUPS["agents.draw"]:
            fn = getattr(importlib.import_module(f"flab.{module}"), attr)
            assert list(inspect.signature(fn).parameters)[1] == "shape", attr

    def test_find_roots_hook_replaces_the_curve(self, tracer):
        # the hook swaps args[0] for a counting curve, so every call in flab passes the curve first
        for module, attr in tracer.GROUPS["regimes.find_roots"]:
            fn = getattr(importlib.import_module(f"flab.{module}"), attr)
            assert list(inspect.signature(fn).parameters)[0] == "curve_fn", attr
        calls = [
            node
            for path in Path(cli.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "find_roots"
        ]
        assert calls
        for node in calls:
            assert node.args and not isinstance(node.args[0], ast.Starred), ast.unparse(node)

    def test_jacobi_hook_reads_the_matrix_argument(self, tracer):
        # the hook reads `matrix` by keyword or as the first positional argument
        for module, attr in tracer.GROUPS["linalg_core.jacobi_eigh"]:
            fn = getattr(importlib.import_module(f"flab.{module}"), attr)
            assert list(inspect.signature(fn).parameters)[0] == "matrix", attr

    def test_estimate_hook_binds_its_arguments(self, tracer):
        # the hook reads these four arguments of every function in its group
        for module, attr in tracer.GROUPS["mc_oracle.estimate"]:
            fn = getattr(importlib.import_module(f"flab.{module}"), attr)
            assert {"sc", "sigma", "n", "seed"} <= set(inspect.signature(fn).parameters), attr


def test_bench_suite_collects_every_benchmark():
    # Tier-1 does not run bench/; collecting it here makes a renamed or deleted
    # flab name fail now rather than in the next timing run
    root = SCENARIOS.parent
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "bench", "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    collected = {line.split("::")[1].split("[")[0] for line in run.stdout.splitlines() if "::" in line}
    defined = {
        node.name
        for path in (root / "bench").glob("test_*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    }
    assert defined and collected == defined
