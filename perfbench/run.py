"""flab benchmark: four workloads timed end to end, and per module from outside.

    python3 perfbench/run.py --workload cli_reference --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Each operation is one fresh flab process,
run one at a time, with FLAB_THREADS and OPENBLAS_NUM_THREADS set to the
number of CPUs this process may run on. A run repeats whole rounds of the
workload's operations until --seconds have passed, checks every output
against the numpy reference in reference.py or a property the method must
have, and prints one JSON result as its last line: the end-to-end metrics
with --trace 0, the per-layer metrics of traced_flab.py with --trace 1.
See README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import checks
import gen
from reference import Model

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
SCENARIOS = os.path.join(ROOT, "scenarios")

OP_TIMEOUT_S = 90  # a run must end within 180 s
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 3.0
CRASH_SEED = 0  # the crashing inputs must not depend on --seed
MC_SEED = 42
MC_LARGE_N = 1_000_000
HIGHDIM_N = 20_000
HIGHDIM_POINTS = 2  # few comparisons on seeded scenarios keep chance z > 4 failures rare
DENSE_BOUNDS_POINTS = 10_000
VERIFY_POINTS = 6  # flab's default number of positive noise levels

FLAB = ["-c", "import sys; from flab.cli import main; sys.exit(main())"]
SETUP = ["-c", "import sys, flab\nfrom flab.cli import load_scenario\nfor p in sys.argv[1:]: load_scenario(p)"]
TRACED = [os.path.join(HERE, "traced_flab.py")]
EXIT_CODES = (0, 2, 3, 4, 5)


@dataclass
class Op:
    name: str
    sub: str
    scenario: str
    extra: list = field(default_factory=list)
    crash: bool = False  # crashes today with a traceback; see README
    points: int = 0  # verify: positive noise levels
    n: int = 0
    seed: int = 0

    def argv(self, out):
        args = [self.sub, self.scenario] + self.extra
        if self.sub == "sweep":
            args += ["--out-csv", os.path.join(out, self.name + ".csv"),
                     "--out-svg", os.path.join(out, self.name + ".svg")]
        return args


@dataclass
class Result:
    op: Op
    code: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str
    files: dict
    stats: dict = None

    @property
    def failed(self):
        if self.op.crash:
            return self.code not in EXIT_CODES or "Traceback" in self.stderr
        return self.code != 0

    def digest(self):
        """Bytes that must repeat exactly: the written files of sweep, the text of the rest."""
        h = hashlib.sha256()
        if self.op.sub == "sweep":
            for key in sorted(self.files):
                h.update(self.files[key])
        else:
            h.update(self.stdout.encode())
        return h.hexdigest()


# -- processes ----------------------------------------------------------------


def run_process(argv, env, out, name):
    """Run one process to its end; wall time from launch to exit, and its peak RSS."""
    stdout_path = os.path.join(out, name + ".out")
    stderr_path = os.path.join(out, name + ".err")
    with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, env=env, stdout=so, stderr=se, cwd=ROOT)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    with open(stderr_path, encoding="utf-8", errors="replace") as fh:
        err = fh.read()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, text, err


def run_op(op, env, out, traced=False):
    os.makedirs(out, exist_ok=True)
    stats_path = os.path.join(out, op.name + ".trace.json")
    if traced:
        env = dict(env, PERFBENCH_TRACE_OUT=stats_path)
    outputs = {ext: os.path.join(out, f"{op.name}.{ext}") for ext in ("csv", "svg")} if op.sub == "sweep" else {}
    for path in outputs.values():  # a file left by an earlier round must not pass for this one's
        if os.path.exists(path):
            os.remove(path)
    code, wall, rss, text, err = run_process((TRACED if traced else FLAB) + op.argv(out), env, out, op.name)
    files = {}
    for ext, path in outputs.items():
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files[ext] = fh.read()
    stats = None
    if traced:
        with open(stats_path, encoding="utf-8") as fh:
            stats = json.load(fh)
    return Result(op, code, wall, rss, text, err, files, stats)


def flab_env(threads):
    env = dict(os.environ)
    # flab's bytecode is cached, as an installed package's would be; the
    # warm-up run writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), FLAB_THREADS=str(threads),
               OPENBLAS_NUM_THREADS=str(threads))
    return env


# -- workloads ------------------------------------------------------------------


def _committed(name):
    return os.path.join(SCENARIOS, name + ".json")


def cli_reference(seed, inputs):
    """The 19 succeeding (subcommand, scenario) pairs at their own settings, plus two crashes."""
    ops = []
    for name in ("reference_naive", "reference_common", "reference_projected", "two_crossings"):
        path = _committed(name)
        mc = _spec(path)["mc"]
        ops += [Op(f"validate_{name}", "validate", path), Op(f"sweep_{name}", "sweep", path),
                Op(f"classify_{name}", "classify", path),
                Op(f"verify_{name}", "verify", path, points=VERIFY_POINTS, n=mc["n"], seed=mc["seed"])]
    path = _committed("equal_costs_bounds")
    ops += [Op("validate_equal_costs", "validate", path), Op("sweep_equal_costs", "sweep", path),
            Op("bounds_equal_costs", "bounds", path)]
    crash = gen.write(gen.crash(CRASH_SEED), os.path.join(inputs, "crash"))
    ops += [Op("crash_linear_from_zero", "sweep", crash["crash_linear.json"], crash=True),
            Op("crash_one_point", "sweep", crash["crash_points.json"], ["--points", "1"], crash=True)]
    rng = random.Random(seed)
    probes = [rng.choice([o for o in ops if o.sub == s and not o.crash]).name for s in ("sweep", "verify")]
    return ops, probes, list(crash.values())


def mc_large_n(seed, inputs):
    ops = [Op(f"verify_{name}", "verify", _committed(name),
              ["--n", str(MC_LARGE_N), "--seed", str(MC_SEED)], points=VERIFY_POINTS, n=MC_LARGE_N, seed=MC_SEED)
           for name in ("reference_naive", "reference_common", "reference_projected")]
    return ops, [random.Random(seed).choice(ops).name], []


def highdim(seed, inputs):
    paths = gen.write(gen.highdim(seed), inputs)
    ops = []
    for kind in ("common", "projected"):
        ops.append(Op(f"classify_{kind}", "classify", paths[f"highdim_{kind}.json"]))
    for kind in ("common", "projected"):
        ops.append(Op(f"verify_{kind}", "verify", paths[f"highdim_{kind}.json"],
                      ["--n", str(HIGHDIM_N), "--seed", str(MC_SEED), "--points", str(HIGHDIM_POINTS)],
                      points=HIGHDIM_POINTS, n=HIGHDIM_N, seed=MC_SEED))
    probes = [random.Random(seed).choice([o for o in ops if o.sub == "verify"]).name]
    return ops, probes, list(paths.values())


def dense_grid(seed, inputs):
    paths = gen.write(gen.dense(seed), inputs)
    ops = [Op("sweep_common", "sweep", paths["dense_common.json"]),
           Op("sweep_equal_costs", "sweep", paths["dense_equal.json"]),
           Op("bounds_equal_costs", "bounds", paths["dense_equal.json"],
              ["--points", str(DENSE_BOUNDS_POINTS)])]
    probes = [random.Random(seed).choice(ops[:2]).name]
    return ops, probes, list(paths.values())


WORKLOADS = {f.__name__: f for f in (cli_reference, mc_large_n, highdim, dense_grid)}


# -- checks ---------------------------------------------------------------------


def _spec(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _points_arg(op):
    return int(op.extra[op.extra.index("--points") + 1]) if "--points" in op.extra else None


def check_result(res):
    """Errors in one operation's output; a crash as expected today is not an error."""
    op = res.op
    if op.crash and (res.failed or res.code != 0):
        return []
    if res.failed:
        last = (res.stderr.strip() or res.stdout.strip()).splitlines()[-1:]
        return [f"{op.name}: exit {res.code}: {' '.join(last)}"]
    spec = _spec(op.scenario)
    model = Model(spec)
    if op.sub == "validate":
        errors = checks.check_validate(model, res.stdout)
    elif op.sub == "sweep":
        sigmas = checks.sigma_grid(spec, _points_arg(op), 241)
        csv = res.files.get("csv", b"").decode()
        errors = checks.check_csv(model, sigmas, csv) + checks.check_svg(csv, res.files.get("svg", b"").decode())
    elif op.sub == "classify":
        errors = checks.check_classify(model, res.stdout)
    elif op.sub == "verify":
        errors = checks.check_verify(model, res.stdout, op.n, op.seed, op.points)
    else:
        errors = checks.check_bounds(model, checks.sigma_grid(spec, _points_arg(op), 21), res.stdout)
    return [f"{op.name}: {e}" for e in errors]


def validate_inputs(paths, env):
    """Every generated scenario passes `flab validate` with the reference constants."""
    errors = []
    out = os.path.join(WORK, "validate")
    for path in paths:
        op = Op("validate_" + os.path.splitext(os.path.basename(path))[0], "validate", path)
        errors += check_result(run_op(op, env, out))
    return errors


# -- one run ------------------------------------------------------------------------


def run_round(ops, env, out):
    return [run_op(op, env, out) for op in ops]


def measure_setup(paths, env):
    walls = []
    while len(walls) < SETUP_MIN_REPEATS or sum(walls) < SETUP_MIN_S:
        code, wall, _, _, err = run_process(SETUP + paths, env, WORK, "setup")
        if code != 0:
            raise RuntimeError(f"set-up failed: {err.strip()}")
        walls.append(wall)
    return statistics.median(walls)


def compare_digests(reference, others, what):
    errors = []
    for res in others:
        ref = reference[res.op.name]
        if not ref.failed and not res.failed and ref.digest() != res.digest():
            errors.append(f"{res.op.name}: output differs {what}")
    return errors


def per_subcommand(rounds):
    """Informational medians per subcommand, and the two throughputs."""
    lines = []
    results = [r for rnd in rounds for r in rnd if not r.failed]
    for sub in ("validate", "sweep", "classify", "verify", "bounds"):
        walls = [r.wall for r in results if r.op.sub == sub]
        if walls:
            lines.append(f"{sub}_s {statistics.median(walls):.4f} s (median of {len(walls)})")
    ver = [r for r in results if r.op.sub == "verify"]
    if ver:
        agents = sum(r.op.n * 2 * 2 * r.op.points for r in ver)
        lines.append(f"mc_agents_per_s {agents / sum(r.wall for r in ver):.6g} agents/s")
    grid = [r for r in results if r.op.sub in ("sweep", "bounds")]
    if grid:
        points = sum(r.files.get("csv", b"").count(b"\n") - 1 if r.op.sub == "sweep"
                     else len(r.stdout.splitlines()) - 3 for r in grid)
        lines.append(f"grid_points_per_s {points / sum(r.wall for r in grid):.6g} points/s")
    return lines


def layer_metrics(rnd):
    """Per-layer totals over one traced round."""
    t = {}
    c = {}
    import_s = 0.0
    for res in rnd:
        import_s += res.stats["import_s"]
        for group, vals in res.stats["totals"].items():
            acc = t.setdefault(group, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += vals[i]
        for key, val in res.stats["counters"].items():
            c[key] = max(c.get(key, 0), val) if key == "draw_bytes_max" else c.get(key, 0) + val
    jac = t["linalg_core.jacobi_eigh"]
    return {
        "cli.import_s": import_s,
        "cli.load_scenario_s": t["cli.load_scenario"][1],
        "cli.render_svg_s": t["cli.render_svg"][1],
        "cli.cmd_self_s": t["cli.cmd"][2],
        "linalg_core.jacobi_eigh_calls": jac[0],
        "linalg_core.jacobi_eigh_s": jac[1],
        "linalg_core.jacobi_distinct_ratio": c.get("jacobi_distinct", 0) / jac[0] if jac[0] else 0.0,
        "linalg_core.kahan_s": t["linalg_core.kahan"][1],
        "closed_form.scenario_s": t["closed_form.scenario"][1],
        "closed_form.eval_calls": t["closed_form.eval"][0],
        "closed_form.eval_s": t["closed_form.eval"][1],
        "regimes.find_roots_s": t["regimes.find_roots"][1],
        "regimes.curve_evals": c.get("curve_evals", 0),
        "regimes.classify_s": t["regimes.classify"][2],
        "agents.draw_s": t["agents.draw"][1],
        "agents.normals_drawn": c.get("normals", 0),
        "agents.draw_bytes_max": c.get("draw_bytes_max", 0),
        "agents.respond_s": t["agents.respond"][1],
        "agents.realize_s": t["agents.realize"][1],
        "mc_oracle.estimate_calls": t["mc_oracle.estimate"][0],
        "mc_oracle.estimate_self_s": t["mc_oracle.estimate"][2],
        "mc_oracle.reduce_s": t["mc_oracle.reduce"][1],
        "mc_oracle.draw_reuse_ratio": (c.get("oracle_needed", 0) / c["oracle_normals"]
                                       if c.get("oracle_normals") else 0.0),
    }


def main():
    parser = argparse.ArgumentParser(description="flab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "flab", "cli.py")) or not os.path.isdir(SCENARIOS):
        print(f"error: {ROOT} is not a flab checkout (src/flab and scenarios/ are missing)", file=sys.stderr)
        return 2

    threads = len(os.sched_getaffinity(0))
    env = flab_env(threads)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    ops, probes, generated = WORKLOADS[args.workload](args.seed, os.path.join(WORK, "inputs"))
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations per round")
    print(f"threads: FLAB_THREADS={threads} OPENBLAS_NUM_THREADS={threads}")
    run_process(FLAB + ["--help"], env, WORK, "warm")  # compile bytecode outside the timings

    errors = []
    setup_s = None if args.trace else measure_setup(sorted({op.scenario for op in ops}), env)

    rounds, traced_rounds = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        out = os.path.join(WORK, "r1" if not rounds else "rn")
        if not args.trace:
            rounds.append(run_round(ops, env, out))
            continue
        # each traced operation runs right after its untraced twin, so the two
        # see the same machine state and their difference is the overhead
        pairs = [(run_op(op, env, out), run_op(op, env, os.path.join(WORK, "traced"), traced=True))
                 for op in ops]
        rounds.append([p[0] for p in pairs])
        traced_rounds.append([p[1] for p in pairs])

    first = {r.op.name: r for r in rounds[0]}
    for res in rounds[0]:
        errors += check_result(res)
    for rnd in rounds[1:] + traced_rounds:
        errors += compare_digests(first, rnd, "between repeats")
    if args.trace:
        # the costlier property checks ride on the traced run: generated inputs
        # pass `flab validate`, and outputs repeat across thread counts and runs
        errors += validate_inputs(generated, env)
        probe_ops = [op for op in ops if op.name in probes]
        errors += compare_digests(first, run_round(probe_ops, flab_env(1), os.path.join(WORK, "t1")),
                                  "between FLAB_THREADS=1 and the run's thread count")
        if len(rounds) == 1:
            errors += compare_digests(first, run_round(probe_ops, env, os.path.join(WORK, "rep")),
                                      "between repeats")

    all_runs = rounds + traced_rounds
    attempted = sum(len(rnd) for rnd in all_runs)
    failed = sum(r.failed for rnd in all_runs for r in rnd)
    walls = [sum(r.wall for r in rnd) for rnd in rounds]
    for rnd, kind in [(rounds[0], "untraced"), *[(t, "traced") for t in traced_rounds[:1]]]:
        for r in rnd:
            print(f"op {r.op.name} ({kind}): exit {r.code}, {r.wall:.4f} s, {r.rss_mb:.1f} MB")
    for line in per_subcommand(rounds):
        print(line)
    for e in errors:
        print("ERROR", e)
    print(f"rounds {len(rounds)}, attempted {attempted}, failed {failed}, "
          f"checked {'OK' if not errors else 'with errors'}")

    if args.trace:
        traced_walls = [sum(r.wall for r in rnd) for rnd in traced_rounds]
        per_round = [layer_metrics(rnd) for rnd in traced_rounds]
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        values["trace.overhead_s"] = overhead
        values["trace.overhead_pct"] = 100.0 * overhead / statistics.median(walls)
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "call_s": statistics.median(r.wall for rnd in rounds for r in rnd),
            "peak_rss_mb": max(r.rss_mb for rnd in rounds for r in rnd),
        }
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
