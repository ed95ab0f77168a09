"""Per-layer spans and counters for one flab process, installed from outside.

`install()` wraps flab's public functions and puts each wrapper into every
flab module namespace that holds the original, since `cli` and `mc_oracle`
import functions by name. A wrapper records a span only for the outermost
call of its group on the current call chain, so a nested call of the same
group is part of the enclosing span. Self time is a span's duration minus
the part of it that its child spans cover. `cli` runs sweeps and
verifications on a thread pool: a span that starts on a worker thread with
nothing open there takes the main thread's innermost open span as parent,
and totals are updated under a lock.
"""

import functools
import hashlib
import inspect
import sys
import threading
from time import perf_counter

# group -> functions, as (module, attribute)
GROUPS = {
    "cli.cmd": [("cli", f"cmd_{c}") for c in ("validate", "sweep", "classify", "verify", "bounds")],
    "cli.load_scenario": [("cli", "load_scenario")],
    "cli.render_svg": [("cli", "render_svg")],
    "linalg_core.jacobi_eigh": [("linalg_core", "jacobi_eigh")],
    "linalg_core.kahan": [("linalg_core", "kahan_dot"), ("linalg_core", "quad_form")],
    "closed_form.eval": [("closed_form", f) for f in (
        "disparity_value", "disparity_curve", "score_overlap_bound", "utility_overlap_bound")],
    "regimes.find_roots": [("regimes", "find_roots")],
    "regimes.classify": [("regimes", f) for f in (
        "classify_score_bayes", "classify_utility_bayes", "classify_utility_projected",
        "classify_utility_projected_matrix", "exploitation_condition_projected",
        "neutrality_condition_projected", "monotonicity_condition_projected")],
    "agents.draw": [("agents", "standard_normals")],
    "agents.respond": [("agents", f) for f in (
        "naive_best_response", "bayesian_posterior", "bayesian_best_response")],
    "agents.realize": [("agents", "realized_quantities")],
    "mc_oracle.estimate": [("mc_oracle", "estimate_disparity"), ("mc_oracle", "estimate_variance_naive")],
    "mc_oracle.reduce": [("mc_oracle", "tree_sum")],
}


class _Span:
    __slots__ = ("groups", "start", "children")

    def __init__(self, groups, start):
        self.groups = groups
        self.start = start
        self.children = []


def _covered(intervals):
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        # group -> [calls, seconds, self seconds]
        self.totals = {g: [0, 0.0, 0.0] for g in [*GROUPS, "closed_form.scenario"]}
        self.counters = {}
        self._hashes = set()
        self._draw_keys = set()

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, value):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, group, fn, hook=None):
        """Wrapper timing `fn` under `group`; `hook(args, kwargs, chain)` may replace the arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else None)
            chain = parent.groups if parent is not None else frozenset()
            if group in chain:
                return fn(*args, **kwargs)
            if hook is not None:
                args, kwargs = hook(args, kwargs, chain)
            span = _Span(chain | {group}, perf_counter())
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - span.start
                own = dur - _covered(span.children)
                with tracer._lock:
                    t = tracer.totals[group]
                    t[0] += 1
                    t[1] += dur
                    t[2] += own
                    if parent is not None:
                        parent.children.append((span.start, end))

        return wrapper

    # -- hooks for the per-layer counters --------------------------------

    def _jacobi(self, args, kwargs, chain):
        import numpy as np

        a = np.ascontiguousarray(kwargs.get("matrix", args[0] if args else None), dtype=float)
        digest = hashlib.sha1(repr(a.shape).encode() + a.tobytes()).digest()
        with self._lock:
            self._hashes.add(digest)
        return args, kwargs

    def _draw(self, args, kwargs, chain):
        shape = kwargs.get("shape", args[1] if len(args) > 1 else None)
        size = 1
        for k in shape if isinstance(shape, tuple) else (shape,):
            size *= int(k)
        self.add("normals", size)
        if "mc_oracle.estimate" in chain:
            self.add("oracle_normals", size)
        with self._lock:
            self.counters["draw_bytes_max"] = max(self.counters.get("draw_bytes_max", 0), 8 * size)
        return args, kwargs

    def _estimate(self, fn):
        sig = inspect.signature(fn)

        def hook(args, kwargs, chain):
            bound = sig.bind(*args, **kwargs).arguments
            if float(bound["sigma"]) > 0.0:
                key = (int(bound["seed"]), int(bound["n"]), int(bound["sc"].dim))
                with self._lock:
                    self._draw_keys.add(key)
            return args, kwargs

        return hook

    def _find_roots(self, args, kwargs, chain):
        curve = args[0]

        def counted(s):
            self.add("curve_evals", 1)
            return curve(s)

        return (counted,) + tuple(args[1:]), kwargs

    def install(self):
        import flab.cli  # noqa: F401  (imports every flab module)
        from flab import closed_form

        modules = [m for name, m in list(sys.modules.items()) if name == "flab" or name.startswith("flab.")]
        hooks = {
            "linalg_core.jacobi_eigh": lambda fn: self._jacobi,
            "agents.draw": lambda fn: self._draw,
            "mc_oracle.estimate": self._estimate,
            "regimes.find_roots": lambda fn: self._find_roots,
        }
        for group, targets in GROUPS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules[f"flab.{mod_name}"], attr)
                make = hooks.get(group)
                wrapped = self.wrap(group, original, make(original) if make else None)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapped)
        scenario = closed_form.Scenario
        scenario.__init__ = self.wrap("closed_form.scenario", scenario.__init__)

    def report(self):
        """Totals and counters as plain data."""
        needed = sum(n * 2 * d for _, n, d in self._draw_keys)
        counters = dict(self.counters)
        counters["jacobi_distinct"] = len(self._hashes)
        counters["oracle_needed"] = needed
        return {"totals": self.totals, "counters": counters}
