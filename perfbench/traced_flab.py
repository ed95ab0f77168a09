"""Run one flab command with the per-layer tracer installed.

    PERFBENCH_TRACE_OUT=stats.json python3 perfbench/traced_flab.py verify scenario.json

behaves like `flab verify scenario.json`, exit code and traceback included,
and writes the import time of `flab.cli` in this fresh interpreter, the
span totals and the counters to the file named by PERFBENCH_TRACE_OUT.
"""

import time

_t0 = time.perf_counter()
import flab.cli  # noqa: E402

_import_s = time.perf_counter() - _t0

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install()
    try:
        return flab.cli.main(sys.argv[1:])
    finally:
        stats = tracer.report()
        stats["import_s"] = _import_s
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump(stats, fh)


if __name__ == "__main__":
    sys.exit(main())
