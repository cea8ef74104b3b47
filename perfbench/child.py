"""Run one framelat CLI command in this fresh interpreter and report on it.

Usage: python3 child.py <src-dir> <trace 0|1> <cli args...>

Prints one JSON line: the import time of ``framelat.cli`` (``setup_s``), the
command's wall time around ``framelat.cli.main(argv)``, its exit code, its
captured stdout, this process's peak RSS and, when tracing, the span report.
With no CLI args it only measures the import.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def main() -> None:
    src, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import framelat.cli
    setup_s = time.perf_counter() - start

    record = {"setup_s": setup_s}
    if argv:
        tracer = None
        if trace:
            from tracer import Tracer  # this script's directory is on sys.path
            tracer = Tracer()
            tracer.install()
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = framelat.cli.main(argv)
        record["cmd_s"] = time.perf_counter() - start
        record["code"] = code
        record["stdout"] = out.getvalue()
        if tracer is not None:
            record["trace"] = tracer.report()
    record["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
