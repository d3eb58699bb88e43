"""Run one liequant CLI job in this fresh, single-threaded process.

Usage: worker.py SRC_DIR RESULT_JSON (--import-only | --plain | --trace) [CLI ARGS...]

The first thing the process does is import `liequant.cli` from SRC_DIR
and read its own CPU time: the set-up time of spawn-to-import.
Then it times `liequant.cli.main(CLI ARGS)` (under the tracer with
--trace) and writes its measurements to RESULT_JSON.  The job's stdout
and stderr are this process's own; the process exits with the job's
exit code.
"""

import resource
import sys
import time


def _cpu_s():
    """User+sys time of this process and of the children it waited for."""
    return sum(ru.ru_utime + ru.ru_stime for ru in
               (resource.getrusage(resource.RUSAGE_SELF),
                resource.getrusage(resource.RUSAGE_CHILDREN)))


sys.path.insert(0, sys.argv[1])
import liequant.cli  # noqa: E402

IMPORTED_CPU = _cpu_s()

import json  # noqa: E402
import os  # noqa: E402
import traceback  # noqa: E402


def main():
    result_path, mode, argv = sys.argv[2], sys.argv[3], sys.argv[4:]
    result = {"setup_cpu_s": IMPORTED_CPU}
    if mode == "--import-only":
        rc = 0
    else:
        tracer = None
        if mode == "--trace":
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer
            tracer = Tracer().install()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            rc = liequant.cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        sys.stdout.flush()
        result.update({"rc": rc, "wall_s": wall, "cpu_s": cpu})
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.report()
    # ru_maxrss is in KiB on Linux
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc or 0


if __name__ == "__main__":
    sys.exit(main())
