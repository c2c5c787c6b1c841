"""Run one wreathcount CLI op in this fresh process and report its timings.

Usage: python3 op.py FD TRACE OP_ID ARG...

Imports wreathcount.cli, calls cli.main(ARGS) as the console script does
(stdout and stderr untouched) and exits with its return code. Before exiting
it writes one JSON record to file descriptor FD: the import time, the time
spent inside cli.main and, when TRACE is 1, the spans recorded by tracer.py.
"""

import json
import os
import sys
from time import perf_counter


def main() -> int:
    fd, trace, op_id, argv = int(sys.argv[1]), sys.argv[2] == "1", int(sys.argv[3]), sys.argv[4:]
    t0 = perf_counter()
    from wreathcount import cli
    import_s = perf_counter() - t0

    record = {"op": op_id, "import_s": import_s, "missing": [], "spans": []}
    if trace:
        import tracer as tracing

        tr = tracing.Tracer()
        record["missing"] = tracing.install(tr)
        t1 = perf_counter()
        code = tr.call(tracing.ROOT, cli.main, (argv,), {})
        record["main_s"] = perf_counter() - t1
        record["spans"] = tr.spans
    else:
        t1 = perf_counter()
        code = cli.main(argv)
        record["main_s"] = perf_counter() - t1
    sys.stdout.flush()
    with os.fdopen(fd, "w") as side:
        json.dump(record, side)
    return code


if __name__ == "__main__":
    sys.exit(main())
