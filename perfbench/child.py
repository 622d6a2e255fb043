"""Run one benchmark operation in a fresh interpreter.

    python3 perfbench/child.py help-check --table s5 --order 6
    python3 perfbench/child.py lib jordan_oracle 3,2,1

The first form is the `pgq` command line, run through `pgq.cli.main`; the
second calls a function of perfbench/libops.py.  The process is "ready" as
soon as `import pgq.cli` returns.  It writes that instant (on the
system-wide monotonic clock, so the parent can compare it with its own
readings) as the first line of the file descriptor named by PERFBENCH_FD.
With PERFBENCH_TRACE set to an operation id, it traces the layers and writes
their values as a JSON line to the same descriptor after the operation.
"""

import time  # noqa: I001  (nothing may be imported before the clock)
import pgq.cli

READY = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    fd = int(os.environ["PERFBENCH_FD"])
    os.write(fd, f"{READY!r}\n".encode())
    trace_id = os.environ.get("PERFBENCH_TRACE")
    tracer = None
    if trace_id is not None:
        from tracer import Tracer

        tracer = Tracer(int(trace_id))
        tracer.install()
    argv = sys.argv[1:]
    try:
        if argv[0] == "lib":
            import libops

            return getattr(libops, argv[1])(*argv[2:])
        return pgq.cli.main(argv)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            os.write(fd, (json.dumps(tracer.values) + "\n").encode())


if __name__ == "__main__":
    sys.exit(main())
