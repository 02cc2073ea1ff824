"""Run one taxgames command in this process: `taxgames.cli.main(argv)`.

Usage: launch.py [--trace FILE SPAWNED_NS] -- ARGV...

With --trace, every public taxgames function is wrapped before the command
runs, and the spans, the process start time (from SPAWNED_NS to entering
`cli.main`) and the moment `cli.main` returned are written to FILE.
SPAWNED_NS is the parent's `time.perf_counter_ns()` just before it started
this process; the clock is system-wide on Linux.
"""

import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    options, command = argv[:split], argv[split + 1:]
    if not options:
        from taxgames.cli import main as cli_main

        return cli_main(command)

    from tracing import Tracer

    path, spawned_ns = options[1], int(options[2])
    tracer = Tracer()
    tracer.install()
    import taxgames.cli

    entered_ns = time.perf_counter_ns()
    try:
        return taxgames.cli.main(command)
    finally:
        returned_ns = time.perf_counter_ns()
        tracer.end_request()
        tracer.dump(path, (entered_ns - spawned_ns) / 1e6, returned_ns)


if __name__ == "__main__":
    sys.exit(main())
