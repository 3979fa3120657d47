"""The orthoselect CLI with every public library function traced.

Usage: python3 perfbench/traced_cli.py TRACE_OUT PHASE ARGS...

Runs `orthoselect ARGS...` in this fresh interpreter, keeps its spans in
memory, and writes them to TRACE_OUT as one trace document of phase PHASE
("op" or "setup") when the command ends, whatever its exit code.  The import
time of `orthoselect.cli` is recorded as the CLI's start-up time.
"""
import sys
import time


def main() -> None:
    trace_out, phase, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter_ns()
    import orthoselect.cli

    startup_ns = time.perf_counter_ns() - start
    from tracing import Tracer  # imported after the timed import: it loads numpy

    tracer = Tracer()
    tracer.install()
    try:
        tracer.span("cli.main", orthoselect.cli.main.main)(args=args, prog_name="orthoselect")
    finally:
        tracer.uninstall()
        tracer.write(trace_out, phase, startup_ns)


if __name__ == "__main__":
    main()
