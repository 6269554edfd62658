"""Run one reproflow CLI command in this process under the benchmark's tracer.

    python3 bench/cli_child.py TRACE_OUT -- <reproflow command line>

Used by the traced run of the cli_suite workload in place of
``python -m reproflow.cli``.  The fresh ``import reproflow.cli`` and the
command itself are spans; all spans are written to TRACE_OUT when the
command ends.  Exits with the command's exit code.
"""

import sys

import spans


def main(argv):
    trace_out, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: cli_child.py TRACE_OUT -- <reproflow arguments>")
    tracer = spans.Tracer()
    with tracer.span("cli.import"):
        import reproflow.cli
    tracer.install()
    try:
        with tracer.span("cli.main"):
            return reproflow.cli.main(args)
    finally:
        tracer.uninstall()
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
