"""Run one offlm CLI command under the outside-in tracer.

    python3 perfbench/cli_traced.py TRACE_OUT.json COMMAND ARGS...

Behaves like `python -m offlm.cli COMMAND ARGS...` (same exit code) and
writes the command's spans and counters to TRACE_OUT.json.
"""

import sys

import tracer as tracing


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    import offlm.cli
    t = tracing.Tracer().install()
    try:
        return offlm.cli.main(argv)
    finally:
        t.uninstall()
        t.dump(trace_path)


if __name__ == "__main__":
    raise SystemExit(main())
