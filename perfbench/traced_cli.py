"""Traced CLI entry point used by the benchmark's traced runs.

    python perfbench/traced_cli.py SPANS.json CLI-ARGS...

Installs the tracer, calls alcovewalks.cli.main(CLI-ARGS) exactly as the
console script would, writes the spans to SPANS.json at exit and exits
with main's code.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import alcovewalks.cli

    try:
        return alcovewalks.cli.main(argv)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
