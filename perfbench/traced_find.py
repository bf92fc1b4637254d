"""Run one ``maxseg find`` under the tracer and write its spans to a file.

Usage: python3 perfbench/traced_find.py SPANS_OUT OP_ID find [find args...]

The exit code is the CLI's own.  The spans file is written once, when the
operation ends.
"""

import sys

from spans import Tracer


def main() -> int:
    spans_out, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    import maxseg.cli

    frame = tracer.begin_op(op_id)
    try:
        return maxseg.cli.main(argv)
    finally:
        tracer.end_op(frame)
        tracer.write(spans_out)


if __name__ == "__main__":
    sys.exit(main())
