"""Run one slicegate CLI command with the span tracer installed.

Usage: python perfbench/traced_cli.py SPANS_FILE -- CLI_ARGS...

Used by the traced cli-tour run: the child process pays the same interpreter
start and imports as ``python -m slicegate.cli``, then writes its spans as
JSON to SPANS_FILE when the command ends.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    spans_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_FILE -- CLI_ARGS...")
    tracer = Tracer()
    tracer.install()
    from slicegate import cli
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
