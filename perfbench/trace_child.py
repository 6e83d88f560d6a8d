"""Run one `fairex` command with layer spans installed, then write them as JSON.

    python3 perfbench/trace_child.py OUT.json <fairex arguments>

The benchmark starts traced `fairex` children this way, with src/ on
PYTHONPATH, and merges OUT.json into its own trace.
"""

import json
import sys
from pathlib import Path

from fairex.cli import cli_main

import tracing


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.session = 0
    tracer.install()
    try:
        return cli_main(argv)
    finally:
        tracer.uninstall()
        out.write_text(json.dumps(tracer.export()))


if __name__ == "__main__":
    sys.exit(main())
