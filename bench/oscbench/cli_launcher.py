"""Traced stand-in for ``python -m oscpop.cli``.

    python -m oscbench.cli_launcher TRACE_JSON COMMAND [ARGS...]

Runs the CLI's main with the benchmark's wrappers installed, writes the
trace summary to TRACE_JSON, and exits with the CLI's exit code.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from .tracer import Tracer


def main() -> int:
    trace_path, argv = Path(sys.argv[1]), sys.argv[2:]
    import oscpop.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = oscpop.cli.main(argv)
    finally:
        tracer.uninstall()
        trace_path.write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main())
