"""Run ``repro serve`` with the benchmark's layer tracer installed.

Usage: ``python serve_traced.py TRACE_OUT serve [serve options...]``.
The tracer wraps the same public entry points as an offline traced run
(see ``tracer.install``); when the server stops (SIGINT) the aggregated
spans and counters are written to ``TRACE_OUT`` as JSON.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer, install  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1])
    tracer = install(Tracer())
    from repro.cli import main as repro_main

    try:
        return repro_main(sys.argv[2:]) or 0
    finally:
        tmp = out.with_suffix(".tmp")
        tmp.write_text(json.dumps(tracer.dump()))
        os.replace(tmp, out)


if __name__ == "__main__":
    sys.exit(main())
