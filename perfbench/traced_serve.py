"""Run ``geofence serve`` with the service layers wrapped in spans.

Usage: python3 perfbench/traced_serve.py SPANS_OUT serve [serve flags...]

Same process layout as the plain ``geofence serve``: the wrappers are
installed before the CLI builds the service, so the registry it is handed,
the snapshot reads and writes and the geo kernels are all traced. On SIGINT
the CLI stops serving and the spans are written to SPANS_OUT.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracing import Tracer, instrument_server  # noqa: E402


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    instrument_server(tracer)
    from geofence import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
