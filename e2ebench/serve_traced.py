"""Run ``zcover serve`` with the span recorder installed.

    python3 e2ebench/serve_traced.py --spans PREFIX [--checkpoint PATH]

The traced run of the served_mix workload launches the service through
this file instead of ``python -m repro.cli serve``: it installs the
layer wrappers of ``spans.py`` before the service (and so its forked
worker pool) exists, then calls :func:`repro.serve.service.serve_forever`
exactly as the CLI does.  On SIGTERM the service drains, and the spans
the service process recorded are written to ``PREFIX.bin``/``PREFIX.json``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description="zcover serve, traced")
    parser.add_argument("--spans", required=True, help="output path prefix for the spans")
    parser.add_argument("--checkpoint", default=None)
    args = parser.parse_args()

    from repro.serve.service import serve_forever

    recorder = spans.SpanRecorder()
    spans.install(recorder)
    recorder.begin("service")
    try:
        serve_forever(port=0, workers=workloads.WORKERS, checkpoint_path=args.checkpoint)
    finally:
        recorder.finish()
        recorder.write("service", args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
