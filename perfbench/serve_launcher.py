"""Run ``slp serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py TRACE_DIR [serve arguments...]``

The wrappers go in before :func:`repro.server.cli.serve_main` builds the
service, so the worker pool, which forks on the first request that needs
proving, inherits them.  The server process appends its spans to
``TRACE_DIR`` after every request and each worker after every task.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402


def main(argv) -> int:
    recorder = spans.Recorder(argv[0], keyed=True, flush_per_task=True)
    spans.install(recorder)
    from repro.server.cli import serve_main

    return serve_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
