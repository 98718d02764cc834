"""Start ``hybrid-aara serve`` with the traced run's layer wrappers installed.

Usage::

    python3 perfbench/daemon.py SPOOL serve [serve options ...]

The wrappers go in before the CLI builds its ``ServerConfig`` and calls
``repro.server.app.serve``; the forked pool worker inherits them and
appends its spans to SPOOL after each task, and the daemon appends its
own when it exits.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    spool, argv = sys.argv[1], sys.argv[2:]
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import layers
    from perfbench.tracer import Tracer
    from repro import cli

    tracer = Tracer()
    layers.install(tracer, worker_spool=spool)
    try:
        return cli.main(argv)
    finally:
        tracer.restore()
        tracer.append_to(spool)


if __name__ == "__main__":
    sys.exit(main())
