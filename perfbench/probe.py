"""Host-speed probe: times a fixed pure-Python loop each time it is asked.

Usage (started by ``common.HostProbe``, not by hand)::

    python3 perfbench/probe.py

Each line on standard input asks for one probe; the answer is one line on
standard output, the loop's duration in seconds.  The probe runs in its
own process, so nothing the program under test does to its own process
(heap, threads, the GIL) reaches it: only the host's speed does.
"""

from __future__ import annotations

import sys
import time

#: about 1 ms on a 2-vCPU Xeon VM
ITERATIONS = 12_000


def loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def main() -> int:
    for _request in sys.stdin:
        t0 = time.perf_counter()
        loop(ITERATIONS)
        sys.stdout.write(f"{time.perf_counter() - t0!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
