"""Read the machine's slowdown at a fixed period until terminated.

    python -m hostbench.pacer PERIOD_S

Each line is ``<time.monotonic() at the reading's midpoint> <slowdown>``
(:func:`hostbench.common.slowdown`).  :class:`hostbench.common.Pacer`
runs it beside set-up probes, study processes and the service's open
loop, so each of their timings is paced by the readings taken while it
ran.
"""

from __future__ import annotations

import sys
import time

from hostbench.common import slowdown


def main() -> int:
    period = float(sys.argv[1])
    while True:
        start = time.monotonic()
        value = slowdown()
        end = time.monotonic()
        print(f"{(start + end) / 2.0!r} {value!r}", flush=True)
        time.sleep(max(0.0, period - (end - start)))


if __name__ == "__main__":
    sys.exit(main())
