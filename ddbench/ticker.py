"""Host-speed clock: fixed work run beside each benchmark child.

Usage: python3 ddbench/ticker.py OUT_JSON

Repeats one fixed chunk of pure-Python work and records the
CLOCK_MONOTONIC reading at the end of each chunk.  It prints ``ready``
after its first chunk and, on SIGTERM, writes the readings to OUT_JSON
and exits.

The parent runs it beside each child and counts the chunks it finishes
while the child runs: a count of the child's time in host-speed units.
A shared host drifts in speed by a third over minutes, which no longer
run can average away, but the drift slows this chunk and a child that
trades cores with it (``run.Ticker.swap``) alike.  The chunk does the
kind of work SymPy's pure-Python ground types do: dicts of Fractions.
"""

import json
import signal
import sys
import time
from fractions import Fraction


def chunk() -> int:
    p = {i: Fraction(i + 1, i + 2) for i in range(12)}
    acc = {0: Fraction(1)}
    for _ in range(6):
        out = {}
        for a, ca in acc.items():
            for b, cb in p.items():
                out[a + b] = out.get(a + b, 0) + ca * cb
        acc = {k: v for k, v in out.items() if k < 40}
    return len(acc)


def main(out_path: str):
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    ends = []
    try:
        chunk()
        print("ready", flush=True)
        while True:
            chunk()
            ends.append(time.monotonic())
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(ends, fh)


if __name__ == "__main__":
    main(sys.argv[1])
