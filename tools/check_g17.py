#!/usr/bin/env python3
"""Compare the CSV writer's %.17g kernel with Python's '%.17g' % x, byte for byte.

Usage, from the root of a source checkout::

    PYTHONPATH=src python tools/check_g17.py [COUNT] [SEED]

COUNT (default 2000000) seeded doubles go through ``magstep.cli._g17_lines``
in blocks of 1024 rows, whose widths cycle through 1, 3, 4 and 10 columns
(10 is a dim-8 ``propagate`` row), so every separator position of those
rows is reached; a last block that does not fill its rows is one column.
Every other block is random 64-bit patterns (every binary exponent, NaN,
infinities, subnormals, both zeros), the others random mantissas times
10**u for u uniform over every decimal exponent of a double; each kind
takes each width in turn.  The first mismatch is printed and the exit code
is 1; otherwise 0.
"""

from __future__ import annotations

import sys

import numpy as np

from magstep.cli import _g17_lines

ROWS, WIDTHS = 1024, (1, 3, 4, 10)


def blocks(count: int, seed: int):
    rng = np.random.default_rng(seed)
    j = start = 0
    while start < count:
        cols = WIDTHS[j // 2 % len(WIDTHS)]
        n = min(ROWS * cols, count - start)
        if j % 2 == 0:
            x = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)
        else:
            x = rng.random(n) * 10.0 ** rng.uniform(-325.0, 308.25, n)
        yield x.reshape(-1, 1) if n % cols else x.reshape(-1, cols)
        start += n
        j += 1


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 2_000_000
    seed = int(argv[1]) if len(argv) > 1 else 0
    checked = 0
    for block in blocks(count, seed):
        rows, cols = block.shape
        want = ((",".join(["%.17g"] * cols) + "\n") * rows % tuple(block.ravel().tolist())).encode()
        got = _g17_lines(block)
        if got != want:
            for x, g, w in zip(block.ravel(), got.replace(b"\n", b",").split(b","), want.replace(b"\n", b",").split(b",")):
                if g != w:
                    print(f"mismatch at {x.hex()}: kernel {g!r}, '%.17g' {w!r}")
                    return 1
        checked += block.size
    print(f"{checked} doubles formatted as '%.17g' does (seed {seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
