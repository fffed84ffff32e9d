"""A fixed CPU workload that imports nothing from fsrecon, used as the
benchmark's yardstick for host speed.

    python perfbench/reference.py

run.py runs it in a fresh process between every two measured commands and
divides each command's wall time by the mean of the reference times on
either side; see ``Reference`` there.  Like an fsrecon command, it starts
an interpreter and imports numpy, then mixes tight integer loops with
allocation-heavy work (tuples, dicts, sorting, recursion, Fractions, JSON),
so host slowdowns hit it roughly as they hit the commands.  It prints a
checksum, which run.py compares with an in-process run of ``checksum``.
Changing this file changes every end-to-end time the benchmark reports.
"""
import json
import random
from fractions import Fraction

import numpy as np


def _tight_loop(n: int) -> int:
    table: dict = {}
    acc = 0
    for i in range(n):
        key = (i % 97, i % 89, i % 3)
        table[key] = table.get(key, 0) + i * i
        acc = (acc * 31 + table[key]) % 1000003
    return acc


def _allocating(n: int) -> int:
    rng = random.Random(7)
    rows = sorted(tuple(rng.randrange(50) for _ in range(4)) for _ in range(n))
    groups: dict = {}
    for row in rows:
        groups.setdefault(row[:2], []).append(row)

    def leaves(depth: int) -> int:
        return 1 if depth == 0 else sum(leaves(depth - 1) for _ in range(4))

    total = sum(Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(2000))
    decoded = json.loads(json.dumps([[list(k), len(v)] for k, v in groups.items()]))
    return len(decoded) + leaves(7) + total.numerator % 1009


def checksum() -> int:
    squares = np.arange(50000, dtype=np.int64) % 1009
    return _tight_loop(80000) ^ _allocating(30000) ^ int((squares * squares).sum())


if __name__ == "__main__":
    print(checksum())
