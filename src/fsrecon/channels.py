"""Exact integer results from int64 numpy kernels, on residue channels.

A kernel whose every partial sum stays below INT64_SAFE runs once on the
integers as they are.  Past that bound it runs once per modulus of a set of
pairwise coprime odd moduli whose product exceeds twice the bound, reducing
as it goes, and a CRT rebuild recovers each integer as its symmetric
representative.  The Radon kernels run on these channels.
"""
from __future__ import annotations

import itertools
import math
import operator
from typing import Callable

import numpy as np

__all__ = ["INT64_SAFE", "crt", "exact", "moduli"]

INT64_SAFE = 2**62


def moduli(bound: int, n: int, wmax: int) -> list[int]:
    """Pairwise coprime odd moduli whose product exceeds 2 * bound, each the
    largest odd number under the size limit that is coprime to those before.
    A channel holds residues in [0, q): a partial sum adds at most n of them,
    and a weight multiply scales one by the weight's symmetric residue, of
    size at most min(wmax, q/2).  With q * max(n, min(wmax, 2^31)) <= 2^62
    every value stays below 2^62: past wmax = 2^31, q <= 2^31 and q/2 * q
    < 2^61."""
    limit = INT64_SAFE // max(n, min(wmax, 2**31))
    out, prod, q = [], 1, (limit - 1) | 1
    while prod <= 2 * bound:
        if math.gcd(q, prod) == 1:
            out.append(q)
            prod *= q
        q -= 2
    return out


def crt(outs: list[list[int]], moduli: list[int]) -> list[int]:
    """The integers in (-M/2, M/2) with residues `outs` modulo the pairwise
    coprime odd `moduli`, M their product."""
    m = math.prod(moduli)
    half = m // 2
    acc = itertools.repeat(half)  # shifts [0, M) onto (-M/2, M/2) below
    for out, q in zip(outs, moduli):
        basis = m // q * pow(m // q, -1, q)  # 1 mod q, 0 mod the others
        acc = map(operator.add, acc, map(operator.mul, out, itertools.repeat(basis)))
    return [y % m - half for y in acc]


def exact(kernel: Callable, nums, bound: int, n: int, wmax: int = 1) -> list[int]:
    """Run kernel(g, q) on int64 arrays of the integers `nums` (a list or an
    int64 array) and return its output as exact integers.  When `bound` caps
    every partial sum below INT64_SAFE, one channel runs on nums as they are,
    with q = None.  Otherwise one channel runs per modulus q of `moduli` on
    nums mod q, the kernel reducing mod q as it goes, and each output, which
    `bound` also caps, is rebuilt by CRT."""
    if bound < INT64_SAFE:
        return kernel(np.asarray(nums, dtype=np.int64), None).tolist()
    qs = moduli(bound, n, wmax)
    outs = []
    for q in qs:
        if isinstance(nums, np.ndarray):
            g = nums % q
        else:
            g = np.array([x % q for x in nums], dtype=np.int64)
        outs.append(kernel(g, q).tolist())
    return crt(outs, qs)
