"""Explicit pairs with equal subset sums that are not zero-flip equivalent.

For an odd modulus n outside the OFS set there is a unit k that is not a
plus/minus power of two; the geometric multiset A = {2^0, ..., 2^(d-1)} and
its dilate A' = k*A then have identical subset sums (both cover every
residue the same number of times, plus one extra zero) while no sign flip
carries one to the other.  Over Z/2 the pair ({0,1}, {1,1}) does the job.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, ResourceCapError, VerificationError
from .groups import cyclic
from .multisets import MAX_DISTINCT_SUMS, Multiset, sim0_check
from .ofs import is_member

__all__ = ["CounterexamplePair", "build", "z2_pair"]

MAX_EXPONENT = 64


class CounterexamplePair(NamedTuple):
    """d and k describe the power construction; they are None for the
    hand-built pair over Z/2."""

    n: int
    d: int | None
    k: int | None
    a: Multiset
    a_prime: Multiset
    verified: bool

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "k": self.k,
            "a": self.a.to_obj(),
            "a_prime": self.a_prime.to_obj(),
            "verified": self.verified,
        }


def _verify(n, d, k, a, a_prime, fs_cap) -> CounterexamplePair:
    fs_equal = a.same_subset_sums(a_prime, cap=fs_cap)
    equivalent, _ = sim0_check(a, a_prime)
    if not fs_equal or equivalent:
        raise VerificationError(
            f"counterexample construction failed for n={n}: "
            f"fs_equal={fs_equal}, sim0={equivalent}"
        )
    return CounterexamplePair(n=n, d=d, k=k, a=a, a_prime=a_prime, verified=True)


def build(n: int, d_mode: str = "order") -> CounterexamplePair:
    """Construct and verify the power-multiset pair for a non-member n.

    d_mode "order" uses the minimal exponent d with n | 2^d - 1, keeping the
    subset-sums size at 2^ord_n(2); "totient" uses d = phi(n).  Either way
    d may not exceed MAX_EXPONENT, and the min(n, 2^d) distinct subset sums
    that verification builds may not exceed MAX_DISTINCT_SUMS, the cap that
    subset sums keep anywhere else.
    """
    if d_mode not in ("order", "totient"):
        raise DomainError(f"unknown d_mode {d_mode!r}")
    verdict = is_member(n)
    if verdict.member:
        raise DomainError(f"{n} admits no counterexample: its units are covered")
    d = verdict.ord2 if d_mode == "order" else verdict.phi
    if d > MAX_EXPONENT:
        raise ResourceCapError(f"exponent {d} exceeds cap {MAX_EXPONENT} for n={n}")
    distinct = min(n, 2**d)
    if distinct > MAX_DISTINCT_SUMS:
        raise ResourceCapError(
            f"n={n}, d={d}: verification needs up to {distinct} distinct subset sums, "
            f"over the cap {MAX_DISTINCT_SUMS}"
        )
    powers = {pow(2, j, n) for j in range(verdict.ord2)}
    banned = powers | {(n - p) % n for p in powers}
    k = next(
        x for x in range(1, n) if math.gcd(x, n) == 1 and x not in banned
    )
    group = cyclic(n)
    a = Multiset.from_elements(group, [pow(2, j, n) for j in range(d)])
    a_prime = a.scale(k)
    return _verify(n, d, k, a, a_prime, fs_cap=max(d, 1))


def z2_pair() -> CounterexamplePair:
    """The minimal counterexample, over Z/2: {0,1} and {1,1}."""
    group = cyclic(2)
    a = Multiset.from_elements(group, [0, 1])
    a_prime = Multiset.from_elements(group, [1, 1])
    return _verify(2, None, None, a, a_prime, fs_cap=2)
