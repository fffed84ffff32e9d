"""Membership machinery for the OFS moduli: the odd n whose unit group mod n
is covered by plus/minus powers of two.

Two independent routes are provided.  ``is_member_bruteforce`` applies the
covering definition literally.  ``is_member`` uses the order criterion:
n qualifies iff ord_n(2) = phi(n), or ord_n(2) = phi(n)/2 and the covering
is not spoiled by a power of two landing on -1, which can only happen at
exponent phi(n)/4 (so it is ruled out automatically when 4 does not divide
phi(n)).

Whether every member has a member multiple is open; the 3 * 3511 example
(3511 is a Wieferich prime) is a member none of whose multiples are.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, ResourceCapError, VerificationError

__all__ = [
    "BRANCH_FULL_ORDER",
    "BRANCH_HALF_OK",
    "BRANCH_HALF_MINUS_ONE",
    "BRANCH_LOW_ORDER",
    "OfsVerdict",
    "factorize",
    "totient",
    "divisors",
    "ord_mod",
    "is_member",
    "is_member_bruteforce",
    "odd_up_to",
    "list_up_to",
    "complement_up_to",
]

BRANCH_FULL_ORDER = "full-order"
BRANCH_HALF_OK = "half-order-ok"
BRANCH_HALF_MINUS_ONE = "half-order-minus-one"
BRANCH_LOW_ORDER = "low-order"

# Trial division takes up to sqrt(n)/2 steps, so it refuses n from
# FACTORIZE_CAP on.  The brute-force covering test and the listings run over
# every number up to their n or limit, and stop at these.
FACTORIZE_CAP = 2**50
BRUTEFORCE_CAP = 10**6
LIST_CAP = 10**6


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division, as ((p, exponent), ...)."""
    if n < 1:
        raise DomainError(f"cannot factor {n}")
    if n >= FACTORIZE_CAP:
        raise ResourceCapError(f"trial division capped below 2^50, got {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def totient(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def prime_factors(n: int) -> list[int]:
    return [p for p, _ in factorize(n)]


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def ord_mod(a: int, n: int) -> int:
    """Least k >= 1 with a^k = 1 mod n; a must be coprime to n."""
    if n < 1:
        raise DomainError(f"modulus must be positive, got {n}")
    if math.gcd(a, n) != 1:
        raise DomainError(f"{a} is not invertible mod {n}")
    if n == 1:
        return 1
    for k in divisors(totient(n)):
        if pow(a, k, n) == 1:
            return k
    raise VerificationError("order must divide the totient")


@dataclass(frozen=True)
class OfsVerdict:
    n: int
    member: bool
    ord2: int
    phi: int
    branch: str

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "member": self.member,
            "ord2": self.ord2,
            "phi": self.phi,
            "branch": self.branch,
        }


def _require_odd(n: int) -> None:
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    if n % 2 == 0:
        raise DomainError(f"n must be odd, got {n}")


def is_member(n: int) -> OfsVerdict:
    """Order-criterion membership test; see the module docstring."""
    _require_odd(n)
    phi = totient(n)
    e = ord_mod(2, n)
    if e == phi:
        return OfsVerdict(n, True, e, phi, BRANCH_FULL_ORDER)
    if 2 * e == phi:
        if phi % 4 != 0 or pow(2, phi // 4, n) != n - 1:
            return OfsVerdict(n, True, e, phi, BRANCH_HALF_OK)
        return OfsVerdict(n, False, e, phi, BRANCH_HALF_MINUS_ONE)
    return OfsVerdict(n, False, e, phi, BRANCH_LOW_ORDER)


def is_member_bruteforce(n: int) -> bool:
    """Literal covering test: every unit mod n equals some +-2^j."""
    _require_odd(n)
    if n > BRUTEFORCE_CAP:
        raise ResourceCapError(f"brute-force membership capped at {BRUTEFORCE_CAP}")
    if n == 1:
        return True
    covered = set()
    pw = 1
    while pw not in covered:
        covered.add(pw)
        covered.add(n - pw)
        pw = pw * 2 % n
    return all(x in covered for x in range(1, n) if math.gcd(x, n) == 1)


def odd_up_to(limit: int) -> range:
    """The odd numbers 1, 3, ... up to a limit between 1 and LIST_CAP."""
    if limit < 1:
        raise DomainError(f"limit must be a positive integer, got {limit}")
    if limit > LIST_CAP:
        raise ResourceCapError(f"listing capped at {LIST_CAP}, got {limit}")
    return range(1, limit + 1, 2)


def list_up_to(limit: int) -> list[int]:
    """All odd members <= limit, ascending."""
    return [n for n in odd_up_to(limit) if is_member(n).member]


def complement_up_to(limit: int) -> list[int]:
    """All odd non-members <= limit, ascending."""
    return [n for n in odd_up_to(limit) if not is_member(n).member]
