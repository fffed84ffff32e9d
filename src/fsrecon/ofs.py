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

import itertools
import math
from typing import NamedTuple

from .errors import DomainError, ResourceCapError

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

# factorize refuses n from FACTORIZE_CAP on; the brute-force covering test and
# the listings, which run over every number up to their n or limit, stop at these.
FACTORIZE_CAP = 2**50
BRUTEFORCE_CAP = 10**6
LIST_CAP = 10**6


# As Miller-Rabin bases, the first 12 primes decide every n below 3.1 * 10^23.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the bases _SMALL_PRIMES: with n - 1 =
    2^s t, t odd, each base a must have a^t = 1 or a^(2^r t) = -1 for an r < s."""
    if n < 2 or any(n % p == 0 for p in _SMALL_PRIMES):
        return n in _SMALL_PRIMES
    if n < 41 * 41:  # no prime up to 37, so none up to its root, divides it
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    t = (n - 1) >> s
    return all(
        pow(a, t, n) == 1 or n - 1 in (pow(a, t << r, n) for r in range(s)) for a in _SMALL_PRIMES
    )


def _prime_parts(n: int) -> list[int]:
    """The prime factors, with multiplicity, of n > 1 that no small prime
    divides.  Miller-Rabin proves a part prime; Pollard's rho splits the
    others, on x -> x^2 + c with Floyd's cycle test, c = 1, 2, ... until a
    run splits n."""
    if _is_prime(n):
        return [n]
    for c in itertools.count(1):
        x, y, g = 2, 2, 1
        while g == 1:
            x = (x * x + c) % n
            y = (pow(y * y + c, 2, n) + c) % n
            g = math.gcd(x - y, n)
        if g != n:
            return _prime_parts(g) + _prime_parts(n // g)


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as ((p, exponent), ...), p ascending: the small
    primes by trial division, the rest by `_prime_parts`."""
    if n < 1:
        raise DomainError(f"cannot factor {n}")
    if n >= FACTORIZE_CAP:
        raise ResourceCapError(f"factoring capped below 2^50, got {n}")
    primes = []
    for p in _SMALL_PRIMES:
        while n % p == 0:
            primes.append(p)
            n //= p
    primes += _prime_parts(n) if n > 1 else []
    return tuple((p, primes.count(p)) for p in sorted(set(primes)))


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


def _order_dividing(a: int, n: int, k: int) -> int:
    """The order of a mod n, given a multiple k of it: starting from k, each
    prime p of k is divided out while a^(k/p) = 1 still holds."""
    for p in prime_factors(k):
        while k % p == 0 and pow(a, k // p, n) == 1:
            k //= p
    return k


def ord_mod(a: int, n: int) -> int:
    """Least k >= 1 with a^k = 1 mod n; a must be coprime to n.  The order
    divides phi(n)."""
    if n < 1:
        raise DomainError(f"modulus must be positive, got {n}")
    if math.gcd(a, n) != 1:
        raise DomainError(f"{a} is not invertible mod {n}")
    return _order_dividing(a, n, totient(n))


class OfsVerdict(NamedTuple):
    n: int
    member: bool
    ord2: int
    phi: int
    branch: str

    def to_obj(self) -> dict:
        return self._asdict()


def _require_odd(n: int) -> None:
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    if n % 2 == 0:
        raise DomainError(f"n must be odd, got {n}")


def is_member(n: int) -> OfsVerdict:
    """Order-criterion membership test; see the module docstring."""
    _require_odd(n)
    phi = totient(n)
    e = _order_dividing(2, n, phi)
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
