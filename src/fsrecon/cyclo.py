"""Exact arithmetic in cyclotomic fields and the unit-relation checks that
underpin subset-sums reconstruction over odd cyclic groups.

A field element is its canonical coefficient tuple: the remainder of a
polynomial mod the n-th cyclotomic polynomial, phi(n) coefficients low to
high, so equal tuples are equal elements (reducing mod t^n - 1 instead would
introduce zero divisors).  The units of interest are 1 + w^j for a primitive
d-th root of unity w; a "unit word" is a formal integer exponent vector e on
those generators.  Its positive part is a multiset over Z/d with e_j copies
of j, and the product of (1 + t^j)^e_j modulo t^d - 1 is that multiset's
subset-sums count vector, stepped by the ``multisets.VectorSums`` that
subset sums over Z/d use, its slots sized by the exponent mass of the part.
Since the d-th cyclotomic polynomial divides t^d - 1, reducing the count
vector once mod it gives the product in the field.  A word is evaluated as the pair of reduced count vectors of its
positive and its negated negative part (no inverses are computed in the
ring); it is 1 when the difference of the two count vectors reduces to 0.

The rank checks at the bottom certify, for odd n:

* the distribution relations among the generators,
* that the per-divisor projection map hits a full-rank sublattice of the
  product of the relation quotients (certified by one exact rank equality;
  the inductive construction behind that fact is not reproduced here),
* that the explicit antisymmetric lattice of flip vectors has rank (n-1)/2
  and sits inside the kernel of every divisor evaluation,
* on interval enclosures of the logarithmic embedding, that the generators
  span a multiplicative group of rank phi(n)/2.  One Gauss-Jordan routine,
  ``_rank``, computes every rank here, on rationals or on intervals.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable, Sequence

from .errors import DomainError, ResourceCapError
from .groups import cyclic
from .multisets import VectorSums
from .ofs import divisors, is_member, prime_factors, totient

__all__ = [
    "cyclotomic_poly",
    "canonical",
    "unit_word_eval",
    "verify_distribution",
    "distribution_checks",
    "fold_exponents",
    "distribution_relation_vector",
    "kernel_test",
    "unit_signature",
    "sim0_lattice_member",
    "sim0_lattice_basis",
    "projection_surjectivity_check",
    "kernel_rank_check",
    "unit_group_rank",
    "rank_checks",
]

# Largest n the rank certificates accept, the largest n whose distribution
# relations are checked (checking them all takes on the order of n^3 steps),
# the largest n kernel_test accepts, the bound on d*m^2 for one product of m
# unit factors over conductor d (m passes of adds over d counts of up to m
# bits) and on its sum over the words of one kernel test, and the interval
# precision of the unit-rank certificate (enough for every n <= RANK_CAP).
RANK_CAP = 45
DISTRIBUTION_CAP = 255
KERNEL_TEST_CAP = 4095
UNIT_WORD_CAP = 2**32
RANK_PRECISION_BITS = 100


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low to high.

    For n > 1 it is the product of (1 - t^d)^mu(n/d) over d | n (the signs
    of the t^d - 1 cancel, as the mu(n/d) sum to 0), taken as a power series
    cut after degree phi(n).  Multiplying by a binomial 1 - t^d, or dividing
    by it, is one pass of adds, once for each of the 2^omega(n) squarefree
    n/d.
    """
    if n < 1:
        raise DomainError(f"conductor must be positive, got {n}")
    if n == 1:
        return (-1, 1)
    deg = totient(n)
    coeffs = [1] + [0] * deg
    primes = prime_factors(n)
    for k in range(len(primes) + 1):
        for chosen in combinations(primes, k):
            d = n // math.prod(chosen)
            if k % 2 == 0:
                for i in range(deg, d - 1, -1):
                    coeffs[i] -= coeffs[i - d]
            else:
                for i in range(d, deg + 1):
                    coeffs[i] += coeffs[i - d]
    return tuple(coeffs)


def canonical(n: int, coeffs: Sequence) -> tuple:
    """The canonical coordinates of the polynomial `coeffs` (low to high) in
    the n-th cyclotomic field: its remainder mod the n-th cyclotomic
    polynomial as phi(n) coefficients.  That polynomial is monic, so one
    long division over its nonzero terms gives the remainder, and no
    quotient is kept."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    rem = [*coeffs, *[0] * (deg - len(coeffs))]
    terms = [(j, c) for j, c in enumerate(phi[:deg]) if c]
    for i in range(len(rem) - 1, deg - 1, -1):
        q = rem[i]
        if q:
            for j, c in terms:
                rem[i - deg + j] -= q * c
    return tuple(rem[:deg])


def _word_cost(d: int, exponents: Sequence[int]) -> int:
    """d*m^2 for the larger exponent mass m of the two parts of a unit word:
    the adds its evaluation takes, up to a factor of 2."""
    mass = max(sum(e for e in exponents if e > 0), -sum(e for e in exponents if e < 0))
    return d * mass * mass


def _counts(d: int, exponents: Sequence[int]) -> list:
    """The coefficients of the product of (1 + t^j)^e_j over the positive
    e_j, modulo t^d - 1: the subset-sums count vector over Z/d of the
    multiset with e_j copies of j.  Each factor is one pass of adds."""
    cost = _word_cost(d, exponents)
    if cost > UNIT_WORD_CAP:
        raise ResourceCapError(
            f"unit word of conductor {d} costs d*mass^2 = {cost}, past {UNIT_WORD_CAP}"
        )
    space = VectorSums(cyclic(d), sum(e for e in exponents if e > 0))
    v = space.start
    for j, e in enumerate(exponents):
        v = space.step(v, (j,), e)
    return space.slots(v)


def _is_one(d: int, exponents: Sequence[int]) -> bool:
    """Whether the unit word is 1: its numerator and denominator count
    vectors differ by a multiple of the d-th cyclotomic polynomial."""
    numerator, denominator = _counts(d, exponents), _counts(d, [-e for e in exponents])
    return not any(canonical(d, [a - b for a, b in zip(numerator, denominator)]))


def _require_odd(n: int) -> None:
    if n % 2 == 0 or n < 1:
        raise DomainError(f"n must be odd and positive, got {n}")


def unit_word_eval(d: int, exponents: Sequence[int]) -> tuple[tuple, tuple]:
    """The product of (1 + w_d^j)^e_j as the exact pair (numerator,
    denominator): the products over the positive e_j and over the negated
    negative ones.  d must be odd so that no factor vanishes."""
    if d % 2 == 0:
        raise DomainError(f"conductor must be odd (1 + w^(d/2) vanishes), got {d}")
    if len(exponents) != d:
        raise DomainError(f"expected {d} exponents, got {len(exponents)}")
    return canonical(d, _counts(d, exponents)), canonical(d, _counts(d, [-e for e in exponents]))


def verify_distribution(n: int, p: int, j: int) -> bool:
    """Check the distribution relation: the product of (1 + w^(j + k n/p))
    over k < p equals 1 + w^(j p), exactly in the field, as the unit word of
    its relation vector.  Where j p is one of the j + k n/p the two entries
    cancel, which is sound because 1 + w^m is never 0 for odd n."""
    _require_odd(n)
    if n > DISTRIBUTION_CAP:
        raise ResourceCapError(f"distribution check capped at {DISTRIBUTION_CAP}")
    return _is_one(n, distribution_relation_vector(n, p, j))


def distribution_checks(n: int) -> list[dict]:
    """Every distribution relation of odd n, as {"p", "j", "pass"} rows; n
    must be odd and positive before it is factored."""
    _require_odd(n)
    return [{"p": p, "j": j, "pass": verify_distribution(n, p, j)}
            for p in prime_factors(n) for j in range(n // p)]


def fold_exponents(n: int, d: int, x: Sequence[int]) -> tuple[int, ...]:
    """Project a length-n exponent vector to length d | n by summing the
    entries in each residue class of indices mod d."""
    if n % d != 0:
        raise DomainError(f"{d} does not divide {n}")
    if len(x) != n:
        raise DomainError(f"expected {n} entries, got {len(x)}")
    out = [0] * d
    for i, v in enumerate(x):
        out[i % d] += v
    return tuple(out)


def distribution_relation_vector(d: int, p: int, j: int) -> tuple[int, ...]:
    """The exponent vector whose unit word the distribution relation kills:
    +1 at index j*p, -1 at each index j + k*d/p.  Entries sum to 1 - p."""
    if d % p != 0:
        raise DomainError(f"{p} does not divide {d}")
    if not 0 <= j < d // p:
        raise DomainError(f"index {j} out of range for d={d}, p={p}")
    v = [0] * d
    v[(j * p) % d] += 1
    for k in range(p):
        v[(j + k * (d // p)) % d] -= 1
    return tuple(v)


def kernel_test(n: int, x: Sequence[int]) -> bool:
    """True when the folded unit word evaluates to 1 for every divisor of n.

    For multiplicity-difference vectors this is exactly equality of subset
    sums of the underlying multisets.
    """
    _require_odd(n)
    if n > KERNEL_TEST_CAP:
        raise ResourceCapError(f"kernel test capped at n = {KERNEL_TEST_CAP}")
    folds = [(d, fold_exponents(n, d, x)) for d in divisors(n)]
    cost = sum(_word_cost(d, e) for d, e in folds)
    if cost > UNIT_WORD_CAP:
        raise ResourceCapError(
            f"the unit words of the kernel test for n = {n} cost d*mass^2 = {cost}"
            f" summed over the divisors, past {UNIT_WORD_CAP}"
        )
    return all(_is_one(d, e) for d, e in folds)


def unit_signature(ms) -> tuple:
    """Canonical per-divisor product of the generators raised to the
    multiplicities of a multiset over odd Z/n: for each d | n, the subset
    sums of the multiset folded into Z/d, reduced mod the d-th cyclotomic
    polynomial.  Two multisets have equal signatures iff kernel_test accepts
    their multiplicity difference."""
    moduli = ms.group.moduli
    if len(moduli) != 1 or moduli[0] < 1 or moduli[0] % 2 == 0:
        raise DomainError("unit signatures need a multiset over odd Z/n")
    n = moduli[0]
    mu = [ms._mult.get((x,), 0) for x in range(n)]
    return tuple(
        (d, canonical(d, _counts(d, fold_exponents(n, d, mu))))
        for d in divisors(n)
    )


# -- the flip lattice and rank certificates ---------------------------------


def sim0_lattice_member(n: int, x: Sequence[int]) -> bool:
    """Membership in the lattice of zero-sum flip vectors: first entry 0,
    antisymmetric under j <-> n - j, and weighted sum of the first half
    divisible by n."""
    if n % 2 == 0 or len(x) != n:
        raise DomainError("need an odd n and a length-n vector")
    if x[0] != 0:
        return False
    half = (n - 1) // 2
    if any(x[j] + x[n - j] != 0 for j in range(1, half + 1)):
        return False
    return sum(j * x[j] for j in range(1, half + 1)) % n == 0


def sim0_lattice_basis(n: int) -> list[tuple[int, ...]]:
    """An explicit basis of the zero-sum flip lattice; (n-1)/2 vectors."""
    _require_odd(n)
    half = (n - 1) // 2
    basis = []
    if half >= 1:
        v = [0] * n
        v[1], v[n - 1] = n, -n
        basis.append(tuple(v))
    for j in range(2, half + 1):
        v = [0] * n
        v[j], v[n - j] = 1, -1
        v[1] -= j
        v[n - 1] += j
        basis.append(tuple(v))
    return basis


def _rank(m: list[list], size: Callable) -> int:
    """The pivot count of Gauss-Jordan elimination on the rows `m`, reduced in
    place, each column's pivot the remaining entry of largest size(x), which
    is 0 unless x is certified nonzero.  On exact entries it is the rank.  On
    intervals, each enclosing the entry exact elimination with the same
    pivots reaches, it is a lower bound.  Only exact zeros are skipped
    (intervals are truthy)."""
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot, best = None, 0
        for r in range(rank, len(m)):
            s = size(m[r][col])
            if s > best:
                pivot, best = r, s
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def _exact_rank(rows: list[list[int]]) -> int:
    """The rank over Q; the largest numerator as pivot keeps fractions small."""
    return _rank([[Fraction(x) for x in row] for row in rows], lambda x: abs(x.numerator))


def projection_surjectivity_check(n: int) -> dict:
    """Certify by exact rank that the per-divisor index-folding map covers,
    over the rationals, the whole product of divisor spaces modulo their
    distribution relations.

    The quotient by each relation space is realized by stacking the relation
    generators next to the image columns: the map is onto the quotient iff
    the stacked matrix has full row rank.
    """
    _require_odd(n)
    if n > RANK_CAP:
        raise ResourceCapError(f"surjectivity check capped at {RANK_CAP}")
    divs = divisors(n)
    offsets = {}
    total = 0
    for d in divs:
        offsets[d] = total
        total += d
    image_cols = []
    for j in range(n):
        col = [0] * total
        for d in divs:
            col[offsets[d] + (j % d)] = 1
        image_cols.append(col)
    relation_cols = []
    for d in divs:
        for p in prime_factors(d):
            for j in range(d // p):
                rel = distribution_relation_vector(d, p, j)
                col = [0] * total
                for i, e in enumerate(rel):
                    col[offsets[d] + i] = e
                relation_cols.append(col)
    rank_stacked = _exact_rank(image_cols + relation_cols)
    rank_relations = _exact_rank(relation_cols)
    rank = rank_stacked - rank_relations
    codomain_dim = total - rank_relations
    return {
        "n": n,
        "rank": rank,
        "codomain_dim": codomain_dim,
        "surjective": rank == codomain_dim,
    }


def kernel_rank_check(n: int) -> dict:
    """For a covered modulus n, check that the explicit flip lattice has the
    full kernel rank (n-1)/2 and really lies in the kernel of every divisor
    evaluation."""
    verdict = is_member(n)
    if not verdict.member:
        raise DomainError(
            f"kernel rank equals (n-1)/2 only for covered moduli; {n} is not one"
        )
    basis = sim0_lattice_basis(n)
    rank = _exact_rank(basis)
    expected = (n - 1) // 2
    basis_ok = all(
        sim0_lattice_member(n, v) and kernel_test(n, v) for v in basis
    )
    return {
        "n": n,
        "lattice_rank": rank,
        "expected": expected,
        "consistent": rank == expected and basis_ok,
    }


def unit_group_rank(n: int) -> dict:
    """Certify the multiplicative rank of the generators 1 + w^j by their
    logarithmic embedding: row a, for each unit 1 <= a <= n/2 (just [log 2]
    for n = 1), holds log|1 + w^(a j)| = log(2 |cos(pi a j / n)|) for j in
    Z/n.  Rows a and n - a are equal, so the row count phi(n)/2 bounds the
    rank above; the pivots `_rank` certifies on intervals at
    RANK_PRECISION_BITS bound it below, and prove it when they reach it."""
    from mpmath.ctx_iv import MPIntervalContext

    _require_odd(n)
    if n > RANK_CAP:
        raise ResourceCapError(f"unit rank check capped at {RANK_CAP}")
    iv = MPIntervalContext()
    iv.prec = RANK_PRECISION_BITS
    # |cos(pi k / n)| depends only on min(k, n - k) for k = a j mod n, and is
    # never 0 for odd n.
    logs = [iv.log(2 * abs(iv.cos(iv.pi * k / n))) for k in range(n // 2 + 1)]
    units = [a for a in range(1, n // 2 + 1) if math.gcd(a, n) == 1] or [1]
    rows = [[logs[min(a * j % n, -a * j % n)] for j in range(n)] for a in units]
    rank = _rank(rows, lambda x: abs(x).a)
    return {
        "n": n,
        "rank": rank,
        "expected": len(units),
        "consistent": rank == len(units),
    }


def rank_checks(n: int) -> tuple[bool, list[dict]]:
    """(member, checks): whether odd n is a member, and its rank
    certificates as {"name", ..., "pass"} rows.  Every n gets the projection
    surjectivity; a member also gets the kernel and unit ranks."""
    surj = projection_surjectivity_check(n)
    checks = [{"name": "projection_surjectivity", **surj, "pass": surj["surjective"]}]
    member = is_member(n).member
    if member:
        kern, unit = kernel_rank_check(n), unit_group_rank(n)
        checks += [{"name": "kernel_rank", **kern, "pass": kern["consistent"]},
                   {"name": "unit_rank", **unit, "pass": unit["consistent"]}]
    return member, checks
