"""Discrete Radon transform on (Z/nZ)^d with an exact closed-form inverse.

A homomorphism to Z/nZ is represented by its coefficient vector; the
transform tabulates the fiber sums Rf(hom, c) over all homomorphisms and
residues.  The inverse reads back, for each point x, only the slices through
x: f(x) is the weighted sum of Rf(hom, hom(x)) with a rational weight per
homomorphism that depends only on which primes divide all of its values.

No floating point is used anywhere.  A function table and its image are
stored alike, as integer numerators in point order over one common positive
denominator.  Forward, invert and verify share one separable integer kernel:
a sweep that turns one coordinate axis at a time into a coefficient axis by
a shift-and-add along the residue axis, in d n^(d+2) operations and n^(d+1)
memory.  It runs on numpy int64 only, on one or more residue channels: a
bound proved up front caps every partial sum, and when it passes int64 the
kernel runs once per modulus of a set whose product exceeds twice the bound,
and an exact CRT rebuild recovers each integer.  The transform is not
surjective, so ``invert`` does not validate its input; ``mass_consistent``
is the explicit sanity check, and the character-sum route
``fourier_invert_at_zero`` provides an independent second inverse.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .cyclo import CycloElement
from .errors import DomainError
from .ofs import divisors, prime_factors, totient

__all__ = [
    "Hom",
    "iter_homs",
    "iter_point_tuples",
    "FunctionTable",
    "RadonImage",
    "prime_divides_hom",
    "inversion_weight",
    "forward",
    "invert",
    "verify_inverting",
    "product_lift",
    "fourier_invert_at_zero",
    "random_table",
]

_INT64_SAFE = 2**62
# "p/q" with q > 0: a subset of what Fraction parses, and what `_ratio_strs` writes.
_RATIO = re.compile(r"(-?[0-9]+)/(0*[1-9][0-9]*)")


def _check_dims(n: int, d: int) -> None:
    if type(n) is not int or type(d) is not int or n < 1 or d < 1:
        raise DomainError(f"need integers n >= 1 and d >= 1, got n = {n!r}, d = {d!r}")


def _index(n: int, d: int, coords) -> int:
    """Position of a point or coefficient vector of (Z/nZ)^d in
    lexicographic order; rejects one of the wrong length or out of range."""
    if len(coords) != d:
        raise DomainError(f"expected {d} coordinates, got {list(coords)}")
    idx = 0
    for a in coords:
        if type(a) is not int or not 0 <= a < n:
            raise DomainError(f"coordinate {a!r} is not an integer in [0, {n})")
        idx = idx * n + a
    return idx


@dataclass(frozen=True)
class Hom:
    """A homomorphism (Z/nZ)^d -> Z/nZ, x |-> sum(coeffs * x) mod n."""

    n: int
    d: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        _index(self.n, self.d, self.coeffs)

    @classmethod
    def reduced(cls, n: int, d: int, coeffs: Iterable[int]) -> Hom:
        return cls(n, d, tuple(a % n for a in coeffs))

    def apply(self, coords: Iterable[int]) -> int:
        return sum(a * x for a, x in zip(self.coeffs, coords)) % self.n

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)


def iter_point_tuples(n: int, d: int) -> Iterator[tuple[int, ...]]:
    return itertools.product(range(n), repeat=d)


def iter_homs(n: int, d: int) -> Iterator[Hom]:
    for coeffs in iter_point_tuples(n, d):
        yield Hom(n, d, coeffs)


def prime_divides_hom(p: int, hom: Hom) -> bool:
    """True when the prime p | n divides every value of the homomorphism;
    the image is generated by the coefficients, so this is p | gcd."""
    if hom.n % p != 0:
        raise DomainError(f"{p} does not divide the modulus {hom.n}")
    g = math.gcd(math.gcd(*hom.coeffs), hom.n)
    return g % p == 0


def _closed_form_weight(n: int, d: int, g: int) -> tuple[int, int]:
    """(numerator, denominator) of `inversion_weight` for a homomorphism
    whose coefficients have gcd g with n."""
    num = 1
    for p in prime_factors(n):
        if g % p == 0:
            num *= 1 - p ** (d - 1)
    return num, n ** (d - 1) * totient(n)


def inversion_weight(hom: Hom) -> Fraction:
    """The closed-form inverting weight: product of (1 - p^(d-1)) over the
    primes dividing the homomorphism, divided by n^(d-1) phi(n)."""
    g = math.gcd(math.gcd(*hom.coeffs), hom.n)
    return Fraction(*_closed_form_weight(hom.n, hom.d, g))


# -- tables ------------------------------------------------------------------


def _check_layout(n: int, d: int, nums: list[int], den: int, dims: int) -> None:
    _check_dims(n, d)
    if den <= 0 or len(nums) != n**dims:
        raise DomainError(f"need {n}^{dims} numerators and a positive denominator")


def _rows(obj, key: str, extra: int) -> tuple[int, int, list]:
    """n, d and the rows of a table (extra = 0) or image (extra = 1)
    document, which must hold one row per point of (Z/nZ)^(d + extra)."""
    if not isinstance(obj, dict):
        raise DomainError(f"expected a JSON object with keys n, d and {key}")
    n, d, rows = obj.get("n"), obj.get("d"), obj.get(key)
    _check_dims(n, d)
    size = len(rows) if type(rows) is list else -1
    # With n >= 2, n^(d + extra) > size once d + extra passes size's bit length.
    if size < 0 or (n > 1 and d + extra > size.bit_length()) or size != n ** (d + extra):
        raise DomainError(f"{key} must be a list of {n}^{d + extra} rows")
    return n, d, rows


def _fill(n: int, dims: int, pairs: Iterable) -> tuple[list[int], int]:
    """Numerators over one common denominator, in point order, from
    (coordinates, value) pairs that name every point of (Z/nZ)^dims exactly
    once.  A value is an int, a Fraction or a string that Fraction parses."""
    _check_dims(n, dims)
    nums: list = [None] * n**dims
    dens = [1] * len(nums)
    try:
        for coords, v in pairs:
            i = _index(n, dims, coords)
            if type(v) not in (int, str, Fraction):
                raise DomainError(f"value {v!r} is neither an integer nor a string")
            ratio = type(v) is str and _RATIO.fullmatch(v)  # skips building a Fraction
            nums[i], dens[i] = map(int, ratio.groups()) if ratio else Fraction(v).as_integer_ratio()
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"malformed entry: {exc}") from None
    if None in nums:
        raise DomainError(f"need exactly one entry for each of the {n}^{dims} points")
    den = math.lcm(*dens)
    return [num * (den // q) for num, q in zip(nums, dens)], den


def _ratios_eq(self, other) -> bool:
    """`==` for both tables: same shape and equal ratios, cross-multiplied."""
    if type(other) is not type(self):
        return NotImplemented
    a, b = self._den, other._den
    pairs = zip(self._nums, other._nums)
    return (self.n, self.d) == (other.n, other.d) and all(x * b == y * a for x, y in pairs)


def _ratio_strs(nums: list[int], den: int) -> Iterator[str]:
    """Each num/den as "p/q" in lowest terms, the way Fraction reduces it."""
    for num in nums:
        g = math.gcd(num, den)
        yield f"{num // g}/{den // g}"


class FunctionTable:
    """A complete exact-rational table on the points of (Z/nZ)^d."""

    __slots__ = ("n", "d", "_nums", "_den")

    def __init__(self, n: int, d: int, nums: list[int], den: int):
        _check_layout(n, d, nums, den, d)
        self.n, self.d, self._nums, self._den = n, d, nums, den

    @classmethod
    def from_values(cls, n: int, d: int, values: Mapping) -> FunctionTable:
        """Build from a {point: value} mapping with one entry per point."""
        return cls(n, d, *_fill(n, d, values.items()))

    def value(self, point) -> Fraction:
        return Fraction(self._nums[_index(self.n, self.d, point)], self._den)

    def total(self) -> Fraction:
        return Fraction(sum(self._nums), self._den)

    __eq__ = _ratios_eq

    def __repr__(self) -> str:
        return f"FunctionTable(n={self.n}, d={self.d}, {len(self._nums)} points)"

    @classmethod
    def delta(cls, n: int, d: int, at: tuple | None = None) -> FunctionTable:
        at = tuple(at) if at is not None else (0,) * d
        return cls.from_values(n, d, {x: int(x == at) for x in iter_point_tuples(n, d)})

    @classmethod
    def constant(cls, n: int, d: int, value) -> FunctionTable:
        return cls.from_values(n, d, dict.fromkeys(iter_point_tuples(n, d), value))

    def to_obj(self) -> dict:
        rows = zip(iter_point_tuples(self.n, self.d), _ratio_strs(self._nums, self._den))
        return {"n": self.n, "d": self.d, "values": [[list(x), s] for x, s in rows]}

    @classmethod
    def from_obj(cls, obj: dict) -> FunctionTable:
        """Parse a complete table: one [point, value] row per point."""
        n, d, rows = _rows(obj, "values", 0)
        return cls(n, d, *_fill(n, d, rows))

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> FunctionTable:
        return cls.from_obj(json.loads(text))


def random_table(
    n: int,
    d: int,
    rng,
    numerator_bound: int = 99,
    denominators: tuple[int, ...] = (1, 2, 3, 4, 6, 8),
) -> FunctionTable:
    """Random rational table over the lcm of `denominators`; the defaults keep
    the integer kernel inside int64 for every modulus in the supported range."""
    _check_dims(n, d)
    den = math.lcm(*denominators)
    nums = [
        rng.randint(-numerator_bound, numerator_bound) * (den // rng.choice(denominators))
        for _ in range(n**d)
    ]
    return FunctionTable(n, d, nums, den)


class RadonImage:
    """Exact table of fiber sums, indexed by (homomorphism, residue): the
    layout of `FunctionTable` on the points (coeffs, c) of (Z/nZ)^(d+1)."""

    __slots__ = ("n", "d", "_nums", "_den")

    def __init__(self, n: int, d: int, nums: list[int], den: int):
        _check_layout(n, d, nums, den, d + 1)
        self.n, self.d, self._nums, self._den = n, d, nums, den

    def value(self, coeffs, c: int) -> Fraction:
        return Fraction(self._nums[_index(self.n, self.d + 1, [*coeffs, c % self.n])], self._den)

    def mass_by_hom(self) -> list[Fraction]:
        n, den = self.n, self._den
        return [Fraction(sum(self._nums[i : i + n]), den) for i in range(0, len(self._nums), n)]

    def mass_consistent(self) -> bool:
        """Every homomorphism must see the same total mass."""
        masses = self.mass_by_hom()
        return all(m == masses[0] for m in masses)

    __eq__ = _ratios_eq

    def __repr__(self) -> str:
        return f"RadonImage(n={self.n}, d={self.d})"

    def perturbed(self, coeffs, c: int, delta) -> RadonImage:
        p, q = Fraction(delta).as_integer_ratio()
        nums = [num * q for num in self._nums]
        nums[_index(self.n, self.d, coeffs) * self.n + c % self.n] += p * self._den
        return RadonImage(self.n, self.d, nums, self._den * q)

    def to_obj(self) -> dict:
        keys = itertools.product(iter_point_tuples(self.n, self.d), range(self.n))
        rows = zip(keys, _ratio_strs(self._nums, self._den))
        return {"n": self.n, "d": self.d, "entries": [[list(h), c, s] for (h, c), s in rows]}

    @classmethod
    def from_obj(cls, obj: dict) -> RadonImage:
        """Parse a complete image: one [coeffs, c, value] row per (coeffs, c)."""
        n, d, rows = _rows(obj, "entries", 1)
        pairs = (([*coeffs, c], v) for coeffs, c, v in rows)
        return cls(n, d, *_fill(n, d + 1, pairs))

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> RadonImage:
        return cls.from_obj(json.loads(text))


# -- integer kernels ----------------------------------------------------------


def _moduli(bound: int, n: int, wmax: int) -> list[int]:
    """Pairwise coprime odd moduli whose product exceeds 2 * bound, each the
    largest odd number under the size limit that is coprime to those before.
    A channel holds residues in [0, q): a partial sum adds at most n of them,
    and a weight multiply scales one by the weight's symmetric residue, of
    size at most min(wmax, q/2).  With q * max(n, min(wmax, 2^31)) <= 2^62
    every value stays below 2^62: past wmax = 2^31, q <= 2^31 and q/2 * q
    < 2^61."""
    limit = _INT64_SAFE // max(n, min(wmax, 2**31))
    moduli, prod, q = [], 1, (limit - 1) | 1
    while prod <= 2 * bound:
        if math.gcd(q, prod) == 1:
            moduli.append(q)
            prod *= q
        q -= 2
    return moduli


def _crt(outs: list[list[int]], moduli: list[int]) -> list[int]:
    """The integers in (-M/2, M/2) with residues `outs` modulo the pairwise
    coprime odd `moduli`, M their product."""
    m = math.prod(moduli)
    half = m // 2
    acc = itertools.repeat(half)  # shifts [0, M) onto (-M/2, M/2) below
    for out, q in zip(outs, moduli):
        basis = m // q * pow(m // q, -1, q)  # 1 mod q, 0 mod the others
        acc = map(operator.add, acc, map(operator.mul, out, itertools.repeat(basis)))
    return [y % m - half for y in acc]


def _exact(kernel: Callable, nums, bound: int, n: int, wmax: int = 1) -> list[int]:
    """Run kernel(g, q) on int64 arrays of the integers `nums` (a list or an
    int64 array) and return its output as exact integers.  When `bound` caps
    every partial sum below _INT64_SAFE, one channel runs on nums as they are,
    with q = None.  Otherwise one channel runs per modulus q of `_moduli` on
    nums mod q, the kernel reducing mod q as it goes, and each output, which
    `bound` also caps, is rebuilt by CRT."""
    if bound < _INT64_SAFE:
        return kernel(np.asarray(nums, dtype=np.int64), None).tolist()
    moduli = _moduli(bound, n, wmax)
    outs = []
    for q in moduli:
        if isinstance(nums, np.ndarray):
            g = nums % q
        else:
            g = np.array([x % q for x in nums], dtype=np.int64)
        outs.append(kernel(g, q).tolist())
    return _crt(outs, moduli)


def _reduced(g: np.ndarray, q: int | None) -> np.ndarray:
    if q is not None:
        np.remainder(g, q, out=g)
    return g


def _step(g: np.ndarray, n: int, sign: int, q: int | None) -> np.ndarray:
    """One axis of the sweep, a shift-and-add along the residue axis.  g has
    shape (n, n, rest): the axis b to consume, the residue c, then the other
    axes, next to consume first.  The result keeps that layout and appends an
    axis a: out[r0, c, r1, a] = sum_b g[b, (c + sign*a*b) mod n, r0, r1],
    reduced mod q."""
    blocks = g.reshape(n, -1)
    size = blocks.shape[1]
    out = np.empty((n, n, size // n**2, n), dtype=np.int64)
    for a in range(n):
        acc = blocks[0].copy()
        for b in range(1, n):
            # Rolling the residue by k rolls the flat block by k * rest.
            j = sign * a * b % n * (size // n)
            acc[: size - j] += blocks[b, j:]
            acc[size - j :] += blocks[b, :j]
        out[..., a] = acc.reshape(n, n, -1).swapaxes(0, 1)
    return _reduced(out.reshape(n, n, -1), q)


def forward(f: FunctionTable) -> RadonImage:
    """Tabulate all fiber sums of f; exact.  The first coordinate axis is
    scattered to the residue h1*x1; each later axis is one `_step`."""
    n, d = f.n, f.d
    head = n if d > 1 else 1  # the axis `_step` consumes next; none when d = 1
    a = np.arange(n)

    def sweep(g: np.ndarray, q: int | None) -> np.ndarray:
        g = g.reshape(n, -1)
        out = np.zeros((head, n, g.shape[1] // head, n), dtype=np.int64)
        for b in range(n):
            out[:, a * b % n, :, a] += g[b].reshape(head, -1)
        _reduced(out, q)
        for _ in range(d - 1):
            out = _step(out.reshape(n, n, -1), n, -1, q)
        return out.reshape(head, n, -1).swapaxes(1, 2).reshape(-1)  # (h1..hd, c) order

    # Each partial sum adds up distinct points of f.
    return RadonImage(n, d, _exact(sweep, f._nums, sum(map(abs, f._nums)), n), f._den)


def _weight_ints(weights, n: int, d: int) -> tuple[list[int], int]:
    if weights is None or weights is inversion_weight:
        return _builtin_weight_ints(n, d)
    return _fill(n, d, [(h.coeffs, weights(h)) for h in iter_homs(n, d)])


@lru_cache(maxsize=32)
def _builtin_weight_ints(n: int, d: int) -> tuple[list[int], int]:
    """Closed-form weights as integers over n^(d-1) phi(n); the numerator
    depends only on gcd(coeffs, n), so it is a divisor lookup."""
    by_divisor = {g: _closed_form_weight(n, d, g) for g in divisors(n)}
    nums = [
        by_divisor[math.gcd(math.gcd(*coeffs), n)][0]
        for coeffs in iter_point_tuples(n, d)
    ]
    return nums, by_divisor[n][1]


def _backprojection(wnums: list[int], n: int, d: int) -> Callable:
    """The kernel g, q -> sum_h w(h) image[h, h.x] for every point x, in
    point order, from an image g in (h1..hd, c) order.  The adjoint sweep:
    `_step` with the opposite sign on d-1 axes, then a gather at residue 0
    on the last.  Mod q it multiplies by each weight's symmetric residue, as
    `_moduli` assumes."""
    a = np.arange(n)

    def backproject(g: np.ndarray, q: int | None) -> np.ndarray:
        w = wnums if q is None else [(x + q // 2) % q - q // 2 for x in wnums]
        g = np.ascontiguousarray(g.reshape(n, -1, n).swapaxes(1, 2))  # (h1, c, h2..hd)
        g *= np.array(w, dtype=np.int64).reshape(n, 1, -1)
        _reduced(g, q)
        for _ in range(d - 1):
            g = _step(g, n, 1, q)
        out = np.zeros((n, g.shape[2]), dtype=np.int64)
        for b in range(n):
            out += g[b, a * b % n]
        return _reduced(out, q).T.reshape(-1)

    return backproject


def invert(img: RadonImage, weights: Callable[[Hom], Fraction] | None = None) -> FunctionTable:
    """Reconstruct the table from its image: f(x) is the weighted sum of the
    slices Rf(hom, hom(x)).  The input is trusted to be a genuine image."""
    n, d = img.n, img.d
    wnums, wden = _weight_ints(weights, n, d)
    try:  # numpy finds the largest entry in the pass that builds the array
        image = np.array(img._nums, dtype=np.int64)
        top = max(int(image.max()), -int(image.min()))
    except OverflowError:
        image = img._nums
        top = max(map(abs, image))
    # Each partial sum takes at most one weighted image entry per hom; the
    # bound also caps every weight, which the kernel holds too.
    bound = sum(map(abs, wnums)) * max(top, 1)
    raw = _exact(_backprojection(wnums, n, d), image, bound, n, max(map(abs, wnums)))
    return FunctionTable(n, d, raw, img._den * wden)


def verify_inverting(weights: Callable[[Hom], Fraction], n: int, d: int) -> bool:
    """Check the inverting-function criterion exactly: for every point x the
    weights of the homomorphisms vanishing at x must sum to 1 at x = 0 and
    to 0 elsewhere.  These sums are the inverse of the image of delta_0,
    which is [c = 0] on every homomorphism."""
    _check_dims(n, d)
    wnums, den = _weight_ints(weights, n, d)
    delta_image = np.zeros(n ** (d + 1), dtype=np.int64)
    delta_image[::n] = 1
    bound = sum(map(abs, wnums))
    sums = _exact(_backprojection(wnums, n, d), delta_image, bound, n, max(map(abs, wnums)))
    return sums[0] == den and not any(sums[1:])


def product_lift(
    weights_m: Callable[[Hom], Fraction],
    weights_n: Callable[[Hom], Fraction],
    m: int,
    n: int,
    d: int,
) -> Callable[[Hom], Fraction]:
    """Combine inverting weights for coprime moduli m and n into weights for
    m*n by reducing the coefficient vector mod each factor."""
    if math.gcd(m, n) != 1:
        raise DomainError(f"moduli {m} and {n} are not coprime")

    def lifted(hom: Hom) -> Fraction:
        if hom.n != m * n or hom.d != d:
            raise DomainError(f"expected a homomorphism for (Z/{m * n})^{d}")
        part_m = weights_m(Hom.reduced(m, d, hom.coeffs))
        part_n = weights_n(Hom.reduced(n, d, hom.coeffs))
        return Fraction(part_m) * Fraction(part_n)

    return lifted


def fourier_invert_at_zero(img: RadonImage) -> Fraction:
    """Second, independent inverse at the origin: the character sum
    sum_c w^(-c) Rf(hom, c) over all homomorphisms and residues, evaluated
    exactly in the n-th cyclotomic field and divided by n^d.  A nonrational
    outcome means the input was not a genuine transform image."""
    n, d = img.n, img.d
    # Residue c lands on the power w^(-c); slice c of the flat table holds
    # residue c of every homomorphism.
    poly = [sum(img._nums[-k % n :: n]) for k in range(n)]
    elem = CycloElement.from_poly(n, poly)
    if not elem.is_rational():
        raise DomainError("character sum is irrational: not a transform image")
    return elem.rational_value() / (img._den * n**d)
