"""Discrete Radon transform on (Z/nZ)^d with an exact closed-form inverse.

A homomorphism to Z/nZ is represented by its coefficient vector; the
transform tabulates the fiber sums Rf(hom, c) over all homomorphisms and
residues.  The inverse reads back, for each point x, only the slices through
x: f(x) is the sum of lambda(hom) Rf(hom, hom(x)) over all homomorphisms.
The weights lambda are a `FunctionTable` on the coefficient vectors, the
same kind of object as f; the closed-form weight of a homomorphism depends
only on which primes divide all of its values.

No floating point is used anywhere.  A function table and its image are
stored alike, as integer numerators in point order over one common positive
denominator, and filed as JSON rows in that order: the bytes ``to_json``
writes are read back in one pass, any other document row by row.  Forward,
invert and verify share one separable integer kernel: a sweep that turns one
coordinate axis at a time into a coefficient axis by a shift-and-add along
the residue axis, in d n^(d+2) operations and n^(d+1) memory.  It runs on
numpy int64 only, on one or more residue channels (``_exact``): a bound
proved up front caps every partial sum, and when it passes 2^62 the kernel
runs once per odd modulus of a coprime set whose product exceeds twice the
bound, and an exact CRT rebuild recovers each integer as its symmetric
representative.  No grid passes MAX_IMAGE_ENTRIES image entries.  The
transform is not surjective and ``invert`` trusts its input;
``fourier_invert_at_zero`` is an independent second inverse.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
import re
from fractions import Fraction
from itertools import chain, cycle, islice, repeat
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError, ResourceCapError
from .ofs import divisors, prime_factors, totient

__all__ = [
    "MAX_IMAGE_ENTRIES",
    "iter_point_tuples",
    "FunctionTable",
    "RadonImage",
    "inversion_weights",
    "forward",
    "backproject",
    "invert",
    "verify_inverting",
    "product_lift",
    "fourier_invert_at_zero",
    "random_table",
]

# Largest image n^(d+1) of any grid; criterion 07's (45, 3)
# has 4.1M entries.
MAX_IMAGE_ENTRIES = 2**23
# "p/q" with q > 0, a subset of what Fraction parses, alone and one a line.
_RATIO = re.compile(r"-?[0-9]+/0*[1-9][0-9]*")
_RATIOS = re.compile(rf"(?:{_RATIO.pattern}\n)*{_RATIO.pattern}")
# The start of `_write`'s text; n and d past 9 digits are past the size cap.
_HEADER = re.compile(r'\{"n":([1-9][0-9]{0,8}),"d":([1-9][0-9]{0,8}),"(values|entries)":\[')
_BLOCK = 512  # rows per block of `_read_text`: its temporaries stay small and in cache


def _check_size(n: int, d: int) -> None:
    """Refuse bad dimensions, and a grid whose image passes MAX_IMAGE_ENTRIES.
    The kernels take d steps even when n = 1, so d stops at the cap's bit
    length, past which n^(d+1) exceeds the cap for every n >= 2; n^(d+1) is
    only computed below it."""
    if type(n) is not int or type(d) is not int or n < 1 or d < 1:
        raise DomainError(f"need integers n >= 1 and d >= 1, got n = {n!r}, d = {d!r}")
    if d >= MAX_IMAGE_ENTRIES.bit_length() or n ** (d + 1) > MAX_IMAGE_ENTRIES:
        raise ResourceCapError(
            f"(Z/{n})^{d} is past the cap: need n^(d+1) <= {MAX_IMAGE_ENTRIES} image"
            f" entries and d < {MAX_IMAGE_ENTRIES.bit_length()}"
        )


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


def iter_point_tuples(n: int, d: int) -> Iterator[tuple[int, ...]]:
    return itertools.product(range(n), repeat=d)


# -- tables ------------------------------------------------------------------


def _parse(cls, doc) -> _Rows:
    """The rows of cls in doc, the decoded document or its JSON text: text
    that `_write` wrote goes to `_read_text`, any other is decoded first."""
    read = _read_text(cls, doc) if isinstance(doc, str) else None
    n, d, nums, dens = read or _read_rows(cls, json.loads(doc) if isinstance(doc, str) else doc)
    qs = set(dens)
    den = math.lcm(*qs)
    scale = {q: den // q for q in qs}
    return cls(n, d, list(map(operator.mul, nums, map(scale.__getitem__, dens))), den)


def _read_rows(cls, doc) -> tuple[int, int, list[int], list[int]]:
    """n, d, numerators and denominators in point order of a decoded document
    of cls: one row per point of (Z/nZ)^(d + extra) under its key, [point,
    value] for a table and [coeffs, c, value] for an image.  A value is an
    int, a Fraction or a string that Fraction parses.  An error names its
    row as key[k]."""
    key, extra = cls._key, cls._extra
    if not isinstance(doc, dict):
        raise DomainError(f"expected a JSON object with keys n, d and {key}")
    n, d, rows = doc.get("n"), doc.get("d"), doc.get(key)
    _check_size(n, d)
    if type(rows) is not list or len(rows) != n ** (d + extra):
        raise DomainError(f"{key} must be a list of {n}^{d + extra} rows")
    nums: list = [None] * len(rows)
    dens = [1] * len(rows)
    try:
        for k, row in enumerate(rows):
            coeffs, *c, v = row
            if len(c) != extra:
                raise DomainError(f"expected a row of {2 + extra} items")
            i = _index(n, d, coeffs) * n**extra + _index(n, extra, c)
            if type(v) not in (int, str, Fraction):
                raise DomainError(f"value {v!r} is neither an integer nor a string")
            ratio = type(v) is str and _RATIO.fullmatch(v)  # skips building a Fraction
            nums[i], dens[i] = map(int, v.split("/")) if ratio else Fraction(v).as_integer_ratio()
    except (DomainError, TypeError, ValueError, ZeroDivisionError) as exc:
        why = exc if isinstance(exc, DomainError) else f"malformed entry: {exc}"
        raise DomainError(f"{key}[{k}]{_field(row, n, d, extra)}: {why}") from None
    if None in nums:
        raise DomainError(f"need exactly one entry for each of the {n}^{d + extra} points")
    return n, d, nums, dens


def _field(row, n: int, d: int, extra: int) -> str:
    """The JSON path, under the row, of the first bad field of a refused row
    [coords, *c, value]; empty when the row itself has the wrong shape."""
    if not isinstance(row, (list, tuple)) or len(row) != 2 + extra:
        return ""
    if not isinstance(row[0], (list, tuple)) or len(row[0]) != d:
        return "[0]"
    ok = [type(a) is int and 0 <= a < n for a in [*row[0], *row[1:-1]]] + [False]
    j = ok.index(False)
    return f"[0][{j}]" if j < d else f"[{j - d + 1}]"


def _layout(n: int, d: int, extra: int) -> tuple[list[str], list[str]]:
    """The text between the quoted values of rows k - 1 and k, quotes left
    out, is heads[k // n] + tails[k % n]: "],[[a1,...," + "a]," for a table."""
    seps = [","] * (d - 1) + ["],"] + [","] * extra
    heads = ["],[["]
    for sep in seps[:-1]:
        heads = [f"{h}{a}{sep}" for h in heads for a in range(n)]
    return heads, [f"{a}{seps[-1]}" for a in range(n)]


def _read_text(cls, text: str) -> tuple[int, int, list[int], list[int]] | None:
    """n, d, numerators and denominators if text is what `_write` writes for
    cls, up to trailing whitespace: valid JSON with the rows json.loads gives.
    Its quotes split `_layout`'s separators from "p/q" values.  Else None."""
    head = _HEADER.match(text)
    if not head or head[3] != cls._key:
        return None
    n, d = int(head[1]), int(head[2])
    _check_size(n, d)
    if text.count('"') != 6 + 2 * n ** (d + cls._extra):  # each quote costs a piece
        return None
    pieces = text.split('"')  # 6 in the header, then separators and values alternate
    if pieces.pop().rstrip(" \t\n\r") != "]]}":
        return None
    pieces[6] = "]," + pieces[6][2:]  # ":[" ends the header: read it as a row's close
    heads, tails = _layout(n, d, cls._extra)
    separators = (h + t for h in heads for t in tails)
    nums, dens = [], []
    for k in range(6, len(pieces), 2 * _BLOCK):
        block = pieces[k : k + 2 * _BLOCK]
        values = "\n".join(block[1::2])
        if (block[::2] != list(islice(separators, len(block) // 2))
                or values.count("\n") != len(block) // 2 - 1 or not _RATIOS.fullmatch(values)):
            return None
        parts = values.replace("\n", "/").split("/")
        try:  # int() refuses strings past its digit limit
            qs = {q: int(q) for q in set(parts[1::2])}
            nums += map(int, parts[::2])
        except ValueError:
            return None
        dens += map(qs.__getitem__, parts[1::2])
    return n, d, nums, dens


def _write(table: _Rows) -> str:
    """The bytes json.dumps writes for the table's document, each value "p/q"
    in lowest terms: rows of `_layout`'s pieces, quoted, with "p" and "/q".
    A value past the digit limit of str(int) is refused as a cap."""
    n, d, nums, den = table.n, table.d, table._nums, table._den
    heads, tails = _layout(n, d, table._extra)
    heads, tails = [f'"{h}' for h in heads], [f'{t}"' for t in tails]
    gs = list(map(math.gcd, nums, repeat(den)))
    first = f'{{"n":{n},"d":{d},"{table._key}":[{heads[0][3:]}'
    try:
        over = {g: f"/{den // g}" for g in set(gs)}
        rows = zip(chain.from_iterable(map(repeat, heads, repeat(n))), cycle(tails),
                   map(str, map(operator.floordiv, nums, gs)), map(over.__getitem__, gs))
        return "".join(chain([first], islice(chain.from_iterable(rows), 1, None), ['"]]}']))
    except ValueError as exc:
        raise ResourceCapError(f"cannot write the {table._key}: {exc}") from None


class _Rows:
    """Exact rationals on the points of (Z/nZ)^(d + _extra): integer
    numerators in point order over one positive denominator, filed as rows."""

    __slots__ = ("n", "d", "_nums", "_den")

    def __init__(self, n: int, d: int, nums: list[int], den: int):
        _check_size(n, d)
        if den <= 0 or len(nums) != n ** (d + self._extra):
            raise DomainError(f"need {n}^{d + self._extra} numerators and a positive denominator")
        self.n, self.d, self._nums, self._den = n, d, nums, den

    def __eq__(self, other) -> bool:
        """Same kind and shape, and equal ratios, cross-multiplied."""
        if type(other) is not type(self):
            return NotImplemented
        a, b = self._den, other._den
        pairs = zip(self._nums, other._nums)
        return (self.n, self.d) == (other.n, other.d) and all(x * b == y * a for x, y in pairs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, d={self.d})"


class FunctionTable(_Rows):
    """A complete exact-rational table on the points of (Z/nZ)^d."""

    __slots__ = ()
    _key, _extra = "values", 0

    def value(self, point) -> Fraction:
        return Fraction(self._nums[_index(self.n, self.d, point)], self._den)

    def total(self) -> Fraction:
        return Fraction(sum(self._nums), self._den)

    from_obj = classmethod(_parse)
    to_json = _write


# random_table draws k/q with |k| <= 99 and q one of these denominators, which
# keeps the integer kernel inside int64 for every modulus in the supported range.
_RANDOM_NUMERATOR_BOUND = 99
_RANDOM_DENOMINATORS = (1, 2, 3, 4, 6, 8)


def random_table(n: int, d: int, rng) -> FunctionTable:
    """Random rational table over the lcm of _RANDOM_DENOMINATORS."""
    _check_size(n, d)
    den = math.lcm(*_RANDOM_DENOMINATORS)
    nums = [
        rng.randint(-_RANDOM_NUMERATOR_BOUND, _RANDOM_NUMERATOR_BOUND)
        * (den // rng.choice(_RANDOM_DENOMINATORS))
        for _ in range(n**d)
    ]
    return FunctionTable(n, d, nums, den)


class RadonImage(_Rows):
    """Exact table of fiber sums, indexed by (homomorphism, residue): the
    layout of `FunctionTable` on the points (coeffs, c) of (Z/nZ)^(d+1)."""

    __slots__ = ()
    _key, _extra = "entries", 1

    from_obj = classmethod(_parse)
    to_json = _write


# -- weights ------------------------------------------------------------------


def inversion_weights(n: int, d: int) -> FunctionTable:
    """The closed-form inverting weights, a table on coefficient vectors: the
    product of (1 - p^(d-1)) over the primes p that divide every value of
    the homomorphism, over n^(d-1) phi(n).  The values are generated by the
    coefficients, so p divides them all iff p divides gcd(coeffs, n), and
    the numerator is a lookup by that divisor."""
    _check_size(n, d)
    primes = prime_factors(n)
    by_divisor = {
        g: math.prod(1 - p ** (d - 1) for p in primes if g % p == 0) for g in divisors(n)
    }
    nums = [by_divisor[math.gcd(n, *coeffs)] for coeffs in iter_point_tuples(n, d)]
    return FunctionTable(n, d, nums, n ** (d - 1) * totient(n))


def product_lift(weights_m: FunctionTable, weights_n: FunctionTable) -> FunctionTable:
    """Combine inverting weights for coprime moduli m and n into weights for
    m*n: a coefficient vector gets the product of the weights of its
    reductions mod m and mod n."""
    m, n, d = weights_m.n, weights_n.n, weights_m.d
    if weights_n.d != d:
        raise DomainError(f"weights for dimensions {d} and {weights_n.d} do not combine")
    if math.gcd(m, n) != 1:
        raise DomainError(f"moduli {m} and {n} are not coprime")
    nums = [
        weights_m._nums[_index(m, d, [a % m for a in coeffs])]
        * weights_n._nums[_index(n, d, [a % n for a in coeffs])]
        for coeffs in iter_point_tuples(m * n, d)
    ]
    return FunctionTable(m * n, d, nums, weights_m._den * weights_n._den)


# -- integer kernels ----------------------------------------------------------

_INT64_SAFE = 2**62  # the bound on partial sums of the one-channel path


def _moduli(bound: int, n: int, wmax: int) -> list[int]:
    """Pairwise coprime odd moduli whose product exceeds 2 * bound, each the
    largest odd number under the size limit that is coprime to those before.
    A channel holds residues in [0, q): a partial sum adds at most n of them,
    and a weight multiply scales one by the weight's symmetric residue, of
    size at most min(wmax, q/2).  With q * max(n, min(wmax, 2^31)) <= 2^62
    every value stays below 2^62: past wmax = 2^31, q <= 2^31 and q/2 * q
    < 2^61."""
    limit = _INT64_SAFE // max(n, min(wmax, 2**31))
    out, prod, q = [], 1, (limit - 1) | 1
    while prod <= 2 * bound:
        if math.gcd(q, prod) == 1:
            out.append(q)
            prod *= q
        q -= 2
    return out


def _crt(outs: list[list[int]], moduli: list[int]) -> list[int]:
    """The integers in (-M/2, M/2) with residues `outs` modulo the pairwise
    coprime odd `moduli`, M their product."""
    m = math.prod(moduli)
    half = m // 2
    acc = repeat(half)  # shifts [0, M) onto (-M/2, M/2) below
    for out, q in zip(outs, moduli):
        basis = m // q * pow(m // q, -1, q)  # 1 mod q, 0 mod the others
        acc = map(operator.add, acc, map(operator.mul, out, repeat(basis)))
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
    qs = _moduli(bound, n, wmax)
    outs = []
    for q in qs:
        if isinstance(nums, np.ndarray):
            g = nums % q
        else:
            g = np.fromiter(map(operator.mod, nums, repeat(q)), np.int64, len(nums))
        outs.append(kernel(g, q).tolist())
    return _crt(outs, qs)


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


def _backprojection(wnums: list[int], n: int, d: int) -> Callable:
    """The kernel g, q -> sum_h w(h) image[h, h.x] for every point x, in
    point order, from an image g in (h1..hd, c) order.  The adjoint sweep:
    `_step` with the opposite sign on d-1 axes, then a gather at residue 0
    on the last.  Mod q it multiplies by each weight's symmetric residue, as
    `_moduli` assumes."""
    a = np.arange(n)

    def kernel(g: np.ndarray, q: int | None) -> np.ndarray:
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

    return kernel


def backproject(img: RadonImage, weights: FunctionTable) -> FunctionTable:
    """The weighted sum of the slices through each point x: the sum over
    the homomorphisms h of weights(h) * img(h, h(x)), exact.  With
    inverting weights and a genuine image it is the table behind the image."""
    n, d = img.n, img.d
    if (weights.n, weights.d) != (n, d):
        raise DomainError(f"weights on (Z/{weights.n})^{weights.d} do not fit (Z/{n})^{d}")
    wnums = weights._nums
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
    return FunctionTable(n, d, raw, img._den * weights._den)


def invert(img: RadonImage) -> FunctionTable:
    """Reconstruct the table from its image with the closed-form weights.
    The input is trusted to be a genuine image."""
    return backproject(img, inversion_weights(img.n, img.d))


def verify_inverting(weights: FunctionTable) -> bool:
    """Check the inverting-function criterion exactly: for every point x the
    weights of the homomorphisms vanishing at x must sum to 1 at x = 0 and
    to 0 elsewhere.  These sums are the backprojection of the image of
    delta_0, which is [c = 0] on every homomorphism; that image is built
    straight as an int64 array, which `backproject` reads as it is."""
    n, d = weights.n, weights.d
    delta_image = np.zeros(n ** (d + 1), dtype=np.int64)
    delta_image[::n] = 1
    sums = backproject(RadonImage(n, d, delta_image, 1), weights)
    return sums._nums[0] == sums._den and not any(sums._nums[1:])


def fourier_invert_at_zero(img: RadonImage) -> Fraction:
    """Second, independent inverse at the origin: the character sum
    sum_c w^(-c) Rf(hom, c) over all homomorphisms and residues, evaluated
    exactly in the n-th cyclotomic field and divided by n^d.  A nonrational
    outcome means the input was not a genuine transform image."""
    from .cyclo import canonical
    n, d = img.n, img.d
    # Residue c lands on the power w^(-c); slice c of the flat table holds
    # residue c of every homomorphism.
    poly = [sum(img._nums[-k % n :: n]) for k in range(n)]
    value, *rest = canonical(n, poly)
    if any(rest):
        raise DomainError("character sum is irrational: not a transform image")
    return Fraction(value) / (img._den * n**d)
