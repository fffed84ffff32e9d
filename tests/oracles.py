"""Independent brute-force oracles used by the tests.

Everything here is deliberately naive: direct enumeration with no shortcuts,
so the production paths can be checked against first principles.
"""
from __future__ import annotations

import itertools
import json
from fractions import Fraction

from fsrecon.cyclo import cyclotomic_poly
from fsrecon.errors import DomainError
from fsrecon.groups import GroupElement, GroupSpec
from fsrecon.multisets import Multiset
from fsrecon.radon import FunctionTable, RadonImage


def iter_elements(group: GroupSpec):
    """Every element of a finite group, in lexicographic coordinate order."""
    if not group.is_finite():
        raise DomainError(f"cannot enumerate the infinite group {group}")
    for coords in itertools.product(*(range(m) for m in group.moduli)):
        yield group.element(coords)


def is_zero(x: GroupElement) -> bool:
    return not any(x.coords)


def expand(ms: Multiset) -> list[GroupElement]:
    """Flatten a multiset into an explicit element list."""
    out = []
    for x, m in ms.items():
        out.extend([x] * m)
    return out


def fs_bruteforce(ms: Multiset) -> Multiset:
    """Subset sums by direct enumeration of all 2^|A| subsets."""
    elements = expand(ms)
    zero = ms.group.zero()
    sums = []
    for mask in range(2 ** len(elements)):
        acc = zero
        for i, x in enumerate(elements):
            if mask >> i & 1:
                acc = acc + x
        sums.append(acc)
    return Multiset.from_elements(ms.group, sums)


def times_fs_bruteforce(a: Multiset, b: Multiset) -> Multiset:
    """A times FS(B) in the group ring by direct enumeration: x + s for each
    element x of A and each of the 2^|B| subset sums s of B."""
    sums = expand(fs_bruteforce(b))
    return Multiset.from_elements(a.group, [x + s for x in expand(a) for s in sums])


class CountLists:
    """Subset sums over a finite group as plain lists of counts, one per
    element in lexicographic coordinate order: the oracle for the packed
    count vectors of ``multisets.VectorSums``.  Each operation works
    element by element, and division solves its linear system exactly."""

    def __init__(self, group: GroupSpec):
        self.group = group
        self.elements = [x.coords for x in iter_elements(group)]
        self.index = {y: i for i, y in enumerate(self.elements)}
        self.start = [1] + [0] * (len(self.elements) - 1)

    def _at(self, y, shift) -> int:
        """The position of y + shift."""
        return self.index[tuple((u + c) % m for u, c, m in zip(y, shift, self.group.moduli))]

    def encode(self, ms: Multiset) -> list[int]:
        v = [0] * len(self.elements)
        for x, c in ms.items():
            v[self.index[x.coords]] += c
        return v

    def step(self, v: list[int], shift, m: int = 1) -> list[int]:
        """v times (1 + t^shift)^m: each count also lands at y + shift."""
        for _ in range(m):
            out = list(v)
            for y, c in zip(self.elements, v):
                out[self._at(y, shift)] += c
            v = out
        return v

    def divide(self, v: list[int], shift) -> list[int] | None:
        """The p with step(p, shift) == v, by Gauss-Jordan elimination over
        the rationals, or None unless it is one nonnegative integer vector."""
        n = len(v)
        rows = [[Fraction(0)] * n + [Fraction(c)] for c in v]
        for x, y in enumerate(self.elements):  # p[x] adds to v[x] and v[x + shift]
            rows[x][x] += 1
            rows[self._at(y, shift)][x] += 1
        for col in range(n):
            pivot = next((r for r in range(col, n) if rows[r][col]), None)
            if pivot is None:
                return None  # not a unique quotient
            rows[col], rows[pivot] = rows[pivot], rows[col]
            lead = rows[col][col]
            rows[col] = [a / lead for a in rows[col]]
            for r in range(n):
                if r != col and rows[r][col]:
                    f = rows[r][col]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
        p = [row[n] for row in rows]
        return [int(c) for c in p] if all(c >= 0 and c.denominator == 1 for c in p) else None

    def count(self, v: list[int], y) -> int:
        return v[self.index[tuple(y)]]

    def fits(self, v: list[int], want: list[int]) -> bool:
        return all(a <= b for a, b in zip(v, want))

    def counts(self, v: list[int]) -> dict:
        return {y: c for y, c in zip(self.elements, v) if c}


def iter_submultisets(ms: Multiset):
    """All sub-multisets, as (Multiset, total_sum) pairs."""
    items = ms.items()
    ranges = [range(m + 1) for _, m in items]
    zero = ms.group.zero()
    for counts in itertools.product(*ranges):
        sub = Multiset(ms.group, {x: c for (x, _), c in zip(items, counts) if c})
        total = zero
        for (x, _), c in zip(items, counts):
            total = total + c * x
        yield sub, total


def flip(ms: Multiset, sub: Multiset) -> Multiset:
    """Negate the elements of sub inside ms: (ms \\ sub) u (-sub), counted
    on a plain dict."""
    counts = dict(ms.items())
    for x, m in sub.items():
        assert counts.get(x, 0) >= m, f"{sub} is not inside {ms}"
        counts[x] -= m
    for x, m in sub.items():
        counts[-x] = counts.get(-x, 0) + m
    return Multiset(ms.group, counts)


def sim_oracle(a: Multiset, b: Multiset) -> bool:
    return any(flip(a, sub) == b for sub, _ in iter_submultisets(a))


def sim0_orbit(a: Multiset) -> set[Multiset]:
    """Every multiset that negating a zero-sum sub-multiset of a gives."""
    return {flip(a, sub) for sub, total in iter_submultisets(a) if is_zero(total)}


def sim0_oracle(a: Multiset, b: Multiset) -> bool:
    return b in sim0_orbit(a)


def _box(group: GroupSpec, bound: int | None) -> list[GroupElement]:
    """Every element of a finite group, or of the coordinate box [-bound,
    bound] on its Z factors, in lexicographic coordinate order."""
    ranges = [range(m) if m else range(-bound, bound + 1) for m in group.moduli]
    return sorted(
        (group.element(c) for c in itertools.product(*ranges)), key=lambda x: x.coords
    )


def scan_oracle(
    group: GroupSpec, max_size: int, bound: int | None = None, budget: int | None = None
) -> tuple[int, list[tuple[Multiset, Multiset]]]:
    """(multisets checked, violating pairs) of a regularity scan of the first
    `budget` multisets (all of them when None) in lexicographic order of
    their sorted element lists: every pair with equal brute-force subset sums
    that no zero-sum flip relates, first member earlier in that order, sorted
    as the scan's report sorts them."""
    box = _box(group, bound)
    combos = sorted(
        combo
        for size in range(1, max_size + 1)
        for combo in itertools.combinations_with_replacement(range(len(box)), size)
    )[:budget]
    sets = [Multiset.from_elements(group, [box[i] for i in combo]) for combo in combos]
    sums = [fs_bruteforce(a) for a in sets]
    violations = [
        (sets[i], sets[j])
        for i, j in itertools.combinations(range(len(sets)), 2)
        if sums[i] == sums[j] and not sim0_oracle(sets[i], sets[j])
    ]
    violations.sort(key=lambda pair: (pair[0].to_json(), pair[1].to_json()))
    return len(sets), violations


def _sim0_classes(members: list[Multiset]) -> list[list[Multiset]]:
    """Members grouped by sim0_oracle against the first member of each
    class, in order of first member."""
    classes: list[list[Multiset]] = []
    for cand in members:
        for cls in classes:
            if sim0_oracle(cls[0], cand):
                cls.append(cand)
                break
        else:
            classes.append([cand])
    return classes


def preimages_oracle(target: Multiset, bound: int | None = None) -> list[list[Multiset]]:
    """Every multiset of the right size over the whole group (or the box)
    whose brute-force subset sums equal the target, in enumeration order,
    grouped by sim0_oracle against the first member of each class."""
    size = target.cardinality.bit_length() - 1
    return _sim0_classes([
        cand
        for combo in itertools.combinations_with_replacement(_box(target.group, bound), size)
        if fs_bruteforce(cand := Multiset.from_elements(target.group, combo)) == target
    ])


def preimages_by_fits(target: Multiset, bound: int | None = None) -> list[list[Multiset]]:
    """The preimages of a subset-sums target by pruned enumeration: every
    nondecreasing sequence of the target's support elements (those within
    the bound on Z coordinates), in lexicographic coordinate order, grown one
    element at a time on a plain {sum: count} dict and dropped as soon as its
    own subset sums exceed the target anywhere.  A full-size sequence that
    fits has as many sums as the target, so its sums are the target.  The
    preimages are grouped as preimages_oracle groups them."""
    group = target.group
    size = target.cardinality.bit_length() - 1
    want = dict(target.items())
    support = [
        x for x in target.support()
        if bound is None or all(m or abs(c) <= bound for c, m in zip(x.coords, group.moduli))
    ]
    found = []

    def grow(seq: list, sums: dict, i: int) -> None:
        if len(seq) == size:
            found.append(Multiset.from_elements(group, seq))
            return
        for j in range(i, len(support)):
            nxt = dict(sums)
            for y, c in sums.items():
                nxt[y + support[j]] = nxt.get(y + support[j], 0) + c
            if all(c <= want.get(y, 0) for y, c in nxt.items()):
                grow(seq + [support[j]], nxt, j)

    grow([], {group.zero(): 1}, 0)
    return _sim0_classes(found)


def all_small_groups(max_size: int) -> list[GroupSpec]:
    """Every factorization of every size <= max_size into cyclic factors
    (>= 2), one GroupSpec per nondecreasing factor tuple."""
    shapes = {()}
    out = []
    for size in range(1, max_size + 1):
        for shape in _factorizations(size):
            if shape not in shapes:
                shapes.add(shape)
                out.append(GroupSpec(shape))
    out.append(GroupSpec(()))
    return out


def _factorizations(n: int, smallest: int = 2) -> list[tuple[int, ...]]:
    if n == 1:
        return [()]
    out = []
    for f in range(smallest, n + 1):
        if n % f == 0:
            out.extend([(f,) + rest for rest in _factorizations(n // f, f)])
    return out


def table_from_values(n: int, d: int, values) -> FunctionTable:
    """The table of a {point: value} mapping with one entry per point, read
    from the document with one row per item."""
    return FunctionTable.from_obj({"n": n, "d": d, "values": [[x, v] for x, v in values.items()]})


def image_value(img: RadonImage, coeffs, c: int) -> Fraction:
    """The entry of img at (coeffs, c mod n): its numerators lie in the
    lexicographic order of the points (coeffs, c) of (Z/nZ)^(d+1), over one
    denominator."""
    n = img.n
    assert len(coeffs) == img.d and all(0 <= a < n for a in coeffs), coeffs
    i = 0
    for a in (*coeffs, c % n):
        i = i * n + a
    return Fraction(img._nums[i], img._den)


def rows_json_oracle(table) -> str:
    """The file text of a FunctionTable or RadonImage, built the plain way:
    json.dumps of {"n", "d", rows}, one row [point, value] or [coeffs, c,
    value] per point in lexicographic order, each value a Fraction's "p/q"."""
    n, d = table.n, table.d
    points = [list(x) for x in itertools.product(range(n), repeat=d)]
    if isinstance(table, RadonImage):
        key = "entries"
        rows = [[h, c, image_value(table, h, c)] for h in points for c in range(n)]
    else:
        key = "values"
        rows = [[x, table.value(x)] for x in points]
    for row in rows:
        row[-1] = f"{row[-1].numerator}/{row[-1].denominator}"
    return json.dumps({"n": n, "d": d, key: rows}, separators=(",", ":"))


def perturbed(img: RadonImage, coeffs, c: int, delta) -> RadonImage:
    """img with delta added to its entry at (coeffs, c mod n), edited in the
    file document."""
    doc = json.loads(img.to_json())
    for row in doc["entries"]:
        if row[:2] == [list(coeffs), c % img.n]:
            row[2] = str(Fraction(row[2]) + delta)
    return RadonImage.from_obj(doc)


def factorize_oracle(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division over every d from 2 up."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def ord_oracle(a: int, n: int) -> int:
    """Least k >= 1 with a^k = 1 mod n, by multiplying by a until 1 recurs."""
    k, v = 1, a % n
    while v != 1 % n:
        k, v = k + 1, v * a % n
    return k


def element_order_oracle(x: GroupElement) -> int:
    """Least k >= 1 with k*x = 0, by adding x until 0 recurs; 0 when no k up
    to the product of the finite moduli works, which the order of any
    element of finite order divides."""
    limit = 1
    for m in x.group.moduli:
        limit *= m or 1
    k, v = 1, x
    while not is_zero(v):
        if k == limit:
            return 0
        k, v = k + 1, v + x
    return k


def field_mul_oracle(n: int, a, b) -> tuple:
    """a * b in the n-th cyclotomic field, for coefficient sequences a and b
    of any length (low to high): the schoolbook product, reduced by long
    division by the n-th cyclotomic polynomial, one leading term at a time,
    to its phi(n) canonical coordinates."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    prod = [0] * max(len(a) + len(b), deg)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for top in range(len(prod) - 1, deg - 1, -1):
        q = prod[top]
        for k, c in enumerate(phi):
            prod[top - deg + k] -= q * c
    return tuple(prod[:deg])


def root_power(n: int, j: int) -> tuple:
    """w^j for the primitive n-th root of unity w: 1 times the polynomial
    t^j, with j reduced mod n since w^n = 1."""
    return field_mul_oracle(n, (1,), (0,) * (j % n) + (1,))


def unit_word_oracle(d: int, e) -> tuple[tuple, tuple]:
    """The unit word with exponents e over conductor d as the pair
    (numerator, denominator): one factor 1 + w^j per copy of j in the
    positive part and in the negated negative part, multiplied in one at a
    time by field_mul_oracle."""
    deg = len(cyclotomic_poly(d)) - 1

    def product(exponents):
        acc = (1,) + (0,) * (deg - 1)
        for j, k in enumerate(exponents):
            factor = [0] * (j + 1)
            factor[0] += 1
            factor[j] += 1
            for _ in range(k):
                acc = field_mul_oracle(d, acc, factor)
        return acc

    return product(e), product([-x for x in e])


def prime_unit_rank_oracle(p: int) -> int:
    """The rank of the units 1 + w^j, j in Z/p, for an odd prime p, by
    character theory: one for log 2 (the j = 0 column) plus one for each of
    the (p - 1)/2 even characters chi of (Z/p)* with chi(2) != 1.  An even
    character has chi(2) = 1 iff it is trivial on <2, -1>, and the index of
    that subgroup counts those.  The subgroup is closed up by naive
    multiplication."""
    group = {1}
    while True:
        grown = group | {x * g % p for x in group for g in (2, p - 1)}
        if grown == group:
            break
        group = grown
    return (p - 1) // 2 - (p - 1) // len(group) + 1
