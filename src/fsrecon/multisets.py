"""Finite multisets over an abelian group, their subset sums, and the two
sign-flip equivalences that subset sums cannot distinguish.

The subset sums of A are the group-ring element prod_{a in A} (1 + t^a), and
adding m copies of a multiplies by (1 + t^a)^m.  ``subset_sums``, the
regularity scan, ``search.verify_add_subset_sums`` and the preimage search
run that step through ``sums_space``; the last two also run its exact
inverse for a of odd or infinite order, ``divide(step(v, a), a) == v`` for
nonnegative v.  One predicate picks one of two encodings, s the largest size:

* over a finite group small enough for its sums they are a ``VectorSums``
  count vector: one integer with each element's count in a slot of fixed
  width at its mixed-radix position (lexicographic coordinate order), and
  one step adds to it its rotation by a, a mask and two shifts per axis,
  once per copy.  A caller that reads sums back needs at most 2^(s + 1)
  elements, which the 2^s sums could fill half of.  The scan only steps
  and compares keys, so a vector no larger than a map key of 2^s sums will
  do: at size 2, Z/257 scans in 0.05 s on vectors against 0.18 s on maps,
  and Z/1001 in 4.7 s on maps against 5.0-6.4 s on vectors (in process, on
  a 2-CPU Xeon share);
* elsewhere they are a ``_MapSums`` map from coordinate tuples to counts,
  as over Z, whose sums such as those of {1, 10^9} would need a window of
  width 2 * 10^9; the scan's box bounds its sums, so it keys them over a
  finite window (``search.regularity_scan``).

Counts are exact: a slot's width comes from s, since no count passes 2^s.
Both encodings read and give back coordinate tuples, a ``Multiset``'s keys,
and build no ``GroupElement``; ``cyclo`` steps unit words with ``VectorSums``.

``sim_check`` decides whether A' arises from A by negating some subset,
and ``sim0_check`` refines this to flips whose negated subset sums to zero,
returning a witness subset when one exists.  Both compare one canonical
flip form per multiset, which the search module also groups preimages and
scan buckets by, in one pass and with no pairwise check.
"""
from __future__ import annotations

import json
import math
import operator
from itertools import compress, product
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import DomainError, GroupMismatchError, ResourceCapError
from .groups import GroupElement, GroupSpec

__all__ = [
    "DEFAULT_SUBSET_SUMS_CAP",
    "MAX_DISTINCT_SUMS",
    "Multiset",
    "Sim0Witness",
    "VectorSums",
    "sums_space",
    "sim_check",
    "sim0_check",
]

DEFAULT_SUBSET_SUMS_CAP = 24
# Most distinct sums subset_sums builds: its time and memory grow with that
# count, which over Z doubles with every new element.
MAX_DISTINCT_SUMS = 2**20
MAP_ENTRY_BYTES = 160  # bytes per entry of a map's key, measured as sums_space states


def _halve(q: dict, after: dict) -> dict | None:
    """q / (1 + t^a) for `a` of odd or infinite order, `after` mapping each
    key x of q to x + a: the unique p with p[x] + p[x - a] = q[x], or None
    when it is not a nonnegative integer vector.  Along a run x, x + a, ...
    of q's support, p is q less p one step back, 0 before and after the run;
    on a cycle of odd length inside the support, twice p before x is the
    alternating sum q[x] - q[x + a] + q[x + 2a] - ... + q[x - a]."""
    p: dict = {}
    ends = set(after.values())
    for x in sorted(q, key=ends.__contains__):  # the starts of runs first
        if x in p:
            continue
        carry = 0
        if x in ends:  # x lies on a cycle; an odd sum fails the last check
            carry, y = q[x], after[x]
            while y != x:
                carry, y = q[y] - carry, after[y]
            carry >>= 1
        into, y = carry, x
        while y in q and y not in p:
            carry = p[y] = q[y] - carry
            if carry < 0:
                return None
            y = after[y]
        if carry != into:
            return None
    return p


class _MapSums:
    """Sums as {coordinates: count} maps, whose step costs the number of
    distinct sums; a shift is an element's coordinates."""

    def __init__(self, group: GroupSpec):
        mods = group.moduli
        self.start = {(0,) * len(mods): 1}
        self._add = lambda y, s: tuple([(u + v) % m if m else u + v for u, v, m in zip(y, s, mods)])

    def step(self, sums: dict, shift: Sequence[int], m: int = 1) -> dict:
        """sums times (1 + t^shift)^m: term i of the binomial adds C(m, i)
        times each count at its sum moved by i*shift."""
        out = dict(sums)
        for i in range(1, m + 1):
            move, w = [i * c for c in shift], math.comb(m, i)
            for y, c in sums.items():
                z = self._add(y, move)
                out[z] = out.get(z, 0) + c * w
        return out

    def stepper(self, shift: Sequence[int]) -> Callable[[dict], dict]:
        """sums -> step(sums, shift), for a caller that steps by `shift` often."""
        return lambda sums: self.step(sums, shift)

    def divide(self, sums: dict, shift: Sequence[int]) -> dict | None:
        """sums / (1 + t^shift) for a shift of odd or infinite order, or None."""
        p = _halve(sums, {y: self._add(y, shift) for y in sums})
        return None if p is None else {y: c for y, c in p.items() if c}

    def count(self, sums: dict, y: Sequence[int]) -> int:
        return sums.get(y, 0)

    def key(self, sums: dict) -> frozenset:
        return frozenset(sums.items())

    def encode(self, ms: Multiset) -> dict:
        return dict(ms._mult)

    def counts(self, sums: dict) -> dict:
        return dict(sorted(sums.items()))

    def fits(self, sums: dict, want: dict) -> bool:
        return all(c <= want.get(y, 0) for y, c in sums.items())


def _slot_bytes(size: int) -> int:  # the whole bytes that hold size + 3 bits
    return (size + 10) // 8


class VectorSums:
    """Sums as count vectors over the finite `group`, for multisets of at
    most `size` elements: one integer with each element's count in a slot
    at its mixed-radix position, lowest first.  The counts total at most
    2^size, and a slot is the whole bytes that hold size + 3 bits: its top
    bit, always clear, is the guard ``fits`` borrows from, and the next one
    gives ``divide`` room for signed partial sums.  A shift is an element's
    coordinates."""

    def __init__(self, group: GroupSpec, size: int):
        mods, self.group, self.start = group.moduli, group, 1
        self._strides = [math.prod(mods[i + 1:]) for i in range(len(mods))]
        self._n, self._bytes = n, b = math.prod(mods), _slot_bytes(size)
        self._axes = []  # modulus, stride in bits, and a bit at the start of each block
        for q, s in zip(mods, self._strides):
            starts = int.from_bytes((b"\x01" + bytes(q * s * b - 1)) * (n // (q * s)), "little")
            self._axes.append((q, 8 * b * s, starts))
        self._guards = int.from_bytes((bytes(b - 1) + b"\x80") * n, "little")

    def _rotations(self, shift: Sequence[int]) -> list:
        """(r, k, starts) for each axis `shift` moves, by r bits in each block of r + k."""
        return [(c % q * s, (q - c % q) * s, starts)
                for (q, s, starts), c in zip(self._axes, shift) if c % q]

    def _roll(self, v: int, rotations: list) -> int:
        """v with the count at each x moved to x + shift, given the rotations
        of `shift`: the low k bits of each block, which the mask (starts <<
        k) - starts selects, move up r bits and the rest down k."""
        for r, k, starts in rotations:
            low = v & (starts << k) - starts
            v = low << r | (v ^ low) >> k
        return v

    def step(self, v: int, shift: Sequence[int], m: int = 1) -> int:
        """v times (1 + t^shift)^m: m times, v plus v rolled by `shift`."""
        rotations = self._rotations(shift)
        for _ in range(m):
            v += self._roll(v, rotations)
        return v

    def stepper(self, shift: Sequence[int]) -> Callable[[int], int]:
        """v -> step(v, shift), with the rotations of `shift` worked out once."""
        rotations = self._rotations(shift)
        return lambda v: v + self._roll(v, rotations)

    def divide(self, v: int, shift: Sequence[int]) -> int | None:
        """v / (1 + t^a) for a shift a of odd order o, or None.  (1 + t^a)
        times sum_{k<o} (-t^a)^k is 2, so the quotient p is half of S_o,
        where S_j = sum_{k<j} (-1)^k (v rolled by k*a), reached by doubling.
        If p exists, S_j is p + (-1)^(j+1) (p rolled by j*a): nonnegative for
        odd j, and in [-2^(size-1), 2^size], as p's counts total at most
        2^(size-1); a slot holds it above a bias of a quarter of its range.
        Otherwise a slot may overflow, so p is checked by stepping it back."""
        order = self.group.order(shift)
        bias = self._guards >> 1
        x, j = v + bias, 1
        for bit in bin(order)[3:]:
            rolled = self._roll(x, self._rotations([j * c for c in shift]))
            x = x + rolled - bias if j % 2 == 0 else x + bias - rolled
            j *= 2
            if bit == "1":
                x += self._roll(v, self._rotations([j * c for c in shift]))
                j += 1
                if not self.fits(bias, x):
                    return None
        p = x - bias >> 1
        return p if p >= 0 and not p & self._guards and self.step(p, shift) == v else None

    def count(self, v: int, y: Sequence[int]) -> int:
        w = 8 * self._bytes
        return v >> w * sum(map(operator.mul, y, self._strides)) & (1 << w) - 1

    def key(self, v: int) -> int:
        return v

    def encode(self, ms: Multiset) -> int:
        b, buf = self._bytes, bytearray(self._n * self._bytes)
        for x, c in ms._mult.items():
            i = b * sum(map(operator.mul, x, self._strides))
            buf[i:i + b] = c.to_bytes(b, "little")
        return int.from_bytes(buf, "little")

    def slots(self, v: int) -> list:
        """The counts of v in mixed-radix order."""
        b, buf = self._bytes, v.to_bytes(self._n * self._bytes, "little")
        return [int.from_bytes(buf[i:i + b], "little") for i in range(0, len(buf), b)]

    def counts(self, v: int) -> dict:
        counts = self.slots(v)
        return dict(compress(zip(product(*map(range, self.group.moduli)), counts), counts))

    def fits(self, v: int, want: int) -> bool:
        """Whether no count of v passes want's: want with every guard set,
        less v, keeps a guard where v's count is at most want's."""
        return (want | self._guards) - v & self._guards == self._guards


def sums_space(group: GroupSpec, size: int, levels: int = 1,
               unpacks: bool = True) -> _MapSums | VectorSums:
    """The encoding of the subset sums of multisets of at most `size`
    elements over `group`, for a caller that holds `levels` of them at once:
    count vectors, whose step costs the size of the group, when it is finite,
    `levels` vectors fit in MAX_DISTINCT_SUMS counts, and either the caller
    `unpacks` sums (counts, divides or lists them) and the group has at most
    2^(size + 1) elements, or a vector's bytes are at most those of a map key
    of 2^size entries of MAP_ENTRY_BYTES (tracemalloc put 2,000 keys of
    one-coordinate sums at 162-176 bytes an entry); maps elsewhere."""
    if group.is_finite() and levels * group.size() <= MAX_DISTINCT_SUMS and (
            group.size() <= 2 ** (size + 1) if unpacks
            else group.size() * _slot_bytes(size) <= MAP_ENTRY_BYTES << size):
        return VectorSums(group, size)
    return _MapSums(group)


def _coerce(group: GroupSpec, value) -> tuple[int, ...]:
    """The canonical coordinates of an element of `group` given as an element,
    a sequence of integer coordinates or, on a group of one factor, an int."""
    if isinstance(value, GroupElement):
        if value.group != group:
            raise GroupMismatchError(f"element {value!r} is not in {group}")
        return value.coords
    if isinstance(value, (tuple, list)):
        return group.reduce(value)
    if isinstance(value, int) and len(group.moduli) == 1:
        return group.reduce((value,))
    raise DomainError(f"cannot interpret {value!r} as an element of {group}")


class Multiset:
    """Immutable map from canonical coordinate tuples, in coordinate order, to
    positive counts; every key from outside passes ``_coerce``, and only
    ``support``, ``items`` and ``total`` build ``GroupElement``s."""

    __slots__ = ("group", "_mult")

    def __init__(self, group: GroupSpec, counts: Mapping | Iterable | None = None):
        store: dict[tuple, int] = {}
        for x, m in (counts.items() if isinstance(counts, Mapping) else counts or ()):
            x = _coerce(group, x)
            try:
                m = operator.index(m)
            except TypeError:
                raise DomainError(f"multiplicity {m!r} for {x} is not an integer") from None
            if m < 0:
                raise DomainError(f"negative multiplicity {m} for {x}")
            if m:
                store[x] = store.get(x, 0) + m
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "_mult", dict(sorted(store.items())))

    def __setattr__(self, name, value):
        raise AttributeError("Multiset is immutable")

    @classmethod
    def from_elements(cls, group: GroupSpec, elements: Iterable) -> Multiset:
        return cls(group, ((x, 1) for x in elements))

    # -- basic queries -------------------------------------------------

    @property
    def cardinality(self) -> int:
        return sum(self._mult.values())

    def multiplicity(self, x) -> int:
        return self._mult.get(_coerce(self.group, x), 0)

    def support(self) -> list[GroupElement]:
        return [GroupElement(x, self.group) for x in self._mult]

    def items(self) -> list[tuple[GroupElement, int]]:
        return [(GroupElement(x, self.group), m) for x, m in self._mult.items()]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self.group == other.group and self._mult == other._mult

    def __hash__(self) -> int:
        return hash((self.group.moduli, frozenset(self._mult.items())))

    def __repr__(self) -> str:
        inner = ", ".join(
            str(x) if m == 1 else f"{x}:{m}" for x, m in self.items()
        )
        return "{" + inner + "}"

    def _require_same_group(self, other: Multiset) -> None:
        if self.group != other.group:
            raise GroupMismatchError(
                f"multisets over {self.group} and {other.group} cannot be combined"
            )

    # -- multiset calculus ----------------------------------------------

    def scale(self, k: int) -> Multiset:
        """The image under x -> k*x; the counts of merged elements add."""
        return Multiset(self.group, (([k * u for u in x], m) for x, m in self._mult.items()))

    def total(self) -> GroupElement:
        """Sum of all elements counted with multiplicity."""
        mult, axes = self._mult.items(), range(len(self.group.moduli))
        return GroupElement([sum(m * x[j] for x, m in mult) for j in axes], self.group)

    def _sums(self, cap: int) -> tuple:
        """(space, sums): one step of ``sums_space`` per distinct element,
        starting from {0}, which keeps the work proportional to the size of
        the group or to the number of distinct sums rather than 2^|A|.  On
        the map encoding, a step that could take the count of distinct sums
        past MAX_DISTINCT_SUMS is refused before it runs; a count vector
        never holds more."""
        size = self.cardinality
        if size > cap:
            raise ResourceCapError(
                f"subset sums of a {size}-element multiset exceeds cap {cap}"
            )
        space = sums_space(self.group, size)
        room = self.group.size() if self.group.is_finite() else math.inf
        acc = space.start
        for a, m in self._mult.items():
            reach = room if room <= MAX_DISTINCT_SUMS else min(len(acc) * (m + 1), room)
            if reach > MAX_DISTINCT_SUMS:
                raise ResourceCapError(
                    f"subset sums could reach {reach} distinct values, "
                    f"over the cap {MAX_DISTINCT_SUMS}"
                )
            acc = space.step(acc, a, m)
        return space, acc

    def subset_sums(self, cap: int = DEFAULT_SUBSET_SUMS_CAP) -> Multiset:
        """The multiset of all 2^|A| subset totals."""
        space, acc = self._sums(cap)
        fs = Multiset(self.group)  # counts are keyed canonically, in coordinate order
        object.__setattr__(fs, "_mult", space.counts(acc))
        return fs

    def same_subset_sums(self, other: Multiset, cap: int = DEFAULT_SUBSET_SUMS_CAP) -> bool:
        """Whether the subset sums are equal, compared in their encoding
        without building the elements.  Equal sums have equal totals 2^|A|,
        so the two sizes, and with them the encodings, agree."""
        self._require_same_group(other)
        if self.cardinality != other.cardinality:
            return False
        space, a = self._sums(cap)
        return space.key(a) == space.key(other._sums(cap)[1])

    # -- serialization ---------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "group": self.group.to_obj(),
            "elements": [[list(x), m] for x, m in self._mult.items()],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> Multiset:
        """Parse a document whose coordinates and counts are JSON integers."""
        if not isinstance(obj, dict):
            raise DomainError("a multiset must be a JSON object with keys group and elements")
        group = GroupSpec.from_obj(obj.get("group", {}), "group.")
        rows = obj.get("elements", [])
        if type(rows) is not list:
            raise DomainError("elements must be a list of [[integer coordinates], integer count]")
        pairs = []
        for k, row in enumerate(rows):
            at = f"elements[{k}]"
            if type(row) is not list or len(row) != 2 or type(row[0]) is not list:
                raise DomainError(f"{at}: expected [[integer coordinates], integer count]")
            coords, count = row
            for i, c in enumerate(coords):
                if type(c) is not int:
                    raise DomainError(f"{at}[0][{i}]: coordinate {c!r} is not an integer")
            if type(count) is not int or count < 0:
                raise DomainError(f"{at}[1]: count {count!r} is not a nonnegative integer")
            try:
                pairs.append((group.reduce(coords), count))
            except DomainError as exc:
                raise DomainError(f"{at}[0]: {exc}") from None
        return cls(group, pairs)

    def to_json(self) -> str:
        try:
            return json.dumps(self.to_obj(), separators=(",", ":"))
        except ValueError as exc:  # str(int) refuses integers past its digit limit
            raise ResourceCapError(f"cannot write the multiset: {exc}") from None


class Sim0Witness(NamedTuple):
    """A zero-sum subset whose sign flip carries one multiset to the other."""

    flip_set: Multiset
    sum_check: GroupElement


def _flip_form(mods: Sequence[int], items: Iterable[tuple[tuple, int]]) -> tuple[tuple, frozenset]:
    """(form, used) of the multiset over the group of moduli `mods` given by
    `items`, (coordinates, count) pairs in coordinate order in which one
    element may recur: multisets share a form iff one arises from the other
    by negating a zero-sum subset.

    The orientation negates each element whose negation has the smaller
    coordinates.  A flip can move any count inside a pair class {x, -x}, so
    the orientation is one per flip class.  Between two multisets of one
    orientation, a flip sums to the difference of their s, the sums of the
    elements the orientation negated, plus any sum of the free elements
    (x = -x != 0), which it may flip or not.  So s is reduced modulo the
    span of the frees, which lies in (Z/2)^k: one bit per even modulus, set
    when that coordinate is in the upper half of its range, which adding a
    free element toggles.  Every pivot bit of s is cleared from the highest
    down by adding that pivot row's frees, which leaves one representative
    per coset; `used` is the set of the coordinates of the frees added.
    """
    evens = [(j, m // 2) for j, m in enumerate(mods) if m and m % 2 == 0]
    pivots: dict[int, tuple[int, frozenset]] = {}  # leading bit -> (row, the frees in it)

    def reduce(coords, used: frozenset) -> tuple[int, frozenset]:
        v = sum(1 << j for j, h in evens if coords[j] >= h)
        for top in sorted(pivots, reverse=True):
            if v >> top & 1:
                v, used = v ^ pivots[top][0], used ^ pivots[top][1]
        return v, used

    orientation: dict[tuple, int] = {}
    s = [0] * len(mods)
    for y, c in items:
        neg = tuple([-u % m if m else -u for u, m in zip(y, mods)])
        if neg < y:
            s = [t + c * u for t, u in zip(s, y)]
            y = neg
        elif neg == y and any(y):  # a free element
            v, used = reduce(y, frozenset([y]))
            if v:
                pivots[v.bit_length() - 1] = (v, used)
        orientation[y] = orientation.get(y, 0) + c
    s = [t % m if m else t for t, m in zip(s, mods)]
    v, used = reduce(s, frozenset())
    for j, h in evens:  # the reduced bit of each even coordinate, on its rest mod h
        s[j] = s[j] % h + h * (v >> j & 1)
    return (frozenset(orientation.items()), tuple(s)), used


def _form(ms: Multiset) -> tuple[tuple, frozenset]:
    return _flip_form(ms.group.moduli, ms._mult.items())


def sim_check(a: Multiset, b: Multiset) -> bool:
    """Decide whether b arises from a by negating some subset: whether the
    two have one orientation, the first part of their flip forms."""
    a._require_same_group(b)
    return _form(a)[0][0] == _form(b)[0][0]


def sim0_check(a: Multiset, b: Multiset) -> tuple[bool, Sim0Witness | None]:
    """Decide flip equivalence with a zero-sum flip set, with witness: whether
    the two have one flip form.  The witness flips the excess of a over b on
    each pair class, which sums to the difference of their s, and the frees
    that one side's reduction added and not the other's, which sum to it
    too; in the 2-torsion the two cancel."""
    a._require_same_group(b)
    (form_a, used_a), (form_b, used_b) = _form(a), _form(b)
    if form_a != form_b:
        return False, None
    bm = b._mult
    counts = {x: c - bm.get(x, 0) for x, c in a._mult.items() if c > bm.get(x, 0)}
    counts.update(dict.fromkeys(used_a ^ used_b, 1))  # the frees, by their coordinates
    flip = Multiset(a.group, counts)
    return True, Sim0Witness(flip_set=flip, sum_check=flip.total())
