"""Finite multisets over an abelian group, their subset sums, and the two
sign-flip equivalences that subset sums cannot distinguish.

``subset_sums`` folds ``extend_subset_sums``, a product with the binomial
weights of (1 + t^a)^mult, over the distinct elements; the search module's
walk uses the same step.  Counts are exact arbitrary-precision integers; a
24-element multiset already produces multiplicities around 2^24.

``sim_check`` decides whether A' arises from A by negating some subset
(equivalent to matching counts on every pair class {x, -x}), and
``sim0_check`` refines this to flips whose negated subset sums to zero,
returning a witness subset when one exists.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import DomainError, GroupMismatchError, ResourceCapError
from .groups import GroupElement, GroupSpec

__all__ = [
    "DEFAULT_SUBSET_SUMS_CAP",
    "MAX_DISTINCT_SUMS",
    "Multiset",
    "Sim0Witness",
    "extend_subset_sums",
    "sim_check",
    "sim0_check",
]

DEFAULT_SUBSET_SUMS_CAP = 24
# Most distinct sums subset_sums builds: its time and memory grow with that
# count, which over Z doubles with every new element.
MAX_DISTINCT_SUMS = 2**20


def extend_subset_sums(sums: Mapping[GroupElement, int], a: GroupElement, m: int = 1) -> dict:
    """The {sum: count} map of A + m*{a} from that of A: multiply by
    (1 + t^a)^m.  The i = 0 term carries every count over unchanged; term i
    adds C(m, i) times each count at the sum shifted by i*a."""
    out = dict(sums)
    for i in range(1, m + 1):
        shift, w = i * a, math.comb(m, i)
        for y, c in sums.items():
            z = y + shift
            out[z] = out.get(z, 0) + c * w
    return out


def _coerce(group: GroupSpec, value) -> GroupElement:
    if isinstance(value, GroupElement):
        if value.group != group:
            raise GroupMismatchError(f"element {value!r} is not in {group}")
        return value
    if isinstance(value, (tuple, list)):
        return group.element(value)
    if isinstance(value, int) and len(group.moduli) == 1:
        return group.element((value,))
    raise DomainError(f"cannot interpret {value!r} as an element of {group}")


class Multiset:
    """Immutable multiplicity map from group elements to positive integers."""

    __slots__ = ("group", "_mult", "_hash")

    def __init__(self, group: GroupSpec, counts: Mapping | Iterable | None = None):
        store: dict[GroupElement, int] = {}
        if counts:
            pairs = counts.items() if isinstance(counts, Mapping) else counts
            for x, m in pairs:
                x = _coerce(group, x)
                m = int(m)
                if m < 0:
                    raise DomainError(f"negative multiplicity {m} for {x}")
                if m:
                    store[x] = store.get(x, 0) + m
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "_mult", store)
        object.__setattr__(self, "_hash", None)

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
        return sorted(self._mult, key=lambda e: e.coords)

    def items(self) -> list[tuple[GroupElement, int]]:
        return [(x, self._mult[x]) for x in self.support()]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self.group == other.group and self._mult == other._mult

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.group.moduli, frozenset(self._mult.items())))
            object.__setattr__(self, "_hash", h)
        return h

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
        return Multiset(self.group, ((k * x, m) for x, m in self._mult.items()))

    def total(self) -> GroupElement:
        """Sum of all elements counted with multiplicity."""
        acc = self.group.zero()
        for x, m in self._mult.items():
            acc = acc + m * x
        return acc

    def convolve(self, other: Multiset) -> Multiset:
        """Sumset with multiplicity: count of z is sum over x+y=z of products."""
        self._require_same_group(other)
        counts: dict[GroupElement, int] = {}
        for x, mx in self._mult.items():
            for y, my in other._mult.items():
                z = x + y
                counts[z] = counts.get(z, 0) + mx * my
        return Multiset(self.group, counts)

    def subset_sums(self, cap: int = DEFAULT_SUBSET_SUMS_CAP) -> Multiset:
        """The multiset of all 2^|A| subset totals.

        Folds ``extend_subset_sums`` over the distinct elements, starting
        from {0}, which keeps the work proportional to the number of
        distinct sums rather than 2^|A|.  A step that could take the count
        of distinct sums past MAX_DISTINCT_SUMS is refused before it runs.
        """
        size = self.cardinality
        if size > cap:
            raise ResourceCapError(
                f"subset sums of a {size}-element multiset exceeds cap {cap}"
            )
        room = self.group.size() if self.group.is_finite() else math.inf
        acc = {self.group.zero(): 1}
        for a, m in self.items():
            reach = min(len(acc) * (m + 1), room)
            if reach > MAX_DISTINCT_SUMS:
                raise ResourceCapError(
                    f"subset sums could reach {reach} distinct values, "
                    f"over the cap {MAX_DISTINCT_SUMS}"
                )
            acc = extend_subset_sums(acc, a, m)
        return Multiset(self.group, acc)

    # -- serialization ---------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "group": self.group.to_obj(),
            "elements": [[x.to_obj(), m] for x, m in self.items()],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> Multiset:
        """Parse a document whose coordinates and counts are JSON integers."""
        if not isinstance(obj, dict):
            raise DomainError("a multiset must be a JSON object with keys group and elements")
        group = GroupSpec.from_obj(obj.get("group", {}))
        rows = obj.get("elements", [])
        if type(rows) is not list or not all(
            type(row) is list and len(row) == 2 and type(row[0]) is list and type(row[1]) is int
            and all(type(c) is int for c in row[0])
            for row in rows
        ):
            raise DomainError("elements must be a list of [[integer coordinates], integer count]")
        return cls(group, [(group.element(coords), m) for coords, m in rows])

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), separators=(",", ":"))


@dataclass(frozen=True)
class Sim0Witness:
    """A zero-sum subset whose sign flip carries one multiset to the other."""

    flip_set: Multiset
    sum_check: GroupElement


def sim_check(a: Multiset, b: Multiset) -> bool:
    """Decide whether b arises from a by negating some subset.

    Flipping signs inside a pair class {x, -x} cannot change the combined
    count of the class, and that condition is also sufficient: the excess of
    a over b on one side of every pair is exactly what must be flipped.
    """
    a._require_same_group(b)
    for x in set(a._mult) | set(b._mult):
        if a.multiplicity(x) + a.multiplicity(-x) != b.multiplicity(x) + b.multiplicity(-x):
            return False
    return True


def sim0_check(a: Multiset, b: Multiset) -> tuple[bool, Sim0Witness | None]:
    """Decide flip equivalence with a zero-sum flip set, with witness.

    On every pair class {x, -x} with x != -x the flip count of x minus that
    of -x is forced, and flipping a canceling pair {x, -x} together adds
    nothing to the flip sum, so the pair classes contribute a fixed base sum.
    Self-negative elements (2x = 0) are invisible to the multiset but free to
    include in the flip set; including one copy adds x, a second copy cancels
    it.  They form (Z/2)^s, one bit per coordinate that is half an even
    modulus, so the question is whether -base is a sum of some of the free
    elements: a linear system over GF(2), solved by elimination on bitmasks.
    """
    if not sim_check(a, b):
        return False, None
    forced: dict[GroupElement, int] = {}
    base = a.group.zero()
    for x in a.support():
        if x == -x:
            continue
        excess = a.multiplicity(x) - b.multiplicity(x)
        if excess > 0:
            forced[x] = excess
            base = base + excess * x
    target = -base
    if target != -target:
        return False, None
    frees = [x for x in a.support() if x == -x and not x.is_zero()]
    # Elimination over GF(2), target last: leading bit -> (vector, the
    # inputs summing to it, as a bitmask over frees + [target]).
    pivots: dict[int, tuple[int, int]] = {}
    for i, x in enumerate([*frees, target]):
        v, used = sum(1 << j for j, c in enumerate(x.coords) if c), 1 << i
        while v.bit_length() in pivots:
            pv, pused = pivots[v.bit_length()]
            v, used = v ^ pv, used ^ pused
        if v:
            pivots[v.bit_length()] = (v, used)
    if v:  # the target is independent of the frees
        return False, None
    counts = dict(forced)
    counts.update((x, 1) for i, x in enumerate(frees) if used >> i & 1)
    flip = Multiset(a.group, counts)
    return True, Sim0Witness(flip_set=flip, sum_check=flip.total())
