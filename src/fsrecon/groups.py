"""Finitely generated abelian groups as explicit products of cyclic factors.

A group is described by a tuple of moduli: entry ``m >= 1`` stands for the
integers mod m, entry ``0`` for an infinite cyclic factor.  Elements, and
the keys of multisets, are integer coordinates that ``GroupSpec.reduce``
puts into [0, m) on every finite factor, so that value equality and hashing
are well defined.
"""
from __future__ import annotations

import math
import operator
from typing import Sequence

from .errors import DomainError, GroupMismatchError

__all__ = ["GroupSpec", "GroupElement", "cyclic"]


class GroupSpec:
    """Z/m1 x Z/m2 x ...; a modulus of 0 marks a copy of Z."""

    __slots__ = ("moduli",)

    def __init__(self, moduli: Sequence[int]):
        try:
            mods = tuple(map(operator.index, moduli))
        except TypeError:
            raise DomainError(f"moduli {moduli!r} are not a sequence of integers") from None
        if any(m < 0 for m in mods):
            raise DomainError(f"moduli must be nonnegative, got {mods}")
        object.__setattr__(self, "moduli", mods)

    def __setattr__(self, name, value):
        raise AttributeError("GroupSpec is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not GroupSpec:
            return NotImplemented
        return self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    def __repr__(self) -> str:
        return f"GroupSpec(moduli={self.moduli!r})"

    def __str__(self) -> str:
        if not self.moduli:
            return "0"
        return " x ".join("Z" if m == 0 else f"Z/{m}" for m in self.moduli)

    def is_finite(self) -> bool:
        return all(m >= 1 for m in self.moduli)

    def size(self) -> int:
        """Number of elements; finite groups only."""
        if not self.is_finite():
            raise DomainError(f"{self} is infinite")
        return math.prod(self.moduli)

    def has_two_torsion(self) -> bool:
        """True when some element has order 2, i.e. some finite modulus is even."""
        return any(m > 0 and m % 2 == 0 for m in self.moduli)

    def zero(self) -> GroupElement:
        return GroupElement((0,) * len(self.moduli), self)

    def element(self, coords: Sequence[int]) -> GroupElement:
        """Build an element from integer coordinates."""
        return GroupElement(coords, self)

    def reduce(self, coords: Sequence[int]) -> tuple[int, ...]:
        """Integer coordinates, each finite one reduced into [0, m)."""
        mods = self.moduli
        try:
            if len(coords) == len(mods):
                return tuple([c % m if m else c for c, m in zip(map(operator.index, coords), mods)])
        except TypeError:
            raise DomainError(f"coordinates {coords!r} are not a sequence of integers") from None
        raise DomainError(f"expected {len(mods)} coordinates, got {len(coords)}")

    def order(self, coords: Sequence[int]) -> int:
        """The order of the element with these coordinates: the least k >= 1
        with k*x = 0, or 0 when x has a nonzero Z coordinate."""
        # A Z factor gives 1 at 0 and 0 elsewhere, which makes the lcm 0.
        return math.lcm(*[m // math.gcd(c, m) if m else int(not c)
                          for c, m in zip(self.reduce(coords), self.moduli)])

    def to_obj(self) -> dict:
        return {"moduli": list(self.moduli)}

    @classmethod
    def from_obj(cls, obj: dict, at: str = "") -> GroupSpec:
        """Parse {"moduli": [...]}; an error names the bad value's path after `at`."""
        if not isinstance(obj, dict):
            raise DomainError(f"{at.rstrip('.') or 'group'}: expected {{'moduli': [integers]}}")
        moduli = obj.get("moduli")
        if type(moduli) is not list:
            raise DomainError(f"{at}moduli: expected a list of integers, got {moduli!r}")
        for i, m in enumerate(moduli):
            if type(m) is not int or m < 0:
                raise DomainError(f"{at}moduli[{i}]: modulus {m!r} is not a nonnegative integer")
        return cls(moduli)


def cyclic(n: int) -> GroupSpec:
    """The cyclic group Z/nZ (or Z when n == 0)."""
    return GroupSpec((n,))


class GroupElement:
    """Built from any integer coordinates, stored as ``GroupSpec.reduce`` gives them."""

    __slots__ = ("coords", "group")

    def __init__(self, coords: Sequence[int], group: GroupSpec):
        object.__setattr__(self, "coords", group.reduce(coords))
        object.__setattr__(self, "group", group)

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not GroupElement:
            return NotImplemented
        return self.coords == other.coords and self.group == other.group

    def __hash__(self) -> int:
        # Equal elements have equal coordinates; hashing the group too would
        # rehash its moduli on every dict lookup.
        return hash(self.coords)

    def __str__(self) -> str:
        if len(self.coords) == 1:
            return str(self.coords[0])
        return "(" + ", ".join(map(str, self.coords)) + ")"

    def __repr__(self) -> str:
        return f"<{self} in {self.group}>"

    def _require_same_group(self, other: GroupElement) -> None:
        if self.group != other.group:
            raise GroupMismatchError(
                f"elements of {self.group} and {other.group} cannot be combined"
            )

    def __add__(self, other: GroupElement) -> GroupElement:
        self._require_same_group(other)
        return GroupElement([a + b for a, b in zip(self.coords, other.coords)], self.group)

    def __neg__(self) -> GroupElement:
        return GroupElement([-c for c in self.coords], self.group)

    def __sub__(self, other: GroupElement) -> GroupElement:
        return self + (-other)

    def __rmul__(self, k: int) -> GroupElement:
        if not isinstance(k, int):
            return NotImplemented
        return GroupElement([k * c for c in self.coords], self.group)
