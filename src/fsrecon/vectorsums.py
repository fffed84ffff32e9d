"""Subset sums over a finite group as numpy count vectors: the dense
encoding that ``multisets.sums_space`` picks, kept apart so that commands
which never step a vector do not load numpy."""
from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING

import numpy as np

from .groups import GroupElement, GroupSpec

if TYPE_CHECKING:
    from .multisets import Multiset


class _VectorSums:
    """Sums as count vectors of shape `group.moduli`, in mixed-radix
    (lexicographic coordinate) order.  Counts of at most `size`-element
    multisets are at most 2^size: int64 holds them below 2^63, and past it
    the vector holds exact Python integers (dtype object)."""

    def __init__(self, group: GroupSpec, size: int):
        mods = group.moduli
        self.group = group
        # A group with no factors still holds its one count in an axis.
        self.start = np.zeros(mods or (1,), dtype=np.int64 if size < 63 else object)
        self.start.reshape(-1)[0] = 1
        self._strides = [math.prod(mods[i + 1:]) for i in range(len(mods))]
        self._wrap = [np.arange(2 * m) % m for m in mods]

    def shift(self, a: GroupElement) -> tuple:
        """The index that gathers v[z - a] at every z."""
        return np.ix_(*[
            w[m - c : 2 * m - c] for w, m, c in zip(self._wrap, self.group.moduli, a.coords)
        ])

    def step(self, v: np.ndarray, shift: tuple, m: int = 1) -> np.ndarray:
        for _ in range(m):
            v = v + v[shift]
        return v

    def key(self, v: np.ndarray) -> tuple:
        """The nonzero positions and their counts: as long as the number of
        distinct sums, not the size of the group."""
        flat = v.reshape(-1)
        where = np.flatnonzero(flat)
        return where.tobytes(), tuple(flat[where].tolist())

    def encode(self, ms: Multiset) -> np.ndarray:
        v = np.zeros_like(self.start)
        for x, c in ms.items():
            v.reshape(-1)[sum(map(operator.mul, x.coords, self._strides))] = c
        return v

    def counts(self, v: np.ndarray) -> dict:
        flat = v.reshape(-1)
        where = np.flatnonzero(flat)
        strides, mods = (np.array(t, dtype=np.int64) for t in (self._strides, self.group.moduli))
        coords = (where[:, None] // strides % mods).tolist()
        return {GroupElement(c, self.group): n for c, n in zip(coords, flat[where].tolist())}

    def fits(self, v: np.ndarray, want: np.ndarray) -> bool:
        return bool((v <= want).all())
