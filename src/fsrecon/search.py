"""Brute-force oracles: exhaustive multiset enumeration, subset-sums
inversion by pruned search, and empirical regularity scans.

A group is "regular" for this purpose when equal subset sums force zero-flip
equivalence; the scanner reports every violating pair it finds, re-verified
through the exact multiset operations.  Searches over groups with infinite
factors take a symmetric coordinate bound and are flagged as bounded
evidence rather than exhaustive.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, ResourceCapError
from .groups import GroupElement, GroupSpec
from .multisets import Multiset, sim0_check

__all__ = [
    "ScanReport",
    "enumerate_multisets",
    "fs_preimages",
    "regularity_scan",
    "verify_add_subset_sums",
]


def _bounded_elements(group: GroupSpec, bound: int | None) -> list[GroupElement]:
    ranges = []
    for m in group.moduli:
        if m >= 1:
            ranges.append(range(m))
        else:
            if bound is None:
                raise DomainError(
                    "an infinite factor needs a coordinate bound to enumerate"
                )
            ranges.append(range(-bound, bound + 1))
    return [group.element(coords) for coords in itertools.product(*ranges)]


def enumerate_multisets(
    group: GroupSpec, size: int, bound: int | None = None
) -> Iterator[Multiset]:
    """All multisets of the given cardinality, each exactly once, elements in
    nondecreasing order."""
    elements = _bounded_elements(group, bound)
    for combo in itertools.combinations_with_replacement(elements, size):
        yield Multiset.from_elements(group, combo)


def fs_preimages(
    target: Multiset,
    bound: int | None = None,
    prune: bool = True,
    cap: int = 20,
) -> list[list[Multiset]]:
    """All multisets whose subset sums equal the target, grouped into
    zero-flip equivalence classes, deterministically ordered.

    Candidates are drawn from the support of the target (every element of a
    preimage is itself a one-element subset sum).  With pruning on, a partial
    candidate is dropped as soon as its own subset sums exceed the target
    anywhere, and completed candidates must satisfy the total-sum constraint
    2^(m-1) * sum(A) = sum(target).
    """
    group = target.group
    card = target.cardinality
    if card < 1 or card & (card - 1):
        raise DomainError(f"subset-sums multisets have power-of-two size, got {card}")
    m = card.bit_length() - 1
    if m > cap:
        raise ResourceCapError(f"preimage search capped at size {cap}, need {m}")
    zero = group.zero()
    empty_fs = Multiset(group, {zero: 1})
    if m == 0:
        return [[Multiset.empty(group)]] if target == empty_fs else []

    candidates = sorted(target.support(), key=lambda e: e.coords)
    if bound is not None:
        candidates = [
            x
            for x in candidates
            if all(
                mod >= 1 or -bound <= c <= bound
                for c, mod in zip(x.coords, group.moduli)
            )
        ]
    target_total = target.total()

    def fits(partial_fs: Multiset) -> bool:
        return all(m_ <= target.multiplicity(x) for x, m_ in partial_fs.items())

    hits: list[Multiset] = []

    def extend(start: int, chosen: list[GroupElement], partial_fs: Multiset) -> None:
        if len(chosen) == m:
            cand = Multiset.from_elements(group, chosen)
            if prune and 2 ** (m - 1) * cand.total() != target_total:
                return
            if partial_fs == target:
                hits.append(cand)
            return
        for i in range(start, len(candidates)):
            a = candidates[i]
            nxt = partial_fs.union(partial_fs.shift(a))
            if prune and not fits(nxt):
                continue
            chosen.append(a)
            extend(i, chosen, nxt)
            chosen.pop()

    extend(0, [], empty_fs)

    classes: list[list[Multiset]] = []
    for cand in hits:
        for cls in classes:
            ok, _ = sim0_check(cls[0], cand)
            if ok:
                cls.append(cand)
                break
        else:
            classes.append([cand])
    return classes


@dataclass
class ScanReport:
    group: GroupSpec
    max_size: int
    bound: int | None
    violations: list[tuple[Multiset, Multiset]] = field(default_factory=list)
    exhaustive: bool = True
    checked: int = 0

    def min_violation_size(self) -> int | None:
        """Smallest multiset size among observed violations; just what this
        scan saw, no minimality claim."""
        sizes = [a.cardinality for a, _ in self.violations]
        return min(sizes) if sizes else None

    def to_obj(self) -> dict:
        return {
            "group": self.group.to_obj(),
            "max_size": self.max_size,
            "bound": self.bound,
            "violations": [
                [a.to_obj(), b.to_obj()] for a, b in self.violations
            ],
            "exhaustive": self.exhaustive,
            "checked": self.checked,
            "min_violation_size": self.min_violation_size(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), separators=(",", ":"))

    @classmethod
    def from_obj(cls, obj: dict) -> ScanReport:
        return cls(
            group=GroupSpec.from_obj(obj["group"]),
            max_size=obj["max_size"],
            bound=obj["bound"],
            violations=[
                (Multiset.from_obj(a), Multiset.from_obj(b))
                for a, b in obj["violations"]
            ],
            exhaustive=obj["exhaustive"],
            checked=obj["checked"],
        )


def regularity_scan(
    group: GroupSpec,
    max_size: int,
    bound: int | None = None,
    budget: int | None = None,
    extra_pairs: Iterable[tuple[Multiset, Multiset]] = (),
) -> ScanReport:
    """Scan all multisets up to max_size for pairs with equal subset sums
    that are not zero-flip equivalent.

    Multisets are bucketed by their exact subset-sums multiset; only
    within-bucket pairs can violate.  Supplied extra pairs (e.g. a
    constructed candidate) are checked by the same exact criteria.  If the
    budget runs out the report is flagged non-exhaustive.
    """
    report = ScanReport(group=group, max_size=max_size, bound=bound)
    buckets: dict[Multiset, list[Multiset]] = {}
    for size in range(1, max_size + 1):
        for ms in enumerate_multisets(group, size, bound):
            if budget is not None and report.checked >= budget:
                report.exhaustive = False
                break
            report.checked += 1
            key = ms.subset_sums(cap=max(max_size, 1))
            buckets.setdefault(key, []).append(ms)
        if not report.exhaustive:
            break
    if bound is not None and not group.is_finite():
        report.exhaustive = False
    violations = []
    for members in buckets.values():
        for a, b in itertools.combinations(members, 2):
            ok, _ = sim0_check(a, b)
            if not ok:
                violations.append((a, b))
    for a, b in extra_pairs:
        fs_cap = max(a.cardinality, b.cardinality)
        if a.subset_sums(cap=fs_cap) == b.subset_sums(cap=fs_cap):
            ok, _ = sim0_check(a, b)
            if not ok:
                violations.append((a, b))
    violations.sort(key=lambda pair: (pair[0].to_json(), pair[1].to_json()))
    report.violations = violations
    return report


def _random_multiset(group: GroupSpec, elements: Sequence[GroupElement], size: int, rng) -> Multiset:
    return Multiset.from_elements(group, (rng.choice(elements) for _ in range(size)))


def verify_add_subset_sums(
    group: GroupSpec,
    trials: int,
    seed: int = 0,
    bound: int = 2,
) -> bool:
    """Property check: translating two different multisets by the subset sums
    of a third never produces the same multiset, provided the group has no
    element of order 2.  Runs both an exhaustive tiny sweep and seeded random
    trials; returns False on any counterexample."""
    if group.has_two_torsion():
        raise DomainError(f"{group} has an element of order 2; hypothesis violated")
    elements = _bounded_elements(group, bound)
    # Exhaustive over the smallest shapes.
    small_sets = [
        Multiset.from_elements(group, combo)
        for size in (1, 2)
        for combo in itertools.combinations_with_replacement(elements[: min(len(elements), 5)], size)
    ]
    small_bs = [Multiset.empty(group)] + [
        Multiset.from_elements(group, combo)
        for size in (1, 2)
        for combo in itertools.combinations_with_replacement(elements[: min(len(elements), 4)], size)
    ]
    for a, a2 in itertools.combinations(small_sets, 2):
        if a == a2:
            continue
        for b in small_bs:
            fs_b = b.subset_sums()
            if a.convolve(fs_b) == a2.convolve(fs_b):
                return False
    rng = random.Random(seed)
    for _ in range(trials):
        size = rng.randint(1, 4)
        a = _random_multiset(group, elements, size, rng)
        a2 = _random_multiset(group, elements, size, rng)
        if a == a2:
            continue
        b = _random_multiset(group, elements, rng.randint(0, 3), rng)
        fs_b = b.subset_sums()
        if a.convolve(fs_b) == a2.convolve(fs_b):
            return False
    return True
