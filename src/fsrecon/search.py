"""Brute-force oracles: subset-sums inversion by pruned search, empirical
regularity scans, and a check that multiplying by subset sums is injective.

A group is "regular" for this purpose when equal subset sums force zero-flip
equivalence; the scanner reports every violating pair it finds, re-verified
through the exact multiset operations.  Searches over groups with infinite
factors take a symmetric coordinate bound and are flagged as bounded
evidence rather than exhaustive.
"""
from __future__ import annotations

import itertools
import operator
import random
from collections import Counter
from typing import Callable, Iterator, Sequence

from .errors import DomainError, ResourceCapError
from .groups import GroupSpec
from .multisets import DEFAULT_SUBSET_SUMS_CAP, Multiset, _flip_form, _form, sums_space

__all__ = [
    "MAX_VIOLATIONS",
    "PREIMAGE_WORK_CAP",
    "ScanReport",
    "fs_preimages",
    "regularity_scan",
    "verify_add_subset_sums",
]


# Most work a preimage search may do: the sum of the quotient lengths of the
# nodes it visits, which a second of walking reaches.
PREIMAGE_WORK_CAP = 400_000
# Most violating pairs a scan builds; Z/2 at size 200 has 1,333,300.
MAX_VIOLATIONS = 2**20


def _bounded_elements(
    group: GroupSpec, bound: int | None, limit: int | None = None
) -> list[tuple]:
    """The coordinates of the group's elements, or of its box [-bound,
    bound] on Z factors, in order; only the first `limit` when one is given.
    Those use only the first `limit` values of each coordinate, and
    itertools.product copies each range it is given, so it gets no more."""
    if bound is None and not group.is_finite():
        raise DomainError("an infinite factor needs a coordinate bound to enumerate")
    ranges = [(range(m) if m else range(-bound, bound + 1))[:limit] for m in group.moduli]
    return list(itertools.islice(itertools.product(*ranges), limit))


def _walk(candidates: Sequence, length: int, start,
          children: Callable) -> Iterator[tuple[tuple, object]]:
    """Depth first over nondecreasing sequences of candidates of length 0 to
    ``length``, yielding (sequence, state) in lexicographic preorder from the
    root ((), start).  ``children(state, i)`` yields (j, child state) for
    the children of a node whose sequence ends at candidate i (0 at the
    root), with j >= i increasing; a child it leaves out is pruned with its
    subtree.  The stack is explicit, so the depth is not bounded by the
    recursion limit."""
    yield (), start
    stack = [((), children(start, 0))] if length else []
    while stack:
        seq, kids = stack[-1]
        for j, state in kids:
            child = seq + (candidates[j],)
            yield child, state
            if len(child) < length:
                stack.append((child, children(state, j)))
            break
        else:
            stack.pop()


def _check_bound(bound: int | None) -> None:
    if bound is not None and bound < 0:
        raise DomainError(f"the coordinate bound must be nonnegative, got {bound}")


def fs_preimages(target: Multiset, bound: int | None = None) -> list[list[Multiset]]:
    """All multisets whose subset sums equal the target, grouped into
    zero-flip equivalence classes, deterministically ordered.

    Candidates are the target's support (each element of a preimage is a
    one-element subset sum), within the bound on Z coordinates if one is
    given.  A node holds the target divided by 1 + t^a for its elements a
    of odd or infinite order, a unique quotient that must stay a
    nonnegative integer vector, and the subset sums of its elements of even
    order, whose quotient is not unique, which must fit inside it.  Over Z^k
    a node's next element is plus or minus the gap between its quotient's
    two least sums, so Z needs no bound.  Preimages larger than
    DEFAULT_SUBSET_SUMS_CAP, and walks past PREIMAGE_WORK_CAP, are refused.
    """
    _check_bound(bound)
    group = target.group
    card = target.cardinality
    if card < 1 or card & (card - 1):
        raise DomainError(f"subset-sums multisets have power-of-two size, got {card}")
    m = card.bit_length() - 1
    if m > DEFAULT_SUBSET_SUMS_CAP:
        raise ResourceCapError(
            f"preimage search capped at size {DEFAULT_SUBSET_SUMS_CAP}, need {m}"
        )

    mods = group.moduli
    candidates = [x for x in target._mult  # coordinates, in coordinate order
                  if bound is None or all(q or -bound <= c <= bound for c, q in zip(x, mods))]
    peel = bool(mods) and not any(mods)
    if peel:  # Over Z^k, by absolute value, -x before x.
        candidates.sort(key=lambda x: (max(x, tuple([-c for c in x])), x))
        index = {x: j for j, x in enumerate(candidates)}
    space = sums_space(group, m, levels=2 * m + 2)
    # Elements of finite even order, whose quotient is not unique.
    even = [o > 0 and o % 2 == 0 for o in map(group.order, candidates)]

    def children(node, i):
        quotient, sums = node
        js = range(i, len(candidates))
        if peel:  # plus or minus the gap between the two least sums
            low = min(quotient)
            gap = ([0] * len(low) if quotient[low] > 1
                   else list(map(operator.sub, min(quotient.keys() - {low}), low)))
            js = sorted({index[g] for g in (tuple(gap), tuple(-u for u in gap))
                         if index.get(g, -1) >= i})
        for j in js:
            if even[j]:
                q, s = quotient, space.step(sums, candidates[j])
            # Q is the subset sums of the rest of a preimage times those of
            # the node's even elements, so it holds each element of the rest.
            elif space.count(quotient, candidates[j]):
                q, s = space.divide(quotient, candidates[j]), sums
            else:
                continue
            if q is not None and space.fits(s, q):
                yield j, (q, s)

    # A full-size node has quotient and sums of equal total, the second
    # fitting inside the first: they are equal, so its product is the target.
    start = space.encode(target), space.start
    # Work is the sum of the visited nodes' quotient lengths: the group's size
    # on a count vector, the number of distinct sums on a map.
    width = None if isinstance(start[0], dict) else group.size()
    found, work = [], 0
    for nodes, (seq, (quotient, _)) in enumerate(_walk(candidates, m, start, children), 1):
        work += width or len(quotient)
        if work > PREIMAGE_WORK_CAP:
            raise ResourceCapError(f"preimage search stopped after {nodes} nodes, "
                                   f"past the work cap {PREIMAGE_WORK_CAP}")
        if len(seq) == m:
            found.append(seq)
    found.sort(key=sorted)
    return _flip_classes([Multiset.from_elements(group, seq) for seq in found])


def _flip_classes(members: list[Multiset]) -> list[list[Multiset]]:
    """Zero-flip classes in order of first member: one per flip form."""
    classes: dict[tuple, list[Multiset]] = {}
    for m in members:
        classes.setdefault(_form(m)[0], []).append(m)
    return list(classes.values())


class ScanReport:
    def __init__(self, group: GroupSpec, max_size: int, bound: int | None):
        self.group, self.max_size, self.bound = group, max_size, bound
        self.violations: list[tuple[Multiset, Multiset]] = []
        self.exhaustive, self.checked = True, 0

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


def regularity_scan(
    group: GroupSpec,
    max_size: int,
    bound: int | None = None,
    budget: int | None = None,
) -> ScanReport:
    """Scan all multisets up to max_size for pairs with equal subset sums
    that are not zero-flip equivalent.

    Multisets are bucketed by their exact subset-sums multiset; only pairs
    of one bucket with different flip forms violate.  A sum of at most
    max_size elements of the box has each Z coordinate in [-max_size*bound,
    max_size*bound], on which reduction modulo the window 2*max_size*bound +
    1 is one to one.  So sums are equal over the group exactly when they are
    over the finite group with each Z made Z/window, which the buckets are
    keyed on.  The scan walks the multisets depth first, each one extending
    the subset sums of its prefix, so when the budget runs out no size has
    been fully checked; the report is then flagged non-exhaustive.  A scan
    stops before it builds more than MAX_VIOLATIONS violating pairs.
    """
    if max_size < 1:
        raise DomainError(f"the scan needs a maximum size of at least 1, got {max_size}")
    _check_bound(bound)
    if budget is not None and budget < 1:
        raise DomainError(f"the scan budget must be at least 1, got {budget}")
    report = ScanReport(group=group, max_size=max_size, bound=bound)
    buckets: dict[object, list[tuple[tuple, ...]]] = {}
    # A node that uses candidate j has at least the j singletons of earlier
    # candidates before it, so the first budget + 1 nodes, the last of which
    # ends the scan as non-exhaustive, use only the first budget + 1 candidates.
    shifts = _bounded_elements(group, bound, None if budget is None else budget + 1)
    window = GroupSpec([m or 2 * max_size * bound + 1 for m in group.moduli])
    # A level of sums per node on the walk's stack; a node's children step by elements i on.
    space = sums_space(window, max_size, levels=max_size + 1, unpacks=False)
    steps = [space.stepper(x) for x in shifts]
    children = lambda sums, i: ((j, steps[j](sums)) for j in range(i, len(steps)))
    nodes = _walk(shifts, max_size, space.start, children)
    # After the root, the empty multiset, as many as the budget allows.
    for seq, sums in itertools.islice(nodes, 1, None if budget is None else budget + 1):
        buckets.setdefault(space.key(sums), []).append(seq)
    report.checked = sum(map(len, buckets.values()))
    report.exhaustive = group.is_finite() and next(nodes, None) is None
    # Only the members of a bucket with two flip forms become multisets.
    violations, count = [], 0
    for members in buckets.values():
        if len(members) < 2:
            continue
        # The walk's sequences are nondecreasing, so equal elements are adjacent.
        runs = [[(y, len(list(g))) for y, g in itertools.groupby(seq)] for seq in members]
        label = [_flip_form(group.moduli, r)[0] for r in runs]
        forms = Counter(label)
        if len(forms) > 1:
            count += (len(members) ** 2 - sum(k * k for k in forms.values())) // 2
            if count > MAX_VIOLATIONS:
                raise ResourceCapError(f"the scan found more than {MAX_VIOLATIONS} "
                                       "violating pairs, the most it reports")
            sets = [Multiset(group, r) for r in runs]
            keyed = zip([m.to_json() for m in sets], sets, label)
            violations += [(ja, jb, a, b) for (ja, a, la), (jb, b, lb)
                           in itertools.combinations(keyed, 2) if la != lb]
    violations.sort(key=lambda v: v[:2])
    report.violations = [v[2:] for v in violations]
    return report


def verify_add_subset_sums(group: GroupSpec, trials: int, seed: int = 0) -> bool:
    """Property check: A -> A times FS(B) is injective, provided the group
    has no element of order 2.  Each A is stepped by the elements of B and
    divided back by 1 + t^b once per copy of each b; division is a function,
    so getting every A back shows that no two share A times FS(B).  Runs an
    exhaustive tiny sweep and seeded random trials over the elements with
    coordinates in [-2, 2] on Z factors; returns False on any failure."""
    if group.has_two_torsion():
        raise DomainError(f"{group} has an element of order 2; hypothesis violated")
    elements = _bounded_elements(group, 2)
    space = sums_space(group, 7)  # |A| <= 4 and |B| <= 3

    def small(k: int) -> list[tuple]:
        """The multisets of one or two of the first k elements, as coordinate tuples."""
        return [combo for size in (1, 2)
                for combo in itertools.combinations_with_replacement(elements[:k], size)]

    def round_trip(a: Sequence[tuple], b: Sequence[tuple]) -> bool:
        v = start = space.encode(Multiset.from_elements(group, a))
        for x in b:
            v = space.step(v, x)
        for x in b:
            v = space.divide(v, x)
            if v is None:
                return False
        return v == start

    # Exhaustive over the smallest shapes.
    if not all(round_trip(a, b) for a in small(5) for b in [(), *small(4)]):
        return False
    rng = random.Random(seed)
    draw = lambda k: rng.choices(elements, k=k)
    return all(round_trip(draw(rng.randint(1, 4)), draw(rng.randint(0, 3))) for _ in range(trials))
