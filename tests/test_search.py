import random
import sys
import time
import tracemalloc

import pytest

from fsrecon.acceptance import run_criterion
from fsrecon.counterexamples import z2_pair
from fsrecon.errors import DomainError, ResourceCapError
from fsrecon.groups import GroupSpec, cyclic
from fsrecon.multisets import Multiset, VectorSums, sums_space
from fsrecon.search import fs_preimages, regularity_scan, verify_add_subset_sums
from oracles import (
    fs_bruteforce,
    preimages_by_fits,
    preimages_oracle,
    scan_oracle,
    sim0_orbit,
    times_fs_bruteforce,
)

Z2 = cyclic(2)
Z3 = cyclic(3)
Z5 = cyclic(5)
Z = cyclic(0)


def ms(group, *elements):
    return Multiset.from_elements(group, elements)


# -- enumeration ---------------------------------------------------------------
# The scan checks each multiset of sizes 1 to max_size once: as many as the
# oracle enumerates, C(k + s - 1, s) of size s over k elements.


def test_enumerate_counts():
    assert regularity_scan(Z3, 2).checked == scan_oracle(Z3, 2)[0] == 3 + 6


def test_enumerate_z2_size2():
    report = regularity_scan(Z2, 2)
    assert report.checked == 2 + 3 and report.exhaustive
    # {0, 1} and {1, 1} both have subset sums {0, 0, 1, 1}.
    assert report.violations == scan_oracle(Z2, 2)[1] == [(ms(Z2, 0, 1), ms(Z2, 1, 1))]


def test_enumerate_bounded_z():
    assert regularity_scan(Z, 1, bound=1).checked == scan_oracle(Z, 1, 1)[0] == 3


def test_enumerate_infinite_needs_bound():
    with pytest.raises(DomainError):
        regularity_scan(Z, 1)


def test_enumerate_no_duplicates():
    group = GroupSpec((2, 3))
    assert regularity_scan(group, 3).checked == scan_oracle(group, 3)[0] == 6 + 21 + 56


# -- subset-sums inversion ---------------------------------------------------------


def test_preimages_z2_classic():
    classes = fs_preimages(ms(Z2, 0, 0, 1, 1))
    assert classes == [[ms(Z2, 0, 1)], [ms(Z2, 1, 1)]]


def test_preimages_over_z():
    classes = fs_preimages(ms(Z, 0, 1, 2, 3), bound=3)
    assert len(classes) == 1
    assert ms(Z, 1, 2) in classes[0]


def test_preimages_trivial():
    assert fs_preimages(Multiset(Z5, {Z5.zero(): 1})) == [[Multiset(Z5)]]


def test_preimages_rejects_non_power_of_two():
    with pytest.raises(DomainError):
        fs_preimages(ms(Z5, 0, 1, 2))


def test_preimages_cap():
    huge = Multiset(Z5, {Z5.zero(): 2**25})
    with pytest.raises(ResourceCapError):
        fs_preimages(huge)


def test_preimages_contain_original_multiset():
    rng = random.Random(25)
    for _ in range(15):
        a = Multiset.from_elements(Z5, (rng.randint(0, 4) for _ in range(3)))
        classes = fs_preimages(a.subset_sums())
        assert any(a in cls for cls in classes)


def test_preimage_classes_are_sim0_consistent():
    """Each class is the set of preimages that the brute-force flip search
    reaches from its first member by zero-sum flips.  Seeded targets of
    sizes 1 to 4, Z coordinates drawn within the bound."""
    for moduli, bound in [((7,), None), ((4,), None), ((8,), None), ((2, 4), None),
                          ((2, 2, 2), None), ((2, 0), 2)]:
        group = GroupSpec(moduli)
        rng = random.Random(26)
        for size in range(1, 5):
            for _ in range(3):
                source = Multiset.from_elements(group, [_draw(group, rng, bound) for _ in range(size)])
                classes = fs_preimages(source.subset_sums(), bound=bound)
                preimages = {m for cls in classes for m in cls}
                assert source in preimages and len(preimages) == sum(map(len, classes))
                for cls in classes:
                    assert set(cls) == sim0_orbit(cls[0]) & preimages, (moduli, source)


@pytest.mark.parametrize(
    "group, bound", [(cyclic(4), None), (Z5, None), (cyclic(6), None), (Z, 3)],
    ids=["Z4", "Z5", "Z6", "Z"],
)
def test_preimages_match_bruteforce_oracle(group, bound):
    """Seeded subset-sums targets of one to three elements, plus random
    multisets of two, four and eight elements, which are mostly not subset
    sums of anything."""
    rng = random.Random(27)
    values = range(-bound, bound + 1) if bound else range(group.moduli[0])

    def draw(size):
        return Multiset.from_elements(group, (rng.choice(values) for _ in range(size)))

    targets = [fs_bruteforce(draw(size)) for size in (1, 2, 3) for _ in range(4)]
    targets += [draw(size) for size in (2, 4, 8) for _ in range(2)]
    for target in targets:
        assert fs_preimages(target, bound=bound) == preimages_oracle(target, bound)


def _draw(group, rng, spread):
    """A random element: any residue on a finite factor, an integer in
    [-spread, spread] on a Z factor."""
    return tuple(rng.randrange(m) if m else rng.randint(-spread, spread) for m in group.moduli)


@pytest.mark.parametrize(
    "moduli, bound, spread, sizes",
    [((0,), None, 50, 5), ((13,), None, 0, 6), ((31,), None, 0, 5), ((257,), None, 0, 4),
     ((3, 3), None, 0, 5), ((4,), None, 0, 5), ((6,), None, 0, 5), ((2, 3), None, 0, 5),
     ((12,), None, 0, 5), ((30,), None, 0, 5), ((3, 0), 2, 4, 4)],
    ids=["Z", "Z13", "Z31", "Z257", "Z3xZ3", "Z4", "Z6", "Z2xZ3", "Z12", "Z30", "Z3xZ"],
)
def test_preimages_match_the_fits_enumeration(moduli, bound, spread, sizes):
    """Byte for byte the classes that the enumeration pruned by fits finds:
    the division's quotients where it is unique, fits where it is not (the
    groups with elements of even order), and the bound on mixed groups,
    drawn past it.  Seeded subset-sums targets of every size up to `sizes`,
    plus random multisets of 4 and 8 elements from a few values, which are
    mostly not subset sums of anything."""
    group = GroupSpec(moduli)
    rng = random.Random(sum(moduli) + 41)
    targets = [
        Multiset.from_elements(group, [_draw(group, rng, spread) for _ in range(size)]).subset_sums()
        for size in range(sizes + 1) for _ in range(3)
    ]
    few = [_draw(group, rng, 2) for _ in range(3)]
    targets += [Multiset.from_elements(group, rng.choices(few, k=k)) for k in (4, 8) for _ in range(3)]
    for target in targets:
        got, want = fs_preimages(target, bound=bound), preimages_by_fits(target, bound)
        assert [[m.to_json() for m in c] for c in got] == [[m.to_json() for m in c] for c in want]


@pytest.mark.parametrize(
    "moduli, size, values",
    [((31,), 10, range(31)), ((257,), 8, range(257)), ((0,), 16, range(-50, 51))],
    ids=["Z31-size10", "Z257-size8", "Z-size16"],
)
def test_preimage_search_is_not_exponential(moduli, size, values):
    """Far past the sizes the enumeration can reach (it grew about 15x per
    element): one seeded target each, found with its source, Z without a
    bound."""
    group = GroupSpec(moduli)
    rng = random.Random(size)
    source = Multiset.from_elements(group, [(rng.choice(values),) for _ in range(size)])
    start = time.perf_counter()
    classes = fs_preimages(source.subset_sums())
    assert time.perf_counter() - start < 5
    assert any(source in cls for cls in classes)
    assert all(cls[0].subset_sums() == source.subset_sums() for cls in classes)


# -- regularity scans -----------------------------------------------------------------


@pytest.mark.parametrize(
    "group, max_size, bound",
    [(Z2, 4, None), (cyclic(4), 3, None), (cyclic(6), 3, None), (GroupSpec((2, 2)), 3, None),
     (GroupSpec((3, 0)), 2, 1), (Z, 3, 2), (Z, 1, 3), (GroupSpec((0, 0)), 2, 1),
     (GroupSpec((2, 0)), 3, 1), (cyclic(11), 2, None), (cyclic(21), 2, None)],
    ids=["Z2", "Z4", "Z6", "Z2xZ2", "Z3xZ", "Z", "Z-size1", "ZxZ", "Z2xZ", "Z11", "Z21"],
)
def test_scan_matches_bruteforce_oracle(group, max_size, bound):
    report = regularity_scan(group, max_size, bound=bound)
    checked, violations = scan_oracle(group, max_size, bound)
    assert report.checked == checked
    assert report.violations == violations


@pytest.mark.parametrize(
    "kwargs",
    [{"max_size": 0}, {"max_size": -1}, {"max_size": 2, "bound": -1},
     {"max_size": 2, "budget": 0}],
)
def test_scan_rejects_empty_ranges(kwargs):
    with pytest.raises(DomainError):
        regularity_scan(GroupSpec((3, 0)), **{"bound": 1, **kwargs})


def test_scan_walks_deeper_than_the_recursion_limit():
    size = sys.getrecursionlimit() + 100
    report = regularity_scan(GroupSpec(()), size)
    assert report.checked == size and report.exhaustive and not report.violations


def test_preimages_reject_negative_bound():
    with pytest.raises(DomainError):
        fs_preimages(ms(Z, 0, 1), bound=-1)


def test_scan_z2_finds_classic_violation():
    report = regularity_scan(Z2, 2)
    assert report.exhaustive
    assert (ms(Z2, 0, 1), ms(Z2, 1, 1)) in report.violations
    assert report.min_violation_size() == 2


def test_scan_z5_clean():
    report = regularity_scan(Z5, 3)
    assert report.exhaustive and not report.violations


def test_scan_z3_with_z_factor_clean():
    report = regularity_scan(GroupSpec((3, 0)), 2, bound=1)
    assert not report.violations
    assert not report.exhaustive  # bounded evidence only


@pytest.mark.parametrize(
    "group, max_size, bound, budget",
    [(Z2, 4, None, 4), (Z2, 4, None, 5), (Z2, 4, None, 13), (cyclic(4), 3, None, 20),
     (GroupSpec((3, 0)), 2, 1, 7), (Z5, 1, None, 3), (Z5, 2, None, 100), (Z, 3, 3, 17)],
)
def test_budgeted_scan_matches_oracle_prefix(group, max_size, bound, budget):
    report = regularity_scan(group, max_size, bound=bound, budget=budget)
    checked, violations = scan_oracle(group, max_size, bound, budget)
    assert report.checked == checked
    assert report.violations == violations
    everything, _ = scan_oracle(group, max_size, bound)
    assert report.exhaustive == (budget >= everything and group.is_finite())


def test_scan_budget_marks_non_exhaustive():
    report = regularity_scan(Z5, 3, budget=10)
    assert not report.exhaustive
    assert report.checked == 10


def test_budgeted_scan_of_a_large_cyclic_group_is_fast():
    """Z/8192 to size 13 picks count vectors, whose first 3,000 nodes hold
    few distinct sums: each step is a few shifts of one integer, whose
    length is that of its highest nonzero count."""
    start = time.perf_counter()
    report = regularity_scan(cyclic(8192), 13, budget=3000)
    assert time.perf_counter() - start < 0.3
    assert report.checked == 3000 and not report.exhaustive and report.violations == []


def test_scan_of_a_wide_box_stays_small():
    """Sums of two elements of [-10^6, 10^6] span a window of 4*10^6 + 1
    values: the first 20 multisets must not cost a count per value each."""
    tracemalloc.start()
    try:
        report = regularity_scan(Z, 2, bound=10**6, budget=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.checked == 20 and not report.exhaustive and report.violations == []
    assert peak < 2**20


def test_scan_of_a_cyclic_group_past_twice_its_sums_is_fast():
    """Z/33 has more than 2^(4 + 1) elements, yet a count vector is smaller
    than a key of the 2^4 sums of a multiset of size 4 as a map."""
    start = time.perf_counter()
    report = regularity_scan(cyclic(33), 4)
    assert time.perf_counter() - start < 0.6
    assert report.checked == 66044 and report.exhaustive and report.violations == []


def test_scan_report_serialization():
    report = regularity_scan(Z2, 2)
    obj = report.to_obj()
    assert obj["group"] == {"moduli": [2]}
    assert obj["exhaustive"] is True
    assert obj["min_violation_size"] == 2
    assert len(obj["violations"]) == 1


def test_scan_ignores_non_violating_extra_pairs():
    # The scan checks {1} and {4} but does not report them: their subset
    # sums differ, so they share no bucket.
    report = regularity_scan(Z5, 1)
    assert report.checked == 5
    assert ms(Z5, 1).subset_sums() != ms(Z5, 4).subset_sums()
    assert (ms(Z5, 1), ms(Z5, 4)) not in report.violations
    assert not report.violations


# -- the translation-cancellation property ----------------------------------------------


def test_add_subset_sums_z9():
    assert verify_add_subset_sums(cyclic(9), trials=300, seed=0)


def test_add_subset_sums_rejects_two_torsion():
    with pytest.raises(DomainError):
        verify_add_subset_sums(Z2, trials=1)
    with pytest.raises(DomainError):
        verify_add_subset_sums(GroupSpec((3, 4)), trials=1)


def test_add_subset_sums_over_z():
    assert verify_add_subset_sums(Z, trials=100, seed=1)


@pytest.mark.parametrize("moduli", [(9,), (7,), (0,), (3, 0)], ids=["Z9", "Z7", "Z", "Z3xZ"])
def test_step_times_fs_matches_enumeration(moduli):
    """A times FS(B) by the step that criterion 14 runs, in the encoding it
    runs it in: count vectors over Z/9 and Z/7, maps over Z and Z/3 x Z."""
    group = GroupSpec(moduli)
    space = sums_space(group, 7)
    assert isinstance(space, VectorSums) == group.is_finite()
    rng = random.Random(sum(moduli) + 14)

    def draw(lo, hi):
        return Multiset.from_elements(group, [_draw(group, rng, 2) for _ in range(rng.randint(lo, hi))])

    for _ in range(60):
        a, b = draw(1, 4), draw(0, 3)
        v = space.encode(a)
        for x, m in b.items():
            v = space.step(v, x.coords, m)
        assert Multiset(group, space.counts(v)) == times_fs_bruteforce(a, b), (a, b)


@pytest.mark.parametrize(
    "mutate", [lambda step: lambda self, v, shift, m=1: v,
               lambda step: lambda self, v, shift, m=1: step(self, v, [2 * c for c in shift], m)],
    ids=["identity", "double-shift"],
)
def test_translation_check_fails_under_a_wrong_step(monkeypatch, mutate):
    """Negative control: criterion 14 must catch a group-ring step that is
    not multiplication by 1 + t^shift, in both encodings."""
    for space in (sums_space(cyclic(9), 7), sums_space(Z, 7)):
        monkeypatch.setattr(type(space), "step", mutate(type(space).step))
    assert not verify_add_subset_sums(cyclic(9), trials=0)
    assert not verify_add_subset_sums(Z, trials=0)
    assert not run_criterion(14, quick=True).passed
