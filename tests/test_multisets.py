import itertools
import json
import math
import random
import time

import pytest

from fsrecon.errors import DomainError, GroupMismatchError, ResourceCapError
from fsrecon.groups import GroupElement, GroupSpec, cyclic
from fsrecon.multisets import Multiset, VectorSums, sim0_check, sim_check, sums_space
from oracles import (
    CountLists,
    all_small_groups,
    expand,
    fs_bruteforce,
    flip,
    is_zero,
    iter_elements,
    iter_submultisets,
    sim0_oracle,
    sim_oracle,
)

Z = cyclic(0)
Z2 = cyclic(2)
Z3 = cyclic(3)
Z5 = cyclic(5)


def ms(group, *elements):
    return Multiset.from_elements(group, elements)


# -- multiset calculus --------------------------------------------------------


def test_scale_merges_counts():
    assert ms(Z5, 1, 2).scale(-1) == ms(Z5, 4, 3)
    assert ms(Z5, 1, 2, 4).scale(0) == Multiset(Z5, {Z5.zero(): 3})
    assert ms(Z5, 1, 3).scale(2) == ms(Z5, 2, 1)
    rng = random.Random(4)
    a = Multiset.from_elements(Z5, (rng.randint(0, 4) for _ in range(9)))
    assert a.scale(5).cardinality == a.scale(2).cardinality == a.cardinality


# -- subset sums ---------------------------------------------------------------


def test_subset_sums_over_z():
    assert ms(Z, 1, 2).subset_sums() == ms(Z, 0, 1, 2, 3)


def test_subset_sums_z2_collision():
    # The classic degenerate pair: {0,1} and {1,1} have the same subset sums.
    assert ms(Z2, 0, 1).subset_sums() == ms(Z2, 0, 0, 1, 1)
    assert ms(Z2, 1, 1).subset_sums() == ms(Z2, 0, 0, 1, 1)


def test_subset_sums_repeated_element():
    a = ms(Z3, 1, 1)
    assert a.subset_sums() == fs_bruteforce(a) == ms(Z3, 0, 1, 1, 2)


def test_subset_sums_cardinality_and_oracle():
    rng = random.Random(5)
    g = GroupSpec((4, 3))
    for _ in range(20):
        size = rng.randint(0, 5)
        a = Multiset.from_elements(
            g, ((rng.randint(0, 3), rng.randint(0, 2)) for _ in range(size))
        )
        fs = a.subset_sums()
        assert fs.cardinality == 2**size
        assert fs == fs_bruteforce(a)


@pytest.mark.parametrize("moduli", [(2, 3, 4), (4, 4), (1,), (6,), (), (3, 0), (2**21,)])
def test_subset_sums_match_bruteforce_oracle(moduli):
    # Finite groups of every shape, a group with a Z factor and one past
    # MAX_DISTINCT_SUMS elements; repeated elements in most draws.
    group = GroupSpec(moduli)
    rng = random.Random(sum(moduli) + len(moduli))
    for _ in range(40):
        pool = [[rng.randrange(m) if m else rng.randint(-4, 4) for m in moduli]
                for _ in range(rng.randint(1, 4))]
        a = Multiset.from_elements(group, (rng.choice(pool) for _ in range(rng.randint(0, 9))))
        fs = a.subset_sums()
        assert fs == fs_bruteforce(a)
        b = Multiset.from_elements(group, (rng.choice(pool) for _ in range(a.cardinality)))
        assert a.same_subset_sums(b) == (fs == fs_bruteforce(b))


def test_subset_sums_past_int64_counts():
    # 64 zeros put every one of the 2^64 subsets on one sum; 70 copies of
    # 1 over Z/3 give counts near 2^70 / 3.
    z = GroupSpec((1,))
    assert Multiset(z, {z.zero(): 64}).subset_sums(cap=64) == Multiset(z, {z.zero(): 2**64})
    a = Multiset(Z3, {Z3.element((1,)): 70})
    counts = [sum(math.comb(70, i) for i in range(r, 71, 3)) for r in range(3)]
    assert a.subset_sums(cap=70) == Multiset(Z3, {Z3.element((r,)): c for r, c in enumerate(counts)})
    assert not a.same_subset_sums(Multiset(Z3, {Z3.element((2,)): 70}), cap=70)
    assert a.same_subset_sums(Multiset(Z3, {Z3.element((1,)): 70}), cap=70)


def test_subset_sums_recursion():
    rng = random.Random(6)
    for _ in range(20):
        a = Multiset.from_elements(Z5, (rng.randint(0, 4) for _ in range(4)))
        x = Z5.element((rng.randint(0, 4),))
        bigger = Multiset(Z5, [*a.items(), (x, 1)])
        fs = a.subset_sums()
        shifted = [(y + x, m) for y, m in fs.items()]
        assert bigger.subset_sums() == Multiset(Z5, [*fs.items(), *shifted])


def test_subset_sums_cap(monkeypatch):
    a = Multiset(Z, {Z.element((1,)): 30})
    with pytest.raises(ResourceCapError):
        a.subset_sums()
    a.subset_sums(cap=30)
    # The distinct-sums cap, checked before each step.
    monkeypatch.setattr("fsrecon.multisets.MAX_DISTINCT_SUMS", 16)
    powers = [1, 2, 4, 8, 16]
    assert len(ms(Z, *powers[:4]).subset_sums().support()) == 16
    with pytest.raises(ResourceCapError):
        ms(Z, *powers).subset_sums()
    # A step of multiplicity m can multiply the count by m + 1 ...
    assert len(Multiset(Z, {Z.element((1,)): 15}).subset_sums().support()) == 16
    with pytest.raises(ResourceCapError):
        Multiset(Z, {Z.element((1,)): 16}).subset_sums()
    # ... but never past the size of a finite group.
    z16 = GroupSpec((16,))
    assert len(ms(z16, *powers).subset_sums().support()) == 16


@pytest.mark.parametrize(
    "moduli, shifts",
    [((9,), [(1,), (3,)]), ((5, 3), [(1, 1), (0, 2)]), ((0,), [(1,), (-3,)]),
     ((3, 0), [(1, 0), (2, 5)])],
    ids=["Z9", "Z5xZ3", "Z", "Z3xZ"],
)
def test_divide_undoes_step(moduli, shifts):
    """Division by 1 + t^s is the inverse of the step, with s of odd order
    in count vectors and maps and of infinite order in maps, on seeded
    nonnegative vectors whose support omits 0."""
    group = GroupSpec(moduli)
    space = sums_space(group, 7)
    assert isinstance(space, VectorSums) == group.is_finite()
    rng = random.Random(sum(moduli) + 24)
    for s in shifts:
        for _ in range(40):
            coords = [tuple(rng.randrange(m) if m else rng.randint(-4, 4) for m in moduli)
                      for _ in range(rng.randint(1, 6))]
            v = space.encode(Multiset.from_elements(group, [c for c in coords if any(c)]))
            assert space.divide(space.step(v, s), s) == v, (s, v)


@pytest.mark.parametrize(
    "moduli, shift, order", [((9,), (3,), 3), ((9,), (1,), 9), ((3, 0), (1, 0), 3)],
    ids=["Z9-order3", "Z9-order9", "Z3xZ-order3"],
)
def test_divide_refuses_an_odd_alternating_sum_on_a_cycle(moduli, shift, order):
    """One count on each point of a coset of <s>, whose odd length leaves an
    alternating sum of 1: twice a quotient's value would be odd."""
    group = GroupSpec(moduli)
    space = sums_space(group, 7)
    x, y = group.element(shift), group.element((1,) * len(moduli))
    v = space.encode(Multiset.from_elements(group, [k * x + y for k in range(order)]))
    assert space.divide(v, shift) is None


@pytest.mark.parametrize("moduli", [(9,), (3, 4), (0,)], ids=["Z9", "Z3xZ4", "Z"])
def test_divide_refuses_an_odd_count_at_zero(moduli):
    """Dividing by 1 + t^0 = 2 halves every count, and one count at 0 has
    no half: in a count vector its low bit is the lowest bit of all."""
    group = GroupSpec(moduli)
    space, zero = sums_space(group, 7), group.zero().coords
    assert space.divide(space.encode(Multiset.from_elements(group, [zero])), zero) is None
    assert space.divide(space.encode(Multiset(group, {zero: 2})), zero) == space.start


COUNT_VECTOR_GROUPS = [(9,), (12,), (3, 4), (2,) * 5, (4, 2)]
COUNT_VECTOR_IDS = ["Z9", "Z12", "Z3xZ4", "Z2^5", "Z4xZ2"]


def _odd_order(group, y) -> bool:
    return math.lcm(*[m // math.gcd(c, m) for c, m in zip(y, group.moduli)]) % 2 == 1


@pytest.mark.parametrize("moduli", COUNT_VECTOR_GROUPS, ids=COUNT_VECTOR_IDS)
def test_count_vectors_match_the_list_oracle(moduli):
    """Every operation of the packed count vectors against plain lists of
    counts: encode, counts, count, step (with m > 1), divide by elements of
    odd order, fits, and keys that are equal exactly when the vectors are.  Seeded multisets of up to four elements drawn from a small pool,
    so that equal vectors recur."""
    group = GroupSpec(moduli)
    space, lists = sums_space(group, 7), CountLists(group)
    assert isinstance(space, VectorSums)
    rng = random.Random(sum(moduli) + 26)
    pool = [tuple(rng.randrange(m) for m in moduli) for _ in range(4)]
    shifts = [x.coords for x in iter_elements(group)]
    odd = [y for y in shifts if _odd_order(group, y)]
    seen: dict[int, list] = {}
    for _ in range(60):
        a = Multiset.from_elements(group, rng.choices(pool, k=rng.randint(0, 4)))
        v, want = space.encode(a), lists.encode(a)
        assert Multiset(group, space.counts(v)) == Multiset(group, lists.counts(want))
        s, m = rng.choice(shifts), rng.randint(1, 3)
        w, want_w = space.step(v, s, m), lists.step(want, s, m)
        assert space.counts(w) == lists.counts(want_w)
        assert all(space.count(w, y) == lists.count(want_w, y) for y in shifts)
        assert space.fits(v, w) and space.fits(w, w)
        assert space.fits(w, v) == lists.fits(want_w, want)
        b = Multiset.from_elements(group, rng.choices(pool, k=2))
        assert space.fits(space.encode(b), w) == lists.fits(lists.encode(b), want_w)
        for y in rng.sample(odd, min(2, len(odd))):
            got, expect = space.divide(w, y), lists.divide(want_w, y)
            assert (got is None) == (expect is None), (a, s, m, y)
            if got is not None:
                assert space.counts(got) == lists.counts(expect)
        for vec, plain in ((v, want), (w, want_w)):
            for other, other_plain in seen.items():
                assert (space.key(vec) == space.key(other)) == (plain == other_plain)
            seen[vec] = plain


@pytest.mark.parametrize("moduli", COUNT_VECTOR_GROUPS, ids=COUNT_VECTOR_IDS)
@pytest.mark.parametrize("size", [5, 6, 8, 13, 14, 16])
def test_count_vectors_hold_counts_at_the_width_bound(moduli, size):
    """`size` copies of one element have the count 2^size at 0, the most a
    multiset of `size` elements can give: a slot a bit too narrow for it, or
    for the partial sums of a division, changes what comes back."""
    group = GroupSpec(moduli)
    space, lists = sums_space(group, size), CountLists(group)
    assert isinstance(space, VectorSums)
    zero, one = (0,) * len(moduli), (1,) * len(moduli)
    for y in (zero, one):
        v, want = space.step(space.start, y, size), lists.step(lists.start, y, size)
        assert space.counts(v) == lists.counts(want)
        assert space.count(v, zero) == want[0] and max(want) <= 2**size
        fewer = space.step(space.start, y, size - 1)
        assert space.fits(v, v) and space.fits(fewer, v) and not space.fits(v, fewer)
    base = space.step(space.start, zero, size - 1)
    for y in (x.coords for x in iter_elements(group)):
        if _odd_order(group, y):  # 0 too, stepping to 2^size
            assert space.divide(space.step(base, y), y) == base


def test_a_step_along_every_axis_of_a_large_group_is_fast():
    """One step by an element that moves all 16 axes of (Z/2)^16: a mask
    and two shifts per axis, with no loop over its 2^15 blocks."""
    group = GroupSpec((2,) * 16)
    space, one = sums_space(group, 16), group.element((1,) * 16)
    rng = random.Random(16)
    a = Multiset.from_elements(group, [tuple(rng.randrange(2) for _ in range(16)) for _ in range(16)])
    v = space.encode(a)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        w = space.step(v, one.coords)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.01
    assert w == v + space.encode(Multiset(group, {x + one: c for x, c in a.items()}))


# -- flip equivalences ---------------------------------------------------------


def test_sim_examples():
    assert sim_check(ms(Z5, 1, 2), ms(Z5, 1, 3))  # 3 = -2
    assert not sim_check(ms(Z2, 0, 1), ms(Z2, 1, 1))
    a = ms(Z5, 1, 1, 2)
    assert sim_check(a, a)


def test_sim0_trivial_on_equal():
    ok, witness = sim0_check(ms(Z5, 1, 4), ms(Z5, 4, 1))
    assert ok and witness.flip_set == Multiset(Z5, {}) and is_zero(witness.sum_check)


def test_sim0_forced_flip_fails():
    # Flipping both 1 and 2 is forced but the flip sum is 3, not 0; flipping
    # the whole of {1} to {4} is forced too, and its sum is 1.  Either flip
    # moves the subset sums.
    for a, b in ((ms(Z5, 1, 2), ms(Z5, 4, 3)), (ms(Z5, 1), ms(Z5, 4))):
        assert sim_check(a, b)
        assert sim0_check(a, b) == (False, None)
        assert not sim0_oracle(a, b)
        assert a.subset_sums() != b.subset_sums()


def test_sim0_z2_pair():
    ok, _ = sim0_check(ms(Z2, 0, 1), ms(Z2, 1, 1))
    assert not ok


def test_sim0_witness_is_valid():
    rng = random.Random(7)
    g = cyclic(9)
    for _ in range(200):
        a = Multiset.from_elements(g, (rng.randint(0, 8) for _ in range(4)))
        subs = [s for s, total in iter_submultisets(a) if is_zero(total)]
        b = flip(a, subs[rng.randrange(len(subs))])
        ok, witness = sim0_check(a, b)
        assert ok
        assert witness.flip_set in {sub for sub, _ in iter_submultisets(a)}
        assert is_zero(witness.sum_check)
        assert flip(a, witness.flip_set) == b


def test_sim_sim0_agree_with_exhaustive_oracle():
    """Positive side exhaustively (every flip of every small A), negative
    side on same-size non-flip pairs, over every abelian group of size <= 9,
    and over Z and Z/2 x Z with Z coordinates drawn from [-3, 3], where the
    orientation compares negative coordinates."""
    rng = random.Random(8)
    for g in [*all_small_groups(9), Z, GroupSpec((2, 0))]:
        ranges = [range(m) if m else range(-3, 4) for m in g.moduli]
        elements = [g.element(c) for c in itertools.product(*ranges)]
        for _ in range(60):
            size = rng.randint(0, 4)
            a = Multiset.from_elements(g, (rng.choice(elements) for _ in range(size)))
            for sub, total in iter_submultisets(a):
                b = flip(a, sub)
                assert sim_check(a, b)
                ok, witness = sim0_check(a, b)
                assert ok == sim0_oracle(a, b)
                if ok:
                    assert flip(a, witness.flip_set) == b
                    assert is_zero(witness.sum_check)
            other = Multiset.from_elements(
                g, (rng.choice(elements) for _ in range(size))
            )
            assert sim_check(a, other) == sim_oracle(a, other)
            ok, _ = sim0_check(a, other)
            assert ok == sim0_oracle(a, other)


def test_sim0_agrees_with_the_oracle_on_dependent_free_elements():
    """Self-negative elements drawn with repeats and sums among them, so
    that many are dependent, beside elements negated at random, over a group
    with three even moduli: whether the flip sum can be cancelled depends on
    every pivot of the free elements' span."""
    rng = random.Random(13)
    g = GroupSpec((4, 4, 2))
    frees = [x for x in iter_elements(g) if x == -x and not is_zero(x)]
    elements = list(iter_elements(g))
    for _ in range(150):
        a = ms(g, *rng.choices(frees, k=rng.randint(2, 5)),
               *rng.choices(elements, k=rng.randint(1, 3)))
        b = Multiset(g, [(-x if rng.random() < 0.5 else x, 1) for x in expand(a)])
        ok, witness = sim0_check(a, b)
        assert ok == sim0_oracle(a, b), (a, b)
        if ok:
            assert flip(a, witness.flip_set) == b and is_zero(witness.sum_check)


def test_flip_keeps_subset_sums_iff_zero_sum():
    """Zero-sum flips never change subset sums; general flips shift them by
    minus the flip total."""
    rng = random.Random(9)
    g = cyclic(7)
    for _ in range(100):
        a = Multiset.from_elements(g, (rng.randint(0, 6) for _ in range(4)))
        subs = list(iter_submultisets(a))
        sub, total = subs[rng.randrange(len(subs))]
        flipped = flip(a, sub)
        shifted = [(y - total, m) for y, m in a.subset_sums().items()]
        assert flipped.subset_sums() == Multiset(g, shifted)
        if is_zero(total):
            assert flipped.subset_sums() == a.subset_sums()


def test_sim_plus_equal_fs_implies_sim0_without_two_torsion():
    rng = random.Random(10)
    for g in (Z3, Z5, cyclic(9)):
        n = g.moduli[0]
        for _ in range(150):
            a = Multiset.from_elements(g, (rng.randint(0, n - 1) for _ in range(3)))
            b = Multiset.from_elements(g, (rng.randint(0, n - 1) for _ in range(3)))
            if sim_check(a, b) and a.subset_sums() == b.subset_sums():
                ok, _ = sim0_check(a, b)
                assert ok


# -- serialization ---------------------------------------------------------------


def test_json_round_trip_and_stability():
    a = Multiset(GroupSpec((0, 4)), {(-3, 2): 5, (1, 0): 1, (-3, 1): 2})
    text = a.to_json()
    assert Multiset.from_obj(json.loads(text)) == a
    assert text == (
        '{"group":{"moduli":[0,4]},'
        '"elements":[[[-3,1],2],[[-3,2],5],[[1,0],1]]}'
    )
    assert Multiset.from_obj(json.loads(text)).to_json() == text


def test_rejects_wrong_group_elements():
    with pytest.raises(DomainError):
        Multiset(Z5, {Z3.element((1,)): 1})


@pytest.mark.parametrize(
    "pairs",
    [[((1.5,), 1.9)], [(("3",), "2")], [((None,), 1)], [((2.0,), 1)], [((1,), 1.9)],
     [((1,), "2")], [((1,), None)], [(2.0, 1)]],
    ids=["float", "str", "none", "integral-float", "float-count", "str-count", "none-count",
         "float-key"],
)
def test_rejects_non_integer_coordinates_and_counts(pairs):
    """Coordinates and counts are integers, never converted from anything
    else: each of these raises DomainError, not a bare TypeError, and so
    does ``GroupSpec.element`` on each bad coordinate sequence or non-sequence."""
    with pytest.raises(DomainError):
        Multiset(Z5, pairs)
    (coords, _), = pairs
    if coords != (1,):
        with pytest.raises(DomainError):
            Z5.element(coords)


def test_multiset_keys_are_canonical_coordinates():
    """Elements, coordinate tuples and lists, and ints on a one-factor group
    key one multiset, with non-canonical coordinates reduced; the public
    accessors still give elements of the group, in coordinate order."""
    two, four = Z5.element((2,)), Z5.element((4,))
    forms = [
        {two: 2, four: 1},
        {(7,): 2, (-1,): 1},
        [([2], 1), ([-3], 1), ([9], 1)],
        [(7, 1), (-3, 1), (4, 1)],
        [(two, 1), ((7,), 1), (-1, 1)],
    ]
    sets = [Multiset(Z5, form) for form in forms]
    assert all(a == sets[0] and hash(a) == hash(sets[0]) for a in sets)
    a = sets[1]
    assert a.support() == [two, four] and all(type(x) is GroupElement for x in a.support())
    assert a.items() == [(two, 2), (four, 1)] and all(x.group == Z5 for x, _ in a.items())
    assert all(a.multiplicity(key) == 2 for key in (two, (7,), [-3], 12, (2,)))
    assert a.multiplicity((3,)) == 0
    assert type(a.total()) is GroupElement and a.total() == Z5.element((3,))

    g = GroupSpec((0, 3))
    want = Multiset(g, {g.element((-5, 0)): 1, g.element((-2, 1)): 1, g.element((3, 2)): 2})
    assert Multiset(g, {(-2, 4): 1, (3, -1): 2, (-5, 6): 1}) == want
    assert Multiset(g, [([3, 5], 1), ([-5, -3], 1), ([-2, 1], 1), ((3, 2), 1)]) == want
    assert [x.coords for x in want.support()] == [(-5, 0), (-2, 1), (3, 2)]
    assert all(x.group == g for x in want.support())
    assert want.multiplicity([3, -4]) == 2 and want.total() == g.element((-1, 2))

    with pytest.raises(GroupMismatchError):
        Multiset(Z5, {Z3.element((1,)): 1})
    with pytest.raises(GroupMismatchError):
        a.multiplicity(cyclic(7).element((2,)))


def test_sim0_decides_thirty_one_free_elements_quickly():
    """Over Z/4 x (Z/2)^30 the self-negative elements form (Z/2)^31.  With
    31 independent ones free, only all of them together sum to their total,
    so a search over subsets of the frees would try about 2^31 of them."""
    rank = 31
    g = GroupSpec((4,) + (2,) * (rank - 1))
    rng = random.Random(12)

    def element(bits):
        return g.element((2 * bits[0],) + tuple(bits[1:]))

    # A unit upper-triangular mix of the standard basis stays independent.
    frees = []
    for i in range(rank):
        bits = [0] * i + [1] + [rng.randrange(2) for _ in range(rank - i - 1)]
        frees.append(element(bits))
    s = g.zero()
    for x in frees:
        s = s + x
    y = g.element((1,) + tuple(rng.randrange(2) for _ in range(rank - 1)))
    z = s - y
    w = g.element((3,) + tuple(rng.randrange(2) for _ in range(rank - 1)))
    pairs = [
        (ms(g, *frees, y, z), ms(g, *frees, -y, -z), True),
        (ms(g, *frees, w), ms(g, *frees, -w), False),
    ]
    for a, b, equivalent in pairs:
        start = time.perf_counter()
        ok, witness = sim0_check(a, b)
        assert time.perf_counter() - start < 1.0
        assert ok is equivalent and sim_check(a, b)
        if ok:
            assert is_zero(witness.sum_check)
            assert flip(a, witness.flip_set) == b
            assert all(witness.flip_set.multiplicity(x) == 1 for x in frees)
