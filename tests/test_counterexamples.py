import math

import pytest

from fsrecon.counterexamples import build, z2_pair
from fsrecon.errors import DomainError, ResourceCapError
from fsrecon.multisets import Multiset, sim0_check, sim_check
from fsrecon.ofs import complement_up_to, ord_mod
from oracles import is_zero, iter_elements


def test_build_17_order_mode():
    # {+-2^j mod 17} = {1,2,4,8,9,13,15,16}; the least unit outside is 3.
    signed_powers = {pow(2, j, 17) for j in range(8)} | {
        17 - pow(2, j, 17) for j in range(8)
    }
    assert signed_powers == {1, 2, 4, 8, 9, 13, 15, 16}
    pair = build(17, "order")
    assert (pair.d, pair.k) == (8, 3)
    assert pair.verified
    assert pair.a.cardinality == 8 == pair.a_prime.cardinality


def test_build_31_order_mode():
    powers = {pow(2, j, 31) for j in range(5)}
    assert powers == {1, 2, 4, 8, 16}
    assert {31 - p for p in powers} == {30, 29, 27, 23, 15}
    pair = build(31, "order")
    assert (pair.d, pair.k) == (5, 3)


def test_build_rejects_bad_inputs():
    with pytest.raises(DomainError):
        build(2)
    with pytest.raises(DomainError):
        build(15)  # covered modulus, no counterexample exists
    with pytest.raises(DomainError):
        build(17, "fancy")


def test_build_totient_mode():
    pair = build(17, "totient")
    assert pair.d == 16
    assert pair.a.subset_sums(cap=16).cardinality == 2**16
    assert pair.verified


def test_build_exponent_cap():
    with pytest.raises(ResourceCapError):
        build(73, "totient")  # d = phi(73) = 72 > MAX_EXPONENT


def test_build_refuses_more_distinct_sums_than_the_cap(monkeypatch):
    # n = 2^31 - 1 has d = 31, so verification would hold 2^31 distinct sums;
    # n = 2^24 - 1 has d = 24 and would hold 2^24 - 1, past MAX_DISTINCT_SUMS.
    # Stub the sums, so that a missing guard fails here instead of filling memory.
    for name in ("subset_sums", "same_subset_sums"):
        monkeypatch.setattr(Multiset, name, lambda *a, **k: pytest.fail("sums built"))
    for n in (2**31 - 1, 16777215):
        with pytest.raises(ResourceCapError):
            build(n)


def test_pairs_are_not_flip_equivalent_at_all():
    # The construction makes A and A' disjoint even up to sign, so plain
    # flip equivalence already fails.
    pair = build(33, "order")
    assert not sim_check(pair.a, pair.a_prime)
    ok, _ = sim0_check(pair.a, pair.a_prime)
    assert not ok


def test_uniform_subset_sums_profile():
    """In order mode the subset sums cover 0 once more than everything else:
    (2^d - 1)/n copies of every residue, plus the empty-set zero."""
    for n in (17, 33):
        pair = build(n, "order")
        fs = pair.a.subset_sums(cap=pair.d)
        q, r = divmod(2**pair.d - 1, n)
        assert r == 0
        for x in iter_elements(pair.a.group):
            expected = q + 1 if is_zero(x) else q
            assert fs.multiplicity(x) == expected


def test_all_small_non_members_verify():
    for n in complement_up_to(65):
        if ord_mod(2, n) <= 14:
            pair = build(n, "order")
            assert pair.verified
            assert math.gcd(pair.k, n) == 1


def test_z2_pair():
    pair = z2_pair()
    group = pair.a.group
    assert group.moduli == (2,)
    fs = pair.a.subset_sums()
    assert fs == pair.a_prime.subset_sums()
    assert fs.multiplicity(group.zero()) == 2 == fs.multiplicity(group.element((1,)))
    assert fs.cardinality == 4
    ok, _ = sim0_check(pair.a, pair.a_prime)
    assert not ok
    assert pair.d is None and pair.k is None


def test_pair_serialization():
    pair = build(17)
    obj = pair.to_obj()
    assert obj["n"] == 17 and obj["verified"]
    assert obj["a"]["group"] == {"moduli": [17]}
