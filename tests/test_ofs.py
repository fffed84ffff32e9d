import math
import random

import pytest
from oracles import factorize_oracle, ord_oracle

from fsrecon.errors import DomainError, ResourceCapError
from fsrecon.ofs import (
    BRANCH_FULL_ORDER,
    BRANCH_HALF_MINUS_ONE,
    BRANCH_HALF_OK,
    BRANCH_LOW_ORDER,
    complement_up_to,
    divisors,
    factorize,
    is_member,
    is_member_bruteforce,
    list_up_to,
    ord_mod,
    totient,
)

WIEFERICH = 3511

# First members and first missing odd numbers (OEIS A333854 / A333855).
MEMBERS_THROUGH_29 = [1, 3, 5, 7, 9, 11, 13, 15, 19, 21, 23, 25, 27, 29]
MISSING_START = [17, 31, 33, 41, 43, 51]


def test_factorize_and_totient():
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert factorize(2**50 - 1) == (
        (3, 1), (11, 1), (31, 1), (251, 1), (601, 1), (1801, 1), (4051, 1)
    )
    # 2^50 has only small factors, but the factoring cap refuses it unseen.
    with pytest.raises(ResourceCapError):
        factorize(2**50)
    assert totient(1) == 1
    assert totient(9) == 6
    assert totient(3 * WIEFERICH) == 2 * (WIEFERICH - 1)
    assert divisors(45) == [1, 3, 5, 9, 15, 45]


def test_factorize_matches_trial_division_below_5000():
    for n in range(1, 5000):
        assert factorize(n) == factorize_oracle(n), n


def _prime_near(rng, bits):
    """A random prime of about `bits` bits, certified by trial division."""
    while True:
        p = rng.randrange(2 ** (bits - 1), 2**bits) | 1
        if factorize_oracle(p) == ((p, 1),):
            return p


@pytest.mark.parametrize("seed", range(6))
def test_factorize_semiprimes_and_prime_powers_near_2_50(seed):
    rng = random.Random(seed)
    p, q = sorted({_prime_near(rng, 25), _prime_near(rng, 25)})
    if p != q:
        assert factorize(p * q) == ((p, 1), (q, 1))
    assert factorize(p * p) == ((p, 2),)
    r, t = _prime_near(rng, 16), _prime_near(rng, 12)
    assert factorize(r**3) == ((r, 3),)
    assert factorize(t**4) == ((t, 4),)
    assert factorize(t**2 * p) == tuple(sorted([(t, 2), (p, 1)]))


@pytest.mark.parametrize("n", [561, 25326001, 3215031751, 2152302898747, 3474749660383,
                               341550071728321])
def test_factorize_splits_strong_pseudoprimes(n):
    """Carmichael numbers and strong pseudoprimes to the bases 2 up to 17."""
    parts = factorize(n)
    assert len(parts) > 1 and math.prod(p**e for p, e in parts) == n
    assert all(factorize_oracle(p) == ((p, 1),) for p, _ in parts)


def test_factorize_primes_just_below_the_cap():
    # 2^50 - 27 and 2^50 - 35 are the two largest primes below 2^50; trial
    # division up to 2^25 certified them once, too slowly to repeat here.
    for k in (27, 35):
        assert factorize(2**50 - k) == ((2**50 - k, 1),)
    assert factorize(2**50 - 29) == factorize_oracle(2**50 - 29)


def test_ord_mod_direct_iteration():
    # 2, 4, 8, 16, 15, 13, 9, 1 mod 17
    powers = []
    v = 1
    for _ in range(8):
        v = v * 2 % 17
        powers.append(v)
    assert powers == [2, 4, 8, 16, 15, 13, 9, 1]
    assert ord_mod(2, 17) == 8


def test_ord_mod_matches_direct_iteration_for_every_unit():
    for n in range(1, 151):
        for a in range(n):
            if math.gcd(a, n) == 1:
                assert ord_mod(a, n) == ord_oracle(a, n), (a, n)


def test_ord_mod_edges():
    assert ord_mod(1, 45) == 1
    assert ord_mod(2, 1) == 1
    with pytest.raises(DomainError):
        ord_mod(6, 9)


def test_ord_mod_wieferich_square():
    # The defining property of a Wieferich prime: p^2 | 2^(p-1) - 1.
    assert pow(2, WIEFERICH - 1, WIEFERICH**2) == 1
    assert (WIEFERICH - 1) % ord_mod(2, WIEFERICH**2) == 0


def test_membership_examples():
    assert is_member(15).member
    assert not is_member(17).member
    assert is_member(3 * WIEFERICH).member
    assert is_member(1).member


def test_membership_branches():
    assert is_member(5).branch == BRANCH_FULL_ORDER
    assert is_member(21).branch == BRANCH_HALF_OK
    assert is_member(33).branch == BRANCH_HALF_MINUS_ONE
    assert is_member(105).branch == BRANCH_LOW_ORDER
    for n in range(1, 400, 2):
        v = is_member(n)
        assert v.phi % v.ord2 == 0


def test_membership_domain_errors():
    with pytest.raises(DomainError):
        is_member(4)
    with pytest.raises(DomainError):
        is_member(0)
    with pytest.raises(DomainError):
        is_member_bruteforce(2)


def test_bruteforce_examples():
    assert is_member_bruteforce(9)
    assert not is_member_bruteforce(33)
    assert is_member_bruteforce(1)
    with pytest.raises(ResourceCapError):
        is_member_bruteforce(10**6 + 1)


def test_characterization_equals_bruteforce_small():
    for n in range(1, 302, 2):
        assert is_member(n).member == is_member_bruteforce(n), n


def test_list_examples():
    assert list_up_to(29) == MEMBERS_THROUGH_29
    assert complement_up_to(55)[:6] == MISSING_START
    assert list_up_to(1) == [1]
    with pytest.raises(ResourceCapError):
        list_up_to(10**6 + 1)
    with pytest.raises(ResourceCapError):
        complement_up_to(10**9)
    with pytest.raises(DomainError):
        list_up_to(0)


def test_divisor_stability():
    """Every divisor of a member is a member (checked through 2000)."""
    members = set(list_up_to(2000))
    for n in members:
        for d in divisors(n):
            assert d in members, (n, d)


def test_members_have_at_most_two_primes():
    for n in range(1, 100_001, 2):
        if is_member(n).member:
            assert len(factorize(n)) <= 2, n


def test_wieferich_multiples_not_members():
    assert not is_member(9 * WIEFERICH).member
    assert not is_member(WIEFERICH**2).member


def test_verdict_serialization():
    obj = is_member(21).to_obj()
    assert obj == {
        "n": 21,
        "member": True,
        "ord2": 6,
        "phi": 12,
        "branch": BRANCH_HALF_OK,
    }
