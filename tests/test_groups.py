import random

import pytest

from fsrecon.errors import DomainError, GroupMismatchError
from fsrecon.groups import GroupElement, GroupSpec, cyclic
from oracles import iter_elements

Z = cyclic(0)
Z5 = cyclic(5)
Z7 = cyclic(7)
MIXED = GroupSpec((0, 3))


def test_add_modular_reduction():
    assert Z5.element((3,)) + Z5.element((4,)) == Z5.element((2,))


def test_add_mixed_group():
    assert MIXED.element((2, 2)) + MIXED.element((-2, 2)) == MIXED.element((0, 1))


def test_add_identity_random():
    rng = random.Random(0)
    zero = MIXED.zero()
    for _ in range(100):
        x = MIXED.element((rng.randint(-50, 50), rng.randint(0, 2)))
        assert x + zero == x


def test_add_requires_same_group():
    with pytest.raises(GroupMismatchError):
        Z5.element((1,)) + Z7.element((1,))


def test_neg():
    assert -Z7.element((3,)) == Z7.element((4,))
    assert -Z.element((5,)) == Z.element((-5,))
    assert -Z.zero() == Z.zero()


def test_neg_is_involution():
    rng = random.Random(1)
    for _ in range(50):
        x = MIXED.element((rng.randint(-99, 99), rng.randint(0, 2)))
        assert -(-x) == x
        assert x + (-x) == MIXED.zero()


def test_add_associative_commutative():
    rng = random.Random(2)
    g = GroupSpec((4, 0, 9))
    for _ in range(50):
        x, y, z = (
            g.element((rng.randint(0, 3), rng.randint(-9, 9), rng.randint(0, 8)))
            for _ in range(3)
        )
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)


def test_elements_are_canonical_however_built():
    rng = random.Random(3)
    g = GroupSpec((6, 0, 1))

    def draw():
        return [rng.choice([rng.randint(-20, 20), rng.randint(6, 99), -rng.randint(1, 99)])
                for _ in range(3)]

    for _ in range(200):
        c, d, k = draw(), draw(), rng.randint(-9, 9)
        x = GroupElement(tuple(c), g)
        assert x == g.element(c)
        assert 0 <= x.coords[0] < 6 and x.coords[1] == c[1] and x.coords[2] == 0
        y = g.element(d)
        assert x + y == g.element([a + b for a, b in zip(c, d)])
        assert hash(x + y) == hash(g.element([a + b for a, b in zip(c, d)]))
        assert -x == g.element([-a for a in c])
        assert k * x == g.element([k * a for a in c])
    for coords in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(DomainError):
            GroupElement(coords, g)
        with pytest.raises(DomainError):
            g.element(coords)


def test_enumerate_z3():
    assert [e.coords for e in iter_elements(cyclic(3))] == [(0,), (1,), (2,)]


def test_enumerate_z2_squared():
    g = GroupSpec((2, 2))
    assert [e.coords for e in iter_elements(g)] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_counts_and_distinct():
    g = GroupSpec((3, 3))
    elems = list(iter_elements(g))
    assert len(elems) == 9 == len(set(elems)) == g.size()


def test_enumerate_infinite_unsupported():
    with pytest.raises(DomainError):
        list(iter_elements(MIXED))


def test_invalid_moduli():
    with pytest.raises(DomainError):
        GroupSpec((3, -1))


def test_two_torsion():
    assert GroupSpec((2,)).has_two_torsion()
    assert GroupSpec((6, 0)).has_two_torsion()
    assert not GroupSpec((9, 0, 7)).has_two_torsion()
    assert not GroupSpec((1,)).has_two_torsion()


def test_scale():
    assert 3 * Z7.element((5,)) == Z7.element((1,))
    assert -2 * Z.element((4,)) == Z.element((-8,))


def test_json_round_trip():
    g = GroupSpec((0, 12))
    assert GroupSpec.from_obj(g.to_obj()) == g
    assert g.to_obj() == {"moduli": [0, 12]}
