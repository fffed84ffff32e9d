import random
from fractions import Fraction

import pytest

from fsrecon.errors import DomainError
from fsrecon.radon import (
    FunctionTable,
    Hom,
    RadonImage,
    forward,
    fourier_invert_at_zero,
    inversion_weight,
    invert,
    iter_homs,
    iter_point_tuples,
    prime_divides_hom,
    product_lift,
    random_table,
    verify_inverting,
)


def criterion_oracle(weights, n, d):
    """Literal double loop over the criterion sums, all Fractions."""
    for x in iter_point_tuples(n, d):
        total = sum(
            (Fraction(weights(h)) for h in iter_homs(n, d) if h.apply(x) == 0),
            Fraction(0),
        )
        if total != (1 if all(c == 0 for c in x) else 0):
            return False
    return True


def fiber_sums_oracle(f):
    """Literal double loop over homomorphisms and points, all Fractions."""
    sums = {(h.coeffs, c): Fraction(0) for h in iter_homs(f.n, f.d) for c in range(f.n)}
    values = [(x, f.value(x)) for x in iter_point_tuples(f.n, f.d)]
    for h in iter_homs(f.n, f.d):
        for x, v in values:
            sums[h.coeffs, h.apply(x)] += v
    return sums


def weighted_slices_oracle(img, weights):
    """Literal sum of w(hom) Rf(hom, hom(x)) over all homs at every point x,
    all Fractions: what `invert` computes, inverting weights or not."""
    homs = [(h, Fraction(weights(h))) for h in iter_homs(img.n, img.d)]
    values = {
        x: sum((w * img.value(h.coeffs, h.apply(x)) for h, w in homs), Fraction(0))
        for x in iter_point_tuples(img.n, img.d)
    }
    return FunctionTable.from_values(img.n, img.d, values)


def huge_table(n, d, seed, big):
    """Values up to big in size; past int64 the kernel runs on several
    residue channels."""
    rng = random.Random(seed)
    values = {
        x: Fraction(rng.randint(-big, big), rng.choice((1, 7))) for x in iter_point_tuples(n, d)
    }
    return FunctionTable.from_values(n, d, values)


# Just under and over the int32 range, the one-channel bound 2^62 and int64.
BIGS = (2**31 - 1, 2**31 + 1, 2**62 - 1, 2**62 + 1, 2**63 - 1, 2**63 + 1, 2**200)


def big_tables(n, d, seed):
    """Random tables up to each of BIGS, and the constant tables +big and
    -big, whose zero-hom fiber sum at c = 0 is the kernel's bound itself."""
    for big in BIGS:
        yield huge_table(n, d, seed, big)
        yield FunctionTable.constant(n, d, big)
        yield FunctionTable.constant(n, d, -big)


def moved_weights(n, d, t, onto):
    """The closed-form weights with t moved from the hom (1, 0, ...) onto the
    hom with coefficients `onto` (dropped when None).  For odd n, (2, 0, ...)
    vanishes at the same points as (1, 0, ...), so moving t there keeps the
    weights inverting; moving it onto the zero hom keeps only their total."""
    source = (1,) + (0,) * (d - 1)

    def weights(h):
        w = inversion_weight(h)
        if h.coeffs == source:
            w -= t
        if h.coeffs == onto:
            w += t
        return w

    return weights


# -- forward ------------------------------------------------------------------


def test_forward_delta():
    img = forward(FunctionTable.delta(3, 2))
    for h in iter_homs(3, 2):
        for c in range(3):
            assert img.value(h.coeffs, c) == (1 if c == 0 else 0)


def test_forward_n2_d1_by_hand():
    f = FunctionTable.from_values(2, 1, {(0,): Fraction(1), (1,): Fraction(2)})
    img = forward(f)
    assert img.value((1,), 0) == 1
    assert img.value((1,), 1) == 2
    assert img.value((0,), 0) == 3
    assert img.value((0,), 1) == 0


def test_forward_constant_fiber_sizes():
    img = forward(FunctionTable.constant(3, 2, 1))
    assert img.value((0, 0), 0) == 9
    for h in iter_homs(3, 2):
        if not h.is_zero():
            for c in range(3):
                assert img.value(h.coeffs, c) == 3


@pytest.mark.parametrize("n,d", [(1, 2), (2, 1), (1, 1), (4, 2), (5, 3), (3, 4), (6, 2)])
def test_forward_matches_brute_force_fiber_sums(n, d):
    rng = random.Random(14)
    for f in (random_table(n, d, rng), *big_tables(n, d, seed=n * 10 + d)):
        img = forward(f)
        for (coeffs, c), total in fiber_sums_oracle(f).items():
            assert img.value(coeffs, c) == total


def test_mass_conservation_and_dilation_invariance():
    rng = random.Random(15)
    for n, d in ((5, 2), (6, 2), (9, 1)):
        f = random_table(n, d, rng)
        img = forward(f)
        assert img.mass_consistent()
        masses = img.mass_by_hom()
        assert all(m == f.total() for m in masses)
        units = [a for a in range(1, n) if __import__("math").gcd(a, n) == 1]
        for h in iter_homs(n, d):
            for a in units:
                scaled = tuple(a * v % n for v in h.coeffs)
                for c in range(n):
                    assert img.value(scaled, a * c % n) == img.value(h.coeffs, c)


# -- weights ------------------------------------------------------------------


def test_prime_divides_hom():
    assert prime_divides_hom(3, Hom(9, 2, (3, 6)))
    assert not prime_divides_hom(3, Hom(9, 2, (1, 3)))
    assert prime_divides_hom(3, Hom(9, 2, (0, 0)))
    with pytest.raises(DomainError):
        prime_divides_hom(5, Hom(9, 2, (1, 1)))


def test_prime_divides_hom_matches_literal_definition():
    for n in (9, 12):
        for h in iter_homs(n, 2):
            for p in (2, 3):
                if n % p:
                    continue
                literal = all(h.apply(x) % p == 0 for x in iter_point_tuples(n, 2))
                assert prime_divides_hom(p, h) == literal


def test_weight_values_prime_d1():
    for p in (3, 5, 7):
        assert inversion_weight(Hom(p, 1, (0,))) == 0
        for a in range(1, p):
            assert inversion_weight(Hom(p, 1, (a,))) == Fraction(1, p - 1)


def test_weight_values_n3_d2():
    assert inversion_weight(Hom(3, 2, (0, 0))) == Fraction(-1, 3)
    for h in iter_homs(3, 2):
        if not h.is_zero():
            assert inversion_weight(h) == Fraction(1, 6)


def test_weight_trivial_modulus():
    assert inversion_weight(Hom(1, 3, (0, 0, 0))) == 1


# -- criterion ------------------------------------------------------------------


def test_criterion_small_cases_against_oracle():
    for n, d in ((3, 2), (4, 2), (5, 1), (6, 2), (8, 2), (9, 2), (2, 3)):
        assert criterion_oracle(inversion_weight, n, d)
        assert verify_inverting(inversion_weight, n, d)


def test_criterion_rejects_zero_weights():
    assert not verify_inverting(lambda h: Fraction(0), 3, 2)


def test_criterion_rejects_corrupted_weights():
    def corrupted(h):
        w = inversion_weight(h)
        return w + 1 if h.is_zero() else w

    assert not verify_inverting(corrupted, 3, 2)
    assert not verify_inverting(corrupted, 3, 3)


def test_criterion_mid_size_numpy_paths():
    assert verify_inverting(inversion_weight, 15, 2)
    assert verify_inverting(inversion_weight, 7, 3)


@pytest.mark.parametrize("n,d", [(1, 2), (2, 1), (3, 1), (5, 3), (3, 4), (9, 2)])
def test_criterion_verdicts_match_oracle(n, d):
    # Moving 1/3 keeps int64; moving 10^30 forces Python integers.
    cases = [inversion_weight, lambda h: Fraction(0)]
    for t in (Fraction(1, 3), Fraction(10**30)) if n > 1 else ():
        cases += [moved_weights(n, d, t, None), moved_weights(n, d, t, (0,) * d)]
        if n % 2:
            cases.append(moved_weights(n, d, t, (2,) + (0,) * (d - 1)))
    for weights in cases:
        assert verify_inverting(weights, n, d) == criterion_oracle(weights, n, d)


# -- inversion ------------------------------------------------------------------


def test_round_trip_small():
    rng = random.Random(16)
    for n, d in ((5, 2), (9, 2), (4, 3), (2, 1), (1, 2)):
        f = random_table(n, d, rng)
        assert invert(forward(f)) == f


def test_round_trip_integer_valued():
    rng = random.Random(17)
    f = FunctionTable.from_values(
        9, 2, {x: Fraction(rng.randint(-50, 50)) for x in iter_point_tuples(9, 2)}
    )
    assert invert(forward(f)) == f


def test_delta_reconstructs():
    f = FunctionTable.delta(5, 2, at=(2, 4))
    assert invert(forward(f)) == f


def test_round_trip_huge_values():
    for n, d in ((5, 2), (4, 3), (1, 2)):
        for f in big_tables(n, d, seed=18):
            assert invert(forward(f)) == f


def test_round_trip_huge_weights():
    # Inverting weights past int64 take the same exact path, also on an
    # all-zero image.  Moved onto the zero hom they no longer invert, and
    # their huge parts no longer cancel.
    for g in (random_table(5, 3, random.Random(19)), FunctionTable.constant(5, 3, 0)):
        img = forward(g)
        assert invert(img, moved_weights(5, 3, Fraction(10**30), (2, 0, 0))) == g
        off = moved_weights(5, 3, Fraction(10**30), (0, 0, 0))
        assert invert(img, off) == weighted_slices_oracle(img, off)


def test_slice_locality():
    """Perturbing one image entry only moves the reconstruction at points
    whose slice through that homomorphism passes the perturbed residue."""
    rng = random.Random(20)
    f = random_table(5, 2, rng)
    img = forward(f)
    h, c0 = (2, 3), 4
    bumped = invert(img.perturbed(h, c0, Fraction(1, 3)))
    base = invert(img)
    hom = Hom(5, 2, h)
    for x in iter_point_tuples(5, 2):
        if hom.apply(x) != c0:
            assert bumped.value(x) == base.value(x)
        else:
            assert bumped.value(x) != base.value(x)


# -- product structure ------------------------------------------------------------


def test_product_lift_equals_closed_form():
    lifted = product_lift(inversion_weight, inversion_weight, 3, 5, 2)
    for h in iter_homs(15, 2):
        assert lifted(h) == inversion_weight(h)
    assert verify_inverting(lifted, 15, 2)


def test_product_lift_non_coprime():
    with pytest.raises(DomainError):
        product_lift(inversion_weight, inversion_weight, 3, 3, 2)


def test_product_lift_trivial_factor():
    lifted = product_lift(inversion_weight, inversion_weight, 1, 7, 2)
    for h in iter_homs(7, 2):
        assert lifted(h) == inversion_weight(h)


# -- the character-sum inverse ------------------------------------------------------


def test_fourier_delta():
    assert fourier_invert_at_zero(forward(FunctionTable.delta(3, 2))) == 1


def test_fourier_matches_value_at_zero():
    rng = random.Random(21)
    for n, d in ((3, 1), (5, 1), (9, 2), (2, 2), (4, 1)):
        f = random_table(n, d, rng)
        img = forward(f)
        assert fourier_invert_at_zero(img) == f.value((0,) * d)
        assert fourier_invert_at_zero(img) == invert(img).value((0,) * d)


def test_fourier_detects_corrupt_image():
    f = random_table(5, 1, random.Random(22))
    img = forward(f).perturbed((2,), 1, Fraction(1))
    with pytest.raises(DomainError):
        fourier_invert_at_zero(img)


# -- serialization ------------------------------------------------------------------


def test_image_json_round_trip():
    rng = random.Random(23)
    f = random_table(3, 2, rng)
    img = forward(f)
    text = img.to_json()
    again = RadonImage.from_json(text)
    assert again == img
    assert again.to_json() == text
    entries = img.to_obj()["entries"]
    assert entries == sorted(entries, key=lambda e: (e[0], e[1]))


def test_function_table_json_round_trip():
    rng = random.Random(24)
    f = random_table(3, 2, rng)
    assert FunctionTable.from_json(f.to_json()) == f


def test_files_write_values_in_lowest_terms():
    """Numerators share one denominator in memory, but files print each value
    the way Fraction does: "p/q" in lowest terms."""
    f = random_table(3, 2, random.Random(25))
    for row in f.to_obj()["values"] + forward(f).to_obj()["entries"]:
        fr = Fraction(row[-1])
        assert row[-1] == f"{fr.numerator}/{fr.denominator}"


def test_function_table_requires_complete_table():
    with pytest.raises(DomainError):
        FunctionTable.from_values(3, 1, {(0,): Fraction(1)})


@pytest.mark.parametrize("n,d", [(3, 0), (0, 2), (3, -1)])
def test_entry_points_reject_empty_dimensions(n, d):
    with pytest.raises(DomainError):
        verify_inverting(inversion_weight, n, d)
    with pytest.raises(DomainError):
        random_table(n, d, random.Random(0))
    with pytest.raises(DomainError):
        FunctionTable.from_obj({"n": n, "d": d, "values": [[[], "1/1"]]})
    with pytest.raises(DomainError):
        RadonImage.from_obj({"n": n, "d": d, "entries": [[[], 0, "1/1"]]})
