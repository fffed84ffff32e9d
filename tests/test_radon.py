import math
import random
from fractions import Fraction

import pytest

from fsrecon.errors import DomainError, ResourceCapError
from fsrecon.radon import (
    FunctionTable,
    RadonImage,
    backproject,
    forward,
    fourier_invert_at_zero,
    inversion_weights,
    invert,
    iter_point_tuples,
    product_lift,
    random_table,
    verify_inverting,
)


def apply(h, x, n):
    """The homomorphism with coefficient vector h, at the point x."""
    return sum(a * b for a, b in zip(h, x)) % n


def criterion_oracle(weights):
    """Literal double loop over the criterion sums, all Fractions."""
    n, d = weights.n, weights.d
    homs = [(h, weights.value(h)) for h in iter_point_tuples(n, d)]
    for x in iter_point_tuples(n, d):
        total = sum((w for h, w in homs if apply(h, x, n) == 0), Fraction(0))
        if total != (1 if all(c == 0 for c in x) else 0):
            return False
    return True


def fiber_sums_oracle(f):
    """Literal double loop over homomorphisms and points, all Fractions."""
    n, d = f.n, f.d
    sums = {(h, c): Fraction(0) for h in iter_point_tuples(n, d) for c in range(n)}
    values = [(x, f.value(x)) for x in iter_point_tuples(n, d)]
    for h in iter_point_tuples(n, d):
        for x, v in values:
            sums[h, apply(h, x, n)] += v
    return sums


def weighted_slices_oracle(img, weights):
    """Literal sum of w(hom) Rf(hom, hom(x)) over all homs at every point x,
    all Fractions: what `backproject` computes, inverting weights or not."""
    n, d = img.n, img.d
    homs = [(h, weights.value(h)) for h in iter_point_tuples(n, d)]
    values = {
        x: sum((w * img.value(h, apply(h, x, n)) for h, w in homs), Fraction(0))
        for x in iter_point_tuples(n, d)
    }
    return FunctionTable.from_values(n, d, values)


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
    closed = inversion_weights(n, d)
    values = {h: closed.value(h) for h in iter_point_tuples(n, d)}
    values[(1,) + (0,) * (d - 1)] -= t
    if onto is not None:
        values[onto] += t
    return FunctionTable.from_values(n, d, values)


# -- forward ------------------------------------------------------------------


def test_forward_delta():
    img = forward(FunctionTable.delta(3, 2))
    for h in iter_point_tuples(3, 2):
        for c in range(3):
            assert img.value(h, c) == (1 if c == 0 else 0)


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
    for h in iter_point_tuples(3, 2):
        if any(h):
            for c in range(3):
                assert img.value(h, c) == 3


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
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        for h in iter_point_tuples(n, d):
            for a in units:
                scaled = tuple(a * v % n for v in h)
                for c in range(n):
                    assert img.value(scaled, a * c % n) == img.value(h, c)


# -- weights ------------------------------------------------------------------


def test_weights_match_the_literal_definition():
    """Each weight from its definition: the product of (1 - p^(d-1)) over the
    primes p | n with p | h(x) for every point x, over n^(d-1) phi(n), with
    the primes and phi(n) found by brute force."""
    d = 2
    for n in (9, 12, 15):
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
        phi = sum(math.gcd(k, n) == 1 for k in range(n))
        weights = inversion_weights(n, d)
        points = list(iter_point_tuples(n, d))
        for h in points:
            values = {apply(h, x, n) for x in points}
            expected = Fraction(1, n ** (d - 1) * phi)
            for p in primes:
                if all(v % p == 0 for v in values):
                    expected *= 1 - p ** (d - 1)
            assert weights.value(h) == expected


def test_weight_values_prime_d1():
    for p in (3, 5, 7):
        weights = inversion_weights(p, 1)
        assert weights.value((0,)) == 0
        for a in range(1, p):
            assert weights.value((a,)) == Fraction(1, p - 1)


def test_weight_values_n3_d2():
    weights = inversion_weights(3, 2)
    assert weights.value((0, 0)) == Fraction(-1, 3)
    for h in iter_point_tuples(3, 2):
        if any(h):
            assert weights.value(h) == Fraction(1, 6)


def test_weight_trivial_modulus():
    assert inversion_weights(1, 3).value((0, 0, 0)) == 1


# -- criterion ------------------------------------------------------------------


def test_criterion_small_cases_against_oracle():
    for n, d in ((3, 2), (4, 2), (5, 1), (6, 2), (8, 2), (9, 2), (2, 3)):
        weights = inversion_weights(n, d)
        assert criterion_oracle(weights)
        assert verify_inverting(weights)


def test_criterion_rejects_zero_weights():
    assert not verify_inverting(FunctionTable.constant(3, 2, 0))


def test_criterion_rejects_corrupted_weights():
    for d in (2, 3):
        closed = inversion_weights(3, d)
        values = {h: closed.value(h) for h in iter_point_tuples(3, d)}
        values[(0,) * d] += 1
        assert not verify_inverting(FunctionTable.from_values(3, d, values))


def test_criterion_mid_size_numpy_paths():
    assert verify_inverting(inversion_weights(15, 2))
    assert verify_inverting(inversion_weights(7, 3))


@pytest.mark.parametrize("n,d", [(1, 2), (2, 1), (3, 1), (5, 3), (3, 4), (9, 2)])
def test_criterion_verdicts_match_oracle(n, d):
    # Moving 1/3 keeps int64; moving 10^30 forces several residue channels.
    cases = [inversion_weights(n, d), FunctionTable.constant(n, d, 0)]
    for t in (Fraction(1, 3), Fraction(10**30)) if n > 1 else ():
        cases += [moved_weights(n, d, t, None), moved_weights(n, d, t, (0,) * d)]
        if n % 2:
            cases.append(moved_weights(n, d, t, (2,) + (0,) * (d - 1)))
    for weights in cases:
        assert verify_inverting(weights) == criterion_oracle(weights)


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
        assert backproject(img, moved_weights(5, 3, Fraction(10**30), (2, 0, 0))) == g
        off = moved_weights(5, 3, Fraction(10**30), (0, 0, 0))
        assert backproject(img, off) == weighted_slices_oracle(img, off)


@pytest.mark.parametrize("delta", [Fraction(1, 3), Fraction(10**30)])
def test_invert_non_genuine_image_matches_oracle(delta):
    """`invert` does not validate its input: on an image that no table has,
    it still returns the closed-form weighted slice sums, exactly."""
    img = forward(random_table(4, 2, random.Random(26))).perturbed((1, 3), 2, delta)
    assert invert(img) == weighted_slices_oracle(img, inversion_weights(4, 2))


def test_backproject_rejects_weights_of_another_grid():
    img = forward(random_table(3, 2, random.Random(27)))
    for weights in (inversion_weights(5, 2), inversion_weights(3, 1)):
        with pytest.raises(DomainError):
            backproject(img, weights)


def test_slice_locality():
    """Perturbing one image entry only moves the reconstruction at points
    whose slice through that homomorphism passes the perturbed residue."""
    rng = random.Random(20)
    f = random_table(5, 2, rng)
    img = forward(f)
    h, c0 = (2, 3), 4
    bumped = invert(img.perturbed(h, c0, Fraction(1, 3)))
    base = invert(img)
    for x in iter_point_tuples(5, 2):
        if apply(h, x, 5) != c0:
            assert bumped.value(x) == base.value(x)
        else:
            assert bumped.value(x) != base.value(x)


# -- product structure ------------------------------------------------------------


def test_product_lift_equals_closed_form():
    lifted = product_lift(inversion_weights(3, 2), inversion_weights(5, 2))
    assert lifted == inversion_weights(15, 2)
    assert verify_inverting(lifted)


def test_product_lift_multiplies_the_reduced_weights():
    wm, wn = moved_weights(3, 2, Fraction(1, 3), (2, 0)), inversion_weights(4, 2)
    lifted = product_lift(wm, wn)
    for h in iter_point_tuples(12, 2):
        reduced_m, reduced_n = tuple(a % 3 for a in h), tuple(a % 4 for a in h)
        assert lifted.value(h) == wm.value(reduced_m) * wn.value(reduced_n)


def test_product_lift_non_coprime():
    with pytest.raises(DomainError):
        product_lift(inversion_weights(3, 2), inversion_weights(3, 2))
    with pytest.raises(DomainError):
        product_lift(inversion_weights(3, 2), inversion_weights(5, 1))


def test_product_lift_trivial_factor():
    lifted = product_lift(inversion_weights(1, 2), inversion_weights(7, 2))
    assert lifted == inversion_weights(7, 2)


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
        inversion_weights(n, d)
    with pytest.raises(DomainError):
        random_table(n, d, random.Random(0))
    with pytest.raises(DomainError):
        FunctionTable.from_obj({"n": n, "d": d, "values": [[[], "1/1"]]})
    with pytest.raises(DomainError):
        RadonImage.from_obj({"n": n, "d": d, "entries": [[[], 0, "1/1"]]})


@pytest.mark.parametrize("n,d", [(100_000, 3), (3000, 3), (2, 40), (1, 30_000_000), (2, 23)])
def test_grids_past_the_size_cap_are_refused(n, d):
    with pytest.raises(ResourceCapError):
        inversion_weights(n, d)
    with pytest.raises(ResourceCapError):
        random_table(n, d, random.Random(0))

