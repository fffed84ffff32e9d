import json
import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from oracles import image_value, perturbed, rows_json_oracle, table_from_values

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


def constant(n, d, value):
    return table_from_values(n, d, dict.fromkeys(iter_point_tuples(n, d), value))


def delta(n, d, at=None):
    """The indicator table of the point `at`, the origin by default."""
    at = at or (0,) * d
    return table_from_values(n, d, {x: int(x == at) for x in iter_point_tuples(n, d)})


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
        x: sum((w * image_value(img, h, apply(h, x, n)) for h, w in homs), Fraction(0))
        for x in iter_point_tuples(n, d)
    }
    return table_from_values(n, d, values)


def huge_table(n, d, seed, big):
    """Values up to big in size; past int64 the kernel runs on several
    residue channels."""
    rng = random.Random(seed)
    values = {
        x: Fraction(rng.randint(-big, big), rng.choice((1, 7))) for x in iter_point_tuples(n, d)
    }
    return table_from_values(n, d, values)


# Just under and over the int32 range, the one-channel bound 2^62 and int64.
BIGS = (2**31 - 1, 2**31 + 1, 2**62 - 1, 2**62 + 1, 2**63 - 1, 2**63 + 1, 2**200)


def big_tables(n, d, seed):
    """Random tables up to each of BIGS, and the constant tables +big and
    -big, whose zero-hom fiber sum at c = 0 is the kernel's bound itself."""
    for big in BIGS:
        yield huge_table(n, d, seed, big)
        yield constant(n, d, big)
        yield constant(n, d, -big)


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
    return table_from_values(n, d, values)


# -- forward ------------------------------------------------------------------


def test_forward_delta():
    img = forward(delta(3, 2))
    for h in iter_point_tuples(3, 2):
        for c in range(3):
            assert image_value(img, h, c) == (1 if c == 0 else 0)


def test_forward_n2_d1_by_hand():
    f = table_from_values(2, 1, {(0,): Fraction(1), (1,): Fraction(2)})
    img = forward(f)
    assert image_value(img, (1,), 0) == 1
    assert image_value(img, (1,), 1) == 2
    assert image_value(img, (0,), 0) == 3
    assert image_value(img, (0,), 1) == 0


def test_forward_constant_fiber_sizes():
    img = forward(constant(3, 2, 1))
    assert image_value(img, (0, 0), 0) == 9
    for h in iter_point_tuples(3, 2):
        if any(h):
            for c in range(3):
                assert image_value(img, h, c) == 3


@pytest.mark.parametrize("n,d", [(1, 2), (2, 1), (1, 1), (4, 2), (5, 3), (3, 4), (6, 2)])
def test_forward_matches_brute_force_fiber_sums(n, d):
    rng = random.Random(14)
    for f in (random_table(n, d, rng), *big_tables(n, d, seed=n * 10 + d)):
        img = forward(f)
        for (coeffs, c), total in fiber_sums_oracle(f).items():
            assert image_value(img, coeffs, c) == total


def test_mass_conservation_and_dilation_invariance():
    rng = random.Random(15)
    for n, d in ((5, 2), (6, 2), (9, 1)):
        f = random_table(n, d, rng)
        img = forward(f)
        for h in iter_point_tuples(n, d):
            assert sum(image_value(img, h, c) for c in range(n)) == f.total()
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        for h in iter_point_tuples(n, d):
            for a in units:
                scaled = tuple(a * v % n for v in h)
                for c in range(n):
                    assert image_value(img, scaled, a * c % n) == image_value(img, h, c)


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
    assert not verify_inverting(constant(3, 2, 0))


def test_criterion_rejects_corrupted_weights():
    for d in (2, 3):
        closed = inversion_weights(3, d)
        values = {h: closed.value(h) for h in iter_point_tuples(3, d)}
        values[(0,) * d] += 1
        assert not verify_inverting(table_from_values(3, d, values))


def test_criterion_mid_size_numpy_paths():
    assert verify_inverting(inversion_weights(15, 2))
    assert verify_inverting(inversion_weights(7, 3))


@pytest.mark.parametrize("n,d", [(1, 2), (2, 1), (3, 1), (5, 3), (3, 4), (9, 2)])
def test_criterion_verdicts_match_oracle(n, d):
    # Moving 1/3 keeps int64; moving 10^30 forces several residue channels.
    cases = [inversion_weights(n, d), constant(n, d, 0)]
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
    f = table_from_values(
        9, 2, {x: Fraction(rng.randint(-50, 50)) for x in iter_point_tuples(9, 2)}
    )
    assert invert(forward(f)) == f


def test_delta_reconstructs():
    f = delta(5, 2, at=(2, 4))
    assert invert(forward(f)) == f


def test_round_trip_huge_values():
    for n, d in ((5, 2), (4, 3), (1, 2)):
        for f in big_tables(n, d, seed=18):
            assert invert(forward(f)) == f


def test_round_trip_huge_weights():
    # Inverting weights past int64 take the same exact path, also on an
    # all-zero image.  Moved onto the zero hom they no longer invert, and
    # their huge parts no longer cancel.
    for g in (random_table(5, 3, random.Random(19)), constant(5, 3, 0)):
        img = forward(g)
        assert backproject(img, moved_weights(5, 3, Fraction(10**30), (2, 0, 0))) == g
        off = moved_weights(5, 3, Fraction(10**30), (0, 0, 0))
        assert backproject(img, off) == weighted_slices_oracle(img, off)


@pytest.mark.parametrize("delta", [Fraction(1, 3), Fraction(10**30)])
def test_invert_non_genuine_image_matches_oracle(delta):
    """`invert` does not validate its input: on an image that no table has,
    it still returns the closed-form weighted slice sums, exactly."""
    img = perturbed(forward(random_table(4, 2, random.Random(26))), (1, 3), 2, delta)
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
    bumped = invert(perturbed(img, h, c0, Fraction(1, 3)))
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
    assert fourier_invert_at_zero(forward(delta(3, 2))) == 1


def test_fourier_matches_value_at_zero():
    rng = random.Random(21)
    for n, d in ((3, 1), (5, 1), (9, 2), (2, 2), (4, 1)):
        f = random_table(n, d, rng)
        img = forward(f)
        assert fourier_invert_at_zero(img) == f.value((0,) * d)
        assert fourier_invert_at_zero(img) == invert(img).value((0,) * d)


def test_fourier_detects_corrupt_image():
    f = random_table(5, 1, random.Random(22))
    img = perturbed(forward(f), (2,), 1, Fraction(1))
    with pytest.raises(DomainError):
        fourier_invert_at_zero(img)


# -- serialization ------------------------------------------------------------------


def test_image_json_round_trip():
    rng = random.Random(23)
    f = random_table(3, 2, rng)
    img = forward(f)
    text = img.to_json()
    again = RadonImage.from_obj(json.loads(text))
    assert again == img
    assert again.to_json() == text
    entries = json.loads(text)["entries"]
    assert entries == sorted(entries, key=lambda e: (e[0], e[1]))


def test_function_table_json_round_trip():
    rng = random.Random(24)
    f = random_table(3, 2, rng)
    assert FunctionTable.from_obj(json.loads(f.to_json())) == f


def test_files_write_values_in_lowest_terms():
    """Numerators share one denominator in memory, but files print each value
    the way Fraction does: "p/q" in lowest terms."""
    f = random_table(3, 2, random.Random(25))
    rows = json.loads(f.to_json())["values"] + json.loads(forward(f).to_json())["entries"]
    for row in rows:
        fr = Fraction(row[-1])
        assert row[-1] == f"{fr.numerator}/{fr.denominator}"


# Zero, signs, both sides of 2^63 and a 201-bit numerator.
NUMERATORS = (0, 1, -1, 7, -12, 2**63 - 1, 2**63 + 1, -(2**63 + 1), 2**200, -(2**200))


@pytest.mark.parametrize("n,d", [(1, 1), (2, 3), (5, 2), (48, 1)])
@pytest.mark.parametrize("den", [1, 12, 3**90 * 2**7])
def test_files_are_the_json_of_the_rows(n, d, den, monkeypatch):
    rng = random.Random(n * d * den)
    for cls, size in ((FunctionTable, n**d), (RadonImage, n ** (d + 1))):
        table = cls(n, d, [rng.choice(NUMERATORS) for _ in range(size)], den)
        text = table.to_json()
        assert text == rows_json_oracle(table)
        assert cls.from_obj(json.loads(text)) == table
        with monkeypatch.context() as m:
            m.setattr(json, "loads", None)  # the written bytes are read without the decoder
            assert cls.from_obj(text) == table
            assert cls.from_obj(text + "\n") == table


def _swap_rows(text):
    doc = json.loads(text)
    rows = doc["values" if "values" in doc else "entries"]
    rows[1], rows[2] = rows[2], rows[1]
    return json.dumps(doc, separators=(",", ":"))


def _space_after_a_comma(text):
    at = text.index(",", len(text) // 2) + 1
    return f"{text[:at]} {text[at:]}"


def _other_kinds_key(text):
    if '"values"' in text:
        return text.replace('"values"', '"entries"', 1)
    return text.replace('"entries"', '"values"', 1)


_DIGITS = getattr(sys, "get_int_max_str_digits", int)()


# Text mutations of a written (Z/3)^2 document, and whether json.loads and
# the reader of decoded documents take the result.
@pytest.mark.parametrize(
    "mutate, parses",
    [
        (_swap_rows, True),
        (lambda t: t.replace("[[0,1],", "[[0,3],", 1), False),
        (lambda t: t.replace("/", "\\/", 1), True),
        (lambda t: t.replace("/", "/1\n1/", 1), False),
        (lambda t: re.sub(r'/[0-9]+"', '/0"', t, count=1), False),
        (lambda t: re.sub(r'/([0-9]+)"', r'/-\1"', t, count=1), False),
        (_space_after_a_comma, True),
        (lambda t: t[:-1] + ',"n":3}', True),
        (lambda t: t + "]", False),
        (_other_kinds_key, False),
        (lambda t: t.replace('"n":3', '"n":03', 1), False),
        (lambda t: t.replace('"d":2', '"d":200000', 1), False),
        (lambda t: t.replace('"d":2', '"d":2000000000', 1), False),
        (lambda t: t.replace("/", "/" + "1" * (_DIGITS or 5000), 1), not _DIGITS),
    ],
    ids=["swapped-rows", "coordinate-out-of-range", "escaped-slash", "raw-newline-in-a-value",
         "zero-denominator", "negative-denominator", "space-after-a-comma", "trailing-key",
         "trailing-bracket", "other-kinds-key", "zero-padded-n", "huge-d", "ten-digit-d",
         "value-past-the-digit-limit"],
)
@pytest.mark.parametrize("cls", [FunctionTable, RadonImage])
def test_text_reads_like_its_decoded_document(cls, mutate, parses):
    """Text that is not what to_json writes reads as json.loads of it would:
    to an equal table, or to the same error."""

    def outcome(read):
        try:
            return read()
        except (ValueError, ResourceCapError) as exc:
            return type(exc), str(exc)

    f = random_table(3, 2, random.Random(31))
    table = f if cls is FunctionTable else forward(f)
    text = mutate(table.to_json())
    assert text != table.to_json()
    got = outcome(lambda: cls.from_obj(text))
    assert got == outcome(lambda: cls.from_obj(json.loads(text)))
    assert (got == table) is parses


def test_stray_quotes_are_counted_before_the_text_is_split():
    text = '{"n":1,"d":1,"values":[' + '"' * 2_000_000 + "]}"
    tracemalloc.start()
    try:
        with pytest.raises(json.JSONDecodeError):
            FunctionTable.from_obj(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # one piece per quote would take 16 MB of pointers


def test_a_document_that_is_a_json_string_is_refused():
    text = forward(random_table(3, 1, random.Random(32))).to_json()
    with pytest.raises(DomainError, match="^expected a JSON object"):
        RadonImage.from_obj(json.dumps(text))


def _variants(doc, key, rng):
    """The document with its rows shuffled, and in order with each value
    rewritten in another form that Fraction reads: an int, "+p/q", a
    decimal, or "p/q" not in lowest terms."""
    shuffled = json.loads(json.dumps(doc))
    rng.shuffle(shuffled[key])
    rewritten = json.loads(json.dumps(doc))
    for k, row in enumerate(rewritten[key]):
        v = Fraction(row[-1])
        forms = [f"{3 * v.numerator}/{3 * v.denominator}"] + [f"+{row[-1]}"] * (v >= 0)
        if v.denominator == 1:
            forms += [v.numerator, str(v.numerator)]
        if 8 % v.denominator == 0:
            forms.append(str(v.numerator / v.denominator))
        row[-1] = forms[k % len(forms)]
    return shuffled, rewritten


def test_noncanonical_files_parse_like_the_canonical_one():
    rng = random.Random(27)
    f = random_table(4, 2, rng)
    for table, key in ((f, "values"), (forward(f), "entries")):
        doc = json.loads(table.to_json())
        for variant in _variants(doc, key, rng):
            assert variant != doc
            assert type(table).from_obj(variant) == table


def test_a_late_block_out_of_order_parses_and_names_its_rows():
    """Text that leaves the written form only in a late block of rows is read
    as the decoded document: the result, and an error's row index, are those
    of the whole document."""
    img = forward(random_table(12, 2, random.Random(28)))
    doc = json.loads(img.to_json())
    rows = doc["entries"]
    assert len(rows) == 1728
    rows[1200], rows[1300] = rows[1300], rows[1200]

    def forms():
        return doc, json.dumps(doc, separators=(",", ":"))

    for form in forms():
        assert RadonImage.from_obj(form) == img
    rows[1701][0] = [1.5, 0]
    for form in forms():
        with pytest.raises(DomainError, match=r"^entries\[1701\]\[0\]\[0\]: coordinate 1.5 is"):
            RadonImage.from_obj(form)
    rows[1701] = rows[0]
    for form in forms():
        with pytest.raises(DomainError, match="need exactly one entry"):
            RadonImage.from_obj(form)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="no digit limit")
def test_a_value_past_the_digit_limit_is_refused_at_its_row():
    doc = json.loads(forward(random_table(12, 2, random.Random(30))).to_json())
    doc["entries"][1700][2] = "1/" + "1" * (sys.get_int_max_str_digits() + 1)
    for form in doc, json.dumps(doc, separators=(",", ":")):
        with pytest.raises(DomainError, match=r"^entries\[1700\]\[2\]: malformed entry"):
            RadonImage.from_obj(form)


def test_rows_that_only_flatten_to_the_canonical_keys_are_refused():
    doc = json.loads(forward(random_table(3, 2, random.Random(29))).to_json())
    rows = doc["entries"]
    rows[0][0], rows[1][0] = [0, 0, 0], [0]
    with pytest.raises(DomainError, match=r"^entries\[0\]\[0\]: expected 2 coordinates"):
        RadonImage.from_obj(doc)


_TABLE_ROWS = [[[x], "1/2"] for x in range(3)]
_IMAGE_ROWS = [[[h], c, "1/3"] for h in range(3) for c in range(3)]


@pytest.mark.parametrize(
    "cls, rows, k, field, value, path",
    [
        (FunctionTable, _TABLE_ROWS, 1, 0, [1.5], "values[1][0][0]"),
        (FunctionTable, _TABLE_ROWS, 2, 1, "1/0", "values[2][1]"),
        (FunctionTable, _TABLE_ROWS, 1, 0, [1, 0], "values[1][0]"),
        (FunctionTable, _TABLE_ROWS, 1, None, [[1], "1/2", 3], "values[1]"),
        (RadonImage, _IMAGE_ROWS, 4, 0, ["1"], "entries[4][0][0]"),
        (RadonImage, _IMAGE_ROWS, 4, 1, 3, "entries[4][1]"),
        (RadonImage, _IMAGE_ROWS, 4, 2, None, "entries[4][2]"),
    ],
    ids=["coordinate", "value", "coordinate-count", "row-length",
         "image-coefficient", "image-residue", "image-value"],
)
def test_a_refused_row_names_its_bad_field(cls, rows, k, field, value, path):
    """Out of canonical order, rows are parsed one by one, and an error names
    the JSON path of the first bad field in the row, or the row when its
    shape is wrong."""
    rows = json.loads(json.dumps(rows))
    if field is None:
        rows[k] = value
    else:
        rows[k][field] = value
    key = "values" if cls is FunctionTable else "entries"
    with pytest.raises(DomainError, match="^" + re.escape(path) + ": "):
        cls.from_obj({"n": 3, "d": 1, key: rows})


def test_hand_written_values_parse():
    rows = [[[0], 7], [[1], "7"], [[2], "+1/2"], [[3], "1.5"], [[4], "-2/4"], [[5], "0/5"]]
    values = [7, 7, Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2), 0]
    table = FunctionTable.from_obj({"n": 6, "d": 1, "values": rows})
    assert [table.value((x,)) for x in range(6)] == values


def test_a_value_holding_two_ratios_is_refused_at_its_row():
    rows = [[[0], "1/2"], [[1], "1/2\n3/4"], [[2], "5/6"]]
    with pytest.raises(DomainError, match=r"^values\[1\]\[1\]: malformed entry"):
        FunctionTable.from_obj({"n": 3, "d": 1, "values": rows})


def test_function_table_requires_complete_table():
    with pytest.raises(DomainError):
        table_from_values(3, 1, {(0,): Fraction(1)})


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

