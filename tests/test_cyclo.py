import cmath
import json
import math
import random
from fractions import Fraction
from functools import cache

import pytest
from oracles import field_mul_oracle, prime_unit_rank_oracle, root_power, unit_word_oracle

from fsrecon.cyclo import (
    RANK_CAP,
    canonical,
    cyclotomic_poly,
    distribution_checks,
    distribution_relation_vector,
    fold_exponents,
    kernel_rank_check,
    kernel_test,
    projection_surjectivity_check,
    rank_checks,
    sim0_lattice_basis,
    sim0_lattice_member,
    unit_group_rank,
    unit_signature,
    unit_word_eval,
    verify_distribution,
)
from fsrecon.cli import main
from fsrecon.errors import DomainError, ResourceCapError
from fsrecon.groups import cyclic
from fsrecon.multisets import Multiset
from fsrecon.ofs import divisors, is_member, prime_factors, totient


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# -- cyclotomic polynomials ----------------------------------------------------


def test_cyclotomic_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(9) == (1, 0, 0, 1, 0, 0, 1)


def test_cyclotomic_product_is_t_power_minus_one():
    for n in range(1, 31):
        prod = [1]
        for d in divisors(n):
            prod = poly_mul(prod, list(cyclotomic_poly(d)))
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected, n


def test_cyclotomic_degree_is_totient():
    for n in range(1, 40):
        assert len(cyclotomic_poly(n)) == totient(n) + 1


@cache
def cyclotomic_by_division(n):
    """t^n - 1 divided by the product of the lower cyclotomic polynomials,
    by long division: the definition, not the Mobius product."""
    den = [1]
    for d in divisors(n)[:-1]:
        lower = cyclotomic_by_division(d)
        out = [0] * (len(den) + len(lower) - 1)
        for i, x in enumerate(den):
            if x:
                for j, y in enumerate(lower):
                    out[i + j] += x * y
        den = out
    rem, top = [-1] + [0] * (n - 1) + [1], len(den) - 1
    terms = [(j, c) for j, c in enumerate(den) if c]
    quot = [0] * (n + 1 - top)
    for i in range(n, top - 1, -1):
        q = quot[i - top] = rem[i]
        if q:
            for j, c in terms:
                rem[i - top + j] -= q * c
    assert not any(rem), n
    return tuple(quot)


def test_cyclotomic_matches_long_division():
    for n in [*range(1, 301), 3705, 4095]:
        assert cyclotomic_poly(n) == cyclotomic_by_division(n), n


# -- field arithmetic ------------------------------------------------------------


def test_root_relations():
    w = root_power(3, 1)
    one = (1, 0)
    assert field_mul_oracle(3, field_mul_oracle(3, w, w), w) == one
    assert canonical(3, [0, 0, 0, 1]) == one
    assert canonical(3, [1, 1, 1]) == (0, 0)


def test_minimal_polynomial_kills_root():
    for n in range(1, 21):
        w = root_power(n, 1)
        zero = (0,) * totient(n)
        acc = zero
        for c in reversed(cyclotomic_poly(n)):
            acc = field_mul_oracle(n, acc, w)
            acc = (acc[0] + c,) + acc[1:]
        assert acc == zero, n
        assert canonical(n, cyclotomic_poly(n)) == acc, n


def test_power_matches_repeated_multiplication():
    for n in (1, 3, 9, 15):
        for j in range(n):
            coeffs = [0] * (j + 1)
            coeffs[0] += 1
            coeffs[j] += 1
            x = canonical(n, coeffs)  # 1 + w^j
            one = acc = canonical(n, [1])
            for e in range(10):
                word = [0] * n
                word[j] = e
                assert unit_word_eval(n, word) == (acc, one), (n, j, e)
                acc = field_mul_oracle(n, acc, x)


def test_rational_detection():
    assert canonical(9, [Fraction(2, 3)]) == (Fraction(2, 3), 0, 0, 0, 0, 0)
    assert any(root_power(9, 2)[1:])


# -- distribution relations -------------------------------------------------------


def test_distribution_n3():
    # (1+1)(1+w)(1+w^2) = 2 over the cube roots of unity.
    assert verify_distribution(3, 3, 0)


def test_distribution_n9_example():
    assert verify_distribution(9, 3, 1)


def test_distribution_n15_all():
    for p in (3, 5):
        for j in range(15 // p):
            assert verify_distribution(15, p, j)


def test_distribution_all_small_odd():
    for n in range(3, 46, 2):
        for p in prime_factors(n):
            for j in range(n // p):
                assert verify_distribution(n, p, j), (n, p, j)


def test_distribution_rejects_even():
    with pytest.raises(DomainError):
        verify_distribution(6, 3, 0)


def test_distribution_cap():
    assert verify_distribution(255, 17, 3)
    with pytest.raises(ResourceCapError):
        verify_distribution(1009, 1009, 0)


@pytest.mark.parametrize("n", [0, -3, 4])
def test_distribution_checks_refuse_the_domain_before_factoring(monkeypatch, n):
    monkeypatch.setattr("fsrecon.cyclo.prime_factors", lambda m: pytest.fail(f"factored {m}"))
    with pytest.raises(DomainError, match=rf"^n must be odd and positive, got {n}$"):
        distribution_checks(n)


@pytest.mark.parametrize("n", [1, 15, 255])
def test_distribution_checks_are_the_rows_cyclo_dist_prints(capsys, n):
    checks = distribution_checks(n)
    assert [(c["p"], c["j"]) for c in checks] == [
        (p, j) for p in prime_factors(n) for j in range(n // p)
    ]
    assert all(c["pass"] for c in checks)
    assert main(["--json", "cyclo", "dist", str(n)]) == 0
    assert json.loads(capsys.readouterr().out)["checks"] == checks


# -- exponent folding and unit words ----------------------------------------------


def test_fold_examples():
    e4 = [0] * 6
    e4[4] = 1
    assert fold_exponents(6, 3, e4) == (0, 1, 0)
    x = list(range(9))
    assert fold_exponents(9, 9, x) == tuple(x)
    assert fold_exponents(9, 3, [1] * 9) == (3, 3, 3)
    with pytest.raises(DomainError):
        fold_exponents(9, 4, [0] * 9)


def test_unit_word_empty_and_constants():
    num, den = unit_word_eval(3, (0, 0, 0))
    assert num == den == (1, 0)
    # Over the trivial conductor the only generator is 1 + 1 = 2.
    assert unit_word_eval(1, (3,)) == ((8,), (1,))
    # Negative exponents land in the denominator.
    assert unit_word_eval(1, (-2,)) == ((1,), (4,))


def test_unit_word_conjugate_generators_cancel():
    # (1 + w)(1 + w^2) = 1 for a primitive cube root.
    num, den = unit_word_eval(3, (0, 1, 1))
    assert num == den == (1, 0)
    # So the word with one of them inverted is (1 + w)^2, not 1.
    num, den = unit_word_eval(3, (0, 1, -1))
    generator = (1, 1)
    assert num == field_mul_oracle(3, field_mul_oracle(3, generator, generator), den)
    assert num != den


def test_unit_word_rejects_even_conductor():
    with pytest.raises(DomainError):
        unit_word_eval(4, (0, 0, 0, 0))
    with pytest.raises(DomainError):
        unit_word_eval(5, (0, 1, 0, 0))


def test_relation_vectors_in_kernel():
    for d in (3, 9, 15, 21):
        for p in prime_factors(d):
            for j in range(d // p):
                v = distribution_relation_vector(d, p, j)
                assert sum(v) == 1 - p
                num, den = unit_word_eval(d, v)
                assert num == den


# -- unit words against the factor-by-factor oracle ------------------------------


def oracle_fold(x, d):
    return [sum(x[r::d]) for r in range(d)]


def oracle_kernel_test(n, x):
    return all(
        num == den for num, den in (unit_word_oracle(d, oracle_fold(x, d)) for d in divisors(n))
    )


def oracle_signature(n, mu):
    return tuple((d, unit_word_oracle(d, oracle_fold(mu, d))[0]) for d in divisors(n))


def nudged(x, rng):
    """x with one seeded entry moved by -1 and by +1."""
    i = rng.randrange(len(x))
    return [tuple(v + s * (k == i) for k, v in enumerate(x)) for s in (-1, 1)]


def assert_matches_oracle(n, x):
    for d in divisors(n):
        folded = oracle_fold(x, d)
        assert unit_word_eval(d, folded) == unit_word_oracle(d, folded), (n, d, x)
    verdict = kernel_test(n, x)
    assert verdict == oracle_kernel_test(n, x), (n, x)
    group = cyclic(n)
    for part in ([max(v, 0) for v in x], [max(-v, 0) for v in x]):
        ms = Multiset(group, {(j,): m for j, m in enumerate(part)})
        assert unit_signature(ms) == oracle_signature(n, part), (n, part)
    return verdict


def test_relation_vectors_match_oracle_and_nudges_break_them():
    rng = random.Random(21)
    for n in range(1, 46, 2):
        for p in prime_factors(n):
            for j in range(n // p):
                v = distribution_relation_vector(n, p, j)
                num, den = unit_word_eval(n, v)
                assert num == den
                assert_matches_oracle(n, v)
                for w in nudged(v, rng):
                    num, den = unit_word_eval(n, w)
                    assert num != den and (num, den) == unit_word_oracle(n, w), (n, w)


def test_lattice_bases_match_oracle_and_nudges_are_rejected():
    rng = random.Random(22)
    for n in (9, 15, 21, 27, 33, 45):
        for v in sim0_lattice_basis(n):
            assert assert_matches_oracle(n, v)
            for w in nudged(v, rng):
                assert not assert_matches_oracle(n, w), (n, w)


def test_random_words_match_oracle():
    rng = random.Random(23)
    for n in (1, 3, 5, 9, 15, 21, 45):
        for _ in range(8):
            assert_matches_oracle(n, [rng.randint(-3, 3) for _ in range(n)])


# -- the kernel test ---------------------------------------------------------------


def test_kernel_examples():
    assert kernel_test(5, (0, 0, 0, 0, 0))
    assert kernel_test(5, (0, 1, 2, -2, -1))
    assert not kernel_test(3, (0, 1, -1))


def test_kernel_rejects_even():
    with pytest.raises(DomainError):
        kernel_test(6, (0,) * 6)


def test_lattice_membership():
    assert sim0_lattice_member(5, (0, 0, 0, 0, 0))
    assert sim0_lattice_member(5, (0, 1, 2, -2, -1))
    assert not sim0_lattice_member(5, (1, 0, 0, 0, 0))
    assert not sim0_lattice_member(5, (0, 1, 2, -2, 0))
    assert not sim0_lattice_member(5, (0, 1, 1, -1, -1))  # weighted sum 3


def test_lattice_basis_properties():
    for n in (1, 3, 5, 9, 15):
        basis = sim0_lattice_basis(n)
        assert len(basis) == (n - 1) // 2
        for v in basis:
            assert sim0_lattice_member(n, v)
            assert kernel_test(n, v)


def test_lattice_vectors_kill_logs_numerically():
    """Floating cross-check: kernel vectors annihilate the log magnitudes of
    the generators at every divisor level."""
    for n in (9, 15):
        for x in sim0_lattice_basis(n):
            for d in divisors(n):
                folded = fold_exponents(n, d, x)
                total = sum(
                    e * math.log(abs(1 + cmath.exp(2j * cmath.pi * j / d)))
                    for j, e in enumerate(folded)
                    if e
                )
                assert abs(total) < 1e-9


# -- rank certificates ---------------------------------------------------------------


def test_surjectivity_reports():
    assert projection_surjectivity_check(1) == {
        "n": 1,
        "rank": 1,
        "codomain_dim": 1,
        "surjective": True,
    }
    for n in (3, 9, 15):
        rep = projection_surjectivity_check(n)
        assert rep["surjective"], rep


def test_kernel_rank_reports():
    assert kernel_rank_check(3)["lattice_rank"] == 1
    rep9 = kernel_rank_check(9)
    assert rep9["lattice_rank"] == 4 and rep9["consistent"]
    assert kernel_rank_check(15)["lattice_rank"] == 7
    with pytest.raises(DomainError):
        kernel_rank_check(17)


def test_unit_rank():
    assert unit_group_rank(1) == {"n": 1, "rank": 1, "expected": 1, "consistent": True}
    for n in (7, 9):
        rep = unit_group_rank(n)
        assert rep["rank"] == totient(n) // 2 == rep["expected"] and rep["consistent"]


def test_unit_rank_is_certified_for_every_member_up_to_the_cap():
    """The interval elimination at RANK_PRECISION_BITS proves phi(n)/2 for
    every odd member n <= RANK_CAP."""
    members = [n for n in range(1, RANK_CAP + 1, 2) if is_member(n).member]
    assert len(members) == 18
    for n in members:
        rep = unit_group_rank(n)
        assert rep["rank"] == (totient(n) // 2 or 1) and rep["consistent"], rep


@pytest.mark.parametrize("p", [p for p in range(3, 44, 2) if prime_factors(p) == [p]])
def test_unit_rank_of_a_prime_matches_the_character_count(p):
    """Below phi(p)/2 exactly when 2 and -1 generate a proper subgroup of
    (Z/p)*, as for the non-members 17, 31, 41 and 43."""
    rep = unit_group_rank(p)
    assert rep["rank"] == prime_unit_rank_oracle(p)
    assert rep["consistent"] == is_member(p).member


def test_rank_checks_of_a_member_and_a_non_member():
    member, checks = rank_checks(9)
    assert member
    assert [(c["name"], c["pass"]) for c in checks] == [
        ("projection_surjectivity", True), ("kernel_rank", True), ("unit_rank", True)
    ]
    assert checks[1] == {"name": "kernel_rank", **kernel_rank_check(9), "pass": True}
    assert (checks[1]["lattice_rank"], checks[2]["rank"]) == (4, 3)
    member, checks = rank_checks(17)
    assert not member
    assert checks == [
        {"name": "projection_surjectivity", **projection_surjectivity_check(17), "pass": True}
    ]


def test_unit_rank_cap():
    with pytest.raises(ResourceCapError):
        unit_group_rank(RANK_CAP + 2)
    with pytest.raises(DomainError):
        unit_group_rank(4)


# -- bridge to subset sums ------------------------------------------------------------


def random_multiset(group, rng, size):
    n = group.moduli[0]
    return Multiset.from_elements(group, (rng.randint(0, n - 1) for _ in range(size)))


def mu_difference(a, b, n):
    out = [0] * n
    for x, m in a.items():
        out[x.coords[0]] += m
    for x, m in b.items():
        out[x.coords[0]] -= m
    return tuple(out)


def test_kernel_test_matches_subset_sums_equality():
    rng = random.Random(12)
    group = cyclic(9)
    seen_equal = 0
    for _ in range(250):
        a = random_multiset(group, rng, rng.randint(0, 4))
        b = random_multiset(group, rng, rng.randint(0, 4))
        same = a.subset_sums() == b.subset_sums()
        assert same == kernel_test(9, mu_difference(a, b, 9))
        seen_equal += same
    assert seen_equal  # the sample includes genuinely equal pairs


def test_unit_signature_matches_kernel_test():
    rng = random.Random(13)
    group = cyclic(15)
    for _ in range(120):
        a = random_multiset(group, rng, rng.randint(0, 4))
        b = random_multiset(group, rng, rng.randint(0, 4))
        same_sig = unit_signature(a) == unit_signature(b)
        assert same_sig == kernel_test(15, mu_difference(a, b, 15))
