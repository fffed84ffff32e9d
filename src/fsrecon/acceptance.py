"""The shipped guarantees as one executable checklist.

Each criterion is a self-contained check over the library at its contractual
scale; ``run_all`` is what both the test suite and the ``selftest`` CLI
subcommand execute.  ``quick=True`` shrinks the scales for smoke runs (the
test suite always runs full scale).  ``corrupt_lambda=True`` injects a wrong
inversion weight so the criterion that certifies the inversion formula must
fail; it exists as a negative control for the harness itself.
"""
from __future__ import annotations

import itertools
import random
import time
from typing import Callable, NamedTuple

from . import counterexamples, cyclo, ofs, radon, search
from .errors import VerificationError
from .groups import GroupSpec, cyclic
from .multisets import Multiset, sim0_check

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all"]

MEMBERS_THROUGH_55 = [
    1, 3, 5, 7, 9, 11, 13, 15, 19, 21, 23, 25, 27, 29,
    35, 37, 39, 45, 47, 49, 53, 55,
]
MISSING_THROUGH_105 = [
    17, 31, 33, 41, 43, 51, 57, 63, 65, 73, 85, 89, 91, 93, 97, 99, 105,
]
WIEFERICH = 3511


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"ACCEPTANCE {self.number:2d} [{status}] {self.name}: {self.detail} ({self.seconds:.2f}s)"

    def to_obj(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "pass": self.passed,
            "detail": self.detail,
            "seconds": round(self.seconds, 3),
        }


def _c01_membership_lists(quick, rng, corrupt):
    members = ofs.list_up_to(55)
    missing = ofs.complement_up_to(105)
    ok = members == MEMBERS_THROUGH_55 and missing == MISSING_THROUGH_105
    return ok, f"members<=55: {len(members)}, missing<=105: {len(missing)}"


def _c02_characterization_vs_definition(quick, rng, corrupt):
    limit = 301 if quick else 2000
    bad = [
        n
        for n in range(1, limit + 1, 2)
        if ofs.is_member(n).member != ofs.is_member_bruteforce(n)
    ]
    return not bad, f"odd n <= {limit}, mismatches: {bad[:5]}"


def _c03_wieferich(quick, rng, corrupt):
    a = ofs.is_member(3 * WIEFERICH).member
    b = ofs.is_member(9 * WIEFERICH).member
    c = ofs.is_member(WIEFERICH**2).member
    return (a, b, c) == (True, False, False), f"3p: {a}, 9p: {b}, p^2: {c}"


def _c04_z2_counterexample(quick, rng, corrupt):
    pair = counterexamples.z2_pair()
    fs = pair.a.subset_sums()
    zero = pair.a.group.zero()
    one = pair.a.group.element((1,))
    profile_ok = fs.multiplicity(zero) == 2 and fs.multiplicity(one) == 2
    equal = fs == pair.a_prime.subset_sums()
    sim0 = sim0_check(pair.a, pair.a_prime)[0]
    return (
        profile_ok and equal and not sim0,
        f"subset sums equal: {equal}, zero-flip equivalent: {sim0}",
    )


def _c05_constructed_counterexamples(quick, rng, corrupt):
    limit, max_ord = (33, 10) if quick else (65, 14)
    moduli = [n for n in ofs.complement_up_to(limit) if ofs.ord_mod(2, n) <= max_ord]
    for n in moduli:
        counterexamples.build(n, "order")  # raises VerificationError unless verified
    return True, f"verified n = {moduli}"


def _round_trip_grid(quick) -> list[tuple[int, int]]:
    if quick:
        return [(2, 2), (3, 2), (4, 2), (2, 5), (5, 1), (6, 2), (9, 2)]
    pairs = []
    for d in range(2, 13):
        n = 2
        while n**d <= 4096:
            pairs.append((n, d))
            n += 1
    pairs += [(n, 1) for n in (1, 2, 3, 4, 5, 6, 9, 12, 16, 17, 33, 45, 64)]
    return pairs


def _c06_radon_round_trip(quick, rng, corrupt):
    tables = 3 if quick else 20
    pairs = _round_trip_grid(quick)
    for n, d in pairs:
        weights = radon.inversion_weights(n, d)
        for _ in range(tables):
            f = radon.random_table(n, d, rng)
            if radon.backproject(radon.forward(f), weights) != f:
                return False, f"round trip failed at (n, d) = ({n}, {d})"
    return True, f"{len(pairs)} moduli/dimension pairs x {tables} tables, bit-exact"


def _criterion_weights(n, d, corrupt) -> radon.FunctionTable:
    """The closed-form weights; with `corrupt`, the zero hom's weight is
    raised by 1."""
    w = radon.inversion_weights(n, d)
    if not corrupt:
        return w
    return radon.FunctionTable(n, d, [w._nums[0] + w._den, *w._nums[1:]], w._den)


def _c07_inverting_criterion(quick, rng, corrupt):
    limit = 9 if quick else 45
    pairs = [
        (n, d)
        for n in range(1, limit + 1, 2)
        for d in (1, 2, 3)
        if n**d <= 100_000
    ]
    for n, d in pairs:
        if not radon.verify_inverting(_criterion_weights(n, d, corrupt)):
            return False, f"criterion sums failed at (n, d) = ({n}, {d})"
    return True, f"criterion holds on {len(pairs)} odd (n, d) pairs"


def _c08_product_composition(quick, rng, corrupt):
    lifted = radon.product_lift(radon.inversion_weights(3, 2), radon.inversion_weights(5, 2))
    closed = radon.inversion_weights(15, 2)
    bad = [h for h in radon.iter_point_tuples(15, 2) if lifted.value(h) != closed.value(h)]
    return not bad, f"225 homomorphisms compared, mismatches: {bad[:3]}"


def _c09_fourier_oracle(quick, rng, corrupt):
    cases = 0
    while cases < 50:
        n = rng.choice((3, 5, 9))
        d = rng.choice((1, 2))
        f = radon.random_table(n, d, rng)
        img = radon.forward(f)
        via_weights = radon.invert(img).value((0,) * d)
        via_characters = radon.fourier_invert_at_zero(img)
        if via_weights != via_characters or via_characters != f.value((0,) * d):
            return False, f"disagreement at (n, d) = ({n}, {d})"
        cases += 1
    return True, "50 random cases, both inverses agree exactly"


def _c10_distribution_relations(quick, rng, corrupt):
    limit = 15 if quick else 45
    count = 0
    for n in range(1, limit + 1, 2):
        for c in cyclo.distribution_checks(n):
            if not c["pass"]:
                return False, f"relation failed at (n, p, j) = ({n}, {c['p']}, {c['j']})"
            count += 1
    return True, f"{count} relations hold exactly (odd n <= {limit})"


def _bridge_group(n, size_cap, rng, random_pairs):
    group = cyclic(n)
    by_fs: dict = {}
    by_sig: dict = {}
    # Every multiset of size <= size_cap once, the empty one too.
    for k in range(size_cap + 1):
        for seq in itertools.combinations_with_replacement(range(n), k):
            ms = Multiset.from_elements(group, seq)
            by_fs.setdefault(ms.subset_sums(), set()).add(seq)
            by_sig.setdefault(cyclo.unit_signature(ms), set()).add(seq)
    # The two partitions coincide iff subset-sums equality and the kernel
    # test agree on every pair.
    if set(map(frozenset, by_fs.values())) != set(map(frozenset, by_sig.values())):
        return False
    # Literal kernel test on random larger pairs.
    for _ in range(random_pairs):
        a = Multiset.from_elements(group, (rng.randrange(n) for _ in range(rng.randint(0, 5))))
        b = Multiset.from_elements(group, (rng.randrange(n) for _ in range(rng.randint(0, 5))))
        diff = [a.multiplicity(j) - b.multiplicity(j) for j in range(n)]
        if (a.subset_sums() == b.subset_sums()) != cyclo.kernel_test(n, diff):
            return False
    return True


def _c11_fs_kernel_bridge(quick, rng, corrupt):
    moduli = (3, 5) if quick else (3, 5, 9, 15)
    pairs = 50 if quick else 200
    for n in moduli:
        if not _bridge_group(n, 3, rng, pairs):
            return False, f"bridge failed over Z/{n}"
    return True, (
        f"exhaustive size <= 3 plus {pairs} random pairs per modulus {list(moduli)}"
    )


def _c12_rank_checks(quick, rng, corrupt):
    moduli = (1, 3, 9) if quick else (1, 3, 5, 7, 9, 15, 21, 25, 27)
    details = []
    for n in moduli:
        member, checks = cyclo.rank_checks(n)
        if not member or not all(c["pass"] for c in checks):
            return False, f"rank checks failed at n = {n}: {checks}"
        details.append(checks[1]["lattice_rank"])  # kernel_rank, after projection_surjectivity
    return True, f"kernel ranks {details} for n in {list(moduli)}"


def _c13_regularity_scans(quick, rng, corrupt):
    clean_cases = (
        [(cyclic(3), 3, None), (cyclic(5), 3, None), (GroupSpec((3, 3)), 2, None)]
        if quick
        else [
            (cyclic(3), 4, None),
            (cyclic(5), 4, None),
            (cyclic(7), 4, None),
            (cyclic(9), 4, None),
            (cyclic(15), 4, None),
            (GroupSpec((3, 3)), 3, None),
            (GroupSpec((3, 0)), 3, 2),
        ]
    )
    for group, max_size, bound in clean_cases:
        report = search.regularity_scan(group, max_size, bound=bound)
        if report.violations:
            return False, f"unexpected violation over {group}"
    z2_report = search.regularity_scan(cyclic(2), 2)
    if not z2_report.violations:
        return False, "Z/2 violation not found"
    pair = counterexamples.build(17, "order")
    a, b = pair.a, pair.a_prime
    if a.subset_sums(cap=a.cardinality) != b.subset_sums(cap=b.cardinality) or sim0_check(a, b)[0]:
        return False, "constructed Z/17 pair not flagged"
    return True, (
        f"{len(clean_cases)} clean scans; violations confirmed for Z/2 "
        f"and the constructed Z/17 pair (size {pair.a.cardinality})"
    )


def _c14_translation_cancellation(quick, rng, corrupt):
    trials = 50 if quick else 500
    for n in (9, 7):
        if not search.verify_add_subset_sums(cyclic(n), trials=trials, seed=rng.randrange(2**30)):
            return False, f"counterexample found over Z/{n}"
    return True, f"{trials} seeded trials per group plus exhaustive tiny cases"


CRITERIA: list[tuple[int, str, Callable]] = [
    (1, "membership lists match the published ones", _c01_membership_lists),
    (2, "order criterion equals covering definition", _c02_characterization_vs_definition),
    (3, "Wieferich-multiple memberships", _c03_wieferich),
    (4, "Z/2 counterexample pair", _c04_z2_counterexample),
    (5, "constructed counterexamples verify", _c05_constructed_counterexamples),
    (6, "Radon round trip is exact", _c06_radon_round_trip),
    (7, "inversion weights satisfy the criterion", _c07_inverting_criterion),
    (8, "coprime product composition of weights", _c08_product_composition),
    (9, "character-sum inverse agrees with weighted inverse", _c09_fourier_oracle),
    (10, "distribution relations hold exactly", _c10_distribution_relations),
    (11, "subset-sums equality equals the kernel test", _c11_fs_kernel_bridge),
    (12, "exact and interval rank certificates", _c12_rank_checks),
    (13, "regularity scans match the classification", _c13_regularity_scans),
    (14, "translation by subset sums cancels", _c14_translation_cancellation),
]


def run_criterion(
    number: int,
    quick: bool = False,
    seed: int = 0,
    corrupt_lambda: bool = False,
) -> CriterionResult:
    entry = next((c for c in CRITERIA if c[0] == number), None)
    if entry is None:
        raise ValueError(f"no criterion {number}")
    _, name, func = entry
    rng = random.Random(seed * 1000 + number)
    start = time.perf_counter()
    try:
        passed, detail = func(quick, rng, corrupt_lambda)
    except VerificationError as exc:  # a pair that failed its own construction check
        passed, detail = False, str(exc)
    return CriterionResult(number, name, passed, detail, time.perf_counter() - start)


def run_all(
    quick: bool = False, seed: int = 0, corrupt_lambda: bool = False
) -> list[CriterionResult]:
    return [
        run_criterion(num, quick=quick, seed=seed, corrupt_lambda=corrupt_lambda)
        for num, _, _ in CRITERIA
    ]
