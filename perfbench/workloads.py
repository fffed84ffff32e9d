"""The four fsrecon benchmark workloads: seeded inputs, the command list of one
job, the exit code each command must return, and output checks.

Every check here is independent of fsrecon: nothing in this file imports it.
Inputs are generated with plain Python from the workload seed, and outputs are
compared against plain-integer recomputations (direct fiber summation, count
vector convolution, brute-force flip search) or against how an input was
built.  A check returns a list of problems; an empty list means the output is
right.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

__all__ = ["Command", "Workload", "WORKLOADS", "build", "build_radon"]


@dataclass
class Command:
    """One fsrecon invocation.  ``args`` is the argv after ``fsrecon``; file
    names in it are relative to the work directory the command runs in."""

    label: str
    args: list[str]
    expect_exit: int
    check: Callable[[str], list[str]]
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    commands: list[Command]
    props: dict


# -- plain helpers ---------------------------------------------------------------


def _frac_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dump(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))


def _multiset_obj(moduli: list[int], elements) -> dict:
    """fsrecon's multiset file format; elements are coordinate tuples."""
    counts = Counter(tuple(e) for e in elements)
    return {
        "group": {"moduli": list(moduli)},
        "elements": [[list(x), m] for x, m in sorted(counts.items())],
    }


def _multiset_from_obj(obj: dict) -> tuple:
    """A multiset file object as a sorted tuple of coordinate tuples."""
    out = []
    for coords, m in obj["elements"]:
        out.extend([tuple(coords)] * m)
    return tuple(sorted(out))


def _json_stdout(stdout: str, problems: list[str]):
    try:
        return json.loads(stdout)
    except ValueError:
        problems.append(f"stdout is not JSON: {stdout[:80]!r}")
        return None


def plain_subset_sums(elements, modulus: int) -> tuple:
    """Subset sums of integers, as sorted (sum, count) pairs.  A modulus of 0
    means the integers; otherwise sums are taken mod ``modulus`` with a count
    vector and one convolution per element."""
    if modulus:
        v = [1] + [0] * (modulus - 1)
        for a in elements:
            v = [v[i] + v[(i - a) % modulus] for i in range(modulus)]
        return tuple((s, c) for s, c in enumerate(v) if c)
    sums = Counter({0: 1})
    for a in elements:
        nxt = Counter(sums)
        for s, c in sums.items():
            nxt[s + a] += c
        sums = nxt
    return tuple(sorted(sums.items()))


def zero_flip_equivalent(a: tuple, b: tuple, modulus: int) -> bool:
    """Brute force over every subset S of a (as positions): does negating a
    zero-sum S turn a into b?  Integers a, b; modulus 0 means Z."""
    def red(x):
        return x % modulus if modulus else x

    target = tuple(sorted(b))
    for mask in range(1 << len(a)):
        flipped = [a[i] for i in range(len(a)) if mask >> i & 1]
        if red(sum(flipped)) != 0:
            continue
        kept = [a[i] for i in range(len(a)) if not mask >> i & 1]
        if tuple(sorted(kept + [red(-x) for x in flipped])) == target:
            return True
    return False


def plain_scan(modulus: int, max_size: int, bound: int | None) -> tuple[int, set]:
    """The regularity scan redone by hand over Z/modulus (or Z with
    coordinates in [-bound, bound]): the number of multisets checked and the
    set of unordered violating pairs."""
    elements = range(modulus) if modulus else range(-bound, bound + 1)
    buckets: dict[tuple, list[tuple]] = {}
    checked = 0
    for size in range(1, max_size + 1):
        for combo in itertools.combinations_with_replacement(elements, size):
            checked += 1
            buckets.setdefault(plain_subset_sums(combo, modulus), []).append(combo)
    violations = set()
    for members in buckets.values():
        for a, b in itertools.combinations(members, 2):
            if not zero_flip_equivalent(a, b, modulus):
                violations.add(frozenset((a, b)))
    return checked, violations


# -- radon -------------------------------------------------------------------------

_SAMPLED_ENTRIES = 24


def _radon_values(n: int, d: int, rng, wide: bool) -> list[Fraction]:
    points = n**d
    if not wide:
        # Small denominators: the common denominator stays tiny, so fsrecon
        # takes its int64 path.
        return [
            Fraction(rng.randint(-99, 99), rng.choice((1, 2, 3, 4, 6, 8)))
            for _ in range(points)
        ]
    # Twelve two-digit primes, each the denominator of an equal share of the
    # points: the common denominator is their 76-bit product on every seed,
    # past the int64 bound, so the arbitrary-precision object path runs and
    # its cost does not depend on the seed.
    primes = [53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103]
    dens = [primes[i % len(primes)] for i in range(points)]
    rng.shuffle(dens)
    return [Fraction(rng.randint(-10**6, 10**6), q) for q in dens]


def build_radon(name: str, n: int, d: int, seed: int, work: Path) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    points = list(itertools.product(range(n), repeat=d))
    values = _radon_values(n, d, rng, wide=name == "radon-wide")
    _dump(
        work / "table.json",
        {"n": n, "d": d, "values": [[list(x), _frac_str(v)] for x, v in zip(points, values)]},
    )
    den = math.lcm(*(v.denominator for v in values))
    nums = [v.numerator * (den // v.denominator) for v in values]
    total_mass = sum(nums)

    # Fiber sums at seeded (hom, c) entries, by direct summation.
    expected = {}
    for _ in range(_SAMPLED_ENTRIES):
        h = tuple(rng.randrange(n) for _ in range(d))
        c = rng.randrange(n)
        total = sum(
            nums[j] for j, x in enumerate(points)
            if sum(a * b for a, b in zip(h, x)) % n == c
        )
        idx = points.index(h) * n + c
        expected[idx] = (list(h), c, Fraction(total, den))

    def check_forward(stdout: str) -> list[str]:
        problems = []
        img = _load(work / "image.json")
        if (img.get("n"), img.get("d")) != (n, d):
            problems.append("image has the wrong (n, d)")
        entries = img.get("entries", [])
        if len(entries) != n ** (d + 1):
            problems.append(f"image has {len(entries)} entries, expected {n ** (d + 1)}")
            return problems
        for idx, (h, c, value) in expected.items():
            got = entries[idx]
            if got[0] != h or got[1] != c or Fraction(got[2]) != value:
                problems.append(f"fiber sum at hom={h} c={c}: got {got}, expected {value}")
        # The fibers of one hom partition the points, so each hom's n entries
        # add up to the table's total mass.  Integer sums over the input's
        # common denominator; this catches a change to any single entry.
        for start in range(0, len(entries), n):
            mass = 0
            for _, _, text in entries[start:start + n]:
                num, _, q = text.partition("/")
                q = int(q or 1)
                if den % q:
                    problems.append(f"image entry {text} has a denominator outside the input's")
                    return problems
                mass += int(num) * (den // q)
            if mass != total_mass:
                problems.append(f"hom {entries[start][0]} carries mass {Fraction(mass, den)}, "
                                f"the table {Fraction(total_mass, den)}")
                return problems
        return problems

    def check_invert(stdout: str) -> list[str]:
        back = _load(work / "back.json")
        if (back.get("n"), back.get("d")) != (n, d):
            return ["inverted table has the wrong (n, d)"]
        got = back.get("values", [])
        if len(got) != len(points):
            return [f"inverted table has {len(got)} points, expected {len(points)}"]
        problems = []
        for (key, text), x, v in zip(got, points, values):
            if tuple(key) != x or Fraction(text) != v:
                problems.append(f"inverted value at {key} is {text}, input was {v}")
                break
        return problems

    def check_verify(stdout: str) -> list[str]:
        problems = []
        obj = _json_stdout(stdout, problems)
        if obj is not None and obj != {"n": n, "d": d, "inverting": True}:
            problems.append(f"verify reported {obj}")
        return problems

    commands = [
        Command("radon-forward", ["radon", "forward", "--in", "table.json", "--out", "image.json"],
                0, check_forward, ["table.json"], ["image.json"]),
        Command("radon-invert", ["radon", "invert", "--in", "image.json", "--out", "back.json"],
                0, check_invert, ["image.json"], ["back.json"]),
        Command("radon-verify", ["--json", "radon", "verify", "--n", str(n), "--d", str(d)],
                0, check_verify),
    ]
    props = {
        "n": n,
        "d": d,
        "points": n**d,
        "image_entries": n ** (d + 1),
        "den_bits": den.bit_length(),
    }
    return Workload(name, commands, props)


# -- subset sums and scans ------------------------------------------------------------

_FS_MODULUS = 4099
_FS_SIZE = 24


def _scan_command(modulus: int, max_size: int, bound: int | None,
                  expect_exit: int) -> tuple[Command, dict]:
    checked, violations = plain_scan(modulus, max_size, bound)
    if (1 if violations else 0) != expect_exit:
        raise RuntimeError(f"scan over modulus {modulus}: the listed exit code "
                           f"{expect_exit} disagrees with the violations found")
    args = ["--json", "search", "scan", "--group", json.dumps({"moduli": [modulus]}),
            "--max-size", str(max_size)]
    if bound is not None:
        args += ["--bound", str(bound)]

    def check(stdout: str) -> list[str]:
        problems = []
        report = _json_stdout(stdout, problems)
        if report is None:
            return problems
        if report.get("checked") != checked:
            problems.append(f"scan checked {report.get('checked')}, expected {checked}")
        reported = set()
        for a_obj, b_obj in report.get("violations", []):
            a = tuple(x for (x,) in _multiset_from_obj(a_obj))
            b = tuple(x for (x,) in _multiset_from_obj(b_obj))
            if plain_subset_sums(a, modulus) != plain_subset_sums(b, modulus):
                problems.append(f"reported violation {a} vs {b} has unequal subset sums")
            if zero_flip_equivalent(a, b, modulus):
                problems.append(f"reported violation {a} vs {b} is zero-flip equivalent")
            reported.add(frozenset((a, b)))
        count = len(report.get("violations", []))
        if count != len(violations) or reported != violations:
            problems.append(f"scan reported {count} violations, expected {len(violations)}")
        return problems

    group = "Z" if modulus == 0 else f"Z/{modulus}"
    props = {"group": group, "max_size": max_size, "bound": bound,
             "multisets_checked": checked, "violations": len(violations)}
    return Command("search-scan", args, expect_exit, check), props


def _build_fs_scan(seed: int, work: Path) -> Workload:
    rng = random.Random(f"fs-scan:{seed}")
    elements = [rng.randrange(_FS_MODULUS) for _ in range(_FS_SIZE)]
    _dump(work / "multiset.json", _multiset_obj([_FS_MODULUS], [(x,) for x in elements]))
    expected = [[[s], c] for s, c in plain_subset_sums(elements, _FS_MODULUS)]

    def check_fs(stdout: str) -> list[str]:
        out = _load(work / "sums.json")
        if out.get("group") != {"moduli": [_FS_MODULUS]}:
            return [f"subset sums are over {out.get('group')}"]
        if out.get("elements") != expected:
            return ["subset sums differ from the count-vector convolution"]
        return []

    # Z/17 is not an OFS modulus, so the scan finds violations and exits 1 by
    # contract.  The scan over Z (coordinates bounded by 6) runs the same
    # code on a group with an infinite factor and finds none.
    scan17, props17 = _scan_command(17, 4, None, expect_exit=1)
    scan_z, props_z = _scan_command(0, 4, 6, expect_exit=0)
    commands = [
        scan17,
        Command("fs", ["fs", "--in", "multiset.json", "--out", "sums.json"], 0, check_fs,
                ["multiset.json"], ["sums.json"]),
        scan_z,
    ]
    props = {
        "scans": [props17, props_z],
        "fs_group": f"Z/{_FS_MODULUS}",
        "fs_size": _FS_SIZE,
        "fs_distinct_elements": len(set(elements)),
    }
    return Workload("fs-scan", commands, props)


# -- zero-flip decisions ---------------------------------------------------------------

_SIM0_MODULI = [4] + [2] * 12
_INVERT_FS_BASE = (0, 1, 1, 4, 6, 10)
_INVERT_FS_MODULUS = 13


def _gf2_rank(vectors) -> int:
    basis: list[int] = []
    for v in vectors:
        x = int("".join(map(str, v)), 2)
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
    return len(basis)


def _sim0_pairs(rng) -> tuple[list, tuple, tuple, tuple, tuple]:
    """Two pairs over Z/4 x (Z/2)^12, each with 13 free elements: distinct,
    nonzero, self-negative and linearly independent over GF(2), so that only
    the full set of them sums to their total ``s``.

    Equivalent pair: a = frees + {y, z}, b = frees + {-y, -z} with y + z = s;
    flipping frees + {y, z} sums to 2s = 0.  Non-equivalent pair:
    a = frees + {w}, b = frees + {-w}; every flip set must hold w, so its sum
    has an odd first coordinate.  In both, no smaller subset of the frees
    does the job, so a subset search tries all 2^13 of them.
    """
    mods = _SIM0_MODULI

    def add(x, y):
        return tuple((p + q) % m for p, q, m in zip(x, y, mods))

    def neg(x):
        return tuple(-p % m for p, m in zip(x, mods))

    def odd_element():
        return (1,) + tuple(rng.randrange(2) for _ in mods[1:])

    while True:
        bits = [tuple(rng.randrange(2) for _ in mods) for _ in mods]
        if _gf2_rank(bits) == len(mods):
            break
    frees = [(2 * v[0],) + v[1:] for v in bits]
    s = (0,) * len(mods)
    for f in frees:
        s = add(s, f)
    while True:
        y = odd_element()
        z = add(s, neg(y))
        if z != y:
            break
    w = odd_element()
    eq = (tuple(frees + [y, z]), tuple(frees + [neg(y), neg(z)]))
    ne = (tuple(frees + [w]), tuple(frees + [neg(w)]))
    return frees, eq[0], eq[1], ne[0], ne[1]


def _check_sim0(a: tuple, b: tuple, equivalent: bool) -> Callable[[str], list[str]]:
    mods = _SIM0_MODULI

    def check(stdout: str) -> list[str]:
        problems = []
        obj = _json_stdout(stdout, problems)
        if obj is None:
            return problems
        if obj.get("equivalent") is not equivalent:
            return [f"verdict {obj.get('equivalent')} but the pair was built "
                    f"{'equivalent' if equivalent else 'non-equivalent'}"]
        if not equivalent:
            return ["non-equivalent verdict carries a witness"] if "flip_set" in obj else []
        witness = Counter(_multiset_from_obj(obj["flip_set"]))
        have = Counter(a)
        if any(m > have[x] for x, m in witness.items()):
            problems.append("witness is not a sub-multiset of a")
        total = [0] * len(mods)
        for x, m in witness.items():
            total = [(t + m * c) % q for t, c, q in zip(total, x, mods)]
        if any(total):
            problems.append(f"witness sums to {total}, not zero")
        flipped = have - witness
        for x, m in witness.items():
            flipped[tuple(-c % q for c, q in zip(x, mods))] += m
        if flipped != Counter(b):
            problems.append("flipping the witness does not turn a into b")
        return problems

    return check


def _build_flip_decide(seed: int, work: Path) -> Workload:
    rng = random.Random(f"flip-decide:{seed}")
    frees, eq_a, eq_b, ne_a, ne_b = _sim0_pairs(rng)
    for fname, ms in (("eq_a.json", eq_a), ("eq_b.json", eq_b),
                      ("ne_a.json", ne_a), ("ne_b.json", ne_b)):
        _dump(work / fname, _multiset_obj(_SIM0_MODULI, ms))

    # The image of a fixed multiset under a seeded automorphism x -> u*x of
    # Z/13.  The pruned preimage search visits exactly the multisets whose
    # subset sums fit inside the target, a set an automorphism maps onto its
    # counterpart, so every seed costs the search the same number of nodes.
    # Random multisets would make its time range over 10x with the seed.
    m = _INVERT_FS_MODULUS
    u = rng.randrange(1, m)
    source = tuple(sorted(u * x % m for x in _INVERT_FS_BASE))
    target = plain_subset_sums(source, m)
    _dump(work / "target.json", {"group": {"moduli": [m]},
                                 "elements": [[[s], c] for s, c in target]})

    def check_invert_fs(stdout: str) -> list[str]:
        problems = []
        obj = _json_stdout(stdout, problems)
        if obj is None:
            return problems
        members = [tuple(x for (x,) in _multiset_from_obj(ms))
                   for cls in obj.get("classes", []) for ms in cls]
        if source not in members:
            problems.append(f"the generating multiset {source} is not among the preimages")
        for ms in members:
            if plain_subset_sums(ms, m) != target:
                problems.append(f"preimage {ms} has other subset sums")
        return problems

    commands = [
        Command("sim0", ["--json", "sim0", "--a", "eq_a.json", "--b", "eq_b.json"], 0,
                _check_sim0(eq_a, eq_b, True), ["eq_a.json", "eq_b.json"]),
        Command("sim0", ["--json", "sim0", "--a", "ne_a.json", "--b", "ne_b.json"], 1,
                _check_sim0(ne_a, ne_b, False), ["ne_a.json", "ne_b.json"]),
        Command("search-invert-fs", ["--json", "search", "invert-fs", "--in", "target.json"], 0,
                check_invert_fs, ["target.json"]),
    ]
    props = {
        "sim0_group": "Z/4 x (Z/2)^12",
        "free_elements": len(frees),
        "invert_fs_group": f"Z/{m}",
        "invert_fs_source": list(source),
        "invert_fs_unit": u,
    }
    return Workload("flip-decide", commands, props)


WORKLOADS = {
    "radon-deep": lambda seed, work: build_radon("radon-deep", 3, 8, seed, work),
    "radon-wide": lambda seed, work: build_radon("radon-wide", 48, 2, seed, work),
    "fs-scan": _build_fs_scan,
    "flip-decide": _build_flip_decide,
}


def build(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's seeded inputs into ``work`` and return its job."""
    return WORKLOADS[name](seed, work)
