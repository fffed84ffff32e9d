"""The ``fsrecon`` command line: one entry point wiring every module.

Exit codes: 0 success / verdict true, 1 verdict false (non-member, violation
found, check failed), 2 usage or domain error, 3 resource or budget error.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import acceptance, counterexamples, cyclo, ofs, radon, search
from .errors import DomainError, ResourceCapError, VerificationError
from .groups import GroupSpec
from .multisets import Multiset, sim0_check
from .radon import FunctionTable, RadonImage

__all__ = ["main"]


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_text(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(args, obj: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(obj, separators=(",", ":")))
    else:
        print("\n".join(lines))


# -- subcommand implementations ------------------------------------------------


def _cmd_fs(args) -> int:
    ms = Multiset.from_obj(_read_json(args.infile))
    fs = ms.subset_sums()
    text = fs.to_json()
    _write_text(args.out, text)
    return 0


def _cmd_sim0(args) -> int:
    a = Multiset.from_obj(_read_json(args.a))
    b = Multiset.from_obj(_read_json(args.b))
    ok, witness = sim0_check(a, b)
    obj = {"equivalent": ok}
    lines = [f"zero-flip equivalent: {ok}"]
    if witness is not None:
        obj["flip_set"] = witness.flip_set.to_obj()
        lines.append(f"flip set: {witness.flip_set}")
    _emit(args, obj, lines)
    return 0 if ok else 1


def _cmd_ofs(args) -> int:
    if args.action == "test":
        verdict = ofs.is_member(args.n)
        if args.brute:
            brute = ofs.is_member_bruteforce(args.n)
            if brute != verdict.member:
                raise VerificationError(f"criterion and brute force disagree at {args.n}")
        _emit(
            args,
            verdict.to_obj(),
            [
                f"{verdict.n}: {'member' if verdict.member else 'not member'} "
                f"(ord2={verdict.ord2}, phi={verdict.phi}, branch={verdict.branch})"
            ],
        )
        return 0 if verdict.member else 1
    if args.n < 1:
        raise DomainError(f"limit must be a positive integer, got {args.n}")
    odd = range(1, args.n + 1, 2)
    member = [ofs.is_member(n).member for n in odd]
    members = [n for n, ok in zip(odd, member) if ok]
    complement = [n for n, ok in zip(odd, member) if not ok]
    obj = {"limit": args.n, "members": members, "complement": complement}
    _emit(args, obj, [str(n) for n in (complement if args.complement else members)])
    return 0


def _cmd_counterexample(args) -> int:
    pair = counterexamples.build(args.n, args.mode)
    obj = pair.to_obj()
    obj["mode"] = args.mode
    lines = [
        f"n={pair.n} d={pair.d} k={pair.k} verified={pair.verified}",
        f"A  = {pair.a}",
        f"A' = {pair.a_prime}",
    ]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, separators=(",", ":"))
        print(f"wrote {args.out}")
    else:
        _emit(args, obj, lines)
    return 0


def _cmd_radon(args) -> int:
    if args.action == "forward":
        table = FunctionTable.from_obj(_read_json(args.infile))
        _write_text(args.out, radon.forward(table).to_json())
        return 0
    if args.action == "invert":
        img = RadonImage.from_obj(_read_json(args.infile))
        _write_text(args.out, radon.invert(img).to_json())
        return 0
    if args.action == "verify":
        ok = radon.verify_inverting(radon.inversion_weights(args.n, args.d))
        _emit(
            args,
            {"n": args.n, "d": args.d, "inverting": ok},
            [f"closed-form weights invert on (Z/{args.n})^{args.d}: {ok}"],
        )
        return 0 if ok else 1
    # bench
    rng = random.Random(args.seed)
    rows = [_bench_radon_case(args.n, args.d, rng, tables=args.tables)]
    _emit(args, {"suite": "radon", "rows": rows}, [json.dumps(r) for r in rows])
    return 0


def _cmd_cyclo(args) -> int:
    if args.action == "dist":
        checks = []
        for p in ofs.prime_factors(args.n):
            for j in range(args.n // p):
                checks.append({"p": p, "j": j, "pass": cyclo.verify_distribution(args.n, p, j)})
        ok = all(c["pass"] for c in checks)
        obj = {"n": args.n, "checks": checks, "pass": ok}
        lines = [f"distribution relations for n={args.n}: {len(checks)} checks, pass={ok}"]
        _emit(args, obj, lines)
        return 0 if ok else 1
    if args.action == "kernel-test":
        try:
            vector = tuple(int(v) for v in args.vector.split(","))
        except ValueError:
            raise DomainError(f"--vector needs integers, got {args.vector!r}") from None
        ok = cyclo.kernel_test(args.n, vector)
        _emit(
            args,
            {"n": args.n, "vector": list(vector), "in_kernel": ok},
            [f"kernel test for n={args.n}: {ok}"],
        )
        return 0 if ok else 1
    # ranks
    checks = []
    surj = cyclo.projection_surjectivity_check(args.n)
    checks.append({"name": "projection_surjectivity", **surj, "pass": surj["surjective"]})
    member = ofs.is_member(args.n).member
    if member:
        kern = cyclo.kernel_rank_check(args.n)
        checks.append({"name": "kernel_rank", **kern, "pass": kern["consistent"]})
        if args.n >= 3:
            unit = cyclo.unit_group_rank_numeric(args.n)
            checks.append({"name": "unit_rank_numeric", **unit, "pass": unit["consistent"]})
    ok = all(c["pass"] for c in checks)
    obj = {"n": args.n, "member": member, "checks": checks, "pass": ok}
    lines = [f"{c['name']}: pass={c['pass']}" for c in checks]
    _emit(args, obj, lines)
    return 0 if ok else 1


def _cmd_search(args) -> int:
    if args.action == "scan":
        group = GroupSpec.from_obj(json.loads(args.group))
        report = search.regularity_scan(
            group, args.max_size, bound=args.bound, budget=args.budget
        )
        lines = [
            f"group {group}, sizes <= {args.max_size}, "
            f"checked {report.checked}, exhaustive={report.exhaustive}",
            f"violations: {len(report.violations)}",
        ]
        lines += [f"  {a}  vs  {b}" for a, b in report.violations]
        _emit(args, report.to_obj(), lines)
        return 1 if report.violations else 0
    # invert-fs
    target = Multiset.from_obj(_read_json(args.infile))
    classes = search.fs_preimages(target, bound=args.bound)
    obj = {
        "target": target.to_obj(),
        "classes": [[m.to_obj() for m in cls] for cls in classes],
    }
    lines = [f"{len(classes)} equivalence classes"]
    for i, cls in enumerate(classes):
        lines.append(f"class {i}: " + ", ".join(str(m) for m in cls))
    _emit(args, obj, lines)
    return 0


def _bench_radon_case(n: int, d: int, rng, tables: int = 1) -> dict:
    if tables < 1:
        raise DomainError(f"--tables must be at least 1, got {tables}")
    table = radon.random_table(n, d, rng)
    t0 = time.perf_counter()
    for _ in range(tables):
        img = radon.forward(table)
    t1 = time.perf_counter()
    for _ in range(tables):
        back = radon.invert(img)
    t2 = time.perf_counter()
    ok = back == table
    return {
        "suite": "radon",
        "case": f"n={n},d={d}",
        "points": n**d,
        "tables": tables,
        "round_trip_exact": ok,
        "forward_ms": round((t1 - t0) * 1000, 3),
        "invert_ms": round((t2 - t1) * 1000, 3),
    }


def _bench_suite(suite: str, seed: int) -> list[dict]:
    rng = random.Random(seed)
    rows = []
    if suite == "radon":
        for n, d in ((3, 4), (9, 2), (5, 3), (3, 8)):
            rows.append(_bench_radon_case(n, d, rng))
    elif suite == "fs":
        from .groups import cyclic

        group = cyclic(257)
        for size in (8, 12, 16, 20):
            ms = Multiset.from_elements(group, (rng.randrange(257) for _ in range(size)))
            t0 = time.perf_counter()
            fs = ms.subset_sums(cap=size)
            elapsed = time.perf_counter() - t0
            rows.append(
                {
                    "suite": "fs",
                    "case": f"size={size}",
                    "subset_sums_cardinality": str(fs.cardinality),
                    "distinct_sums": len(fs.support()),
                    "wall_ms": round(elapsed * 1000, 3),
                }
            )
    elif suite == "search":
        from .groups import cyclic

        cases = [
            (cyclic(5), 3, None),
            (cyclic(7), 3, None),
            (GroupSpec((3, 3)), 2, None),
        ]
        for group, max_size, bound in cases:
            t0 = time.perf_counter()
            report = search.regularity_scan(group, max_size, bound=bound)
            elapsed = time.perf_counter() - t0
            rows.append(
                {
                    "suite": "search",
                    "case": f"group={group},max_size={max_size}",
                    "checked": report.checked,
                    "violations": len(report.violations),
                    "wall_ms": round(elapsed * 1000, 3),
                }
            )
    else:
        raise DomainError(f"unknown bench suite {suite!r}")
    return rows


def _cmd_bench(args) -> int:
    rows = _bench_suite(args.suite, args.seed)
    _emit(args, {"suite": args.suite, "rows": rows}, [json.dumps(r) for r in rows])
    return 0


def _cmd_selftest(args) -> int:
    results = acceptance.run_all(
        quick=args.quick, seed=args.seed, corrupt_lambda=args.corrupt_lambda
    )
    ok = all(r.passed for r in results)
    obj = {"pass": ok, "items": [r.to_obj() for r in results]}
    lines = [r.line() for r in results]
    lines.append(f"selftest: {'PASS' if ok else 'FAIL'} ({len(results)} items)")
    _emit(args, obj, lines)
    return 0 if ok else 1


# -- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsrecon",
        description="Exact subset-sums reconstruction toolkit over abelian groups.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fs", help="subset sums of a multiset file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("sim0", help="decide zero-flip equivalence of two multisets")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("ofs", help="membership of odd moduli")
    ofs_sub = p.add_subparsers(dest="action", required=True)
    q = ofs_sub.add_parser("test")
    q.add_argument("n", type=int)
    q.add_argument("--brute", action="store_true", help="cross-check the covering definition")
    q = ofs_sub.add_parser("list")
    q.add_argument("n", type=int)
    q.add_argument("--complement", action="store_true", help="print non-members instead")

    p = sub.add_parser("counterexample", help="build a verified equal-subset-sums pair")
    p.add_argument("n", type=int)
    p.add_argument("--mode", choices=("order", "totient"), default="order")
    p.add_argument("--out", default=None)

    p = sub.add_parser("radon", help="discrete Radon transform operations")
    radon_sub = p.add_subparsers(dest="action", required=True)
    q = radon_sub.add_parser("forward")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--out", default=None)
    q = radon_sub.add_parser("invert")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--out", default=None)
    q = radon_sub.add_parser("verify")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--d", type=int, required=True)
    q = radon_sub.add_parser("bench")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--tables", type=int, default=1)

    p = sub.add_parser("cyclo", help="cyclotomic unit-relation checks")
    cyclo_sub = p.add_subparsers(dest="action", required=True)
    q = cyclo_sub.add_parser("dist")
    q.add_argument("n", type=int)
    q = cyclo_sub.add_parser("kernel-test")
    q.add_argument("n", type=int)
    q.add_argument("--vector", required=True, help="comma-separated exponents, length n")
    q = cyclo_sub.add_parser("ranks")
    q.add_argument("n", type=int)

    p = sub.add_parser("search", help="brute-force scans and subset-sums inversion")
    search_sub = p.add_subparsers(dest="action", required=True)
    q = search_sub.add_parser("scan")
    q.add_argument("--group", required=True, help='e.g. {"moduli":[17]}')
    q.add_argument("--max-size", dest="max_size", type=int, required=True)
    q.add_argument("--bound", type=int, default=None)
    q.add_argument("--budget", type=int, default=5_000_000)
    q = search_sub.add_parser("invert-fs")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--bound", type=int, default=None)

    p = sub.add_parser("bench", help="timing sweeps")
    p.add_argument("--suite", choices=("radon", "fs", "search"), required=True)

    p = sub.add_parser("selftest", help="run the acceptance checklist")
    p.add_argument("--quick", action="store_true", help="reduced scales")
    p.add_argument(
        "--corrupt-lambda",
        action="store_true",
        help="negative control: break the inversion weights on purpose",
    )
    return parser


_DISPATCH = {
    "fs": _cmd_fs,
    "sim0": _cmd_sim0,
    "ofs": _cmd_ofs,
    "counterexample": _cmd_counterexample,
    "radon": _cmd_radon,
    "cyclo": _cmd_cyclo,
    "search": _cmd_search,
    "bench": _cmd_bench,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _DISPATCH[args.command](args)
    except ResourceCapError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, OSError, UnicodeDecodeError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
