"""The ``fsrecon`` command line: one entry point wiring every module.

Each handler imports the modules only it runs, so that a command pays at
start-up only for the code it uses: numpy loads only with the Radon kernel,
which the radon commands and ``selftest`` run.

Exit codes: 0 success / verdict true, 1 verdict false (non-member, violation
found, check failed), 2 usage or domain error, 3 resource or budget error.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import search
from .errors import DomainError, ResourceCapError, VerificationError
from .groups import GroupSpec
from .multisets import Multiset, sim0_check

__all__ = ["main"]


def _decode(load, source):
    """load(source); JSON nested past the decoder's recursion limit, or with
    an integer past its digit limit, is bad input."""
    try:
        return load(source)
    except RecursionError:
        raise DomainError("JSON nested too deeply to decode") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError keep their text
        raise DomainError(str(exc)) from None


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return _decode(json.load, fh)


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
    fs = Multiset.from_obj(_read_json(args.infile)).subset_sums()
    _write_text(args.out, fs.to_json())
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
    from . import ofs
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
    member = {n: ofs.is_member(n).member for n in ofs.odd_up_to(args.n)}
    members = [n for n, ok in member.items() if ok]
    complement = [n for n, ok in member.items() if not ok]
    obj = {"limit": args.n, "members": members, "complement": complement}
    _emit(args, obj, [str(n) for n in (complement if args.complement else members)])
    return 0


def _cmd_counterexample(args) -> int:
    from . import counterexamples
    pair = counterexamples.build(args.n, args.mode)
    obj = {**pair.to_obj(), "mode": args.mode}
    lines = [
        f"n={pair.n} d={pair.d} k={pair.k} verified={pair.verified}",
        f"A  = {pair.a}",
        f"A' = {pair.a_prime}",
    ]
    if args.out:
        _write_text(args.out, json.dumps(obj, separators=(",", ":")))
        print(f"wrote {args.out}")
    else:
        _emit(args, obj, lines)
    return 0


def _cmd_radon(args) -> int:
    from . import radon
    if args.action == "verify":
        ok = radon.verify_inverting(radon.inversion_weights(args.n, args.d))
        _emit(
            args,
            {"n": args.n, "d": args.d, "inverting": ok},
            [f"closed-form weights invert on (Z/{args.n})^{args.d}: {ok}"],
        )
        return 0 if ok else 1
    cls = radon.FunctionTable if args.action == "forward" else radon.RadonImage
    with open(args.infile, encoding="utf-8") as fh:  # from_obj decodes the text itself
        doc = _decode(cls.from_obj, fh.read())
    if args.action == "invert":
        _write_text(args.out, radon.invert(doc).to_json())
        return 0
    try:  # the image's entry at the zero homomorphism and residue 0
        str(doc.total())
    except ValueError as exc:  # past the digit limit of str(int)
        raise ResourceCapError(f"cannot write the entries: {exc}") from None
    _write_text(args.out, radon.forward(doc).to_json())
    return 0


def _cmd_cyclo(args) -> int:
    from . import cyclo
    if args.action == "dist":
        checks = cyclo.distribution_checks(args.n)
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
    member, checks = cyclo.rank_checks(args.n)
    ok = all(c["pass"] for c in checks)
    obj = {"n": args.n, "member": member, "checks": checks, "pass": ok}
    lines = [f"{c['name']}: pass={c['pass']}" for c in checks]
    _emit(args, obj, lines)
    return 0 if ok else 1


def _cmd_search(args) -> int:
    if args.action == "scan":
        group = GroupSpec.from_obj(_decode(json.loads, args.group))
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


def _cmd_selftest(args) -> int:
    from . import acceptance
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
    except Exception as exc:  # a case missed above is an error, never the verdict 1
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
