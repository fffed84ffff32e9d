import hashlib
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import table_from_values

import fsrecon
from fsrecon import cyclo, ofs
from fsrecon.cli import main
from fsrecon.groups import GroupSpec, cyclic
from fsrecon.multisets import Multiset
from fsrecon.ofs import prime_factors
from fsrecon.radon import FunctionTable, RadonImage, forward, random_table


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# -- verdict commands --------------------------------------------------------------


def test_ofs_test_exit_codes(capsys):
    code, out = run(capsys, "ofs", "test", "17")
    assert code == 1 and "not member" in out
    code, out = run(capsys, "ofs", "test", "15")
    assert code == 0 and "member" in out


def test_ofs_test_json_round_trips(capsys):
    code, out = run(capsys, "--json", "ofs", "test", "21")
    assert code == 0
    obj = json.loads(out)
    assert obj["member"] is True and obj["ord2"] == 6


def test_ofs_list(capsys):
    code, out = run(capsys, "ofs", "list", "29")
    assert code == 0
    assert [int(line) for line in out.split()] == [
        1, 3, 5, 7, 9, 11, 13, 15, 19, 21, 23, 25, 27, 29,
    ]
    code, out = run(capsys, "--json", "ofs", "list", "55", "--complement")
    obj = json.loads(out)
    assert obj["complement"][:3] == [17, 31, 33]


def test_usage_errors(capsys):
    assert main(["ofs", "test", "4"]) == 2
    assert main(["totally-bogus"]) == 2
    assert main(["bench", "--suite", "fs"]) == 2
    assert main(["radon", "bench", "--n", "3", "--d", "2"]) == 2
    assert main(["fs", "--in", "/nonexistent/path.json"]) == 2
    assert main(["--config", "x", "ofs", "test", "15"]) == 2  # no config-file layer


def _readme_cli_lines() -> list[list[str]]:
    """The argument lists of the README's CLI examples, without "fsrecon"."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


def _subcommands(capsys, argv) -> list[str]:
    """The subcommands that `fsrecon ARGV --help` lists, if it lists any."""
    assert main([*argv, "--help"]) == 0
    choices = re.search(r"^  \{([\w,-]+)\}", capsys.readouterr().out, re.M)
    return choices.group(1).split(",") if choices else []


def test_readme_cli_examples_match_the_parser(capsys):
    """Each README example parses (with --help, so nothing runs), and each
    subcommand of the parser has an example."""
    lines = _readme_cli_lines()
    for argv in lines:
        assert main([*argv, "--help"]) == 0, argv
    shown = {tuple(argv[:k]) for argv in lines for k in (1, 2)}
    commands = _subcommands(capsys, [])
    assert "radon" in commands
    for command in commands:
        assert (command,) in shown, command
        for action in _subcommands(capsys, [command]):
            assert (command, action) in shown, (command, action)


@pytest.mark.parametrize("limit", ["0", "-2"])
def test_ofs_list_rejects_limits_below_1(capsys, limit):
    code = main(["ofs", "list", limit])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_resource_error_exit(tmp_path, capsys):
    big = Multiset(cyclic(3), {cyclic(3).zero(): 40})
    path = tmp_path / "big.json"
    path.write_text(big.to_json())
    assert main(["fs", "--in", str(path)]) == 3


@pytest.mark.parametrize("count, code", [(11, 3), (9, 0)])
def test_fs_stops_at_the_distinct_sums_cap(tmp_path, capsys, monkeypatch, count, code):
    # 2^11 distinct sums pass a cap of 2^10 at the last step; 2^9 stay below it.
    monkeypatch.setattr("fsrecon.multisets.MAX_DISTINCT_SUMS", 2**10)
    powers = Multiset.from_elements(GroupSpec((0,)), [2**j for j in range(count)])
    path, out_path = tmp_path / "powers.json", tmp_path / "sums.json"
    path.write_text(powers.to_json())
    assert main(["fs", "--in", str(path), "--out", str(out_path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    if code:
        assert captured.err.count("\n") == 1 and not out_path.exists()
    else:
        assert Multiset.from_obj(json.loads(out_path.read_text())).support() == [
            GroupSpec((0,)).element((s,)) for s in range(2**count)
        ]


# -- data-bearing commands ------------------------------------------------------------


def test_fs_subset_sums_file(tmp_path, capsys):
    a = Multiset.from_elements(cyclic(2), [0, 1])
    path = tmp_path / "a.json"
    path.write_text(a.to_json())
    code, out = run(capsys, "fs", "--in", str(path))
    assert code == 0
    fs = Multiset.from_obj(json.loads(out))
    assert fs == a.subset_sums()


def test_sim0_command(tmp_path, capsys):
    z5 = cyclic(5)
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(Multiset.from_elements(z5, [1, 4]).to_json())
    pb.write_text(Multiset.from_elements(z5, [4, 1]).to_json())
    code, out = run(capsys, "--json", "sim0", "--a", str(pa), "--b", str(pb))
    assert code == 0 and json.loads(out)["equivalent"] is True
    pb.write_text(Multiset.from_elements(z5, [4, 3]).to_json())
    code, _ = run(capsys, "sim0", "--a", str(pa), "--b", str(pb))
    assert code == 1


def test_counterexample_writes_pair(tmp_path, capsys):
    out_path = tmp_path / "pair.json"
    code, out = run(capsys, "counterexample", "17", "--out", str(out_path))
    assert code == 0 and out == f"wrote {out_path}\n"
    # The file holds the bytes that --json prints, one trailing newline.
    _, printed = run(capsys, "--json", "counterexample", "17")
    assert out_path.read_bytes() == printed.encode() and printed.endswith("}\n")
    obj = json.loads(out_path.read_text())
    assert (obj["n"], obj["d"], obj["k"], obj["verified"]) == (17, 8, 3, True)
    a = Multiset.from_obj(obj["a"])
    b = Multiset.from_obj(obj["a_prime"])
    assert a.subset_sums(cap=8) == b.subset_sums(cap=8)
    code, _ = run(capsys, "counterexample", "15")
    assert code == 2  # member: no counterexample exists


@pytest.mark.parametrize("argv, d", [(("113",), 28), (("41", "--mode", "totient"), 40)])
def test_counterexample_exponent_past_subset_sums_cap(capsys, argv, d):
    code, out = run(capsys, "--json", "counterexample", *argv)
    obj = json.loads(out)
    assert code == 0 and obj["d"] == d and obj["verified"] is True


def test_counterexample_past_int64_counts_is_fast_and_unchanged(capsys):
    # d = 63: subset-sum counts reach 2^63, past int64.  The digest pins the
    # bytes that the earlier {sum: count} map implementation printed, in
    # 51 s on a 2-CPU Xeon.
    start = time.perf_counter()
    code, out = run(capsys, "counterexample", "92737")
    assert time.perf_counter() - start < 5.0
    assert code == 0 and out.startswith("n=92737 d=63 k=3 verified=True\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ddc435fe0213ffaead58df426c63e6f1463ec9241a62ecab824a65ed3177fedb"
    )


def test_radon_forward_invert_files(tmp_path, capsys):
    import random

    f = random_table(3, 2, random.Random(0))
    fpath = tmp_path / "f.json"
    rpath = tmp_path / "rf.json"
    fpath.write_text(f.to_json())
    assert main(["radon", "forward", "--in", str(fpath), "--out", str(rpath)]) == 0
    img = RadonImage.from_obj(json.loads(rpath.read_text()))
    assert img == forward(f)
    gpath = tmp_path / "g.json"
    assert main(["radon", "invert", "--in", str(rpath), "--out", str(gpath)]) == 0
    assert FunctionTable.from_obj(json.loads(gpath.read_text())) == f


def test_radon_verify_command(capsys):
    code, _ = run(capsys, "radon", "verify", "--n", "3", "--d", "2")
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("radon", "verify", "--n", "3", "--d", "0"),
        ("radon", "verify", "--n", "0", "--d", "2"),
    ],
)
def test_radon_rejects_empty_dimensions(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("radon", "verify", "--n", "100000", "--d", "3"),
        ("radon", "verify", "--n", "2", "--d", "40"),
        ("radon", "verify", "--n", "1", "--d", "30000000"),
    ],
    ids=["verify-wide", "verify-deep", "verify-trivial-modulus"],
)
def test_radon_grids_past_the_size_cap_exit_3(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("resource error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "command, key, residue", [("forward", "values", []), ("invert", "entries", [0])]
)
@pytest.mark.parametrize("separators", [(",", ":"), (", ", ": ")], ids=["as-written", "spaced"])
def test_radon_files_past_the_size_cap_exit_3(tmp_path, capsys, command, key, residue, separators):
    """A one-point (Z/1)^200000 grid: the sweep would take 200,000 steps."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 1, "d": 200_000, key: [[[0] * 200_000, *residue, "1/1"]]},
                               separators=separators))
    code = main(["radon", command, "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("resource error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "image",
    [
        {"n": 3, "d": 1, "entries": [[[5], 0, "1/1"]]},
        {"n": 2, "d": 1, "entries": [[[0], c, "1/1"] for c in (0, 1, 2, 3)]},
        {"n": 2, "d": 1, "entries": [[[a], 0, "1/1"] for a in (0, 0, 1, 1)]},
        {"n": 2, "d": 1, "entries": [[[0, 0], 0, "1/1"]] * 4},
        {"n": 3, "d": 1, "entries": [[[2], 2, "1/1"]]},
        {"n": 2, "d": 1, "entries": [[[a], c, "1/1"] for a in (0, 1) for c in (0, 1, 1)]},
        {"n": 2, "d": 1, "entries": [[[a], c / 2, "1/1"] for a in (0, 1) for c in (0, 3)]},
        {"n": 2, "d": 1, "entries": [[[a / 2], c, "1/1"] for a in (0, 3) for c in (0, 1)]},
        {"n": 2, "d": 1, "entries": [[[a], c, 0.1] for a in (0, 1) for c in (0, 1)]},
        {"n": 2, "d": True, "entries": [[[a], c, "1/1"] for a in (0, 1) for c in (0, 1)]},
        [1, 2],
        '{"n":1,"d":1,"entries":[[[0],0,"1/1"]]}',
    ],
    ids=[
        "coefficient-and-count",
        "residue",
        "repeated-entry",
        "coefficient-length",
        "too-few",
        "too-many",
        "residue-float",
        "coefficient-float",
        "value-float",
        "d-bool",
        "top-level-array",
        "top-level-string",
    ],
)
def test_radon_invert_rejects_malformed_image(tmp_path, capsys, image):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(image))
    code = main(["radon", "invert", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _table(values, n=2, d=1):
    return {"n": n, "d": d, "values": [[[x], v] for x, v in enumerate(values)]}


@pytest.mark.parametrize(
    "table",
    [
        {"n": 2, "d": 1, "values": [[[0], "1/2"], [[1.5], "3/1"]]},
        _table(["1/2", "3/1"], n=2.5),
        _table([0.1, "3/1"]),
        _table(["abc", "3/1"]),
        _table([None, "3/1"]),
        _table(["1/0", "3/1"]),
        _table([True, "3/1"]),
        _table([[1], "3/1"]),
        {"n": 2, "d": 1, "values": [[[1]], [[0], "1/1"]]},
        {"n": 2, "d": 1, "values": [[[0], "1/1"], [[0], "1/1"]]},
        {"n": 2, "d": 1, "values": [[[False], "1/2"], [[True], "3/1"]]},
        {"n": 2, "d": 1, "values": [[[2**64], "1/2"], [[1], "3/1"]]},
        [1, 2],
    ],
    ids=[
        "coordinate-float",
        "n-float",
        "value-float",
        "value-text",
        "value-null",
        "value-zero-denominator",
        "value-bool",
        "value-list",
        "short-row",
        "repeated-point",
        "coordinate-bool",
        "coordinate-past-int64",
        "top-level-array",
    ],
)
def test_radon_forward_rejects_malformed_table(tmp_path, capsys, table):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(table))
    code = main(["radon", "forward", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_radon_forward_accepts_integer_and_decimal_values(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_table([3, "1.5", "-1/2"], n=3)))
    code, out = run(capsys, "radon", "forward", "--in", str(path))
    assert code == 0
    assert RadonImage.from_obj(json.loads(out)) == forward(table_from_values(3, 1, {
        (0,): 3, (1,): Fraction(3, 2), (2,): Fraction(-1, 2)
    }))


DEEP = "[" * 200_000 + "]" * 200_000
LONG = "1" + "0" * 4999  # 5,000 digits: past int()'s default limit of 4,300


@pytest.mark.parametrize(
    "argv, document",
    [
        (("fs", "--in"), {"group": {"moduli": [5]}, "elements": 5}),
        (("fs", "--in"), [1, 2]),
        (("fs", "--in"), {"group": {"moduli": [5]}, "elements": [[[1.5], 1]]}),
        (("fs", "--in"), {"group": {"moduli": "55"}, "elements": []}),
        (("cyclo", "kernel-test", "5", "--vector", "a,b"), None),
        (("search", "scan", "--max-size", "2", "--group", f'{{"moduli":[{LONG}0]}}'), None),
    ],
    ids=[
        "elements-not-a-list", "top-level-array", "coordinate-float", "moduli-text", "vector",
        "moduli-past-digit-limit",
    ],
)
def test_malformed_inputs_exit_2(tmp_path, capsys, argv, document):
    argv = list(argv)
    if document is not None:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        argv.append(str(path))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, text",
    [
        (["radon", "invert", "--in"], DEEP),
        (["fs", "--in"], DEEP),
        (["fs", "--in"], f'{{"group":{{"moduli":[0]}},"elements":[[[{LONG}],1]]}}'),
    ],
    ids=["image", "multiset", "multiset-past-digit-limit"],
)
def test_deeply_nested_file_exits_2(tmp_path, capsys, argv, text):
    """JSON nested past the decoder's recursion limit, or with an integer past
    the digit limit of int(), is malformed input."""
    path = tmp_path / "deep.json"
    path.write_text(text)
    code = main([*argv, str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_deeply_nested_group_exits_2(capsys):
    code = main(["search", "scan", "--group", DEEP, "--max-size", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_fs_sum_past_the_digit_limit_exits_3(tmp_path, capsys):
    """Two 4,300-digit coordinates read and add, but their 4,301-digit sum
    is past what str(int) writes."""
    big = 10**4300 - 1
    path = tmp_path / "big.json"
    path.write_text(Multiset.from_elements(cyclic(0), [big, big]).to_json())
    code = main(["fs", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("resource error: ") and captured.err.count("\n") == 1


def test_radon_denominator_past_the_digit_limit_exits_3(tmp_path, capsys):
    """Each value parses, but the image's common denominator, their lcm, has
    8,599 digits."""
    q = 10**4299
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_table([f"1/{q}", f"1/{q + 1}"])))
    code = main(["radon", "forward", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("resource error: ") and captured.err.count("\n") == 1


def test_radon_forward_refuses_an_unwritable_image_before_the_kernel(tmp_path, capsys):
    """1/p over 729 distinct 7-digit primes: every value parses, but the
    image's entry at the zero homomorphism, the total, has a denominator
    of about 5,000 digits.  The sweep would run for tens of seconds before
    the writer refused it."""
    sieve = bytearray([1]) * 1_100_000
    for p in range(2, 1049):
        sieve[p * p :: p] = bytes(len(range(p * p, len(sieve), p)))
    primes = [p for p in range(10**6, len(sieve)) if sieve[p]][:729]
    values = [[[i // 27, i % 27], f"1/{p}"] for i, p in enumerate(primes)]
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"n": 27, "d": 2, "values": values}))
    start = time.perf_counter()
    code = main(["radon", "forward", "--in", str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and elapsed < 5.0
    assert captured.err.startswith("resource error: cannot write the entries: Exceeds the limit")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "moduli, where",
    [
        ([3, "x"], "moduli[1]: modulus 'x' "),
        ([3, 1.5], "moduli[1]: modulus 1.5 "),
        ([3, True], "moduli[1]: modulus True "),
        ([3, -2], "moduli[1]: modulus -2 "),
        (3, "moduli: expected a list of integers, got 3"),
    ],
    ids=["text", "float", "bool", "negative", "not-a-list"],
)
def test_a_bad_modulus_is_named_by_its_json_path(tmp_path, capsys, moduli, where):
    group = json.dumps({"moduli": moduli})
    multiset = tmp_path / "bad.json"
    multiset.write_text(f'{{"group":{group},"elements":[]}}')
    for argv, prefix in (
        (["fs", "--in", str(multiset)], "group."),
        (["sim0", "--a", str(multiset), "--b", str(multiset)], "group."),
        (["search", "invert-fs", "--in", str(multiset)], "group."),
        (["search", "scan", "--max-size", "2", "--group", group], ""),
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {prefix}{where}") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "row", [[[1, 2], 1], [[1], -1], [[1], 1.5], [["1"], 1], [[1], 1, 1], "[[1],1]"]
)
def test_malformed_multiset_rows_are_named_by_their_json_path(tmp_path, capsys, row):
    """The error names the bad field inside the row, or the row when its
    shape is wrong."""
    where = {
        "[[1, 2], 1]": "elements[3][0]: expected 1 coordinates",
        "[[1], -1]": "elements[3][1]: count -1 ",
        "[[1], 1.5]": "elements[3][1]: count 1.5 ",
        '[["1"], 1]': "elements[3][0][0]: coordinate '1' ",
        "[[1], 1, 1]": "elements[3]: expected ",
        '"[[1],1]"': "elements[3]: expected ",
    }[json.dumps(row)]
    rows = [[[0], 1], [[1], 2], [[2], 1], row, [[4], 1]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"group": {"moduli": [5]}, "elements": rows}))
    code = main(["fs", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {where}") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "row, where", [([[1, "x"], 1], "elements[1][0][1]: "), ([[1, 1], 1.5], "elements[1][1]: ")]
)
def test_a_bad_field_of_a_two_coordinate_row_is_named(tmp_path, capsys, row, where):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"group": {"moduli": [3, 0]}, "elements": [[[0, 0], 1], row]}))
    code = main(["fs", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {where}") and captured.err.count("\n") == 1


def test_malformed_rows_are_named_by_their_json_path(tmp_path, capsys):
    table = json.loads(random_table(48, 1, random.Random(3)).to_json())
    table["values"][17][0] = [1.5]
    image = json.loads(forward(random_table(2, 2, random.Random(4))).to_json())
    image["entries"][5][2] = "1/0"
    for command, doc, prefix in (
        ("forward", table, "error: values[17][0][0]: coordinate 1.5 is not an integer in [0, 48)"),
        ("invert", image, "error: entries[5][2]: malformed entry: "),
    ):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(doc))
        code = main(["radon", command, "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.err.startswith(prefix) and captured.err.count("\n") == 1


@pytest.mark.parametrize("case", ["in-directory", "out-directory", "not-utf8"])
def test_unreadable_and_unwritable_files_exit_2(tmp_path, capsys, case):
    table = tmp_path / "table.json"
    table.write_bytes(b"\xff\xfe" if case == "not-utf8" else b'{"n":1,"d":1,"values":[[[0],1]]}')
    argv = ["radon", "forward", "--in", str(tmp_path if case == "in-directory" else table)]
    if case == "out-directory":
        argv += ["--out", str(tmp_path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_unexpected_exception_exits_2_not_1(capsys, monkeypatch):
    # Exit 1 means "verdict false"; an exception no handler names must not
    # reach it, nor give a traceback.
    def broken(n):
        raise RuntimeError("unexpected\nstate")

    monkeypatch.setattr(ofs, "is_member", broken)
    code = main(["ofs", "test", "15"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "internal error: RuntimeError: unexpected state\n"


def test_cyclo_commands(capsys):
    code, out = run(capsys, "--json", "cyclo", "dist", "15")
    assert code == 0 and json.loads(out)["pass"] is True
    code, out = run(capsys, "--json", "cyclo", "kernel-test", "5", "--vector", "0,1,2,-2,-1")
    assert code == 0 and json.loads(out)["in_kernel"] is True
    code, _ = run(capsys, "cyclo", "kernel-test", "3", "--vector", "0,1,-1")
    assert code == 1
    code, out = run(capsys, "--json", "cyclo", "ranks", "9")
    obj = json.loads(out)
    assert code == 0 and obj["pass"] is True and len(obj["checks"]) == 3


@pytest.mark.parametrize(
    "argv",
    [["dist", "0"], ["dist", "-3"], ["dist", "4"], ["kernel-test", "-3", "--vector", "1,2,3"],
     ["kernel-test", "0", "--vector", "1"], ["ranks", "-3"]],
    ids=["dist-0", "dist-neg", "dist-even", "kernel-neg", "kernel-0", "ranks-neg"],
)
def test_cyclo_names_the_domain_before_it_factors(capsys, argv):
    code = main(["cyclo", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: n must be odd and positive, got {argv[1]}\n"


def test_cyclo_ranks_cap(capsys):
    code = main(["cyclo", "ranks", "47"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("resource error: ") and captured.err.count("\n") == 1


def refused_in_under_a_second(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and elapsed < 1.0
    assert captured.err.startswith("resource error: ") and captured.err.count("\n") == 1


def test_cyclo_kernel_test_stops_at_the_unit_word_cap(capsys):
    # Over conductor 1 the one word is 2^m, which costs m doublings of up to
    # m bits; the cap bounds d * m^2.
    top = math.isqrt(cyclo.UNIT_WORD_CAP)
    code, out = run(capsys, "cyclo", "kernel-test", "1", f"--vector={top}")
    assert code == 1 and out == "kernel test for n=1: False\n"
    refused_in_under_a_second(capsys, ["cyclo", "kernel-test", "1", f"--vector={top + 1}"])
    refused_in_under_a_second(capsys, ["cyclo", "kernel-test", "3", "--vector=0,10000000000000,0"])
    # Over conductor 3 the folded sum is 0 and the word (1 + w)^m / (1 + w^2)^m.
    top = math.isqrt(cyclo.UNIT_WORD_CAP // 3)
    code, out = run(capsys, "cyclo", "kernel-test", "3", f"--vector=0,{top},{-top}")
    assert code == 1 and out == "kernel test for n=3: False\n"
    refused_in_under_a_second(
        capsys, ["cyclo", "kernel-test", "3", f"--vector=0,{top + 1},{-top - 1}"]
    )


def test_cyclo_kernel_test_stops_at_the_conductor_cap(capsys):
    n = cyclo.KERNEL_TEST_CAP
    vector = ",".join(map(str, cyclo.sim0_lattice_basis(n)[1]))
    code, out = run(capsys, "cyclo", "kernel-test", str(n), f"--vector={vector}")
    assert code == 0 and out == f"kernel test for n={n}: True\n"
    vector = ",".join(map(str, cyclo.sim0_lattice_basis(n + 2)[1]))
    refused_in_under_a_second(capsys, ["cyclo", "kernel-test", str(n + 2), f"--vector={vector}"])


def test_cyclo_kernel_test_budgets_the_words_of_all_divisors(capsys):
    # A flip-lattice vector scaled until its word over the conductor itself
    # just fits the cap.  Over the 16 divisors of 3705 the words cost about
    # twice that, and evaluating them all took seconds.
    n = 3705
    scale = math.isqrt(cyclo.UNIT_WORD_CAP // (9 * n))
    vector = ",".join(str(scale * v) for v in cyclo.sim0_lattice_basis(n)[1])
    refused_in_under_a_second(capsys, ["cyclo", "kernel-test", str(n), f"--vector={vector}"])


@pytest.mark.parametrize(
    "n, digest",
    [
        (251, "3ae240f43be1a89244e0a7c082b53710be2dd35692b0eba238193103e068127f"),
        (255, "6c3e47680b10e2721f26dddbbdba92641832b9555aac08c2d21d93c47f33dc01"),
    ],
)
def test_cyclo_dist_prints_pinned_bytes(capsys, n, digest):
    code, out = run(capsys, "--json", "cyclo", "dist", str(n))
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_distribution_relations_of_251_are_fast():
    start = time.perf_counter()
    assert all(
        cyclo.verify_distribution(251, p, j) for p in prime_factors(251) for j in range(251 // p)
    )
    assert time.perf_counter() - start < 0.5


def test_kernel_test_of_a_flip_lattice_vector_at_3705_is_fast():
    x = cyclo.sim0_lattice_basis(3705)[1]
    start = time.perf_counter()
    assert cyclo.kernel_test(3705, x)
    assert time.perf_counter() - start < 0.2


@pytest.mark.parametrize(
    "argv",
    [
        ["counterexample", "16777215"],
        ["ofs", "test", "1000000000000000003"],
        ["counterexample", "1000000000000000003"],
        ["ofs", "list", "1000000000"],
        ["cyclo", "dist", "1009"],
    ],
)
def test_arguments_past_a_work_cap_exit_3(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("resource error: ") and captured.err.count("\n") == 1


def test_search_scan_report_round_trips(capsys):
    code, out = run(
        capsys, "--json", "search", "scan", "--group", '{"moduli":[2]}', "--max-size", "2"
    )
    assert code == 1  # violation found
    obj = json.loads(out)
    assert obj["exhaustive"] is True and len(obj["violations"]) == 1
    a = Multiset.from_obj(obj["violations"][0][0])
    assert a == Multiset.from_elements(cyclic(2), [0, 1])


@pytest.mark.parametrize(
    "extra",
    [
        ("--max-size", "0", "--bound", "1"),
        ("--max-size", "-1", "--bound", "1"),
        ("--max-size", "2", "--bound", "-1"),
        ("--max-size", "2", "--bound", "1", "--budget", "0"),
        ("--max-size", "2", "--bound", "1", "--budget", "-3"),
    ],
)
def test_search_scan_rejects_empty_ranges(capsys, extra):
    code = main(["search", "scan", "--group", '{"moduli":[5, 0]}', *extra])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_search_scan_explicit_budget(capsys):
    code, out = run(
        capsys, "--json", "search", "scan", "--group", '{"moduli":[5]}',
        "--max-size", "2", "--budget", "1",
    )
    obj = json.loads(out)
    assert code == 0 and obj["checked"] == 1 and obj["exhaustive"] is False


def test_search_scan_budget_bounds_the_box(capsys):
    start = time.perf_counter()
    code, out = run(
        capsys, "--json", "search", "scan", "--group", '{"moduli":[0]}',
        "--max-size", "2", "--bound", "200000", "--budget", "5",
    )
    assert time.perf_counter() - start < 1.0
    obj = json.loads(out)
    assert code == 0 and obj["checked"] == 5 and obj["exhaustive"] is False


def test_search_scan_budget_bounds_the_depth(capsys):
    # Size 10^6 would need counts up to 2^1000000; five nodes reach depth 5.
    start = time.perf_counter()
    code, out = run(
        capsys, "--json", "search", "scan", "--group", '{"moduli":[]}',
        "--max-size", "1000000", "--budget", "5",
    )
    assert time.perf_counter() - start < 1.0
    obj = json.loads(out)
    assert code == 0 and obj["checked"] == 5 and obj["exhaustive"] is False


def test_search_scan_of_a_large_group_stays_small(capsys):
    # A size-1 multiset has 2 subset sums; holding the scan's nodes must not
    # cost the 2^19 counts of the group per node.
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out = run(
            capsys, "--json", "search", "scan", "--group", '{"moduli":[524288]}',
            "--max-size", "1", "--budget", "20",
        )
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    obj = json.loads(out)
    assert code == 0 and obj["checked"] == 20 and obj["violations"] == []
    assert elapsed < 1.0 and peak < 2**20


@pytest.mark.parametrize("moduli, max_size, code, head, digest", [
    # Counts reach 2^70 and 2^66: a key that wrapped at int64 would merge
    # buckets and report false violations.  The digests pin the bytes that
    # the earlier {sum: count} map implementation printed.
    ("[1]", "70", 0, "group Z/1, sizes <= 70, checked 70, exhaustive=True\nviolations: 0\n",
     "04d69262f85341b7127672948cc4ff501945564cf8cab446463b6d8efcaceb4a"),
    ("[2]", "66", 1, "group Z/2, sizes <= 66, checked 2277, exhaustive=True\nviolations: 47905\n",
     "52f28d845801513f90ce01b5a1642ddea008424ab342fffd31e4efff65143e5f"),
])
def test_search_scan_counts_past_int64(capsys, moduli, max_size, code, head, digest):
    got, out = run(capsys, "search", "scan", "--group", f'{{"moduli":{moduli}}}',
                   "--max-size", max_size)
    assert got == code and out.startswith(head)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("moduli, extra, code, checked, violations, digest", [
    ("[17]", ["--max-size", "4"], 1, 5984, 16,
     "eca38b34351370b18602595cbf42f0252ed932c4199d7c781352abe12f188b63"),
    ("[4,2]", ["--max-size", "3"], 1, 164, 272,
     "12d0ecb49a0435c39e52338b0c8468b0407f23ff3f15974a1d084764c98bc5d9"),
    ("[9]", ["--max-size", "5"], 0, 2001, 0,
     "f027477a6fa198216ab4aae421327893ee0a180ce93ed255d8bcde7f1d5521b5"),
    ("[0]", ["--max-size", "4", "--bound", "6"], 0, 2379, 0,
     "5f35f3715c373e7547105a5f513a9545ab4dac98a877e8055f3b304d2ef06155"),
], ids=["Z17", "Z4xZ2", "Z9", "Z"])
def test_search_scan_prints_pinned_bytes(capsys, moduli, extra, code, checked, violations, digest):
    # The digests pin the bytes that scans printed when count vectors were
    # lists and every member of a shared bucket became a Multiset.
    got, out = run(capsys, "--json", "search", "scan", "--group", f'{{"moduli":{moduli}}}', *extra)
    obj = json.loads(out)
    assert got == code and obj["checked"] == checked and len(obj["violations"]) == violations
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_search_invert_fs_rejects_negative_bound(tmp_path, capsys):
    path = tmp_path / "fs.json"
    path.write_text(Multiset.from_elements(cyclic(0), [0, 1]).to_json())
    code = main(["search", "invert-fs", "--in", str(path), "--bound", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_search_invert_fs(tmp_path, capsys):
    fs = Multiset.from_elements(cyclic(2), [0, 0, 1, 1])
    path = tmp_path / "fs.json"
    path.write_text(fs.to_json())
    code, out = run(capsys, "--json", "search", "invert-fs", "--in", str(path))
    assert code == 0
    obj = json.loads(out)
    assert len(obj["classes"]) == 2


def test_search_invert_fs_over_z_without_a_bound(tmp_path, capsys):
    rng = random.Random(16)
    source = Multiset.from_elements(cyclic(0), [rng.randint(-50, 50) for _ in range(16)])
    path = tmp_path / "fs.json"
    path.write_text(source.subset_sums().to_json())
    code, out = run(capsys, "--json", "search", "invert-fs", "--in", str(path))
    assert code == 0
    classes = json.loads(out)["classes"]
    assert any(source.to_obj() in cls for cls in classes)


def test_search_invert_fs_of_many_even_order_classes_in_seconds(tmp_path, capsys):
    # 4,080 preimages in 1,840 zero-flip classes.  Matching each preimage
    # against one member of every class found so far ran past a minute.
    source = Multiset.from_elements(cyclic(16), [2, 3, 4, 8, 14, 15])
    path = tmp_path / "fs.json"
    path.write_text(source.subset_sums().to_json())
    start = time.perf_counter()
    code, out = run(capsys, "--json", "search", "invert-fs", "--in", str(path))
    assert time.perf_counter() - start < 10.0
    classes = json.loads(out)["classes"]
    assert code == 0 and len(classes) == 1840 and sum(map(len, classes)) == 4080
    assert any(source.to_obj() in cls for cls in classes)


def test_search_invert_fs_past_the_work_cap_exits_3(tmp_path, capsys):
    # The exhaustive walk over this target visits 178,191 nodes with a
    # 31-count quotient each, about 5.5 million against the cap of 400,000.
    rng = random.Random(1)
    source = Multiset.from_elements(cyclic(31), [rng.randrange(31) for _ in range(12)])
    path = tmp_path / "fs.json"
    path.write_text(source.subset_sums().to_json())
    start = time.perf_counter()
    code = main(["search", "invert-fs", "--in", str(path)])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("resource error: preimage search stopped after ")
    assert captured.err.count("\n") == 1 and " nodes" in captured.err


def test_search_scan_past_the_violation_cap_exits_3(capsys):
    # 1,268,132 violating pairs against the cap of 2**20; building them all
    # ran out of memory under a 1.5 GB address-space limit.
    start = time.perf_counter()
    code = main(["search", "scan", "--group", '{"moduli":[2,2]}', "--max-size", "16"])
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("resource error: the scan found more than 1048576 ")
    assert captured.err.count("\n") == 1


def test_selftest_quick(capsys):
    code, out = run(capsys, "--json", "selftest", "--quick")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    assert len(obj["items"]) >= 12


def test_selftest_negative_control(capsys):
    code, out = run(capsys, "--json", "selftest", "--quick", "--corrupt-lambda")
    assert code == 1
    obj = json.loads(out)
    failed = [item["number"] for item in obj["items"] if not item["pass"]]
    assert failed == [7]


def test_selftest_reports_a_failed_construction_as_a_fail(capsys, monkeypatch):
    """A counterexample pair that fails its own check raises inside criteria
    4, 5 and 13: each is a FAIL carrying the error text, and the other items
    still run."""
    monkeypatch.setattr("fsrecon.counterexamples.sim0_check", lambda a, b: (True, None))
    code, out = run(capsys, "--json", "selftest", "--quick")
    items = json.loads(out)["items"]
    assert code == 1 and len(items) == 14
    assert [item["number"] for item in items if not item["pass"]] == [4, 5, 13]
    assert items[4]["detail"].startswith("counterexample construction failed for n=17")


# -- start-up --------------------------------------------------------------------------


def fresh_python(body, *argv):
    """Run `body` in a new interpreter, since this one has loaded numpy; it
    may set `code`.  (exit code, stdout, whether numpy was imported)."""
    src = str(Path(fsrecon.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = f"import sys\ncode = 0\n{body}\nprint('numpy' in sys.modules)\nsys.exit(code)\n"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    *lines, loaded = proc.stdout.splitlines(keepends=True)
    return proc.returncode, "".join(lines), loaded == "True\n"


@pytest.mark.parametrize("module", ["fsrecon", "fsrecon.cli"])
def test_import_loads_no_numpy(module):
    assert fresh_python(f"import {module}") == (0, "", False)


def test_cli_import_loads_no_dataclasses_or_inspect():
    """Each costs start-up time that no command's output depends on."""
    body = "import fsrecon.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert fresh_python(body) == (0, "[]\n", False)


def test_pure_integer_commands_load_no_numpy(tmp_path):
    z6 = cyclic(6)
    for name, elements in (("a", [1, 2, 3]), ("b", [5, 4, 3])):
        (tmp_path / f"{name}.json").write_text(Multiset.from_elements(z6, elements).to_json())
    (tmp_path / "fs.json").write_text(Multiset.from_elements(cyclic(2), [0, 0, 1, 1]).to_json())
    main_argv = "from fsrecon.cli import main\ncode = main(sys.argv[1:])"
    cases = [
        (
            ["sim0", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json")],
            0, "zero-flip equivalent: True\nflip set: {1, 2, 3}\n",
        ),
        (
            ["ofs", "test", "97"],
            1, "97: not member (ord2=48, phi=96, branch=half-order-minus-one)\n",
        ),
        (
            ["search", "scan", "--group", '{"moduli":[0]}', "--max-size", "2", "--bound", "2"],
            0, "group Z, sizes <= 2, checked 20, exhaustive=False\nviolations: 0\n",
        ),
        (["cyclo", "kernel-test", "5", "--vector", "0,1,2,-2,-1"], 0, "kernel test for n=5: True\n"),
        # Subset sums as count vectors, the scans over Z on their window.
        (
            ["fs", "--in", str(tmp_path / "a.json")],
            0, '{"group":{"moduli":[6]},"elements":[[[0],2],[[1],1],[[2],1],[[3],2],[[4],1],[[5],1]]}\n',
        ),
        (
            ["search", "scan", "--group", '{"moduli":[17]}', "--max-size", "2"],
            0, "group Z/17, sizes <= 2, checked 170, exhaustive=True\nviolations: 0\n",
        ),
        (
            ["search", "scan", "--group", '{"moduli":[3,3]}', "--max-size", "3"],
            0, "group Z/3 x Z/3, sizes <= 3, checked 219, exhaustive=True\nviolations: 0\n",
        ),
        (
            ["search", "invert-fs", "--in", str(tmp_path / "fs.json")],
            0, "2 equivalence classes\nclass 0: {0, 1}\nclass 1: {1:2}\n",
        ),
        (
            ["counterexample", "17"],
            0, "n=17 d=8 k=3 verified=True\nA  = {1, 2, 4, 8, 9, 13, 15, 16}\n"
               "A' = {3, 5, 6, 7, 10, 11, 12, 14}\n",
        ),
    ]
    for argv, code, out in cases:
        assert fresh_python(main_argv, *argv) == (code, out, False), argv
