import json
import time
from fractions import Fraction

import pytest

from fsrecon.cli import main
from fsrecon.groups import cyclic
from fsrecon.multisets import Multiset
from fsrecon.radon import FunctionTable, RadonImage, forward, random_table
from fsrecon.search import ScanReport


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
    assert main(["fs", "--in", "/nonexistent/path.json"]) == 2
    assert main(["--config", "x", "ofs", "test", "15"]) == 2  # no config-file layer


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


# -- data-bearing commands ------------------------------------------------------------


def test_fs_subset_sums_file(tmp_path, capsys):
    a = Multiset.from_elements(cyclic(2), [0, 1])
    path = tmp_path / "a.json"
    path.write_text(a.to_json())
    code, out = run(capsys, "fs", "--in", str(path))
    assert code == 0
    fs = Multiset.from_json(out)
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
    code, _ = run(capsys, "counterexample", "17", "--out", str(out_path))
    assert code == 0
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


def test_radon_forward_invert_files(tmp_path, capsys):
    import random

    f = random_table(3, 2, random.Random(0))
    fpath = tmp_path / "f.json"
    rpath = tmp_path / "rf.json"
    fpath.write_text(f.to_json())
    assert main(["radon", "forward", "--in", str(fpath), "--out", str(rpath)]) == 0
    img = RadonImage.from_json(rpath.read_text())
    assert img == forward(f)
    gpath = tmp_path / "g.json"
    assert main(["radon", "invert", "--in", str(rpath), "--out", str(gpath)]) == 0
    assert FunctionTable.from_json(gpath.read_text()) == f


def test_radon_verify_command(capsys):
    code, _ = run(capsys, "radon", "verify", "--n", "3", "--d", "2")
    assert code == 0


def test_radon_bench_command(capsys):
    code, out = run(capsys, "--json", "radon", "bench", "--n", "3", "--d", "2")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["round_trip_exact"] is True and row["points"] == 9


@pytest.mark.parametrize(
    "argv",
    [
        ("radon", "verify", "--n", "3", "--d", "0"),
        ("radon", "verify", "--n", "0", "--d", "2"),
        ("radon", "bench", "--n", "3", "--d", "-1"),
        ("radon", "bench", "--n", "3", "--d", "2", "--tables", "0"),
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
        ("radon", "bench", "--n", "3000", "--d", "3"),
        ("radon", "verify", "--n", "2", "--d", "40"),
        ("radon", "verify", "--n", "1", "--d", "30000000"),
    ],
    ids=["verify-wide", "bench-wide", "verify-deep", "verify-trivial-modulus"],
)
def test_radon_grids_past_the_size_cap_exit_3(capsys, argv):
    code = main(list(argv))
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
    assert RadonImage.from_json(out) == forward(FunctionTable.from_values(3, 1, {
        (0,): 3, (1,): Fraction(3, 2), (2,): Fraction(-1, 2)
    }))


@pytest.mark.parametrize(
    "argv, document",
    [
        (("fs", "--in"), {"group": {"moduli": [5]}, "elements": 5}),
        (("fs", "--in"), [1, 2]),
        (("fs", "--in"), {"group": {"moduli": [5]}, "elements": [[[1.5], 1]]}),
        (("fs", "--in"), {"group": {"moduli": "55"}, "elements": []}),
        (("cyclo", "kernel-test", "5", "--vector", "a,b"), None),
    ],
    ids=["elements-not-a-list", "top-level-array", "coordinate-float", "moduli-text", "vector"],
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


def test_cyclo_ranks_cap(capsys):
    code = main(["cyclo", "ranks", "47"])
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


def test_bench_deterministic_except_timing(capsys):
    code, out1 = run(capsys, "--json", "bench", "--suite", "fs")
    code2, out2 = run(capsys, "--json", "bench", "--suite", "fs")
    assert code == code2 == 0

    def strip_timing(text):
        rows = json.loads(text)["rows"]
        return [{k: v for k, v in row.items() if not k.endswith("_ms")} for row in rows]

    assert strip_timing(out1) == strip_timing(out2)


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


def test_scan_report_obj_reader_round_trip():
    from fsrecon.search import regularity_scan

    report = regularity_scan(cyclic(2), 2)
    again = ScanReport.from_obj(report.to_obj())
    assert again.to_obj() == report.to_obj()
