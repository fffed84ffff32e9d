"""Negative controls for the benchmark's output checks: a corrupted output must
be caught and counted as a failed command."""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def _corrupt_image_entry(path: Path, index: int) -> None:
    img = json.loads(path.read_text())
    entry = img["entries"][index]
    num, _, den = entry[2].partition("/")
    entry[2] = f"{int(num) + 1}/{den or 1}"
    path.write_text(json.dumps(img))


def test_perturbed_image_entry_fails_the_job(tmp_path):
    wl = workloads.build_radon("radon-deep", 3, 3, seed=5, work=tmp_path)
    forward, invert, verify = wl.commands
    assert run.run_command(forward, tmp_path, traced=False).problems == []

    # The per-hom mass check covers every entry, sampled or not.  A command
    # whose outcome lists problems counts as failed in fail_ratio.
    _corrupt_image_entry(tmp_path / "image.json", -1)
    assert forward.check("") != []
    assert run.run_command(invert, tmp_path, traced=False).problems != []
    assert run.run_command(verify, tmp_path, traced=False).problems == []


def test_traced_command_records_spans(tmp_path):
    wl = workloads.build_radon("radon-deep", 3, 3, seed=5, work=tmp_path)
    outcome = run.run_command(wl.commands[0], tmp_path, traced=True)
    assert outcome.problems == []
    names = {span[0] for span in outcome.spans["spans"]}
    assert {"cli.main", "radon.table_from_obj", "radon.forward", "radon.image_to_json"} <= names


def test_sim0_check_rejects_wrong_verdicts_and_witnesses(tmp_path):
    wl = workloads.build("flip-decide", 3, tmp_path)
    eq, ne, _ = wl.commands
    eq_a = json.loads((tmp_path / "eq_a.json").read_text())
    assert eq.check(json.dumps({"equivalent": False})) != []
    assert ne.check(json.dumps({"equivalent": True, "flip_set": eq_a})) != []
    # Flipping all of a is the witness; without one free element it no
    # longer sums to zero.
    assert eq.check(json.dumps({"equivalent": True, "flip_set": eq_a})) == []
    short = dict(eq_a, elements=eq_a["elements"][1:])
    assert eq.check(json.dumps({"equivalent": True, "flip_set": short})) != []
    assert ne.check(json.dumps({"equivalent": False})) == []


def test_fs_and_scan_checks_reject_one_wrong_count(tmp_path):
    wl = workloads.build("fs-scan", 3, tmp_path)
    scan17, fs, _ = wl.commands
    source = json.loads((tmp_path / "multiset.json").read_text())
    elements = [x for (x,), m in source["elements"] for _ in range(m)]
    sums = workloads.plain_subset_sums(elements, 4099)
    out = {"group": {"moduli": [4099]}, "elements": [[[s], c] for s, c in sums]}
    (tmp_path / "sums.json").write_text(json.dumps(out))
    assert fs.check("") == []
    out["elements"][0][1] += 1
    (tmp_path / "sums.json").write_text(json.dumps(out))
    assert fs.check("") != []

    checked, violations = workloads.plain_scan(17, 4, None)
    pairs = [sorted(pair) for pair in violations]

    def report(kept):
        return json.dumps({"checked": checked, "violations": [
            [workloads._multiset_obj([17], [(x,) for x in ms]) for ms in pair]
            for pair in kept]})

    assert scan17.check(report(pairs)) == []
    assert scan17.check(report(pairs[1:])) != []


def test_reference_scales_by_the_mean_of_the_neighbouring_runs(tmp_path, monkeypatch):
    walls = iter([0.2, 0.6, 1.0])
    monkeypatch.setattr(run.Reference, "_run", lambda self: next(walls))
    reference = run.Reference(tmp_path)
    assert reference.scale(1.0) == pytest.approx(run.NOMINAL_REFERENCE_S / 0.4)
    assert reference.scale(1.0) == pytest.approx(run.NOMINAL_REFERENCE_S / 0.8)
