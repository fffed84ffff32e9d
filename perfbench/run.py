"""End-to-end benchmark of the fsrecon command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each command of a job is a fresh
``python -m fsrecon.cli`` process reading the seeded input files that
workloads.py writes; the commands of a job run one after another, and jobs
repeat until the time is up (a closed loop with one client).  This process
starts no threads and never runs two commands at once.

Every command runs in a new interpreter, traced or not.  fsrecon keeps
module-level caches (radon's ``_psix_cache``, the ``lru_cache`` on
``_builtin_weight_ints`` and on ``cyclotomic_poly``); a reused interpreter
would find them warm and make repeats faster than any user's invocation.

The host this runs on is shared, and its speed drifts by up to 2x within
a minute; every command slows down with it.  So with ``--trace 0`` a fresh
run of reference.py, which imports nothing from fsrecon, runs before the
first command and after every measured process.  Each end-to-end time is
the process's wall time divided by the mean of the two reference times
around it, times NOMINAL_REFERENCE_S: seconds on a host that runs the
reference in that time.  The raw wall-time medians go into the run context.

With ``--trace 0`` the end-to-end metrics are measured; with ``--trace 1``
the run alternates untraced jobs with jobs whose commands run under
traced_cli.py, and reports per-layer self times from the traced ones.  The
last line of stdout is the result object; the line before it records the
run context.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from reference import checksum as reference_checksum
from workloads import WORKLOADS, Command, Workload, build

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"

# What reference.py takes, in a fresh process, on a 2-CPU share of an
# Intel Xeon host when that host is not slowed down by its neighbours.
NOMINAL_REFERENCE_S = 0.35

COMMAND_TIMEOUT_S = 60
MIN_JOBS = 3
SETUP_PROBES_PER_JOB = 2


@dataclass
class Outcome:
    command: Command
    wall: float
    cpu: float
    maxrss_kb: int
    problems: list[str]
    bytes_in: int
    bytes_out: int
    stdout: str
    spans: dict | None = None
    scaled: float | None = None  # wall time in nominal-host seconds


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(argv: list[str], cwd: Path, stdout_path: Path, stderr_path: Path):
    """Run argv to completion; return (wall seconds, exit code, rusage).

    os.wait4 gives the child's own peak RSS and CPU time.  SIGALRM kills a
    child that outlives COMMAND_TIMEOUT_S, so the wait always ends."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=_child_env())
        previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(proc.pid, signal.SIGKILL))
        signal.alarm(COMMAND_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def run_command(cmd: Command, work: Path, traced: bool) -> Outcome:
    stdout_path, stderr_path = work / "stdout.txt", work / "stderr.txt"
    spans_path = work / "spans.json"
    if traced:
        spans_path.unlink(missing_ok=True)
        argv = [sys.executable, str(TRACED_CLI), str(spans_path), "--", *cmd.args]
    else:
        argv = [sys.executable, "-m", "fsrecon.cli", *cmd.args]
    bytes_in = sum((work / f).stat().st_size for f in cmd.inputs)
    wall, code, usage = _spawn(argv, work, stdout_path, stderr_path)
    stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
    stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
    problems = []
    if code != cmd.expect_exit:
        problems.append(f"exit code {code}, expected {cmd.expect_exit}: {stderr.strip()[-300:]}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if not problems:
        try:
            problems += cmd.check(stdout)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"output check could not read the output: {exc!r}")
    spans = None
    if traced and spans_path.exists():
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
    elif traced:
        problems.append("traced command wrote no spans")
    bytes_out = len(stdout.encode()) + sum(
        (work / f).stat().st_size for f in cmd.outputs if (work / f).exists()
    )
    return Outcome(cmd, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                   problems, bytes_in, bytes_out, stdout, spans)


class Reference:
    """The host-speed yardstick: reference.py in a fresh process, run once on
    creation and again after each measured process.  ``scale`` turns the
    measured wall time into nominal-host seconds with the mean of the
    reference times just before and just after it."""

    def __init__(self, work: Path):
        self.work = work
        self.expected = str(reference_checksum())
        self.walls: list[float] = []
        self.last = self._run()

    def _run(self) -> float:
        out = self.work / "reference.out"
        wall, code, _ = _spawn([sys.executable, str(REFERENCE)], self.work, out,
                               self.work / "reference.err")
        if code != 0 or out.read_text().strip() != self.expected:
            raise RuntimeError(f"reference.py exited {code} with {out.read_text()[:80]!r}")
        self.walls.append(wall)
        return wall

    def scale(self, wall: float) -> float:
        after = self._run()
        scaled = wall * NOMINAL_REFERENCE_S / ((self.last + after) / 2)
        self.last = after
        return scaled


def run_job(wl: Workload, work: Path, traced: bool,
            reference: Reference | None = None) -> list[Outcome]:
    outcomes = []
    for cmd in wl.commands:
        outcome = run_command(cmd, work, traced)
        if reference is not None:
            outcome.scaled = reference.scale(outcome.wall)
        for p in outcome.problems:
            print(f"[{wl.name}] {cmd.label} failed: {p}", file=sys.stderr)
        outcomes.append(outcome)
    return outcomes


def setup_probe(work: Path) -> float:
    """Wall time of a fresh interpreter that only imports fsrecon.cli."""
    wall, code, _ = _spawn([sys.executable, "-c", "import fsrecon.cli"], work,
                           work / "probe.out", work / "probe.err")
    if code != 0:
        raise RuntimeError((work / "probe.err").read_text()[-500:])
    return wall


# -- metrics --------------------------------------------------------------------------


def end_to_end(jobs: list[list[Outcome]], probes: list[float]) -> dict:
    """Times in nominal-host seconds (Outcome.scaled); probes are scaled."""
    median = statistics.median
    metrics = {
        "job_s.p50": (median([sum(o.scaled for o in job) for job in jobs]), "s"),
        "peak_rss_mb": (median([max(o.maxrss_kb for o in job) / 1024 for job in jobs]), "MB"),
        "setup_s": (median(probes), "s"),
    }
    for i in range(len(jobs[0])):
        metrics[f"cmd_s.{i + 1}"] = (median([job[i].scaled for job in jobs]), "s")
    return metrics


def raw_walls(jobs: list[list[Outcome]], probes: list[float], reference: Reference) -> dict:
    """Medians of the unscaled wall times, for the run context."""
    median = statistics.median
    return {
        "job": median([sum(o.wall for o in job) for job in jobs]),
        "commands": [median([job[i].wall for job in jobs]) for i in range(len(jobs[0]))],
        "setup": median(probes),
        "reference": median(reference.walls),
    }


def _self_times(spans: list) -> tuple[dict, dict, dict]:
    """Per span name: summed self time, summed inclusive time, call count."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    self_s, incl_s, calls = {}, {}, {}
    for (name, start, end, _), s in zip(spans, own):
        self_s[name] = self_s.get(name, 0.0) + s
        incl_s[name] = incl_s.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    return self_s, incl_s, calls


_SELF_TIME_METRICS = {
    "cli.parse_s": "cli.parse",
    "cli.serialize_s": "cli.serialize",
    "cli.other_s": "cli.main",
    "radon.table_from_obj_s": "radon.table_from_obj",
    "radon.image_from_obj_s": "radon.image_from_obj",
    "radon.image_to_json_s": "radon.image_to_json",
    "radon.table_to_json_s": "radon.table_to_json",
    "radon.forward_s": "radon.forward",
    "radon.invert_s": "radon.invert",
    "radon.verify_inverting_s": "radon.verify_inverting",
    "multisets.from_obj_s": "multisets.from_obj",
    "multisets.to_json_s": "multisets.to_json",
    "multisets.subset_sums_s": "multisets.subset_sums",
    "multisets.sim0_check_s": "multisets.sim0_check",
    "search.regularity_scan.self_s": "search.regularity_scan",
    "search.fs_preimages.self_s": "search.fs_preimages",
}
_KERNELS = ("radon.forward", "radon.invert", "radon.verify_inverting")


def _traced_job_metrics(job: list[Outcome], wl: Workload) -> tuple[dict, float]:
    """Per-layer values of one traced job, and its lowest span coverage: the
    share of a command's wall time that named spans (startup included)
    account for."""
    totals = {name: 0.0 for name in _SELF_TIME_METRICS}
    totals.update({
        "cli.startup_s": 0.0, "cli.cpu_s": 0.0, "cli.bytes_in": 0, "cli.bytes_out": 0,
        "multisets.subset_sums.calls": 0, "multisets.sim0_check.calls": 0,
        "groups.element.calls": 0, "search.checked": 0, "search.violations": 0,
        "search.preimage_classes": 0,
    })
    kernel_s = radon_wall = scan_s = scan_elements = 0.0
    coverage = 1.0
    for o in job:
        trace = o.spans or {"spans": [], "counts": {}}
        self_s, incl_s, calls = _self_times(trace["spans"])
        for metric, span in _SELF_TIME_METRICS.items():
            totals[metric] += self_s.get(span, 0.0)
        main_s = incl_s.get("cli.main", 0.0)
        totals["cli.startup_s"] += o.wall - main_s
        coverage = min(coverage, 1 - self_s.get("cli.main", 0.0) / o.wall)
        totals["cli.cpu_s"] += o.cpu
        totals["cli.bytes_in"] += o.bytes_in
        totals["cli.bytes_out"] += o.bytes_out
        totals["multisets.subset_sums.calls"] += calls.get("multisets.subset_sums", 0)
        totals["multisets.sim0_check.calls"] += calls.get("multisets.sim0_check", 0)
        element_calls = trace["counts"].get("groups.element.calls", 0)
        totals["groups.element.calls"] += element_calls
        if o.command.label.startswith("radon-"):
            kernel_s += sum(incl_s.get(k, 0.0) for k in _KERNELS)
            radon_wall += o.wall
        if o.problems:
            continue
        if o.command.label == "search-scan":
            report = json.loads(o.stdout)
            totals["search.checked"] += report["checked"]
            totals["search.violations"] += len(report["violations"])
            scan_s += incl_s.get("search.regularity_scan", 0.0)
            scan_elements += element_calls
        if o.command.label == "search-invert-fs":
            totals["search.preimage_classes"] += len(json.loads(o.stdout)["classes"])
    checked = totals["search.checked"]
    totals["radon.kernel_share"] = kernel_s / radon_wall if radon_wall else 0.0
    totals["search.multisets_per_s"] = checked / scan_s if scan_s else 0.0
    totals["groups.element_per_multiset"] = scan_elements / checked if checked else 0.0
    for key in ("points", "image_entries", "den_bits"):
        totals[f"radon.{key}"] = wl.props.get(key, 0)
    return totals, coverage


_UNITS = {"cli.bytes_in": "bytes", "cli.bytes_out": "bytes", "radon.den_bits": "bits",
          "radon.kernel_share": "ratio", "search.multisets_per_s": "1/s",
          "groups.element_per_multiset": "count"}


def per_layer(traced: list[list[Outcome]], plain: list[list[Outcome]], wl: Workload,
              attempted: int, failed: int) -> dict:
    rows, coverages = [], []
    for job in traced:
        values, coverage = _traced_job_metrics(job, wl)
        rows.append(values)
        coverages.append(coverage)
    metrics = {}
    for name in rows[0]:
        unit = _UNITS.get(name) or ("s" if name.endswith("_s") else "count")
        metrics[name] = (statistics.median([r[name] for r in rows]), unit)
    traced_s = statistics.median([sum(o.wall for o in job) for job in traced])
    plain_s = statistics.median([sum(o.wall for o in job) for job in plain])
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    metrics["trace.coverage_min"] = (min(coverages), "ratio")
    metrics["fail_ratio"] = (failed / attempted, "ratio")
    return metrics


# -- run context ----------------------------------------------------------------------


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_context(args, wl: Workload, wall_s: dict | None) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": _cpu_model(),
        "commands": [{"label": c.label, "args": c.args, "expect_exit": c.expect_exit}
                     for c in wl.commands],
        "inputs": wl.props,
        "nominal_reference_s": NOMINAL_REFERENCE_S,
        "wall_s": wall_s,
    }


# -- main -------------------------------------------------------------------------------


def measure(wl: Workload, work: Path, seconds: float,
            trace: bool) -> tuple[dict, int, int, dict | None]:
    """Run jobs for about `seconds`; return the metrics, the attempted and
    failed command counts, and (untraced) the raw wall-time medians."""
    attempted = failed = 0
    plain: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    probes: list[float] = []
    raw_probes: list[float] = []
    setup_probe(work)  # unmeasured: compiles the bytecode caches once
    reference = None if trace else Reference(work)

    def probe():
        raw_probes.append(setup_probe(work))
        probes.append(reference.scale(raw_probes[-1]))

    start = time.perf_counter()
    while True:
        kinds = (False, True) if trace else (False,)
        for is_traced in kinds:
            job = run_job(wl, work, is_traced, None if is_traced else reference)
            attempted += len(job)
            failed += sum(1 for o in job if o.problems)
            (traced if is_traced else plain).append(job)
        if not trace:
            for _ in range(SETUP_PROBES_PER_JOB):
                probe()
        # Stop at the round boundary nearest to `seconds`.
        elapsed = time.perf_counter() - start
        if len(plain) >= MIN_JOBS and elapsed + elapsed / len(plain) / 2 > seconds:
            break
    if trace:
        return per_layer(traced, plain, wl, attempted, failed), attempted, failed, None
    return (end_to_end(plain, probes), attempted, failed,
            raw_walls(plain, raw_probes, reference))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fsrecon" / "cli.py").is_file():
        print(f"error: no fsrecon sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=base))
    try:
        wl = build(args.workload, args.seed, work)
        metrics, attempted, failed, wall_s = measure(wl, work, args.seconds, bool(args.trace))
        print(json.dumps({"context": run_context(args, wl, wall_s)}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:  # another run is still using it
            pass
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
