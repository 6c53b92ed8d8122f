"""End-to-end benchmark of the groupanon command line.

Usage::

    python3 perfbench/run.py --workload census-13 --seed 1 --seconds 56 --trace 0

Run from any directory; the program is taken from ``src/`` beside this
directory.  One run generates the workload from ``--seed`` (nine times in one
child process, to time set-up), then for about ``--seconds`` seconds repeats one operation
pair: ``groupanon anonymize`` and ``groupanon verify`` as child processes,
one child at a time.  Every output is checked (see ``Checker``).

``--trace 0`` reports the end-to-end metrics: medians of the children's wall
time and peak RSS (``ru_maxrss`` from ``os.wait4``), the released file's
mean drift, and set-up time.  ``--trace 1`` runs the same commands through
``trace_child.py``, which records spans around each layer's calls in the
program's own process, and reports per-layer times and counts plus the
tracing overhead against an untraced anonymize child.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
state the machine, the problem sizes and every metric with its sample count.
Generated files live in ``.perfbench_work/`` and are removed after a run in
which every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads
from trace_child import SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# The whole run has to end within 180 s; children still running at this
# point are killed and counted as failed.
HARD_LIMIT_S = 165.0
SETUP_REPEATS = 9
# At least three anonymize/verify pairs per untraced run, so census-13
# (about 14 s a pair) still reports a median of three, and every run checks
# that repeated anonymize runs write the same bytes.
MIN_OPS_UNTRACED = 3
EXIT_NO_PROGRAM = 2

MACHINE_PROBE = """
import json, os, platform, sys
import numpy
import groupanon.cli
blas = "unknown"
try:
    deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{deps.get('name')} {deps.get('version')}"
except Exception:
    pass
print(json.dumps({
    "nproc": os.cpu_count(),
    "affinity": len(os.sched_getaffinity(0)),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": blas,
    "machine": platform.machine(),
}))
"""


@dataclass(frozen=True)
class Child:
    status: int
    wall_s: float
    peak_rss_mib: float
    log: Path


class Runner:
    """Starts one child at a time and reaps it with its resource usage."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.count = 0

    def run(self, argv: list[str], label: str) -> Child:
        self.count += 1
        log = self.work / f"{self.count:03d}-{label}.log"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux.
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, log)

    def cli(self, command: str, config: str) -> Child:
        return self.run([sys.executable, "-m", "groupanon.cli", command, "--config", config], command)

    def traced(self, command: str, config: str, out: Path) -> Child:
        argv = [sys.executable, str(HERE / "trace_child.py"), command, config, str(out)]
        return self.run(argv, f"traced-{command}")


class Checker:
    """Output checks; every failed check marks its operation failed.

    An anonymize operation must exit 0, write a report whose status is
    ``ok``, and write the same bytes as every other anonymize of this run
    (same seed, same config).  The first released file is recounted here:
    denominators must be unchanged and, where the workload pins them, the
    new counts must equal the golden counts.  A verify operation must exit 0.
    """

    def __init__(self, prepared: workloads.Prepared, runner: Runner):
        self.prepared = prepared
        self.runner = runner
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None
        self.released_problem: str | None = None
        self.released: list[int] | None = None

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def anonymize(self, child: Child) -> None:
        self.attempted += 1
        p = self.prepared
        if child.status != 0:
            return self._fail(f"anonymize exited {child.status} (log {child.log.name})")
        try:
            status = json.loads(Path(p.report).read_text(encoding="utf-8")).get("status")
            digest = hashlib.sha256(Path(p.output).read_bytes()).hexdigest()
        except (OSError, ValueError) as exc:
            return self._fail(f"anonymize left no readable report or output: {exc}")
        if status != "ok":
            return self._fail(f"anonymize report status is {status!r}")
        if self.digest is None:
            self.digest = digest
            self.released_problem = self._recount()
        if self.released_problem:
            return self._fail(self.released_problem)
        if digest != self.digest:
            return self._fail(f"anonymize wrote other bytes than the first of this run (sha256 {digest})")

    def _recount(self) -> str | None:
        """Recount the released file; return what is wrong with it, if anything."""
        p = self.prepared
        recount = self.runner.run(
            [sys.executable, str(HERE / "workloads.py"), "recount",
             str(self.runner.work / "prepared.json"), p.output], "recount")
        if recount.status != 0:
            return f"released file cannot be recounted (log {recount.log.name})"
        released = json.loads(recount.log.read_text(encoding="utf-8").splitlines()[-1])
        if released["denominators"] != p.denominators:
            return "released file changed a denominator"
        if p.golden_counts is not None and released["counts"] != p.golden_counts:
            return f"released counts {released['counts']} are not the golden counts"
        self.released = released["counts"]
        return None

    def verify(self, child: Child) -> None:
        self.attempted += 1
        if child.status != 0:
            self._fail(f"verify exited {child.status} (log {child.log.name})")

    def mean_drift(self) -> float:
        """|mean(new/den) - mean(old/den)| of the released file; 0 if none."""
        if self.released is None:
            return 0.0
        p = self.prepared
        new = sum(c / d for c, d in zip(self.released, p.denominators))
        old = sum(c / d for c, d in zip(p.old_counts, p.denominators))
        return abs(new - old) / len(p.denominators)

    def records_changed(self) -> int:
        if self.released is None:
            return 0
        return sum(abs(a - b) for a, b in zip(self.released, self.prepared.old_counts))


def repeat_for(seconds: float, deadline: float, min_ops: int, op) -> list[float]:
    """Run ``op`` until ``seconds`` would be exceeded by one more (median) op."""
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        if durations:
            expected = statistics.median(durations)
            if len(durations) >= min_ops and time.perf_counter() - start + expected > seconds:
                break
            if time.monotonic() + expected > deadline:
                break
        t = time.perf_counter()
        op()
        durations.append(time.perf_counter() - t)
    return durations


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure_untraced(runner: Runner, checker: Checker, prepared, seconds, deadline) -> tuple[dict, list[str]]:
    anonymize: list[Child] = []
    verify: list[Child] = []

    def op():
        child = runner.cli("anonymize", prepared.config)
        checker.anonymize(child)
        anonymize.append(child)
        child = runner.cli("verify", prepared.config)
        checker.verify(child)
        verify.append(child)

    repeat_for(seconds, deadline, MIN_OPS_UNTRACED, op)
    return {
        "anonymize_s": (metric(median([c.wall_s for c in anonymize]), "s"), len(anonymize)),
        "verify_s": (metric(median([c.wall_s for c in verify]), "s"), len(verify)),
        "anonymize_peak_rss_mib": (metric(median([c.peak_rss_mib for c in anonymize]), "MiB"), len(anonymize)),
        "verify_peak_rss_mib": (metric(median([c.peak_rss_mib for c in verify]), "MiB"), len(verify)),
        "released_mean_drift": (metric(checker.mean_drift(), "ratio"), 1),
    }, []


def span_totals(spans) -> tuple[dict, dict, dict]:
    """Per span name: summed time, summed self time, and call count."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    total: dict = defaultdict(float)
    self_time: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    for i, (name, start, end, parent) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - covered[i]
        calls[name] += 1
    return total, self_time, calls


def anonymize_shares(spans) -> dict:
    """Share of cli.run_anonymize spent in each layer's direct child spans."""
    roots = [i for i, s in enumerate(spans) if s[0] == "cli.run_anonymize"]
    whole = sum(spans[i][2] - spans[i][1] for i in roots)
    shares: dict = defaultdict(float)
    if whole <= 0:
        return {}
    for name, start, end, parent in spans:
        if parent in roots:
            shares[name.split(".")[0]] += (end - start) / whole
    return dict(shares)


# Spans whose self time is reported too (their own work besides child spans).
SELF_TIME_SPANS = ("cli.run_anonymize", "cli.run_verify", "redistribution.redistribute")


def read_trace(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def measure_traced(runner: Runner, checker: Checker, prepared, seconds, deadline) -> tuple[dict, list[str]]:
    """Per-layer numbers; one operation is a traced anonymize and verify."""
    per_op: list[dict] = []
    overhead: list[float] = []
    shares: list[dict] = []
    absent: set[str] = set()

    def op():
        out_a = runner.work / "trace-anonymize.json"
        out_v = runner.work / "trace-verify.json"
        traced_a = runner.traced("anonymize", prepared.config, out_a)
        checker.anonymize(traced_a)
        traced_v = runner.traced("verify", prepared.config, out_v)
        checker.verify(traced_v)
        plain = runner.cli("anonymize", prepared.config)
        checker.anonymize(plain)
        overhead.append(traced_a.wall_s / plain.wall_s - 1.0)
        spans = []
        for out in (out_a, out_v):
            trace = read_trace(out) or {"spans": [], "absent": []}
            absent.update(trace["absent"])
            offset = len(spans)
            spans.extend([n, s, e, None if p is None else p + offset] for n, s, e, p in trace["spans"])
        values: dict = {}
        total, self_time, calls = span_totals(spans)
        for name in SPANS:
            values[f"{name}_s"] = total.get(name, 0.0)
            if name in SELF_TIME_SPANS:
                values[f"{name}.self_s"] = self_time.get(name, 0.0)
        values["microdata.concentration_signal.calls"] = calls.get("microdata.concentration_signal", 0)
        per_op.append(values)
        shares.append(anonymize_shares(spans))

    repeat_for(seconds, deadline, 1, op)

    out_peak = runner.work / "trace-load-peak.json"
    runner.traced("load-peak", prepared.config, out_peak)
    peak_trace = read_trace(out_peak) or {}
    absent.update(peak_trace.get("absent", []))

    sizes = prepared.sizes
    output = Path(prepared.output)
    n = sizes["extended_length"]
    m = n >> sizes["level"]
    try:
        report = json.loads(Path(prepared.report).read_text(encoding="utf-8"))
        fixed = len(report["redistribution"]["fixed_indices"])
    except (OSError, ValueError, KeyError, TypeError):
        absent.add("report.redistribution.fixed_indices")
        fixed = 0

    results: dict = {}
    for key in per_op[0]:
        unit = "count" if key.endswith(".calls") else "s"
        results[key] = (metric(median([v[key] for v in per_op]), unit), len(per_op))
    counts = {
        "microdata.load_peak_mib": (peak_trace.get("peak_bytes", 0) / 2**20, "MiB"),
        "microdata.records": (sizes["records"], "count"),
        "microdata.bytes_in": (sizes["input_bytes"], "bytes"),
        "microdata.bytes_out": (output.stat().st_size if output.exists() else 0, "bytes"),
        "microdata.records_changed": (checker.records_changed(), "count"),
        "redistribution.targets": (sizes.get("targets", 0), "count"),
        "redistribution.free_coefficients": (m - fixed, "count"),
        "redistribution.fixed_coefficients": (fixed, "count"),
        "redistribution.extended_length": (n, "count"),
        "matrices.matrix_bytes": (n * m * 8, "bytes_computed"),
        "trace_overhead_frac": (median(overhead), "ratio"),
    }
    for key, (value, unit) in counts.items():
        results[key] = (metric(value, unit), 1 if key != "trace_overhead_frac" else len(overhead))
    shares_text = ", ".join(
        f"{layer} {median([s.get(layer, 0.0) for s in shares]):.4f}"
        for layer in sorted({layer for s in shares for layer in s})
    )
    total = results["cli.run_anonymize_s"][0]["value"]
    own = results["cli.run_anonymize.self_s"][0]["value"]
    return results, [
        f"trace: share of cli.run_anonymize by layer: {shares_text}",
        f"trace: spans cover {1.0 - own / total if total else 0.0:.4f} of cli.run_anonymize",
        f"trace: absent spans: {', '.join(sorted(absent)) or '(none)'}",
    ]


def machine_info(runner: Runner) -> dict | None:
    child = runner.run([sys.executable, "-c", MACHINE_PROBE], "machine")
    if child.status != 0:
        return None
    return json.loads(child.log.read_text(encoding="utf-8").splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "groupanon" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'groupanon'}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    deadline = time.monotonic() + HARD_LIMIT_S
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, deadline)

    machine = machine_info(runner)
    if machine is None:
        print("error: the program cannot be imported (see .perfbench_work)", file=sys.stderr)
        return EXIT_NO_PROGRAM

    child = runner.run([sys.executable, str(HERE / "workloads.py"), "generate",
                        args.workload, str(args.seed), str(work), str(SETUP_REPEATS)], "generate")
    if child.status != 0:
        print(f"error: workload generation failed (see {child.log})", file=sys.stderr)
        return EXIT_NO_PROGRAM
    setup = json.loads(child.log.read_text(encoding="utf-8").splitlines()[-1])
    prepared = workloads.Prepared.load(work / "prepared.json")

    checker = Checker(prepared, runner)
    measure = measure_traced if args.trace else measure_untraced
    results, notes = measure(runner, checker, prepared, args.seconds, deadline)
    if not args.trace:
        results["setup_s"] = (metric(statistics.median(setup), "s"), len(setup))

    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"workload: {args.workload} " + " ".join(f"{k}={v}" for k, v in prepared.sizes.items()))
    for name, (m, samples) in results.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"{name} = {value} {m['unit']} (median of {samples})")
    for note in notes:
        print(note)
    print(f"failed_frac = {checker.failed / max(checker.attempted, 1):.6g} "
          f"({checker.failed} of {checker.attempted} operations)")
    for problem in checker.problems:
        print(f"check failed: {problem}")

    correct = checker.failed == 0 and checker.attempted > 0
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: m for name, (m, _) in results.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
