"""Run the benchmark over several seeds and report each metric's spread.

Usage::

    python3 perfbench/spread.py --seeds 1-10 [--workloads census-13,...] [--trace 0|1]
                                [--seconds N] [--out FILE]

For every workload and metric it prints the median of the per-run values,
their quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  End-to-end
metrics are marked ``ok`` when the spread is below a third of the metric's
bound in BENCHMARK.json.  ``--out`` stores the same figures, with the
machine and workload-size lines of the first run, under the key ``trace0``
or ``trace1`` of a JSON file (the form of ``baseline.json``).
Runs are sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else 0.0,
            "runs": len(values)}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = attempted = 0
        sizes = ""
        for seed in parse_seeds(args.seeds):
            result, lines = one_run(workload, seed, args.seconds, args.trace)
            summary.setdefault("machine", lines[0])
            sizes = sizes or lines[1]
            attempted += result["attempted"]
            failed += result["failed"]
            if not result["correct"]:
                print(f"{workload} seed {seed}: not correct\n" + "\n".join(lines), file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if k in bounds), flush=True)
            for line in lines:
                if line.startswith("trace:"):
                    print(f"  {line}")
        entry = {"sizes": sizes, "attempted": attempted, "failed": failed,
                 "failed_frac": failed / attempted if attempted else 0.0, "metrics": {}}
        for name, vals in values.items():
            stats = summarize(vals)
            stats["unit"] = units[name]
            entry["metrics"][name] = stats
            verdict = ""
            if name in bounds:
                verdict = "ok" if stats["spread"] < bounds[name] / 3 else f"WIDE (bound {bounds[name]})"
            print(f"  {workload} {name}: median {stats['median']:.6g} {units[name]} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.4f} {verdict}")
        print(f"  {workload} failed_frac: {entry['failed_frac']:.4g} ({failed} of {attempted})", flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        merged = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        merged[f"trace{args.trace}"] = summary
        args.out.write_text(json.dumps(merged, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
