"""Workload generators for the groupanon benchmark.

Each generator writes one input microfile and one JSON run configuration
into a work directory and returns a :class:`Prepared` describing them.  The
program under test sees only those two files.

Why each workload exists, and which layer it loads:

* census-13   - the paper's worked example at production size (1.16M records,
  13 categories): loads the record layer (microdata); the filter bank is
  negligible, so filter-bank changes must show no change here.
* domain-8191 - a long category domain (8,191 categories, ~196k records):
  loads the dense synthesis operator (matrices, redistribution); record-layer
  changes should move it only a little.

Group sizes and vital counts are fixed by the workload definition, not by
the seed, so ``released_mean_drift`` is a property of the workload.  The
seed drives the program's own rewrite seed and, on domain-8191, the record
order and the non-vital cell values; the census-13 file does not change.
"""

from __future__ import annotations

import collections
import csv
import hashlib
import json
import math
import random
import runpy
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class Prepared:
    """One generated workload: its files, sizes and expected counts.

    Saved as ``prepared.json`` beside the files, so a generator run in its
    own process can hand it to the benchmark.
    """

    input: str
    config: str
    output: str
    report: str
    sizes: dict
    categories: list[str]
    old_counts: list[int]
    denominators: list[int]
    # How to recount the released file: column positions and vital values.
    # Every workload uses the group total as its denominator.
    parameter_col: int
    vital_col: int
    vital_values: list[str]
    golden_counts: list[int] | None = None

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self)) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "Prepared":
        return cls(**json.loads(path.read_text(encoding="utf-8")))


class SizeError(Exception):
    """A generated workload does not have the sizes its definition pins."""


def _check(label: str, got, want) -> None:
    if got != want:
        raise SizeError(f"{label}: generated {got!r}, workload pins {want!r}")


def _files(work: Path) -> dict[str, str]:
    names = {"input": "input.csv", "config": "config.json", "output": "output.csv", "report": "report.json"}
    return {key: str(work / name) for key, name in names.items()}


def _write_config(prepared: Prepared, seed: int, config: dict) -> None:
    """Write the run configuration: ``config`` plus the file paths and seed."""
    full = {"input": prepared.input, "output": prepared.output, "report": prepared.report, "seed": seed}
    full.update(config)
    Path(prepared.config).write_text(json.dumps(full, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _extended_length(n: int) -> int:
    return n + (n % 2)


# ---------------------------------------------------------------- census-13
# The input is what ``python -m groupanon.fixture OUT`` writes; its bytes
# are pinned, so its margins are read back from the file itself.

CENSUS_SCIENCE = ("211", "311")
CENSUS_FINAL_COUNTS = (699, 1867, 1170, 876, 1358, 1616, 2495, 1582, 514, 395, 1182, 877, 480)
CENSUS_SHA256 = "27c1f39a4312fe0015f52fc89df81bd241ef4f8a6cdfdda14fc12dc5fff9d9a5"
CENSUS_BYTES = 10_408_749
CENSUS_RECORDS = 1_156_526
CENSUS_CATEGORIES = 13


def _run_fixture(out: Path) -> None:
    """Run ``python -m groupanon.fixture OUT`` in this process."""
    argv = sys.argv
    sys.argv = ["groupanon.fixture", str(out)]
    try:
        runpy.run_module("groupanon.fixture", run_name="__main__")
    except SystemExit as exc:
        if exc.code:
            raise
    finally:
        sys.argv = argv


def _census_margins(data: bytes) -> tuple[list[str], list[int], list[int]]:
    """Regions in file order, their science counts and their record counts."""
    regions: dict[str, list[int]] = {}
    lines = collections.Counter(data.split(b"\n")[1:])
    del lines[b""]
    for line, times in lines.items():
        region, occupation, _ = line.decode("utf-8").split(",")
        margin = regions.setdefault(region, [0, 0])
        margin[1] += times
        if occupation in CENSUS_SCIENCE:
            margin[0] += times
    return list(regions), [m[0] for m in regions.values()], [m[1] for m in regions.values()]


def census_13(work: Path, seed: int) -> Prepared:
    _run_fixture(work / "input.csv")
    data = (work / "input.csv").read_bytes()
    _check("census-13 input bytes", len(data), CENSUS_BYTES)
    _check("census-13 sha256", hashlib.sha256(data).hexdigest(), CENSUS_SHA256)
    regions, scientists, employed = _census_margins(data)
    _check("census-13 records", sum(employed), CENSUS_RECORDS)
    _check("census-13 categories", len(regions), CENSUS_CATEGORIES)
    prepared = Prepared(
        **_files(work),
        sizes={
            "records": CENSUS_RECORDS,
            "columns": 3,
            "categories": len(regions),
            "extended_length": _extended_length(len(regions)),
            "level": 1,
            "input_bytes": len(data),
            "generator_seed": seed,
        },
        categories=regions,
        old_counts=scientists,
        denominators=employed,
        parameter_col=0,
        vital_col=1,
        vital_values=list(CENSUS_SCIENCE),
        golden_counts=list(CENSUS_FINAL_COUNTS),
    )
    _write_config(prepared, seed, {
        "attributes": {
            "vital": ["OCC"],
            "vital_combinations": [[code] for code in CENSUS_SCIENCE],
            "parameter": "REGNUK",
            "parameter_values": regions,
            "denominator": "group_total",
            "fallback": "999",
        },
        "wavelet": {"name": "db2", "level": 1, "extension": "left"},
        "plan": {
            "strategy": "manual",
            "free_values": {"3": -2.0, "4": 0.0, "5": 1.0, "6": -5.0},
            "floor": 2.0,
        },
    })
    return prepared


# -------------------------------------------------------------- domain-8191

DOMAIN_CATEGORIES = 8191
DOMAIN_RECORDS = 196_573
DOMAIN_SPIKE = 5461          # 0-based category holding the one spike
DOMAIN_DECOYS = 64
DOMAIN_SHAPE_SEED = 8191     # fixes group sizes; not the workload seed


def _domain_groups() -> tuple[list[int], list[int]]:
    shape = random.Random(DOMAIN_SHAPE_SEED)
    sizes = [shape.randint(16, 32) for _ in range(DOMAIN_CATEGORIES)]
    vital = []
    for i, size in enumerate(sizes):
        share = 0.9 if i == DOMAIN_SPIKE else 0.25 + 0.1 * math.sin(6 * math.pi * i / DOMAIN_CATEGORIES)
        vital.append(max(1, round(share * size)))
    return sizes, vital


def domain_8191(work: Path, seed: int) -> Prepared:
    sizes, vital = _domain_groups()
    codes = tuple(f"C{i + 1:04d}" for i in range(DOMAIN_CATEGORIES))
    rng = random.Random(seed)
    keys = []
    for code, size, v in zip(codes, sizes, vital):
        keys.extend(f"{code},V," for _ in range(v))
        keys.extend(f"{code},{'NMK'[j % 3]}," for j in range(size - v))
    rng.shuffle(keys)
    sex = ("1\n", "2\n")
    lines = ["CAT,JOB,SEX\n"]
    lines.extend(key + sex[rng.getrandbits(1)] for key in keys)
    data = "".join(lines).encode("utf-8")
    _check("domain-8191 records", len(keys), DOMAIN_RECORDS)
    (work / "input.csv").write_bytes(data)
    level = 2
    n = _extended_length(DOMAIN_CATEGORIES)
    stride = n // DOMAIN_DECOYS
    targets = [[stride // 2 + j * stride, 0.9] for j in range(DOMAIN_DECOYS)]
    prepared = Prepared(
        **_files(work),
        sizes={
            "records": DOMAIN_RECORDS,
            "columns": 3,
            "categories": DOMAIN_CATEGORIES,
            "extended_length": n,
            "level": level,
            "input_bytes": len(data),
            "generator_seed": seed,
            "targets": len(targets),
        },
        categories=list(codes),
        old_counts=vital,
        denominators=sizes,
        parameter_col=0,
        vital_col=1,
        vital_values=["V"],
    )
    _write_config(prepared, seed, {
        "attributes": {
            "vital": ["JOB"],
            "vital_combinations": [["V"]],
            "parameter": "CAT",
            "parameter_values": list(codes),
            "denominator": "group_total",
            "fallback": "N",
        },
        "wavelet": {"name": "db2", "level": level, "extension": "left"},
        "plan": {"strategy": "alleged_extrema", "targets": targets, "floor": 2.0},
    })
    return prepared


WORKLOADS = {
    "census-13": census_13,
    "domain-8191": domain_8191,
}


def released_counts(prepared: Prepared, path) -> tuple[list[int], list[int]]:
    """Vital counts and denominators per category, read from a released file."""
    slot = {code: i for i, code in enumerate(prepared.categories)}
    vital = [0] * len(slot)
    denominators = [0] * len(slot)
    p, v = prepared.parameter_col, prepared.vital_col
    vital_values = set(prepared.vital_values)
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for row in reader:
            i = slot[row[p]]
            denominators[i] += 1
            if row[v] in vital_values:
                vital[i] += 1
    return vital, denominators


def main(argv) -> int:
    """``generate WORKLOAD SEED DIR REPEATS`` or ``recount DIR/prepared.json FILE``.

    ``generate`` builds the workload ``REPEATS`` times and prints the time of
    each build as a JSON list; the files of the last build stay.  The
    benchmark runs both commands as child processes, so that its own process
    stays small: a child's peak RSS as ``os.wait4`` reports it can include
    the memory of the parent that started it.
    """
    command, *rest = argv
    if command == "generate":
        name, seed, work, repeats = rest
        times = []
        for _ in range(int(repeats)):
            start = time.perf_counter()
            prepared = WORKLOADS[name](Path(work), int(seed))
            times.append(time.perf_counter() - start)
        prepared.save(Path(work) / "prepared.json")
        print(json.dumps(times))
    elif command == "recount":
        prepared_path, released = rest
        counts, denominators = released_counts(Prepared.load(Path(prepared_path)), released)
        print(json.dumps({"counts": counts, "denominators": denominators}))
    else:
        raise SystemExit(f"unknown command {command!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
