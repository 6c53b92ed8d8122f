import hashlib
import io
import os
import random

import numpy as np
import pytest

from groupanon import (
    RedistributionPlan,
    db2_filter,
    extend_to_even,
    load_microfile,
    write_microfile,
)
from groupanon.redistribution import fixed_border_indices
from groupanon.wavelets import max_level, operator_band, synth_approx
from groupanon.fixture import EMPLOYED, SCIENTISTS, write_census_fixture
from groupanon.microdata import Microfile


@pytest.fixture(scope="session")
def db2():
    return db2_filter()


@pytest.fixture(scope="session")
def census_ratios():
    return np.array(SCIENTISTS, dtype=float) / np.array(EMPLOYED, dtype=float)


@pytest.fixture(scope="session")
def census_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixture") / "census.csv"
    write_census_fixture(path)
    return path


@pytest.fixture(scope="session")
def census_microfile(census_file):
    return load_microfile(census_file)


def make_microfile(rows, attributes=("REG", "JOB", "SEX")):
    return Microfile.from_rows(attributes, rows)


def column_values(mf):
    """Per attribute, the record values as an object array (a view for tests)."""
    return [np.asarray(list(v), dtype=object)[c] for c, v in zip(mf.codes, mf.vocabularies)]


def records(mf):
    """The microfile as value tuples, one per record (a view for tests)."""
    return list(zip(*column_values(mf)))


def cut(mf, text):
    """``text`` (bytes) cut by ``mf``'s lengths: its header and each record, line terminators included."""
    ends = (mf.header + np.cumsum(mf.lengths, dtype=np.int64)).tolist()
    assert ends[-1] == len(text)
    return text[: mf.header], [text[start:end] for start, end in zip([mf.header] + ends[:-1], ends)]


def microfile_text(mf):
    buffer = io.BytesIO()
    write_microfile(mf, buffer)
    return buffer.getvalue().decode("utf-8")


class Digest:
    """A text stream that keeps only the sha256 and the size of what is written to it."""

    def __init__(self):
        self.sha256, self.size = hashlib.sha256(), 0

    def write(self, text: str) -> None:
        data = text.encode()
        self.sha256.update(data)
        self.size += len(data)


def flip_byte(path, offset, to=None):
    """Change the byte at ``offset`` of ``path`` (its lowest bit, or to ``to``), keeping its size and times, so only its bytes tell."""
    stat = path.stat()
    data = bytearray(path.read_bytes())
    data[offset] = data[offset] ^ 1 if to is None else ord(to)
    path.write_bytes(data)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))


def write_distinct_lines_file(path, seed=0, categories=4_000):
    """Write a microfile whose lines mostly differ: about 100,000 shuffled records over ``categories`` categories.

    Like the long-domain benchmark input: each category ``C0001``... has
    16 to 32 records, each with one of four ``JOB`` codes and one of two
    ``SEX`` codes, so about 32,000 distinct lines.  Seeded by ``seed``.
    """
    rng = random.Random(seed)
    lines = [f"C{c:04d},{rng.choice('VNMK')},{rng.choice('12')}\n"
             for c in range(1, categories + 1) for _ in range(rng.randint(16, 32))]
    rng.shuffle(lines)
    path.write_text("CAT,JOB,SEX\n" + "".join(lines), encoding="utf-8")
    return path


def band_matrix(f, k, n):
    """The level-k synthesis operator expanded from its band (a dense view for tests)."""
    cols, taps = operator_band(f, k, n, np.arange(n))
    dense = np.zeros((n, n >> k))
    np.put_along_axis(dense, cols, taps, axis=1)
    return dense


def random_redistribution_case(rng, filters):
    """A random positive signal plus a plan that is feasible by construction.

    Manual plans draw free coefficient values directly; solver plans draw a
    realizable coefficient vector first and read the target values off it,
    so the least-squares system is always consistent.
    """
    from groupanon import analyze

    n = int(rng.integers(5, 65))
    c = rng.uniform(1e-3, 1.0, n)
    direction = "left" if rng.random() < 0.5 else "right"
    extended, meta = extend_to_even(c, direction)
    k = int(rng.integers(1, min(3, max_level(meta.extended_length)) + 1))
    dec = analyze(extended, filters, k, meta=meta)
    m = dec.approx.size
    fixed = fixed_border_indices(filters, k, meta)
    free = sorted(set(range(1, m + 1)) - fixed)
    if not free:
        plan = RedistributionPlan(strategy="manual", fixed_indices=frozenset(range(1, m + 1)), floor=2.0)
        return c, plan, k, direction
    if rng.random() < 0.5:
        free_values = {i: float(rng.uniform(-5.0, 5.0)) for i in free}
        plan = RedistributionPlan(
            strategy="manual", fixed_indices=fixed, free_values=free_values, floor=2.0
        )
    else:
        realizable = dec.approx.copy()
        realizable[[i - 1 for i in free]] = rng.uniform(-5.0, 5.0, len(free))
        synthesized = synth_approx(realizable, filters, k, meta.extended_length)
        count = int(rng.integers(1, min(3, len(free)) + 1))
        positions = rng.choice(meta.extended_length, size=count, replace=False) + 1
        targets = tuple((int(p), float(synthesized[p - 1])) for p in positions)
        plan = RedistributionPlan(
            strategy="alleged_extrema", fixed_indices=fixed, targets=targets, floor=2.0
        )
    return c, plan, k, direction
