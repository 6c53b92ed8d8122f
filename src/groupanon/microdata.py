"""Microfile I/O, concentration signals, and vital-record rewriting.

A microfile is one rectangular table of categorical string values: a header
of attribute names and one record per respondent.  The group-anonymity task
is described by an :class:`AttributeSpec`: which attribute/value
combinations mark the sensitive ("vital") records, and which attribute
partitions the records into the categories the concentration signal ranges
over.
"""

from __future__ import annotations

import csv
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import MicrofileError, RewriteError


@dataclass
class Microfile:
    """Ordered attribute names plus records of categorical values."""

    attributes: list[str]
    records: list[tuple[str, ...]]

    def __post_init__(self):
        q = len(self.attributes)
        for i, record in enumerate(self.records):
            if len(record) != q:
                raise MicrofileError(
                    f"record {i + 1} has {len(record)} fields, expected {q}"
                )

    def column_index(self, attribute: str) -> int:
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise MicrofileError(f"unknown attribute {attribute!r}") from None


@dataclass(frozen=True)
class AttributeSpec:
    """Vital/parameter attribute selection defining one anonymity task.

    ``vital_combinations`` are value tuples over ``vital_attributes``; a
    record is vital when its vital-attribute values equal any combination.
    ``parameter_values`` order defines the signal index order.  The
    denominator of each ratio counts either every record in the parameter
    group (``group_total``) or only those passing ``denominator_filter``
    (``custom_filter``, an (attribute, allowed-values) pair).
    ``fallback_combination`` is what a vital record becomes when the rewrite
    must shrink a group; there is deliberately no default.
    """

    vital_attributes: tuple[str, ...]
    vital_combinations: tuple[tuple[str, ...], ...]
    parameter_attribute: str
    parameter_values: tuple[str, ...]
    denominator: str = "group_total"
    denominator_filter: tuple[str, tuple[str, ...]] | None = None
    fallback_combination: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "vital_attributes", tuple(self.vital_attributes))
        object.__setattr__(
            self, "vital_combinations", tuple(tuple(c) for c in self.vital_combinations)
        )
        object.__setattr__(self, "parameter_values", tuple(self.parameter_values))
        if not self.vital_attributes:
            raise MicrofileError("at least one vital attribute is required")
        if not self.vital_combinations:
            raise MicrofileError("at least one vital value combination is required")
        if self.parameter_attribute in self.vital_attributes:
            raise MicrofileError(
                f"parameter attribute {self.parameter_attribute!r} cannot also be vital"
            )
        arity = len(self.vital_attributes)
        for combo in self.vital_combinations:
            if len(combo) != arity:
                raise MicrofileError(
                    f"vital combination {combo!r} does not cover the {arity} vital attribute(s)"
                )
        if len(set(self.vital_combinations)) != len(self.vital_combinations):
            raise MicrofileError("vital combinations must be distinct")
        if not self.parameter_values:
            raise MicrofileError("at least one parameter value is required")
        if len(set(self.parameter_values)) != len(self.parameter_values):
            raise MicrofileError("parameter values must be distinct")
        if self.denominator not in ("group_total", "custom_filter"):
            raise MicrofileError(f"unknown denominator rule {self.denominator!r}")
        if self.denominator == "custom_filter":
            if self.denominator_filter is None:
                raise MicrofileError("custom_filter denominator needs a denominator_filter")
            attr, values = self.denominator_filter
            object.__setattr__(self, "denominator_filter", (attr, tuple(values)))
        if self.fallback_combination is not None:
            fallback = tuple(self.fallback_combination)
            if len(fallback) != arity:
                raise MicrofileError(
                    f"fallback combination {fallback!r} does not cover the {arity} vital attribute(s)"
                )
            if fallback in self.vital_combinations:
                raise MicrofileError("fallback combination must not itself be vital")
            object.__setattr__(self, "fallback_combination", fallback)

    def referenced_attributes(self) -> tuple[str, ...]:
        names = list(self.vital_attributes) + [self.parameter_attribute]
        if self.denominator_filter is not None:
            names.append(self.denominator_filter[0])
        return tuple(names)


@dataclass(frozen=True)
class ConcentrationSignal:
    """Per parameter value: vital count, group denominator, and their ratio."""

    parameter_values: tuple[str, ...]
    numerators: np.ndarray
    denominators: np.ndarray

    @property
    def ratios(self) -> np.ndarray:
        return self.numerators / self.denominators


def load_microfile(source, schema: Iterable[str] | None = None, delimiter: str = ",") -> Microfile:
    """Read a delimited text microfile with a header row.

    ``schema``, when given, is the exact attribute set the file must carry.
    """
    if hasattr(source, "read"):
        return _parse(source, schema, delimiter)
    with open(source, "r", encoding="utf-8", newline="") as handle:
        return _parse(handle, schema, delimiter)


def _parse(handle, schema, delimiter) -> Microfile:
    reader = csv.reader(handle, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise MicrofileError("empty file") from None
    attributes = [name.strip() for name in header]
    if len(set(attributes)) != len(attributes):
        raise MicrofileError("duplicate attribute names in header")
    if schema is not None:
        expected = set(schema)
        actual = set(attributes)
        unknown = actual - expected
        missing = expected - actual
        if unknown:
            raise MicrofileError(f"unknown attributes {sorted(unknown)} not in schema")
        if missing:
            raise MicrofileError(f"attributes {sorted(missing)} missing from file")
    q = len(attributes)
    intern = sys.intern
    records = []
    for line_no, row in enumerate(reader, start=2):
        if len(row) != q:
            raise MicrofileError(f"line {line_no} has {len(row)} fields, expected {q}")
        records.append(tuple(intern(cell) for cell in row))
    if not records:
        raise MicrofileError("empty file")
    return Microfile(attributes, records)


def write_microfile(mf: Microfile, sink, delimiter: str = ",") -> None:
    """Write the microfile back out; inverse of :func:`load_microfile`."""
    if hasattr(sink, "write"):
        _emit(mf, sink, delimiter)
        return
    path = Path(sink)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        _emit(mf, handle, delimiter)


def _emit(mf: Microfile, handle, delimiter) -> None:
    writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
    writer.writerow(mf.attributes)
    writer.writerows(mf.records)


def _vital_predicate(mf: Microfile, spec: AttributeSpec) -> Callable[[tuple[str, ...]], bool]:
    positions = [mf.column_index(a) for a in spec.vital_attributes]
    combos = set(spec.vital_combinations)
    return lambda record: tuple(record[p] for p in positions) in combos


def concentration_signal(mf: Microfile, spec: AttributeSpec) -> ConcentrationSignal:
    """Vital-record share per parameter value, ordered by ``spec.parameter_values``."""
    param_pos = mf.column_index(spec.parameter_attribute)
    for attr in spec.referenced_attributes():
        mf.column_index(attr)
    is_vital = _vital_predicate(mf, spec)
    order = {value: i for i, value in enumerate(spec.parameter_values)}
    numerators = np.zeros(len(order), dtype=int)
    denominators = np.zeros(len(order), dtype=int)
    if spec.denominator == "custom_filter":
        filter_pos = mf.column_index(spec.denominator_filter[0])
        allowed = set(spec.denominator_filter[1])
        in_denominator = lambda record: record[filter_pos] in allowed
    else:
        in_denominator = lambda record: True
    for record in mf.records:
        slot = order.get(record[param_pos])
        if slot is None:
            continue
        if in_denominator(record):
            denominators[slot] += 1
        if is_vital(record):
            numerators[slot] += 1
    for value, slot in order.items():
        if denominators[slot] == 0:
            raise MicrofileError(f"parameter value {value!r} has a zero denominator")
        if numerators[slot] > denominators[slot]:
            raise MicrofileError(
                f"parameter value {value!r} has {numerators[slot]} vital records but a "
                f"denominator of {denominators[slot]}; its ratio would exceed 1"
            )
    return ConcentrationSignal(spec.parameter_values, numerators, denominators)


def round_half_away_from_zero(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def new_quantities(final_ratios, denominators) -> tuple[np.ndarray, float]:
    """Integer vital counts realizing the final ratios, plus their mean.

    Counts are rounded half away from zero; the resulting mean typically
    drifts a fraction of a count from the original and is reported rather
    than corrected.
    """
    ratios = np.asarray(final_ratios, dtype=float)
    denom = np.asarray(denominators, dtype=float)
    if ratios.shape != denom.shape:
        raise MicrofileError(
            f"ratios and denominators differ in length: {ratios.shape} vs {denom.shape}"
        )
    if np.any(ratios <= 0.0):
        raise MicrofileError("final ratios must be positive")
    counts = np.array([round_half_away_from_zero(r * d) for r, d in zip(ratios, denom)])
    return counts, float(counts.mean())


def rewrite_microfile(
    mf: Microfile,
    spec: AttributeSpec,
    old_counts,
    new_counts,
    seed: int,
    donor_filter: Callable[[tuple[str, ...]], bool] | None = None,
) -> Microfile:
    """Return a copy of ``mf`` whose vital counts per parameter value equal ``new_counts``.

    Growth assigns vital combinations (cycling in declaration order) to
    randomly chosen non-vital records of the group; shrinkage rewrites
    randomly chosen vital records to ``spec.fallback_combination``.  Only
    vital-attribute cells change; the record count per group is untouched.
    Record selection is deterministic for a given seed.  ``donor_filter``
    optionally narrows which non-vital records may become vital.
    """
    old = np.asarray(old_counts, dtype=int)
    new = np.asarray(new_counts, dtype=int)
    values = spec.parameter_values
    if old.shape != (len(values),) or new.shape != (len(values),):
        raise RewriteError(
            f"counts must have one entry per parameter value ({len(values)})"
        )
    param_pos = mf.column_index(spec.parameter_attribute)
    vital_positions = [mf.column_index(a) for a in spec.vital_attributes]
    is_vital = _vital_predicate(mf, spec)

    vital_rows: dict[str, list[int]] = {value: [] for value in values}
    donor_rows: dict[str, list[int]] = {value: [] for value in values}
    for row, record in enumerate(mf.records):
        value = record[param_pos]
        if value not in vital_rows:
            continue
        if is_vital(record):
            vital_rows[value].append(row)
        elif donor_filter is None or donor_filter(record):
            donor_rows[value].append(row)

    rng = random.Random(seed)
    records = list(mf.records)
    combos = spec.vital_combinations
    for slot, value in enumerate(values):
        found = len(vital_rows[value])
        if found != old[slot]:
            raise RewriteError(
                f"parameter value {value!r}: expected {old[slot]} vital records, found {found}"
            )
        delta = int(new[slot] - old[slot])
        if delta > 0:
            donors = donor_rows[value]
            if len(donors) < delta:
                raise RewriteError(
                    f"parameter value {value!r}: need {delta} donor records, only {len(donors)} available"
                )
            chosen = sorted(rng.sample(donors, delta))
            for i, row in enumerate(chosen):
                _assign(records, row, vital_positions, combos[i % len(combos)])
        elif delta < 0:
            if spec.fallback_combination is None:
                raise RewriteError(
                    f"parameter value {value!r}: shrinking the vital group requires a fallback_combination"
                )
            chosen = sorted(rng.sample(vital_rows[value], -delta))
            for row in chosen:
                _assign(records, row, vital_positions, spec.fallback_combination)
    return Microfile(list(mf.attributes), records)


def _assign(records: list, row: int, positions: list[int], combo: tuple[str, ...]) -> None:
    fields = list(records[row])
    for pos, value in zip(positions, combo):
        fields[pos] = value
    records[row] = tuple(fields)
