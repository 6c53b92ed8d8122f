import csv
import io
import itertools
import os
import re
import threading
import tracemalloc
import zlib
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from groupanon import (
    AttributeSpec,
    analyze,
    concentration_signal,
    extend_to_even,
    load_microfile,
    new_quantities,
    rewrite_microfile,
    write_microfile,
)
from groupanon import Microfile, microdata
from groupanon.cli import RunConfig, run_verify
from groupanon.redistribution import check_row, rounding_tolerances, verify_outcome
from groupanon.wavelets import filter_by_name
from groupanon.errors import MicrofileError, RewriteError
from groupanon.fixture import EMPLOYED, REGION_CODES, SCIENTISTS, census_attribute_spec

import reference as ref
from reference import round_half_away_from_zero
from conftest import cut, flip_byte, make_microfile, microfile_text, records, write_distinct_lines_file


def small_spec(**overrides):
    base = dict(
        vital_attributes=("JOB",),
        vital_combinations=(("X",), ("Y",)),
        parameter_attribute="REG",
        parameter_values=("A", "B"),
        fallback_combination=("Z",),
    )
    base.update(overrides)
    return AttributeSpec(**base)


SMALL_ROWS = [
    ("A", "X", "1"),
    ("A", "Z", "2"),
    ("A", "Z", "1"),
    ("A", "Y", "2"),
    ("B", "Z", "1"),
    ("B", "Z", "2"),
    ("B", "X", "1"),
    ("B", "Z", "2"),
]


# ---------------------------------------------------------------- loading

def test_load_census_fixture(census_microfile):
    assert census_microfile.attributes == ["REGNUK", "OCC", "SEX"]
    assert len(census_microfile) == sum(EMPLOYED)


def test_load_empty_body():
    with pytest.raises(MicrofileError, match="empty file"):
        load_microfile(io.StringIO("REG,JOB,SEX\n"))


def test_load_no_header():
    with pytest.raises(MicrofileError, match="empty file"):
        load_microfile(io.StringIO(""))
    # A lone line break, or a byte order mark alone, holds no record either.
    for data in (b"\n", b"\xef\xbb\xbf"):
        with pytest.raises(MicrofileError, match="^empty file$"):
            load_microfile(io.BytesIO(data))
        assert _csv_or_error(data, ",") == "empty file"


def test_load_ragged_row_names_line():
    with pytest.raises(MicrofileError, match="line 3 has 2 fields, expected 3"):
        load_microfile(io.StringIO("REG,JOB,SEX\nA,X,1\nA,X\n"))


def test_roundtrip_is_value_identical():
    mf = make_microfile(SMALL_ROWS)
    text = microfile_text(mf)
    again = load_microfile(io.StringIO(text))
    assert again.attributes == mf.attributes
    assert records(again) == records(mf)
    assert text.splitlines()[0] == "REG,JOB,SEX"
    # Writing what was loaded reproduces the text byte for byte.
    assert microfile_text(again) == text


def test_custom_delimiter_roundtrip():
    mf = Microfile.from_rows(("REG", "JOB", "SEX"), SMALL_ROWS, delimiter=";")
    text = microfile_text(mf)
    assert text.splitlines()[1] == "A;X;1"
    again = load_microfile(io.StringIO(text), delimiter=";")
    assert records(again) == records(mf) == SMALL_ROWS


# ------------------------------------------------------- attribute spec

def test_attribute_spec_validation():
    with pytest.raises(MicrofileError, match="cannot also be vital"):
        small_spec(parameter_attribute="JOB")
    with pytest.raises(MicrofileError, match="distinct"):
        small_spec(parameter_values=("A", "A"))
    with pytest.raises(MicrofileError, match="does not cover"):
        small_spec(vital_combinations=(("X", "Y"),))
    with pytest.raises(MicrofileError, match="must not itself be vital"):
        small_spec(fallback_combination=("X",))
    with pytest.raises(MicrofileError, match="at least one vital value combination") as caught:
        small_spec(vital_combinations=())
    assert caught.value.field == "vital_combinations"


# ---------------------------------------------------------------- signal

def test_census_concentration_signal(census_microfile):
    signal = concentration_signal(census_microfile, census_attribute_spec())
    np.testing.assert_array_equal(signal.numerators, SCIENTISTS)
    np.testing.assert_array_equal(signal.denominators, EMPLOYED)
    np.testing.assert_allclose(signal.ratios, ref.SIGNAL, atol=ref.DISPLAY_TOL)
    assert abs(signal.ratios[4] - 1171 / 101891) < 1e-15


def test_signal_no_vital_matches():
    mf = make_microfile([("A", "Z", "1"), ("A", "Z", "2"), ("B", "Z", "1")])
    signal = concentration_signal(mf, small_spec())
    np.testing.assert_array_equal(signal.numerators, [0, 0])
    np.testing.assert_array_equal(signal.ratios, [0.0, 0.0])


def test_signal_all_vital_single_group():
    mf = make_microfile([("A", "X", "1"), ("A", "Y", "2")])
    signal = concentration_signal(mf, small_spec(parameter_values=("A",)))
    np.testing.assert_array_equal(signal.ratios, [1.0])


def test_signal_zero_denominator():
    mf = make_microfile([("A", "X", "1"), ("A", "Z", "2")])
    with pytest.raises(MicrofileError, match="'B' has a zero denominator"):
        concentration_signal(mf, small_spec())


def test_signal_custom_filter_denominator():
    mf = make_microfile(SMALL_ROWS)
    spec = small_spec(denominator_filter=("SEX", ("1",)))
    signal = concentration_signal(mf, spec)
    # Each group has two SEX=1 records; vital counts are unaffected.
    np.testing.assert_array_equal(signal.denominators, [2, 2])
    np.testing.assert_array_equal(signal.numerators, [2, 1])


def test_multi_attribute_vital_combinations_match_a_brute_force_count():
    # A record is vital when its (JOB, SEX) pair is one of the combinations,
    # so a JOB or a SEX value alone does not make it vital.
    rng = np.random.default_rng(11)
    rows = [(f"G{rng.integers(4)}", str(rng.choice(list("XYZW"))), str(rng.choice(list("12"))))
            for _ in range(600)]
    mf = make_microfile(rows)
    combos = (("X", "1"), ("Y", "2"), ("Z", "1"))
    spec = AttributeSpec(vital_attributes=("JOB", "SEX"), vital_combinations=combos,
                         parameter_attribute="REG", parameter_values=("G0", "G1", "G2", "G3"),
                         fallback_combination=("W", "2"))

    def brute_force(recs):
        vital = [sum((job, sex) in combos for reg, job, sex in recs if reg == group) for group in spec.parameter_values]
        return vital, [sum(reg == group for reg, _, _ in recs) for group in spec.parameter_values]

    signal = concentration_signal(mf, spec)
    vital, totals = brute_force(rows)
    assert signal.numerators.tolist() == vital and signal.denominators.tolist() == totals
    new = np.array(vital) + [-5, 7, 0, 3]
    out = rewrite_microfile(mf, spec, vital, new, seed=5)
    assert brute_force(records(out)) == (new.tolist(), totals)
    np.testing.assert_array_equal(concentration_signal(out, spec).numerators, new)
    changed = [(before, after) for before, after in zip(rows, records(out)) if before != after]
    assert len(changed) == len(out.edited) == 15
    for before, after in changed:
        assert before[0] == after[0]
        # A shrunk record takes the fallback pair, a grown one a whole combination.
        assert (after[1:] == ("W", "2")) if before[1:] in combos else (after[1:] in combos)


def test_signal_ignores_unlisted_parameter_values():
    mf = make_microfile(SMALL_ROWS + [("C", "X", "1")])
    signal = concentration_signal(mf, small_spec())
    np.testing.assert_array_equal(signal.numerators, [2, 1])


class _Int64Lookup(microdata._Lookup):
    """A bucket lookup as it was before it narrowed integers: int64 throughout (a hit stays a bool)."""

    def __init__(self, column, vocabulary, keys, results, default):
        super().__init__(column, vocabulary, keys, results if results.dtype == bool else results.astype(np.int64), default)


def test_narrow_lookups_match_int64_reference():
    # 300 regions, of which 200 are listed: slots reach 200 and buckets
    # 2 * 200 + 1, past uint8; the region column has more than 255 values.
    rng = np.random.default_rng(5)
    regions = [f"G{i:03d}" for i in range(300)]
    rows = [(regions[i], str(rng.choice(["X", "Y", "Z", "W"], p=[0.2, 0.2, 0.3, 0.3])), "1")
            for i in rng.permutation(np.repeat(np.arange(300), 8))]
    mf = make_microfile(rows)
    listed = tuple(regions[::-1][:200])
    spec = small_spec(parameter_values=listed)
    # A record's bucket takes the smallest unsigned type that holds 2 * 200 + 1.
    assert microdata._Buckets(mf.attributes, mf.vocabularies, spec)(mf.codes).dtype == np.uint16
    signal = concentration_signal(mf, spec)
    for slot, region in enumerate(listed):
        group = [job for reg, job, _ in rows if reg == region]
        assert signal.denominators[slot] == len(group)
        assert signal.numerators[slot] == sum(job in ("X", "Y") for job in group)
    old = signal.numerators
    new = np.clip(old + rng.integers(-1, 2, size=old.size), 1, signal.denominators)
    rewritten = rewrite_microfile(mf, spec, old, new, seed=9)
    with mock.patch.object(microdata, "_Lookup", _Int64Lookup):
        assert microdata._Buckets(mf.attributes, mf.vocabularies, spec)(mf.codes).dtype == np.int64
        reference_signal = concentration_signal(mf, spec)
        reference = rewrite_microfile(mf, spec, old, new, seed=9)
    np.testing.assert_array_equal(signal.numerators, reference_signal.numerators)
    np.testing.assert_array_equal(signal.denominators, reference_signal.denominators)
    np.testing.assert_array_equal(rewritten.edited, reference.edited)
    assert records(rewritten) == records(reference)
    np.testing.assert_array_equal(concentration_signal(rewritten, spec).numerators, new)


# ---------------------------------------------------------------- quantities

def test_census_new_quantities(db2, census_ratios):
    from groupanon import RedistributionPlan, redistribute

    plan = RedistributionPlan(strategy="manual", free_values=ref.FREE_VALUES, floor=ref.FLOOR)
    final, _ = redistribute(census_ratios, plan, db2, 1, "left")
    counts, mean = new_quantities(final, EMPLOYED)
    np.testing.assert_array_equal(counts, ref.FINAL_COUNTS)
    assert abs(mean - ref.FINAL_COUNTS_MEAN) < 0.05
    assert abs(float(np.mean(SCIENTISTS)) - ref.ORIGINAL_COUNTS_MEAN) < 0.5


def test_new_quantities_simple():
    counts, mean = new_quantities([0.5], [4])
    assert counts.tolist() == [2]
    assert mean == 2.0


def test_round_half_away_from_zero():
    assert round_half_away_from_zero(2.5) == 3
    assert round_half_away_from_zero(3.5) == 4
    assert round_half_away_from_zero(-2.5) == -3
    assert round_half_away_from_zero(2.4999) == 2


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.integers(1, 10**6), st.integers(0, 10**6), st.floats(1e-9, 1.0)),
    min_size=1, max_size=20,
))
def test_new_quantities_rounds_like_the_scalar_function(cases):
    # An odd k makes an exact tie: with d a power of two, r = (2m + 1) / (2d) gives r * d = m + 0.5.
    ratios, denominators = [], []
    for d, k, r in cases:
        if k % 2:
            d = 1 << (d % 20 + 1)
            r = (2 * (k % d) + 1) / (2 * d)
        ratios.append(r)
        denominators.append(d)
    counts, mean = new_quantities(ratios, denominators)
    expected = [round_half_away_from_zero(r * float(d)) for r, d in zip(ratios, denominators)]
    assert counts.tolist() == expected
    assert mean == float(np.mean(expected))


def test_new_quantities_rounds_ties_away_from_zero():
    counts, _ = new_quantities([0.625, 0.375, 0.125], [4, 4, 4])
    assert counts.tolist() == [3, 2, 1]


def test_new_quantities_validation():
    with pytest.raises(MicrofileError, match="differ in length"):
        new_quantities([0.5, 0.5], [4])
    with pytest.raises(MicrofileError, match="positive"):
        new_quantities([0.0], [4])
    with pytest.raises(MicrofileError, match="positive and finite"):
        new_quantities([float("nan")], [4])


def test_rounded_counts_perturb_details_slightly(db2, census_ratios):
    # Re-deriving ratios from the rounded counts moves the detail
    # coefficients a little; the residual must be nonzero but bounded by
    # the worst-case half-count effect.
    from groupanon import RedistributionPlan, redistribute

    plan = RedistributionPlan(strategy="manual", free_values=ref.FREE_VALUES, floor=ref.FLOOR)
    final, _ = redistribute(census_ratios, plan, db2, 1, "left")
    counts, _ = new_quantities(final, EMPLOYED)
    realized = counts / np.array(EMPLOYED, dtype=float)

    ext_final, meta = extend_to_even(final, "left")
    ext_realized, _ = extend_to_even(realized, "left")
    ideal = analyze(ext_final, db2, 1, meta=meta).details[0]
    rounded = analyze(ext_realized, db2, 1, meta=meta).details[0]
    residual = np.abs(rounded - ideal).max()
    bound = 0.5 / min(EMPLOYED) * np.abs(db2.highpass).sum()
    assert 0.0 < residual <= bound


# ---------------------------------------------------------------- rewriting

def test_rewrite_census_counts(census_microfile):
    spec = census_attribute_spec()
    signal = concentration_signal(census_microfile, spec)
    rewritten = rewrite_microfile(
        census_microfile, spec, signal.numerators, ref.FINAL_COUNTS, seed=42
    )
    recount = concentration_signal(rewritten, spec)
    np.testing.assert_array_equal(recount.numerators, ref.FINAL_COUNTS)
    np.testing.assert_array_equal(recount.denominators, EMPLOYED)
    assert len(rewritten) == len(census_microfile)


def test_rewrite_noop_when_counts_unchanged():
    mf = make_microfile(SMALL_ROWS)
    out = rewrite_microfile(mf, small_spec(), [2, 1], [2, 1], seed=0)
    assert records(out) == records(mf)


def test_rewrite_only_touches_vital_cells():
    mf = make_microfile(SMALL_ROWS)
    # Group A shrinks and group B grows.
    out = rewrite_microfile(mf, small_spec(), [2, 1], [1, 3], seed=1)
    recount = concentration_signal(out, small_spec())
    assert recount.numerators.tolist() == [1, 3]
    for before, after in zip(records(mf), records(out)):
        assert before[0] == after[0]  # REG untouched
        assert before[2] == after[2]  # SEX untouched


def test_rewrite_cycles_vital_combinations():
    # Six donors promoted in one group: combinations alternate X,Y,X,Y,...
    rows = [("A", "Z", str(i)) for i in range(6)]
    mf = make_microfile(rows)
    spec = small_spec(parameter_values=("A",))
    out = rewrite_microfile(mf, spec, [0], [6], seed=3)
    jobs = [r[1] for r in records(out)]
    assert sorted(jobs) == ["X", "X", "X", "Y", "Y", "Y"]


def test_rewrite_determinism_and_seed_variation():
    rows = [("A", "Z", str(i)) for i in range(30)] + [("A", "X", "v")]
    mf = make_microfile(rows)
    spec = small_spec(parameter_values=("A",))
    first = rewrite_microfile(mf, spec, [1], [5], seed=7)
    second = rewrite_microfile(mf, spec, [1], [5], seed=7)
    assert records(first) == records(second)
    other = rewrite_microfile(mf, spec, [1], [5], seed=8)
    recount = concentration_signal(other, spec)
    assert recount.numerators.tolist() == [5]
    assert records(other) != records(first)


def test_rewrite_insufficient_donors_names_value():
    mf = make_microfile(SMALL_ROWS)
    with pytest.raises(RewriteError, match="'A': need 5 donor records, only 2"):
        rewrite_microfile(mf, small_spec(), [2, 1], [7, 1], seed=0)


def test_rewrite_decrease_requires_fallback():
    mf = make_microfile(SMALL_ROWS)
    spec = small_spec(fallback_combination=None)
    with pytest.raises(RewriteError, match="fallback_combination"):
        rewrite_microfile(mf, spec, [2, 1], [1, 1], seed=0)


def test_rewrite_stale_counts_detected():
    mf = make_microfile(SMALL_ROWS)
    with pytest.raises(RewriteError, match="expected 3 vital records, found 2"):
        rewrite_microfile(mf, small_spec(), [3, 1], [3, 1], seed=0)


@pytest.mark.parametrize("old, new", [([2], [2, 1]), ([2, 1], [2, 1, 0]), ([[2, 1]], [[2, 1]])])
def test_rewrite_counts_of_the_wrong_length(old, new):
    mf = make_microfile(SMALL_ROWS)
    with pytest.raises(RewriteError, match=r"^counts must have one entry per parameter value \(2\)$"):
        rewrite_microfile(mf, small_spec(), old, new, seed=0)


def test_write_then_reload_census(tmp_path, census_microfile):
    spec = census_attribute_spec()
    signal = concentration_signal(census_microfile, spec)
    rewritten = rewrite_microfile(
        census_microfile, spec, signal.numerators, ref.FINAL_COUNTS, seed=42
    )
    path = tmp_path / "anon.csv"
    write_microfile(rewritten, path)
    again = load_microfile(path)
    recount = concentration_signal(again, spec)
    np.testing.assert_array_equal(recount.numerators, ref.FINAL_COUNTS)
    assert again.attributes == census_microfile.attributes


def test_rewrite_new_count_below_one_names_group():
    mf = make_microfile(SMALL_ROWS)
    with pytest.raises(RewriteError, match="'B': new vital count 0 is below 1 \\(capacity 4\\)"):
        rewrite_microfile(mf, small_spec(), [2, 1], [3, 0], seed=0)


def test_rewrite_checks_every_group_before_sampling():
    # Group B is at fault, so nothing may be drawn for group A first: the
    # error is the same whatever the seed, and the input stays untouched.
    mf = make_microfile(SMALL_ROWS)
    before = records(mf)
    for seed in range(3):
        with pytest.raises(RewriteError, match="'B': need 4 donor records, only 3 available"):
            rewrite_microfile(mf, small_spec(), [2, 1], [3, 5], seed=seed)
    assert records(mf) == before


def test_rewrite_appends_new_values_in_code_order():
    # Group A shrinks to the fallback "W" and group B grows by "V" and "X";
    # neither "V" nor "W" is in the file.
    mf = make_microfile(SMALL_ROWS)
    spec = small_spec(vital_combinations=(("V",), ("X",), ("Y",)), fallback_combination=("W",))
    out = rewrite_microfile(mf, spec, [2, 1], [1, 3], seed=0)
    assert concentration_signal(out, spec).numerators.tolist() == [1, 3]
    assert list(out.vocabularies[1]) == ["X", "Z", "Y", "V", "W"]
    assert_codes_in_order(out.vocabularies)
    # The input's vocabulary is copied, not extended in place.
    assert list(mf.vocabularies[1]) == ["X", "Z", "Y"]


# ------------------------------------------------- columns and raw bytes

def test_census_columns_are_narrowest_codes(census_microfile):
    n = sum(EMPLOYED)
    for codes, vocabulary in zip(census_microfile.codes, census_microfile.vocabularies):
        assert isinstance(codes, np.ndarray) and codes.dtype == np.uint8 and codes.shape == (n,)
        assert 0 <= codes.min() and codes.max() < len(vocabulary) <= 13
    assert list(census_microfile.vocabularies[0]) == list(REGION_CODES)


def _widening_text():
    # A crosses 256 values in its second chunk of 1,000 rows and 65,536 in
    # its 67th; B has exactly 256 values; C crosses 256 in its 26th chunk.
    # Every line differs, so the plain parser splits every chunk into
    # fields: from the second chunk on, A is a column of new values, next to
    # B and C, whose tables live across the load while C widens.
    rows = [(str(i % 100 if i < 1000 else i - 900), str(i % 256), str(i // 100 % 300))
            for i in range(70_000)]
    return rows, "A,B,C\n" + "".join(",".join(row) + "\n" for row in rows)


def _int64_codes(values):
    index = {}
    return np.array([index.setdefault(value, len(index)) for value in values], dtype=np.int64)


@pytest.mark.parametrize("route", ["plain", "csv", "delta"])
def test_code_columns_widen_to_the_narrowest_type(monkeypatch, route):
    monkeypatch.setattr(microdata, "_CHUNK_ROWS", 1000)
    rows, text = _widening_text()
    if route == "csv":
        text = text.replace("A,B,C", '"A",B,C', 1)
    if route == "delta":
        # A release of the text with one vital cell changed to B's 257th
        # value: the check against the text tokenizes that record alone,
        # and the release's own load widens B.
        original = text
        old = ",".join(rows[40_000])
        rows[40_000] = (rows[40_000][0], "new", rows[40_000][2])
        text = text.replace(f"\n{old}\n", "\n{}\n".format(",".join(rows[40_000])))
        spec = AttributeSpec(vital_attributes=("B",), vital_combinations=(("new",),), parameter_attribute="C",
                             parameter_values=("0", "1"))
        found = microdata.check_release(io.StringIO(original), io.StringIO(text), spec)
        assert (found.tokenized, found.changed, found.altered) == (1, 1, 0)
        assert found.after.numerators.tolist() == [0, 0] and found.before.numerators.tolist() == [0, 0]
        mf = load_microfile(io.StringIO(text))
        types = (np.uint32, np.uint16, np.uint16)
    else:
        mf = load_microfile(io.StringIO(text))
        types = (np.uint32, np.uint8, np.uint16)
        if route == "plain":
            _assert_loads_like_csv(text.encode(), ",")
    for j, values in enumerate(zip(*rows)):
        assert mf.codes[j].dtype == types[j]
        np.testing.assert_array_equal(mf.codes[j], _int64_codes(values))
    assert_codes_in_order(mf.vocabularies)


def test_rewrite_widens_a_column_for_its_257th_value(monkeypatch):
    # B has 256 values; shrinking p0 turns two of its four vital records
    # (B "0") into the fallback "new", B's 257th value, so B needs uint16.
    monkeypatch.setattr(microdata, "_CHUNK_ROWS", 100)
    rows = [(f"p{i % 2}", str(i % 256)) for i in range(1024)]
    mf = make_microfile(rows, attributes=("P", "B"))
    spec = AttributeSpec(vital_attributes=("B",), vital_combinations=(("0",), ("1",)),
                         parameter_attribute="P", parameter_values=("p0", "p1"),
                         fallback_combination=("new",))
    out = rewrite_microfile(mf, spec, [4, 4], [2, 4], seed=4)
    assert mf.codes[1].dtype == np.uint8 and out.codes[1].dtype == np.uint16
    expected = _int64_codes([b for _, b in rows])
    assert len(out.edited) == 2 and set(expected[out.edited].tolist()) == {0}
    expected[out.edited] = 256
    np.testing.assert_array_equal(out.codes[1], expected)
    np.testing.assert_array_equal(mf.codes[1], _int64_codes([b for _, b in rows]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=40), st.integers(1, 7), st.data())
def test_block_wise_rows_of_ranks_match_a_stable_sort(values, block, data):
    # Buckets 6 and 7, and any value not drawn, are empty.
    buckets = np.array(values, dtype=np.uint8)
    sizes = np.bincount(buckets, minlength=8)
    pools, ranks = [], []
    for pool, size in enumerate(sizes.tolist()):
        picked = sorted(data.draw(st.sets(st.integers(0, size - 1)))) if size else []
        pools += [pool] * len(picked)
        ranks += picked
    pools, ranks = np.array(pools, dtype=np.intp), np.array(ranks, dtype=np.intp)
    blocks = (buckets[start : start + block] for start in range(0, buckets.size, block))
    rows = microdata._rows_of_ranks(blocks, sizes, pools, ranks)
    edges = np.cumsum(sizes) - sizes
    np.testing.assert_array_equal(rows, np.argsort(buckets, kind="stable")[edges[pools] + ranks])


# Per form, the line terminator and whether a long record is quoted (with a
# line break and a quote inside quotes).
_FORMS = {"plain": (b"\n", False), "crlf": (b"\r\n", False), "lone_cr": (b"\r", False), "quoted": (b"\r\n", True)}


def _record_of_size(size, terminator, quoted):
    """A record of two fields that is ``size`` bytes long, its terminator included."""
    if quoted:
        head = b'"a\nb""c","'
        return head + b"z" * (size - len(head) - 1 - len(terminator)) + b'"' + terminator
    return b"x," + b"z" * (size - 2 - len(terminator)) + terminator


@pytest.mark.parametrize("block", [97, 1 << 18])
@pytest.mark.parametrize("longest, dtype", [(255, np.uint8), (256, np.uint16), (65_535, np.uint16),
                                            (65_536, np.uint32)])
@pytest.mark.parametrize("form", list(_FORMS))
def test_record_lengths_widen_for_a_longer_record(monkeypatch, form, longest, dtype, block):
    # Lengths start as uint8 and are copied to the narrowest type that holds
    # the longest record, whether it ends in the block it started in (a
    # large block) or blocks after (a small one).
    terminator, quoted = _FORMS[form]
    short = b"x,abc" + terminator
    records_ = [short, _record_of_size(longest - 1, terminator, quoted), short, short,
                _record_of_size(longest, terminator, quoted), short]
    data = b"A,B" + terminator + b"".join(records_)
    monkeypatch.setattr(microdata, "_BLOCK_BYTES", block)
    mf = load_microfile(io.BytesIO(data))
    read = list(ref.csv_records(data, ","))
    assert records(mf) == [tuple(row) for row, _ in read[1:]]
    ends = [end for _, end in read]
    assert mf.header == ends[0] == 3 + len(terminator)
    assert mf.lengths.tolist() == np.diff(ends).tolist() == [len(r) for r in records_]
    assert mf.lengths.dtype == dtype
    # A text whose last record grows has the lengths csv reads in it.
    grown = data[: -len(short)] + b"x,abcd" + terminator
    longer = load_microfile(io.BytesIO(grown))
    ends = [end for _, end in ref.csv_records(grown, ",")]
    assert longer.header == ends[0]
    assert longer.lengths.tolist() == np.diff(ends).tolist() and longer.lengths.dtype == dtype
    assert records(longer) == [*records(mf)[:-1], ("x", "abcd")]
    # The write finds the last record past the long ones.
    vocabulary = dict(mf.vocabularies[0])
    column = mf.codes[0].copy()
    column[-1] = vocabulary.setdefault("w", len(vocabulary))
    edited = replace(mf, codes=[column, mf.codes[1]], vocabularies=[vocabulary, mf.vocabularies[1]],
                     edited=np.array([len(mf) - 1], dtype=np.intp))
    buffer = io.BytesIO()
    write_microfile(edited, buffer)
    assert buffer.getvalue() == data[: -len(short)] + b"w,abc" + terminator


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7, 1 << 15])
def test_edits_at_chunk_edges_are_written_in_place(monkeypatch, chunk_rows):
    # A write sums the record lengths a chunk of rows at a time to find each
    # edited record; the release equals the one written from offsets that
    # one sum over every record gives.  Records of up to 300 bytes make the
    # lengths uint16.
    rows = [(f"r{i}", "z" * (i * 37 % 301), str(i % 3)) for i in range(40)]
    text = microfile_text(make_microfile(rows)).encode()
    monkeypatch.setattr(microdata, "_CHUNK_ROWS", chunk_rows)
    mf = load_microfile(io.BytesIO(text))
    assert mf.lengths.dtype == np.uint16
    picked = sorted({0, len(mf) - 1} | {r for k in range(chunk_rows, len(mf), chunk_rows) for r in (k - 1, k)})
    vocabulary = dict(mf.vocabularies[2])
    column = mf.codes[2].copy()
    column[picked] = vocabulary.setdefault("new", len(vocabulary))
    edited = replace(mf, codes=[*mf.codes[:2], column], vocabularies=[*mf.vocabularies[:2], vocabulary],
                     edited=np.array(picked, dtype=np.intp))
    buffer = io.BytesIO()
    write_microfile(edited, buffer)
    offsets = list(itertools.accumulate(mf.lengths.tolist(), initial=mf.header))
    expected = text[: mf.header] + b"".join(
        ",".join(values).encode() + b"\n" if r in picked else text[offsets[r] : offsets[r + 1]]
        for r, values in enumerate(records(edited)))
    assert buffer.getvalue() == expected


ROADMAP_PROBE = 'A,B\r\n"x, y",1\r\nz,"2"\r\n'


def test_quoted_crlf_roundtrip_is_byte_identical():
    mf = load_microfile(io.StringIO(ROADMAP_PROBE))
    assert records(mf) == [("x, y", "1"), ("z", "2")]
    assert microfile_text(mf) == ROADMAP_PROBE
    buffer = io.BytesIO()
    write_microfile(mf, buffer)
    assert buffer.getvalue() == ROADMAP_PROBE.encode()


def test_rewritten_crlf_record_keeps_its_terminator():
    text = 'REG,JOB,SEX\r\nA,X,"1"\r\nA,Z,"2"\r\nA,Z,1\nB,X,1\r\nB,Z,2'
    spec = small_spec(parameter_values=("A", "B"))
    mf = load_microfile(io.StringIO(text))
    out = rewrite_microfile(mf, spec, [1, 1], [1, 2], seed=0)
    assert microfile_text(out) == 'REG,JOB,SEX\r\nA,X,"1"\r\nA,Z,"2"\r\nA,Z,1\nB,X,1\r\nB,X,2'
    # The edited record's third field keeps its quotes.
    out = rewrite_microfile(mf, spec, [1, 1], [3, 1], seed=0)
    assert microfile_text(out) == 'REG,JOB,SEX\r\nA,X,"1"\r\nA,X,"2"\r\nA,Y,1\nB,X,1\r\nB,Z,2'


def test_load_ragged_quoted_row_names_line():
    with pytest.raises(MicrofileError, match="line 3 has 2 fields, expected 3"):
        load_microfile(io.StringIO('REG,JOB,SEX\r\nA,"X",1\r\nA,X\r\n'))
    with pytest.raises(MicrofileError, match="line 2 has 0 fields, expected 3"):
        load_microfile(io.StringIO("REG,JOB,SEX\n\nA,X,1\n"))


def test_load_rejects_bad_text_and_delimiters():
    with pytest.raises(MicrofileError, match="not UTF-8"):
        load_microfile(io.BytesIO(b"REG,JOB\n\xff,X\n"))
    with pytest.raises(MicrofileError, match="delimiter"):
        load_microfile(io.StringIO("REG,JOB\nA,X\n"), delimiter=",,")
    with pytest.raises(MicrofileError, match="^delimiter must be one ASCII character .*, got 'é'$"):
        load_microfile(io.StringIO("REGéJOB\nAéX\n"), delimiter="é")


_MALFORMED = pytest.mark.parametrize("text, message", [
    ('A,B\nx,y\nx,a"b"\n', "line 3 has a quote inside an unquoted field"),
    ('A,B\nx,y\n"a"b,y\n', "line 3 has text after a closing quote"),
    ('A,B\r\nx,"y\r\nz,w\r\n', "line 2 has an unterminated quote"),
    ('"A"x,B\nx,y\n', "line 1 has text after a closing quote"),
    ('A,B\n"x\n""y"\rz,"a""b"c\n', "line 3 has text after a closing quote"),  # after a quoted line break
    ("A,B,A\nx,y,z\n", "duplicate attribute names in header"),
    ('\ufeff"A",B,"A "\nx,y,z\n', "duplicate attribute names in header"),
    ("\n\nx\n", "line 1 names no attribute"),
    ('A,B\rx"y,z\r', "line 2 has a quote inside an unquoted field"),
    ('A,B\r\n"x"y,z\r\n', "line 2 has text after a closing quote"),
    ('A,B\n"x\n', "line 2 has an unterminated quote"),
    ('"A\r\nB",C\nx,"y"z\n', "line 2 has text after a closing quote"),
], ids=["quote_in_unquoted_field", "text_after_closing_quote", "unterminated_quote", "header_quote",
        "after_quoted_break", "duplicate_names", "duplicate_quoted_names", "no_attribute",
        "after_lone_cr_header", "after_crlf_header", "unterminated_first_record", "after_quoted_header_break"])


@_MALFORMED
def test_malformed_text_fails_naming_its_line(text, message):
    # Every form the csv module would read some other way than quote
    # parity fails before any record is parsed, at the record's line.
    with pytest.raises(MicrofileError, match=f"^{re.escape(message)}$"):
        load_microfile(io.BytesIO(text.encode()))


@_MALFORMED
def test_malformed_text_names_its_line_at_every_block_size(monkeypatch, text, message):
    # The header is the first line the scan ends, so a record's line counts
    # it, whichever block the header, the record or its fault lies in.
    for block in range(1, len(text.encode()) + 1):
        monkeypatch.setattr(microdata, "_BLOCK_BYTES", block)
        with pytest.raises(MicrofileError, match=f"^{re.escape(message)}$"):
            load_microfile(io.BytesIO(text.encode()))


@pytest.mark.parametrize("data, line", [
    (b"A,B\nx,y\nx,y\n\xc3,\xa9\n\xc3,\xa9\n", 4),
    (b"A\n\xc3\n\xa9\n", 2),
    (b'A,B\nx,y\nx,y\n"\xc3","\xa9"\n"\xc3","\xa9"\n', 4),
    (b"A,B\nx,\xc3\n\xa9,y\n", 2),
    (b"\xc3,\xa9\nx,y\n", 1),
], ids=["in_record", "across_rows", "across_quotes", "across_records", "header"])
def test_character_split_between_fields_is_not_utf8(data, line):
    # A lead byte ends one field and a continuation byte starts the next:
    # the two fields are each not UTF-8, though their bytes joined would be.
    # Repeated records are split in lines mode, distinct ones in fields mode.
    for chunk_rows in (2, 1 << 15):
        with mock.patch.object(microdata, "_CHUNK_ROWS", chunk_rows):
            _assert_loads_like_csv(data, ",")
            with pytest.raises(MicrofileError, match=f"^line {line} is not UTF-8 text"):
                load_microfile(io.BytesIO(data))


def test_long_cell_loads_in_every_parser():
    # 200,000 characters is above csv's default field limit of 131,072: the
    # loader takes a cell of any length, and the csv oracle raises the limit
    # for its read and restores it, as the limit is process-wide.
    cell = "x" * 200_000
    limit = csv.field_size_limit()
    texts = {
        "plain": f"REG,JOB\nA,{cell}\nB,y\n",
        "quoted": f'REG,JOB\nA,"{cell}"\nB,y\n',
        "crlf": f"REG,JOB\r\nA,{cell}\r\nB,y\r\n",
    }
    loaded = {name: _assert_loads_like_csv(text.encode(), ",") for name, text in texts.items()}
    for name, mf in loaded.items():
        assert mf.vocabularies == loaded["plain"].vocabularies, name
        assert microfile_text(mf) == texts[name], name
    assert csv.field_size_limit() == limit


_DELIMITERS = (",", ";", "\t", "|")
_VALUES = ("x", "y", "", "a b", "é", "x{d}y", 'q"q', "l\nm", "c\rr")


def _field(value, quote):
    if quote or any(c in value for c in '"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


@st.composite
def microfile_texts(draw, terminators=("\n", "\r\n"), bom=False):
    """Random microfile text: tiny groups, any of ``terminators``, optional quotes, any delimiter.

    With ``bom``, a byte order mark may open the text.
    """
    d = draw(st.sampled_from(_DELIMITERS))
    q = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    terminator = draw(st.sampled_from(terminators))
    values = st.sampled_from(_VALUES).map(lambda v: v.format(d=d))
    lines = []
    for row in [[f"A{j}" for j in range(q)]] + [draw(st.lists(values, min_size=q, max_size=q)) for _ in range(n)]:
        fields = []
        for value in row:
            quote = draw(st.booleans()) or d in value or (q == 1 and value == "")
            fields.append(_field(value, quote))
        lines.append(d.join(fields))
    final = draw(st.sampled_from([terminator, ""]))
    opening = "\ufeff" if bom and draw(st.booleans()) else ""
    return opening + terminator.join(lines) + final, d


@settings(max_examples=200, deadline=None)
@given(microfile_texts())
def test_write_of_load_is_byte_identical(case):
    text, d = case
    mf = load_microfile(io.BytesIO(text.encode()), delimiter=d)
    buffer = io.BytesIO()
    write_microfile(mf, buffer)
    assert buffer.getvalue() == text.encode()


@settings(max_examples=300, deadline=None)
@given(microfile_texts(terminators=("\n", "\r\n", "\r"), bom=True), st.sampled_from([2, 3, 1 << 15]))
# Quoted delimiters, quotes, CR and LF, in a header after a byte order mark and in records.
@example(('\ufeff"A,0";"A""1"\r"x\ry";"l\nm"\r"";"q""q"\r', ";"), 2)
@example(('A0,"A\r\n1"\n"a,b","\n,"""""\r\n', ","), 3)
def test_quoted_texts_load_like_csv(case, chunk_rows):
    # Every record, quoted or not, goes through the one tokenizer, in
    # either table mode.
    text, d = case
    data = text.encode()
    with mock.patch.object(microdata, "_CHUNK_ROWS", chunk_rows):
        mf = _assert_loads_like_csv(data, d)
        buffer = io.BytesIO()
        write_microfile(mf, buffer)
        assert buffer.getvalue() == data


def assert_codes_in_order(vocabularies):
    """Every vocabulary maps its i-th value to code i."""
    for v in vocabularies:
        assert list(v.values()) == list(range(len(v)))


def _scanned(data, d=","):
    """The header's length, the record lengths of ``data`` and its source, as a load's first read finds them."""
    return microdata._line_ends(microdata._Source(data=data), d)


def _csv_or_error(data, d):
    try:
        return ref.csv_load(data, d)
    except MicrofileError as exc:
        return str(exc)


def _assert_loads_like_csv(data, d):
    """``load_microfile`` reads ``data`` as the csv oracle does: the same attributes, codes, vocabularies and record ends, or the same error."""
    expected = _csv_or_error(data, d)
    mf = _load_or_error(data, d)
    if isinstance(expected, str):
        assert mf == expected
        return
    assert not isinstance(mf, str), mf
    attributes, codes, vocabularies, bounds = expected
    assert mf.attributes == attributes
    for column, want in zip(mf.codes, codes, strict=True):
        np.testing.assert_array_equal(column, want)
    assert [list(v) for v in mf.vocabularies] == vocabularies
    assert_codes_in_order(mf.vocabularies)
    assert mf.header == bounds[0]
    np.testing.assert_array_equal(mf.lengths, np.diff(bounds))
    assert mf.lengths.dtype == np.min_scalar_type(np.diff(bounds).max())
    return mf


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_DELIMITERS),
    st.integers(1, 3),
    st.lists(st.lists(st.sampled_from(["x", "y", "", "é", "a b"]), min_size=3, max_size=3), min_size=1, max_size=8),
    st.booleans(),
)
def test_plain_and_csv_parsers_agree(d, q, rows, final_newline):
    rows = [row[:q] for row in rows if q > 1 or row[0]]
    if not rows:
        return
    text = "\n".join(d.join(row) for row in [[f"A{j}" for j in range(q)]] + rows)
    data = (text + ("\n" if final_newline else "")).encode()
    _assert_loads_like_csv(data, d)
    assert records(load_microfile(io.BytesIO(data), delimiter=d)) == [tuple(row) for row in rows]


def test_parsers_agree_across_chunks(monkeypatch):
    rows = SMALL_ROWS + [("C", "Y", "3"), ("A", "W", "1")]
    lf = microfile_text(make_microfile(rows))
    whole = load_microfile(io.StringIO(lf))
    monkeypatch.setattr(microdata, "_CHUNK_ROWS", 3)
    for text in (lf, lf.replace("\n", "\r\n")):
        chunked = load_microfile(io.StringIO(text))
        assert all(np.array_equal(a, b) for a, b in zip(chunked.codes, whole.codes))
        assert chunked.vocabularies == whole.vocabularies
        assert microfile_text(chunked) == text


_FAULTS = ("none", "none", "ragged", "short", "not_utf8", "split_char")


@st.composite
def chunked_texts(draw):
    """Plain text in chunks of lines that repeat one line, mix two, repeat earlier ones, or are all distinct.

    Lines hold NUL bytes, long multi-byte cells, or exactly 7, 8, 9, 16 or
    17 bytes, and cells hold 0, 7, 8, 9, 16 or 17 bytes, around the 8-byte
    words the parser packs lines and fields into; the last line may repeat
    the one before it, with or without a final terminator.  Returns the
    delimiter, the chunk size, the text, which has at most one fault, and a
    fault-free text that differs from it in some lines.
    """
    d = draw(st.sampled_from(_DELIMITERS))
    q = draw(st.integers(1, 3))
    chunk_rows = draw(st.integers(2, 4))
    pool = ["x", "é", "日本", "a b", "a", "a\0", "\0", "日本語" * 6] + ([""] if q > 1 else [])
    # A cell of "p" and NUL bytes of a drawn size.
    sizes = [7, 8, 9, 16, 17] + ([0] if q > 1 else [])
    padded = st.sampled_from(sizes).flatmap(lambda size: st.text("p\0", min_size=size, max_size=size))
    cells = st.lists(st.one_of(st.sampled_from(pool), padded), min_size=q, max_size=q)

    @st.composite
    def sized(draw):
        # A last cell of "p" and NUL bytes pads the line to the drawn size.
        head = d.join(["y"] * (q - 1) + [""]).encode()
        size = draw(st.sampled_from([7, 8, 9, 16, 17]))
        return head + bytes(draw(st.lists(st.sampled_from(b"p\0"), min_size=size - len(head),
                                          max_size=size - len(head))))

    row = st.one_of(cells.map(lambda values: d.join(values).encode()), sized())
    kinds = draw(st.lists(st.sampled_from(["repeat", "mix", "known", "distinct"]), min_size=1, max_size=5))
    lines = []
    for kind in kinds:
        if kind == "repeat":
            lines += [draw(row)] * chunk_rows
        elif kind == "mix":
            pair = [draw(row), draw(row)]
            lines += [pair[draw(st.integers(0, 1))] for _ in range(chunk_rows)]
        elif kind == "known" and lines:
            # Lines of earlier chunks, which the tables already hold.
            lines += [lines[draw(st.integers(0, len(lines) - 1))] for _ in range(chunk_rows)]
        else:
            # A multi-byte first cell unique to its line keeps the lines distinct.
            lines += [d.join([f"ü{len(lines) + i}"] + draw(cells)[1:]).encode() for i in range(chunk_rows)]
    lines += [draw(row) for _ in range(draw(st.integers(0, chunk_rows - 1)))]
    if len(lines) > 1 and draw(st.booleans()):
        lines[-1] = lines[-2]
    edits = [draw(st.integers(0, 3)) == 0 for _ in lines]
    edited = [line + b"e" if edit else line for line, edit in zip(lines, edits)]
    fault, at = draw(st.sampled_from(_FAULTS)), draw(st.integers(0, len(lines) - 1))
    if fault == "ragged":
        lines[at] += d.encode() + b"z"
    elif fault == "short":
        lines[at] = lines[at].rpartition(d.encode())[0]
    elif fault == "not_utf8":
        lines[at] += b"\xff"
    elif fault == "split_char":
        # "é" split into its lead byte, ending a field, and its continuation
        # byte, starting the next field of the line or, with one column, the
        # next line.
        cells = lines[at].split(d.encode())
        cells[0] += b"\xc3"
        if q > 1:
            cells[1] = b"\xa9" + cells[1]
        elif at + 1 < len(lines):
            lines[at + 1] = b"\xa9" + lines[at + 1]
        lines[at] = d.encode().join(cells)
    terminator = draw(st.sampled_from([b"\n", b"\r\n"]))
    # An empty last line is a record only when a terminator follows it.
    final = terminator if draw(st.booleans()) or not lines[-1] else b""
    header = d.join(f"A{j}" for j in range(q)).encode()
    text, clean = (terminator.join([header] + body) + final for body in (lines, edited))
    return d, chunk_rows, text, clean


def _decoding_chunks(text, d, chunk_rows):
    """The chunks of a fault-free plain text that hold a line or a field new to the parser's tables.

    A model of the plain parser's tables.  While lines repeat, one table
    holds the lines seen so far (a line is its bytes before the "\n").  The
    first chunk with more new distinct lines than half its rows, and every
    chunk after it, is split into fields.  Each column's table takes the
    fields new to it of a chunk after which the column has at most one
    distinct value per two lines read, whatever the chunk's size.
    """
    lines = text.split(b"\n")[1:]
    if not lines[-1]:
        lines.pop()  # after the last terminator
    q = text.count(d.encode(), 0, text.index(b"\n")) + 1
    seen, tables, decoding = set(), None, []
    values = [set() for _ in range(q)]  # each column's distinct values so far
    for c, r0 in enumerate(range(0, len(lines), chunk_rows)):
        chunk = lines[r0 : r0 + chunk_rows]
        rows = [line.removesuffix(b"\r").split(d.encode()) for line in chunk]
        for j, column in enumerate(values):
            column.update(row[j] for row in rows)
        if tables is None:
            new = set(chunk) - seen
            if 2 * len(new) <= len(chunk):
                seen |= new
                decoding += [c] * bool(new)
                continue
            tables = [set() for _ in range(q)]
        for j, table in enumerate(tables):
            new = {row[j] for row in rows} - table
            if new and not decoding[-1:] == [c]:
                decoding.append(c)
            if 2 * len(values[j]) <= r0 + len(chunk):
                table |= new
    return decoding


@settings(max_examples=300, deadline=None)
@given(chunked_texts())
# An empty line in a chunk that skips the dictionary, after LF and CRLF.
@example((",", 2, b"A0\nu0\nu1\nx\n\n", b"A0\nu0\nu1\nx\nx\n"))
@example((",", 2, b"A0\r\nu0\r\nu1\r\nx\r\n\r\n", b"A0\r\nu0\r\nu1\r\nx\r\nx\r\n"))
# "a" and "a\0" pad to the same 8-byte word.
@example((",", 4, b"A0\na\0\na\na\na\0\n", b"A0\na\0\na\na\na\0\n"))
# Tables kept across four chunks: a value first seen in the third (z), and
# lines and fields of earlier chunks met again.
@example((",", 2, b"A0,A1\nx,y\nx,y\nx,w\nx,y\nx,z\nx,w\nx,y\nx,z\n",
          b"A0,A1\nx,y\nx,y\nx,w\nx,y\nx,z\nx,w\nx,y\nx,z\n"))
@example((",", 2, b"A0,A1\nu0,y\nu1,y\nu2,w\nu0,y\nv,z\nv,z\nu2,y\nv,w\r\n",
          b"A0,A1\nu0,y\nu1,y\nu2,w\nu0,y\nv,z\nv,z\nu2,y\nv,w\r\n"))
def test_plain_parser_modes_agree_with_csv(case):
    # The plain parser looks lines up while they repeat; from the first
    # chunk with more new distinct lines than half its rows, it looks each
    # column's fields up, and a column's table grows only while the column
    # has at most one value per two lines read.
    _check_modes_agree_with_csv(case)


@settings(max_examples=300, deadline=None)
@given(chunked_texts())
# CRLF lines of 9 bytes take two words.
@example((",", 4, b"A0\r\nabcdefgh\r\nabcdefgi\r\nabcdefgh\r\nabcdefgh",
          b"A0\r\nabcdefgh\r\nabcdefgi\r\nabcdefgh\r\nabcdefgh"))
def test_colliding_line_keys_keep_lines_apart(case):
    # Every line and field gets the same key, so only comparing them by
    # length and word for word keeps unequal ones apart, in a chunk and
    # against the tables of earlier chunks.
    with mock.patch.object(microdata, "_mix", lambda keys, words: np.zeros_like(keys)):
        _check_modes_agree_with_csv(case)


def _check_modes_agree_with_csv(case):
    d, chunk_rows, text, _ = case
    decoding, chunk = set(), []
    parse, decode = microdata._Lines.parse, microdata._decode_fields

    def parse_spy(lines, buf, starts, ends, rows):
        chunk[:] = [int(rows[0]) // chunk_rows]
        return parse(lines, buf, starts, ends, rows)

    def decode_spy(*args):
        decoding.update(chunk)  # empty while the header is decoded
        return decode(*args)

    with mock.patch.object(microdata, "_CHUNK_ROWS", chunk_rows), \
            mock.patch.object(microdata, "_decode_fields", decode_spy), \
            mock.patch.object(microdata._Lines, "parse", parse_spy):
        # The one fault, if any, is reported at the line csv reads it at.
        full = _assert_loads_like_csv(text, d)
    if full is None:
        return
    # A chunk decodes bytes exactly when it holds a line or field that no
    # table holds yet; every other span is found in a table.
    assert sorted(decoding) == _decoding_chunks(text, d, chunk_rows)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_DELIMITERS), st.lists(st.text(',;\t|"\r\n xé日', max_size=4), min_size=1, max_size=4))
@example(",", [""])
@example(",", ["", ""])
@example("\t", ["a b", "\r", 'é"'])
def test_unquoted_records_format_as_csv_writes_them(d, values):
    # With no field quoted in the input, a record is quoted as csv.writer
    # quotes it: a field holding the delimiter, a quote, CR or LF, and a
    # record's lone empty field.
    buffer = io.StringIO()
    csv.writer(buffer, delimiter=d, lineterminator="\r\n").writerow(values)
    assert microdata._format_record(values, (), d) == buffer.getvalue().removesuffix("\r\n")


def _raw_fields(line, d):
    """The bytes of each field of one record, and its line terminator (a split at the delimiters outside quotes)."""
    fields, start, inside = [], 0, False
    for i, byte in enumerate(line):
        if byte == ord('"'):
            inside = not inside
        elif not inside and byte == ord(d):
            fields.append(line[start:i])
            start = i + 1
        elif not inside and byte in b"\r\n":
            return fields + [line[start:i]], line[i:]
    return fields + [line[start:]], b""


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        microfile_texts(terminators=("\n", "\r\n", "\r"), bom=True).map(lambda case: (case[0].encode(), case[1])),
        chunked_texts().map(lambda case: (case[3], case[0])),
    ),
    st.data(),
)
def test_edited_records_keep_the_bytes_of_kept_fields(case, data):
    # Records picked at random get values drawn from a pool (or keep their
    # own).  Every record not picked keeps its bytes; a picked record keeps
    # its line terminator and the bytes of each field whose value it keeps,
    # quotes included.  The release reads back as the edited records.
    text, d = case
    mf = load_microfile(io.BytesIO(text), delimiter=d)
    picked = sorted(data.draw(st.sets(st.integers(0, len(mf) - 1))))
    pool = [value.format(d=d) for value in _VALUES] + ["new"]
    codes, vocabularies = [], []
    for column, vocabulary in zip(mf.codes, mf.vocabularies):
        column, vocabulary = column.astype(np.int64), dict(vocabulary)
        for r in picked:
            if data.draw(st.booleans()):
                column[r] = vocabulary.setdefault(data.draw(st.sampled_from(pool)), len(vocabulary))
        codes.append(column)
        vocabularies.append(vocabulary)
    edited = replace(mf, codes=codes, vocabularies=vocabularies, edited=np.array(picked, dtype=np.intp))
    buffer = io.BytesIO()
    write_microfile(edited, buffer)
    release = buffer.getvalue()
    again = load_microfile(io.BytesIO(release), delimiter=d)
    assert records(again) == records(edited)
    (old_header, old_lines), (new_header, new_lines) = cut(mf, text), cut(again, release)
    assert new_header == old_header
    for r, (before, after, old, new) in enumerate(zip(records(mf), records(edited), old_lines, new_lines)):
        if r not in picked:
            assert new == old
            continue
        (old_fields, old_end), (new_fields, new_end) = _raw_fields(old, d), _raw_fields(new, d)
        assert new_end == old_end
        for j, (value, kept) in enumerate(zip(after, before)):
            if value == kept:
                assert new_fields[j] == old_fields[j], (r, j)


@pytest.mark.parametrize("variant", ["crlf", "quoted", "lone_cr"])
def test_census_variants_load_like_csv(census_file, variant):
    # The census with CRLF or lone-CR line breaks, or with every cell quoted,
    # goes through the one tokenizer and reads as csv reads it.
    data = census_file.read_bytes()
    if variant == "quoted":
        data = b'"' + data.replace(b",", b'","').replace(b"\n", b'"\n"')[:-1]
    else:
        data = data.replace(b"\n", b"\r\n" if variant == "crlf" else b"\r")
    mf = _assert_loads_like_csv(data, ",")
    buffer = io.BytesIO()
    write_microfile(mf, buffer)
    assert buffer.getvalue() == data


def test_repeated_wide_lines_load_in_little_memory(tmp_path):
    # 3,000 lines of 0.6-4.5 KB drawn from a dozen: keying the lines must
    # not copy each one out to the longest line's width.
    rng = np.random.default_rng(12)
    distinct = [",".join("w" * n for n in rng.integers(200, 1500, size=3)) for _ in range(12)]
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(["A,B,C"] + [distinct[i] for i in rng.integers(0, 12, size=3000)]) + "\n")
    tracemalloc.start()
    try:
        mf = load_microfile(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak <= 4 * size, f"peak {peak / size:.2f}x the file's {size} bytes"
    assert sum(len(v) for v in mf.vocabularies) <= 36


# A chunk of one row costs about 0.3 ms to parse, so that case has fewer values.
@pytest.mark.parametrize("chunk_rows, values", [(1, 1023), (7, 8191), (1 << 13, 8191), (1 << 15, 8191)])
def test_field_tables_admit_a_column_by_its_values_per_record(chunk_rows, values):
    # Distinct lines: an identifier, one of 8,191 categories (each once per
    # 8,191 rows, for four cycles) and one of two codes.  Whatever the chunk
    # size, the category's table takes its values once the column has one
    # value per two records read, so it is decoded only in its first three
    # cycles and the chunk that ends the third; the identifier never enters
    # its table.
    rng = np.random.default_rng(values)
    categories = np.concatenate([rng.permutation(values) for _ in range(4)])
    rows = [(str(i), f"C{c:04d}", "12"[c % 2]) for i, c in enumerate(categories.tolist())]
    text = "ID,CAT,SEX\n" + "".join(",".join(row) + "\n" for row in rows)
    decoded, tables = [], []
    encode, split = microdata._Lines._encode, microdata._split_lines

    def encode_spy(lines, j, values):
        decoded.append((j, lines.parsed))
        return encode(lines, j, values)

    def split_spy(*args):
        codes, lines = split(*args)
        tables[:] = [table.keys.size - 1 for table in lines.fields]  # less the entry that matches nothing
        return codes, lines

    with mock.patch.object(microdata, "_CHUNK_ROWS", chunk_rows), \
            mock.patch.object(microdata._Lines, "_encode", encode_spy), \
            mock.patch.object(microdata, "_split_lines", split_spy):
        mf = load_microfile(io.StringIO(text))
    assert records(mf) == rows
    assert tables == [0, values, 2]
    assert max(parsed for j, parsed in decoded if j == 1) <= 3 * values + chunk_rows


def test_distinct_lines_load_without_an_object_per_cell(tmp_path):
    # About 95,600 records over 4,000 categories, most lines distinct, like
    # the long-domain benchmark input.  The parser finds each field in the
    # table of its column's values seen so far and decodes only the new
    # ones, so no chunk makes a Python string per cell.  One such string
    # per cell of a chunk (98,304 cells) took the traced peak to 9.9 times
    # the file's size; the parser's arrays take under 6 times.
    path = write_distinct_lines_file(tmp_path / "distinct.csv")
    tracemalloc.start()
    try:
        mf = load_microfile(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert len(mf) > 90_000 and len(mf.vocabularies[0]) == 4_000
    assert peak <= 8 * size, f"peak {peak / size:.2f}x the file's {size} bytes"


def test_one_long_line_costs_only_its_own_words():
    # One chunk of 32,768 repeating short lines and one 64 KB line: a word is
    # mixed into the keys only of the lines that have it, so about bytes / 8
    # + rows words in all, not rows times the long line's 8,192 words.
    text = b"A\n" + b"a\n" * 16383 + b"b\n" * 16383 + b"x" * 65536 + b"\n"
    with mock.patch.object(microdata, "_CHUNK_ROWS", 1 << 15), \
            mock.patch.object(microdata, "_mix", wraps=microdata._mix) as spy:
        mf = load_microfile(io.BytesIO(text))
    assert spy.call_count == 8192
    mixed = sum(call.args[0].size for call in spy.call_args_list)
    assert mixed <= len(text) // 8 + len(mf), mixed
    assert [list(v) for v in mf.vocabularies] == [["a", "b", "x" * 65536]]
    assert records(mf) == [("a",)] * 16383 + [("b",)] * 16383 + [("x" * 65536,)]


@pytest.mark.parametrize("body", ["A,B\nx,y\nx,z\n", '"A",B\nx,y\n"x",z\n'], ids=["plain", "csv"])
def test_utf8_bom_is_not_part_of_the_first_name(body):
    data = b"\xef\xbb\xbf" + body.encode()
    mf = load_microfile(io.BytesIO(data))
    assert mf.attributes == ["A", "B"]
    assert records(mf) == [("x", "y"), ("x", "z")]
    buffer = io.BytesIO()
    write_microfile(mf, buffer)
    assert buffer.getvalue() == data


# A text whose every quote opens or closes a field, and that ends outside quotes.
_QUOTED_WELL = re.compile(rb'(?:[^",\r\n]*|"(?:[^"]|"")*")(?:(?:,|\r\n|\n|\r)(?:[^",\r\n]*|"(?:[^"]|"")*"))*')


@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=40).map(lambda b: bytes(b'a\r\n,"'[x % 5] for x in b)), st.integers(1, 9))
# A CR as a block's last byte, with a "\n" opening the next block.
@example(b"ab\r\ncd\r\n", 3)
@example(b"a\r\n", 2)
# A CR as a block's last byte, and no "\n" after it.
@example(b"ab\rcd\n", 3)
# A lone CR that ends the text, at a block's end and inside one.
@example(b"ab\r", 3)
@example(b"ab\r", 9)
# A quote only in the last block, and quotes that stay open across blocks.
@example(b'ab\ncd\nef,""\n', 3)
@example(b'a,"b\r\n\r\nc\r"\r\nd\r', 2)
# A closing quote as a block's last byte, with the next block's first byte after it.
@example(b'"ab"\n', 4)
@example(b'"ab"c\n', 4)
@example(b'"a""b"\n', 3)
def test_block_scans_match_whole_text_scans(data, block):
    # The record-end scan reads the text a block at a time; a CR or "\n" at
    # either side of a block edge counts as in one pass, and so do the
    # quotes.  A record ends at "\n", "\r\n" or a lone "\r" outside quotes,
    # as csv reads it.  A text with a quote that does not open or close a
    # field, or that ends inside quotes, fails.
    with mock.patch.object(microdata, "_BLOCK_BYTES", block):
        if not _QUOTED_WELL.fullmatch(data):
            with pytest.raises(MicrofileError, match="^line [0-9]+ has .*quote"):
                _scanned(data)
            return
        header, lengths, source = _scanned(data)
    ends = [end for _, end in ref.csv_records(data, ",")] or [0]
    assert [header] + np.diff(ends).tolist() == [ends[0]] + lengths.tolist()
    assert (source.size, source.crc) == (len(data), zlib.crc32(data))
    assert lengths.dtype == np.min_scalar_type(max(lengths, default=0))


def test_line_end_scan_makes_no_array_per_byte():
    # 16 blocks of lines ended by "\n", "\r\n" and a lone "\r".  Besides its
    # result, the scan holds the block it read, two masks of it, its line
    # offsets and the buffers that cast them for the subtraction of
    # neighbours (about 3.9 blocks here); a mask of every byte would be 16.
    # Quoted text, 32 blocks of it with a line break inside quotes in every
    # third record, adds each quote's offset and checks: about 8 blocks.
    block = 1 << 16
    plain = b"alpha,beta\n" + b"gamma,delta\r\nepsilon,zeta\ralpha,beta\n" * (16 * block // 36)
    quoted = b"alpha,beta\n" + b'"gamma","delta"\r\n"eps\r\nilon",zeta\ralpha,"beta"\n' * (32 * block // 44)
    for data, records, bound in [(plain, 3 * (16 * block // 36) + 1, 4), (quoted, 3 * (32 * block // 44) + 1, 10)]:
        with mock.patch.object(microdata, "_BLOCK_BYTES", block):
            tracemalloc.start()
            try:
                _, lengths, _ = microdata._line_ends(microdata._Source(data=data), ",")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert 1 + len(lengths) == records
        assert peak - lengths.nbytes < bound * block, f"{(peak - lengths.nbytes) / block:.2f} blocks besides the result"


@pytest.mark.parametrize("data", [
    b"A,B\r\nx,y\r\nz,w\n",
    b"A,B\rx,y\n",
    b"A,B\r\nx,y\r",
    b"A,B\r\r\nx,y\n",  # an empty record after a lone CR
    b'A,B\r\n"x",y\r\n',
    b'A,"B\r\nC"\r\n"x\ry",",\n"\r"""\r"\n',  # line breaks, delimiters and quotes inside quotes
], ids=["crlf", "lone_cr", "lone_cr_last", "cr_crlf", "quoted", "quoted_breaks"])
def test_bare_cr_and_quotes_load_like_csv(data):
    mf = _assert_loads_like_csv(data, ",")
    if mf is not None:
        buffer = io.BytesIO()
        write_microfile(mf, buffer)
        assert buffer.getvalue() == data


# --------------------------------------------------------------- delta read

def _load_or_error(data, delimiter):
    try:
        return load_microfile(io.BytesIO(data), delimiter=delimiter)
    except MicrofileError as exc:
        return str(exc)


_RELEASE_EDITS = ("keep", "keep", "keep", "keep", "vital", "other", "requote", "drop", "insert")


@st.composite
def release_pairs(draw):
    """An original text, a release made from it by random edits, a spec to check them by, and the text a fault was put in.

    A0 is the parameter attribute (its first two records hold its two
    values "x" and "y"), A1 the vital one and A2, when there is one, a
    column whose cells may hold the delimiter, quotes and line breaks.
    Cells may be quoted, records end at "\n", "\r\n" or a lone "\r", and
    either text may open with a byte order mark or lack its last line
    break.  The release's header may spell the original's names in other
    bytes (quoted, padded with spaces the load strips, ended by another
    line break), rename one or reorder them, the cells of every record
    reordered with them.  Its records may change a vital or another cell,
    change only their quoting, be removed, or have a record inserted before
    them, and records may be appended.  At most one record of one text
    (None: no text) has a fault: a field too many, or a byte that is not
    UTF-8.
    """
    d = draw(st.sampled_from(_DELIMITERS))
    q = draw(st.integers(2, 3))
    others = st.sampled_from(["x", "", "a b", "é", "x{d}y".format(d=d), 'q"q', "l\nm", "c\rr"])
    cells = [st.sampled_from(["x", "y", "z"]), st.sampled_from(["v", "w", "é"]), others][:q]

    def record():
        return [draw(cell) for cell in cells]

    def render(values, order=range(q)):
        return d.join(_field(values[j], draw(st.booleans()) or d in values[j]) for j in order).encode()

    rows = [["x", *record()[1:]], ["y", *record()[1:]]] + [record() for _ in range(draw(st.integers(0, 8)))]
    lines = [render(row) for row in rows]
    names = [f"A{j}" for j in range(q)]
    terminator = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    bom = draw(st.booleans())
    original = [microdata._BOM * bom + d.join(names).encode()] + lines
    spelling = draw(st.sampled_from(["same", "same", "quoted", "spaced", "renamed", "reordered"]))
    order = list(range(q))
    if spelling == "reordered":
        order = order[::-1]
    header = [names[j] for j in order]
    if spelling == "renamed":
        header[draw(st.integers(0, q - 1))] = "B"
    head = d.join(header).encode()
    if spelling == "quoted":
        head = d.join(f'"{name}"' for name in header).encode()
    elif spelling == "spaced":
        head = d.join(f" {name} " for name in header).encode()
    released = [microdata._BOM * (bom ^ draw(st.booleans())) + head]
    for row, line in zip(rows, lines):
        edit = draw(st.sampled_from(_RELEASE_EDITS))
        if edit == "drop":
            continue
        if edit == "insert":
            released.append(render(record(), order))
        if edit in ("vital", "other"):
            row = list(row)
            j = 1 if edit == "vital" else draw(st.sampled_from([0] + [2] * (q > 2)))
            row[j] = draw(cells[j])
        released.append(line if edit == "keep" and order == list(range(q)) else render(row, order))
    released += [render(record(), order) for _ in range(draw(st.integers(0, 2)))]
    texts = [original, released]
    faulty = draw(st.sampled_from([None, None, 0, 1]))
    if faulty is not None:
        body = texts[faulty]
        at = draw(st.integers(1, len(body) - 1))
        if draw(st.booleans()):
            body[at] += d.encode() + b"z"
        elif b'"' not in body[at]:
            body[at] += b"\xff"
    spec = AttributeSpec(
        vital_attributes=("A1",), vital_combinations=(("v",),) + (("é",),) * draw(st.booleans()),
        parameter_attribute="A0", parameter_values=("x", "y"),
        denominator_filter=("A2", ("x", "", "é")) if q > 2 and draw(st.booleans()) else None,
    )
    joined = []
    for body in texts:
        head_end = draw(st.sampled_from([terminator, b"\n", b"\r\n", b"\r"]))
        joined.append(body[0] + head_end + terminator.join(body[1:]) + terminator * draw(st.booleans()))
    return d, spec, joined[0], joined[1], faulty


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(release_pairs(), st.sampled_from([1, 2, 3, 1 << 13]), st.sampled_from([1, 3, 8, 13, 64, 1 << 18]))
def test_delta_read_equals_full_read(tmp_path, case, chunk_rows, block_bytes):
    # verify reads the original and the release once each, in step, and
    # tokenizes only the release records that differ from the original's;
    # at every chunk and block size its rows and sizes are what csv finds
    # reading each text whole, and a fault names its text.
    d, spec, original, released, faulty = case
    paths = [tmp_path / "input.csv", tmp_path / "output.csv"]
    for path, data in zip(paths, (original, released)):
        path.write_bytes(data)
    config = RunConfig(input=paths[0], output=paths[1], spec=spec, delimiter=d)
    names = tuple(map(str, paths))
    try:
        expected = ref.reference_verify(original, released, spec, d, names)
    except MicrofileError as exc:
        expected = str(exc)
    with mock.patch.object(microdata, "_CHUNK_ROWS", chunk_rows), \
            mock.patch.object(microdata, "_BLOCK_BYTES", block_bytes):
        try:
            status, report = run_verify(config)
        except MicrofileError as exc:
            # With a fault in the original, the release may hold its faulty
            # record too, at another position, which the pass may reach first.
            faults = [f"{name}: {_csv_or_error(data, d)}" for name, data in zip(names, (original, released))]
            assert str(exc) == expected or faulty == 0 and str(exc) in faults, str(exc)
            return
    assert not isinstance(expected, str), expected
    filters = filter_by_name("db2")
    before, after = (np.divide(n, m) for n, m in zip(expected["numerators"], expected["denominators"]))
    extended, meta = extend_to_even(before, "left")
    mean_tol, detail_tol = rounding_tolerances(np.array(expected["denominators"][0]), filters, 1)
    rows, _ = verify_outcome(extended, extend_to_even(after, "left")[0], filters, 1, meta,
                             mean_tol=mean_tol, detail_tol=detail_tol)
    n, m = expected["records"]
    moved = sum(a != b for a, b in zip(*expected["denominators"]))
    for name, count in [("record_count_unchanged", abs(n - m)), ("non_vital_cells_unchanged", expected["altered"]),
                        ("denominators_unchanged", moved)]:
        rows[name] = check_row(count, 0, count == 0)
    assert report["checks"] == rows
    assert status == (0 if all(row["passed"] for row in rows.values()) else 2)
    assert report["sizes"] == {"records": n, "categories": 2, "extended_length": 2, "level": 1,
                               "records_changed": expected["changed"], "records_reparsed": expected["reparsed"]}


_DELTA_ORIGINAL = "REG,JOB,SEX\nA,X,1\nA,Z,2\nB,Z,1\nB,X,2\n"
_DELTA_SPEC = AttributeSpec(vital_attributes=("JOB",), vital_combinations=(("X",),), parameter_attribute="REG",
                            parameter_values=("A", "B"))


def _delta_check(tmp_path, original, released, spec=_DELTA_SPEC):
    """:func:`microdata.check_release` of the texts ``original`` and ``released``, written to files."""
    paths = [tmp_path / "original.csv", tmp_path / "release.csv"]
    for path, text in zip(paths, (original, released)):
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return microdata.check_release(*paths, spec)


def test_delta_read_parses_only_changed_records(tmp_path):
    found = _delta_check(tmp_path, _DELTA_ORIGINAL, "REG,JOB,SEX\nA,X,1\nA,Y,2\nB,ZZ,1\nB,X,2\n")
    assert (found.tokenized, found.changed, found.altered) == (2, 2, 0)
    assert found.before.numerators.tolist() == found.after.numerators.tolist() == [1, 1]
    # A record that differs only in its bytes is tokenized, and changes no cell.
    found = _delta_check(tmp_path, _DELTA_ORIGINAL, _DELTA_ORIGINAL.replace("B,Z,1\n", '"B",Z,1\n'))
    assert (found.tokenized, found.changed, found.altered) == (1, 0, 0)


def test_delta_read_error_names_line_in_released_file(tmp_path):
    original = "".join(["REG,JOB,SEX\n"] + [f"A,X,{i}\n" for i in range(6)])
    spec = replace(_DELTA_SPEC, parameter_values=("A",))
    release = re.escape(str(tmp_path / "release.csv"))
    with pytest.raises(MicrofileError, match=f"^{release}: line 6 has 2 fields, expected 3$"):
        _delta_check(tmp_path, original, original.replace("A,X,4\n", "A,X\n"), spec)
    with pytest.raises(MicrofileError, match=f"^{release}: line 5 is not UTF-8 text"):
        _delta_check(tmp_path, original, original.encode().replace(b"A,X,3\n", b"A,\xff,3\n"), spec)


# ----------------------------------------------------------------- re-reads

def _small_source(tmp_path):
    path = tmp_path / "in.csv"
    write_microfile(make_microfile(SMALL_ROWS * 4), path)
    return path


@pytest.mark.parametrize("stage", ["load", "load-delimiter", "load-truncate", "write", "write-truncate"])
def test_a_source_changed_between_reads_fails_and_leaves_no_file(tmp_path, monkeypatch, stage):
    # The first read fixes the text's size and CRC-32; the load's second
    # read and the write each check both.  The flipped byte turns the last
    # record's "2" into a "3", which parses, in a record the rewrite leaves;
    # or, at load-delimiter, into a delimiter, so the record no longer
    # parses and the change, not the parse error, is reported.  A file cut
    # short ends a read early, in the middle of a chunk or of a block.
    path = _small_source(tmp_path)
    size = path.stat().st_size

    def change():
        if stage.endswith("truncate"):
            os.truncate(path, size - 5)
        else:
            flip_byte(path, size - 2, "," if stage == "load-delimiter" else None)

    if stage.startswith("load"):
        def scan_then_flip(source, delimiter):
            scanned = line_ends(source, delimiter)
            change()
            return scanned

        line_ends = microdata._line_ends
        monkeypatch.setattr(microdata, "_line_ends", scan_then_flip)
        with pytest.raises(MicrofileError, match=f"^{re.escape(str(path.resolve()))} changed"):
            load_microfile(path)
        return
    mf = rewrite_microfile(load_microfile(path), small_spec(), [8, 4], [4, 12], seed=2)
    assert mf.edited.max() < len(mf) - 1
    change()
    release = tmp_path / "out" / "release.csv"
    with pytest.raises(MicrofileError, match=f"^{re.escape(str(path.resolve()))} changed"):
        write_microfile(mf, release)
    assert [p.name for p in tmp_path.rglob("*")] == ["in.csv", "out"]


def test_write_over_its_own_source_equals_a_write_elsewhere(tmp_path, monkeypatch):
    monkeypatch.setattr(microdata, "_BLOCK_BYTES", 7)
    path = _small_source(tmp_path)
    mf = rewrite_microfile(load_microfile(path), small_spec(), [8, 4], [4, 12], seed=2)
    elsewhere = tmp_path / "elsewhere.csv"
    write_microfile(mf, elsewhere)
    path.chmod(0o640)
    write_microfile(mf, path)
    assert path.read_bytes() == elsewhere.read_bytes() != microfile_text(make_microfile(SMALL_ROWS * 4)).encode()
    assert path.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["elsewhere.csv", "in.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pipe_input_and_output_load_and_write(tmp_path):
    # A pipe cannot be read twice, so its text is kept; a pipe is written in place.
    text = microfile_text(make_microfile(SMALL_ROWS)).encode()
    inlet, outlet = tmp_path / "in.fifo", tmp_path / "out.fifo"
    os.mkfifo(inlet)
    os.mkfifo(outlet)
    received = []

    def feed():
        with open(inlet, "wb") as handle:
            handle.write(text)

    def drain():
        with open(outlet, "rb") as handle:
            received.append(handle.read())

    threads = [threading.Thread(target=target, daemon=True) for target in (feed, drain)]
    for thread in threads:
        thread.start()
    mf = load_microfile(inlet)
    write_microfile(mf, outlet)
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert records(mf) == SMALL_ROWS
    assert received == [text]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.fifo", "out.fifo"]


def test_one_byte_blocks_write_characters_split_across_blocks(monkeypatch):
    # Every block of one byte ends inside a two-byte character.
    monkeypatch.setattr(microdata, "_BLOCK_BYTES", 1)
    data = "RÉG,JOB\né,ü\nß,X\n".encode()
    buffer = io.BytesIO()
    write_microfile(load_microfile(io.BytesIO(data)), buffer)
    assert buffer.getvalue() == data
