import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupanon import analyze, db2_filter, extend_to_even, filter_by_name
from groupanon.errors import SignalError
from groupanon.wavelets import (
    DecompositionResult,
    ExtensionMeta,
    WaveletFilterPair,
    analyze_once,
    as_signal,
    haar_filter,
    max_level,
    synth_approx,
)

import reference as ref
from reference import _single_level, build_detail_synthesis_matrix, reconstruct


# ---------------------------------------------------------------- filters

def test_db2_lowpass_values():
    f = db2_filter()
    np.testing.assert_allclose(f.lowpass, ref.LOWPASS_4DP, atol=ref.DISPLAY_TOL)


def test_db2_lowpass_unit_energy():
    f = db2_filter()
    assert abs(f.lowpass @ f.lowpass - 1.0) < 1e-12


def test_db2_highpass_is_mirror():
    f = db2_filter()
    l = f.lowpass
    expected = np.array([l[3], -l[2], l[1], -l[0]])
    np.testing.assert_allclose(f.highpass, expected, atol=1e-15)
    np.testing.assert_allclose(f.highpass, ref.HIGHPASS_4DP, atol=ref.DISPLAY_TOL)


def test_filter_lookup():
    np.testing.assert_array_equal(filter_by_name("db2").lowpass, db2_filter().lowpass)
    assert filter_by_name("haar").lowpass.size == 2
    with pytest.raises(SignalError, match="unknown wavelet"):
        filter_by_name("db17")


def test_haar_roundtrip():
    f = haar_filter()
    rng = np.random.default_rng(13)
    s = rng.normal(size=12)
    dec = analyze(s, f, 2)
    np.testing.assert_allclose(reconstruct(dec), s, atol=1e-12)


def test_filter_invariants_enforced():
    # The high-pass taps are derived from the low-pass taps, so there is no
    # mirror to check.
    with pytest.raises(SignalError, match="sum to sqrt"):
        WaveletFilterPair([0.5, 0.5, 0.5, 0.5])
    with pytest.raises(SignalError, match="even"):
        WaveletFilterPair([2 ** -0.5, 2 ** -0.5, 0.0])
    with pytest.raises(SignalError, match="unit energy"):
        WaveletFilterPair([1.0, 0.5, -0.5, 2 ** 0.5 - 1.0])


# ---------------------------------------------------------------- signals

def test_as_signal_rejects_bad_input():
    with pytest.raises(SignalError, match="one-dimensional"):
        as_signal([[1.0, 2.0]])
    with pytest.raises(SignalError, match="at least 2"):
        as_signal([1.0])
    with pytest.raises(SignalError, match="non-finite"):
        as_signal([1.0, float("nan")])


def test_extend_left_duplicates_first_sample(census_ratios):
    extended, meta = extend_to_even(census_ratios, "left")
    assert extended.size == 14
    assert extended[0] == extended[1] == census_ratios[0]
    np.testing.assert_array_equal(extended[1:], census_ratios)
    assert (meta.direction, meta.original_length, meta.extended_length) == ("left", 13, 14)
    assert meta.border == (0, 1)
    assert meta.informative_slice == slice(1, 14)


def test_extend_even_is_noop():
    s = np.arange(6, dtype=float)
    extended, meta = extend_to_even(s, "left")
    np.testing.assert_array_equal(extended, s)
    assert meta.direction == "none"
    assert meta.extended_length == 6
    assert meta.border is None
    assert meta.informative_slice == slice(0, 6)


def test_extend_right():
    extended, meta = extend_to_even([1.0, 2.0, 3.0], "right")
    np.testing.assert_array_equal(extended, [1.0, 2.0, 3.0, 3.0])
    assert meta.direction == "right"
    assert meta.extended_length == 4
    assert meta.border == (2, 3)
    assert meta.informative_slice == slice(0, 3)


def test_extend_unknown_direction():
    with pytest.raises(SignalError, match="left.*right"):
        extend_to_even([1.0, 2.0, 3.0], "up")


@pytest.mark.parametrize("direction, length, message", [
    ("left", 14, "'left' does not fit length 14; expected one of \\('none',\\)"),
    ("none", 13, "'none' does not fit length 13; expected one of \\('left', 'right'\\)"),
    ("up", 13, "'up' does not fit length 13"),
])
def test_extension_meta_rejects_inconsistent_states(direction, length, message):
    # A sample is duplicated exactly when the length is odd.
    with pytest.raises(SignalError, match=message):
        ExtensionMeta(direction, length)


def test_max_level():
    assert max_level(14) == 1
    assert max_level(16) == 4
    assert max_level(12) == 2


# ---------------------------------------------------------------- analysis

def test_analyze_once_census_approximation(db2, census_ratios):
    extended, _ = extend_to_even(census_ratios, "left")
    approx, detail = analyze_once(extended, db2)
    assert approx.size == detail.size == 7
    np.testing.assert_allclose(approx, ref.APPROX_COEFFS, atol=ref.DISPLAY_TOL)


def test_analyze_once_constant_signal(db2):
    approx, detail = analyze_once(np.full(10, 3.7), db2)
    np.testing.assert_allclose(detail, 0.0, atol=1e-12)
    np.testing.assert_allclose(approx, np.sqrt(2.0) * 3.7, atol=1e-12)


def test_analyze_once_matches_matrix_transpose(db2):
    # Brute-force oracle: one analysis step is the transpose of the
    # single-level circulant synthesis operator.
    rng = np.random.default_rng(11)
    s = rng.normal(size=8)
    low = _single_level(db2.lowpass, 8)
    high = _single_level(db2.highpass, 8)
    approx, detail = analyze_once(s, db2)
    np.testing.assert_allclose(approx, low.T @ s, atol=1e-12)
    np.testing.assert_allclose(detail, high.T @ s, atol=1e-12)


def test_analyze_once_rejects_odd_length(db2):
    with pytest.raises(SignalError, match="must be extended to even length first"):
        analyze_once(np.ones(7), db2)


def test_analyze_level1_matches_analyze_once(db2, census_ratios):
    extended, meta = extend_to_even(census_ratios, "left")
    dec = analyze(extended, db2, 1, meta=meta)
    approx, detail = analyze_once(extended, db2)
    np.testing.assert_array_equal(dec.approx, approx)
    np.testing.assert_array_equal(dec.details[0], detail)
    assert dec.level == 1 and dec.meta is meta


def test_analyze_level2_constant(db2):
    dec = analyze(np.full(8, 1.5), db2, 2)
    np.testing.assert_allclose(dec.approx, np.full(2, 2 * 1.5), atol=1e-12)
    for detail in dec.details:
        np.testing.assert_allclose(detail, 0.0, atol=1e-12)


def test_analyze_level2_is_composition(db2):
    rng = np.random.default_rng(5)
    s = rng.normal(size=16)
    dec = analyze(s, db2, 2)
    a1, d1 = analyze_once(s, db2)
    a2, d2 = analyze_once(a1, db2)
    np.testing.assert_allclose(dec.approx, a2, atol=1e-14)
    np.testing.assert_allclose(dec.details[0], d1, atol=1e-14)
    np.testing.assert_allclose(dec.details[1], d2, atol=1e-14)


def test_analyze_names_max_admissible_level(db2):
    with pytest.raises(SignalError, match="maximum admissible level for length 14 is 1"):
        analyze(np.ones(14), db2, 2)
    with pytest.raises(SignalError, match="extended to even length"):
        analyze(np.ones(13), db2, 1)
    with pytest.raises(SignalError, match=">= 1"):
        analyze(np.ones(8), db2, 0)


def test_analyze_meta_length_mismatch(db2):
    _, meta = extend_to_even(np.ones(13), "left")
    with pytest.raises(SignalError, match="metadata"):
        analyze(np.ones(16), db2, 1, meta=meta)


# ---------------------------------------------------------------- synthesis

def test_synth_approx_census(db2, census_ratios):
    extended, _ = extend_to_even(census_ratios, "left")
    approx, _ = analyze_once(extended, db2)
    rebuilt = synth_approx(approx, db2, 1, 14)
    np.testing.assert_allclose(rebuilt, ref.APPROXIMATION, atol=ref.DISPLAY_TOL)


def test_synth_zero_coefficients(db2):
    np.testing.assert_array_equal(synth_approx(np.zeros(7), db2, 1, 14), np.zeros(14))


def test_synth_approx_matches_matrix(db2):
    rng = np.random.default_rng(3)
    a = rng.normal(size=7)
    np.testing.assert_allclose(
        synth_approx(a, db2, 1, 14), _single_level(db2.lowpass, 14) @ a, atol=1e-12
    )


def test_synth_detail_census(db2, census_ratios):
    extended, _ = extend_to_even(census_ratios, "left")
    _, detail = analyze_once(extended, db2)
    rebuilt = build_detail_synthesis_matrix(db2, 14, 1) @ detail
    np.testing.assert_allclose(rebuilt, ref.DETAIL_LEVEL1, atol=ref.DISPLAY_TOL)
    # The circulated variant at the erratum position fails signal - approximation.
    pos = ref.DETAIL_ERRATUM_POSITION - 1
    assert abs(rebuilt[pos] - ref.DETAIL_ERRATUM_VARIANT) > ref.DISPLAY_TOL
    np.testing.assert_allclose(
        extended[pos] - ref.APPROXIMATION[pos], rebuilt[pos], atol=2 * ref.DISPLAY_TOL
    )


def test_synth_length_mismatch(db2):
    with pytest.raises(SignalError, match="cannot synthesize"):
        synth_approx(np.ones(7), db2, 1, 16)


# ---------------------------------------------------------------- reconstruction

@pytest.mark.parametrize("k,n", [(1, 14), (2, 16), (3, 24), (3, 64)])
def test_reconstruct_roundtrip(db2, k, n):
    rng = np.random.default_rng(n * 10 + k)
    s = rng.normal(size=n)
    dec = analyze(s, db2, k)
    np.testing.assert_allclose(reconstruct(dec), s, atol=1e-9)


def test_reconstruct_census_sum(db2, census_ratios):
    extended, meta = extend_to_even(census_ratios, "left")
    dec = analyze(extended, db2, 1, meta=meta)
    detail = build_detail_synthesis_matrix(db2, 14, 1) @ dec.details[0]
    total = synth_approx(dec.approx, db2, 1, 14) + detail
    np.testing.assert_allclose(total, extended, atol=1e-12)
    np.testing.assert_allclose(total[:6], [0.0143, 0.0143, 0.0129, 0.0122, 0.0140, 0.0115],
                               atol=ref.DISPLAY_TOL)


def test_reconstruct_with_zeroed_details(db2):
    rng = np.random.default_rng(9)
    s = rng.normal(size=16)
    dec = analyze(s, db2, 2)
    stripped = DecompositionResult(
        level=dec.level,
        approx=dec.approx,
        details=tuple(np.zeros_like(d) for d in dec.details),
        filters=dec.filters,
        meta=dec.meta,
    )
    np.testing.assert_allclose(
        reconstruct(stripped), synth_approx(dec.approx, db2, 2, 16), atol=1e-12
    )


# ---------------------------------------------------------------- properties

signal_values = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(signal_values, min_size=4, max_size=64).filter(lambda v: len(v) % 2 == 0))
def test_perfect_reconstruction_property(values):
    f = db2_filter()
    s = np.array(values)
    k = min(3, max_level(s.size))
    dec = analyze(s, f, k)
    assert np.abs(reconstruct(dec) - s).max() < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.lists(signal_values, min_size=4, max_size=64).filter(lambda v: len(v) % 2 == 0))
def test_one_level_energy_preservation(values):
    f = db2_filter()
    s = np.array(values)
    approx, detail = analyze_once(s, f)
    assert abs(s @ s - (approx @ approx + detail @ detail)) < 1e-9 * max(1.0, s @ s)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(signal_values, min_size=8, max_size=8),
    st.lists(signal_values, min_size=8, max_size=8),
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
)
def test_analysis_linearity(left, right, alpha, beta):
    f = db2_filter()
    s = np.array(left)
    r = np.array(right)
    combined_a, combined_d = analyze_once(alpha * s + beta * r, f)
    sa, sd = analyze_once(s, f)
    ra, rd = analyze_once(r, f)
    np.testing.assert_allclose(combined_a, alpha * sa + beta * ra, atol=1e-9)
    np.testing.assert_allclose(combined_d, alpha * sd + beta * rd, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-100, max_value=100), st.integers(min_value=2, max_value=16))
def test_constant_annihilation(value, half):
    f = db2_filter()
    s = np.full(2 * half, value)
    approx, detail = analyze_once(s, f)
    assert np.abs(detail).max() < 1e-12 * max(1.0, abs(value))
    rebuilt = synth_approx(approx, f, 1, s.size)
    assert np.abs(rebuilt - value).max() < 1e-12 * max(1.0, abs(value))
