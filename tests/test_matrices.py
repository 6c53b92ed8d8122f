"""The level-k synthesis operator: the package's band against the dense oracle.

``wavelets.operator_band`` is the package's only representation of the
operator; ``band_matrix`` expands it for comparison with the products of
the brute-force per-level operators in ``reference.py``.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupanon import analyze, db2_filter, extend_to_even, filter_by_name
from groupanon.cli import load_config, run_inspect
from groupanon.wavelets import analyze_once, max_level, operator_band, synth_approx

import reference as ref
from reference import build_detail_synthesis_matrix, build_reconstruction_matrix
from conftest import band_matrix


def test_census_matrix_entries(db2):
    M = band_matrix(db2, 1, 14)
    assert M.shape == (14, 7)
    np.testing.assert_allclose(M, ref.RECONSTRUCTION_MATRIX, atol=5e-5)
    # Wrap entries called out explicitly.
    assert abs(M[0, 6] - (-0.1294)) < 5e-5
    assert abs(M[13, 0] - 0.4830) < 5e-5


def test_columns_are_orthonormal(db2):
    for n, k in [(14, 1), (16, 2), (24, 3), (8, 1)]:
        M = build_reconstruction_matrix(db2, n, k)
        np.testing.assert_allclose(M.T @ M, np.eye(M.shape[1]), atol=1e-10)


# Every even n up to 64 at every admissible level; n = 2 and n = 4 are
# shorter than the db2 taps, so the taps wrap.
PRODUCT_CASES = [
    (name, n, k)
    for name in ("db2", "haar")
    for n in range(2, 65, 2)
    for k in range(1, max_level(n) + 1)
]


@pytest.mark.parametrize("name, n, k", PRODUCT_CASES)
def test_display_matrices_match_oracle_products(name, n, k):
    # Every row of the band, expanded, equals the product of the per-level
    # oracles: the band holds each nonzero of the operator exactly once, in
    # at most 3 coefficients a row for db2 and 1 for Haar.  The detail
    # operator is itself an oracle product, so it is checked against
    # analysis, which applies its transpose, and the channels must rebuild
    # the signal between them.
    f = filter_by_name(name)
    cols, taps = operator_band(f, k, n, np.arange(n))
    assert cols.shape == taps.shape and cols.shape[1] <= {"db2": 3, "haar": 1}[name]
    assert all(len(set(row)) == len(row) for row in cols.tolist())
    M = band_matrix(f, k, n)
    H = build_detail_synthesis_matrix(f, n, k)
    assert M.shape == H.shape == (n, n >> k)
    np.testing.assert_allclose(M, build_reconstruction_matrix(f, n, k), atol=1e-14)
    s = np.random.default_rng(10 * n + k).normal(size=n)
    dec = analyze(s, f, k)
    np.testing.assert_allclose(H.T @ s, dec.details[-1], atol=1e-14)
    np.testing.assert_allclose(ref.reconstruct(dec), s, atol=1e-13)


def test_row_sparsity_level1(db2):
    M = band_matrix(db2, 1, 14)
    for row in M:
        assert np.count_nonzero(row) == 2


def test_apply_census_approximation(db2, census_ratios):
    extended, _ = extend_to_even(census_ratios, "left")
    approx, _ = analyze_once(extended, db2)
    M = band_matrix(db2, 1, 14)
    np.testing.assert_allclose(M @ approx, ref.APPROXIMATION, atol=ref.DISPLAY_TOL)


def test_apply_zero_vector(db2):
    M = band_matrix(db2, 1, 14)
    np.testing.assert_array_equal(M @ np.zeros(7), np.zeros(14))


def test_apply_new_coefficients(db2, census_ratios):
    # Replacing coefficients 3-6 reshapes the approximation as printed.
    extended, _ = extend_to_even(census_ratios, "left")
    approx, _ = analyze_once(extended, db2)
    ahat = approx.copy()
    ahat[2:6] = [-2.0, 0.0, 1.0, -5.0]
    M = band_matrix(db2, 1, 14)
    np.testing.assert_allclose(M @ ahat, ref.NEW_APPROXIMATION, atol=ref.DISPLAY_TOL)


def test_detail_matrix_census(db2, census_ratios):
    extended, _ = extend_to_even(census_ratios, "left")
    _, detail = analyze_once(extended, db2)
    H = build_detail_synthesis_matrix(db2, 14, 1)
    np.testing.assert_allclose(H @ detail, ref.DETAIL_LEVEL1, atol=ref.DISPLAY_TOL)
    np.testing.assert_allclose(H.T @ H, np.eye(7), atol=1e-10)


def test_two_channel_completeness(db2):
    for n in (8, 14, 16, 32):
        L = build_reconstruction_matrix(db2, n, 1)
        H = build_detail_synthesis_matrix(db2, n, 1)
        np.testing.assert_allclose(L @ L.T + H @ H.T, np.eye(n), atol=1e-10)


def test_dump_format(db2, tmp_path):
    # inspect prints the operator one row per line, entries at 4 decimals.
    data = tmp_path / "input.csv"
    data.write_text("REG,JOB\n" + "".join(f"R{r},{job}\n" for r in range(4) for job in "XXY"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"input": str(data), "attributes": {
        "vital": ["JOB"], "vital_combinations": [["X"]], "parameter": "REG",
        "parameter_values": ["R0", "R1", "R2", "R3"]}}))
    out = io.StringIO()
    run_inspect(load_config(config), out)
    text = out.getvalue()
    M = band_matrix(db2, 1, 4)
    lines = text.split("reconstruction matrix (4 x 2):\n")[1].splitlines()[:-1]
    assert len(lines) == 4
    first = lines[0].split()
    assert first == [f"{v:.4f}" for v in M[0]]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([8, 14, 16, 24, 32, 64]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_matrix_equals_filter_cascade(n, k, seed):
    f = db2_filter()
    if n % 2**k != 0:
        k = 1
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n // 2**k)
    M = build_reconstruction_matrix(f, n, k)
    assert np.abs(M @ a - synth_approx(a, f, k, n)).max() < 1e-9
