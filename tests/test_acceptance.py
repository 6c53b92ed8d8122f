"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Criteria 1-3 and 8 pin the census worked example (golden values in
``reference.py``); 4-6 are randomized invariant sweeps; 7 exercises the
record rewrite on the full synthetic census file.
"""

import time

import numpy as np
import pytest

from groupanon import (
    RedistributionPlan,
    analyze,
    concentration_signal,
    extend_to_even,
    new_quantities,
    redistribute,
    rewrite_microfile,
)
from groupanon.wavelets import synth_approx
from groupanon.fixture import EMPLOYED, census_attribute_spec

import reference as ref
from reference import build_detail_synthesis_matrix, build_reconstruction_matrix, reconstruct
from conftest import band_matrix, column_values, random_redistribution_case


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def property_sweep(db2):
    """1000 random signals (lengths 5-64) with random feasible plans."""
    rng = np.random.default_rng(161803)
    worst_mean = 0.0
    worst_detail = 0.0
    cases = 0
    for _ in range(1000):
        c, plan, k, direction = random_redistribution_case(rng, db2)
        final, report = redistribute(c, plan, db2, k, direction)
        worst_mean = max(worst_mean, abs(float(final.mean() - c.mean())))
        checks = report["checks"]
        worst_detail = max(worst_detail, checks["details_proportional"]["value"])
        assert checks["positivity"]["passed"]
        # Every plan fixes the border-coupled coefficients, so the pair is bit-equal.
        assert checks["border_equality"]["value"] == 0.0
        cases += 1
    return {"cases": cases, "worst_mean": worst_mean, "worst_detail": worst_detail}


def test_criterion_1_golden_decomposition(db2, census_ratios):
    start = time.perf_counter()
    extended, meta = extend_to_even(census_ratios, "left")
    dec = analyze(extended, db2, 1, meta=meta)
    approximation = synth_approx(dec.approx, db2, 1, 14)
    detail = build_detail_synthesis_matrix(db2, 14, 1) @ dec.details[0]
    elapsed = time.perf_counter() - start

    ok_a1 = np.abs(dec.approx - ref.APPROX_COEFFS).max() < ref.DISPLAY_TOL
    ok_A1 = np.abs(approximation - ref.APPROXIMATION).max() < ref.DISPLAY_TOL
    # Element 13 of the circulated detail listing is inconsistent with the
    # additive identity (see reference.py); the corrected value is asserted
    # and the inconsistency of the variant is demonstrated.
    ok_D1 = np.abs(detail - ref.DETAIL_LEVEL1).max() < ref.DISPLAY_TOL
    pos = ref.DETAIL_ERRATUM_POSITION - 1
    ok_erratum = abs(
        (extended[pos] - approximation[pos]) - ref.DETAIL_ERRATUM_VARIANT
    ) > ref.DISPLAY_TOL
    ok_time = elapsed < 1.0
    _report(
        1,
        "golden level-1 decomposition",
        ok_a1 and ok_A1 and ok_D1 and ok_erratum and ok_time,
        f"runtime {elapsed * 1e3:.1f} ms",
    )


def test_criterion_2_golden_matrix(db2):
    M = band_matrix(db2, 1, 14)
    worst = np.abs(M - ref.RECONSTRUCTION_MATRIX).max()
    wrap_ok = (
        abs(M[0, 6] - (-0.1294)) < 5e-5 and abs(M[13, 0] - 0.4830) < 5e-5
    )
    _report(2, "golden synthesis matrix", worst < 5e-5 and wrap_ok, f"max entry error {worst:.2e}")


def test_criterion_3_golden_redistribution(db2, census_ratios):
    plan = RedistributionPlan(
        strategy="manual", free_values=ref.FREE_VALUES, floor=ref.FLOOR
    )
    final, report = redistribute(census_ratios, plan, db2, 1, "left")

    ahat = np.array(report["coefficients_after"])
    new_approx = build_reconstruction_matrix(db2, 14, 1) @ ahat
    rebuilt, _ = extend_to_even(final, "left")
    shifted = rebuilt / report["scale"]

    ok = (
        np.abs(ahat - ref.NEW_COEFFS).max() < ref.DISPLAY_TOL
        and np.abs(new_approx - ref.NEW_APPROXIMATION).max() < ref.DISPLAY_TOL
        and np.abs(shifted - report["shift"] - ref.NEW_SIGNAL).max() < ref.DISPLAY_TOL
        and abs(report["shift"] - ref.SHIFT) < 1e-3
        and np.abs(shifted - ref.SHIFTED_SIGNAL).max() < ref.DISPLAY_TOL
        and abs(report["scale"] - ref.SCALE) < 1e-4
        and np.abs(final - ref.FINAL_RATIOS).max() < ref.DISPLAY_TOL
    )
    counts, _ = new_quantities(final, EMPLOYED)
    ok_counts = np.abs(counts - ref.FINAL_COUNTS).max() <= 1
    _report(
        3,
        "golden redistribution",
        ok and ok_counts,
        f"shift {report['shift']:.4f}, scale {report['scale']:.6f}",
    )


def test_criterion_4_mean_preservation(property_sweep):
    ok = property_sweep["worst_mean"] < 1e-9
    _report(
        4,
        "mean preservation over random plans",
        ok,
        f"{property_sweep['cases']} cases, worst |mean delta| {property_sweep['worst_mean']:.2e}",
    )


def test_criterion_5_detail_proportionality(property_sweep):
    ok = property_sweep["worst_detail"] < 1e-9
    _report(
        5,
        "detail proportionality over random plans",
        ok,
        f"{property_sweep['cases']} cases, worst residual {property_sweep['worst_detail']:.2e}",
    )


def test_criterion_6_reconstruction_and_matrix_equivalence(db2):
    rng = np.random.default_rng(271828)
    worst_roundtrip = 0.0
    worst_equiv = 0.0
    worst_complete = 0.0
    for n in (8, 16, 24, 32, 48, 64):
        for k in (1, 2, 3):
            if n % 2**k != 0:
                continue
            for _ in range(10):
                s = rng.normal(size=n)
                dec = analyze(s, db2, k)
                worst_roundtrip = max(worst_roundtrip, np.abs(reconstruct(dec) - s).max())
                a = rng.normal(size=n // 2**k)
                M = build_reconstruction_matrix(db2, n, k)
                worst_equiv = max(
                    worst_equiv, np.abs(M @ a - synth_approx(a, db2, k, n)).max()
                )
        L = build_reconstruction_matrix(db2, n, 1)
        H = build_detail_synthesis_matrix(db2, n, 1)
        worst_complete = max(
            worst_complete, np.abs(L @ L.T + H @ H.T - np.eye(n)).max()
        )
    ok = worst_roundtrip < 1e-8 and worst_equiv < 1e-9 and worst_complete < 1e-10
    _report(
        6,
        "perfect reconstruction and matrix equivalence",
        ok,
        f"roundtrip {worst_roundtrip:.2e}, equivalence {worst_equiv:.2e}, "
        f"completeness {worst_complete:.2e}",
    )


def test_criterion_7_rewrite_consistency(census_microfile):
    spec = census_attribute_spec()
    signal = concentration_signal(census_microfile, spec)
    first = rewrite_microfile(census_microfile, spec, signal.numerators, ref.FINAL_COUNTS, seed=42)
    recount = concentration_signal(first, spec)
    ok_counts = np.array_equal(recount.numerators, ref.FINAL_COUNTS)

    occ = census_microfile.column_index("OCC")
    before, after = column_values(census_microfile), column_values(first)
    ok_conserved = all(
        np.array_equal(before[j], after[j]) for j in range(len(before)) if j != occ
    ) and len(first) == len(census_microfile)

    second = rewrite_microfile(census_microfile, spec, signal.numerators, ref.FINAL_COUNTS, seed=42)
    ok_deterministic = all(
        np.array_equal(a, b) for a, b in zip(after, column_values(second))
    )
    _report(
        7,
        "rewrite consistency on the census fixture",
        ok_counts and ok_conserved and ok_deterministic,
        f"{len(first)} records",
    )


def test_criterion_8_erratum_documented(db2, census_ratios):
    # The fixture ratio for region 22 is 1171/101891 = 0.0115; the variant
    # transcription 0.1149 is inconsistent both with the counts and with the
    # additive identity approximation + detail == signal.
    consistent = 1171 / 101891
    ok_fixture = abs(census_ratios[4] - consistent) < 1e-15
    ok_variant_far = abs(0.1149 - consistent) > 100 * ref.DISPLAY_TOL

    extended, meta = extend_to_even(census_ratios, "left")
    dec = analyze(extended, db2, 1, meta=meta)
    detail = build_detail_synthesis_matrix(db2, 14, 1) @ dec.details[0]
    total = synth_approx(dec.approx, db2, 1, 14) + detail
    ok_identity = np.abs(total - extended).max() < 1e-9
    # The golden approximation + detail at the disputed position reproduce
    # 0.0115, not 0.1149.
    printed = ref.APPROXIMATION[5] + ref.DETAIL_LEVEL1[5]
    ok_printed = abs(printed - consistent) < 2 * ref.DISPLAY_TOL and abs(printed - 0.1149) > 0.05
    _report(
        8,
        "erratum handling documented",
        ok_fixture and ok_variant_far and ok_identity and ok_printed,
        f"region-22 ratio {consistent:.6f}",
    )
