import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupanon import (
    RedistributionPlan,
    analyze,
    extend_to_even,
    format_plot_data,
    new_quantities,
    redistribute,
    verify_outcome,
)
from groupanon.errors import InfeasibleTargetsError, PlanError, SignalError
from groupanon.redistribution import (
    CHECK_TOL,
    fixed_border_indices,
    local_extrema,
    make_coefficients,
    rounding_tolerances,
)
from groupanon.wavelets import filter_by_name, max_level, synth_approx

import reference as ref
from reference import build_reconstruction_matrix
from conftest import Digest, random_redistribution_case


@pytest.fixture
def census_parts(db2, census_ratios):
    extended, meta = extend_to_even(census_ratios, "left")
    dec = analyze(extended, db2, 1, meta=meta)
    matrix = build_reconstruction_matrix(db2, 14, 1)
    return extended, meta, dec, matrix


# ---------------------------------------------------------------- plans

def test_plan_validation():
    with pytest.raises(PlanError, match="unknown strategy"):
        RedistributionPlan(strategy="swap")
    with pytest.raises(PlanError, match="floor must be positive"):
        RedistributionPlan(floor=0.0)
    with pytest.raises(PlanError, match="free_values, not targets"):
        RedistributionPlan(strategy="manual", targets=((3, 1.0),))
    with pytest.raises(PlanError, match="targets, not free_values"):
        RedistributionPlan(strategy="alleged_extrema", free_values={3: 1.0})


# ---------------------------------------------------------------- fixed set

def test_border_indices_census(db2, census_parts):
    _, meta, _, _ = census_parts
    assert fixed_border_indices(db2, 1, meta) == frozenset({1, 2, 7})


def test_border_indices_no_extension(db2):
    from groupanon.wavelets import ExtensionMeta

    assert fixed_border_indices(db2, 1, ExtensionMeta("none", 14)) == frozenset()


@pytest.mark.parametrize("direction, k", [(d, k) for d in ("left", "right") for k in (1, 2, 3)])
def test_border_indices_match_display_rows(db2, direction, k):
    _, meta = extend_to_even(np.linspace(0.1, 0.9, 15), direction)
    matrix = build_reconstruction_matrix(db2, 16, k)
    got = fixed_border_indices(db2, k, meta)
    # Brute-force oracle: scan the nonzero pattern of the two border rows.
    top, bottom = (0, 1) if direction == "left" else (14, 15)
    expected = {
        j + 1
        for j in range(matrix.shape[1])
        if abs(matrix[top, j]) > 0 or abs(matrix[bottom, j]) > 0
    }
    assert got == frozenset(expected)


# ---------------------------------------------------------------- coefficients

def test_manual_coefficients_census(census_parts):
    _, _, dec, _ = census_parts
    plan = RedistributionPlan(strategy="manual", free_values=ref.FREE_VALUES)
    ahat = make_coefficients(plan, dec)
    np.testing.assert_allclose(ahat, ref.NEW_COEFFS, atol=ref.DISPLAY_TOL)
    np.testing.assert_array_equal(ahat[[0, 1, 6]], dec.approx[[0, 1, 6]])


def test_identity_plan_keeps_coefficients(census_parts):
    _, _, dec, _ = census_parts
    plan = RedistributionPlan(strategy="manual", fixed_indices=frozenset(range(1, 8)))
    np.testing.assert_array_equal(make_coefficients(plan, dec), dec.approx)


def test_manual_plan_coverage_errors(census_parts):
    _, _, dec, _ = census_parts
    with pytest.raises(PlanError, match="neither fixed nor assigned"):
        make_coefficients(RedistributionPlan(strategy="manual", free_values={3: 1.0}), dec)
    with pytest.raises(PlanError, match="both fixed and free"):
        make_coefficients(
            RedistributionPlan(
                strategy="manual",
                fixed_indices=frozenset({1, 2, 3, 4, 5, 6, 7}),
                free_values={3: 1.0},
            ),
            dec,
        )
    with pytest.raises(PlanError, match="outside 1..7"):
        make_coefficients(RedistributionPlan(strategy="manual", free_values={9: 1.0}), dec)


def test_alleged_extrema_creates_maximum(census_parts):
    _, _, dec, matrix = census_parts
    plan = RedistributionPlan(strategy="alleged_extrema", targets=((13, 1.0),))
    ahat = make_coefficients(plan, dec)
    rebuilt = matrix @ ahat
    assert abs(rebuilt[12] - 1.0) < 1e-9
    maxima, _ = local_extrema(rebuilt)
    assert 13 in maxima
    np.testing.assert_array_equal(ahat[[0, 1, 6]], dec.approx[[0, 1, 6]])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, 1.0, 2.0, -1.0, 0.5, float("nan"), float("inf")]), max_size=8))
@example([]).via("length 0")
@example([1.0]).via("length 1")
@example([1.0, 0.0]).via("length 2")
@example([0.0, 1.0, 0.0]).via("length 3")
@example([0.0, 1.0, 1.0, 0.0]).via("plateau")
@example([0.0, float("nan"), 0.0]).via("NaN")
def test_local_extrema_matches_the_loop(values):
    # Few distinct values, so ties and plateaus are common; lengths 0-3 included.
    assert local_extrema(values) == ref.local_extrema(values)
    maxima, minima = local_extrema(values)
    assert all(type(p) is int for p in maxima + minima)


def test_extremum_transition_flattens(census_parts):
    _, _, dec, matrix = census_parts
    before = matrix @ dec.approx
    plan = RedistributionPlan(strategy="extremum_transition", targets=((5, 1.0),))
    ahat = make_coefficients(plan, dec)
    after = matrix @ ahat
    max_after, min_after = local_extrema(after)
    assert 5 in max_after
    # Original extrema on rows the free coefficients can reach get flattened
    # to the median, so they stop being extreme relative to the new peak.
    assert abs(after[12] - np.median(before)) < 1e-9


@pytest.mark.parametrize("direction, k", [(d, k) for d in ("left", "right") for k in (1, 2, 3)])
def test_extremum_transition_equals_alleged_extrema_on_scanned_targets(db2, direction, k):
    # Oracle: the plan's targets plus the median at every extremum that a
    # brute-force scan of the dense operator rows finds reachable by a free
    # coefficient, solved as an alleged_extrema plan.
    rng = np.random.default_rng(100 * k + len(direction))
    outcomes = set()
    for trial in range(40):
        n = (1 << k) * int(rng.integers(2, 128 >> k)) - 1
        # Noisy signals have many extrema, smooth ones few.
        smooth = 0.5 + 0.4 * np.sin(np.linspace(0.0, rng.uniform(1.0, 12.0), n))
        c = rng.uniform(0.05, 0.95, n) if trial % 4 < 2 else smooth
        extended, meta = extend_to_even(c, direction)
        dec = analyze(extended, db2, k, meta=meta)
        matrix = build_reconstruction_matrix(db2, meta.extended_length, k)
        m = matrix.shape[1]
        if trial % 2:
            fixed = frozenset(int(i) for i in rng.choice(np.arange(1, m + 1), rng.integers(0, m)))
        else:
            fixed = fixed_border_indices(db2, k, meta)
        positions = rng.choice(matrix.shape[0], size=int(rng.integers(1, 3)), replace=False) + 1
        plan = RedistributionPlan(
            strategy="extremum_transition",
            fixed_indices=None if trial % 2 == 0 else fixed,
            targets=tuple((int(p), float(rng.uniform(-1.0, 1.0))) for p in positions),
        )
        rebuilt = synth_approx(dec.approx, db2, k, meta.extended_length)
        maxima, minima = ref.local_extrema(rebuilt)
        free = [j for j in range(m) if j + 1 not in fixed]
        scanned = [
            (p, float(np.median(rebuilt)))
            for p in maxima + minima
            if p not in positions and any(abs(matrix[p - 1, j]) > 1e-10 for j in free)
        ]
        oracle = RedistributionPlan(
            strategy="alleged_extrema", fixed_indices=fixed, targets=plan.targets + tuple(scanned)
        )
        try:
            expected = make_coefficients(oracle, dec)
        except InfeasibleTargetsError:
            with pytest.raises(InfeasibleTargetsError):
                make_coefficients(plan, dec)
            outcomes.add("infeasible")
            continue
        np.testing.assert_allclose(make_coefficients(plan, dec), expected, rtol=0, atol=1e-12)
        outcomes.add("solved")
    assert outcomes == {"solved", "infeasible"}


def test_infeasible_targets_report_rank(census_parts):
    _, _, dec, _ = census_parts
    # Rows 1, 2, 14 are spanned by the fixed coefficients alone, so any
    # off-current target there is unreachable.
    plan = RedistributionPlan(strategy="alleged_extrema", targets=((1, 5.0),))
    with pytest.raises(InfeasibleTargetsError, match="rank"):
        make_coefficients(plan, dec)


@settings(max_examples=300, deadline=None)
@given(
    wavelet=st.sampled_from(["db2", "haar"]),
    k=st.integers(1, 3),
    blocks=st.integers(2, 12),
    odd=st.booleans(),
    strategy=st.sampled_from(["alleged_extrema", "extremum_transition"]),
    fixed_mode=st.sampled_from(["border", "random"]),
    extra=st.integers(-64, 2),
    realizable=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_solver_agrees_with_the_two_rank_oracle(wavelet, k, blocks, odd, strategy, fixed_mode, extra,
                                                realizable, seed):
    # The rank of the free columns is read off the solve's singular values;
    # the oracle computes it with matrix_rank.  Both raise or neither does,
    # with one message, and the coefficients are equal bit for bit.
    f = filter_by_name(wavelet)
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.05, 0.95, (blocks << k) - odd)
    extended, meta = extend_to_even(c, "left" if rng.random() < 0.5 else "right")
    dec = analyze(extended, f, k, meta=meta)
    m, n = dec.approx.size, meta.extended_length
    fixed = fixed_border_indices(f, k, meta)
    if fixed_mode == "random":
        fixed = frozenset(int(i) for i in rng.choice(np.arange(1, m + 1), int(rng.integers(0, m + 1)), replace=False))
    count = min(n, max(1, m + extra))  # 1 to m + 2 targets
    positions = rng.choice(n, size=count, replace=False) + 1
    values = rng.uniform(-1.0, 1.0, count)
    if realizable:  # consistent however many targets there are
        free = np.setdiff1d(np.arange(m), [i - 1 for i in fixed])
        coefficients = dec.approx.copy()
        coefficients[free] = rng.uniform(-5.0, 5.0, free.size)
        values = synth_approx(coefficients, f, k, n)[positions - 1]
    plan = RedistributionPlan(strategy=strategy, fixed_indices=None if fixed_mode == "border" else fixed,
                              targets=tuple(zip(positions.tolist(), values.tolist())))
    try:
        expected = ref.solver_coefficients(plan, dec)
    except InfeasibleTargetsError as exc:
        with pytest.raises(InfeasibleTargetsError) as raised:
            make_coefficients(plan, dec)
        assert str(raised.value) == str(exc)
        return
    assert np.array_equal(make_coefficients(plan, dec), expected)


def test_a_solve_computes_one_rank_and_one_least_squares(census_parts, monkeypatch):
    _, _, dec, _ = census_parts
    calls = {}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return call

    for name in ("matrix_rank", "lstsq"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    make_coefficients(RedistributionPlan(strategy="alleged_extrema", targets=((13, 1.0),)), dec)
    assert calls == {"matrix_rank": 1, "lstsq": 1}
    calls.clear()
    with pytest.raises(InfeasibleTargetsError):
        make_coefficients(RedistributionPlan(strategy="alleged_extrema", targets=((1, 5.0),)), dec)
    assert calls == {"matrix_rank": 1, "lstsq": 1}


def test_alleged_extrema_needs_a_target(census_parts):
    _, _, dec, _ = census_parts
    plan = RedistributionPlan(strategy="alleged_extrema")
    with pytest.raises(PlanError, match="alleged_extrema plans need at least one target"):
        make_coefficients(plan, dec)


def test_duplicate_targets_rejected(census_parts):
    _, _, dec, _ = census_parts
    plan = RedistributionPlan(strategy="alleged_extrema", targets=((13, 1.0), (13, 2.0)))
    with pytest.raises(PlanError, match="duplicate"):
        make_coefficients(plan, dec)


# ---------------------------------------------------------------- redistribute

def test_redistribute_census_golden(db2, census_ratios):
    plan = RedistributionPlan(strategy="manual", free_values=ref.FREE_VALUES, floor=ref.FLOOR)
    final, report = redistribute(census_ratios, plan, db2, 1, "left")
    assert abs(report["shift"] - ref.SHIFT) < 1e-3
    assert abs(report["scale"] - ref.SCALE) < 1e-4
    assert report["informative_range"] == [2, 14]
    shifted = extend_to_even(final, "left")[0] / report["scale"]
    np.testing.assert_allclose(shifted, ref.SHIFTED_SIGNAL, atol=ref.DISPLAY_TOL)
    np.testing.assert_allclose(shifted[:5], [6.3252, 6.3252, 6.3238, 5.3484, 4.6365],
                               atol=ref.DISPLAY_TOL)
    np.testing.assert_allclose(final, ref.FINAL_RATIOS, atol=ref.DISPLAY_TOL)
    checks = report["checks"]
    assert checks["positivity"]["passed"] and checks["border_equality"]["passed"]
    assert checks["mean_preserved"]["value"] < 1e-9
    assert checks["details_proportional"]["value"] < 1e-9


def test_redistribute_identity_plan(db2, census_ratios):
    plan = RedistributionPlan(
        strategy="manual", fixed_indices=frozenset(range(1, 8)), floor=None
    )
    final, report = redistribute(census_ratios, plan, db2, 1, "left")
    assert report["shift"] == 0.0
    assert np.array_equal(final, census_ratios)


def test_redistribute_identity_with_floor_rescales(db2, census_ratios):
    # With the floor active the identity plan shifts and rescales, but the
    # mean and the detail proportions still survive.
    plan = RedistributionPlan(strategy="manual", fixed_indices=frozenset(range(1, 8)))
    final, report = redistribute(census_ratios, plan, db2, 1, "left")
    assert report["shift"] > 0
    assert abs(final.mean() - census_ratios.mean()) < 1e-12
    assert report["checks"]["details_proportional"]["value"] < 1e-12


def test_redistribute_rejects_out_of_range_signal(db2):
    plan = RedistributionPlan(strategy="manual", free_values={})
    with pytest.raises(SignalError, match=r"\[0, 1\]"):
        redistribute(np.array([0.5, 1.5, 0.2]), plan, db2, 1)


def test_redistribute_rejects_all_zero_signal(db2):
    plan = RedistributionPlan(
        strategy="manual", fixed_indices=frozenset(range(1, 5)), floor=None
    )
    with pytest.raises(SignalError, match="degenerate"):
        redistribute(np.zeros(7), plan, db2, 1)


def test_redistribute_rejects_a_negative_scale(db2, census_ratios):
    # With no floor nothing shifts the rebuilt signal up, so free values far
    # below the originals drive its informative sum, and the scale, below 0.
    plan = RedistributionPlan(strategy="manual", free_values=dict.fromkeys(range(3, 7), -50.0), floor=None)
    with pytest.raises(SignalError, match="^mean-preserving scale must be positive, got -"):
        redistribute(census_ratios, plan, db2, 1, "left")


def test_redistribute_fixed_coefficients_track_shift_and_scale(db2, census_ratios):
    # New approximation coefficients on the fixed set equal
    # scale * (original + shift * sqrt(2)**k): the shift is a constant
    # signal, and one low-pass analysis step scales constants by sqrt(2).
    plan = RedistributionPlan(strategy="manual", free_values=ref.FREE_VALUES, floor=ref.FLOOR)
    final, report = redistribute(census_ratios, plan, db2, 1, "left")
    extended, meta = extend_to_even(final, "left")
    dec = analyze(extended, db2, 1, meta=meta)
    original = np.array(report["coefficients_after"])
    expected = report["scale"] * (original + report["shift"] * np.sqrt(2.0))
    np.testing.assert_allclose(dec.approx, expected, atol=1e-9)


def test_redistribute_level2_coefficient_tracking(db2):
    # Same faithfulness relation at level 2: every analysis coefficient of
    # the final signal is scale * (chosen coefficient + shift * 2**(k/2)).
    rng = np.random.default_rng(77)
    c = rng.uniform(0.05, 0.95, 16)
    plan = RedistributionPlan(
        strategy="manual", free_values={i: float(rng.uniform(-2, 2)) for i in range(1, 5)},
        fixed_indices=frozenset(), floor=2.0,
    )
    final, report = redistribute(c, plan, db2, 2, "left")
    dec = analyze(final, db2, 2)
    chosen = np.array(report["coefficients_after"])
    expected = report["scale"] * (chosen + report["shift"] * 2.0)
    np.testing.assert_allclose(dec.approx, expected, atol=1e-9)


def test_redistribute_long_domain_memory(db2):
    # 8,191 categories at level 2: the dense 8,192 x 2,048 operator alone
    # would take 128 MiB, so a peak this low means no step builds it.
    rng = np.random.default_rng(8191)
    c = rng.uniform(0.05, 0.95, 8191)
    targets = tuple((64 + 128 * j, 0.9) for j in range(64))
    plan = RedistributionPlan(strategy="alleged_extrema", targets=targets, floor=2.0)
    tracemalloc.start()
    try:
        final, report = redistribute(c, plan, db2, 2, "left")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert final.shape == c.shape
    assert report["checks"]["border_equality"]["passed"] and report["checks"]["positivity"]["passed"]


# Per category, a denominator and a ratio: anywhere in (0, 1], or at half a
# record, where rounding moves the ratio farthest.
_ROUNDED = st.integers(1, 5_000).flatmap(lambda d: st.tuples(
    st.just(d), st.one_of(st.floats(1e-6, 1.0), st.integers(0, d - 1).map(lambda c: (c + 0.5) / d))))


@settings(max_examples=300, deadline=None)
@given(st.lists(_ROUNDED, min_size=2, max_size=40), st.sampled_from(["db2", "haar"]),
       st.sampled_from(["left", "right"]), st.data())
@example([(1, 0.5), (1, 0.5), (3, 0.5)], "db2", "left", None)
def test_rounding_moves_the_signal_within_rounding_tolerances(categories, wavelet, direction, data):
    # Counts rounded half away from zero move each ratio by at most half a
    # record over its denominator, so the recounted signal's mean and every
    # detail coefficient at every level stay within the bounds verify uses.
    denominators = np.array([d for d, _ in categories])
    ratios = np.array([r for _, r in categories])
    counts, _ = new_quantities(ratios, denominators)
    before, meta = extend_to_even(ratios, direction)
    after, _ = extend_to_even(counts / denominators, direction)
    f = filter_by_name(wavelet)
    top = max_level(meta.extended_length)
    k = top if data is None else data.draw(st.integers(1, top))
    mean_tol, detail_tol = rounding_tolerances(denominators, f, k)
    info = meta.informative_slice
    assert abs(after[info].mean() - before[info].mean()) < mean_tol
    for old, new in zip(analyze(before, f, k, meta=meta).details, analyze(after, f, k, meta=meta).details):
        assert np.abs(new - old).max() < detail_tol


def test_random_redistribution_properties(db2):
    rng = np.random.default_rng(2024)
    for _ in range(100):
        c, plan, k, direction = random_redistribution_case(rng, db2)
        final, report = redistribute(c, plan, db2, k, direction)
        assert final.shape == c.shape
        assert abs(final.mean() - c.mean()) < 1e-9
        checks = report["checks"]
        assert checks["details_proportional"]["value"] < 1e-9
        assert checks["positivity"]["passed"]
        assert checks["border_equality"]["passed"]
        assert abs(report["detail_scale"] - report["scale"]) < 1e-9


# ---------------------------------------------------------------- verification

EXACT = {"mean_tol": CHECK_TOL, "detail_tol": CHECK_TOL}


def test_verify_outcome_census(db2, census_ratios):
    plan = RedistributionPlan(strategy="manual", free_values=ref.FREE_VALUES, floor=ref.FLOOR)
    final, _ = redistribute(census_ratios, plan, db2, 1, "left")
    before, meta = extend_to_even(census_ratios, "left")
    after, _ = extend_to_even(final, "left")
    checks, outcome = verify_outcome(before, after, db2, 1, meta, **EXACT)
    assert checks["positivity"]["passed"] is True
    assert checks["border_equality"]["passed"] is True
    assert 13 in outcome["extrema_after"]["maxima"]
    assert checks["mean_preserved"]["value"] < 1e-9
    assert checks["details_proportional"]["value"] < 1e-9


def test_verify_outcome_identical_signals(db2, census_ratios):
    extended, meta = extend_to_even(census_ratios, "left")
    checks, outcome = verify_outcome(extended, extended, db2, 1, meta, **EXACT)
    assert checks["mean_preserved"]["value"] == 0.0
    assert checks["details_proportional"]["value"] == 0.0
    assert outcome["detail_scale"] == 1.0
    assert outcome["extrema_before"] == outcome["extrema_after"]


def test_verify_outcome_length_checks(db2, census_ratios):
    extended, meta = extend_to_even(census_ratios, "left")
    with pytest.raises(SignalError, match="differ in length"):
        verify_outcome(extended, extended[:-1], db2, 1, meta, **EXACT)
    # Signals at the original length are not extended for the caller.
    with pytest.raises(SignalError, match="extended to even length first"):
        verify_outcome(census_ratios, census_ratios, db2, 1, meta, **EXACT)


def test_local_extrema():
    maxima, minima = local_extrema([1.0, 3.0, 2.0, 0.5, 1.5, 1.0])
    assert maxima == [2, 5]
    assert minima == [4]
    # Plateaus are not strict extrema; endpoints never qualify.
    assert local_extrema([2.0, 2.0, 1.0]) == ([], [])


def test_format_plot_data(census_ratios):
    out = io.StringIO()
    format_plot_data(census_ratios, census_ratios * 2.0, out)
    assert out.getvalue() == (
        "index\tbefore\tafter\n"
        "1\t0.01430306024\t0.02860612047\n"
        "2\t0.01288056206\t0.02576112412\n"
        "3\t0.01223063483\t0.02446126966\n"
        "4\t0.01399771319\t0.02799542637\n"
        "5\t0.01149267354\t0.02298534709\n"
        "6\t0.0140954495\t0.028190899\n"
        "7\t0.01421357539\t0.02842715078\n"
        "8\t0.01280417626\t0.02560835252\n"
        "9\t0.007692167478\t0.01538433496\n"
        "10\t0.01004312432\t0.02008624865\n"
        "11\t0.01590749825\t0.0318149965\n"
        "12\t0.01676735521\t0.03353471041\n"
        "13\t0.01104492801\t0.02208985603\n"
    )
    with pytest.raises(SignalError, match="signals differ in length: 13 vs 12"):
        format_plot_data(census_ratios, census_ratios[1:], out)


def test_plot_data_of_many_categories_is_written_line_by_line():
    # 2,049 categories: the dump goes out a line at a time, so its peak
    # stays far below the size of its text, which its sha256 pins.
    before = np.random.default_rng(2_049).random(2_049)
    after = np.sqrt(before) * 3.0
    out = Digest()
    tracemalloc.start()
    try:
        format_plot_data(before, after, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (out.size, out.sha256.hexdigest()) == (
        60_392, "324bfdb77e93a3ddd8a33c64c31e3a54041145afcae734a5db46f7b7bf7b2572")
    assert peak < out.size / 8, f"plot data peak {peak} bytes for {out.size} bytes of text"
