"""Redistribute a concentration signal through its approximation coefficients.

The pipeline: extend the signal to even length, decompose, swap in new
approximation coefficients while keeping the border-coupled ones fixed,
add the synthesis of that change to the extended signal, shift the result
up to a positive floor, and rescale so the mean of the informative samples
is unchanged.

Three facts carry the guarantees.  By perfect reconstruction the rebuilt
signal has the new approximation coefficients and exactly the original
details.  The high-pass taps sum to zero, so the shift is invisible to the
details and the rescale multiplies each of them by exactly ``scale``: the
details survive proportionally, the mean exactly.  A fixed coefficient
changes by zero, so the samples only fixed coefficients reach keep their
values bit for bit: the border pair stays equal, and a plan that fixes
every coefficient and sets no floor returns its input.

Coefficient indices and signal positions in plans and reports are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .errors import InfeasibleTargetsError, PlanError, SignalError
from .wavelets import (
    DecompositionResult,
    ExtensionMeta,
    WaveletFilterPair,
    analyze,
    as_signal,
    extend_to_even,
    operator_band,
    synth_approx,
)

STRATEGIES = ("manual", "alleged_extrema", "extremum_transition")

# Rank decisions in the target solver.
RANK_TOL = 1e-10
# Equality checks on border samples and means.
CHECK_TOL = 1e-9


@dataclass(frozen=True)
class RedistributionPlan:
    """Which coefficients to keep and how to choose the rest.

    ``fixed_indices`` lists the coefficients that keep their original
    values; ``None`` means "derive them from the border rows" (see
    :func:`fixed_border_indices`), which is what keeps a duplicated border
    sample valid.  For the ``manual`` strategy, ``free_values`` must assign
    every non-fixed coefficient.  For the solver strategies, ``targets``
    holds (signal position, wanted approximation value) pairs and the free
    coefficients are solved for by least squares.  ``floor`` is the minimum
    value of the shifted signal; ``None`` disables the shift entirely
    (useful for identity plans on already-positive signals).
    """

    strategy: str = "manual"
    fixed_indices: frozenset[int] | None = None
    free_values: Mapping[int, float] | None = None
    targets: tuple[tuple[int, float], ...] = ()
    floor: float | None = 2.0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise PlanError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.fixed_indices is not None:
            object.__setattr__(self, "fixed_indices", frozenset(int(i) for i in self.fixed_indices))
        if self.free_values is not None:
            object.__setattr__(
                self, "free_values", {int(i): float(v) for i, v in self.free_values.items()}
            )
        object.__setattr__(
            self, "targets", tuple((int(p), float(v)) for p, v in self.targets)
        )
        if self.floor is not None:
            floor = float(self.floor)
            if not floor > 0:
                raise PlanError("floor must be positive (or None to disable the shift)", field="floor")
            object.__setattr__(self, "floor", floor)
        if self.strategy == "manual" and self.targets:
            raise PlanError("manual plans take free_values, not targets", field="targets")
        if self.strategy != "manual" and self.free_values:
            raise PlanError(f"{self.strategy} plans take targets, not free_values", field="free_values")

    def fixed_set(self, f: WaveletFilterPair, k: int, meta: ExtensionMeta) -> frozenset[int]:
        """The coefficients a run keeps: ``fixed_indices``, or else the border set."""
        if self.fixed_indices is None:
            return fixed_border_indices(f, k, meta)
        _validate_indices(self.fixed_indices, meta.extended_length >> k, "fixed")
        return self.fixed_indices


def local_extrema(values) -> tuple[list[int], list[int]]:
    """Strict interior local (maxima, minima) as 1-based positions."""
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        return [], []
    inner, before, after = v[1:-1], v[:-2], v[2:]
    # inner[k] is the sample at 1-based position k + 2.
    maxima = np.flatnonzero((inner > before) & (inner > after)) + 2
    minima = np.flatnonzero((inner < before) & (inner < after)) + 2
    return maxima.tolist(), minima.tolist()


def fixed_border_indices(f: WaveletFilterPair, k: int, meta: ExtensionMeta) -> frozenset[int]:
    """Coefficients that must stay fixed to keep the duplicated border valid.

    When a border sample was duplicated, the two border samples of the
    rebuilt signal must keep their (zero) difference.  That is guaranteed by
    freezing every level-``k`` approximation coefficient with a tap above
    ``RANK_TOL`` in either of the two border rows (``meta.border``) of the
    operator band.  Returns an empty set when nothing was duplicated.
    """
    if meta.border is None:
        return frozenset()
    cols, taps = operator_band(f, k, meta.extended_length, meta.border)
    return frozenset(int(j) + 1 for j in cols[np.abs(taps) > RANK_TOL])


def _validate_indices(indices, m: int, label: str) -> None:
    bad = [i for i in indices if not 1 <= i <= m]
    if bad:
        raise PlanError(f"{label} indices {sorted(bad)} outside 1..{m}")


def make_coefficients(plan: RedistributionPlan, dec: DecompositionResult) -> np.ndarray:
    """New approximation coefficients per the plan.

    Fixed coefficients keep the values in ``dec.approx``; when the plan
    leaves them unset they are derived from ``dec.meta`` with
    :func:`fixed_border_indices`.  Manual plans copy ``free_values``
    verbatim.  Solver plans choose the free coefficients by least squares so
    the rebuilt approximation hits the target values at the target
    positions; the solve is the minimum-norm one, so it sets every free
    coefficient that no target row reaches to 0.  ``extremum_transition``
    additionally flattens the original extrema of the rebuilt approximation
    to its median (skipping positions that only fixed coefficients can
    reach).  Both read the operator rows at those positions from
    :func:`groupanon.wavelets.operator_band`.
    """
    a = dec.approx
    m = a.size
    f, k, n = dec.filters, dec.level, dec.extended_length
    fixed = plan.fixed_set(f, k, dec.meta)

    if plan.strategy == "manual":
        free = dict(plan.free_values or {})
        _validate_indices(free, m, "free")
        overlap = fixed & free.keys()
        if overlap:
            raise PlanError(f"coefficients {sorted(overlap)} are both fixed and free")
        missing = set(range(1, m + 1)) - fixed - free.keys()
        if missing:
            raise PlanError(f"coefficients {sorted(missing)} are neither fixed nor assigned")
        ahat = a.copy()
        for idx, val in free.items():
            ahat[idx - 1] = val
        return ahat

    targets = list(plan.targets)
    free = np.ones(m, dtype=bool)
    free[[i - 1 for i in fixed]] = False
    if plan.strategy == "extremum_transition":
        rebuilt = synth_approx(a, f, k, n)
        maxima, minima = local_extrema(rebuilt)
        extrema = np.array(maxima + minima, dtype=int)
        extrema = extrema[~np.isin(extrema, [pos for pos, _ in targets])]
        cols, taps = operator_band(f, k, n, extrema - 1)
        reached = (free[cols] & (np.abs(taps) > RANK_TOL)).any(axis=1)
        median = float(np.median(rebuilt))
        targets += [(int(pos), median) for pos in extrema[reached]]
    if not targets:
        raise PlanError(f"{plan.strategy} plans need at least one target")
    _validate_indices([pos for pos, _ in targets], n, "target")
    if len({pos for pos, _ in targets}) != len(targets):
        raise PlanError("duplicate target positions")

    cols, taps = operator_band(f, k, n, [pos - 1 for pos, _ in targets])
    rows = np.zeros((len(targets), m))
    np.put_along_axis(rows, cols, taps, axis=1)
    wanted = np.array([val for _, val in targets])
    coef_matrix = rows[:, free]
    rhs = wanted - rows[:, ~free] @ a[~free]
    rank_aug = np.linalg.matrix_rank(np.column_stack([coef_matrix, rhs]), tol=RANK_TOL)
    solution, _, _, singular = np.linalg.lstsq(coef_matrix, rhs, rcond=None)
    rank = int(np.count_nonzero(singular > RANK_TOL))
    if rank_aug > rank:
        raise InfeasibleTargetsError(
            f"{len(targets)} target(s) span rank {rank_aug} but the {int(free.sum())} "
            f"free coefficient(s) only provide rank {rank}"
        )
    ahat = a.copy()
    ahat[free] = solution
    return ahat


def redistribute(
    c,
    plan: RedistributionPlan,
    f: WaveletFilterPair,
    k: int,
    direction: str = "left",
) -> tuple[np.ndarray, dict]:
    """Rewrite concentration signal ``c`` per ``plan``; see the module docstring.

    Returns the final signal at the original length and a JSON-ready report:
    the applied ``shift`` and ``scale``, the 1-based inclusive
    ``informative_range`` of extended positions that carry original data,
    the approximation coefficients before and after, the diagnostics of
    :func:`verify_outcome` and its check rows under ``checks``.  ``scale``
    is (sum of original informative samples) / (sum of shifted informative
    samples).  The extended signals are not returned; with the border
    coefficients fixed, ``extend_to_even`` of the final signal rebuilds it.
    """
    original = as_signal(c)
    if np.any(original < 0.0) or np.any(original > 1.0):
        raise SignalError("concentration signal values must lie in [0, 1]")
    extended, meta = extend_to_even(original, direction)
    dec = analyze(extended, f, k, meta=meta)
    fixed = plan.fixed_set(f, k, meta)
    ahat = make_coefficients(replace(plan, fixed_indices=fixed), dec)
    rebuilt = extended + synth_approx(ahat - dec.approx, f, k, meta.extended_length)
    if not np.all(np.isfinite(rebuilt)):
        raise SignalError("rebuilt signal is not finite")

    shift = 0.0 if plan.floor is None else max(0.0, plan.floor - float(rebuilt.min()))
    shifted = rebuilt + shift
    info = meta.informative_slice
    original_sum = float(extended[info].sum())
    shifted_sum = float(shifted[info].sum())
    if original_sum <= 0.0:
        raise SignalError("degenerate signal: informative samples sum to zero")
    if abs(shifted_sum) < 1e-300:
        raise SignalError("degenerate shifted signal: informative samples sum to zero")
    scale = original_sum / shifted_sum
    if not (np.isfinite(scale) and scale > 0):
        raise SignalError(f"mean-preserving scale must be positive, got {scale}")
    final_extended = scale * shifted

    checks, diagnostics = verify_outcome(
        extended, final_extended, f, k, meta, mean_tol=CHECK_TOL, detail_tol=CHECK_TOL
    )
    report = {
        "strategy": plan.strategy,
        "level": k,
        "extension": meta.direction,
        "fixed_indices": sorted(fixed),
        "floor": plan.floor,
        "shift": shift,
        "scale": scale,
        "informative_range": [info.start + 1, info.stop],
        "coefficients_before": dec.approx.tolist(),
        "coefficients_after": ahat.tolist(),
        **diagnostics,
        "checks": checks,
    }
    return final_extended[info], report


def check_row(value, tolerance, passed) -> dict:
    """One invariant check as reported: the measured value next to its tolerance."""
    return {"value": value, "tolerance": tolerance, "passed": bool(passed)}


def rounding_tolerances(denominators, f: WaveletFilterPair, k: int) -> tuple[float, float]:
    """Mean and detail tolerances for ratios recomputed from integer counts.

    Rounding one count moves its ratio by at most half a record over its
    denominator.  The mean moves by at most the average of those moves; a
    level-k detail coefficient by at most twice the largest move times the
    absolute tap sums of one high-pass and k - 1 low-pass stages.
    """
    den = np.asarray(denominators, dtype=float)
    gain_low = float(np.abs(f.lowpass).sum())
    gain_high = float(np.abs(f.highpass).sum())
    mean_tol = float((0.5 / den).mean()) + 1e-12
    detail_tol = 2.0 * float(0.5 / den.min()) * gain_high * gain_low ** (k - 1) + 1e-12
    return mean_tol, detail_tol


def verify_outcome(
    c, c_final, f: WaveletFilterPair, k: int, meta: ExtensionMeta,
    *, mean_tol: float, detail_tol: float,
) -> tuple[dict, dict]:
    """Check the redistribution contracts on an original/final signal pair.

    Both signals must already be extended as ``meta`` describes, as
    :func:`groupanon.wavelets.extend_to_even` returns them.  The
    detail-proportionality residual is measured against the least-squares
    scale between the two detail coefficient sets, so the check needs no
    knowledge of the shift/scale record.

    Returns ``(checks, diagnostics)``.  ``checks`` maps ``mean_preserved``,
    ``details_proportional``, ``positivity`` and ``border_equality`` to
    :func:`check_row` rows: the absolute mean change against ``mean_tol``,
    the largest detail residual against ``detail_tol`` and the border gap
    against ``CHECK_TOL``, each passing below its tolerance, and the number
    of non-positive samples, which must be 0.  ``diagnostics`` holds the
    fitted ``detail_scale`` and the 1-based extrema before and after.
    """
    before = as_signal(c)
    after = as_signal(c_final)
    if before.size != after.size:
        raise SignalError(f"signals differ in length: {before.size} vs {after.size}")
    info = meta.informative_slice
    mean_change = abs(float(after[info].mean() - before[info].mean()))

    dec_before = analyze(before, f, k, meta=meta)
    dec_after = analyze(after, f, k, meta=meta)
    flat_before = np.concatenate(dec_before.details)
    flat_after = np.concatenate(dec_after.details)
    energy = float(flat_before @ flat_before)
    detail_scale = float(flat_after @ flat_before) / energy if energy > 0.0 else 1.0
    detail_residual = float(np.abs(flat_after - detail_scale * flat_before).max())

    border_gap = 0.0 if meta.border is None else abs(float(np.subtract(*after[list(meta.border)])))
    non_positive = int(np.count_nonzero(~(after > 0.0)))

    max_before, min_before = local_extrema(before)
    max_after, min_after = local_extrema(after)
    checks = {
        "mean_preserved": check_row(mean_change, mean_tol, mean_change < mean_tol),
        "details_proportional": check_row(detail_residual, detail_tol, detail_residual < detail_tol),
        "positivity": check_row(non_positive, 0, non_positive == 0),
        "border_equality": check_row(border_gap, CHECK_TOL, border_gap < CHECK_TOL),
    }
    diagnostics = {
        "detail_scale": detail_scale,
        "extrema_before": {"maxima": max_before, "minima": min_before},
        "extrema_after": {"maxima": max_after, "minima": min_after},
    }
    return checks, diagnostics


def format_plot_data(before, after, out) -> None:
    """Write a tab-separated three-column dump (1-based position, original value, final value) to the text stream ``out``, a line at a time."""
    b = as_signal(before)
    a = as_signal(after)
    if b.size != a.size:
        raise SignalError(f"signals differ in length: {b.size} vs {a.size}")
    out.write("index\tbefore\tafter\n")
    for pos, (x, y) in enumerate(zip(b, a), start=1):
        out.write(f"{pos}\t{x:.10g}\t{y:.10g}\n")
