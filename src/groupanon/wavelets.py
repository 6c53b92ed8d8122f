"""Decimated orthogonal wavelet analysis and synthesis with periodic boundaries.

Signals are plain 1-D float arrays.  Analysis splits an even-length signal
into half-length approximation and detail coefficient arrays.  Both sides
use circular indexing with the tap window for output j anchored at sample
2j - 1 (0-based), which makes analysis the exact transpose of the circulant
synthesis operator.  Odd-length signals are first made even by duplicating
one border sample (see :func:`extend_to_even`).  A filter pair is its
low-pass taps; the high-pass taps are their quadrature mirror.  Only the
approximation channel is ever synthesized, because the pipeline never
changes a detail; ``_synth_once`` is the only synthesis kernel.  The
level-k synthesis operator has one representation, the band of
:func:`operator_band`: each row's few nonzero coefficients and taps, read
off the operator's first column (the kernel applied to a unit
coefficient).  No step builds the dense operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SignalError

# Tolerance for the structural filter invariants (tap sums, orthogonality).
FILTER_TOL = 1e-10


def as_signal(values) -> np.ndarray:
    """Coerce ``values`` to a valid signal: 1-D, finite, at least 2 samples."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise SignalError(f"signal must be one-dimensional, got shape {arr.shape}")
    if arr.size < 2:
        raise SignalError(f"signal must have at least 2 samples, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise SignalError("signal contains non-finite values")
    return arr


@dataclass(frozen=True)
class WaveletFilterPair:
    """Orthogonal filter pair defined by its low-pass taps, of even length.

    The high-pass taps are derived, the quadrature mirror of the low-pass
    taps: ``highpass[i] == (-1)**i * lowpass[t - 1 - i]``.  Construction
    validates the tap-sum, unit-energy and even-shift-orthogonality
    invariants at tolerance ``FILTER_TOL``.
    """

    lowpass: np.ndarray

    def __post_init__(self):
        low = np.asarray(self.lowpass, dtype=float)
        object.__setattr__(self, "lowpass", low)
        t = low.size
        if t == 0 or t % 2 != 0:
            raise SignalError("low-pass taps must have an even, positive count")
        if abs(low.sum() - math.sqrt(2.0)) > FILTER_TOL:
            raise SignalError("low-pass taps must sum to sqrt(2)")
        if abs(float(low @ low) - 1.0) > FILTER_TOL:
            raise SignalError("low-pass taps must have unit energy")
        for shift in range(2, t, 2):
            if abs(float(low[:-shift] @ low[shift:])) > FILTER_TOL:
                raise SignalError(f"low-pass taps correlate at even shift {shift}")

    @property
    def highpass(self) -> np.ndarray:
        signs = np.where(np.arange(self.lowpass.size) % 2, -1.0, 1.0)
        return signs * self.lowpass[::-1]


def db2_filter() -> WaveletFilterPair:
    """Length-4 Daubechies pair.

    Low-pass taps ((1+sqrt(3)), (3+sqrt(3)), (3-sqrt(3)), (1-sqrt(3))) / (4*sqrt(2)),
    numerically (0.4830, 0.8365, 0.2241, -0.1294).
    """
    s = math.sqrt(3.0)
    low = np.array([1.0 + s, 3.0 + s, 3.0 - s, 1.0 - s]) / (4.0 * math.sqrt(2.0))
    return WaveletFilterPair(low)


def haar_filter() -> WaveletFilterPair:
    """Length-2 Haar pair, mainly useful for quick sanity checks."""
    low = np.array([1.0, 1.0]) / math.sqrt(2.0)
    return WaveletFilterPair(low)


_FILTERS = {"db2": db2_filter, "haar": haar_filter}
WAVELETS = tuple(_FILTERS)
# The sides a border sample may be duplicated on.
EXTENSIONS = ("left", "right")


def filter_by_name(name: str) -> WaveletFilterPair:
    try:
        factory = _FILTERS[name]
    except KeyError:
        raise SignalError(f"unknown wavelet {name!r}; available: {sorted(_FILTERS)}") from None
    return factory()


@dataclass(frozen=True)
class ExtensionMeta:
    """How (and whether) a signal of ``original_length`` samples was made even.

    ``direction`` is ``"none"`` exactly when ``original_length`` is even;
    otherwise it is the side, ``"left"`` or ``"right"``, whose border sample
    was duplicated.  The duplicated sample carries no information of its
    own: ``border`` gives the 0-based rows of the duplicated pair inside the
    extended signal (``None`` when nothing was duplicated), and
    ``informative_slice`` selects the original samples.
    """

    direction: str
    original_length: int

    def __post_init__(self):
        allowed = EXTENSIONS if self.original_length % 2 else ("none",)
        if self.direction not in allowed:
            raise SignalError(f"extension direction {self.direction!r} does not fit length "
                              f"{self.original_length}; expected one of {allowed}")

    @property
    def extended_length(self) -> int:
        return self.original_length + (self.direction != "none")

    @property
    def border(self) -> tuple[int, int] | None:
        n = self.extended_length
        return {"left": (0, 1), "right": (n - 2, n - 1)}.get(self.direction)

    @property
    def informative_slice(self) -> slice:
        start = int(self.direction == "left")
        return slice(start, start + self.original_length)


def extend_to_even(s, direction: str = "left") -> tuple[np.ndarray, ExtensionMeta]:
    """Duplicate a border sample so the signal length becomes even.

    Even-length input is returned unchanged with ``direction == "none"``.
    ``direction`` picks the side: ``"left"`` prepends a copy of the first
    sample, ``"right"`` appends a copy of the last.  :class:`ExtensionMeta`
    rejects any other direction.
    """
    arr = as_signal(s)
    meta = ExtensionMeta(direction if arr.size % 2 else "none", arr.size)
    pad = {"left": (1, 0), "right": (0, 1)}.get(meta.direction, (0, 0))
    return np.pad(arr, pad, mode="edge"), meta


def max_level(n: int) -> int:
    """Largest decomposition level admissible for an even length ``n``."""
    k = 0
    while n % 2 == 0 and n > 0:
        n //= 2
        k += 1
    return k


def _window_indices(n: int, taps: int) -> np.ndarray:
    # Output j reads samples (2j - 1 .. 2j + taps - 2) mod n.
    j = np.arange(n // 2)[:, None]
    i = np.arange(taps)[None, :]
    return (2 * j + i - 1) % n


def analyze_once(s, f: WaveletFilterPair) -> tuple[np.ndarray, np.ndarray]:
    """One decimated analysis step: half-length (approx, detail) coefficients."""
    arr = as_signal(s)
    if arr.size % 2 != 0:
        raise SignalError("signal must be extended to even length first")
    windows = arr[_window_indices(arr.size, f.lowpass.size)]
    return windows @ f.lowpass, windows @ f.highpass


@dataclass(frozen=True)
class DecompositionResult:
    """Level-k approximation coefficients plus details for levels 1..k.

    ``details[u - 1]`` holds the level-u detail coefficients (length
    ``extended_length / 2**u``).
    """

    level: int
    approx: np.ndarray
    details: tuple[np.ndarray, ...]
    filters: WaveletFilterPair
    meta: ExtensionMeta

    @property
    def extended_length(self) -> int:
        return self.meta.extended_length


def analyze(s, f: WaveletFilterPair, k: int, meta: ExtensionMeta | None = None) -> DecompositionResult:
    """Cascade ``analyze_once`` k times on the running approximation.

    ``meta`` records how the signal was extended; when omitted the signal is
    taken as-is (no duplicated sample).
    """
    arr = as_signal(s)
    if k < 1:
        raise SignalError(f"decomposition level must be >= 1, got {k}")
    if arr.size % 2 != 0:
        raise SignalError("signal must be extended to even length first")
    admissible = max_level(arr.size)
    if k > admissible:
        raise SignalError(
            f"level {k} needs length divisible by 2**{k}; "
            f"maximum admissible level for length {arr.size} is {admissible}"
        )
    if meta is None:
        meta = ExtensionMeta("none", arr.size)
    elif meta.extended_length != arr.size:
        raise SignalError(
            f"extension metadata describes length {meta.extended_length}, signal has {arr.size}"
        )
    approx = arr
    details = []
    for _ in range(k):
        approx, detail = analyze_once(approx, f)
        details.append(detail)
    return DecompositionResult(k, approx, tuple(details), f, meta)


def _synth_once(coef: np.ndarray, taps: np.ndarray, n: int) -> np.ndarray:
    # Adjoint of the analysis step: scatter coef[j] * taps into the output
    # at rows (2j + i - 1) mod n, accumulating where the taps wrap onto
    # the same sample.
    out = np.zeros(n)
    idx = _window_indices(n, taps.size)
    np.add.at(out, idx, coef[:, None] * taps[None, :])
    return out


def synth_approx(a_k, f: WaveletFilterPair, k: int, n: int) -> np.ndarray:
    """Length-n approximation from level-k coefficients (k low-pass stages)."""
    coef = np.asarray(a_k, dtype=float)
    if coef.ndim != 1 or coef.size * 2**k != n:
        raise SignalError(
            f"{coef.size} level-{k} coefficients cannot synthesize a length-{n} signal"
        )
    out = coef
    for level in range(k, 0, -1):
        out = _synth_once(out, f.lowpass, n // 2 ** (level - 1))
    return out


def operator_band(f: WaveletFilterPair, k: int, n: int, rows) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` (0-based) of the level-k approximation synthesis operator, as a band.

    Returns ``(cols, taps)``, two ``len(rows) x w`` arrays: row ``rows[r]``
    holds ``taps[r]`` at the distinct coefficients ``cols[r]`` and zeros
    elsewhere.  Entry (p, j) of the block-circulant operator is its first
    column, the kernel applied to a unit coefficient, at (p - 2**k * j) mod
    n.  That column is zero outside a cyclic window lo..hi, so row p reaches
    only the w = (hi - lo) // 2**k + 1 coefficients from ceil((p - hi) /
    2**k) on: w <= 3 for db2 at every level, 1 for Haar.  The taps are
    exact, and 0.0 where a row reaches fewer than w coefficients.
    """
    column = synth_approx(np.eye(1, n >> k)[0], f, k, n)
    step = 1 << k
    # Each stage anchors a coefficient's taps one sample before 2j (see
    # _window_indices), so the k stages start the column at 1 - 2**k.  A
    # column longer than n wraps onto itself and fills the whole cycle.
    lo = 1 - step
    hi = lo + min((f.lowpass.size - 1) * (step - 1), n - 1)
    p = np.asarray(rows)[:, None]
    cols = np.arange((hi - lo) // step + 1) - (hi - p) // step
    return cols % (n >> k), column[(p - step * cols) % n]
