"""Dense circulant synthesis operators, for display and for tests.

The level-1 low-pass operator for an even length n is the n x (n/2) matrix
whose column j (0-based) carries tap i at row (2j + i - 1) mod n; applying
it reproduces :func:`groupanon.wavelets.synth_approx` at level 1, and its
transpose is the analysis step.  Level-k operators are products of k
single-level operators of halving sizes.  Columns are orthonormal, and the
low-pass and high-pass operators of one size resolve the identity:
``L @ L.T + H @ H.T == I``.

The pipeline itself never materializes these matrices: a level-k operator
is block-circulant (entry (p, j) is its first column at (p - 2**k * j) mod
n), so redistribution reads the few rows it needs off the filter-bank
kernel.  The dense matrix is what ``groupanon inspect`` prints and what the
tests check, so an analyst can see which coefficients drive which samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SignalError
from .wavelets import WaveletFilterPair, max_level, synth_approx, synth_detail


@dataclass(frozen=True)
class ReconstructionMatrix:
    """Synthesis operator mapping level-k coefficients to a length-n signal."""

    entries: np.ndarray
    level: int
    filters: WaveletFilterPair

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def m(self) -> int:
        return self.entries.shape[1]

    def dump(self) -> str:
        """Plain-text rows of 4-decimal fixed-point entries."""
        return "\n".join(
            " ".join(f"{value:8.4f}" for value in row) for row in self.entries
        )


def _operator_rows(column: np.ndarray, level: int, rows) -> np.ndarray:
    """Rows ``rows`` of the level-``level`` operator whose first column is ``column``.

    Column j of a level-k synthesis operator is its first column shifted
    down by 2**k * j samples (circularly), so row p is the first column read
    at (p - 2**k * j) mod n for every j.
    """
    n = column.size
    shifts = np.arange(n >> level) << level
    return column[(np.asarray(rows)[:, None] - shifts) % n]


def _check_size(n: int, k: int) -> None:
    if n < 2 or n % 2 != 0:
        raise SignalError(f"signal length must be even and >= 2, got {n}")
    admissible = max_level(n)
    if not 1 <= k <= admissible:
        raise SignalError(
            f"level {k} needs length divisible by 2**{k}; "
            f"maximum admissible level for length {n} is {admissible}"
        )


def build_reconstruction_matrix(f: WaveletFilterPair, n: int, k: int) -> ReconstructionMatrix:
    """Level-k approximation synthesis operator (n x n/2**k)."""
    _check_size(n, k)
    column = synth_approx(np.eye(1, n >> k)[0], f, k, n)
    return ReconstructionMatrix(_operator_rows(column, k, np.arange(n)), k, f)


def build_detail_synthesis_matrix(f: WaveletFilterPair, n: int, u: int) -> ReconstructionMatrix:
    """Level-u detail synthesis operator: u-1 low-pass stages atop one high-pass stage."""
    _check_size(n, u)
    column = synth_detail(np.eye(1, n >> u)[0], f, u, n)
    return ReconstructionMatrix(_operator_rows(column, u, np.arange(n)), u, f)

