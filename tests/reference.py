"""Hand-checked golden values for the UK-census regional redistribution example.

All arrays are 4-decimal prints of a full-precision run; comparisons against
them use DISPLAY_TOL (half a printed unit in the last place).

Two widely circulated transcriptions of this example are internally
inconsistent and are corrected here, with the inconsistencies asserted by
tests:

* element 5 of the input signal is sometimes given as 0.1149, but the counts
  it must equal are 1171/101891 = 0.0115, and the additive identity
  approximation + detail == signal only holds with 0.0115;
* element 13 of the level-1 detail is sometimes given as -0.0007, but
  signal - approximation at that position is 0.0168 - 0.0169 = -0.0002
  (and the printed redistributed signal value 0.6656 = 0.6657 - 0.0002
  agrees); -0.0007 fails both identities.

``_single_level`` is an independent brute-force oracle for the filter bank:
the single-level circulant synthesis operator, built entry by entry from the
taps.  The package synthesizes with a vectorized kernel and holds the
level-k operator only as a band of a few taps per row
(``wavelets.operator_band``), so tests compare both against products of
these.  The dense operators live on here only: ``build_reconstruction_matrix``
is the approximation operator and ``build_detail_synthesis_matrix`` the
detail operator, which the package never synthesizes, and ``reconstruct``
sums the synthesis of every channel of a decomposition from the products.
``round_half_away_from_zero`` is the scalar oracle for the counts that
``new_quantities`` rounds as one array, and ``local_extrema`` the loop oracle
for the strict interior extrema that ``redistribution.local_extrema`` finds
with array comparisons.  ``csv_load`` is the oracle for the record layer's
tokenizer: the :mod:`csv` module's reading of a microfile text, encoded the
way ``load_microfile`` encodes it.
"""

import csv
import io
import math
import re
from functools import reduce

import numpy as np

from groupanon.errors import MicrofileError


def _single_level(taps: np.ndarray, n: int) -> np.ndarray:
    m = n // 2
    mat = np.zeros((n, m))
    for j in range(m):
        for i in range(taps.size):
            # += so taps folding onto the same row (n < tap count) accumulate
            mat[(2 * j + i - 1) % n, j] += taps[i]
    return mat


def _low_stages(f, n: int, count: int) -> list[np.ndarray]:
    return [_single_level(f.lowpass, n >> stage) for stage in range(count)]


def build_reconstruction_matrix(f, n: int, k: int) -> np.ndarray:
    """Dense level-k approximation synthesis operator (n x n/2**k): k low-pass stages."""
    return reduce(np.matmul, _low_stages(f, n, k))


def build_detail_synthesis_matrix(f, n: int, u: int) -> np.ndarray:
    """Dense level-u detail synthesis operator: u - 1 low-pass stages atop one high-pass stage."""
    return reduce(np.matmul, _low_stages(f, n, u - 1) + [_single_level(f.highpass, n >> (u - 1))])


def reconstruct(dec) -> np.ndarray:
    """Extended-length signal of a decomposition: its approximation plus all its details."""
    n = dec.extended_length
    out = build_reconstruction_matrix(dec.filters, n, dec.level) @ dec.approx
    for u, detail in enumerate(dec.details, start=1):
        out = out + build_detail_synthesis_matrix(dec.filters, n, u) @ detail
    return out


def round_half_away_from_zero(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def csv_records(data: bytes, delimiter: str):
    """Each record :mod:`csv` reads from a microfile text, with the byte offset just past it.

    A record ends with the physical line on which csv finishes it; physical
    lines end at "\\n", "\\r\\n" or a lone "\\r".  Bytes that are not UTF-8 are
    read as lone surrogates, and a byte order mark before the header is not
    part of the first name.
    """
    line_ends = [m.end() for m in re.finditer(rb"\r\n|\n|\r", data)] + [len(data)]
    text = data.decode("utf-8", errors="surrogateescape").removeprefix("\ufeff")
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter, strict=True)
    # A cell may be as long as the text; the limit is process-wide, hence restored.
    limit = csv.field_size_limit(max(csv.field_size_limit(), len(data)))
    try:
        for row in reader:
            yield row, line_ends[reader.line_num - 1]
    finally:
        csv.field_size_limit(limit)


def csv_load(data: bytes, delimiter: str):
    """The attributes, ``int64`` code columns, vocabularies and record ends of a microfile text, read by :mod:`csv`.

    Codes number each column's values in order of first appearance; the
    record ends are :func:`csv_records`', the header's first.  Raises the
    ``MicrofileError`` that ``load_microfile`` raises for an empty text, a
    duplicate attribute name, text that is not UTF-8 (at the first bad
    byte's record) and else a record without one field per attribute.
    """
    records = csv_records(data, delimiter)
    header, end = next(records, ([], 0))
    ends = [end]
    q = len(header)
    vocabularies = [{} for _ in range(q)]
    columns = [[] for _ in range(q)]
    ragged = None
    for row, end in records:
        ends.append(end)
        if len(row) != q:
            ragged = ragged or f"line {len(ends)} has {len(row)} fields, expected {q}"
            continue
        for column, vocabulary, value in zip(columns, vocabularies, row):
            column.append(vocabulary.setdefault(value, len(vocabulary)))
    if len(ends) < 2:
        raise MicrofileError("empty file")
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = int(np.searchsorted(ends, exc.start, side="right")) + 1
        raise MicrofileError(f"line {line} is not UTF-8 text ({exc.reason})") from None
    attributes = [name.strip() for name in header]
    if len(set(attributes)) != len(attributes):
        raise MicrofileError("duplicate attribute names in header")
    if ragged:
        raise MicrofileError(ragged)
    codes = [np.array(column, dtype=np.int64) for column in columns]
    return attributes, codes, [list(v) for v in vocabularies], np.array(ends, dtype=np.int64)


def local_extrema(values) -> tuple[list[int], list[int]]:
    v = np.asarray(values, dtype=float)
    maxima = [i + 1 for i in range(1, v.size - 1) if v[i] > v[i - 1] and v[i] > v[i + 1]]
    minima = [i + 1 for i in range(1, v.size - 1) if v[i] < v[i - 1] and v[i] < v[i + 1]]
    return maxima, minima


DISPLAY_TOL = 5e-4

# db2 filter taps at 4 decimals.
LOWPASS_4DP = np.array([0.4830, 0.8365, 0.2241, -0.1294])
HIGHPASS_4DP = np.array([-0.1294, -0.2241, 0.8365, -0.4830])

# Concentration signal of the 13 regions (element 5 = 1171/101891, see above).
SIGNAL = np.array([
    0.0143, 0.0129, 0.0122, 0.0140, 0.0115, 0.0141, 0.0142,
    0.0128, 0.0077, 0.0100, 0.0159, 0.0168, 0.0110,
])

# Level-1 decomposition of the leftward-extended signal.
APPROX_COEFFS = np.array([0.0188, 0.0186, 0.0184, 0.0189, 0.0180, 0.0135, 0.0223])
APPROXIMATION = np.array([
    0.0129, 0.0132, 0.0131, 0.0130, 0.0130, 0.0132, 0.0134,
    0.0129, 0.0126, 0.0106, 0.0090, 0.0138, 0.0169, 0.0141,
])
# Element 13 corrected to the identity-consistent value (see module docstring).
DETAIL_LEVEL1 = np.array([
    0.0014, 0.0011, -0.0003, -0.0008, 0.0010, -0.0017, 0.0007,
    0.0013, 0.0002, -0.0029, 0.0011, 0.0021, -0.0002, -0.0031,
])
DETAIL_ERRATUM_POSITION = 13          # 1-based
DETAIL_ERRATUM_VARIANT = -0.0007      # the circulated, inconsistent value

# Level-1 synthesis matrix for a 14-sample signal.
RECONSTRUCTION_MATRIX = np.array([
    [0.8365, 0, 0, 0, 0, 0, -0.1294],
    [0.2241, 0.4830, 0, 0, 0, 0, 0],
    [-0.1294, 0.8365, 0, 0, 0, 0, 0],
    [0, 0.2241, 0.4830, 0, 0, 0, 0],
    [0, -0.1294, 0.8365, 0, 0, 0, 0],
    [0, 0, 0.2241, 0.4830, 0, 0, 0],
    [0, 0, -0.1294, 0.8365, 0, 0, 0],
    [0, 0, 0, 0.2241, 0.4830, 0, 0],
    [0, 0, 0, -0.1294, 0.8365, 0, 0],
    [0, 0, 0, 0, 0.2241, 0.4830, 0],
    [0, 0, 0, 0, -0.1294, 0.8365, 0],
    [0, 0, 0, 0, 0, 0.2241, 0.4830],
    [0, 0, 0, 0, 0, -0.1294, 0.8365],
    [0.4830, 0, 0, 0, 0, 0, 0.2241],
])

# The redistribution: coefficients 3-6 replaced, border set {1, 2, 7} fixed.
FIXED_INDICES = frozenset({1, 2, 7})
FREE_VALUES = {3: -2.0, 4: 0.0, 5: 1.0, 6: -5.0}
NEW_COEFFS = np.array([0.0188, 0.0186, -2.0, 0.0, 1.0, -5.0, 0.0223])
NEW_APPROXIMATION = np.array([
    0.0129, 0.0132, 0.0131, -0.9618, -1.6754, -0.4483, 0.2588,
    0.4830, 0.8365, -2.1907, -4.3120, -1.1099, 0.6657, 0.0141,
])
NEW_SIGNAL = np.array([
    0.0143, 0.0143, 0.0129, -0.9626, -1.6744, -0.4500, 0.2595,
    0.4843, 0.8367, -2.1935, -4.3109, -1.1078, 0.6656, 0.0110,
])
FLOOR = 2.0
SHIFT = 6.3109
SHIFTED_SIGNAL = np.array([
    6.3252, 6.3252, 6.3238, 5.3484, 4.6365, 5.8609, 6.5704,
    6.7952, 7.1476, 4.1174, 2.0000, 5.2031, 6.9765, 6.3220,
])
SCALE = 0.0023

FINAL_RATIOS = np.array([
    0.0144, 0.0144, 0.0122, 0.0105, 0.0133, 0.0149, 0.0155,
    0.0163, 0.0094, 0.0045, 0.0118, 0.0159, 0.0144,
])
FINAL_COUNTS = np.array([699, 1867, 1170, 876, 1358, 1616, 2495, 1582, 514, 395, 1182, 877, 480])
FINAL_COUNTS_MEAN = 1162.4
ORIGINAL_COUNTS_MEAN = 1163.0
