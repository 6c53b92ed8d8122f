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
way ``load_microfile`` encodes it, and ``reference_verify`` the oracle for
``verify``'s one read of an original and its release: each text read by
:mod:`csv` on its own, whole.  ``solver_coefficients`` is the oracle for
the rank rule of the target solver: it builds the same system and decides
feasibility with two ``np.linalg.matrix_rank`` calls before it solves.
"""

import csv
import io
import math
import re
from functools import reduce

import numpy as np

from groupanon.errors import InfeasibleTargetsError, MicrofileError
from groupanon.redistribution import RANK_TOL
from groupanon.wavelets import operator_band, synth_approx


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


def reference_verify(original_text: bytes, release_text: bytes, spec, delimiter: str = ",",
                     names=("original", "release")) -> dict:
    """What ``verify`` finds in ``release_text``, a release of ``original_text``, each read by :mod:`csv` (see :func:`csv_load`).

    Returns, per text, its signal's ``numerators`` and ``denominators``
    (lists in the order of ``spec.parameter_values``) and its record count
    (``records``, two entries); ``changed``, the records whose vital cells
    differ, and ``altered``, the other cells that differ (0 and the larger
    record count when the record counts or the attribute names differ); and
    ``reparsed``, the release records whose bytes differ from the original's
    record at the same position, or all of them when the attribute names
    differ.  A text at fault raises the ``MicrofileError`` a load of it
    raises, after its entry of ``names`` and ": ": first a text with no
    record or with a repeated attribute name (the original before the
    release), then a header without an attribute the spec names, then a
    fault in the records (the original's before the release's), then a
    signal with a zero denominator or a ratio above 1.
    """
    texts = (original_text, release_text)
    read = []
    for name, data in zip(names, texts):
        records = list(csv_records(data, delimiter))
        if len(records) < 2:
            raise MicrofileError(f"{name}: empty file")
        attributes = [cell.strip() for cell in records[0][0]]
        if len(set(attributes)) != len(attributes):
            raise MicrofileError(f"{name}: duplicate attribute names in header")
        read.append((attributes, [row for row, _ in records[1:]], [end for _, end in records]))
    wanted = [spec.parameter_attribute, *(a for combo in spec.vital_combinations for a in spec.vital_attributes)]
    if spec.denominator_filter is not None:
        wanted.append(spec.denominator_filter[0])
    for name, (attributes, _, _) in zip(names, read):
        for attribute in wanted:
            if attribute not in attributes:
                raise MicrofileError(f"{name}: unknown attribute {attribute!r} (file has {attributes})")
    for name, data in zip(names, texts):
        try:
            csv_load(data, delimiter)
        except MicrofileError as exc:
            raise MicrofileError(f"{name}: {exc}") from None
    found = {"numerators": [], "denominators": [], "records": []}
    for name, (attributes, rows, _) in zip(names, read):
        column = {attribute: j for j, attribute in enumerate(attributes)}
        m = len(spec.parameter_values)
        numerators, denominators = [0] * m, [0] * m
        for row in rows:
            value = row[column[spec.parameter_attribute]]
            if value not in spec.parameter_values:
                continue
            g = spec.parameter_values.index(value)
            if spec.denominator_filter is None or row[column[spec.denominator_filter[0]]] in spec.denominator_filter[1]:
                denominators[g] += 1
            numerators[g] += tuple(row[column[a]] for a in spec.vital_attributes) in spec.vital_combinations
        for value, numerator, denominator in zip(spec.parameter_values, numerators, denominators):
            if denominator == 0:
                raise MicrofileError(f"{name}: parameter value {value!r} has a zero denominator")
            if numerator > denominator:
                raise MicrofileError(
                    f"{name}: parameter value {value!r} has {numerator} vital records but a "
                    f"denominator of {denominator}; its ratio would exceed 1"
                )
        found["numerators"].append(numerators)
        found["denominators"].append(denominators)
        found["records"].append(len(rows))
    (attributes, rows, ends), (released_attributes, released_rows, released_ends) = read
    if attributes != released_attributes:
        found.update(changed=0, altered=max(len(rows), len(released_rows)), reparsed=len(released_rows))
        return found
    pieces = [[data[a:b] for a, b in zip(bounds[:-1], bounds[1:])] for data, bounds in zip(texts, (ends, released_ends))]
    found["reparsed"] = sum(a != b for a, b in zip(*pieces)) + max(0, len(released_rows) - len(rows))
    if len(rows) != len(released_rows):
        found.update(changed=0, altered=max(len(rows), len(released_rows)))
        return found
    vital = [attribute in spec.vital_attributes for attribute in attributes]
    pairs = list(zip(rows, released_rows))
    found["changed"] = sum(any(x != y for x, y, v in zip(a, b, vital) if v) for a, b in pairs)
    found["altered"] = sum(x != y for a, b in pairs for x, y, v in zip(a, b, vital) if not v)
    return found


def local_extrema(values) -> tuple[list[int], list[int]]:
    v = np.asarray(values, dtype=float)
    maxima = [i + 1 for i in range(1, v.size - 1) if v[i] > v[i - 1] and v[i] > v[i + 1]]
    minima = [i + 1 for i in range(1, v.size - 1) if v[i] < v[i - 1] and v[i] < v[i + 1]]
    return maxima, minima


def solver_coefficients(plan, dec) -> np.ndarray:
    """``make_coefficients`` for a valid solver plan, with feasibility decided by two ``matrix_rank`` calls.

    The rank of the free columns is 0 when there are none; otherwise both
    ranks come from ``np.linalg.matrix_rank``, and only a feasible system
    reaches ``np.linalg.lstsq``.
    """
    a, f, k, n = dec.approx, dec.filters, dec.level, dec.extended_length
    fixed = plan.fixed_set(f, k, dec.meta)
    free = np.ones(a.size, dtype=bool)
    free[[i - 1 for i in fixed]] = False
    targets = list(plan.targets)
    if plan.strategy == "extremum_transition":
        rebuilt = synth_approx(a, f, k, n)
        maxima, minima = local_extrema(rebuilt)
        cols, taps = operator_band(f, k, n, np.array(maxima + minima, dtype=int) - 1)
        median = float(np.median(rebuilt))
        taken = {pos for pos, _ in targets}
        targets += [(pos, median) for pos, row_cols, row_taps in zip(maxima + minima, cols, taps)
                    if pos not in taken and (free[row_cols] & (np.abs(row_taps) > RANK_TOL)).any()]
    cols, taps = operator_band(f, k, n, [pos - 1 for pos, _ in targets])
    rows = np.zeros((len(targets), a.size))
    np.put_along_axis(rows, cols, taps, axis=1)
    coef_matrix = rows[:, free]
    rhs = np.array([val for _, val in targets]) - rows[:, ~free] @ a[~free]
    rank = np.linalg.matrix_rank(coef_matrix, tol=RANK_TOL) if free.any() else 0
    rank_aug = np.linalg.matrix_rank(np.column_stack([coef_matrix, rhs]), tol=RANK_TOL)
    if rank_aug > rank:
        raise InfeasibleTargetsError(
            f"{len(targets)} target(s) span rank {rank_aug} but the {int(free.sum())} "
            f"free coefficient(s) only provide rank {rank}"
        )
    ahat = a.copy()
    if free.any():
        ahat[free] = np.linalg.lstsq(coef_matrix, rhs, rcond=None)[0]
    return ahat


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
