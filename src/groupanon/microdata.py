"""Microfile I/O, concentration signals, and vital-record rewriting.

A microfile is one rectangular table of categorical string values: a header
of attribute names and one record per respondent.  The group-anonymity task
is described by an :class:`AttributeSpec`: which attribute/value
combinations mark the sensitive ("vital") records, and which attribute
partitions the records into the categories the concentration signal ranges
over.

A :class:`Microfile` is held by column and dictionary-encoded: per attribute
one array with a code per record, in the narrowest unsigned type that holds
its vocabulary's codes, plus the vocabulary, an ordered dict from each value
to its code (loading numbers values in order of first appearance; a rewrite
appends the values it introduces).  Signals are vocabulary lookups and
``np.bincount``; the rewrite assigns codes.  The microfile does not keep its
text.  It keeps where the text came from (a regular file is named by its
path; other text is held in memory), the header's length and each record's
length in bytes, so writing copies every record the rewrite did not touch
verbatim (quotes and line terminators included), a block at a time from
the source, and re-serialises only the edited ones, each field quoted as it
was and each record ending as it did.  Every read after the first checks
the text's size and CRC-32 against the first read's, so a file that changes
while a microfile depends on it raises a :class:`MicrofileError` instead of
mixing two texts.  No Python object per record outlives :func:`load_microfile`.

Memory per record sets the largest file a run can take, so an array with
an entry per record or per byte has the narrowest integer type that holds
its values, or is made a block at a time.  The load reads the text a block
of bytes or a chunk of rows at a time, and no step after it holds a
temporary with an entry per record: the signal, the rewrite's counts and
its search for the rows it picks, a compare of two files' codes and a
write's search for the records it edits each take a block of rows at a
time, gathering its codes through lookups made once per vocabulary entry.
A record's place in the text is its length, not its offset: an offset is
found by summing lengths a chunk of rows at a time.
A code column and the record lengths start as ``uint8`` and are copied to
a wider type only when a value outgrows the one they have (a vocabulary,
a longer record), so at most three times.

A load's first read finds where every record ends, as :mod:`csv` reads a
file opened with ``newline=""``: at a ``\n``, ``\r\n`` or lone ``\r`` outside
quotes.  A byte lies inside quotes when an odd number of quotes come before
it.  A field that holds a quote starts and ends with one, and holds others
only as ``""`` pairs; a quote inside an unquoted field (``a"b``), text after
a closing quote (``"a"b``) and an unclosed quote fail before anything is
written, naming the record's line.  The delimiter is one ASCII character.

One tokenizer then reads the text again a chunk of rows at a time into one
buffer, and keeps tables of what it has seen: while records repeat, one
table of the distinct records seen so far with their codes; from the first
chunk with more new distinct records than half its rows on, one table per
column of the fields seen so far.  A column's table takes a chunk's new
fields only once the column has at most one value per two records parsed,
whatever the chunk's size: a column of a few thousand values enters its
table after its first chunks, and an identifier, all of whose values
differ, never does.  Each span (a record or a field) is packed into
``uint64`` words and keyed, found by binary search among the table's sorted
keys, and compared word for word with the bytes the table holds for that
entry, so its codes are exact.  Only the spans the table lacks are classed
into equal spans, split at the delimiters outside quotes, unquoted and
decoded, each class once, in one batch per chunk and table; their values
are joined to the table, which stays sorted without a sort.  No chunk
makes a Python string per cell.

A load may name a microfile that the text is expected to repeat (``like``,
for ``verify`` the original of a release).  When the text has as many
records as ``like`` and its header names the same attributes, in whatever
bytes, the result uses ``like``'s codes: each of its vocabularies starts
with ``like``'s keys in order, so a value has one code in both files.  A
record whose bytes equal ``like``'s record at the same position takes its
codes, and only the other records go through the tables, which start
empty; the two texts are compared chunk by chunk in step, and the records
that differ are parsed a chunk of them at a time.  A record starts
outside quotes, so identical bytes parse to identical cells, as a full
parse would.  When every record has the length of ``like``'s at the same
position, the result shares ``like``'s lengths.
"""

from __future__ import annotations

import codecs
import io
import os
import random
import shutil
import zlib
from contextlib import ExitStack
from functools import reduce
from itertools import count, filterfalse
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Container, Iterable, NoReturn, Sequence

import numpy as np

from .errors import MicrofileError, RewriteError

# Rows handled per step of the tokenizer and of every pass over the records
# after the load (the signal, the rewrite, a compare, a write's search for
# the records it edits).  So no step holds an array with an entry per
# record, and a step's temporaries stay small and the same from step to
# step, whatever the file's size.
_CHUNK_ROWS = 1 << 13

# Bytes read per step of a pass over the text that does not split it: the
# line-end scan, a write's copy, a check's read of what is left.  So a pass
# holds one block of the text, never all of it.  A block is larger than a
# chunk's temporaries on purpose: glibc's malloc raises its mmap threshold to
# the largest block it has freed, so the chunks then reuse heap pages instead
# of mapping (and faulting in) fresh ones every time.
_BLOCK_BYTES = 1 << 18

# A byte order mark that may open UTF-8 text: not part of the header's first
# field, so a quoted first name still parses, and kept in the text.
_BOM = codecs.BOM_UTF8

_QUOTE, _LF, _CR = ord('"'), ord("\n"), ord("\r")


@dataclass(frozen=True)
class _Source:
    """Where a microfile's text is read from, and what the first read of it found.

    A regular file is read again from its resolved ``path`` by every pass;
    any other text (a file object's, a pipe's, :meth:`Microfile.from_rows`')
    is held as ``data``.  ``size`` and ``crc`` (``zlib.crc32``) are the
    text's at its first read, against which :class:`_Reader` checks every
    later read.
    """

    path: Path | None = None
    data: bytes | None = None
    size: int = 0
    crc: int = 0

    def open(self):
        """A binary stream of the text, from its start."""
        return io.BytesIO(self.data) if self.path is None else open(self.path, "rb")


class _Reader:
    """A read of a source's text from its start, checked against the first read.

    :meth:`read` returns the next ``count`` bytes.  :meth:`check` reads the
    rest, then compares the size and CRC-32 of all that was read with the
    first read's.  Both raise a :class:`MicrofileError` that names the file
    when the text has changed since then.
    """

    def __init__(self, source: _Source):
        self.source, self.size, self.crc = source, 0, 0
        self.stream = source.open()

    def __enter__(self) -> _Reader:
        return self

    def __exit__(self, *exc) -> None:
        self.stream.close()

    def read(self, count) -> bytes:
        count = int(count)
        piece = self.stream.read(count)
        self.size += len(piece)
        self.crc = zlib.crc32(piece, self.crc)
        if len(piece) != count:
            raise self._changed()
        return piece

    def readinto(self, buffer: np.ndarray) -> None:
        """Fill the ``uint8`` array ``buffer`` with the next ``buffer.size`` bytes."""
        count = self.stream.readinto(buffer)
        self.size += count
        self.crc = zlib.crc32(buffer[:count], self.crc)
        if count != buffer.size:
            raise self._changed()

    def copy(self, count, write) -> None:
        """Pass the next ``count`` bytes to ``write``, ``_BLOCK_BYTES`` at a time."""
        while count > 0:
            piece = self.read(min(count, _BLOCK_BYTES))
            write(piece)
            count -= len(piece)

    def check(self) -> None:
        self.copy(self.source.size - self.size, lambda piece: None)
        if self.stream.read(1) or self.crc != self.source.crc:
            raise self._changed()

    def _changed(self) -> MicrofileError:
        return MicrofileError(f"{self.source.path} changed after it was loaded (its size or CRC-32 differs)")


@dataclass(frozen=True, eq=False)
class Microfile:
    """Dictionary-encoded columns plus where the text they were read from lies.

    ``codes[j]`` holds one code per record for ``attributes[j]``, in the
    narrowest unsigned type that holds ``len(vocabularies[j]) - 1``.
    ``vocabularies[j]`` is an ordered dict from each value to its code, in
    code order: its i-th key has code i.  ``source`` is where the text is
    read from: a regular file's path, or the text itself when it came from
    anywhere else.  The text's first ``header`` bytes are the header (a
    byte order mark and the line terminator included), and record ``r`` is
    the ``lengths[r]`` bytes after record ``r - 1``, line terminator
    included.  ``lengths`` is in the narrowest unsigned type that holds the
    longest, so ``uint8`` while no record is longer than 255 bytes.
    ``edited`` lists in ascending order the records whose codes no longer
    match their bytes in the text.  ``parsed`` counts the records the load
    split into cells; the others took their codes from the microfile passed
    as ``like``.  Code arrays, vocabularies and lengths are never changed in
    place; a rewrite copies the ones it changes.  A load with ``like``
    shares every vocabulary and code array of ``like`` to which no parsed
    record added a value or changed a code, and ``like``'s lengths when
    every record has the length of ``like``'s.
    """

    attributes: list[str]
    codes: list[np.ndarray]
    vocabularies: list[dict[str, int]]
    source: _Source
    header: int
    lengths: np.ndarray
    delimiter: str
    edited: np.ndarray
    parsed: int

    @classmethod
    def from_rows(cls, attributes: Iterable[str], rows: Iterable[Iterable[str]],
                  delimiter: str = ",") -> Microfile:
        """Serialise ``rows`` under a header of ``attributes`` and parse the text."""
        lines = (_format_record(list(row), (), delimiter) + "\n" for row in [attributes, *rows])
        return _parse(_Source(data="".join(lines).encode("utf-8")), delimiter)

    def __len__(self) -> int:
        return len(self.lengths)

    def column_index(self, attribute: str) -> int:
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise MicrofileError(
                f"unknown attribute {attribute!r} (file has {list(self.attributes)})"
            ) from None

    def lookup(self, attribute: str, table: dict, default) -> tuple[np.ndarray, np.ndarray]:
        """Per code of ``attribute``, ``table`` applied to its value; and the attribute's code column.

        Values missing from ``table`` map to ``default``.  The table is
        applied once per vocabulary entry, so a block of records' mapped
        values is the first array indexed by the block of the second.
        Non-negative integers come back in the narrowest unsigned type that
        holds the largest; other integers as ``int64``.
        """
        j = self.column_index(attribute)
        mapped = np.array([table.get(value, default) for value in self.vocabularies[j]])
        if mapped.dtype.kind in "iu" and mapped.min() >= 0:
            mapped = mapped.astype(np.min_scalar_type(mapped.max()))
        return mapped, self.codes[j]


@dataclass(frozen=True)
class AttributeSpec:
    """Vital/parameter attribute selection defining one anonymity task.

    ``vital_combinations`` are value tuples over ``vital_attributes``; a
    record is vital when its vital-attribute values equal any combination.
    ``parameter_values`` order defines the signal index order.  The
    denominator of each ratio counts every record in the parameter group
    when ``denominator_filter`` is None, and otherwise only those it
    passes (an (attribute, allowed-values) pair; not on a vital attribute,
    whose cells the rewrite changes).
    ``fallback_combination`` is what a vital record becomes when the rewrite
    must shrink a group; there is deliberately no default.
    """

    vital_attributes: tuple[str, ...]
    vital_combinations: tuple[tuple[str, ...], ...]
    parameter_attribute: str
    parameter_values: tuple[str, ...]
    denominator_filter: tuple[str, tuple[str, ...]] | None = None
    fallback_combination: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "vital_attributes", tuple(self.vital_attributes))
        object.__setattr__(
            self, "vital_combinations", tuple(tuple(c) for c in self.vital_combinations)
        )
        object.__setattr__(self, "parameter_values", tuple(self.parameter_values))
        if not self.vital_attributes:
            raise MicrofileError("at least one vital attribute is required", field="vital_attributes")
        if len(set(self.vital_attributes)) != len(self.vital_attributes):
            raise MicrofileError("vital attributes must be distinct", field="vital_attributes")
        if not self.vital_combinations:
            raise MicrofileError(
                "at least one vital value combination is required", field="vital_combinations"
            )
        if self.parameter_attribute in self.vital_attributes:
            raise MicrofileError(
                f"parameter attribute {self.parameter_attribute!r} cannot also be vital",
                field="parameter_attribute",
            )
        arity = len(self.vital_attributes)
        for combo in self.vital_combinations:
            if len(combo) != arity:
                raise MicrofileError(
                    f"vital combination {combo!r} does not cover the {arity} vital attribute(s)",
                    field="vital_combinations",
                )
        if len(set(self.vital_combinations)) != len(self.vital_combinations):
            raise MicrofileError("vital combinations must be distinct", field="vital_combinations")
        if not self.parameter_values:
            raise MicrofileError("at least one parameter value is required", field="parameter_values")
        if len(set(self.parameter_values)) != len(self.parameter_values):
            raise MicrofileError("parameter values must be distinct", field="parameter_values")
        if self.denominator_filter is not None:
            attr, values = self.denominator_filter
            if attr in self.vital_attributes:
                raise MicrofileError(
                    f"denominator attribute {attr!r} cannot also be vital", field="denominator_filter"
                )
            object.__setattr__(self, "denominator_filter", (attr, tuple(values)))
        if self.fallback_combination is not None:
            fallback = tuple(self.fallback_combination)
            if len(fallback) != arity:
                raise MicrofileError(
                    f"fallback combination {fallback!r} does not cover the {arity} vital attribute(s)",
                    field="fallback_combination",
                )
            if fallback in self.vital_combinations:
                raise MicrofileError(
                    "fallback combination must not itself be vital", field="fallback_combination"
                )
            object.__setattr__(self, "fallback_combination", fallback)


@dataclass(frozen=True)
class ConcentrationSignal:
    """Per parameter value of the spec, in its order: vital count, group denominator, and their ratio."""

    numerators: np.ndarray
    denominators: np.ndarray

    @property
    def ratios(self) -> np.ndarray:
        return self.numerators / self.denominators


def load_microfile(source, delimiter: str = ",", *, like: Microfile | None = None) -> Microfile:
    """Read a delimited UTF-8 text microfile with a header row.

    ``source`` is a path or an object whose ``read()`` returns text or
    bytes.  ``delimiter`` is one ASCII character other than a quote or a
    line break; fields may be quoted as :mod:`csv` writes them (see the
    module docstring for the forms rejected).  Every attribute the header
    names is loaded; a UTF-8 byte order mark before the header is not part
    of the first name, and writing keeps it.  Only a record or a field the
    load has not yet seen is decoded; a malformed record is still reported
    at its own line number, as a full parse would, unless the text changed
    since the load's first read of it, which is then reported instead.

    A path to a regular file is resolved now and read a block or a chunk at
    a time by this load and by every later pass that needs the text (a delta
    load against the microfile, a write), which checks its size and CRC-32.
    A file object's text, and any other path's (a pipe, a device), are kept.

    ``like`` is a microfile the text mostly repeats, such as the original
    of a release.  When the text has ``like``'s record count, delimiter and
    attribute names (however its header spells them) and no rewrite has
    edited ``like``, the result keeps ``like``'s codes: a value new to
    ``like`` joins the end of a copy of its vocabulary, so equal values
    have equal codes in both.  Each record whose bytes equal ``like``'s
    record at the same position takes ``like``'s codes; only the other
    records are re-parsed, with every check of a full parse.  Otherwise the
    text is parsed in full.  The decoded values never depend on ``like``;
    the codes and vocabularies may.
    """
    if hasattr(source, "read"):
        data = source.read()
        text = _Source(data=data.encode("utf-8") if isinstance(data, str) else data)
    elif Path(source).is_file():
        text = _Source(path=Path(source).resolve())
    else:
        # A pipe or a device cannot be read again, so its text is kept.
        with open(source, "rb") as handle:
            text = _Source(data=handle.read())
    return _parse(text, delimiter, like)


def _parse(source: _Source, delimiter: str, like: Microfile | None = None) -> Microfile:
    """The microfile of ``source``'s text; see :func:`load_microfile` for ``like``, whose text is read in step."""
    if len(delimiter) != 1 or not delimiter.isascii() or delimiter in '"\r\n':
        raise MicrofileError(
            f"delimiter must be one ASCII character other than a quote or line break, got {delimiter!r}"
        )
    header, lengths, source = _line_ends(source, delimiter)
    if not lengths.size:  # no record after the header, if any
        raise MicrofileError("empty file")
    with ExitStack() as stack:
        readers = [stack.enter_context(_Reader(source))]
        try:
            head = readers[0].read(header)
            attributes = _header(head, delimiter)
            if like is not None and (len(like) != len(lengths) or like.delimiter != delimiter
                                     or like.attributes != attributes or like.edited.size):
                like = None
            if like is not None:
                # like's header is read, whatever its bytes, so that its records are read in step.
                readers.append(stack.enter_context(_Reader(like.source)))
                readers[1].read(like.header)
                if all(np.array_equal(lengths[r : r + _CHUNK_ROWS], like.lengths[r : r + _CHUNK_ROWS])
                       for r in range(0, len(lengths), _CHUNK_ROWS)):
                    lengths = like.lengths
            codes, lines = _split_lines(readers, delimiter, len(attributes), lengths, like)
        finally:  # also when the parse fails: a changed text is reported instead
            for reader in readers:
                reader.check()
    return Microfile(attributes, codes, lines.indexes, source, header, lengths, delimiter,
                     np.empty(0, dtype=np.intp), lines.parsed)


def _line_ends(source: _Source, delimiter: str) -> tuple[int, np.ndarray, _Source]:
    """The header's length, each record's length, and ``source`` with its size and CRC-32.

    A record ends at "\n", "\r\n" or a lone "\r" outside quotes; the last
    may lack its line break.  A length counts the line break, and the
    header's a byte order mark before it.  The text is read
    ``_BLOCK_BYTES`` at a time (all at once, when shorter) into one buffer,
    whose two byte masks are made once per scan, and the differences of
    each block's breaks are written straight into the result, the only
    array as long as the text's records.  It is sized from the records per
    byte seen so far and resized in place (``realloc`` remaps rather than
    copies), and it is ``uint8`` until a longer record comes (a block whose
    breaks lie further apart than the type holds is checked for first),
    then copied to the narrowest type that holds it.  Only a block that holds a quote,
    or starts inside quotes, has its quotes found: a break is dropped when
    an odd number of quotes come before it, counting the parity carried
    from the blocks before.  A quote that neither opens nor closes a field
    (it must follow or precede a delimiter, a line break or the other quote
    of a ``""`` pair), or an unclosed one, raises a
    :class:`MicrofileError` that names the record's line.
    """
    lengths = np.empty(1, dtype=np.uint8)
    header = 0
    # The lines ended so far, the header's included, and the offset just past the last.
    n = last = 0

    def widen(top) -> None:
        nonlocal lengths
        wide = np.min_scalar_type(top)
        if not np.can_cast(wide, lengths.dtype):
            lengths = lengths.astype(wide)

    def end(offset: int) -> None:
        """End the next line, the header or a record, just before ``offset``."""
        nonlocal header, n, last
        if n:
            widen(offset - last)
            lengths[n - 1] = offset - last
        else:
            header = offset
        n += 1
        last = offset

    # Whether the text read so far ends inside quotes, in a CR outside them
    # (a line break unless the next block starts with "\n"), and in a
    # closing quote (checked against the next block's first byte).
    inside = cr = closed = False
    # The bytes that may stand before an opening quote or after a closing one.
    fences = np.zeros(256, dtype=bool)
    fences[[ord(delimiter), _LF, _CR, _QUOTE]] = True
    before = _LF  # the byte before the block; the first record starts as if after a line break
    with source.open() as stream:
        expected = stream.seek(0, io.SEEK_END)
        stream.seek(0)
        # A byte order mark is not scanned, so the header's first field starts after it.
        size = len(_BOM) if stream.read(len(_BOM)) == _BOM else 0
        stream.seek(size)
        crc = zlib.crc32(_BOM[:size])
        block = bytearray(min(_BLOCK_BYTES, max(expected, 1)))
        buf = np.frombuffer(block, dtype=np.uint8)
        masks = [np.empty(len(block), dtype=bool) for _ in range(2)]
        while count := stream.readinto(block):
            stop = size + count
            if closed and not fences[block[0]]:
                raise MicrofileError(f"line {n + 1} has text after a closing quote")
            lone = cr and block[0] != _LF
            at = _breaks(block, buf[:count], [mask[:count] for mask in masks])
            if inside or block.find(b'"', 0, count) != -1:
                quotes = np.flatnonzero(np.equal(buf[:count], _QUOTE, out=masks[0][:count]))
                at = at[(np.searchsorted(quotes, at) + inside) % 2 == 0]
                # Quote k opens quotes when k + inside is even.  The byte before
                # an opening quote, and the one after a closing quote, must be
                # a fence.  Past the block's edges, the byte before it and a
                # line break stand in (the real byte after is checked with the
                # next block).
                opens = np.zeros(quotes.size, dtype=bool)
                opens[int(inside) :: 2] = True
                padded = np.pad(buf[:count], 1, constant_values=(before, _LF))
                bad = ~fences[padded[np.where(opens, quotes, quotes + 2)]]
                if bad.any():
                    fault = int(np.argmax(bad))
                    line = n + lone + np.searchsorted(at, quotes[fault]) + 1
                    what = "a quote inside an unquoted field" if opens[fault] else "text after a closing quote"
                    raise MicrofileError(f"line {line} has {what}")
                inside ^= quotes.size % 2 == 1
                del quotes
            need = n + lone + at.size  # records, and a last one without a break
            if need > lengths.size:
                lengths.resize(max(need, need * expected // stop), refcheck=False)
            if lone:
                end(size)
            if at.size:
                end(size + 1 + int(at[0]))
                if _gap_over(at, np.iinfo(lengths.dtype).max):
                    widen(np.diff(at).max())
                # The lengths of the block's other lines, found in the result's
                # own type, so the offsets are cast a buffer at a time.
                np.subtract(at[1:], at[:-1], out=lengths[n - 1 : n + at.size - 2],
                            dtype=lengths.dtype, casting="unsafe")
                n += at.size - 1
                last = size + 1 + int(at[-1])
            del at  # before the next block's are found
            before = block[count - 1]
            cr = before == _CR and not inside
            closed = before == _QUOTE and not inside
            crc = zlib.crc32(memoryview(block)[:count], crc)
            size = stop
    if inside:
        raise MicrofileError(f"line {n + 1} has an unterminated quote")
    if n == 0 or last != size:
        end(size)
    lengths.resize(n - 1, refcheck=False)
    return header, lengths, replace(source, size=size, crc=crc)


def _gap_over(at: np.ndarray, limit: int) -> bool:
    """Whether two neighbours of the ascending offsets ``at`` lie more than ``limit`` apart.

    Comparing two views of ``at`` makes only a mask, where their difference
    would be a copy, so the odd entries are moved in place by ``limit``,
    compared with their even neighbours on each side, and moved back.
    """
    if not at.size or at[-1] - at[0] <= limit:
        return False
    odd = at[1::2]
    odd -= limit
    over = bool((odd > at[0::2][: odd.size]).any())  # at[2k + 1] - at[2k] > limit
    odd += 2 * limit
    over |= bool((at[2::2] > odd[: at[2::2].size]).any())  # at[2k + 2] - at[2k + 1] > limit
    odd -= limit
    return over


def _breaks(block: bytearray, buf: np.ndarray, masks: list[np.ndarray]) -> np.ndarray:
    """The offsets of the bytes of ``buf`` (a view of ``block``) that end a line, quotes aside.

    ``masks`` is two scratch arrays as long as ``buf``.  A CR that is the
    last byte is left to the caller, which knows the byte after it.
    """
    breaks, crs = masks
    np.equal(buf, _LF, out=breaks)
    if block.find(b"\r", 0, buf.size) != -1:
        # A CR ends a line unless a "\n" follows it.
        np.equal(buf, _CR, out=crs)
        np.greater(crs[:-1], breaks[1:], out=crs[:-1])
        crs[-1] = False
        breaks |= crs
    return np.flatnonzero(breaks)


def _decode(text: bytes, line_at) -> str:
    """``text`` as UTF-8; an error names the line ``line_at`` gives for the bad byte's offset."""
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MicrofileError(f"line {line_at(exc.start)} is not UTF-8 text ({exc.reason})") from None


def _header(head: bytes, delimiter: str) -> list[str]:
    """The attribute names of the header record ``head``, which may open with a byte order mark."""
    buf = np.frombuffer(head + b"\n", dtype=np.uint8)  # a byte after the last field, for _decode_fields
    start = len(_BOM) if head.startswith(_BOM) else 0
    stop = int(_last(buf, np.array([start]), np.array([len(head)]))[0])
    if stop == start:
        raise MicrofileError("line 1 names no attribute")
    _decode(head, lambda offset: 1)
    edges = np.concatenate(([start - 1], _separators(buf, stop, delimiter), [stop]))
    attributes = [name.strip() for name in _decode_fields(buf, edges[:-1] + 1, np.diff(edges) - 1, delimiter)]
    if len(set(attributes)) != len(attributes):
        raise MicrofileError("duplicate attribute names in header")
    return attributes


def _code_type(size: int) -> np.dtype:
    """The narrowest unsigned type that holds every code of a vocabulary of ``size`` values."""
    return np.min_scalar_type(size - 1)


def _encode(values: Sequence[str], index: dict[str, int]) -> np.ndarray:
    """Codes of ``values``; unseen values join ``index`` in order of appearance."""
    before = len(index)
    index.update(zip(filterfalse(index.__contains__, dict.fromkeys(values)), count(before)))
    if len(index) - before == len(values):
        # Every value was new and distinct: its code is its position.
        return np.arange(before, len(index), dtype=np.int32)
    return np.fromiter(map(index.__getitem__, values), dtype=np.int32, count=len(values))


def _offset_type(lengths: np.ndarray) -> type:
    """The type of offsets within a chunk of records of byte lengths ``lengths``: ``_CHUNK_ROWS`` (at most 2**15) records of under 2**16 bytes span under 2 GiB."""
    return np.int32 if lengths.dtype.itemsize <= 2 else np.int64


def _split_lines(readers: list[_Reader], delimiter: str, q: int, lengths: np.ndarray, like: Microfile | None):
    """The code columns of the records of byte lengths ``lengths``, parsed a chunk at a time, and the :class:`_Lines` that parsed them."""
    n = len(lengths)
    if like is None:
        lines = _Lines(delimiter, [{} for _ in range(q)], [None] * q)
        codes = [np.empty(n, dtype=np.uint8) for _ in range(q)]
        chunks = _chunks(readers[0], lengths)
    else:
        # like's own vocabularies and arrays, copied only when a parsed record changes one.
        lines = _Lines(delimiter, list(like.vocabularies), like.vocabularies)
        codes = list(like.codes)
        chunks = _changed_chunks(readers, lengths, like.lengths)
    for at, rows, buf, ends in chunks:
        for j, column in enumerate(lines.parse(buf, ends - lengths[at], ends, rows)):
            wide = _code_type(len(lines.indexes[j]))
            if not np.can_cast(wide, codes[j].dtype):
                # A copy, so a column shared with like is never widened in place.
                codes[j] = codes[j].astype(wide)
            elif like is not None and codes[j] is like.codes[j]:
                if np.array_equal(codes[j][at], column):
                    continue
                codes[j] = codes[j].copy()
            codes[j][at] = column
    return codes, lines


def _chunks(reader: _Reader, lengths: np.ndarray):
    """The records of byte lengths ``lengths``, ``_CHUNK_ROWS`` at a time: their index into a column, their rows, a buffer that holds them and where each ends in it.

    One buffer serves every chunk, with room after the last record for the
    words of its last line (see :func:`_pack`).
    """
    offset_type = _offset_type(lengths)
    buf = np.empty(0, dtype=np.uint8)
    for r0 in range(0, len(lengths), _CHUNK_ROWS):
        chunk = lengths[r0 : r0 + _CHUNK_ROWS]
        size = int(chunk.sum())
        if buf.size < size + 8:
            buf = np.empty(size + 8, dtype=np.uint8)
        reader.readinto(buf[:size])
        yield slice(r0, r0 + chunk.size), range(r0, r0 + chunk.size), buf, np.cumsum(chunk, dtype=offset_type)


def _changed_chunks(readers: list[_Reader], lengths: np.ndarray, old_lengths: np.ndarray):
    """As :func:`_chunks`, for only the records whose bytes differ from the other text's at the same position.

    ``readers`` reads the text and then the other text, whose records have
    the byte lengths ``old_lengths``.  The two are compared a chunk of rows
    at a time, and the records that differ are gathered until they fill a
    chunk, so the parse steps are as few as the changed records allow.
    """
    offset_type = _offset_type(lengths)
    new, old = np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.uint8)
    rows, pieces, count = [], [], 0
    for r0 in range(0, len(lengths), _CHUNK_ROWS):
        chunk, old_chunk = lengths[r0 : r0 + _CHUNK_ROWS], old_lengths[r0 : r0 + _CHUNK_ROWS]
        size, old_size = int(chunk.sum()), int(old_chunk.sum())
        if new.size < size:
            new = np.empty(size, dtype=np.uint8)
        if old.size < old_size:
            old = np.empty(old_size, dtype=np.uint8)
        readers[0].readinto(new[:size])
        readers[1].readinto(old[:old_size])
        changed = np.flatnonzero(_changed(new[:size], chunk, old[:old_size], old_chunk))
        if count + changed.size > _CHUNK_ROWS:
            yield _joined(rows, pieces, lengths, offset_type)
            rows, pieces, count = [], [], 0
        if changed.size:
            sizes = chunk[changed]
            rows.append(r0 + changed)
            pieces.append(_gather(new, np.cumsum(chunk, dtype=offset_type)[changed] - sizes, sizes))
            count += changed.size
    if count:
        yield _joined(rows, pieces, lengths, offset_type)


def _joined(rows: list[np.ndarray], pieces: list[np.ndarray], lengths: np.ndarray, offset_type) -> tuple:
    """The records ``rows`` (ascending), whose bytes are ``pieces``, as one chunk of :func:`_chunks`."""
    rows = np.concatenate(rows)
    buf = np.concatenate(pieces + [np.zeros(8, dtype=np.uint8)])
    return rows, rows, buf, np.cumsum(lengths[rows], dtype=offset_type)


class _Lines:
    """What one load keeps from chunk to chunk: vocabularies, and key tables (:class:`_Table`) of records or of fields.

    The first chunk with more new distinct records than half its rows
    switches the load from one table of records to a table per column.  A
    column's table takes a chunk's new fields only while the column has at
    most one value per two records parsed, a rule that does not depend on
    the chunk's size.
    """

    def __init__(self, delimiter: str, indexes: list[dict[str, int]], shared: list[dict[str, int] | None]):
        self.delimiter, self.indexes = delimiter, indexes
        # The vocabularies of like, each copied before the first value it lacks joins it.
        self.shared = shared
        self.lines: _Table | None = _Table(len(indexes))
        self.fields: list[_Table] = []
        self.parsed = 0

    def parse(self, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, rows: Sequence[int]):
        """Per column, the ``int32`` codes of the records ``rows``, which are ``buf[starts[i]:ends[i]]``.

        ``buf`` holds 8 bytes past the last record (see :func:`_pack`).
        """
        self.parsed += len(rows)
        try:
            if self.lines is not None:
                codes = self._lines(buf, starts, ends, rows)
                if codes is not None:
                    return codes
                self.lines = None
                self.fields = [_Table(1) for _ in self.indexes]
            return self._fields(buf, starts, ends, rows)
        except UnicodeDecodeError:
            self._fail(buf, starts, ends, rows)

    def _lines(self, buf, starts, ends, rows):
        # A record is keyed by its bytes before its last byte, the line break;
        # only the text's last record may lack one.
        sizes = ends - starts - 1
        sizes[-1] += buf[ends[-1] - 1] != _LF
        codes, new = self.lines.lookup(buf, starts, sizes)
        if not new.at.size:
            return codes
        firsts, classes = new.classes()
        if 2 * firsts.size > len(rows):
            return None
        # The first record of each new class (equal records fail alike), each
        # with its line break and one byte after all, split and decoded.
        f = new.at[firsts]
        line_sizes = ends[f] - starts[f]
        lines = np.append(_gather(buf, starts[f], line_sizes), np.uint8(_LF))
        line_ends = np.cumsum(line_sizes)
        edges = self._split(lines, line_ends - line_sizes, line_ends, [rows[i] for i in f.tolist()])
        cells = _decode_fields(lines, (edges[:, :-1] + 1).ravel(), (np.diff(edges) - 1).ravel(), self.delimiter)
        q = len(self.indexes)
        values = np.stack([self._encode(j, cells[j::q]) for j in range(q)])
        self.lines.add(new, firsts, values)
        codes[:, new.at] = values[:, classes]
        return codes

    def _fields(self, buf, starts, ends, rows):
        edges = self._split(buf, starts, ends, rows)
        columns = []
        for j, table in enumerate(self.fields):
            first = edges[:, j] + 1
            sizes = edges[:, j + 1] - first
            codes, new = table.lookup(buf, first, sizes)
            codes = codes[0]
            if new.at.size:
                firsts, classes = new.classes()
                f = new.at[firsts]
                values = self._encode(j, _decode_fields(buf, first[f], sizes[f], self.delimiter))
                # A column with more values than half the records parsed (an
                # identifier) would only grow its table; its codes are taken
                # as they are.
                if 2 * len(self.indexes[j]) <= self.parsed:
                    table.add(new, firsts, values[None])
                codes[new.at] = values[classes]
            columns.append(codes)
        return columns

    def _split(self, buf, starts, ends, rows):
        """Per record ``buf[starts[i]:ends[i]]``, the q + 1 edges of its fields: the byte before its first, its delimiters, its last's end.

        When there are q - 1 delimiters outside quotes per record and each
        record's lie inside it, every record has q fields; otherwise the
        records fail (see :meth:`_fail`).
        """
        q = len(self.indexes)
        delimiters = _separators(buf, ends[-1], self.delimiter).astype(starts.dtype)
        if delimiters.size != len(starts) * (q - 1):
            self._fail(buf, starts, ends, rows)
        edges = np.column_stack([starts - 1, delimiters.reshape(len(starts), q - 1), _last(buf, starts, ends)])
        if q == 1:
            fits = (edges[:, 1] - edges[:, 0] > 1).all()  # an empty record has no field
        else:
            fits = (edges[:, 1] > edges[:, 0]).all() and (edges[:, -2] < edges[:, -1]).all()
        if not fits:
            self._fail(buf, starts, ends, rows)
        return edges

    def _encode(self, j: int, values: list[str]) -> np.ndarray:
        if self.indexes[j] is self.shared[j] and not all(map(self.indexes[j].__contains__, values)):
            self.indexes[j] = dict(self.indexes[j])
        return _encode(values, self.indexes[j])

    def _fail(self, buf, starts, ends, rows) -> NoReturn:
        """Raise the error a full parse of the records ``rows`` (ascending), which are ``buf[starts[i]:ends[i]]``, raises first.

        A full parse fails at its first chunk that holds a faulty record: at
        that chunk's first record that is not UTF-8 text, else at its first
        record without one field per attribute.
        """
        q = len(self.indexes)
        # A record has one field more than it has delimiters, unless it is empty.
        fields = np.diff(np.searchsorted(_separators(buf, ends[-1], self.delimiter), ends), prepend=0) + 1
        fields[_last(buf, starts, ends) == starts] = 0
        ragged = np.flatnonzero(fields != q)
        # The records up to the end of the first ragged record's chunk.
        stop = np.searchsorted(rows, (rows[ragged[0]] // _CHUNK_ROWS + 1) * _CHUNK_ROWS) if ragged.size else len(rows)
        _decode(buf[: ends[stop - 1]].tobytes(), _line_at(rows, ends - starts))
        r = ragged[0]
        raise MicrofileError(f"line {rows[r] + 2} has {fields[r]} fields, expected {q}")


def _last(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Where the last field of each record ``buf[starts[i]:ends[i]]`` ends: before its line break."""
    last = ends - (buf[ends - 1] == _LF)
    last -= (last > starts) & (buf[last - 1] == _CR)
    return last


def _separators(buf: np.ndarray, stop, delimiter: str) -> np.ndarray:
    """The offsets of the delimiters in ``buf[:stop]`` (which starts outside quotes) that an even number of quotes precede.

    Every byte of a multi-byte UTF-8 character is above 127, so an ASCII
    delimiter's byte is found only where the character is.
    """
    view = buf[:stop]
    at = np.flatnonzero(view == ord(delimiter))
    quotes = np.flatnonzero(view == _QUOTE)
    if quotes.size:
        at = at[np.searchsorted(quotes, at) % 2 == 0]
    return at


def _decode_fields(buf: np.ndarray, starts: np.ndarray, sizes: np.ndarray, delimiter: str) -> list[str]:
    """The values of the fields ``buf[starts[i] : starts[i] + sizes[i]]``, each followed in ``buf`` by a byte.

    Each field is gathered with the delimiter after it, so each is checked
    as UTF-8 on its own (an error raises ``UnicodeDecodeError``).  A field
    that holds a quote is quoted (the record-end scan checked it): its
    opening quote, the closing quote that ends it and one quote of each
    ``""`` pair are dropped, and the batch is sliced before each delimiter
    at character offsets (bytes less continuation bytes, ``10xxxxxx``).
    """
    data = _gather(buf, starts, sizes + 1)
    stops = np.cumsum(sizes + 1)  # just past each field's delimiter
    data[stops - 1] = ord(delimiter)
    quotes = np.flatnonzero(data == _QUOTE)
    if not quotes.size:
        return data[:-1].tobytes().decode("utf-8").split(delimiter)
    ending = quotes + 2 == stops[np.searchsorted(stops, quotes, side="right")]
    dropped = quotes[(np.arange(quotes.size) % 2 == 0) | ending]
    data = np.delete(data, dropped)
    stops -= np.searchsorted(dropped, stops)
    text = data.tobytes().decode("utf-8")
    if len(text) != data.size:
        stops -= np.searchsorted(np.flatnonzero((data & 0xC0) == 0x80), stops)
    stops = stops.tolist()
    return [text[start : stop - 1] for start, stop in zip([0] + stops[:-1], stops)]


def _gather(buf: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The bytes ``buf[starts[i] : starts[i] + sizes[i]]`` of each span, one after another.

    The gathered byte k, in span i, is ``buf[k + starts[i] - (bytes before span i)]``.
    """
    index = np.repeat(starts - (np.cumsum(sizes, dtype=starts.dtype) - sizes), sizes)
    index += np.arange(index.size, dtype=index.dtype)
    return buf[index]


def _line_at(rows: np.ndarray, sizes: np.ndarray):
    """For text made of the records ``rows`` with byte lengths ``sizes``, a byte offset's file line."""
    return lambda offset: rows[np.searchsorted(np.cumsum(sizes), offset, side="right")] + 2


# _BYTE_MASKS[k] keeps the first k bytes of a little-endian uint64 word.
_BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _mix(keys: np.ndarray, words: np.ndarray) -> np.ndarray:
    """``keys`` with one more word of each span folded in (a multiply-xorshift step)."""
    keys = keys ^ words
    keys *= np.uint64(0x9E3779B97F4A7C15)
    keys ^= keys >> np.uint64(32)
    return keys


def _pack(buf: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> _Spans:
    """The spans ``buf[starts[i] : starts[i] + sizes[i]]``, packed into words and keyed.

    A span's words are its bytes as little-endian ``uint64`` words, the last
    one zero-padded; an empty span has one word, 0.  ``buf`` holds 8 bytes
    past the last span for that word's read.  A span's key is a mix of its
    size and its words.  A word after the first is read only from the spans
    that have one, so the work grows with the spans' bytes and number, not
    with their number times the longest.
    """
    # Every 8-byte window of buf, as raw bytes: numpy gathers those faster
    # than unaligned integers.
    windows = np.ndarray((buf.size - 7,), dtype="V8", buffer=buf, strides=(1,))
    word = windows[starts].view("<u8")
    word &= _BYTE_MASKS.take(np.minimum(sizes, 8))
    keys = _mix(sizes.astype(np.uint64), word)
    levels = [(slice(None), word)]
    have = np.flatnonzero(sizes > 8)
    while have.size:
        w = 8 * len(levels)
        word = windows[starts[have] + w].view("<u8")
        word &= _BYTE_MASKS.take(np.minimum(sizes[have] - w, 8))
        keys[have] = _mix(keys[have], word)
        levels.append((have, word))
        have = have[sizes[have] > w + 8]
    return _Spans(buf, starts, sizes, keys, levels)


@dataclass
class _Spans:
    """Packed spans of a buffer (see :func:`_pack`); after a lookup, the spans ``at`` of those it was given.

    ``levels[w]`` is the spans that have a word w, ascending (every span,
    as a slice, for word 0), and that word of each.
    """

    buf: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    keys: np.ndarray
    levels: list[tuple[slice | np.ndarray, np.ndarray]]
    at: np.ndarray | None = None

    def bytes(self, i: int) -> bytes:
        return self.buf[self.starts[i] : self.starts[i] + self.sizes[i]].tobytes()

    def take(self, at: np.ndarray) -> _Spans:
        """The spans ``at``, in order."""
        levels = [(slice(None), self.levels[0][1][at])]
        if len(self.levels) > 1:
            position = np.full(self.sizes.size, -1, dtype=np.intp)
            position[at] = np.arange(at.size)
            for have, word in self.levels[1:]:
                kept = position[have]
                keep = kept >= 0
                levels.append((kept[keep], word[keep]))
        return _Spans(self.buf, self.starts[at], self.sizes[at], self.keys[at], levels, at)

    def classes(self) -> tuple[np.ndarray, np.ndarray]:
        """Classes of equal spans: the first span of each, ascending, and each span's class.

        Each span is compared word for word with the first span of its key,
        and the spans that differ (a key collision) are matched by their
        bytes, so a class holds exactly the spans equal to its first.
        Classes are numbered by first appearance.
        """
        _, first, key_class = np.unique(self.keys, return_index=True, return_inverse=True)
        first = first[key_class]  # per span, the first span with its key
        differ = self.sizes != self.sizes[first]
        word = self.levels[0][1]
        differ |= word != word[first]
        for have, word in self.levels[1:]:
            # A span is compared with its key's first when their sizes are
            # equal, so that one has this word too; otherwise with itself.
            other = np.where(differ[have], have, first[have])
            differ[have] |= word != word[np.searchsorted(have, other)]
        seen: dict[bytes, int] = {}
        for i in np.flatnonzero(differ).tolist():
            first[i] = seen.setdefault(self.bytes(i), i)
        index = np.arange(first.size)
        firsts = np.flatnonzero(first == index)
        classes = np.empty_like(index)
        classes[firsts] = np.arange(firsts.size)
        return firsts, classes[first]


class _Table:
    """Spans (lines or fields) seen so far in a load, found by key, each with a column of codes.

    ``keys`` is sorted and holds each key once, with in ``ids`` the entry of
    the first span added under it; an entry whose key was already held is
    found by its bytes in ``others``.  Per entry, ``sizes`` and ``starts``
    give its size and where its words (see :func:`_pack`) start in
    ``words``, and ``values[:, entry]`` its codes.  Entry 0 matches no span
    (its size is -1); it sits under the largest key, so that a search always
    lands on an entry.  Entries are only ever added, so a merge costs the
    size of the table plus the new entries, and never sorts the table.
    """

    def __init__(self, width: int):
        self.keys = np.array([np.iinfo(np.uint64).max], dtype=np.uint64)
        self.ids = np.zeros(1, dtype=np.intp)
        self.sizes = np.array([-1], dtype=np.intp)
        self.starts = np.zeros(1, dtype=np.intp)
        self.words = np.zeros(1, dtype=np.uint64)
        self.values = np.zeros((width, 1), dtype=np.int32)
        self.others: dict[bytes, int] = {}

    def lookup(self, buf: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, _Spans]:
        """The codes of the entry equal to each span ``buf[starts[i] : starts[i] + sizes[i]]``, and the spans with none.

        A span is found by its key and compared word for word with the
        entry found, so its codes are exact.  The codes of the spans with no
        entry are any.
        """
        spans = _pack(buf, starts, sizes)
        entry = self.ids[np.searchsorted(self.keys, spans.keys)]
        same = self.sizes[entry] == sizes
        first = self.starts[entry]
        same &= spans.levels[0][1] == self.words.take(first, mode="clip")
        for w, (have, word) in enumerate(spans.levels[1:], 1):
            same[have] &= word == self.words.take(first[have] + w, mode="clip")
        del first
        if self.others:
            for i in np.flatnonzero(~same).tolist():
                entry[i] = self.others.get(spans.bytes(i), 0)
                same[i] = entry[i] > 0
        miss = np.flatnonzero(~same)
        if miss.size < same.size:
            spans = spans.take(miss)
        else:
            spans.at = miss
        return self.values.take(entry, axis=1), spans

    def add(self, spans: _Spans, firsts: np.ndarray, values: np.ndarray) -> None:
        """Add the spans ``firsts`` of ``spans`` as entries, with the columns of codes ``values``."""
        new = spans.take(firsts)
        ids = self.values.shape[1] + np.arange(firsts.size)
        counts = np.maximum(new.sizes + 7, 8) // 8
        starts = np.cumsum(counts) - counts
        words = np.zeros(int(counts.sum()), dtype=np.uint64)
        for w, (have, word) in enumerate(new.levels):
            words[starts[have] + w] = word
        self.starts = np.concatenate([self.starts, self.words.size + starts])
        self.words = np.concatenate([self.words, words])
        self.sizes = np.concatenate([self.sizes, new.sizes])
        self.values = np.concatenate([self.values, values], axis=1)
        keys, index = np.unique(new.keys, return_index=True)
        at = np.searchsorted(self.keys, keys)
        fresh = self.keys[at] != keys
        self.keys = np.insert(self.keys, at[fresh], keys[fresh])
        self.ids = np.insert(self.ids, at[fresh], ids[index[fresh]])
        held = np.zeros(firsts.size, dtype=bool)
        held[index[fresh]] = True
        for c in np.flatnonzero(~held).tolist():
            self.others[new.bytes(c)] = ids[c]


def _changed(new: np.ndarray, lengths: np.ndarray, old: np.ndarray, old_lengths: np.ndarray) -> np.ndarray:
    """Per record of ``new``, whether its bytes differ from ``old``'s record at the same position.

    ``new`` holds records of byte lengths ``lengths``, one after another;
    ``old`` and ``old_lengths`` are the same for the other text.  Records of
    another length differ.  The records of equal length are compacted out of
    both by a byte mask, compared in one step, and each differing byte marks
    its record.
    """
    same = lengths == old_lengths
    if not same.all():
        new, old = new[np.repeat(same, lengths)], old[np.repeat(same, old_lengths)]
    differing = np.flatnonzero(new != old)
    if differing.size:
        kept = np.flatnonzero(same)
        ends = np.cumsum(lengths[kept], dtype=_offset_type(lengths))
        same[kept[np.searchsorted(ends, differing, side="right")]] = False
    return ~same


def _format_record(values: Sequence[str], quoted: Container[int], delimiter: str) -> str:
    """One record's ``values`` joined by ``delimiter``, without a line terminator.

    Field j is quoted (a quote in it doubled) when ``quoted`` holds j, as for
    a field quoted in the input, or when its value holds the delimiter, a
    quote, CR or LF, or is its record's lone empty field: with nothing in
    ``quoted``, csv's minimal rule.
    """
    record = delimiter.join(values)
    # Most records quote no field; one look at the joined values tells.
    if quoted or not record or record.count(delimiter) >= len(values) or not {'"', "\r", "\n"}.isdisjoint(record):
        special = {delimiter, '"', "\r", "\n"}
        record = delimiter.join('"' + value.replace('"', '""') + '"'
                                if j in quoted or not record or not special.isdisjoint(value) else value
                                for j, value in enumerate(values))
    return record


def write_microfile(mf: Microfile, sink) -> None:
    """Write the microfile back out; inverse of :func:`load_microfile`.

    The header and every record the rewrite did not edit are copied from the
    source's text, a block at a time, so writing a loaded file gives back its
    bytes.  An edited record is read from the source too: it keeps its line
    terminator, and each field is quoted where its input field was (see
    :func:`_format_record`), so a field that keeps its value keeps its
    bytes, and a plain text gets :mod:`csv`'s minimal quoting.  The text read
    is checked against the load's first read, and a :class:`MicrofileError`
    names a source that has changed since.

    ``sink`` is a path or a binary file object.  A path is written through a
    new file in its directory, which replaces it only once the whole text is
    written and checked: a failed write leaves no file behind, and a
    microfile may be written over its own source.  A path that exists and
    is not a regular file (a pipe, a device) is written in place.
    """
    columns = [
        np.asarray(list(vocabulary), dtype=object)[codes[mf.edited]]
        for codes, vocabulary in zip(mf.codes, mf.vocabularies)
    ]
    starts, sizes = _starts(mf.header, mf.lengths, mf.edited), mf.lengths[mf.edited].tolist()

    def copy(write):
        with _Reader(mf.source) as reader:
            position = 0
            for values, start, size in zip(zip(*columns), starts, sizes):
                reader.copy(start - position, write)
                line = reader.read(size)
                quoted = ()
                if b'"' in line:  # else no field is quoted, and the line needs no split
                    buf = np.frombuffer(line + b"\n", dtype=np.uint8)  # a byte after an empty last field
                    first = np.append(0, _separators(buf, len(line), mf.delimiter) + 1)
                    quoted = set(np.flatnonzero(buf[first] == _QUOTE).tolist())
                record = _format_record(values, quoted, mf.delimiter)
                # The line terminator: no field ends in a CR or LF outside quotes.
                write(record.encode("utf-8") + line[len(line.rstrip(b"\r\n")) :])
                position = start + size
            reader.copy(mf.source.size - position, write)
            reader.check()

    if hasattr(sink, "write"):
        copy(sink.write)
        return
    path = Path(sink)
    if path.exists() and not path.is_file():
        with open(path, "wb") as handle:
            copy(handle.write)
        return
    path = path.resolve()
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(temporary, "xb") as handle:
            copy(handle.write)
        if path.exists():
            shutil.copymode(path, temporary)  # as writing into the file would keep it
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def _starts(header: int, lengths: np.ndarray, rows: np.ndarray) -> list[int]:
    """The offset in the text of each record ``rows`` (ascending), whose lengths are summed a block of ``_CHUNK_ROWS`` at a time."""
    starts = []
    position = header
    for r0 in range(0, lengths.size, _CHUNK_ROWS):
        block = lengths[r0 : r0 + _CHUNK_ROWS]
        ends = np.cumsum(block, dtype=_offset_type(lengths))
        picked = rows[np.searchsorted(rows, r0) : np.searchsorted(rows, r0 + block.size)] - r0
        starts += (ends[picked] - block[picked] + np.int64(position)).tolist()
        position += int(ends[-1])
    return starts


class _Buckets:
    """A microfile's records by (group, vital), a block of ``_CHUNK_ROWS`` records at a time.

    Bucket 2g holds the vital records of group g (``spec.parameter_values[g]``)
    and bucket 2g + 1 its other records; records of unlisted values land at
    2m or 2m + 1, with m the count of values, so there are ``count`` = 2m + 2
    buckets.  Iterating gives, per block in order, its slice and each
    record's bucket, in the narrowest unsigned type that holds 2m + 1.  The
    lookups are made once, per vocabulary entry; each pass gathers them by a
    block's codes, so no array has an entry per record.
    """

    def __init__(self, mf: Microfile, spec: AttributeSpec):
        m = len(spec.parameter_values)
        self.count = 2 * m + 2
        # 2g per value; its type, the narrowest that holds 2m, also holds 2m + 1.
        groups = {value: 2 * g for g, value in enumerate(spec.parameter_values)}
        self.groups = mf.lookup(spec.parameter_attribute, groups, 2 * m)
        self.combos = [[mf.lookup(attribute, {value: True}, False)
                        for attribute, value in zip(spec.vital_attributes, combo)]
                       for combo in spec.vital_combinations]

    def __iter__(self):
        group_of, group_codes = self.groups
        for start in range(0, len(group_codes), _CHUNK_ROWS):
            block = slice(start, start + _CHUNK_ROWS)
            # take gathers a small table by a block of codes faster than indexing does.
            vital = reduce(np.logical_or, [reduce(np.logical_and, [hit.take(codes[block]) for hit, codes in combo])
                                           for combo in self.combos])
            buckets = group_of.take(group_codes[block])
            buckets += ~vital
            yield block, buckets


def concentration_signal(mf: Microfile, spec: AttributeSpec) -> ConcentrationSignal:
    """Vital-record share per parameter value, ordered by ``spec.parameter_values``; counted a block of records at a time."""
    m = len(spec.parameter_values)
    buckets = _Buckets(mf, spec)
    counts = np.zeros(buckets.count, dtype=np.intp)
    counted = counts if spec.denominator_filter is None else np.zeros(buckets.count, dtype=np.intp)
    if spec.denominator_filter is not None:
        attribute, allowed = spec.denominator_filter
        kept, codes = mf.lookup(attribute, dict.fromkeys(allowed, True), False)
    for block, bucket in buckets:
        counts += np.bincount(bucket, minlength=buckets.count)
        if spec.denominator_filter is not None:
            counted += np.bincount(bucket[kept.take(codes[block])], minlength=buckets.count)
    numerators, denominators = counts[0 : 2 * m : 2], counted[0 : 2 * m : 2] + counted[1 : 2 * m : 2]
    bad = np.flatnonzero((denominators == 0) | (numerators > denominators))
    if bad.size:
        slot = bad[0]
        value = spec.parameter_values[slot]
        if denominators[slot] == 0:
            raise MicrofileError(f"parameter value {value!r} has a zero denominator")
        raise MicrofileError(
            f"parameter value {value!r} has {numerators[slot]} vital records but a "
            f"denominator of {denominators[slot]}; its ratio would exceed 1"
        )
    return ConcentrationSignal(numerators, denominators)


def new_quantities(final_ratios, denominators) -> tuple[np.ndarray, float]:
    """Integer vital counts realizing the final ratios, plus their mean.

    Counts are rounded half away from zero; the resulting mean typically
    drifts a fraction of a count from the original and is reported rather
    than corrected.
    """
    ratios = np.asarray(final_ratios, dtype=float)
    denom = np.asarray(denominators, dtype=float)
    if ratios.shape != denom.shape:
        raise MicrofileError(
            f"ratios and denominators differ in length: {ratios.shape} vs {denom.shape}"
        )
    if not np.all(np.isfinite(ratios) & (ratios > 0.0)):
        raise MicrofileError("final ratios must be positive and finite")
    products = ratios * denom
    # Half away from zero, in one array operation for all categories.
    counts = np.where(products >= 0, np.floor(products + 0.5), np.ceil(products - 0.5)).astype(np.int64)
    return counts, float(counts.mean())


def rewrite_microfile(
    mf: Microfile,
    spec: AttributeSpec,
    old_counts,
    new_counts,
    seed: int,
) -> Microfile:
    """Return a copy of ``mf`` whose vital counts per parameter value equal ``new_counts``.

    Growth assigns vital combinations (cycling in declaration order) to
    randomly chosen non-vital records of the group; shrinkage rewrites
    randomly chosen vital records to ``spec.fallback_combination``.  Only
    vital-attribute cells change; the record count per group is untouched.
    Record selection is deterministic for a given seed.  The vocabularies
    of the vital attributes are copied and extended with the values the
    rewrite introduces; the others are shared with ``mf``.

    Every group is checked before any cell changes: its vital count must
    match ``old_counts``, its new count must lie between 1 and its capacity
    (vital plus donor records), and shrinking needs a fallback.  The first
    group at fault is named in a :class:`RewriteError`.
    """
    old = np.asarray(old_counts, dtype=int)
    new = np.asarray(new_counts, dtype=int)
    values = spec.parameter_values
    m = len(values)
    if old.shape != (m,) or new.shape != (m,):
        raise RewriteError(f"counts must have one entry per parameter value ({m})")
    buckets = _Buckets(mf, spec)
    sizes = np.zeros(buckets.count, dtype=np.intp)
    for _, bucket in buckets:
        sizes += np.bincount(bucket, minlength=buckets.count)
    found, donors = sizes[0 : 2 * m : 2], sizes[1 : 2 * m : 2]
    capacity = found + donors

    fault = (found != old) | (new < 1) | (new > capacity)
    if spec.fallback_combination is None:
        fault |= new < old
    if fault.any():
        g = int(np.argmax(fault))
        value = values[g]
        if found[g] != old[g]:
            raise RewriteError(
                f"parameter value {value!r}: expected {old[g]} vital records, found {found[g]}"
            )
        if new[g] > capacity[g]:
            raise RewriteError(
                f"parameter value {value!r}: need {new[g] - old[g]} donor records, only "
                f"{donors[g]} available (new vital count {new[g]}, capacity {capacity[g]})"
            )
        if new[g] < 1:
            raise RewriteError(
                f"parameter value {value!r}: new vital count {new[g]} is below 1 "
                f"(capacity {capacity[g]}); the release would empty the vital group"
            )
        raise RewriteError(
            f"parameter value {value!r}: shrinking the vital group requires a fallback_combination"
        )

    rng = random.Random(seed)
    pool_sizes = sizes.tolist()
    pools, ranks, cycle = [], [], []
    for g in np.flatnonzero(new != old).tolist():
        delta = int(new[g] - old[g])
        pool = 2 * g + (delta > 0)
        # A pool's rows are ranked in ascending order, so its sorted sampled
        # ranks pick the rows that sampling its row list itself would.
        ranks += sorted(rng.sample(range(pool_sizes[pool]), abs(delta)))
        pools += [pool] * abs(delta)
        if delta > 0:
            cycle += range(delta)
    pools = np.array(pools, dtype=np.intp)
    rows = _rows_of_ranks((bucket for _, bucket in buckets), sizes, pools, np.array(ranks, dtype=np.intp))
    grown, shrunk = rows[pools % 2 == 1], rows[pools % 2 == 0]

    codes = list(mf.codes)
    vocabularies = list(mf.vocabularies)
    for position, attribute in enumerate(spec.vital_attributes):
        j = mf.column_index(attribute)
        # Values the column has not seen yet extend its vocabulary; then the
        # column is copied once, at the width that vocabulary needs.
        index = dict(vocabularies[j])
        edits = []
        if grown.size:
            combos = [combo[position] for combo in spec.vital_combinations]
            edits.append((grown, _encode(combos, index)[np.array(cycle) % len(combos)]))
        if shrunk.size:
            edits.append((shrunk, _encode([spec.fallback_combination[position]], index)))
        column = codes[j].astype(_code_type(len(index)))
        for at, values in edits:
            column[at] = values
        codes[j], vocabularies[j] = column, index
    # Sorted, each row once; np.union1d would import numpy.ma for its check of a masked input.
    edited = np.sort(np.concatenate([mf.edited, rows]))
    edited = edited[np.diff(edited, prepend=-1) != 0]
    return replace(mf, codes=codes, vocabularies=vocabularies, edited=edited)


def _rows_of_ranks(blocks: Iterable[np.ndarray], sizes: np.ndarray, pools: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Per pick ``i``, the row of rank ``ranks[i]`` (from 0) among the rows of bucket ``pools[i]``.

    ``blocks`` gives every row's bucket, a block of consecutive rows at a
    time; ``buckets`` below is their concatenation.  The result is
    ``np.argsort(buckets, kind="stable")[edges[pools] + ranks]``, with
    ``edges[b]`` the rows in buckets below ``b`` (``sizes`` counts each
    bucket's rows), for picks in ascending (pool, rank) order.  It is found
    without that order of every row: each block is counted, and only a
    block that holds a pick is sorted, on its own.  No block is made after
    the last pick's.
    """
    # Per bucket, the sorted position of its first row in the block, and its
    # first pick there or after.
    seen = np.cumsum(sizes) - sizes
    positions = seen[pools] + ranks
    lo = np.searchsorted(positions, seen)
    rows = np.empty(positions.size, dtype=np.intp)
    found = start = 0
    for block in blocks:
        if found == positions.size:
            break
        counts = np.bincount(block, minlength=sizes.size)
        # Bucket b's picks in the block are positions[lo[b] : hi[b]].
        hi = np.searchsorted(positions, seen + counts)
        take = hi - lo
        if take.any():
            picks = np.arange(take.sum()) + np.repeat(lo - (np.cumsum(take) - take), take)
            order = np.argsort(block, kind="stable")
            at = np.repeat(np.cumsum(counts) - counts - seen, take) + positions[picks]
            rows[picks] = start + order[at]
            found += picks.size
        seen += counts
        lo = hi
        start += block.size
    return rows


def count_changes(before: Microfile, after: Microfile, attributes: Container[str]) -> tuple[int, int]:
    """The records whose cells of ``attributes`` differ between the two files, and the differing cells of the other attributes.

    ``after`` has ``before``'s records and attributes, in ``before``'s codes
    (a load with ``like=before`` reads a release so).  The code columns are
    compared a block of ``_CHUNK_ROWS`` records at a time, and a column that
    ``after`` shares with ``before`` is not compared.
    """
    columns = [(j, attribute in attributes) for j, attribute in enumerate(before.attributes)
               if after.codes[j] is not before.codes[j]]
    records = cells = 0
    for start in range(0, len(before), _CHUNK_ROWS):
        block = slice(start, start + _CHUNK_ROWS)
        changed = False
        for j, counted in columns:
            differs = before.codes[j][block] != after.codes[j][block]
            if counted:
                changed = changed | differs
            else:
                cells += int(np.count_nonzero(differs))
        records += int(np.count_nonzero(changed))
    return records, cells
