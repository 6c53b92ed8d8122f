"""Attacks on a released microfile that know only the release and the run's config.

An attack reads the released text and the :class:`groupanon.cli.RunConfig`
it was made with, never the input, and returns what it claims to find.  A
release that hides its edits makes each attack find nothing.

``quoting_outliers`` finds the records whose fields are quoted otherwise
than the file's other records: a writer that quotes an edited record by a
rule of its own, instead of as its input record was quoted, marks exactly
the records the rewrite picked.
"""

import re
from collections import Counter

# Stands in for each quoted field (NUL bytes of the text are dropped first).
_QUOTED = "\0"


def quoting_outliers(release: bytes, config) -> list[int]:
    """The records (numbered from 0 after the header) not quoted the way most records of ``release`` are.

    A record's quoting is which of its fields are quoted.  Each quoted
    field, line breaks and delimiters inside it included, becomes one
    marker; the unquoted text between delimiters is then dropped, so what is
    left of each line is its quoting.
    """
    d = re.escape(config.delimiter)
    text = re.sub(r'"[^"]*(?:""[^"]*)*"', _QUOTED, release.decode("utf-8").replace(_QUOTED, ""))
    text = re.sub(rf"[^{d}{_QUOTED}\r\n]+", "", text)
    quoting = re.split(r"\r\n|\n|\r", text)[1:]
    if release.endswith((b"\n", b"\r")):
        quoting.pop()  # after the last line break
    usual = Counter(quoting).most_common(1)[0][0] if quoting else None
    return [r for r, way in enumerate(quoting) if way != usual]
