"""The line-by-line edge-list reader: the reference the byte reader is checked against.

It reads each line of a text source through the library's per-line
grammar (``graph._records``), one Python step per line, with none of the
byte reader's chunks or array parsing.  Nothing here is used by the
library, whose every source goes through ``graph._file_arrays``.
"""

from __future__ import annotations

from typing import Iterator

from trisample.graph import _records


def edge_records(source) -> Iterator:
    """The records of an open text file or an iterable of lines, one line an item.

    Yields the count of the ``# n=<count>`` header first (``None`` when
    there is none), then each edge record as ``(u, v)`` in input order;
    a malformed line raises the library's ``ParseError`` naming it.
    """
    header: list[int] = []
    records = _records(enumerate(source, start=1), header)
    first = next(records, None)
    yield header[0] if header else None
    if first is None:
        return
    yield first
    yield from records
