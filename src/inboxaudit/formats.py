"""The file formats at the pipeline's edges: every hand-kept CSV input
table is read by ``read_table``, and every JSONL artifact is written by
``write_jsonl``, which encodes a record field by field (``json_default``),
and read back by ``read_jsonl``. A number cell of a table or snapshot,
and an integer config value, is read by ``ascii_decimal``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import is_dataclass
from datetime import date
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence


def read_table(source, columns: Sequence[str], *, unique: str | None = None,
               error: type[ValueError] = ValueError
               ) -> Iterator[tuple[int, dict[str, str]]]:
    """(row number, stripped cells of ``columns``) of each data row of a
    UTF-8 CSV table with a header row.

    ``source`` is a path or a package resource. A missing column, a short
    row, a ``csv.Error`` (such as an oversized cell), non-UTF-8 bytes and,
    when ``unique`` names a column, a value of it repeated case-insensitively
    raise ``error`` naming the file; all but the bytes also name the row.
    """
    if isinstance(source, str):
        source = Path(source)
    seen: dict[str, int] = {}
    try:
        with source.open(encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in columns if c not in (reader.fieldnames or ())]
            if missing:
                raise error(f"{source}: missing columns {missing}")
            for row in reader:
                rownum = reader.line_num
                if None in row.values():
                    raise error(f"{source}: row {rownum}: short row")
                cells = {c: row[c].strip() for c in columns}
                if unique is not None:
                    key = cells[unique].lower()
                    if key in seen:
                        raise error(f"{source}: rows {seen[key]} and {rownum}: "
                                    f"repeated {unique} {cells[unique]!r}")
                    seen[key] = rownum
                yield rownum, cells
    except UnicodeDecodeError as exc:
        raise error(f"{source}: not UTF-8: {exc}") from exc
    except csv.Error as exc:
        # DictReader.line_num is set only after a row parses
        raise error(f"{source}: row {reader.reader.line_num}: {exc}") from exc


def ascii_decimal(cell: str, what: str) -> int:
    """``cell`` read as ASCII decimal digits; ``int`` alone would also take
    a sign, underscores and non-ASCII digits."""
    if not (cell.isascii() and cell.isdigit()):
        raise ValueError(f"{what} {cell!r} is not a decimal number")
    return int(cell)


def json_default(obj):
    """``json`` hook: a date or datetime as ISO 8601, a dataclass as its fields."""
    if isinstance(obj, date):
        return obj.isoformat()
    if is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_jsonl(path: str | Path, items: Iterable) -> None:
    """One JSON object per line, keys sorted, through one reused encoder."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    encode = json.JSONEncoder(default=json_default, ensure_ascii=False,
                              sort_keys=True).encode
    with path.open("w", encoding="utf-8") as fh:
        for item in items:
            fh.write(encode(item) + "\n")


def read_jsonl(path: str | Path, what: str, decode: Callable, *,
               unique: str | None = None) -> list:
    """``decode`` of each non-blank line's JSON object. A line that is not
    an object or does not decode raises ``ValueError`` naming the file, the
    line and ``what``; bytes that are not UTF-8 raise one naming the file.
    When ``unique`` names a key, a value of it on two lines raises one
    naming the file, the value and both lines."""
    items = []
    seen: dict = {}
    try:
        with Path(path).open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                    if not isinstance(entry, dict):
                        raise TypeError("not a JSON object")
                    key = entry.get(unique)
                    first = (seen.setdefault(key, lineno)
                             if unique is not None else lineno)
                    items.append(decode(entry))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(
                        f"{path}:{lineno}: bad {what} line: {exc}") from exc
                if first != lineno:
                    raise ValueError(
                        f"{path}: lines {first} and {lineno}: repeated "
                        f"{unique} {key!r}")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from exc
    return items
