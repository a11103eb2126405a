"""Shared file formats: CSV input tables and JSON Lines artifacts."""

from dataclasses import dataclass
from datetime import date, datetime, timezone

import pytest

from inboxaudit.formats import read_jsonl, read_table, write_jsonl


def test_read_table_strips_cells_and_numbers_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("b,a,extra\n x , y ,z\n\n\"multi\nline\",q,r\n")
    assert list(read_table(path, ("a", "b"))) == [
        (2, {"a": "y", "b": "x"}),
        (5, {"a": "q", "b": "multi\nline"}),
    ]


def test_read_table_repeated_key_names_both_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("key,value\nAlpha,1\nbeta,2\nALPHA,3\n")
    with pytest.raises(ValueError, match="rows 2 and 4: repeated key 'ALPHA'"):
        list(read_table(path, ("key", "value"), unique="key"))


def test_read_table_raises_the_given_error(tmp_path):
    class TableError(ValueError):
        pass

    path = tmp_path / "t.csv"
    path.write_text("a,b\n1\n")
    with pytest.raises(TableError, match="t.csv: row 2: short row"):
        list(read_table(path, ("a", "b"), error=TableError))


@dataclass(frozen=True)
class Inner:
    day: date


@dataclass
class Outer:
    name: str
    when: datetime
    inner: Inner
    tags: tuple[str, ...]


def test_jsonl_round_trip_encodes_dataclasses_and_dates(tmp_path):
    path = tmp_path / "sub" / "out.jsonl"
    item = Outer("é", datetime(2024, 3, 5, 8, tzinfo=timezone.utc),
                 Inner(date(2024, 1, 1)), ("a",))
    write_jsonl(path, [item])
    assert path.read_text(encoding="utf-8") == (
        '{"inner": {"day": "2024-01-01"}, "name": "é", "tags": ["a"], '
        '"when": "2024-03-05T08:00:00+00:00"}\n')
    assert read_jsonl(path, "item", lambda d: d["name"]) == ["é"]


def test_write_jsonl_rejects_unknown_types(tmp_path):
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        write_jsonl(tmp_path / "out.jsonl", [{"x": {1}}])


def test_read_jsonl_names_file_line_and_kind(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text('{"name": "a"}\n\n{"other": 1}\n')
    with pytest.raises(ValueError, match=r"in.jsonl:3: bad item line: 'name'"):
        read_jsonl(path, "item", lambda d: d["name"])


def test_read_jsonl_unique_key(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text('{"name": "a"}\n{"name": "b"}\n\n{"name": "a"}\n')
    assert read_jsonl(path, "item", lambda d: d["name"]) == ["a", "b", "a"]
    with pytest.raises(ValueError,
                       match=r"in.jsonl: lines 1 and 4: repeated name 'a'"):
        read_jsonl(path, "item", lambda d: d.pop("name"), unique="name")
    path.write_text('{"name": ["a"]}\n')
    with pytest.raises(ValueError, match=r"in.jsonl:1: bad item line"):
        read_jsonl(path, "item", lambda d: d["name"], unique="name")


def test_read_jsonl_names_file_of_non_utf8_bytes(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_bytes(b'{"name": "caf\xe9"}\n')
    with pytest.raises(ValueError, match="in.jsonl: not UTF-8") as err:
        read_jsonl(path, "item", lambda d: d["name"])
    assert not isinstance(err.value, UnicodeDecodeError)
