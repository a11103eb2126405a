"""fixture-check arithmetic on the bundled reference table."""

from dataclasses import replace

import pytest
from click.testing import CliRunner

from inboxaudit.cli import main
from inboxaudit.fixture import (PAPER_MESSAGE_COUNT, FixtureIntegrityError,
                                load_fixture_table, run_fixture_checks)


def _top10(rows):
    return {c["check"]: c for c in run_fixture_checks(rows)}["top10_share"]


def test_top10_share_is_over_paper_message_count():
    rows = load_fixture_table()
    top10 = sum(sorted((r.total for r in rows), reverse=True)[:10])
    check = _top10(rows)
    assert check["actual"] == pytest.approx(top10 / PAPER_MESSAGE_COUNT)
    assert str(PAPER_MESSAGE_COUNT) in check["note"]


@pytest.mark.parametrize("delta,ok", [(-3, False), (-2, True), (2, True),
                                      (3, False)])
def test_top10_share_detects_three_message_shift(delta, ok):
    rows = load_fixture_table()
    largest = max(range(len(rows)), key=lambda i: rows[i].total)
    rows[largest] = replace(rows[largest], total=rows[largest].total + delta)
    assert _top10(rows)["ok"] is ok



_ROW = {"root_domain": "shop.example", "sector": "E-tailer", "cluster": "0",
        "total": "10", "promotional": "5", "crm": "3", "alert": "2"}


def _table(tmp_path, rows):
    path = tmp_path / "table.csv"
    path.write_text("".join(",".join(cells) + "\n" for cells
                            in [_ROW.keys(), *(row.values() for row in rows)]),
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("column,cell", [
    ("cluster", "+1"), ("total", "1_0"), ("promotional", "\u0665"),
    ("crm", "-1"), ("alert", "2.0"),
])
def test_table_counts_are_ascii_decimal(tmp_path, column, cell):
    # int() alone would read the first three as 1, 10 and 5
    with pytest.raises(FixtureIntegrityError,
                       match=f"row 2: {column} .* is not a decimal number"):
        load_fixture_table(_table(tmp_path, [{**_ROW, column: cell}]))


@pytest.mark.parametrize("sectors", [
    ["E-tailer", "Financials", "E-tailer"],   # sample kurtosis needs n >= 4
    ["E-tailer"] * 5,                         # chi-squared needs two sectors
], ids=["three-rows", "one-sector"])
def test_fixture_check_too_small_table_is_infeasible(tmp_path, sectors):
    rows = [{**_ROW, "sector": sector, "total": str(10 + i)}
            for i, sector in enumerate(sectors)]
    result = CliRunner().invoke(main, ["fixture-check", "--table",
                                       _table(tmp_path, rows)])
    assert result.exit_code == 4, result.output
    assert "analysis infeasible" in result.output
