"""Unit tests for result exporting (repro.runtime.reporting)."""

import pytest

from repro.runtime.reporting import ResultTable, combine_markdown


class TestResultTable:
    def test_add_row_validates_width(self):
        table = ResultTable("t", ["a", "b"])
        table.add_row(1, 2)
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_markdown_shape(self):
        table = ResultTable("My Table", ["x", "fn"])
        table.add_row(1, 12.345)
        text = table.to_markdown()
        lines = text.splitlines()
        assert lines[0] == "### My Table"
        assert "| x | fn |" in text
        assert "| 1 | 12.3 |" in text  # floats rendered with one decimal

    def test_csv_roundtrip(self):
        import csv
        import io

        table = ResultTable("t", ["x", "y"])
        table.add_row(1, "hello, world")
        rows = list(csv.reader(io.StringIO(table.to_csv())))
        assert rows == [["x", "y"], ["1", "hello, world"]]

    def test_save_by_suffix(self, tmp_path):
        table = ResultTable("t", ["x"])
        table.add_row(7)
        md = tmp_path / "out.md"
        table.save(md)
        assert md.read_text().startswith("### t")
        csv_path = tmp_path / "out.csv"
        table.save(csv_path)
        assert csv_path.read_text().startswith("x")


class TestFigureConversion:
    def test_combine_markdown(self):
        t1 = ResultTable("one", ["a"])
        t2 = ResultTable("two", ["b"])
        doc = combine_markdown([t1, t2], heading="All results")
        assert doc.startswith("# All results")
        assert "### one" in doc and "### two" in doc
