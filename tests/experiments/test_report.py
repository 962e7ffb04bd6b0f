"""Table rendering."""

from repro.experiments.report import app_metric_table, format_table


class TestFormatTable:
    def test_alignment_and_header(self):
        out = format_table(
            ["name", "value"], [["aa", 1.25], ["b", 10.0]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2] and "value" in lines[2]
        assert "aa" in lines[4]
        assert "1.2" in out and "10.0" in out

    def test_float_format(self):
        out = format_table(["x"], [[3.14159]], float_fmt="{:.3f}")
        assert "3.142" in out

    def test_bool_rendering(self):
        out = format_table(["flag"], [[True], [False]])
        assert "yes" in out and "no" in out

    def test_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out and "b" in out

    def test_column_widths_accommodate_data(self):
        out = format_table(["x"], [["averyverylongcell"]])
        lines = out.splitlines()
        assert all(len(l) >= len("averyverylongcell") for l in lines[:1])


class TestAppMetricTable:
    def test_rows_and_summary(self):
        per_app = {
            "mxm": {"net": 10.0, "time": 5.0},
            "fft": {"net": 20.0, "time": 8.0},
        }
        out = app_metric_table("demo", per_app, ["net", "time"])
        assert "mxm" in out and "fft" in out
        assert "20.0" in out
        # Rows come out in name order, whatever order the results arrived in.
        rows = [line.split()[0] for line in out.splitlines()[4:]]
        assert rows == ["fft", "mxm"]

    def test_missing_metric_renders_nan(self):
        out = app_metric_table("demo", {"mxm": {"net": 1.0}}, ["net", "time"])
        assert "nan" in out
