import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobrough.report import build_report, dumps, load_schema, write_report


class TestFloatRoundTrip:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=500)
    def test_bit_faithful(self, x):
        out = json.loads(dumps({"v": x}))
        assert out["v"] == x

    def test_extremes(self):
        vals = [0.0, -0.0, 1e-308, 5e-324, 1.7976931348623157e308,
                0.1 + 0.2, 1 / 3, math.pi, 2.0**53 + 1.0]
        out = json.loads(dumps({"v": vals}))
        for a, b in zip(out["v"], vals):
            assert a == b

    def test_nonfinite_becomes_null(self):
        out = json.loads(dumps({"a": math.nan, "b": math.inf, "c": -math.inf}))
        assert out == {"a": None, "b": None, "c": None}

    def test_numpy_types(self):
        obj = {"arr": np.arange(3.0), "i": np.int64(7), "f": np.float64(0.25),
               "b": np.bool_(True)}
        out = json.loads(dumps(obj))
        assert out == {"arr": [0.0, 1.0, 2.0], "i": 7, "f": 0.25, "b": True}

    def test_nested_structures_and_key_order(self):
        obj = {"z": 1, "a": {"nested": [1, {"deep": 2.5}]}, "m": None}
        text = dumps(obj)
        assert json.loads(text) == {"z": 1, "a": {"nested": [1, {"deep": 2.5}]}, "m": None}
        assert text.index('"z"') < text.index('"a"') < text.index('"m"')


class TestReportShape:
    def test_build_report_keys(self):
        rep = build_report({"subcommand": "norm"}, {"x": 1.0}, {"results.x": "computed"})
        assert list(rep) == ["config", "results", "diagnostics", "version"]
        assert rep["diagnostics"]["backend"] == "python"

    def test_schema_loads(self):
        schema = load_schema()
        assert schema["required"] == ["config", "results", "diagnostics", "version"]

    def test_write_report_stdout_and_file(self, tmp_path, capsys):
        rep = build_report({"subcommand": "norm"}, {"x": 1.0}, {})
        write_report(rep, None)
        assert json.loads(capsys.readouterr().out)["results"]["x"] == 1.0
        target = tmp_path / "r.json"
        write_report(rep, str(target))
        assert json.loads(target.read_text())["results"]["x"] == 1.0
