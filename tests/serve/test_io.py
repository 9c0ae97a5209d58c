"""Point-file loading and served-result serialization."""

import json
import math

import pytest

from repro.errors import ParameterError
from repro.serve import (
    RESULT_FIELDS,
    ServedCost,
    format_served_csv,
    format_served_json,
    load_points,
    served_row,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadPoints:
    def test_csv_with_aliases_and_blanks(self, tmp_path):
        path = _write(tmp_path, "points.csv",
                      "n_transistors,feature_size,density,yield0\n"
                      "3.1e6,0.8,150,\n"
                      "1e6,0.5,,0.8\n")
        points = load_points(path)
        assert points == [
            {"transistors": 3.1e6, "feature_size": 0.8, "density": 150.0},
            {"transistors": 1e6, "feature_size": 0.5, "yield0": 0.8},
        ]

    def test_json_list_of_objects(self, tmp_path):
        path = _write(tmp_path, "points.json", json.dumps(
            [{"transistors": 1e6, "feature_size_um": 0.8}]))
        assert load_points(path) == [
            {"transistors": 1e6, "feature_size": 0.8}]

    def test_json_columnar(self, tmp_path):
        path = _write(tmp_path, "points.json", json.dumps(
            {"transistors": [1e6, 2e6], "feature_size": [0.8, 0.5]}))
        assert load_points(path) == [
            {"transistors": 1e6, "feature_size": 0.8},
            {"transistors": 2e6, "feature_size": 0.5},
        ]

    def test_json_columnar_unequal_lengths_rejected(self, tmp_path):
        path = _write(tmp_path, "points.json", json.dumps(
            {"transistors": [1e6, 2e6], "feature_size": [0.8]}))
        with pytest.raises(ParameterError, match="equal-length"):
            load_points(path)

    def test_unknown_field_rejected_loudly(self, tmp_path):
        path = _write(tmp_path, "points.csv",
                      "transistors,feature_sise\n1e6,0.8\n")
        with pytest.raises(ParameterError, match="feature_sise"):
            load_points(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = _write(tmp_path, "points.csv",
                      "transistors,feature_size\nmany,0.8\n")
        with pytest.raises(ParameterError, match="non-numeric"):
            load_points(path)

    def test_empty_record_rejected(self, tmp_path):
        path = _write(tmp_path, "points.csv",
                      "transistors,feature_size\n,\n")
        with pytest.raises(ParameterError, match="empty point"):
            load_points(path)

    def test_missing_file_and_bad_suffix(self, tmp_path):
        with pytest.raises(ParameterError, match="not found"):
            load_points(tmp_path / "absent.csv")
        path = _write(tmp_path, "points.txt", "transistors\n1e6\n")
        with pytest.raises(ParameterError, match="unsupported"):
            load_points(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = _write(tmp_path, "points.json", "{not json")
        with pytest.raises(ParameterError, match="invalid JSON"):
            load_points(path)


def _served(cost=1.4e-5, feasible=True):
    return ServedCost(
        n_transistors=1e6, feature_size_um=0.8, wafer_cost_dollars=700.0,
        die_area_cm2=1.2, dies_per_wafer=80, yield_value=0.6,
        cost_per_transistor_dollars=cost, feasible=feasible)


class TestFormatting:
    def test_csv_header_and_rows(self):
        text = format_served_csv([_served(), _served(math.inf, False)])
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(RESULT_FIELDS)
        assert len(lines) == 3
        assert lines[1].endswith(",True")
        assert lines[2].endswith(",False")
        assert "inf" in lines[2]

    def test_json_is_compact_and_parses_back_to_the_columns(self):
        results = [_served(), _served(math.inf, False), _served(2e-7)]
        text = format_served_json(results)
        assert text.endswith("\n") and text.count("\n") == 1
        assert ", " not in text and ": " not in text
        columns = json.loads(text)
        assert list(columns) == list(RESULT_FIELDS)
        for i, name in enumerate(RESULT_FIELDS):
            assert columns[name] == [served_row(r)[i] for r in results]

    def test_json_is_columnar_and_parses(self):
        text = format_served_json([_served(), _served()])
        columns = json.loads(text.replace("Infinity", "1e308"))
        assert set(columns) == set(RESULT_FIELDS)
        assert columns["dies_per_wafer"] == [80, 80]
        assert columns["feasible"] == [True, True]
