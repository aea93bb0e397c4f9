"""Deterministic JSON and CSV rendering of spectrum reports."""

from __future__ import annotations

import json

import numpy as np
import pytest

from npspectra import ConfigError, __version__
from npspectra.report import (
    CSV_FORMAT_LINE,
    CSV_HEADER,
    format_float,
    render_eigen_csv,
    render_json,
    render_report_json,
    report_to_dict,
    write_text,
)


def test_format_float_seventeen_digits():
    assert format_float(0.25) == "0.25"
    assert format_float(1.0 / 3.0) == "0.33333333333333331"
    assert float(format_float(np.pi)) == np.pi


def test_render_json_deterministic_and_typed():
    doc = {"b": 1, "a": [1.5, 2, True, None, "x"],
           "c": {"nested": [np.float64(0.1), np.int64(3)]}}
    text = render_json(doc)
    assert text == render_json(doc)
    parsed = json.loads(text)
    # insertion order preserved, not alphabetical
    assert list(parsed.keys()) == ["b", "a", "c"]
    assert parsed["a"] == [1.5, 2, True, None, "x"]
    assert parsed["c"]["nested"][0] == 0.1


def test_render_json_rejects_nonfinite():
    with pytest.raises(ConfigError):
        render_json({"x": float("nan")})
    with pytest.raises(ConfigError):
        render_json([np.inf])


def test_report_schema_key_order(sphere_report_small):
    report, _ = sphere_report_small
    doc = report_to_dict(report, {"surface": {"name": "sphere"}},
                         __version__)
    assert list(doc.keys()) == ["config_echo", "coefficients", "spectrum",
                                "fit", "plasmon", "diagnostics", "version"]
    assert list(doc["coefficients"].keys()) == [
        "A_total", "A_plus", "A_minus", "willmore", "euler_char"]
    assert list(doc["spectrum"].keys()) == [
        "lambda_plus", "lambda_minus", "singular_values", "clusters"]
    # the same diagnostics at every grid size
    assert list(doc["diagnostics"]) == [
        "asymmetry_norm", "plemelj_residual", "n_nodes", "min_eig_negS",
        "counting_check_total"]
    assert doc["version"] == __version__
    clusters = doc["spectrum"]["clusters"]
    assert all(list(c.keys()) == ["value", "multiplicity"] for c in clusters)


def test_render_report_json_parses_and_matches(sphere_report_small):
    report, _ = sphere_report_small
    text = render_report_json(report, {"surface": {"name": "sphere"}},
                              __version__)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["diagnostics"]["n_nodes"] == 512
    assert parsed["coefficients"]["A_total"] == pytest.approx(0.0625,
                                                              abs=1e-12)
    assert len(parsed["spectrum"]["lambda_plus"]) == len(report.lambda_plus)


def test_eigen_csv_layout(sphere_report_small):
    report, _ = sphere_report_small
    text = render_eigen_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_FORMAT_LINE
    assert lines[1] == CSV_HEADER
    rows = [line.split(",") for line in lines[2:]]
    n_expected = report.lambda_plus.size + report.lambda_minus.size
    assert len(rows) == n_expected
    assert [int(r[0]) for r in rows] == list(range(1, n_expected + 1))
    # ordered by modulus, descending
    moduli = [abs(float(r[1])) for r in rows]
    assert moduli == sorted(moduli, reverse=True)
    assert set(r[2] for r in rows) <= {"1", "-1"}
    # the trivial eigenvalue 1/2 has no plasmonic counterpart
    assert rows[0][4] == ""
    assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-5)
    # mu column carries the singular values
    assert float(rows[0][3]) == pytest.approx(0.5, abs=2e-3)
    for row in rows[1:6]:
        lam = float(row[1])
        eps = float(row[4])
        assert eps == pytest.approx(1.0 - 2.0 * lam / (lam - 0.5), rel=1e-12)


def test_failed_write_text_keeps_old_file(tmp_path, short_writes):
    path = tmp_path / "report.json"
    write_text(path, "first\n")
    write_text(path, "old\r\nreport\n")
    assert path.read_bytes() == b"old\r\nreport\n"
    with short_writes(), pytest.raises(OSError, match="No space"):
        write_text(path, "new report " * 1000)
    assert path.read_bytes() == b"old\r\nreport\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
