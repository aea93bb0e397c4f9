"""Deterministic JSON and CSV rendering of spectrum reports."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from conftest import make_config
from npspectra import ConfigError, __version__, compute_report, plasmon_map
from npspectra import report as report_module
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
from npspectra.spectrum import TRIVIAL_TOL


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


def _one_by_one(values, indent):
    """A JSON list rendered element by element, as before the float path."""
    inner = "  " * (indent + 1)
    return ("[\n" + ",\n".join(inner + render_json(v, indent + 1)
                               for v in values)
            + "\n" + "  " * indent + "]")


_FLOATS = [0.5, -0.0, 1.0 / 3.0, 2.0, -1e-300, 5e-324,
           1.7976931348623157e308, 1e16, 123456789.125, -0.1]


@pytest.mark.parametrize("values", [
    np.array(_FLOATS),
    np.array([x for x in _FLOATS if abs(x) < 1e38], dtype=np.float32),
    _FLOATS,
    tuple(np.float64(x) for x in _FLOATS),
    [np.float32(0.1), 0.1, np.float64(-2.5)],
    np.array([7.0]),
], ids=["float64", "float32", "list", "tuple-of-numpy", "mixed", "one"])
@pytest.mark.parametrize("indent", [0, 3])
def test_float_vectors_render_as_element_by_element(values, indent):
    assert render_json(values, indent) == _one_by_one(values, indent)
    doc = {"spectrum": {"lambda": values, "n": 3}}
    assert json.loads(render_json(doc))["spectrum"]["lambda"] == [
        float(v) for v in values]


@pytest.mark.parametrize("values", [
    # not float vectors: element by element, as before
    [1.5, 2, True], np.arange(4), np.array([[0.5, 1.0], [2.0, 3.0]]),
    [np.float64(1.0), None], np.array([True, False]),
], ids=["ints-in-list", "int-array", "matrix", "none", "bool-array"])
def test_other_sequences_render_element_by_element(values):
    assert render_json(values, 1) == _one_by_one(values, 1)


@pytest.mark.parametrize("values", [
    np.array([0.5, 1.0, np.nan, np.inf]),
    np.array([0.5, -np.inf, np.nan], dtype=np.float32),
    [0.25, float("inf"), float("nan")],
    (np.float64(1.0), np.float64("-inf")),
], ids=["float64", "float32", "list", "tuple"])
def test_float_vectors_name_the_first_nonfinite_value(values):
    first = next(v for v in values if not np.isfinite(v))
    with pytest.raises(ConfigError) as one:
        render_json(first)
    with pytest.raises(ConfigError) as whole:
        render_json({"x": values})
    assert str(whole.value) == str(one.value)


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


def _csv_row_by_row(report):
    """The eigen table rendered row by row: three ``format_float`` calls and
    one ``plasmon_map`` per eigenvalue, as before the column pass."""
    signed = np.concatenate([report.lambda_plus, -report.lambda_minus])
    order = np.argsort(-np.abs(signed), kind="stable")
    mu = np.asarray(report.singular_values, dtype=float)
    lines = [CSV_FORMAT_LINE, CSV_HEADER]
    for j, idx in enumerate(order, start=1):
        lam = float(signed[idx])
        if abs(lam - 0.5) <= TRIVIAL_TOL:
            eps = ""
        else:
            eps = format_float(plasmon_map(lam))
        mu_j = format_float(mu[j - 1]) if j - 1 < mu.size else ""
        sign = 1 if lam > 0 else -1
        lines.append(f"{j},{format_float(lam)},{sign},{mu_j},{eps}")
    return "\n".join(lines) + "\n"


def _plasmon_one_by_one(report):
    """The report's plasmon list by ``plasmon_map``, one eigenvalue at a
    time."""
    signed = np.sort(np.concatenate([report.lambda_plus,
                                     -report.lambda_minus]))[::-1]
    return [plasmon_map(lam) for lam in signed
            if abs(lam - 0.5) > TRIVIAL_TOL]


@pytest.mark.parametrize("spec, signs", [
    ({"surface": {"name": "sphere"}, "resolution": [12, 24]}, {"1"}),
    ({"surface": {"name": "ellipsoid", "a": 2.0, "b": 1.2, "c": 1.0},
      "resolution": [16, 32]}, {"1"}),
    # every eigenvalue kept, so both signs reach the table
    ({"surface": {"name": "torus"}, "resolution": [16, 16],
      "noise_cutoff": 1e-300}, {"1", "-1"}),
], ids=["sphere", "ellipsoid", "torus"])
def test_eigen_csv_and_plasmon_match_the_row_by_row_rendering(spec, signs,
                                                              monkeypatch):
    report, _ = compute_report(make_config(spec))
    text = render_eigen_csv(report)
    assert text.encode() == _csv_row_by_row(report).encode()
    assert [type(x) for x in report.plasmon] == [float] * len(report.plasmon)
    assert [x.hex() for x in report.plasmon] \
        == [x.hex() for x in _plasmon_one_by_one(report)]
    rows = [line.split(",") for line in text.splitlines()[2:]]
    # the first row is the trivial 1/2, with no epsilon; every other row
    # has one
    assert [r[4] == "" for r in rows] == [True] + [False] * (len(rows) - 1)
    assert {r[2] for r in rows} == signs
    # fewer singular values than eigenvalues leave the mu column empty
    short = dataclasses.replace(report,
                                singular_values=report.singular_values[:5])
    assert render_eigen_csv(short) == _csv_row_by_row(short)
    # chunks of 7 rows: the chunk ends fall inside every column
    monkeypatch.setattr(report_module, "_CSV_ROWS", 7)
    assert render_eigen_csv(report) == text
    assert render_eigen_csv(short) == _csv_row_by_row(short)


def test_failed_write_text_keeps_old_file(tmp_path, short_writes):
    path = tmp_path / "report.json"
    write_text(path, "first\n")
    write_text(path, "old\r\nreport\n")
    assert path.read_bytes() == b"old\r\nreport\n"
    with short_writes(), pytest.raises(OSError, match="No space"):
        write_text(path, "new report " * 1000)
    assert path.read_bytes() == b"old\r\nreport\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
