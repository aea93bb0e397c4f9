"""End-to-end pipeline: determinism, output files, stage-tagged errors."""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

from npspectra import (ConfigError, DegenerateChart, ParametricSurface,
                       __version__, build_grid, pipeline, rigid_transform,
                       spectrum, sphere)
from npspectra.operators import read_matrix_dump
from npspectra.pipeline import compute_report, run_pipeline, write_outputs
from npspectra.report import CSV_FORMAT_LINE, CSV_HEADER, render_report_json

from conftest import make_config
from test_mirror_blocks import _ROTATION


def test_reruns_are_byte_identical():
    sphere_config = make_config({"surface": {"name": "sphere"},
                                 "resolution": [8, 16]})
    ellipsoid_config = make_config({
        "surface": {"name": "ellipsoid", "a": 2.0, "b": 1.2, "c": 1.0},
        "resolution": [16, 32]})
    rotated = rigid_transform(ellipsoid_config.surface, _ROTATION)
    # no mirrors: one block of 512 nodes, whose diagnostic norms come from
    # seeded Lanczos runs
    assert build_grid(rotated, 16, 32).mirrors.shape == (1, 512)
    rotated_config = dataclasses.replace(ellipsoid_config, surface=rotated)
    for config in (sphere_config, rotated_config):
        first_report, _ = compute_report(config)
        second_report, _ = compute_report(config)
        first = render_report_json(first_report, config.echo(), __version__)
        second = render_report_json(second_report, config.echo(),
                                    __version__)
        assert first == second


def test_diagnostics_contents(sphere_report_small):
    report, _ = sphere_report_small
    diag = report.diagnostics
    assert diag["n_nodes"] == 512
    assert diag["plemelj_residual"] < 5e-4
    assert diag["asymmetry_norm"] < 2e-3
    assert diag["min_eig_negS"] > 0.0
    assert 0.0 <= diag["counting_check_total"] < 0.5
    # the raw spectrum of the unblocked K_w, unsymmetrized
    grid = build_grid(sphere(), 16, 32)
    whole = dataclasses.replace(grid, mirrors=grid.mirrors[:1], turn=False)
    (((kw,), _),), _ = spectrum._operator_blocks(whole)
    raw = np.sort(np.linalg.eigvals(kw).real)
    signed = np.sort(np.concatenate([report.lambda_plus,
                                     -report.lambda_minus]))
    assert raw.size == signed.size
    assert np.abs(raw - signed).max() < 1e-4


def test_write_outputs_rebases_relative_paths(tmp_path):
    absolute = tmp_path / "abs" / "report.json"
    config = make_config({
        "surface": {"name": "sphere"},
        "resolution": [8, 16],
        "outputs": [
            {"report_json": str(absolute)},
            {"eigen_csv": "sub/eigen.csv"},
            {"matrix_dump": "op.bin"},
        ],
    })
    report, sym = compute_report(config)
    written = write_outputs(report, sym, config, base_dir=str(tmp_path))
    assert written == [str(absolute),
                       str(tmp_path / "sub" / "eigen.csv"),
                       str(tmp_path / "op.bin")]
    assert all(os.path.exists(p) for p in written)

    parsed = json.loads(absolute.read_text())
    assert parsed["version"] == __version__
    assert parsed["config_echo"]["resolution"] == [8, 16]
    assert parsed["diagnostics"]["n_nodes"] == 128

    csv_lines = (tmp_path / "sub" / "eigen.csv").read_text().splitlines()
    assert csv_lines[0] == CSV_FORMAT_LINE
    assert csv_lines[1] == CSV_HEADER

    raw = (tmp_path / "op.bin").read_bytes()
    assert raw[:4] == b"NPOP"
    matrix, basis = read_matrix_dump(str(tmp_path / "op.bin"))
    assert basis == "symmetrized"
    assert np.array_equal(matrix, sym.matrix)


def test_run_pipeline_writes_and_returns(tmp_path):
    config = make_config({
        "surface": {"name": "sphere"},
        "resolution": [8, 16],
        "outputs": [{"eigen_csv": "eigen.csv"}],
    })
    report = run_pipeline(config, base_dir=str(tmp_path))
    assert (tmp_path / "eigen.csv").exists()
    assert report.lambda_plus[0] == pytest.approx(0.5, abs=1e-3)


def test_run_pipeline_rejects_two_spellings_of_one_file(tmp_path,
                                                       monkeypatch):
    # distinct to parse_config, one file once resolved against base_dir
    config = make_config({
        "surface": {"name": "sphere"},
        "resolution": [8, 16],
        "outputs": [{"report_json": "out.txt"},
                    {"eigen_csv": str(tmp_path / "sub" / ".." / "out.txt")}],
    })

    def computed(config):
        raise AssertionError("compute_report ran")

    monkeypatch.setattr(pipeline, "compute_report", computed)
    with pytest.raises(ConfigError, match=r"^/outputs/1/eigen_csv: .* "
                                          r"already written by "
                                          r"/outputs/0/report_json$"):
        run_pipeline(config, base_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_errors_carry_stage_prefix():
    config = make_config({"surface": {"name": "sphere"},
                          "resolution": [8, 16]})
    collapsed = ParametricSurface(
        lambda u, v: np.stack([np.broadcast_arrays(u, v)[0],
                               np.broadcast_arrays(u, v)[0],
                               np.zeros(np.broadcast(u, v).shape)], axis=-1),
        kind="polar", name="collapsed", params={})
    broken = dataclasses.replace(config, surface=collapsed)
    with pytest.raises(DegenerateChart) as err:
        compute_report(broken)
    assert str(err.value).startswith("geometry:")
