"""Command-line interface: exit codes, output text, file side effects."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from npspectra import (__version__, cli, errors, operators, pipeline,
                       spectrum, sphere)


def run_cli(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "npspectra", *argv],
                          capture_output=True, text=True, cwd=cwd)


@pytest.fixture()
def sphere_config(tmp_path):
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps({"surface": {"name": "sphere"},
                                "resolution": [8, 16]}))
    return path


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_no_arguments_is_usage_error():
    result = run_cli()
    assert result.returncode == 2
    assert "usage" in result.stderr.lower()


def test_unknown_subcommand_is_usage_error():
    result = run_cli("eigenfrobnicate")
    assert result.returncode == 2


def test_missing_config_flag_is_usage_error():
    result = run_cli("coefficients")
    assert result.returncode == 2
    assert "--config" in result.stderr


def test_version_flag():
    result = run_cli("--version")
    assert result.returncode == 0
    assert result.stdout.strip() == __version__


def test_coefficients_prints_functionals(sphere_config):
    result = run_cli("coefficients", "--config", str(sphere_config))
    assert result.returncode == 0
    assert "surface sphere" in result.stdout
    assert "A_total    = 0.0625" in result.stdout
    assert "euler_char = 2" in result.stdout
    assert "willmore" in result.stdout


def test_resolution_override(sphere_config):
    result = run_cli("coefficients", "--config", str(sphere_config),
                     "--resolution", "12x24")
    assert result.returncode == 0
    assert "grid 12x24 (288 nodes)" in result.stdout


def test_bad_resolution_override(sphere_config):
    result = run_cli("coefficients", "--config", str(sphere_config),
                     "--resolution", "12")
    assert result.returncode == 3
    assert "NxM" in result.stderr


def test_spectrum_writes_requested_outputs(tmp_path):
    config = write_config(tmp_path, {
        "surface": {"name": "sphere"},
        "resolution": [8, 16],
        "outputs": [{"report_json": "report.json"},
                    {"eigen_csv": "eigen.csv"}],
    })
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    result = run_cli("spectrum", "--config", str(config),
                     "--out", str(out_dir))
    assert result.returncode == 0
    assert "eigenvalues:" in result.stdout
    assert "plemelj_residual" in result.stdout
    assert (out_dir / "report.json").exists()
    assert (out_dir / "eigen.csv").exists()
    parsed = json.loads((out_dir / "report.json").read_text())
    assert parsed["diagnostics"]["n_nodes"] == 128


def test_noise_cutoff_above_every_eigenvalue_exits_config(tmp_path):
    # only the trivial 1/2 survives the cutoff, so no fit window exists
    config = write_config(tmp_path, {"surface": {"name": "sphere"},
                                     "resolution": [8, 8],
                                     "noise_cutoff": 10})
    result = run_cli("spectrum", "--config", str(config))
    assert result.returncode == 3
    assert "/noise_cutoff: 10 " in result.stderr
    assert "fit window" not in result.stderr


def test_invalid_torus_parameters_exit_config(tmp_path):
    config = write_config(tmp_path, {
        "surface": {"name": "torus", "R": 1.0, "r": 2.0}})
    result = run_cli("coefficients", "--config", str(config))
    assert result.returncode == 3
    assert "/surface" in result.stderr


def test_unknown_surface_lists_catalog(tmp_path):
    config = write_config(tmp_path, {"surface": {"name": "blob"}})
    result = run_cli("coefficients", "--config", str(config))
    assert result.returncode == 3
    assert "/surface/name" in result.stderr
    for name in ("sphere", "ellipsoid", "torus", "peanut"):
        assert name in result.stderr


def test_missing_config_file_exits_one(tmp_path):
    result = run_cli("coefficients", "--config",
                     str(tmp_path / "nope.json"))
    assert result.returncode == 1
    assert "error:" in result.stderr


def test_weyl_check_table(sphere_config):
    result = run_cli("weyl-check", "--config", str(sphere_config))
    assert result.returncode == 0
    assert "predicted sqrt(A)" in result.stdout
    assert "fitted C_hat" in result.stdout
    assert "total" in result.stdout
    assert "fit window:" in result.stdout


def test_plasmon_table(sphere_config):
    result = run_cli("plasmon", "--config", str(sphere_config))
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    header = [ln for ln in lines if "epsilon_j" in ln]
    assert header
    # first entry comes from the largest nontrivial eigenvalue 1/6
    first = [ln for ln in lines if ln.strip().startswith("1 ")]
    assert first and float(first[0].split()[1]) == pytest.approx(2.0,
                                                                 abs=1e-2)


def test_study_negatives_classifies(sphere_config):
    result = run_cli("study-negatives", "--config", str(sphere_config),
                     "--resolutions", "8x16,10x20,12x24")
    assert result.returncode == 0
    assert "n_nodes" in result.stdout
    assert "negatives" in result.stdout
    assert "classification: BOUNDED" in result.stdout


def test_study_rejects_short_resolution_list(sphere_config):
    result = run_cli("study-negatives", "--config", str(sphere_config),
                     "--resolutions", "8x16,10x20")
    assert result.returncode == 3
    assert "resolutions" in result.stderr


# each stage is patched where compute_report looks it up
@pytest.mark.parametrize("module, stage, exc", [
    (pipeline, "build_grid", "DegenerateChart"),
    (spectrum, "assemble_operators", "GridError"),
], ids=["build_grid-DegenerateChart", "assemble_operators-GridError"])
def test_geometry_faults_exit_config(monkeypatch, capsys, sphere_config,
                                     module, stage, exc):
    def fail(*args, **kwargs):
        raise getattr(errors, exc)("injected fault")

    monkeypatch.setattr(module, stage, fail)
    code = cli.main(["spectrum", "--config", str(sphere_config)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "injected fault" in err


def _probe_node_on_sphere():
    u, v, _ = sphere()._probe_nodes(64, 96)
    return sphere().position(u, v)[0].tolist()


@pytest.mark.parametrize("center", [_probe_node_on_sphere(), [1.0, 0.0, 0.0]])
def test_inversion_center_on_surface_exits_config(capsys, tmp_path, center):
    path = write_config(tmp_path, {"surface": {"invert": {
        "center": center, "radius": 1.0, "inner": {"name": "sphere"}}},
        "resolution": [8, 16]})
    code = cli.main(["coefficients", "--config", str(path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: /surface/invert: ")
    assert "lies on the surface" in err
    assert err.count("\n") == 1


def test_non_finite_operator_entry_exits_numerical(monkeypatch, capsys,
                                                   sphere_config):
    integrals = operators._cell_kernel_integrals

    def with_nan(*args, **kwargs):
        i_s, i_k = integrals(*args, **kwargs)
        i_k[0] = np.nan
        return i_s, i_k

    monkeypatch.setattr(operators, "_cell_kernel_integrals", with_nan)
    code = cli.main(["spectrum", "--config", str(sphere_config)])
    assert code == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: assembly: double-layer entry (0, ")
    assert err.count("\n") == 1


# numpy's message for an array that cannot be allocated, and the bare
# MemoryError of the interpreter; nothing is allocated here
@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 484. GiB for an array with shape (90300, 720000) "
     "and data type float64", None),
    ("", "an allocation failed"),
], ids=["numpy", "bare"])
def test_out_of_memory_exits_memory(monkeypatch, capsys, sphere_config,
                                    message, shown):
    def unallocatable(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(spectrum, "assemble_operators", unallocatable)
    code = cli.main(["spectrum", "--config", str(sphere_config)])
    assert code == cli.EXIT_MEMORY == 6
    err = capsys.readouterr().err
    assert err == f"error: out of memory: {shown or message}\n"


@pytest.mark.parametrize("exc", ["DomainError", "PoleError"])
def test_spectral_domain_faults_exit_config(monkeypatch, capsys,
                                            sphere_config, exc):
    def fail(*args, **kwargs):
        raise getattr(errors, exc)("injected fault")

    monkeypatch.setattr(pipeline, "compute_report", fail)
    code = cli.main(["plasmon", "--config", str(sphere_config)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: injected fault\n"


@pytest.mark.parametrize("surface, pointer", [
    ({"name": "sphere", "r": 10 ** 400}, "/surface/r"),
    ({"invert": {"center": [float("nan"), 0.0, 0.0], "radius": 1.0,
                 "inner": {"name": "sphere"}}}, "/surface/invert/center/0"),
    ({"invert": {"center": [3.0, 0.0, 0.0], "radius": 1e200,
                 "inner": {"name": "sphere"}}}, "/surface/invert/radius"),
])
def test_out_of_range_numbers_exit_config(capsys, tmp_path, surface,
                                          pointer):
    path = write_config(tmp_path, {"surface": surface, "resolution": [8, 16]})
    code = cli.main(["coefficients", "--config", str(path),
                     "--resolution", "8x16"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {pointer}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["coefficients", "--resolution", "100000x100000"],
    ["study-negatives", "--resolutions", "8x16,10x20,4097x4096"],
])
def test_oversized_resolution_exits_config(capsys, sphere_config, argv):
    code = cli.main([argv[0], "--config", str(sphere_config), *argv[1:]])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[1]}: ")
    assert f"more than {2 ** 24} nodes" in err


def test_repeated_output_path_exits_config(capsys, tmp_path):
    path = write_config(tmp_path, {
        "surface": {"name": "sphere"}, "resolution": [8, 16],
        "outputs": [{"report_json": "out.txt"}, {"eigen_csv": "out.txt"}]})
    code = cli.main(["spectrum", "--config", str(path),
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: /outputs/1/eigen_csv: ")
    assert not (tmp_path / "out.txt").exists()


def test_relative_and_absolute_output_paths_to_one_file_exit_config(
        capsys, tmp_path):
    path = write_config(tmp_path, {
        "surface": {"name": "sphere"}, "resolution": [8, 16],
        "outputs": [{"report_json": "out.txt"},
                    {"eigen_csv": str(tmp_path / "out.txt")}]})
    code = cli.main(["spectrum", "--config", str(path),
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: /outputs/1/eigen_csv: ")
    assert "already written by /outputs/0/report_json" in err
    assert not (tmp_path / "out.txt").exists()


def test_angular_resolution_key_exits_config_as_unknown(capsys, tmp_path):
    # the angular integral is exact, so the former option is refused, not
    # silently ignored
    path = write_config(tmp_path, {"surface": {"name": "sphere"},
                                   "resolution": [8, 16],
                                   "angular_resolution": 64})
    code = cli.main(["coefficients", "--config", str(path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: /: unknown keys ['angular_resolution']; ")
    assert err.count("\n") == 1
