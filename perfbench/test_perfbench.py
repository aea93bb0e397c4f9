"""Tests of the benchmark itself, on small grids.

Run with ``python3 -m pytest perfbench``.
"""
import json
import tracemalloc
import types

import numpy as np
import pytest

import harness
import tracer as tracing
import workloads
from npspectra import parse_config, pipeline

BENCHMARK = json.loads((harness.HERE.parent / "BENCHMARK.json").read_text())


def tiny_report(checks=(workloads.check_top_eigenvalue,
                        workloads.check_coefficients)):
    doc = {"surface": {"name": "sphere", "r": 1.0}, "resolution": [12, 24],
           "outputs": [{"report_json": "report.json"},
                       {"eigen_csv": "eigen.csv"}]}
    return workloads.Workload("tiny-sphere", "report", doc,
                              checks=list(checks))


def tiny_log(tmp_path, wl=None):
    wl = wl or tiny_report()
    return harness.OperationLog(wl, parse_config(wl.config_text()),
                                str(tmp_path))


def test_seed_zero_reproduces_named_configs():
    ell = workloads.make_workload("ellipsoid-report", 0)
    assert ell.doc["surface"] == {"name": "ellipsoid", "a": 2.0, "b": 1.2,
                                  "c": 1.0}
    assert ell.doc["resolution"] == [40, 80]
    assert [list(o) for o in ell.doc["outputs"]] == [
        ["report_json"], ["eigen_csv"], ["matrix_dump"]]
    pea = workloads.make_workload("peanut-study", 0)
    assert pea.doc["surface"] == {"name": "peanut", "c": 1.0, "d": 1.1}
    assert pea.resolutions == ((16, 32), (24, 48), (32, 64))
    sph = workloads.make_workload("sphere-report", 0)
    assert sph.doc["surface"] == {"name": "sphere", "r": 1.0}
    assert sph.doc["resolution"] == [24, 48]
    assert [list(o) for o in sph.doc["outputs"]] == [
        ["report_json"], ["eigen_csv"]]


@pytest.mark.parametrize("seed", [1, 2, 17, 123456])
def test_other_seeds_only_rescale(seed):
    scale = workloads.seed_scale(seed)
    lo, hi = workloads.SCALE_RANGE
    assert lo <= scale <= hi and scale != 1.0
    for name in ("ellipsoid-report", "peanut-study", "sphere-report"):
        wl, ref = (workloads.make_workload(name, s) for s in (seed, 0))
        assert wl.config_text() == workloads.make_workload(
            name, seed).config_text()
        assert wl.resolutions == ref.resolutions
        assert {k: v for k, v in wl.doc.items() if k != "surface"} == {
            k: v for k, v in ref.doc.items() if k != "surface"}
    surf = workloads.make_workload("ellipsoid-report", seed).doc["surface"]
    assert [surf[k] for k in "abc"] == [
        scale * x for x in workloads.ELLIPSOID_AXES]
    surf = workloads.make_workload("peanut-study", seed).doc["surface"]
    assert (surf["c"], surf["d"]) == (scale, workloads.PEANUT_D)
    assert workloads.make_workload(
        "sphere-report", seed).doc["surface"]["r"] == scale


@pytest.mark.parametrize("trace,kind", [(False, "end_to_end"),
                                        (True, "per_layer")])
def test_result_schema(tmp_path, trace, kind):
    result = harness.execute(tiny_report(), 0.0, trace, out_dir=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))
    for metric in BENCHMARK["end_to_end"]:
        assert metric["better"] == "lower"
    json.dumps(result)


def test_injected_check_failure_raises_error_rate(tmp_path):
    def always_fails(_outcome):
        return False, "injected"

    wl = tiny_report(checks=[workloads.check_top_eigenvalue, always_fails])
    result = harness.execute(wl, 0.0, False, out_dir=tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_raising_operation_counts_as_failed(tmp_path, monkeypatch):
    def broken(config):
        raise RuntimeError("injected")

    monkeypatch.setattr(pipeline, "compute_report", broken)
    log = tiny_log(tmp_path)
    values = harness.run_untraced(log, 0.0)
    assert log.failed == len(log.records) == 1
    assert "RuntimeError: injected" in log.records[0]["error"]
    assert values["peak_rss_mib"] > 0 and values["op_s"] >= 0


def test_changed_outputs_fail_the_repeat(tmp_path, monkeypatch):
    log = tiny_log(tmp_path)
    log.run()
    real = pipeline.render_eigen_csv
    monkeypatch.setattr(pipeline, "render_eigen_csv",
                        lambda report: real(report) + "extra\n")
    log.run()
    assert log.failed == 1
    bad = [c["name"] for c in log.records[1]["checks"] if not c["ok"]]
    assert bad == ["identical_outputs"]


def test_no_wrapper_left_after_traced_run(tmp_path):
    targets = tracing.default_targets()
    before = [getattr(mod, name) for mod, name in targets]
    log = tiny_log(tmp_path)
    metrics, spans = harness.run_traced(log)
    assert log.failed == 0
    assert [getattr(mod, name) for mod, name in targets] == before
    for mod in {mod for mod, _ in targets}:
        assert not any(hasattr(obj, "__wrapped_by_perfbench__")
                       for obj in vars(mod).values())
    assert not tracemalloc.is_tracing()
    assert {s["name"] for s in spans} >= {"compute_report", "symmetrize",
                                         "eigh", "eigvalsh", "svdvals"}


def test_layer_times_account_for_the_traced_operation(tmp_path):
    metrics, _ = harness.run_traced(tiny_log(tmp_path))
    parts = sum(metrics[f"{layer}.busy_s"] for layer in tracing.LAYERS)
    assert parts + metrics["pipeline.self_s"] == pytest.approx(
        metrics["trace.op_s"], rel=1e-12)
    assert metrics["pipeline.self_s"] >= 0
    # 288 nodes is under the crosscheck threshold, so eigvals runs too
    assert metrics["la.calls"] == 4
    n = 12 * 24
    assert metrics["la.flops_computed"] == pytest.approx(
        9 * n ** 3 + 4 * n ** 3 / 3 + 8 * n ** 3 / 3 + 10 * n ** 3)
    assert metrics["assembly.k1_defect"] <= workloads.K1_TOL
    assert metrics["assembly.output_mib"] == 16 * n ** 2 / 2 ** 20


def test_uncalled_wrapped_names_report_zero(tmp_path):
    # a study calls no svdvals, no raw eigvals, no cholesky, writes nothing
    doc = {"surface": {"name": "sphere"}, "resolution": [12, 24]}
    wl = workloads.Workload("tiny-study", "study", doc,
                            resolutions=((6, 12), (8, 16), (12, 24)))
    log = tiny_log(tmp_path, wl)
    metrics, spans = harness.run_traced(log)
    assert log.failed == 0
    assert not {"svdvals", "eigvals", "cholesky", "write_outputs"} & {
        s["name"] for s in spans}
    for name in ("spectrum.svdvals_s", "spectrum.raw_eigvals_s",
                 "output.busy_s", "output.bytes"):
        assert metrics[name] == 0
    assert metrics["la.calls"] == 6      # eigh and eigvalsh per level
    assert metrics["geometry.calls"] == 3


def test_child_span_keeps_parent_peak():
    mod = types.SimpleNamespace()
    big = 32 * 2 ** 20

    def inner():
        return np.ones(1024)

    def outer():
        block = np.ones(big // 8)
        del block
        return mod.inner()

    mod.inner, mod.outer = inner, outer
    with tracing.Tracer([(mod, "inner"), (mod, "outer")]) as tr:
        with tr.operation(0):
            mod.outer()
    spans = {s.name: s for s in tr.spans}
    assert spans["outer"].peak_alloc >= big
    assert spans["op"].peak_alloc >= big
    assert spans["inner"].peak_alloc < big // 4
    assert mod.inner is inner and mod.outer is outer
