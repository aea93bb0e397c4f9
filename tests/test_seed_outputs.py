"""The seed-0 benchmark outputs, pinned.

The benchmark's three reference configs (seed 0 of ``perfbench``), built
here from their documents: a 24x48 sphere report, a 40x80 ellipsoid
report with a matrix dump, and a peanut study at 16x32, 24x48 and 32x64.
A fourth report, of an inverted ellipsoid that keeps no mirror, pins the
route of one block, which no benchmark workload takes.
Each report's digest is the sha256 of its ``report.json`` and
``eigen.csv`` bytes, in that order.  A change that moves these numbers on
purpose updates the literals below and declares them in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from npspectra import _blas, negative_count_study, parse_config, peanut
from npspectra.pipeline import compute_report, write_outputs
from npspectra.spectrum import GROWING

_SPHERE = {"surface": {"name": "sphere", "r": 1.0}, "resolution": [24, 48],
           "outputs": [{"report_json": "report.json"},
                       {"eigen_csv": "eigen.csv"}]}
_ELLIPSOID = {"surface": {"name": "ellipsoid", "a": 2.0, "b": 1.2, "c": 1.0},
              "resolution": [40, 80],
              "outputs": [{"report_json": "report.json"},
                          {"eigen_csv": "eigen.csv"},
                          {"matrix_dump": "operator.npop"}]}
_INVERTED = {"surface": {"invert": {"center": [3.0, 0.5, 0.4], "radius": 2.0,
                                    "inner": _ELLIPSOID["surface"]}},
             "resolution": [16, 32], "outputs": _ELLIPSOID["outputs"]}


def _sha256(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("doc, digest, dump", [
    (_SPHERE, "61218f811a9c4175", None),
    (_ELLIPSOID, "a849562f698efdee", "903859e4b956dca3"),
], ids=["sphere-24x48", "ellipsoid-40x80"])
def test_seed_0_report_digests(tmp_path, doc, digest, dump):
    config = parse_config(json.dumps(doc, sort_keys=True))
    report, sym = compute_report(config)
    write_outputs(report, sym, config, str(tmp_path))
    assert _sha256(tmp_path / "report.json",
                   tmp_path / "eigen.csv")[:16] == digest
    if dump is not None:
        assert _sha256(tmp_path / "operator.npop")[:16] == dump


def test_one_block_report_digests(tmp_path):
    # the one block runs on every BLAS thread, and its bits depend on
    # their number, so it is pinned at one thread
    config = parse_config(json.dumps(_INVERTED, sort_keys=True))
    with _blas.single_threaded():
        report, sym = compute_report(config)
        assert sym.grid.mirrors.shape[0] == 1 and not sym.grid.turn
        write_outputs(report, sym, config, str(tmp_path))
    assert _sha256(tmp_path / "report.json",
                   tmp_path / "eigen.csv")[:16] == "32c586b9e2f5bcc1"
    assert _sha256(tmp_path / "operator.npop")[:16] == "8f16533c608fd383"


def test_seed_0_peanut_study():
    study = negative_count_study(peanut(1.0, 1.1),
                                 [(16, 32), (24, 48), (32, 64)])
    assert study.rows == [(512, 104), (1152, 235), (2048, 374)]
    assert study.classification == GROWING
