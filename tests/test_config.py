"""JSON run configuration: parsing, defaults, pointer-tagged errors."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from npspectra import (ConfigError, RunConfig, build_surface, load_config,
                       parse_config)
from conftest import make_config


def test_minimal_sphere_defaults():
    config = make_config({"surface": {"name": "sphere"}})
    assert config.surface.name == "sphere"
    assert config.surface.params == {"r": 1.0}
    assert config.resolution == (48, 96)
    assert config.fit_window == "auto"
    assert config.noise_cutoff == 1e-10
    assert config.outputs == []


@pytest.mark.parametrize("surface, params", [
    ({"name": "sphere"}, {"r": 1.0}),
    ({"name": "ellipsoid", "a": 2, "b": 1.2, "c": 1},
     {"a": 2.0, "b": 1.2, "c": 1.0}),
    ({"name": "spheroid", "a": 2, "c": 1}, {"a": 2.0, "c": 1.0}),
    ({"name": "torus"}, {"R": 2.0, "r": 1.0}),
    ({"name": "peanut"}, {"c": 1.0, "d": 1.1}),
])
def test_catalog_parameter_defaults_and_required(surface, params):
    config = make_config({"surface": surface})
    assert config.surface.name == surface["name"]
    assert config.surface.params == params
    # dropping any parameter without a default names it
    for key in set(surface) - {"name"}:
        partial = {k: v for k, v in surface.items() if k != key}
        with pytest.raises(ConfigError) as err:
            build_surface(partial)
        assert str(err.value) == (f"/surface: surface {surface['name']!r} "
                                  f"requires parameter {key!r}")


def test_torus_default_resolution():
    config = make_config({"surface": {"name": "torus"}})
    assert config.resolution == (64, 64)


def test_full_document_round_trip():
    doc = {
        "surface": {"name": "torus", "R": 3.0, "r": 0.5},
        "resolution": [24, 24],
        "fit_window": [4, 40],
        "noise_cutoff": 1e-9,
        "outputs": [{"report_json": "report.json"},
                    {"eigen_csv": "eig.csv", "matrix_dump": "op.bin"}],
    }
    config = make_config(doc)
    assert config.resolution == (24, 24)
    assert config.fit_window == (4, 40)
    assert config.noise_cutoff == 1e-9
    assert config.outputs == doc["outputs"]
    echo = config.echo()
    assert echo["surface"] == doc["surface"]
    assert echo["resolution"] == [24, 24]
    assert echo["fit_window"] == [4, 40]
    assert list(echo) == ["surface", "resolution", "fit_window",
                          "noise_cutoff", "outputs"]


def test_inversion_wrapper_surface():
    config = make_config({
        "surface": {"invert": {
            "center": [2.1, 0.0, 0.0], "radius": 1.0,
            "inner": {"name": "ellipsoid", "a": 2.0, "b": 1.2, "c": 1.0}}},
        "resolution": [16, 32],
    })
    assert config.surface.params["radius"] == 1.0
    assert config.surface.params["inner"]["name"] == "ellipsoid"


def expect_pointer(doc, pointer):
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert str(err.value).startswith(pointer + ":"), str(err.value)


def test_error_pointers():
    expect_pointer({"surface": {"name": "dodecahedron"}}, "/surface/name")
    expect_pointer({"surface": {"name": "torus", "R": 1.0, "r": 2.0}},
                   "/surface")
    expect_pointer({"surface": {"name": "sphere", "r": "big"}}, "/surface/r")
    expect_pointer({"surface": {"name": "sphere", "radius": 1.0}}, "/surface")
    expect_pointer({"surface": {"name": "ellipsoid", "a": 1.0}}, "/surface")
    expect_pointer({"surface": {"name": "sphere"}, "resolution": [48]},
                   "/resolution")
    expect_pointer({"surface": {"name": "sphere"}, "resolution": [2, 48]},
                   "/resolution")
    expect_pointer({"surface": {"name": "sphere"},
                    "resolution": [16.0, 32]}, "/resolution/0")
    expect_pointer({"surface": {"name": "sphere"}, "angular_resolution": 64},
                   "/")
    expect_pointer({"surface": {"name": "sphere"}, "fit_window": [0, 5]},
                   "/fit_window")
    expect_pointer({"surface": {"name": "sphere"}, "fit_window": "none"},
                   "/fit_window")
    expect_pointer({"surface": {"name": "sphere"}, "noise_cutoff": 0.0},
                   "/noise_cutoff")
    expect_pointer({"surface": {"name": "sphere"},
                    "outputs": [{"plot": "x.png"}]}, "/outputs/0")
    expect_pointer({"surface": {"name": "sphere"},
                    "outputs": [{"report_json": 7}]},
                   "/outputs/0/report_json")
    expect_pointer({"surface": {"name": "sphere"},
                    "invert": {}}, "/")
    expect_pointer({"surface": {"invert": {"center": [0, 0], "radius": 1.0,
                                           "inner": {"name": "sphere"}}}},
                   "/surface/invert/center")


def test_unknown_surface_error_lists_catalog():
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"surface": {"name": "dodecahedron"}}))
    message = str(err.value)
    for name in ("sphere", "ellipsoid", "spheroid", "torus", "peanut"):
        assert name in message


def test_missing_surface_and_bad_json():
    with pytest.raises(ConfigError) as err:
        parse_config("{}")
    assert "surface" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config("{not json")
    assert "invalid JSON" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config("[1, 2]")


def test_build_surface_inversion_errors():
    with pytest.raises(ConfigError) as err:
        build_surface({"invert": {"center": [0.0, 0.0, 0.0]}})
    assert "/surface/invert" in str(err.value)
    with pytest.raises(ConfigError) as err:
        build_surface({"invert": {"center": [0.0, 0.0, 0.0], "radius": -1.0,
                                  "inner": {"name": "sphere"}}})
    assert "/surface/invert/radius" in str(err.value)


def test_load_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"surface": {"name": "sphere"},
                                "resolution": [8, 16]}))
    config = load_config(path)
    assert config.resolution == (8, 16)
    with pytest.raises(OSError):
        load_config(tmp_path / "missing.json")


@pytest.mark.parametrize("doc, pointer", [
    ({"surface": {"name": "sphere"}, "noise_cutoff": float("nan")},
     "/noise_cutoff"),
    ({"surface": {"name": "sphere"}, "noise_cutoff": float("inf")},
     "/noise_cutoff"),
    ({"surface": {"name": "sphere", "r": 10 ** 400}}, "/surface/r"),
    ({"surface": {"name": "torus", "R": -float("inf")}}, "/surface/R"),
    ({"surface": {"invert": {"center": [float("nan"), 0, 0], "radius": 1.0,
                             "inner": {"name": "sphere"}}}},
     "/surface/invert/center/0"),
    ({"surface": {"invert": {"center": [3.0, 0, 0], "radius": 1e200,
                             "inner": {"name": "sphere"}}}},
     "/surface/invert/radius"),
    ({"surface": {"invert": {"center": [3.0, 0, 0], "radius": 1e-200,
                             "inner": {"name": "sphere"}}}},
     "/surface/invert/radius"),
    ({"surface": {"name": "sphere"}, "resolution": [10 ** 30, 8]},
     "/resolution"),
    ({"surface": {"name": "sphere"}, "resolution": [4097, 4096]},
     "/resolution"),
])
def test_nonfinite_and_out_of_range_values_rejected(doc, pointer):
    expect_pointer(doc, pointer)


@pytest.mark.parametrize("outputs, pointer, first", [
    ([{"report_json": "out.txt"}, {"eigen_csv": "out.txt"}],
     "/outputs/1/eigen_csv", "/outputs/0/report_json"),
    ([{"report_json": "a/out.json", "eigen_csv": "a/./b/../out.json"}],
     "/outputs/0/eigen_csv", "/outputs/0/report_json"),
])
def test_repeated_output_path_rejected(outputs, pointer, first):
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"surface": {"name": "sphere"},
                                 "outputs": outputs}))
    message = str(err.value)
    assert message.startswith(pointer + ":"), message
    assert first in message


def test_largest_grid_accepted():
    config = make_config({"surface": {"name": "sphere"},
                          "resolution": [4096, 4096]})
    assert config.resolution == (4096, 4096)


def test_radius_square_overflow_named():
    with pytest.raises(ConfigError, match="overflows"):
        build_surface({"invert": {"center": [3.0, 0.0, 0.0], "radius": 1e200,
                                  "inner": {"name": "sphere"}}})
    with pytest.raises(ConfigError, match="underflows"):
        build_surface({"invert": {"center": [3.0, 0.0, 0.0],
                                  "radius": 1e-160,
                                  "inner": {"name": "sphere"}}})


_numbers = st.one_of(
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True))
_json = st.recursive(
    st.none() | st.booleans() | _numbers | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
_surfaces = st.fixed_dictionaries(
    {"name": st.sampled_from(["sphere", "ellipsoid", "spheroid", "torus",
                              "peanut", "cube"])},
    optional={key: _numbers for key in ("r", "a", "b", "c", "d", "R")})
_inversions = st.builds(
    lambda center, radius, inner: {"invert": {
        "center": center, "radius": radius, "inner": inner}},
    st.lists(_numbers, min_size=2, max_size=4), _numbers, _surfaces)
_documents = st.fixed_dictionaries({}, optional={
    "surface": st.one_of(_surfaces, _inversions, _json),
    "resolution": st.one_of(st.lists(st.integers(-10, 10 ** 30), max_size=3),
                            _json),
    "fit_window": st.one_of(st.just("auto"),
                            st.lists(st.integers(-5, 100), max_size=3),
                            _json),
    "noise_cutoff": _numbers,
    "outputs": st.one_of(st.lists(st.dictionaries(
        st.sampled_from(["report_json", "eigen_csv", "matrix_dump", "plot"]),
        st.one_of(st.text(max_size=8), _numbers), max_size=2), max_size=2),
        _json),
}) | _json


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_documents)
def test_parse_config_returns_config_or_config_error(doc):
    try:
        config = parse_config(json.dumps(doc))
    except ConfigError:
        return
    assert isinstance(config, RunConfig)
