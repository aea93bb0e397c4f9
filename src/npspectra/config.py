"""Run configuration: JSON schema, validation, surface construction.

A config document looks like

    {
      "surface": {"name": "torus", "R": 2.0, "r": 1.0},
      "resolution": [64, 64],
      "fit_window": "auto",
      "noise_cutoff": 1e-10,
      "outputs": [{"report_json": "report.json"}]
    }

The surface entry may instead be an inversion wrapper
``{"invert": {"center": [x, y, z], "radius": rho, "inner": {...}}}``.
Validation errors carry a JSON-pointer path to the offending field.
"""
from __future__ import annotations

import inspect
import json
import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError, SingularInversion
from .grids import check_resolution
from .surfaces import CATALOG, ParametricSurface, catalog_names, mobius_invert

_OUTPUT_KEYS = ("report_json", "eigen_csv", "matrix_dump")

_DEFAULT_RESOLUTION = {"polar": (48, 96), "biperiodic": (64, 64)}


@dataclass
class RunConfig:
    """Validated pipeline configuration with all defaults filled in."""

    surface: ParametricSurface
    surface_spec: dict
    resolution: tuple
    fit_window: object = "auto"
    noise_cutoff: float = 1e-10
    outputs: list = field(default_factory=list)

    def echo(self) -> dict:
        """Normalized dict form of the config, embedded in reports."""
        return {
            "surface": self.surface_spec,
            "resolution": list(self.resolution),
            "fit_window": self.fit_window if self.fit_window == "auto"
            else list(self.fit_window),
            "noise_cutoff": self.noise_cutoff,
            "outputs": self.outputs,
        }


def _fail(pointer: str, message: str):
    raise ConfigError(f"{pointer or '/'}: {message}")


def _expect(obj, typ, pointer, what):
    if not isinstance(obj, typ) or isinstance(obj, bool):
        _fail(pointer, f"expected {what}, got {type(obj).__name__}")
    return obj


def _number(obj, pointer):
    value = _expect(obj, (int, float), pointer, "a number")
    try:
        value = float(value)
    except OverflowError:
        _fail(pointer, f"integer of {len(str(abs(value)))} digits is "
                       f"outside the floating-point range")
    if not math.isfinite(value):
        _fail(pointer, f"must be finite, got {value}")
    return value


def build_surface(spec: dict, pointer: str = "/surface") -> ParametricSurface:
    """Construct a surface from its config entry (catalog or inversion).

    Raises
    ------
    ConfigError
        On unknown names (listing the catalog), missing or unknown
        parameters, invalid parameter values, or an inversion center on
        the surface.
    """
    _expect(spec, dict, pointer, "an object")
    if "invert" in spec:
        extra = set(spec) - {"invert"}
        if extra:
            _fail(pointer, f"unexpected keys {sorted(extra)} next to 'invert'")
        inner = _expect(spec["invert"], dict, pointer + "/invert", "an object")
        missing = {"center", "radius", "inner"} - set(inner)
        if missing:
            _fail(pointer + "/invert", f"missing keys {sorted(missing)}")
        extra = set(inner) - {"center", "radius", "inner"}
        if extra:
            _fail(pointer + "/invert", f"unknown keys {sorted(extra)}")
        center = _expect(inner["center"], (list, tuple),
                         pointer + "/invert/center", "an array of 3 numbers")
        if len(center) != 3:
            _fail(pointer + "/invert/center", "expected 3 components")
        center = [_number(c, pointer + f"/invert/center/{i}")
                  for i, c in enumerate(center)]
        radius = _number(inner["radius"], pointer + "/invert/radius")
        base = build_surface(inner["inner"], pointer + "/invert/inner")
        try:
            return mobius_invert(base, center, radius)
        except ConfigError as exc:      # mobius_invert checks only the radius
            _fail(pointer + "/invert/radius", str(exc))
        except SingularInversion as exc:
            _fail(pointer + "/invert", str(exc))
    if "name" not in spec:
        _fail(pointer, "missing 'name'")
    name = _expect(spec["name"], str, pointer + "/name", "a string")
    if name not in CATALOG:
        _fail(pointer + "/name",
              f"unknown surface {name!r}; catalog: {', '.join(catalog_names())}")
    # the catalog signature is the schema: a parameter without a default
    # is required
    params = inspect.signature(CATALOG[name]).parameters
    extra = set(spec) - {"name"} - set(params)
    if extra:
        _fail(pointer, f"unknown parameters {sorted(extra)} for {name!r}; "
                       f"valid: {sorted(params)}")
    kwargs = {}
    for key, param in params.items():
        if key in spec:
            kwargs[key] = _number(spec[key], f"{pointer}/{key}")
        elif param.default is param.empty:
            _fail(pointer, f"surface {name!r} requires parameter {key!r}")
        else:
            kwargs[key] = param.default
    try:
        return CATALOG[name](**kwargs)
    except ConfigError as exc:
        _fail(pointer, str(exc))


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document.

    Fills defaults: resolution 48x96 for polar charts and 64x64 for
    biperiodic ones, fit_window "auto", noise_cutoff 1e-10, no outputs.

    Raises
    ------
    ConfigError
        With a JSON-pointer path for any schema violation, including an
        output path that is empty or names a directory (a trailing
        separator, or a last component "." or "..").
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"/: invalid JSON ({exc})") from exc
    _expect(doc, dict, "", "an object")
    known = {"surface", "resolution", "fit_window", "noise_cutoff",
             "outputs"}
    extra = set(doc) - known
    if extra:
        _fail("", f"unknown keys {sorted(extra)}; valid: {sorted(known)}")
    if "surface" not in doc:
        _fail("", "missing 'surface'")
    surface = build_surface(doc["surface"], "/surface")

    if "resolution" in doc:
        res = _expect(doc["resolution"], (list, tuple), "/resolution",
                      "an array [n_u, n_v]")
        if len(res) != 2:
            _fail("/resolution", "expected two entries")
        n_u = _expect(res[0], int, "/resolution/0", "an integer")
        n_v = _expect(res[1], int, "/resolution/1", "an integer")
        check_resolution(n_u, n_v, "/resolution")
        resolution = (n_u, n_v)
    else:
        resolution = _DEFAULT_RESOLUTION[surface.kind]

    fit_window = doc.get("fit_window", "auto")
    if fit_window != "auto":
        fw = _expect(fit_window, (list, tuple), "/fit_window",
                     '"auto" or an array [j_lo, j_hi]')
        if len(fw) != 2:
            _fail("/fit_window", "expected two entries")
        j_lo = _expect(fw[0], int, "/fit_window/0", "an integer")
        j_hi = _expect(fw[1], int, "/fit_window/1", "an integer")
        if not (1 <= j_lo <= j_hi):
            _fail("/fit_window", f"({j_lo}, {j_hi}) is not a valid window")
        fit_window = (j_lo, j_hi)

    cutoff = _number(doc.get("noise_cutoff", 1e-10), "/noise_cutoff")
    if cutoff <= 0:
        _fail("/noise_cutoff", "must be strictly positive")

    outputs = []
    if "outputs" in doc:
        arr = _expect(doc["outputs"], list, "/outputs", "an array")
        seen = {}       # normalized path -> pointer of its first entry
        for i, entry in enumerate(arr):
            _expect(entry, dict, f"/outputs/{i}", "an object")
            if not entry:
                _fail(f"/outputs/{i}", "empty output entry")
            extra = set(entry) - set(_OUTPUT_KEYS)
            if extra:
                _fail(f"/outputs/{i}", f"unknown keys {sorted(extra)}; "
                                       f"valid: {list(_OUTPUT_KEYS)}")
            for key, val in entry.items():
                where = f"/outputs/{i}/{key}"
                _expect(val, str, where, "a path string")
                if not val:
                    _fail(where, "empty path")
                # a trailing separator, "." or ".." names a directory
                if os.path.basename(val) in ("", ".", ".."):
                    _fail(where, f"path {val!r} names a directory, "
                                 f"not a file")
                path = os.path.normpath(val)
                if path in seen:
                    _fail(where, f"path {val!r} is already written by "
                                 f"{seen[path]}")
                seen[path] = where
            outputs.append(dict(entry))

    return RunConfig(
        surface=surface,
        surface_spec=doc["surface"],
        resolution=resolution,
        fit_window=fit_window,
        noise_cutoff=cutoff,
        outputs=outputs,
    )


def load_config(path) -> RunConfig:
    """Read and parse a config file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
