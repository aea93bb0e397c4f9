"""Serialization of spectrum reports: JSON documents and CSV eigen tables.

Floating-point values are rendered with a fixed 17-significant-digit
format, so identical runs produce byte-identical files.
"""
from __future__ import annotations

from itertools import chain, repeat

import numpy as np

from ._fileio import atomic_write
from .errors import ConfigError
from .spectrum import SpectrumReport, _plasmon_values

CSV_FORMAT_LINE = "# eigen-table v1"
CSV_HEADER = "j,lambda,sign,mu_j,epsilon_j"
# rows of the eigen table per chunk: only one chunk's values are held as
# Python floats at a time, so rendering holds no more than one list of rows
_CSV_ROWS = 256


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def _is_float_vector(obj) -> bool:
    """Whether ``obj`` is a 1-D float array or a sequence of floats only."""
    if isinstance(obj, np.ndarray):
        return obj.ndim == 1 and obj.dtype.kind == "f"
    return all(isinstance(v, (float, np.floating)) for v in obj)


def _render_floats(obj, inner: str) -> list:
    """The items of a float vector (``_is_float_vector``), each on its own
    indented line, as ``render_json`` renders them one by one.

    Raises
    ------
    ConfigError
        Naming the first non-finite value, as ``render_json`` does.
    """
    values = np.asarray(obj, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        bad = obj[int(np.argmin(finite))]
        raise ConfigError(f"cannot serialize non-finite value {bad}")
    return [inner + format(x, ".17g") for x in values.tolist()]


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with fixed float formatting.

    Dicts keep insertion order (the schema fixes it); floats go through
    ``format_float``; numpy scalars and arrays are accepted.  A 1-D float
    array or a sequence of floats, such as a report's spectrum, is checked
    for finiteness and formatted in one pass (``_render_floats``), with
    the same bytes and errors as element by element.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f'{inner}"{k}": {render_json(v, indent + 1)}'
                 for k, v in obj.items())
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        if not len(obj):
            return "[]"
        if _is_float_vector(obj):
            items = _render_floats(obj, inner)
        else:
            items = (inner + render_json(v, indent + 1) for v in obj)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            raise ConfigError(f"cannot serialize non-finite value {obj}")
        return format_float(obj)
    raise ConfigError(f"cannot serialize {type(obj).__name__} to JSON")


def report_to_dict(report: SpectrumReport, config_echo: dict,
                   version: str) -> dict:
    """Assemble the full report document in its fixed key order."""
    coeffs = report.predicted
    return {
        "config_echo": config_echo,
        "coefficients": {
            "A_total": coeffs.A_total,
            "A_plus": coeffs.A_plus,
            "A_minus": coeffs.A_minus,
            "willmore": coeffs.willmore,
            "euler_char": coeffs.euler_char,
        },
        "spectrum": {
            "lambda_plus": report.lambda_plus,
            "lambda_minus": report.lambda_minus,
            "singular_values": report.singular_values,
            "clusters": [{"value": val, "multiplicity": int(mult)}
                         for val, mult in report.clusters],
        },
        "fit": report.fit,
        "plasmon": report.plasmon,
        "diagnostics": report.diagnostics,
        "version": version,
    }


def render_report_json(report: SpectrumReport, config_echo: dict,
                       version: str) -> str:
    """Full report as a JSON string with a trailing newline."""
    return render_json(report_to_dict(report, config_echo, version)) + "\n"


def _formatted(values: np.ndarray):
    """``format_float`` of each of ``values``, in order, as an iterator:
    one ``format`` map over ``tolist()``, no list of strings held."""
    return map(format, values.tolist(), repeat(".17g"))


def render_eigen_csv(report: SpectrumReport) -> str:
    """Eigenvalue table as CSV text.

    Rows are sorted by eigenvalue modulus, descending, and 1-based indexed;
    ``sign`` is +1 or -1, ``mu_j`` is the j-th singular value, and
    ``epsilon_j`` is the plasmonic eigenvalue (empty for the trivial
    eigenvalue near 1/2, the pole of the map, i.e. normally the first row).
    Each column is formatted in one pass over its values (``_formatted``),
    with the bytes of ``format_float``, in chunks of ``_CSV_ROWS`` rows.
    """
    signed = np.concatenate([report.lambda_plus, -report.lambda_minus])
    lam = signed[np.argsort(-np.abs(signed), kind="stable")]
    mu = np.asarray(report.singular_values, dtype=float)
    lines = [CSV_FORMAT_LINE, CSV_HEADER]
    for r0 in range(0, lam.size, _CSV_ROWS):
        part = lam[r0:r0 + _CSV_ROWS]
        keep, eps = _plasmon_values(part)
        eps_j = _formatted(eps)
        cols = zip(_formatted(part), (part > 0).tolist(),
                   chain(_formatted(mu[r0:r0 + part.size]), repeat("")),
                   keep.tolist())
        lines += [f"{j},{lam_j},{1 if pos else -1},{mu_j},"
                  f"{next(eps_j) if kept else ''}"
                  for j, (lam_j, pos, mu_j, kept)
                  in enumerate(cols, start=r0 + 1)]
    return "\n".join(lines) + "\n"


def write_text(path, text: str) -> None:
    """Write UTF-8 text with LF line ends, replacing ``path`` atomically.

    The text goes to a temporary file in the same directory, which then
    replaces ``path``; a failed write leaves any earlier file intact.
    """
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
