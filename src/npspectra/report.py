"""Serialization of spectrum reports: JSON documents and CSV eigen tables.

Floating-point values are rendered with a fixed 17-significant-digit
format, so identical runs produce byte-identical files.
"""
from __future__ import annotations

import numpy as np

from ._fileio import atomic_write
from .errors import ConfigError
from .spectrum import TRIVIAL_TOL, SpectrumReport, plasmon_map

CSV_FORMAT_LINE = "# eigen-table v1"
CSV_HEADER = "j,lambda,sign,mu_j,epsilon_j"


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with fixed float formatting.

    Dicts keep insertion order (the schema fixes it); floats go through
    ``format_float``; numpy scalars and arrays are accepted.
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
        seq = list(obj)
        if not seq:
            return "[]"
        items = (inner + render_json(v, indent + 1) for v in seq)
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


def render_eigen_csv(report: SpectrumReport) -> str:
    """Eigenvalue table as CSV text.

    Rows are sorted by eigenvalue modulus, descending, and 1-based indexed;
    ``sign`` is +1 or -1, ``mu_j`` is the j-th singular value, and
    ``epsilon_j`` is the plasmonic eigenvalue (empty for the trivial
    eigenvalue near 1/2, the pole of the map, i.e. normally the first row).
    """
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


def write_text(path, text: str) -> None:
    """Write UTF-8 text with LF line ends, replacing ``path`` atomically.

    The text goes to a temporary file in the same directory, which then
    replaces ``path``; a failed write leaves any earlier file intact.
    """
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
