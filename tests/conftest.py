"""Shared fixtures for the test suite.

Heavy spectral fixtures are session scoped so the dense assembly and
eigensolves run once; reference constants frozen from the independent
derivations in ``tests/oracles/derive_reference_values.py`` live in
``reference.py`` next to this file.
"""

from __future__ import annotations

import errno
import json
import os
from contextlib import contextmanager

import pytest

from npspectra import build_grid, parse_config, sphere, torus


def make_config(spec: dict):
    """Parse a config dict through the public JSON entry point."""
    return parse_config(json.dumps(spec))


@pytest.fixture(scope="session")
def sphere_grid_small():
    """Unit sphere grid, 16 x 32, cheap enough for assembly tests."""
    return build_grid(sphere(), 16, 32)


@pytest.fixture(scope="session")
def torus_grid_small():
    """Default torus grid, 16 x 16."""
    return build_grid(torus(), 16, 16)


@pytest.fixture(scope="session")
def sphere_report_small():
    """Full pipeline on a 16 x 32 sphere; shared across report tests."""
    from npspectra.pipeline import compute_report

    config = make_config({"surface": {"name": "sphere"}, "resolution": [16, 32]})
    return compute_report(config)


class _ShortWriter:
    """File stand-in whose write number ``fail_on`` writes half of its
    data, then fails; the writes before it go through.  ``sizes`` records
    the byte count of every write asked for."""

    def __init__(self, fh, fail_on, sizes):
        self._fh = fh
        self._fail_on = fail_on
        self._sizes = sizes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        return False

    def write(self, data):
        self._sizes.append(len(data) if isinstance(data, str)
                           else memoryview(data).nbytes)
        if len(self._sizes) < self._fail_on:
            return self._fh.write(data)
        self._fh.write(data[:len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture
def short_writes(monkeypatch):
    """Context manager under which every file opened by ``os.fdopen``
    fails partway through write number ``fail_on`` (the first by default),
    as on a full disk.  It yields the list of the byte counts of the
    writes asked for."""

    @contextmanager
    def active(fail_on=1):
        sizes = []
        real_fdopen = os.fdopen
        with monkeypatch.context() as patch:
            patch.setattr(os, "fdopen", lambda fd, *args, **kwargs:
                          _ShortWriter(real_fdopen(fd, *args, **kwargs),
                                       fail_on, sizes))
            yield sizes

    return active
