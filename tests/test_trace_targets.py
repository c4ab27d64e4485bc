"""Every per-layer target of the bench tracer names a callable in ``premonoids``.

``bench/tracing.py`` skips a target it cannot find and reports its metric as
absent, so a rename in the program would drop a per-layer metric silently;
this test reads the target table and resolves each path the way the tracer
does, without installing anything.
"""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracing  # noqa: E402

PATHS = [(stem, module, path) for stem, module, paths, _ in tracing.TARGETS for path in paths]


@pytest.mark.parametrize("stem, module, path", PATHS, ids=[f"{stem}:{path}" for stem, _, path in PATHS])
def test_trace_target_resolves(stem, module, path):
    _, _, fn = tracing._resolve(importlib.import_module(f"premonoids.{module}"), path)
    assert callable(fn), (stem, path)
