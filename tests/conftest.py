from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from a1bordism import ext
from a1bordism import pipelines as pl
from a1bordism import spaces as sp

_PIPELINE_CACHE = {}


@pytest.fixture(scope="session")
def pipeline_cache():
    """Run each acceptance pipeline once per session."""

    def run(name: str, through: int):
        key = (name, through)
        if key not in _PIPELINE_CACHE:
            _PIPELINE_CACHE[key] = pl.run_pipeline(name, through)
        return _PIPELINE_CACHE[key]

    return run


@pytest.fixture(scope="session")
def pipeline_resolutions():
    """The resolutions run_pipeline(name, 7) builds, keyed "name/k".

    k is the index in ``report.pieces`` of the piece whose remainder was
    resolved (its chart is not None).  They are captured from the pipeline
    itself by wrapping ``ext.minimal_resolution``, so they follow its
    window and split bound; each report seeds the session's pipeline cache.
    """
    out = {}
    built = []
    resolve = ext.minimal_resolution

    def spy(*args, **kwargs):
        built.append(resolve(*args, **kwargs))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ext, "minimal_resolution", spy)
        for name in sp.STRUCTURE_NAMES:
            built.clear()
            report = pl.run_pipeline(name, 7)
            _PIPELINE_CACHE.setdefault((name, 7), report)
            keys = [f"{name}/{k}" for k, p in enumerate(report.pieces) if p.chart is not None]
            out.update(zip(keys, built, strict=True))
    return out
