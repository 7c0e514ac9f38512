import os
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def src_on_child_path():
    """Let `python -m stpdft` and the demos run in subprocesses import src/.

    pyproject's pythonpath setting puts src/ on sys.path of the test process
    only; child processes read PYTHONPATH.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield


def stpdft_caches() -> dict:
    """Every memo on an imported stpdft module, by qualified name: each
    module attribute with a cache_clear method, so the functools caches
    (lru_cache, cache) and the hand-built memos that mimic their
    cache_clear / cache_info pair (algebra._pair_band, projection.pair_band)."""
    return {f"{name}.{attr}": obj for name, module in list(sys.modules.items())
            if name == "stpdft" or name.startswith("stpdft.")
            for attr, obj in vars(module).items() if hasattr(obj, "cache_clear")}


@pytest.fixture(autouse=True)
def cold_caches():
    """Clear every stpdft cache before each test, so that no test passes on
    state an earlier test warmed; tests that count hits or misses still
    clear their own cache."""
    for cache in stpdft_caches().values():
        cache.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
