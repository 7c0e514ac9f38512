import os
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
