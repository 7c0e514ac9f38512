"""tools/inproc_ab.py run with the repository against itself, and its sign test."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("inproc_ab", ROOT / "tools" / "inproc_ab.py")
inproc_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inproc_ab)


def test_sign_test_p_values():
    assert inproc_ab.sign_test_p(10, 0) == 2 / 1024
    assert inproc_ab.sign_test_p(0, 10) == 2 / 1024
    assert inproc_ab.sign_test_p(5, 5) == 1.0
    assert inproc_ab.sign_test_p(0, 0) == 1.0
    assert inproc_ab.sign_test_p(1290, 210) < 1e-100


def test_a_tree_against_itself_gives_byte_identical_outputs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "inproc_ab.py"), str(ROOT), str(ROOT),
         "--workload", "kernels_coprime", "--requests", "20", "--seed", "5"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["identical"] is True and result["problems"] == 0
    assert result["requests"] == 20 and 0 <= result["change_wins"] <= 20
    assert 0 < result["sign_test_p"] <= 1
    assert result["parent_ms"] > 0 and result["change_ms"] > 0
