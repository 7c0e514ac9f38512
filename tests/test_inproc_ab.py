"""tools/inproc_ab.py run with the repository against itself."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_tree_against_itself_gives_byte_identical_outputs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "inproc_ab.py"), str(ROOT), str(ROOT),
         "--workload", "kernels_coprime", "--requests", "20", "--seed", "5"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["identical"] is True and result["problems"] == 0
    assert result["requests"] == 20 and 0 <= result["change_wins"] <= 20
    assert result["parent_ms"] > 0 and result["change_ms"] > 0
