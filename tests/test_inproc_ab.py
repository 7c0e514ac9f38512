"""tools/inproc_ab.py run with the repository against itself and against a
copy whose outputs differ, in both load orders, and its sign test."""

import importlib.util
import json
import shutil
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


def run_tool(parent, change):
    """tools/inproc_ab.py on 20 kernels_coprime requests: (exit code,
    stdout, its last line as JSON)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "inproc_ab.py"), str(parent), str(change),
         "--workload", "kernels_coprime", "--requests", "20", "--seed", "5"],
        capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_both_load_orders_are_reported():
    code, stdout, result = run_tool(ROOT, ROOT)
    assert code == 0, stdout
    assert "parent loaded first:" in stdout and "change loaded first:" in stdout
    swapped = result["swapped"]
    assert swapped["identical"] is True and swapped["problems"] == 0
    assert 0 <= swapped["change_wins"] <= 20 and 0 < swapped["sign_test_p"] <= 1
    assert swapped["parent_ms"] > 0 and swapped["change_ms"] > 0


def test_differing_outputs_fail_in_both_orders(tmp_path):
    skip = shutil.ignore_patterns("__pycache__")
    for sub in ("src", "perfbench"):
        shutil.copytree(ROOT / sub, tmp_path / sub, ignore=skip)
    source = tmp_path / "src" / "stpdft" / "projection.py"
    text = source.read_text()
    line = "    return float(np.dot(x[i] * y[j], w)) / (m * n)\n"
    assert line in text
    source.write_text(text.replace(line, line.replace("(m * n)", "(m * n) + 1.0")))
    code, stdout, result = run_tool(ROOT, tmp_path)
    assert code == 1, stdout
    assert result["identical"] is False and result["swapped"]["identical"] is False
