"""tools/fresh_profiles.py on a few requests: its figures, its two-tree
ratio and the workloads it refuses."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "fresh_profiles.py"


def run_tool(*args):
    """(exit code, stdout, stderr) of the tool on 6 ragged_coprime requests
    in blocks of 3, after 2 warm-up requests, unless args override them."""
    proc = subprocess.run(
        [sys.executable, str(TOOL), *args, "--requests", "6", "--block", "3", "--warmup", "2",
         "--seed", "5"], capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_one_tree_reports_both_medians_and_their_difference():
    code, stdout, stderr = run_tool("--workload", "ragged_coprime")
    assert code == 0, stdout + stderr
    assert "plan building" in stdout
    doc = json.loads(stdout.strip().splitlines()[-1])
    assert (doc["workload"], doc["requests"], doc["block"], doc["warmup"]) == (
        "ragged_coprime", 6, 3, 2)
    (tree,) = doc["trees"]
    assert tree["tree"] == str(ROOT) and tree["problems"] == 0
    assert tree["fresh_ms"] > 0 and tree["reused_ms"] > 0
    assert tree["plan_ms"] == pytest.approx(tree["fresh_ms"] - tree["reused_ms"])
    assert tree["plan_share"] == pytest.approx(tree["plan_ms"] / tree["fresh_ms"])
    assert "plan_ratio" not in doc


def test_two_trees_report_the_ratio_of_their_plan_costs():
    code, stdout, stderr = run_tool(str(ROOT), str(ROOT), "--workload", "ragged_coprime")
    assert code == 0, stdout + stderr
    doc = json.loads(stdout.strip().splitlines()[-1])
    first, second = doc["trees"]
    assert first["problems"] == second["problems"] == 0
    assert doc["plan_ratio"] == pytest.approx(second["plan_ms"] / first["plan_ms"])


def test_workload_without_a_hypervector_is_refused():
    code, _, stderr = run_tool("--workload", "kernels_coprime")
    assert code == 1 and "carry no hypervector" in stderr


def test_block_of_one_is_refused():
    proc = subprocess.run([sys.executable, str(TOOL), "--workload", "ragged_coprime",
                           "--requests", "4", "--seed", "5", "--block", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "--block must be at least 2" in proc.stderr
