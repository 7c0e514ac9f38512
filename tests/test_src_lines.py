"""tools/src_lines.py, the line count of src/stpdft."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_total_is_the_sum_of_the_file_lengths():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py")],
                         capture_output=True, text=True, check=True).stdout
    header, *rows = (line.split() for line in out.splitlines())
    assert header == ["module", "wc", "-l", "code", "docstring", "comment", "blank"]
    modules = sorted((ROOT / "src" / "stpdft").glob("*.py"))
    assert [row[0] for row in rows] == [path.name for path in modules] + ["total"]
    wc, *kinds = map(int, rows[-1][1:])
    assert wc == sum(path.read_bytes().count(b"\n") for path in modules) == sum(kinds)
