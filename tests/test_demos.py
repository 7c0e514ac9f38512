import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# (section heading, code) of every ```python block in the README.
README_BLOCKS = [
    (section.split("\n", 1)[0], code)
    for section in (ROOT / "README.md").read_text().split("\n## ")
    for code in re.findall(r"```python\n(.*?)```", section, re.S)
]


def test_demos_found():
    assert DEMOS
    assert "A taste" in dict(README_BLOCKS)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("heading,code", README_BLOCKS, ids=[h for h, _ in README_BLOCKS])
def test_readme_block_runs(heading, code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    if heading == "A taste":
        assert proc.stdout == "(3, 2, 4)\n"
