"""The README's Quick start block runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    text = README.read_text()
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", text, re.S)
    assert block is not None, "README has no Quick start python block"
    env = {}
    exec(compile(block.group(1), "README.md (Quick start)", "exec"), env)
    assert env["res"].status == "unique_root"
    assert env["orbit"].verdict == "persistence"
