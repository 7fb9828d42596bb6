"""The README's Quick start block runs as written, and its config table is the CLI's."""

import re
from pathlib import Path

from perispec import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    text = README.read_text()
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", text, re.S)
    assert block is not None, "README has no Quick start python block"
    env = {}
    exec(compile(block.group(1), "README.md (Quick start)", "exec"), env)
    assert env["res"].status == "unique_root"
    assert env["orbit"].verdict == "persistence"


def test_config_key_table_lists_every_key_the_cli_reads():
    text = README.read_text()
    table = re.search(r"\| section \| key \|[^\n]*\n\|[- |]+\n((?:\|[^\n]*\n)+)", text)
    assert table is not None, "README has no config key table"
    rows = [[cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
            for line in table.group(1).splitlines()]
    assert all(len(row) == 5 for row in rows), "a table row does not have 5 cells"
    listed = [(row[0], row[1]) for row in rows]
    assert len(set(listed)) == len(listed), "a key is listed twice"
    assert set(listed) == {(section, key) for section, keys in cli.KEYS.items()
                           for key in keys}
