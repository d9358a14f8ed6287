"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_prints_one_line_per_phase(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, f"{README}:quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert [line.split()[0] for line in lines] == ["0", "1", "2", "3", "4"]
