"""The README's library quick start, command lines and settings block hold as written."""

import re
import shlex
from pathlib import Path

from chronomesh import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after ``heading``."""
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_prints_one_line_per_phase(capsys):
    block = readme_block("## Library quick start", "python")
    exec(compile(block, f"{README}:quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert [line.split()[0] for line in lines] == ["0", "1", "2", "3", "4"]


def test_command_lines_run_and_the_last_reruns_the_one_before(tmp_path):
    for line in readme_block("## Command line", "sh").splitlines():
        program, *argv = shlex.split(line, comments=True)
        assert program == "chronomesh"
        argv = [str(tmp_path / a) if a.startswith(("out/", "rerun/")) else a for a in argv]
        assert cli.run_command(argv) == 0, line
    # the last line reruns the manifest of the channel-sample line before it
    assert (tmp_path / "rerun" / "samples.csv").read_bytes() == \
        (tmp_path / "out" / "samples.csv").read_bytes()


def test_settings_block_is_a_fresh_manifest(tmp_path):
    assert cli.run_command(["steady", "--out", str(tmp_path)]) == 0
    manifest = (tmp_path / "manifest.cfg").read_text(encoding="utf-8")
    assert readme_block("### Settings", "ini") == manifest[manifest.index("[scenario]"):]
