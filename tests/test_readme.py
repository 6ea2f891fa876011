"""The examples in README.md run as written.

Each ```python block is executed, and every `print(...)  # value` line must
print its commented value.  Each line of the "Command line" block runs
through `negarr.cli.main` in a scratch directory and must exit 0 or 1 (a
certificate may fail on an input; it may not be an input error).
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

from negarr.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# the points file the command block reads: two points over Q(i), the field
# of fermat:4 (its 4-fold point (0:0:1) and the triple point (1:1:1))
PTS = "field EXT Q [1,0,1]\npoint [0,0] [0,0] [1,0]\npoint [1,0] [1,0] [1,0]\n"


def test_readme_python_blocks_print_their_commented_values():
    expected, printed = [], []
    for block in re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S):
        expected += [line.split("#", 1)[1].strip()
                     for line in block.splitlines() if line.startswith("print(")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(block, {})
        printed += out.getvalue().splitlines()
    assert expected == ["-9/4", "-225/67", "-161/50"]
    assert printed == expected


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    section = README.split("## Command line\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section, re.M | re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert commands and all(argv[0] == "negarr" for argv in commands)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pts.txt").write_text(PTS)
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv[1:]) in (0, 1), argv
