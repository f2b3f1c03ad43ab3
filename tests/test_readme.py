"""Every `enchilada` command in the README runs as written.

The commands run in-process from a temporary directory that holds the
README's example sequence as `sequence.json`; each must exit 0 or 1 and
print its JSON report.
"""

import json
import re
import shlex
from pathlib import Path

from enchilada.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _commands():
    """The `enchilada` commands of the README's sh blocks, each split as a
    shell would split it; a quoted argument may span lines."""
    commands, pending = [], ""
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        for line in block.splitlines():
            if not pending and not line.startswith("enchilada "):
                continue
            pending += line + "\n"
            try:
                words = shlex.split(pending, comments=True)
            except ValueError:  # a quote is still open
                continue
            commands.append(words[1:])
            pending = ""
    return commands


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    sequence = re.search(r"```json\n(.*?)```", README, re.S).group(1)
    (tmp_path / "sequence.json").write_text(sequence, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    commands = _commands()
    assert [argv[0] for argv in commands] == [
        "compose", "kernel", "classify-predicates", "check-exact",
        "oracle-tensor", "gallery", "gallery", "random-check",
    ]
    for argv in commands:
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (0, 1), (argv, out)
        report = json.loads(out[0 if out.startswith("{") else out.index("\n{") + 1 :])
        assert report["verb"] == argv[0]
