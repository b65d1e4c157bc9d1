"""Every `plates ...` example in the README's "Command line" block runs and
exits 0, so the README cannot show a flag or field the CLI no longer has."""

import shlex
from pathlib import Path

import pytest

from plates.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _command_line_examples():
    text = README.read_text()
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "plates":
            examples.append(argv[1:])
    return examples


EXAMPLES = _command_line_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("argv", EXAMPLES, ids=" ".join)
def test_readme_example_exits_0(argv, capsys):
    assert main(argv) == 0
