"""README's examples run as written: Python blocks give their `#` outputs, CLI lines exit 0."""
import re
import shlex
from pathlib import Path

import pytest

from krawtchouk.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"```(\w+)\n(.*?)```", README, re.S)
PYTHON_BLOCKS = [body for lang, body in BLOCKS if lang == "python"]
CLI_LINES = [
    shlex.split(line)[1:]
    for lang, body in BLOCKS
    if lang == "sh"
    for line in body.replace("\\\n", " ").splitlines()
    if line.startswith("krawtchouk ")
]


def test_readme_has_the_examples():
    assert len(PYTHON_BLOCKS) == 2
    assert len(CLI_LINES) == 6


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=["transform", "code"])
def test_python_example_gives_its_commented_output(block):
    namespace = {}
    checked = 0
    for line in block.splitlines():
        code, _, expected = line.partition("#")
        if expected:
            assert eval(code, namespace) == eval(expected, {}), line
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 1


@pytest.mark.parametrize("argv", CLI_LINES, ids=lambda argv: " ".join(argv[:2]))
def test_cli_example_exits_0(capsys, argv):
    assert main(argv) == 0
    capsys.readouterr()
