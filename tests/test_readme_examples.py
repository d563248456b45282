"""The CLI examples in README print what README shows under them.

Each ``goodfilt`` line of the README's CLI block that is followed by a
``# {...}`` comment is run in-process and its stdout compared with the
comment; a comment ending in ``...`` shows only some of the keys.
"""

import io
import json
import shlex
from pathlib import Path

import pytest

from goodfilt.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def shown_examples():
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [
        (shlex.split(command)[1:], shown[2:])
        for command, shown in zip(lines, lines[1:])
        if command.startswith("goodfilt ") and shown.startswith("# ")
    ]


EXAMPLES = shown_examples()


def test_readme_shows_an_output_for_each_example_command():
    assert [argv[0] for argv, _ in EXAMPLES] == ["locate", "tensor", "extmult", "check-identity"]


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES])
def test_readme_example_prints_what_readme_shows(argv, shown):
    out, err = io.StringIO(), io.StringIO()
    assert main(argv, out=out, err=err) == 0, err.getvalue()
    got = json.loads(out.getvalue())
    expected = json.loads(shown.replace(", ...}", "}"))
    if shown.endswith(", ...}"):
        got = {k: got[k] for k in expected}
    assert got == expected
