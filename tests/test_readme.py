"""The console examples in README.md are exactly what the command prints."""

import re
import shlex
from pathlib import Path

import pytest

from nagumo_atlas import cli

README = Path(__file__).resolve().parents[1] / "README.md"
# a console block: one `$ nagumo-atlas ...` line, then the output it shows
_EXAMPLE = re.compile(r"```console\n\$ nagumo-atlas ([^\n]*)\n(.*?)```", re.S)
EXAMPLES = _EXAMPLE.findall(README.read_text(encoding="utf-8"))


def test_readme_shows_four_console_examples():
    assert [args.split()[0] for args, _ in EXAMPLES] == ["count", "orbits", "solve", "region"]


@pytest.mark.parametrize("args, shown", EXAMPLES, ids=[a.split()[0] for a, _ in EXAMPLES])
def test_console_example_prints_what_the_readme_shows(args, shown, capsys):
    assert cli.main(shlex.split(args)) == 0
    assert capsys.readouterr().out == shown
