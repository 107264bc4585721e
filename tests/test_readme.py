"""The examples in README.md do what it says: each console block is exactly
what the command prints, and the library block returns what its comments
claim."""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from nagumo_atlas import cli
from nagumo_atlas.regions import Terminal

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TEXT = README.read_text(encoding="utf-8")
# a console block: one `$ nagumo-atlas ...` line, then the output it shows
_EXAMPLE = re.compile(r"```console\n\$ nagumo-atlas ([^\n]*)\n(.*?)```", re.S)
EXAMPLES = _EXAMPLE.findall(TEXT)
(LIBRARY,) = re.findall(r"```python\n(.*?)```", TEXT, re.S)


def test_readme_shows_four_console_examples():
    assert [args.split()[0] for args, _ in EXAMPLES] == ["count", "orbits", "solve", "region"]


@pytest.mark.parametrize("args, shown", EXAMPLES, ids=[a.split()[0] for a, _ in EXAMPLES])
def test_console_example_prints_what_the_readme_shows(args, shown, capsys):
    assert cli.main(shlex.split(args)) == 0
    assert capsys.readouterr().out == shown


def test_library_example_returns_what_its_comments_say():
    # run the block statement by statement, keeping each bare expression's value
    namespace, values = {}, []
    for stmt in ast.parse(LIBRARY).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    necklaces, lyndon, reps, periods, (u, stable, det_sign), height, member = values
    assert necklaces == 24
    assert lyndon == 9 and len(reps) == 9
    assert len(periods) == 13 and periods.count(4) == 9
    assert u.shape == (3,) and stable in (True, False) and det_sign in (-1, 0, 1)
    assert repr(height[0]).startswith("0.0624999") and height[1] is Terminal.FOLD
    assert member is True


def _module(module, *args):
    """Run `python -m module` on this checkout's sources."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


# the package and its cli module are both documented entry points
@pytest.mark.parametrize("module", ["nagumo_atlas", "nagumo_atlas.cli"])
def test_module_entry_point_prints_the_readme_table_and_exits_2_on_bad_input(module):
    args, shown = EXAMPLES[0]
    assert args == "count --n-max 4 --table1"
    done = _module(module, *shlex.split(args))
    assert (done.returncode, done.stdout) == (0, shown)
    assert _module(module, "count", "--n-max", "0").returncode == 2
