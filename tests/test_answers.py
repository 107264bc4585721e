"""tools/answers.py compares two answer ledgers line by line."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "answers.py"
_spec = importlib.util.spec_from_file_location("answers", TOOL)
answers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(answers)

OLD = """\
queries\t000 01 a=0.3 d_max\td=0x1.0p-6 terminal=fold det_ratio=0x1.0p-9 u=aa
queries\t000 01 a=0.3 solve 0.5h\tu=bb stable=True det_sign=1 residual=0x0.0p+0
queries\t000 01 a=0.3 solve 1.01h+1e-6\tNotInRegion d=0x1.0p-6
region_atlas\t0a1 a=0.5\td=0x1.0p-5 terminal=fold det_ratio=0x1.0p-9 u=cc
cli\tcount --n-max 64\texit=0 stdout=dd
"""


def test_a_ledger_against_itself_changes_nothing():
    lines, changed = answers.compare(OLD, OLD)
    assert not changed
    assert lines[-1] == "total: 5 answers, 0 changed"


def test_changed_lines_are_listed_and_heights_summarised():
    new = (
        OLD.replace("d=0x1.0p-6 terminal", "d=0x1.8p-6 terminal")
        .replace("u=bb", "u=ee")
        .replace("NotInRegion d=0x1.0p-6", "NotInRegion d=0x1.8p-6")
        .replace("d=0x1.0p-5", "d=0x1.0p-6")
        .replace("cli\tcount --n-max 64\texit=0 stdout=dd\n", "")
    )
    lines, changed = answers.compare(OLD, new)
    assert changed
    assert "queries 000 01 a=0.3 solve 0.5h" in lines
    assert "  + u=ee stable=True det_sign=1 residual=0x0.0p+0" in lines
    assert "  + (absent)" in lines
    summary = {line.split(":")[0]: line for line in lines if ": " in line}
    assert summary["queries"].startswith("queries: 3 answers, 3 changed (2 up, 0 down, largest")
    assert summary["region_atlas"].endswith("(0 up, 1 down, largest |d change| 0.0156)")
    assert summary["cli"] == "cli: 1 answers, 1 changed (0 up, 0 down, largest |d change| 0)"
    assert lines[-1] == "total: 5 answers, 5 changed"
