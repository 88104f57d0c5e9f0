"""Every narrative script in demos/ runs to completion and prints its pinned output.

The expected stdout of demos/<name>.py is tests/golden/<name>.out, byte for
byte.  After a deliberate change to what a demo prints, regenerate it with

    PYTHONPATH=src python demos/<name>.py > tests/golden/<name>.out
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent
DEMOS = sorted((ROOT.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4
    assert sorted(p.stem for p in (ROOT / "golden").glob("*.out")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out == (ROOT / "golden" / f"{path.stem}.out").read_text()
