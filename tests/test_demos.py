"""Each demo script runs to the end."""

import runpy
from pathlib import Path

import pytest

from bruhatb.verify import CASE_IDS

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_obstruction_demo_reports_every_case(capsys):
    runpy.run_path(str(DEMOS[3]), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    for case_id in CASE_IDS:
        (line,) = [x for x in lines if x.startswith(f"{case_id}: ")]
        assert line.startswith(f"{case_id}: ok=True (orientations=")
