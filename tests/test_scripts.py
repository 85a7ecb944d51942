import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script,argv",
    [
        ("roundtrip_demo.py", ["--m", "2", "--k", "2"]),
        ("discriminant_sweep.py", ["--trials", "2"]),
    ],
)
def test_script_runs(script, argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [script, *argv])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert capsys.readouterr().out
