"""Every script under scripts/ runs to completion with its default arguments,
so a public name a script uses cannot be removed unnoticed."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_script_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # scripts write their outputs to the cwd
    monkeypatch.setattr(sys, "argv", [str(script)])
    runpy.run_path(str(script), run_name="__main__")
