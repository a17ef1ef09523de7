"""`python -m okcf` runs the same command line as `okcf.cli.main`."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from okcf.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv, code", [(["eval", "[1; 2]"], 0), (["eval", "[1; "], 2)])
def test_module_matches_main(capsys, argv, code):
    assert main(argv) == code
    expected = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-m", "okcf", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, expected)
