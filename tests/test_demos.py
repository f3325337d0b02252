import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "04_streaming_two_pass":
        assert "bit-identical   : True" in proc.stdout
        line = next(line for line in proc.stdout.splitlines() if line.startswith("state bytes:"))
        reported, formula = re.fullmatch(r"state bytes: (\d+) = .* = (\d+)", line).groups()
        assert reported == formula, line
