"""The narrative scripts in demos/ must keep running against the library."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_library_block_runs():
    """The README's Python block runs as written, and its batch member with
    the scenario's own Q scores as run_experiment and the sweep do."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], f"{README} (python block)", "exec"), namespace)
    points = namespace["points"]
    assert namespace["p_r"] == [points[1].p_r, points[2].p_r, points[3].p_r]
    assert namespace["p_r"][1] == namespace["result"].p_r
