"""Every narrative script under demos/, and every python block of README.md,
runs to completion."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_four_demos_found() -> None:
    assert len(DEMOS) == 4


def _run(*args):
    """Run python with args and src on the path, as a reader would run a demo."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo) -> None:
    proc = _run(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run() -> None:
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        proc = _run("-c", block)
        assert proc.returncode == 0, proc.stderr
