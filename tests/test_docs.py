"""The README's library example and the two quick demos run as written.

Each runs in a child interpreter from an empty directory, importing the
``cbrsim`` under test, so a name cut from the package root or a renamed
parameter fails here.  Demos 03 and 04 are sweeps of several seconds each and
import exactly the root names ``test_golden.py`` imports, so they are left out.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent


def readme_python_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text()
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def run_script(path: Path, cwd: Path) -> None:
    proc = subprocess.run(
        [sys.executable, str(path)],
        cwd=cwd,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs(tmp_path):
    blocks = readme_python_blocks()
    assert len(blocks) == 1, "the README has one python block, the library quick start"
    script = tmp_path / "readme_example.py"
    script.write_text(blocks[0])
    run_script(script, tmp_path)


@pytest.mark.parametrize("demo", ["01_signal_metrics.py", "02_cluster_formation.py"])
def test_demo_runs(demo, tmp_path):
    run_script(ROOT / "demos" / demo, tmp_path)
