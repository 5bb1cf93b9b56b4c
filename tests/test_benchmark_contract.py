"""The benchmark under ``perfbench/`` must keep working against ``src/``.

Its tracer wraps public names of ``ratfm`` where their callers look them
up, and its selftest needs every traced name but one to resolve, so a
rename under ``src/`` can break it without failing any other test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
