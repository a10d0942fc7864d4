"""The benchmark's own unit tests still pass against the package.

perfbench/ rebinds package functions by name (``ktheory.poly_det``,
``fan.smith_normal_form``, ...) to trace them, so removing or renaming one of
them breaks the benchmark; this runs its suite as a separate process.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_perfbench_unittests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stderr.splitlines()[-1]
