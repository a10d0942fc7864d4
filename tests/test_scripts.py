"""The read-only scripts under scripts/ still run against the package.

scripts/regen_goldens.py is left out: it rewrites tests/golden/.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_script(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name)],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_weighted_projective_demo_runs():
    proc = run_script("weighted_projective_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "solved dual basis" in proc.stdout


def test_sign_convention_passes_for_plus_one():
    proc = run_script("determine_sign_convention.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith("epsilon=+1:") and line.endswith("PASS") for line in lines)
