from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_demo_runs_and_prints():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) == 5
    for demo in demos:
        res = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                             env=env, cwd=ROOT, timeout=120)
        assert res.returncode == 0, (demo.name, res.stderr)
        assert res.stdout.strip(), demo.name
