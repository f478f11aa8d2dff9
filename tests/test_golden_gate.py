"""The CLI behaviour gate: every recorded command's exit code and stdout
digest must match ``bench/golden.json``, so a byte-level change to CLI
output fails the test suite.

    python3 bench/run.py --check
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_cli_output_matches_golden_digests():
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), "--check"],
                          capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["mismatched"] == []
