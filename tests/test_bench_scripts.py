"""The equivalence scripts under ``bench/`` at seed 1 and one second, pinned.

Both read private names of the solver and the oracle, so a change there that
breaks them, or changes any sha256 or count they print, fails here. The
pins are the sha256 of each script's output with its timings cut.
"""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PINNED = {
    "solver_digest.py": "9090a99cab0cb22e411faf0f1a8e5f49b46e52afd0d7563f448a3b6ab56c3d97",
    "oracle_digest.py": "7320e7dbff20aef8c23ae674c6fc16dc1959771789423a186510ab6d9b55ceca",
}


@pytest.mark.parametrize("script", sorted(PINNED))
def test_digest_script_output_is_pinned(script):
    args = [sys.executable, f"bench/{script}", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    output = re.sub(r" \([\d.]+ s in [^)]*\)", "", done.stdout)
    assert hashlib.sha256(output.encode()).hexdigest() == PINNED[script], output
