"""The equivalence scripts under ``bench/`` at seed 1 and one second, pinned.

Both read private names of the solver and the oracle, so a change there that
breaks them, or changes any sha256 or count they print, fails here. The
pins are the sha256 of each script's output with its timings cut. The
solver digest's outcome sha256s, over every ``solve --json`` field but
the partitions tried and the candidates tested, are pinned on their own as
well: a change that moves only those two counts re-pins the output and
leaves these.
"""

import hashlib
import re
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PINNED = {
    "solver_digest.py": "d3a5c5fa633f68757be2e6d2ad2d8c2ed6254f7bb86c74e34e1d03bed751d72c",
    "oracle_digest.py": "305bbea6088733f0b946510b0135fbf16d905d3a796c93663fb62203137be62f",
}
SOLVER_OUTCOME_SHA256 = {
    "mine_ref": "161fe34c451fd5a32975d579b4e24fb1f1e27b0cab8a0b56c0f52211b03789ac",
    "large_dense": "2ee7dbfcab49f6f83981f7ceab1a7509b5112833cf1f427135e6799dc22af9da",
    "large_sparse": "285e83c0f96a105dbde7ff56fee03dadfc85544d0a58fb25674ced37e8737ec5",
}


@cache
def _output(script: str) -> str:
    args = [sys.executable, f"bench/{script}", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return re.sub(r" \([\d.]+ s in [^)]*\)", "", done.stdout)


@pytest.mark.parametrize("script", sorted(PINNED))
def test_digest_script_output_is_pinned(script):
    output = _output(script)
    assert hashlib.sha256(output.encode()).hexdigest() == PINNED[script], output


def test_solver_outcome_digests_are_pinned():
    output = _output("solver_digest.py")
    found = dict(re.findall(r"^(\w+) seed .* outcome sha256 (\w+);", output, re.M))
    assert found == SOLVER_OUTCOME_SHA256, output
