"""The benchmark's own self-tests pass against the source tree.

Among them, ``test_absent_name`` fails when a program name that the
benchmark's tracer wraps (``perfbench/spans.py``'s ``TARGETS``, such as
``propaudit.bench.verify_mpjr_plus_smallk`` or ``propaudit.cli.load_instance``)
stops resolving, so a refactor cannot drop one unnoticed.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_perfbench_selftest_exits_zero(tmp_path):
    out = subprocess.run([sys.executable, str(SELFTEST)], cwd=tmp_path,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
