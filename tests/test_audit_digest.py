"""tools/audit_digest.py runs against the source tree and prints its six
digests, at a small count."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_audit_digest_smoke(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "audit_digest.py"),
                          "--cases", "4", "--profiles", "6", "--dc-cases", "1"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["smallk", "batch", "pjr+", "dc", "dc-batch",
                                                 "experiment"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[1]) for line in lines)
    assert "(24 verdicts," in lines[0] and "(96 verdicts," in lines[1]
    assert "(6 verdicts," in lines[2]
    # one case: 6 violation lists, and 6 verdicts at each of its 2 or 3 levels
    assert re.search(r"\((18|24) lines,", lines[3])
    assert "(900 verdicts," in lines[4]
