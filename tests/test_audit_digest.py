"""tools/audit_digest.py runs against the source tree and prints its eight
digests, at a small count; tools/loc.py prints a line count a file and a
total."""

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
                                                 "experiment", "oracle", "refs"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[1]) for line in lines)
    assert "(24 verdicts," in lines[0] and "(96 verdicts," in lines[1]
    assert "(6 verdicts," in lines[2]
    # one case: 6 violation lists, and 6 verdicts at each of its 2 or 3 levels
    assert re.search(r"\((18|24) lines,", lines[3])
    assert "(900 verdicts," in lines[4]
    # 4 desk cases at 3 + 3k verdicts, 6 desk profiles at 1 + k, k in [1, 6]
    count = int(re.search(r"\((\d+) verdicts,", lines[6]).group(1))
    assert 4 * 6 + 6 * 2 <= count <= 4 * 18 + 6 * 7
    # 4 desk cases at 7 verdicts and up to 3 reports per unselected center, m - k in [1, 5]
    count = int(re.search(r"\((\d+) lines,", lines[7]).group(1))
    assert 4 * 8 <= count <= 4 * (7 + 3 * 5)


def test_loc_smoke(tmp_path):
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "loc.py")],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()[1:]]
    files = sorted(p.name for p in (ROOT / "src" / "propaudit").glob("*.py"))
    assert [row[2] for row in rows] == files + ["total"]
    for wc, code, name in rows[:-1]:
        text = (ROOT / "src" / "propaudit" / name).read_text()
        assert int(wc) == text.count("\n") and 0 < int(code) < int(wc)
    assert [int(v) for v in rows[-1][:2]] == [sum(int(row[i]) for row in rows[:-1])
                                              for i in (0, 1)]
