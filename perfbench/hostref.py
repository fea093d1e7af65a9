"""A fixed reference loop that gauges how fast the host runs right now.

On a shared host the same code can run 30-70% slower for stretches of
seconds to minutes while other tenants are busy; the process's CPU time
slows just as much, so it is not time taken away from the process but
slower execution.  The benchmark times this loop between its ops and
scales every op time by REF_S / (loop time around the op).  The result
is the op time on a host that runs the loop in REF_S seconds: it still
grows when the program gets slower, but not when the host does.

The loop mixes what the program spends its time on: interpreted Python
(integer arithmetic, dict updates), numpy sorts and gathers on arrays of
a few hundred kB, and many calls on small arrays.  Its work and its
input are fixed.

Starting an interpreter and importing modules (the larger part of most
set-ups) slows differently from that loop: it reads and links many
files and touches far more memory.  So that part of a set-up is scaled
by a second reference, the time to start a fresh interpreter that
imports a fixed set of modules (numpy among them) that the program does
not own.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# nominal times: a 2-vCPU Xeon VM runs reference() and start_reference()
# in about these
REF_S = 0.010
START_REF_S = 0.25
START_CODE = "import argparse, json, statistics, subprocess, numpy"

_rng = np.random.default_rng(20260518)
_big = _rng.random(50_000)
_idx = _rng.integers(0, len(_big), len(_big))
_small = _big[:1000]


def reference() -> float:
    """Wall time of one pass of the fixed loop, in seconds."""
    t0 = time.perf_counter()
    s, d = 0, {}
    for i in range(40_000):
        s += i * i
        d[i % 97] = s
    for _ in range(4):
        np.sort(_big)[_idx].cumsum()
    for _ in range(300):
        np.minimum(_small[:500], _small[500:]).sum()
    return time.perf_counter() - t0


def start_reference() -> float:
    """Wall time to start a fresh interpreter that runs START_CODE."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", START_CODE], check=True)
    return time.perf_counter() - t0
