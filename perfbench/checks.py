"""Output checks that share no code with the program under test.

Distances are recomputed in plain numpy from the generated coordinates
(bit-identical to a two-dimensional `cdist`: same two squares, one add,
one square root).  Each check returns a list of error strings; an empty
list means the output passed.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def dist(a, b) -> np.ndarray:
    """Euclidean distances between the rows of `a` and the rows of `b`."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def check_witness(agents, cands, k, selection, wit, gamma=1.0, dc=False) -> list:
    """Re-check a violation witness from its fields.

    The coalition must lie within `radius` of the unselected anchor and be
    large enough for `level` (|S| k >= level n, as integers); fewer than
    `level` selected centers may lie within gamma * radius of it, and
    `covered` must list exactly those.  A default-coalitions witness must
    also be the whole closed ball of that radius.
    """
    if wit is None:
        return ["violated verdict without a witness"]
    n, errs = len(agents), []
    c, level, radius = wit["center"], wit["level"], wit["radius"]
    coal = np.asarray(wit["coalition"] or [], dtype=np.intp)
    if c in selection or not 0 <= c < len(cands):
        return [f"anchor {c} is selected or out of range"]
    if coal.size == 0 or coal.min() < 0 or coal.max() >= n or len(np.unique(coal)) != coal.size:
        return ["empty, repeated or out-of-range coalition members"]
    to_anchor = dist(agents, cands[c:c + 1])[:, 0]
    if to_anchor[coal].max() > radius:
        errs.append("coalition member beyond the witness radius")
    if dc and not np.array_equal(coal, np.flatnonzero(to_anchor <= radius)):
        errs.append("coalition is not the closed ball of the witness radius")
    if not 1 <= level <= k or len(coal) * k < level * n:
        errs.append(f"coalition of {len(coal)} does not justify level {level}")
    xs = np.asarray(selection, dtype=np.intp)
    reach = dist(agents[coal], cands[xs]).min(axis=0)
    covered = sorted(int(x) for x, r in zip(xs, reach) if r <= gamma * radius)
    if len(covered) >= level:
        errs.append(f"coverage {len(covered)} meets level {level}")
    if covered != sorted(wit["covered"] or []):
        errs.append("covered set differs from recomputed coverage")
    return errs


def check_sear(agents, cands, k, out) -> list:
    """Trace invariants of one SEAR result.

    k steps opening distinct candidates, matching the selection; each step
    charges exactly n k-scaled units to agents within its radius of the
    opened candidate; no agent pays more than its budget k in total.
    """
    n, errs = len(agents), []
    sel, trace = out["selection"], out["trace"]
    if len(trace) != k or [s["candidate"] for s in trace] != sel or len(set(sel)) != k:
        errs.append("selection does not match k distinct trace steps")
    paid = np.zeros(n, dtype=np.int64)
    for i, step in enumerate(trace):
        who = np.array([ch["agent"] for ch in step["charges"]], dtype=np.intp)
        amt = np.array([ch["amount"] for ch in step["charges"]], dtype=np.int64)
        if amt.sum() != n or (amt <= 0).any():
            errs.append(f"step {i} charges {int(amt.sum())} units, not {n}")
        if who.size and (who.min() < 0 or who.max() >= n):
            errs.append(f"step {i} charges an agent out of range")
            continue
        np.add.at(paid, who, amt)
        c = step["candidate"]
        if who.size and dist(agents[who], cands[c:c + 1]).max() > step["radius"]:
            errs.append(f"step {i} charges an agent beyond its radius")
    if (paid > k).any():
        errs.append("an agent paid more than its budget k")
    return errs


def radii_walked(agents, cands, out) -> int:
    """Computed: rank of the last trace radius among the distinct
    agent-candidate distances, plus one (the ladder length SEAR walked)."""
    radii = np.unique(dist(agents, cands))
    return int(np.searchsorted(radii, out["trace"][-1]["radius"], side="right"))


def digest(obj) -> str:
    """sha256 of canonical JSON; audit verdicts drop their wall-clock time."""
    if isinstance(obj, dict):
        obj = {key: val for key, val in obj.items() if key != "elapsed_ms"}
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
