"""Instance generators: the synthetic Gaussian model, the incomparability
fixtures, the objective-failure construction, and uniform selection
sampling.

Randomness comes from counter-based Philox streams keyed by hashing the
master seed together with a label path (``substream(seed, "instance", n,
g, i)``), so any instance or selection can be regenerated independently
of evaluation order and across processes.  Gaussian noise is produced by
an explicit Box-Muller transform over the stream's uniforms, keeping the
byte stream independent of library internals.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, Instance, is_finite, is_int
from .approval import ApprovalInstance
from .embedding import embed_approval


def substream(seed: int, *path) -> np.random.Generator:
    """Philox generator keyed by sha256(master seed, label path); the seed
    must be an integer."""
    if not is_int(seed):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    digest = hashlib.sha256(repr((int(seed),) + tuple(path)).encode()).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def box_muller(gen: np.random.Generator, count: int) -> np.ndarray:
    """Standard normal draws via Box-Muller over the stream's uniforms."""
    pairs = (count + 1) // 2
    u1 = 1.0 - gen.random(pairs)        # (0, 1]: keeps log finite
    u2 = gen.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2),
                        radius * np.sin(2.0 * np.pi * u2)])
    return z[:count]


@dataclass(frozen=True)
class GaussianConfig:
    """Clustered planar model: g latent centers, n agents, M = N."""

    n: int
    g: int
    sigma: float
    seed: int
    k: int

    def __post_init__(self):
        if not all(is_int(v) for v in (self.n, self.g, self.k, self.seed)):
            raise ConfigError(f"n, g, k and seed must be integers, got n={self.n!r}, "
                              f"g={self.g!r}, k={self.k!r}, seed={self.seed!r}")
        if not (self.n >= self.g >= 1):
            raise ConfigError(f"need n >= g >= 1, got n={self.n}, g={self.g}")
        if not (is_finite(self.sigma) and self.sigma >= 0):
            raise ConfigError(f"sigma must be a finite number >= 0, got {self.sigma!r}")
        if not (1 <= self.k <= self.n):
            raise ConfigError(f"k={self.k} out of range [1, {self.n}]")


def gen_gaussian_instance(cfg: GaussianConfig) -> Instance:
    """Latent centers uniform in the unit square; agents assigned round-robin
    (cluster sizes differ by at most one) and jittered with isotropic noise.
    The candidate set is the agent set."""
    gen = substream(cfg.seed, "gaussian")
    centers = gen.random((cfg.g, 2))
    assign = np.arange(cfg.n) % cfg.g
    noise = box_muller(gen, 2 * cfg.n).reshape(cfg.n, 2) * cfg.sigma
    pts = centers[assign] + noise
    return Instance.euclidean(pts, pts.copy(), cfg.k)


def sample_selection(m: int, k: int, seed) -> tuple:
    """Uniform size-k subset of range(m) by partial Fisher-Yates shuffle."""
    if not (is_int(k) and 0 <= k <= m):
        raise ConfigError(f"need an integer 0 <= k <= m={m}, got k={k!r}")
    gen = seed if isinstance(seed, np.random.Generator) else substream(seed, "selection")
    idx = list(range(m))
    for i in range(k):
        j = i + int(gen.integers(0, m - i))
        idx[i], idx[j] = idx[j], idx[i]
    return tuple(sorted(idx[:k]))


# Incomparability fixtures: six agents, k = 3, all agent-candidate
# distances 1 or 2.  Each is the metric embedding of the approval profile
# given by the distance-1 candidate sets below, so same-side entries are
# two-hop minima and the matrix is a genuine metric.

_FIXTURE_PROFILES = {
    1: {
        "candidates": ("a", "b", "x1", "x2", "x3"),
        "close": [("a", "b", "x1")] * 4 + [("a", "b", "x2"), ("a", "b", "x3")],
        "selection": ("x1", "x2", "x3"),
    },
    2: {
        "candidates": ("z", "x1", "x2", "x3"),
        "close": [("z", "x1")] * 3 + [("z",), ("x2",), ("x3",)],
        "selection": ("x1", "x2", "x3"),
    },
}


def fixture_incomparability(which: int) -> tuple:
    """One of the two six-agent fixtures separating the default-coalition
    audit from metric PJR; returns (instance, selection)."""
    if which not in _FIXTURE_PROFILES:
        raise ConfigError("fixture index must be 1 or 2")
    spec = _FIXTURE_PROFILES[which]
    names = spec["candidates"]
    pos = {c: j for j, c in enumerate(names)}
    approvals = [frozenset(pos[c] for c in row) for row in spec["close"]]
    appr = ApprovalInstance.from_approvals(approvals, len(names), 3)
    emb = embed_approval(appr)
    inst = Instance.explicit(emb._matrix, emb.n, emb.k,
                             agent_names=[str(i + 1) for i in range(emb.n)],
                             candidate_names=list(names))
    return inst, tuple(pos[c] for c in spec["selection"])


def fixture_objective_failure() -> Instance:
    """One-dimensional construction where the aggregate-cost optimum starves
    a compact majority group.

    Twenty agents sit at +-0.5 around candidate a0 = 0, with offset
    candidates a1 = -1 and a2 = +1; ten agents split evenly over b1 = 1000
    and b2 = 1020.  Scale ordering: region separation 1000 >> group
    spread 20 >> compact diameter (factor >= 10 per tier).  With k = 3
    and q = 10 the cheapest selection serves the compact group with the
    single center a0.
    """
    q = 10
    candidates = [[0.0], [-1.0], [1.0], [1000.0], [1020.0]]   # a0 a1 a2 b1 b2
    agents = ([[-0.5]] * q + [[0.5]] * q
              + [[1000.0]] * (q // 2) + [[1020.0]] * (q // 2))
    return Instance.euclidean(agents, candidates, 3)
