"""Instance generators: the synthetic Gaussian model, the incomparability
fixtures, the objective-failure construction, and uniform selection
sampling.

Randomness comes from counter-based Philox streams keyed by hashing the
master seed together with a label path (``substream(seed, "instance", n,
g, i)``), so any instance or selection can be regenerated independently
of evaluation order and across processes; ``reseed`` puts one generator
at the start of any such stream.  Gaussian noise is produced by
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


def _key(seed, path) -> int:
    if not is_int(seed):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    digest = hashlib.sha256(repr((int(seed),) + tuple(path)).encode()).digest()
    return int.from_bytes(digest[:16], "little")


def substream(seed: int, *path) -> np.random.Generator:
    """Philox generator keyed by sha256(master seed, label path), at
    counter 0 with an empty buffer; the seed must be an integer.  To draw
    from many such streams in turn, ``reseed`` one generator instead of
    making each: that yields the same draws, without a new generator each."""
    return np.random.Generator(np.random.Philox(key=_key(seed, path)))


def reseed(gen: np.random.Generator, seed: int, *path) -> np.random.Generator:
    """Put `gen`, a Philox generator (one from ``substream``), in the state
    ``substream(seed, *path)`` starts in: counter 0, that key, an empty
    buffer; returns `gen`."""
    key = _key(seed, path)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [key & (1 << 64) - 1, key >> 64]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


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
    """Uniform size-k subset of range(m) by partial Fisher-Yates shuffle.

    `seed` is a generator or an integer (then ``substream(seed,
    "selection")``).  Swap i takes a draw from [0, m - i); all k come from
    one array-bound call, ``gen.integers(0, [m, m - 1, ..., m - k + 1])``,
    which gives the draws of k scalar calls ``gen.integers(0, m - i)`` and
    leaves the generator where they would.  Swap i fixes position i for
    good, so only the later positions a swap has moved are stored: time
    and memory are O(k log k) whatever m is.  m and k must be integers
    (bools do not count), and m at most 2**63 when k > 0: the draws are
    int64.
    """
    if not is_int(m):
        raise ConfigError(f"m must be an integer, got {m!r}")
    if not (is_int(k) and 0 <= k <= m):
        raise ConfigError(f"need an integer 0 <= k <= m={m}, got k={k!r}")
    if k and m > 1 << 63:
        raise ConfigError(f"m={m} is past the sampler's int64 draws: need m <= 2**63")
    gen = seed if isinstance(seed, np.random.Generator) else substream(seed, "selection")
    moved, picked = {}, []                  # moved: position -> index now there
    for i, d in enumerate(gen.integers(0, np.arange(m, m - k, -1)).tolist()):
        j = i + d
        picked.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return tuple(sorted(picked))


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
    appr = ApprovalInstance(approvals, len(names), 3)
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
