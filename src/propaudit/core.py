"""Clustering instances, metric backends, verdicts and witnesses.

An instance bundles a multiset of agents, a set of candidate centers, a
metric (either Euclidean coordinates or an explicit distance matrix), and
the target number of centers k.  Points are addressed by global index:
agents occupy 0..n-1, candidates n..n+m-1 (matching the row order of an
explicit matrix).

All quota tests are integer cross-multiplications: a count of agents
justifies representation level ell exactly when count * k >= ell * n.
No floating quotient n/k is ever formed.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import time
from dataclasses import dataclass, replace
from typing import Iterable, Optional

import numpy as np

EUCLIDEAN = "euclidean"
EXPLICIT = "explicit"
# entries of one row block of _pairwise's output (327 rows at m=100): the
# block and its scratch stay in cache across the coordinates.  n=5000,
# m=100, 2-D: 4.1-4.6 ms, against 12.8-14.8 ms for one unblocked pass
# after an np.zeros fill (2 vCPUs)
_PAIRWISE_BLOCK = 1 << 15


class InputError(ValueError):
    """Malformed instance data, point ids, or selections."""


class SizeError(RuntimeError):
    """An exhaustive routine was asked to exceed its configured cap."""


class InfeasibleLevel(ValueError):
    """A representation level outside [1, k] was requested."""


class UnsupportedBackend(RuntimeError):
    """Operation requires a metric backend the instance does not have."""


class ConfigError(ValueError):
    """Invalid generator or experiment configuration."""


def is_int(value) -> bool:
    """An integer in JSON or Python terms; bools do not count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """A finite real number; bools do not count."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _numbers(values, what: str) -> np.ndarray:
    """`values` as a float64 array, each entry a real number as given.

    Strings, nulls, bools and integers too large for a float are an
    InputError, never converted.  Strings and nulls show in the dtype numpy
    infers, and so do integers past uint64 (object).  A bool becomes 0 or
    1 among numbers, so only the entries equal to 0 or 1 of a nested
    sequence are looked up and type-checked.
    """
    try:
        a = np.asarray(values)
    except ValueError as exc:
        raise InputError(f"{what} is not an array of numbers: {exc}") from None
    if a.dtype.kind == "O":
        flat = a.ravel().tolist()
        for v in flat:
            if not (isinstance(v, numbers.Real) and not isinstance(v, bool)):
                raise InputError(f"{what} entry {v!r} is not a number")
        try:
            return np.array([float(v) for v in flat]).reshape(a.shape)
        except OverflowError:
            raise InputError(f"{what} holds an integer too large for a float") from None
    if a.dtype.kind not in "iuf":
        raise InputError(f"{what} entries must be numbers, got dtype {a.dtype}")
    if not isinstance(values, np.ndarray):
        for flat in np.flatnonzero((a == 0) | (a == 1)).tolist():
            v = values
            for i in np.unravel_index(flat, a.shape):
                v = v[i]
            if isinstance(v, (bool, np.bool_)):
                raise InputError(f"{what} entry {v!r} is not a number")
    return a.astype(np.float64, copy=False)


def _pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of a and the rows of b.

    Squares are added one coordinate at a time, left to right, then
    rooted, so every entry is bit-equal to the plain-Python
    math.sqrt(sum((x - y) * (x - y) for x, y in zip(p, q))).  The output
    is filled a block of rows at a time, about _PAIRWISE_BLOCK entries, so
    a block and its scratch stay in cache across the coordinates; the
    first coordinate's square is written straight into the output.
    """
    out = np.empty((a.shape[0], b.shape[0]))
    if a.shape[1] == 0:
        out.fill(0.0)
        return out
    rows = max(1, _PAIRWISE_BLOCK // max(1, b.shape[0]))
    diff = np.empty((min(rows, a.shape[0]), b.shape[0]))
    for lo in range(0, a.shape[0], rows):
        acc, part = out[lo: lo + rows], a[lo: lo + rows]
        scratch = diff[: len(acc)]
        np.subtract(part[:, 0, None], b[None, :, 0], out=acc)
        acc *= acc
        for j in range(1, a.shape[1]):
            np.subtract(part[:, j, None], b[None, :, j], out=scratch)
            scratch *= scratch
            acc += scratch
        np.sqrt(acc, out=acc)
    return out


class Instance:
    """A centroid-clustering instance (agents, candidate centers, metric, k).

    Immutable after construction; every operation on it is pure, so
    instances are safe to share across threads and processes.

    The audits of ``verify`` (all but the oracles) read distances only
    through ``rows``, which computes only the rows they ask for and caches
    none, so each audit of a Euclidean instance recomputes its rows.  Before auditing many selections of one
    instance, call ``dists()`` once: ``rows`` then gathers from its cache.
    """

    def __init__(self, metric: str, k: int, *, agent_points=None,
                 candidate_points=None, matrix=None, n_agents: int | None = None,
                 agent_names=None, candidate_names=None):
        if metric == EUCLIDEAN:
            ap = _numbers(agent_points, "agents")
            cp = _numbers(candidate_points, "candidates")
            if ap.ndim != 2 or cp.ndim != 2 or ap.shape[1] != cp.shape[1]:
                raise InputError("euclidean points must be 2-D arrays of equal dimension")
            if not (np.isfinite(ap).all() and np.isfinite(cp).all()):
                raise InputError("coordinates must be finite")
            self._agent_points = ap
            self._candidate_points = cp
            self._matrix = None
            self.n = ap.shape[0]
            self.m = cp.shape[0]
            self.dim = ap.shape[1]
        elif metric == EXPLICIT:
            d = _numbers(matrix, "matrix")
            if not is_int(n_agents):
                raise InputError(f"n_agents must be an integer, got {n_agents!r}")
            if d.ndim != 2 or d.shape[0] != d.shape[1]:
                raise InputError("explicit matrix must be square")
            if not np.isfinite(d).all():
                raise InputError("distances must be finite")
            if d.shape[0] < n_agents + 1:
                raise InputError("matrix smaller than agents + at least one candidate")
            self._agent_points = None
            self._candidate_points = None
            self._matrix = d
            self.n = int(n_agents)
            self.m = d.shape[0] - self.n
            self.dim = None
        else:
            raise InputError(f"unknown metric backend {metric!r}")

        if self.n < 1:
            raise InputError("need at least one agent")
        if not is_int(k):
            raise InputError(f"k must be an integer, got {k!r}")
        if not (1 <= k <= self.m):
            raise InputError(f"k={k} out of range [1, {self.m}]")
        self.metric = metric
        self.k = int(k)
        self.agent_names = list(agent_names) if agent_names is not None else None
        self.candidate_names = list(candidate_names) if candidate_names is not None else None
        if self.agent_names is not None and len(self.agent_names) != self.n:
            raise InputError(f"{len(self.agent_names)} agent names for {self.n} agents")
        if self.candidate_names is not None and len(self.candidate_names) != self.m:
            raise InputError(f"{len(self.candidate_names)} candidate names for "
                             f"{self.m} candidates")
        self._ac = None  # cached n x m agent-candidate distance matrix
        if metric == EUCLIDEAN and not self._span_fits():
            with np.errstate(over="ignore"):
                if not np.isfinite(self.dists()).all():
                    raise InputError("distances must be finite")

    def _span_fits(self) -> bool:
        """Whether the largest agent-candidate gap per coordinate has a
        finite distance.  ``_pairwise`` adds squares of gaps no larger, in
        the same order, so then every entry of ``dists()`` is finite too."""
        a, c = self._agent_points, self._candidate_points
        with np.errstate(over="ignore"):
            gap = np.maximum(a.max(axis=0) - c.min(axis=0), c.max(axis=0) - a.min(axis=0))
            total = 0.0
            for v in gap.tolist():
                total += v * v
        return math.isfinite(total)

    @classmethod
    def euclidean(cls, agents, candidates, k: int) -> "Instance":
        return cls(EUCLIDEAN, k, agent_points=agents, candidate_points=candidates)

    @classmethod
    def explicit(cls, matrix, n_agents: int, k: int, agent_names=None,
                 candidate_names=None) -> "Instance":
        return cls(EXPLICIT, k, matrix=matrix, n_agents=n_agents,
                   agent_names=agent_names, candidate_names=candidate_names)

    def dists(self) -> np.ndarray:
        """The n x m agent-candidate distance matrix (computed once, cached)."""
        if self._ac is None:
            if self.metric == EUCLIDEAN:
                self._ac = _pairwise(self._agent_points, self._candidate_points)
            else:
                self._ac = self._matrix[: self.n, self.n:]
        return self._ac

    def rows(self, cols) -> np.ndarray:
        """d(., c) for the candidates c in `cols`, as contiguous
        (len(cols), n) rows, bit-equal to ``dists()[:, cols].T``.

        Computed from the coordinates while ``dists()`` has not run (each
        gap's square and the coordinate order are those of ``dists()``), and
        gathered from the matrix otherwise; nothing is cached, and the
        result is always a fresh array the caller may change in place.
        """
        cols = np.asarray(cols, dtype=np.intp)
        if self._ac is None and self.metric == EUCLIDEAN:
            return _pairwise(self._candidate_points[cols], self._agent_points)
        return np.ascontiguousarray(self.dists()[:, cols].T)

    def to_explicit(self) -> "Instance":
        """Materialize the full metric as an explicit-matrix instance.

        Verifier verdicts and witnesses are identical on the result.
        """
        if self.metric == EXPLICIT:
            return self
        pts = np.vstack([self._agent_points, self._candidate_points])
        # an overflowing agent-agent distance is an InputError of explicit()
        with np.errstate(over="ignore"):
            full = _pairwise(pts, pts)
        return Instance.explicit(full, self.n, self.k)

    def to_dict(self) -> dict:
        if self.metric == EUCLIDEAN:
            return {
                "metric": EUCLIDEAN,
                "dim": self.dim,
                "agents": self._agent_points.tolist(),
                "candidates": self._candidate_points.tolist(),
                "k": self.k,
            }
        agents = self.agent_names or [f"a{i}" for i in range(self.n)]
        candidates = self.candidate_names or [f"c{j}" for j in range(self.m)]
        return {
            "metric": EXPLICIT,
            "agents": list(agents),
            "candidates": list(candidates),
            "matrix": self._matrix.tolist(),
            "k": self.k,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Instance":
        """The instance of ``to_dict``'s form.  A Euclidean "dim", optional,
        must equal the points' dimension; explicit "agents" and
        "candidates" must be lists of names.  Neither check reads a
        coordinate."""
        try:
            metric, k = data["metric"], data["k"]
            if metric == EUCLIDEAN:
                inst = cls.euclidean(data["agents"], data["candidates"], k)
                if "dim" in data and not (is_int(data["dim"]) and data["dim"] == inst.dim):
                    raise InputError(f"dim {data['dim']!r} is not the points' "
                                     f"dimension {inst.dim}")
                return inst
            if metric == EXPLICIT:
                agents, candidates = data["agents"], data["candidates"]
                if not (isinstance(agents, list) and isinstance(candidates, list)):
                    raise InputError("explicit agents and candidates must be lists of names")
                return cls.explicit(data["matrix"], len(agents), k,
                                    agent_names=agents, candidate_names=candidates)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad instance JSON: {exc}") from exc
        raise InputError(f"unknown metric backend {metric!r}")


def read_json(path):
    """The JSON value in the file at `path`.  Bytes that are not UTF-8
    JSON, and JSON nested deeper than the parser recurses, are an
    InputError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"{path} is not readable JSON: {exc}") from None


def load_instance(path) -> Instance:
    return Instance.from_dict(read_json(path))


def dump_instance(instance: Instance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance.to_dict(), fh)
        fh.write("\n")


def check_selection(instance: Instance, centers: Iterable[int]) -> tuple:
    """Normalize a center selection to a sorted tuple, enforcing |X| = k.

    Entries must be integers (numpy integers included); floats, bools and
    strings are rejected rather than truncated or parsed.
    """
    raw = list(centers)
    bad = [c for c in raw if not is_int(c)]
    if bad:
        raise InputError(f"selection entry {bad[0]!r} is not an integer")
    raw = [int(c) for c in raw]
    xs = sorted(set(raw))
    if len(xs) != len(raw):
        raise InputError("selection contains duplicate centers")
    if len(xs) != instance.k:
        raise InputError(f"selection has {len(xs)} centers, expected k={instance.k}")
    if xs and (xs[0] < 0 or xs[-1] >= instance.m):
        raise InputError("selection index out of candidate range")
    return tuple(xs)


def check_gamma(gamma) -> None:
    """Reject an approximation factor that is not a finite number > 0."""
    if not (is_finite(gamma) and gamma > 0):
        raise InputError(f"gamma must be a finite number > 0, got {gamma!r}")


def check_level(ell, k: int) -> None:
    """Reject a representation level that is not an integer in [1, k]."""
    if not (is_int(ell) and 1 <= ell <= k):
        raise InfeasibleLevel(f"level must be an integer in [1, {k}], got {ell!r}")


def check_eps(eps, name: str = "eps") -> None:
    """Reject a comparison slack (or a radius, under `name`) that is not a
    finite number >= 0."""
    if not (is_finite(eps) and eps >= 0):
        raise InputError(f"{name} must be a finite number >= 0, got {eps!r}")


@dataclass(frozen=True)
class MetricCheck:
    """Outcome of validate_metric: ok, or the first named violation found."""

    ok: bool
    violation: Optional[str] = None   # asymmetry | negative | nonzero-diagonal | triangle
    points: Optional[tuple] = None

    def __bool__(self):
        return self.ok


def validate_metric(instance: Instance, check_triangle: bool = False) -> MetricCheck:
    """Check an explicit matrix for metric axioms.

    The triangle scan is O((n+m)^3) and therefore opt-in; verifiers never
    require it and operate on any symmetric nonnegative matrix.
    """
    if instance.metric != EXPLICIT:
        raise UnsupportedBackend("validate_metric applies to explicit matrices")
    d = instance._matrix
    neg = np.argwhere(d < 0)
    if neg.size:
        return MetricCheck(False, "negative", tuple(int(v) for v in neg[0]))
    diag = np.nonzero(np.diagonal(d) != 0)[0]
    if diag.size:
        return MetricCheck(False, "nonzero-diagonal", (int(diag[0]),))
    asym = np.argwhere(d != d.T)
    if asym.size:
        return MetricCheck(False, "asymmetry", tuple(int(v) for v in asym[0]))
    if check_triangle:
        for b in range(d.shape[0]):
            # all pairs (a, c) routed through b at once
            slack = d[:, b][:, None] + d[b, :][None, :] - d
            bad = np.argwhere(slack < 0)
            if bad.size:
                a, c = (int(v) for v in bad[0])
                return MetricCheck(False, "triangle", (a, b, c))
    return MetricCheck(True)


@dataclass(frozen=True)
class Witness:
    """A violation certificate.

    For metric axioms: an unselected anchor center, the representation
    level, the radius at which the shortfall occurs, and (when the
    verifier derives one) the coalition of agents plus the selected
    centers that were within reach.  Approval-side witnesses carry no
    radius.
    """

    center: Optional[int]
    level: int
    radius: Optional[float] = None
    coalition: Optional[frozenset] = None
    covered: Optional[frozenset] = None

    def to_dict(self) -> dict:
        return {
            "center": self.center,
            "level": self.level,
            "radius": self.radius,
            "coalition": sorted(self.coalition) if self.coalition is not None else None,
            "covered": sorted(self.covered) if self.covered is not None else None,
        }


def timed(fn):
    """Stamp each call's wall time in ms onto its frozen result's elapsed_ms."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        return replace(result, elapsed_ms=(time.perf_counter() - t0) * 1000.0)
    return wrapper


@dataclass(frozen=True)
class Verdict:
    axiom: str
    gamma: float
    satisfied: bool
    witness: Optional[Witness] = None
    elapsed_ms: float = 0.0

    @property
    def status(self) -> str:
        return "SATISFIED" if self.satisfied else "VIOLATED"

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "gamma": self.gamma,
            "satisfied": self.satisfied,
            "witness": self.witness.to_dict() if self.witness else None,
            "elapsed_ms": self.elapsed_ms,
        }
