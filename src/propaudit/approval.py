"""Approval-ballot committees: brute-force verifiers, PJR+ through the
small-k audit's search driver (``verify._smallk_hits``, on a batch of
one) on the ballots read as distances in {1, 2}, plus the
balanced-biclique instance generator used for hardness-style fixtures.

The exhaustive verifiers enumerate voter subsets (2^n) and are guarded by
fixed caps on voters, not on candidates; they exist as ground truth for
desk-scale inputs, not as production verification paths.  One fold,
``_subset_fold``, enumerates the subsets under them and under the
exhaustive references of ``oracle.py``: it combines each subset's member
rows with min, max, or or and.  Ballots are folded as bool rows packed
into uint64 words, ceil(m / 64) a voter (``_words``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (InputError, SizeError, Verdict, Witness, check_level,
                   check_selection, is_int, timed)
from .verify import _check_smallk_cap, _smallk_hits, _unselected

_MAX_VOTERS = 16       # voters whose 2^n coalitions are enumerated
_MAX_SIDE = 16         # vertices per side of the biclique search


@dataclass(frozen=True)
class ApprovalInstance:
    """Approval election: voter i's ballot approvals[i] over candidates
    0..m-1, committee size k.  Ballot entries, m and k must be integers
    (numpy integers count); they are stored as int."""

    approvals: tuple          # per voter, frozenset of candidate indices
    m: int
    k: int

    def __post_init__(self):
        if not (is_int(self.m) and is_int(self.k) and 1 <= self.k <= self.m):
            raise InputError(f"need integers 1 <= k <= candidates, got "
                             f"k={self.k!r}, candidates={self.m!r}")
        sets = tuple(frozenset(a) for a in self.approvals)
        if not sets:
            raise InputError("need at least one voter")
        if not all(is_int(c) and 0 <= c < self.m for a in sets for c in a):
            raise InputError(f"approval sets must hold candidate indices in [0, {self.m})")
        object.__setattr__(self, "approvals", tuple(frozenset(map(int, a)) for a in sets))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "k", int(self.k))

    @property
    def n(self) -> int:
        return len(self.approvals)

    @classmethod
    def from_dict(cls, data: dict) -> "ApprovalInstance":
        """The instance ``to_dict`` wrote; "voters", optional, must be the
        number of ballots."""
        try:
            inst = cls(data["approvals"], data["candidates"], data["k"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad approval JSON: {exc}") from exc
        voters = data.get("voters", inst.n)
        if not (is_int(voters) and voters == inst.n):
            raise InputError(f"voters={voters!r} but {inst.n} approval sets")
        return inst

    def to_dict(self) -> dict:
        return {
            "voters": self.n,
            "candidates": self.m,
            "approvals": [sorted(a) for a in self.approvals],
            "k": self.k,
        }

    def matrix(self) -> np.ndarray:
        """Voter x candidate boolean approval matrix."""
        a = np.zeros((self.n, self.m), dtype=bool)
        for i, s in enumerate(self.approvals):
            a[i, list(s)] = True
        return a


def _subset_fold(rows: np.ndarray, start, op) -> np.ndarray:
    """fold[S] = `start` combined by the ufunc `op` with the rows of the
    members of S, for all 2^n subsets S of the n rows (by bit mask), rows
    of any shape and dtype."""
    out = np.empty((1 << len(rows),) + rows.shape[1:], dtype=rows.dtype)
    out[0] = start
    for v, row in enumerate(rows):
        op(out[:1 << v], row, out=out[1 << v:2 << v])
    return out


def _subset_sizes(n: int) -> np.ndarray:
    """|S| for all 2^n subsets S of range(n), by bit mask."""
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)


def _words(A: np.ndarray) -> np.ndarray:
    """Bool rows packed into little-endian uint64 words: column c is bit
    c % 64 of word c // 64, and the padding bits are 0."""
    n, m = A.shape
    out = np.zeros((n, -(-m // 64) * 8), dtype=np.uint8)
    out[:, :-(-m // 8)] = np.packbits(A, axis=1, bitorder="little")
    return out.view("<u8")


def _coalitions(A: np.ndarray, voters, X) -> tuple:
    """Every coalition of `voters`, whose bool ballot rows are `A`, by bit
    mask over them (2^len(voters)): its size, the number of committee
    members X in its ballot union, and a function that builds the witness
    of the coalition with mask s at a center and a level: those voters,
    and as `covered` those committee members."""
    union = _subset_fold(_words(A[:, X]), 0, np.bitwise_or)
    coverage = np.bitwise_count(union).sum(axis=-1, dtype=np.int64)

    def witness(s, center, level):
        members = [i for i in range(len(A)) if s >> i & 1]
        return Witness(center=center, level=level, radius=None,
                       coalition=frozenset(voters[i] for i in members),
                       covered=frozenset(x for x, hit in zip(X, A[members][:, X].any(axis=0))
                                         if hit))
    return _subset_sizes(len(A)), coverage, witness


def _pjr_witness(A: np.ndarray, X, k: int):
    """The first coalition, by bit mask, of the voters whose bool ballot
    rows are `A` that fails PJR for committee X of size k, as a witness
    (center None, its level, no radius), or None.  Coalition S has level
    min(|S| k // n, the candidates all of S approve) and fails when fewer
    committee members are in its ballot union."""
    n = len(A)
    sizes, coverage, witness = _coalitions(A, range(n), X)
    # every bit set to start: only the empty coalition keeps the padding bits, at level 0
    cohesion = np.bitwise_count(_subset_fold(_words(A), ~np.uint64(0), np.bitwise_and))
    level = np.minimum(sizes * k // n, cohesion.sum(axis=-1, dtype=np.int64))
    violated = np.flatnonzero(level > coverage)
    return witness(int(violated[0]), None, int(level[violated[0]])) if violated.size else None


@timed
def verify_pjr_bruteforce(inst: ApprovalInstance, committee) -> Verdict:
    """Exhaustive PJR check over all voter coalitions (``_pjr_witness``).

    A committee fails PJR when some coalition S with |S|*k >= ell*n shares
    ell commonly-approved candidates yet sees fewer than ell committee
    members across its union of ballots.  n past 16 raises ``SizeError``.
    """
    X = check_selection(inst, committee)
    if inst.n > _MAX_VOTERS:
        raise SizeError(f"n={inst.n} exceeds exhaustive cap {_MAX_VOTERS}")
    wit = _pjr_witness(inst.matrix(), X, inst.k)
    return Verdict("pjr", 1.0, wit is None, wit)


def _ballot_distances(inst: ApprovalInstance) -> np.ndarray:
    """The ballots read as (candidate, voter) distance rows: 1 = approved, 2 = not."""
    return np.where(inst.matrix().T, 1.0, 2.0)


@timed
def verify_pjr_plus_sweep(inst: ApprovalInstance, committee) -> Verdict:
    """PJR+: no exclusion set Y strictly inside the committee and
    unselected c where (|Y|+1) * q voters approve c and nobody in X \\ Y.
    That is mPJR+ at gamma = 1 on the ballots read as distances, 1 =
    approved and 2 = not, so ``verify._smallk_hits`` searches it: Y by
    popcount then lexicographically, c by index.  The witness lists those
    voters and, as `covered`, the set Y."""
    X = check_selection(inst, committee)
    k = inst.k
    _check_smallk_cap(k)
    B, outs = _ballot_distances(inst), _unselected(inst, X)
    # g is the identity at gamma = 1 and eps = 0: the reach rows are X's ballot rows
    hit = _smallk_hits(B[outs], B[list(X)][None])[0]
    if hit is None:
        return Verdict("pjr+", 1.0, True)
    row, size, _, coalition, y = hit
    wit = Witness(center=int(outs[row]), level=size + 1, radius=None,
                  coalition=frozenset(np.flatnonzero(coalition).tolist()),
                  covered=frozenset(X[p] for p in range(k) if y >> p & 1))
    return Verdict("pjr+", 1.0, False, wit)


@timed
def verify_fixed_ell_pjr_plus_bruteforce(inst: ApprovalInstance, committee,
                                         ell: int) -> Verdict:
    """Exhaustive fixed-level PJR+ check.

    Enumerates, for each unselected candidate c, every coalition drawn from
    the approvers of c, and tests |S|*k >= ell*n against committee coverage
    of the coalition's ballot union.
    """
    X = check_selection(inst, committee)
    n, k = inst.n, inst.k
    check_level(ell, k)
    A = inst.matrix()
    for c in _unselected(inst, X):
        approvers = np.flatnonzero(A[:, c])
        if len(approvers) > _MAX_VOTERS:
            raise SizeError(f"{len(approvers)} approvers exceed cap {_MAX_VOTERS}")
        sizes, coverage, witness = _coalitions(A[approvers], approvers.tolist(), X)
        violated = np.flatnonzero((sizes * k >= ell * n) & (coverage < ell))
        if violated.size:
            return Verdict("fixed-ell-pjr+", 1.0, False, witness(int(violated[0]), int(c), ell))
    return Verdict("fixed-ell-pjr+", 1.0, True)


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph on left vertices 0..n_left-1 and right vertices
    0..n_right-1; sizes and edge endpoints must be integers."""

    n_left: int
    n_right: int
    edges: frozenset       # pairs (left index, right index), stored as int

    def __post_init__(self):
        if not all(is_int(v) and v >= 0 for v in (self.n_left, self.n_right)):
            raise InputError(f"side sizes must be integers >= 0, got "
                             f"{self.n_left!r}, {self.n_right!r}")
        pairs = [tuple(e) for e in self.edges]
        for u, w in pairs:
            if not (is_int(u) and is_int(w) and 0 <= u < self.n_left
                    and 0 <= w < self.n_right):
                raise InputError(f"edge {(u, w)} is not a pair of vertex indices")
        object.__setattr__(self, "edges", frozenset((int(u), int(w)) for u, w in pairs))


def pad_balanced(graph: BipartiteGraph, t: int) -> tuple:
    """Equalize the sides to 2t'-1 vertices, preserving biclique existence.

    Isolated vertices are appended up to n' = max(|L|, |R|, 2t-1), then
    p = n' - 2t + 1 universal vertices are appended to each side; the
    padded graph has a t'xt' biclique (t' = t + p) iff the original has a
    txt one.  Returns (padded graph, t').
    """
    if not (is_int(t) and t >= 1):
        raise InputError(f"t must be an integer >= 1, got {t!r}")
    n1 = max(graph.n_left, graph.n_right, 2 * t - 1)
    p = n1 - 2 * t + 1
    edges = set(graph.edges)
    for u in range(n1, n1 + p):
        edges.update((u, w) for w in range(n1 + p))
    for w in range(n1, n1 + p):
        edges.update((u, w) for u in range(n1))   # universal-left rows already added above
    return BipartiteGraph(n1 + p, n1 + p, frozenset(edges)), t + p


def biclique_reduction(graph: BipartiteGraph, t: int) -> tuple:
    """Build the voting instance whose fixed-level audit mirrors biclique search.

    After padding to 2t'-1 per side, left vertices become voters and right
    vertices candidates; a voter approves the extra candidate z plus every
    non-neighbour.  The committee is everything but z, k = 2t'-1, and the
    level to audit is t'.  Returns (instance, committee, level).
    """
    g, t1 = pad_balanced(graph, t)
    side = g.n_left
    adj = {u: set() for u in range(side)}
    for (u, w) in g.edges:
        adj[u].add(w)
    z = side   # candidates are right vertices 0..side-1, then z
    approvals = []
    for u in range(side):
        approvals.append(frozenset({z} | (set(range(side)) - adj[u])))
    inst = ApprovalInstance(tuple(approvals), side + 1, side)
    committee = tuple(range(side))
    return inst, committee, t1


def find_balanced_biclique_bruteforce(graph: BipartiteGraph, t: int) -> Optional[tuple]:
    """Exhaustive search for a t x t complete bipartite subgraph.

    Left subsets grow in index order with the common right neighbourhood
    kept as a bitmask; branches die as soon as the neighbourhood drops
    below t, so the first hit equals what plain subset enumeration would
    return.
    """
    if not (is_int(t) and t >= 1):
        raise InputError(f"t must be an integer >= 1, got {t!r}")
    nl, nr = graph.n_left, graph.n_right
    if nl > _MAX_SIDE or nr > _MAX_SIDE:
        raise SizeError(f"sides exceed cap {_MAX_SIDE}")
    if t > min(nl, nr):
        return None
    adj = [0] * nl
    for (u, w) in graph.edges:
        adj[u] |= 1 << w

    def extend(start: int, chosen: list, common: int):
        if len(chosen) == t:
            rights = [w for w in range(nr) if common >> w & 1]
            return tuple(chosen), tuple(rights[:t])
        for u in range(start, nl - (t - len(chosen)) + 1):
            nxt = common & adj[u]
            if nxt.bit_count() >= t:
                found = extend(u + 1, chosen + [u], nxt)
                if found:
                    return found
        return None

    return extend(0, [], (1 << nr) - 1)
