"""Digests of the audits' outputs, for checking that a change to their
code leaves every output as it was.

Prints eight sha256 digests, one a line, each with what it covers:

* ``smallk``: ``verify_mpjr_plus_smallk(...).to_dict()`` less
  ``elapsed_ms`` on seeded planar cases, at every gamma in {0.7, 1, 1.5}
  and eps in {0, 0.25}.  Agents sit around 1-3 hubs of uneven weight (a
  third of the cases on a quarter grid, for exact distance ties), k is
  2-12, and the selection is SEAR's or a uniform random one.
* ``batch``: the experiment's small-k batch, ``verify._smallk_verdicts``,
  on instances drawn as for ``smallk``, each with a batch of 8 uniform
  random selections at every gamma of the grid, one line a verdict.  The
  ``experiment`` line below stays at k = 5, where every size's sets are
  scanned plainly; here k reaches 12 and the pruned exclusion-set search.
* ``pjr+``: ``verify_pjr_plus_sweep(...).to_dict()`` less ``elapsed_ms``
  on seeded approval profiles where voter groups of uneven size approve
  blocks of candidates, with uniform random committees; most are violated.
* ``dc``: ``dc_violations(...)`` (each witness's ``to_dict()``) and
  ``verify_fixed_ell_dc(...).to_dict()`` less ``elapsed_ms`` at ell in
  {1, ceil(k/2), k}, on seeded planar cases with n of 200-1500, so that
  the DC sweep runs several anchor chunks and its screen both passes and
  flags anchors, at the same gamma and eps grids.  Hubs, ties and
  selections are as for ``smallk``, with k of 2-20.  Its count is of
  lines (violation lists and verdicts), its violated count of verdicts.
* ``dc-batch``: the experiment's DC batch, ``verify._dc_verdicts``, on
  the ``dc`` line's instances, each with a batch of 300 uniform random
  selections at every gamma of the grid, one line a verdict.  A batch
  runs in chunks of 2^16 // (m k) selections, so at these sizes most
  calls span several chunks; the ``experiment`` line covers it at k = 5
  only.
* ``experiment``: ``run_experiment(...).to_csv(include_timing=False)`` of
  a small grid at gamma 1 and 1.5.
* ``oracle``: the exhaustive references, each ``.to_dict()`` less
  ``elapsed_ms``: ``oracle_mpjr_plus`` at every gamma of the grid and
  ``oracle_mpjr_plus_fixed_ell`` at every ell and gamma, on seeded desk
  cases (n of 1-8, m of 2-6, a third of them on an integer grid, so that
  distances tie) with uniform random selections, one case per small-k
  case; then ``verify_pjr_bruteforce`` and
  ``verify_fixed_ell_pjr_plus_bruteforce`` at every ell, on seeded
  random ballots of 1-8 voters, one profile per approval profile.
* ``refs``: the references no other line covers, on desk cases drawn as
  for ``oracle`` from a stream of their own, one per small-k case:
  ``oracle_mpjr``, ``oracle_dc`` at every gamma and eps of the grids
  (each ``.to_dict()`` less ``elapsed_ms``), and the fields of
  ``submodular_min_check`` at every unselected center and its three
  smallest distinct radii.  Its violated count is of verdicts.

Run it on two commits and compare the lines:

    PYTHONPATH=src python tools/audit_digest.py [--cases 1000] [--profiles 1000] \
        [--dc-cases 100]
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json

import numpy as np

from propaudit import (ApprovalInstance, ExperimentConfig, Instance, dc_violations, oracle_dc,
                       oracle_mpjr, oracle_mpjr_plus, oracle_mpjr_plus_fixed_ell,
                       run_experiment, run_sear, sample_selection, submodular_min_check,
                       substream, verify, verify_fixed_ell_dc,
                       verify_fixed_ell_pjr_plus_bruteforce, verify_mpjr_plus_smallk,
                       verify_pjr_bruteforce, verify_pjr_plus_sweep)

GAMMAS = (0.7, 1.0, 1.5)
EPSILONS = (0.0, 0.25)


def _line(verdict) -> str:
    d = verdict.to_dict()
    d.pop("elapsed_ms")
    return json.dumps(d, sort_keys=True)


def hub_case(gen, k_hi=13, n_lo=0, n_hi=61, extra=16):
    """A planar instance with agents around uneven hubs, and a selection:
    k in [2, k_hi), n in [max(k, n_lo), n_hi) and m - k in [1, extra)."""
    k = int(gen.integers(2, k_hi))
    g = int(gen.integers(1, 4))
    n = int(gen.integers(max(k, n_lo), n_hi))
    m = k + int(gen.integers(1, extra))
    hubs = 4 * gen.random((g, 2))
    weight = gen.random(g) + 0.1
    agents = hubs[gen.choice(g, size=n, p=weight / weight.sum())] + 0.4 * gen.random((n, 2))
    cands = np.where(gen.random((m, 1)) < 0.7,
                     hubs[gen.integers(0, g, m)] + 0.4 * gen.random((m, 2)),
                     4 * gen.random((m, 2)))
    if gen.random() < 1 / 3:
        agents, cands = np.round(4 * agents) / 4, np.round(4 * cands) / 4
    inst = Instance.euclidean(agents, cands, k)
    if gen.random() < 0.4:
        return inst, run_sear(inst).selection
    return inst, sample_selection(m, k, gen)


def group_profile(gen):
    """Voter groups of uneven size approving blocks of candidates, plus
    sparse noise, and a uniform random committee."""
    k = int(gen.integers(2, 11))
    m = k + int(gen.integers(2, 3 * k))
    n = int(gen.integers(k, 6 * k))
    groups = int(gen.integers(1, k + 1))
    weight = gen.random(groups) + 0.1
    group = gen.choice(groups, size=n, p=weight / weight.sum())
    blocks = [np.flatnonzero(gen.random(m) < 0.3) for _ in range(groups)]
    noise = gen.random((n, m)) < 0.05
    approvals = [set(blocks[group[i]].tolist()) | set(np.flatnonzero(noise[i]).tolist())
                 for i in range(n)]
    return ApprovalInstance(approvals, m, k), sample_selection(m, k, gen)


def desk_case(gen):
    """A planar instance small enough for the exhaustive oracles (n in
    [1, 8], m in [2, 6], k in [1, m)), a third of them on an integer grid,
    and a uniform random selection."""
    n, m = int(gen.integers(1, 9)), int(gen.integers(2, 7))
    k = int(gen.integers(1, m))
    agents, cands = 3 * gen.random((n, 2)), 3 * gen.random((m, 2))
    if gen.random() < 1 / 3:
        agents, cands = np.round(agents), np.round(cands)
    return Instance.euclidean(agents, cands, k), sample_selection(m, k, gen)


def desk_profile(gen):
    """Random ballots of 1-8 voters over 2-7 candidates, each approving a
    candidate with probability 0.45, and a uniform random committee of
    k in [1, m)."""
    n, m = int(gen.integers(1, 9)), int(gen.integers(2, 8))
    k = int(gen.integers(1, m))
    approvals = [np.flatnonzero(gen.random(m) < 0.45).tolist() for _ in range(n)]
    return ApprovalInstance(approvals, m, k), sample_selection(m, k, gen)


def digest(lines) -> tuple:
    h = hashlib.sha256()
    count = violated = 0
    for line in lines:
        h.update(line.encode() + b"\n")
        count += 1
        violated += '"satisfied": false' in line
    return h.hexdigest(), count, violated


def smallk_lines(cases, seed):
    gen = substream(seed, "audit-digest", "smallk")
    for _ in range(cases):
        inst, X = hub_case(gen)
        for gamma in GAMMAS:
            for eps in EPSILONS:
                yield _line(verify_mpjr_plus_smallk(inst, X, gamma, eps=eps))


def batch_verdict_lines(batch, cases, count, gen, draw, **shape):
    """One line a verdict of the experiment batch `batch` on `count`
    uniform random selections, drawn from `draw`, of each of `cases` hub
    cases drawn from `gen`, at every gamma of the grid."""
    for _ in range(cases):
        inst, _ = hub_case(gen, **shape)
        sels = [sample_selection(inst.m, inst.k, draw) for _ in range(count)]
        for gamma in GAMMAS:
            for X, ok in zip(sels, batch(inst, sels, gamma)):
                yield json.dumps({"gamma": gamma, "satisfied": bool(ok), "selection": X},
                                 sort_keys=True)


def batch_lines(cases, seed):
    gen = substream(seed, "audit-digest", "batch")
    return batch_verdict_lines(verify._smallk_verdicts, cases, 8, gen, gen)


def dc_lines(cases, seed):
    gen = substream(seed, "audit-digest", "dc")
    for _ in range(cases):
        inst, X = hub_case(gen, k_hi=21, n_lo=200, n_hi=1501, extra=41)
        for gamma in GAMMAS:
            for eps in EPSILONS:
                yield json.dumps([w.to_dict() for w in dc_violations(inst, X, gamma, eps)])
                for ell in sorted({1, -(-inst.k // 2), inst.k}):
                    yield _line(verify_fixed_ell_dc(inst, X, ell, gamma, eps))


def dc_batch_lines(cases, seed):
    """The ``dc`` line's instances (the same draws from the same stream),
    with selections from a stream of their own."""
    return batch_verdict_lines(verify._dc_verdicts, cases, 300,
                               substream(seed, "audit-digest", "dc"),
                               substream(seed, "audit-digest", "dc-batch"),
                               k_hi=21, n_lo=200, n_hi=1501, extra=41)


def pjr_plus_lines(profiles, seed):
    gen = substream(seed, "audit-digest", "pjr+")
    for _ in range(profiles):
        yield _line(verify_pjr_plus_sweep(*group_profile(gen)))


def oracle_lines(cases, profiles, seed):
    gen = substream(seed, "audit-digest", "oracle")
    for _ in range(cases):
        inst, X = desk_case(gen)
        for gamma in GAMMAS:
            yield _line(oracle_mpjr_plus(inst, X, gamma))
            for ell in range(1, inst.k + 1):
                yield _line(oracle_mpjr_plus_fixed_ell(inst, X, ell, gamma))
    for _ in range(profiles):
        inst, X = desk_profile(gen)
        yield _line(verify_pjr_bruteforce(inst, X))
        for ell in range(1, inst.k + 1):
            yield _line(verify_fixed_ell_pjr_plus_bruteforce(inst, X, ell))


def refs_lines(cases, seed):
    gen = substream(seed, "audit-digest", "refs")
    for _ in range(cases):
        inst, X = desk_case(gen)
        yield _line(oracle_mpjr(inst, X))
        for gamma in GAMMAS:
            for eps in EPSILONS:
                yield _line(oracle_dc(inst, X, gamma, eps))
        D = inst.dists()
        for c in range(inst.m):
            if c not in X:
                for r in np.unique(D[:, c])[:3]:
                    report = submodular_min_check(inst, X, c, float(r))
                    yield json.dumps(dataclasses.asdict(report), sort_keys=True)


def experiment_csv(seed) -> str:
    return "".join(run_experiment(ExperimentConfig(
        n_values=(20, 40, 60), g_values=(4, 6), instances_per_cell=3,
        selections_per_instance=40, master_seed=seed, gamma=gamma),
        threads=1).to_csv(include_timing=False) for gamma in (1.0, 1.5))


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--cases", type=int, default=1000,
                   help="small-k cases (6 audits each), batch cases (24 verdicts each), "
                        "oracle desk cases (3 + 3k verdicts each) and refs desk cases "
                        "(7 verdicts and up to 3 (m - k) reports each)")
    p.add_argument("--profiles", type=int, default=1000,
                   help="approval profiles, and oracle desk profiles (1 + k verdicts each)")
    p.add_argument("--dc-cases", type=int, default=100,
                   help="DC cases (6 violation lists and up to 18 fixed-ell verdicts each), "
                        "and DC batch cases (900 verdicts each)")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    for name, lines, unit in (("smallk", smallk_lines(args.cases, args.seed), "verdicts"),
                              ("batch", batch_lines(args.cases, args.seed), "verdicts"),
                              ("pjr+", pjr_plus_lines(args.profiles, args.seed), "verdicts"),
                              ("dc", dc_lines(args.dc_cases, args.seed), "lines"),
                              ("dc-batch", dc_batch_lines(args.dc_cases, args.seed),
                               "verdicts")):
        sha, count, violated = digest(lines)
        print(f"{name} {sha} ({count} {unit}, {violated} violated)")
    csv = experiment_csv(args.seed)
    print(f"experiment {hashlib.sha256(csv.encode()).hexdigest()} "
          f"({csv.count(chr(10))} csv lines)")
    sha, count, violated = digest(oracle_lines(args.cases, args.profiles, args.seed))
    print(f"oracle {sha} ({count} verdicts, {violated} violated)")
    sha, count, violated = digest(refs_lines(args.cases, args.seed))
    print(f"refs {sha} ({count} lines, {violated} violated)")


if __name__ == "__main__":
    main()
