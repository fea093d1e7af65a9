import json

import numpy as np

from propaudit import (Instance, oracle_mpjr, run_sear, verify_dc_mpjr_plus,
                       verify_mpjr_plus_smallk)
from propaudit.gen import fixture_incomparability

from conftest import random_explicit, random_instance


def ladder_reference(inst):
    """The expanding-approvals rule in plain Python: walk the distinct
    distances in ascending order with explicit ball sets, re-summing each
    ball's weight after every selection."""
    n, m, k = inst.n, inst.m, inst.k
    D = inst.dists().tolist()
    w = [k] * n
    alive = list(range(m))
    chosen, trace = [], []
    for r in sorted(set(v for row in D for v in row)):
        ball = [[i for i in range(n) if D[i][c] <= r] for c in range(m)]
        while len(chosen) < k:
            weight = {c: sum(w[i] for i in ball[c]) for c in alive}
            eligible = [c for c in alive if weight[c] >= n]
            if not eligible:
                break
            c = max(eligible, key=lambda c: (weight[c], -c))
            remaining, charges = n, []
            for i in ball[c]:
                take = min(w[i], remaining)
                if take:
                    w[i] -= take
                    remaining -= take
                    charges.append({"agent": i, "amount": take})
            alive.remove(c)
            chosen.append(c)
            trace.append({"candidate": c, "radius": r, "charges": charges})
        if len(chosen) == k:
            return {"selection": chosen, "trace": trace}
    raise AssertionError("ladder exhausted")


class TestHandTraces:
    def test_two_far_clusters_on_a_line(self):
        # agents {0,0,10,10}, candidates {0,10}, k=2: each radius-0 ball
        # already holds quota weight, so both open at radius 0
        inst = Instance.euclidean([[0.0], [0.0], [10.0], [10.0]],
                                  [[0.0], [10.0]], 2)
        res = run_sear(inst)
        assert res.selection == (0, 1)
        assert [s.radius for s in res.trace] == [0.0, 0.0]
        assert res.trace[0].charges == ((0, 2), (1, 2))
        assert res.trace[1].charges == ((2, 2), (3, 2))

    def test_k_equals_m_selects_everything(self, rng):
        for _ in range(15):
            inst = random_instance(rng)
            full = Instance.euclidean(rng.random((4, 2)), rng.random((3, 2)), 3)
            assert sorted(run_sear(full).selection) == [0, 1, 2]

    def test_fixture_geometry_output_is_proportional(self):
        inst, _ = fixture_incomparability(1)
        W = run_sear(inst).selection
        assert verify_mpjr_plus_smallk(inst, W).satisfied


class TestBudgetAccounting:
    def test_conservation_and_nonnegativity(self, rng):
        for _ in range(80):
            inst = random_instance(rng)
            n, k = inst.n, inst.k
            res = run_sear(inst)
            assert len(res.selection) == k
            spent = 0
            for step in res.trace:
                step_total = sum(amount for _, amount in step.charges)
                assert step_total == n          # exactly one quota per center
                assert all(amount > 0 for _, amount in step.charges)
                spent += step_total
                # charged agents lie inside the opening ball
                for agent, _ in step.charges:
                    assert inst.dists()[agent, step.candidate] <= step.radius
            assert spent == n * k

    def test_per_agent_budget_never_overdrawn(self, rng):
        for _ in range(40):
            inst = random_instance(rng)
            paid = np.zeros(inst.n, dtype=int)
            for step in run_sear(inst).trace:
                for agent, amount in step.charges:
                    paid[agent] += amount
            assert (paid <= inst.k).all()


class TestDeterminism:
    def test_identical_runs(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            assert run_sear(inst).to_dict() == run_sear(inst).to_dict()


class TestProportionality:
    def test_outputs_pass_all_audits(self, rng):
        for _ in range(120):
            inst = random_instance(rng)
            W = run_sear(inst).selection
            assert verify_mpjr_plus_smallk(inst, W).satisfied
            assert verify_dc_mpjr_plus(inst, W).satisfied
            assert oracle_mpjr(inst, W).satisfied


class TestLadderReference:
    def test_traces_match_plain_ladder(self, rng):
        cases = 0
        for _ in range(300):
            n = int(rng.integers(1, 10))
            m = int(rng.integers(1, 8))
            for k in range(1, m + 1):
                kind = cases % 3
                if kind == 0:       # integer grid points: many tied distances
                    inst = Instance.euclidean(rng.integers(0, 4, (n, 2)),
                                              rng.integers(0, 4, (m, 2)), k)
                elif kind == 1:
                    inst = Instance.euclidean(rng.random((n, 2)), rng.random((m, 2)), k)
                else:
                    inst = random_explicit(rng, n, m, k, max_dist=4)
                got = run_sear(inst).to_dict()
                expect = ladder_reference(inst)
                assert got == expect
                assert json.dumps(got) == json.dumps(expect)
                cases += 1
        assert cases >= 1000
