import numpy as np
import pytest

from propaudit import (ApprovalInstance, embed_approval, oracle_mpjr,
                       oracle_mpjr_plus_fixed_ell, validate_metric,
                       verify_fixed_ell_pjr_plus_bruteforce, verify_pjr_bruteforce)
from propaudit.gen import sample_selection

from conftest import group_approval_set, random_profile


def two_by_two():
    return ApprovalInstance([{0}, {1}], 2, 1)


class TestConstruction:
    def test_approval_edge_weights(self):
        d = embed_approval(two_by_two()).to_dict()["matrix"]
        assert d[0][2] == 1.0   # v1 approves c1
        assert d[0][3] == 2.0   # v1 does not approve c2

    def test_same_side_two_hop(self):
        d = embed_approval(two_by_two()).to_dict()["matrix"]
        assert d[0][1] == 3.0   # v1-v2 through either candidate
        assert d[2][3] == 3.0

    def test_is_metric(self, rng):
        for _ in range(25):
            emb = embed_approval(random_profile(rng))
            assert validate_metric(emb, check_triangle=True).ok
            d = emb.dists()
            assert set(np.unique(d)) <= {0.0, 1.0, 2.0, 3.0, 4.0}


class TestBallStructure:
    @pytest.mark.parametrize("r", [1.0, 1.5, 1.999])
    def test_balls_reproduce_ballots(self, rng, r):
        for _ in range(60):
            inst = random_profile(rng)
            emb = embed_approval(inst)
            D = emb.dists()
            agents = [int(a) for a in np.flatnonzero(rng.random(inst.n) < 0.6)]
            if not agents:
                continue
            union = frozenset.union(*(inst.approvals[i] for i in agents))
            inter = frozenset.intersection(*(inst.approvals[i] for i in agents))
            assert group_approval_set(emb, agents, r) == union
            got_inter = frozenset.intersection(
                *(frozenset(np.flatnonzero(D[i] <= r).tolist()) for i in agents))
            assert got_inter == inter


class TestTransfer:
    def test_pjr_transfers(self, rng):
        for _ in range(250):
            inst = random_profile(rng)
            X = sample_selection(inst.m, inst.k, rng)
            emb = embed_approval(inst)
            assert verify_pjr_bruteforce(inst, X).satisfied == \
                oracle_mpjr(emb, X).satisfied

    def test_fixed_level_transfers(self, rng):
        for _ in range(120):
            inst = random_profile(rng)
            X = sample_selection(inst.m, inst.k, rng)
            emb = embed_approval(inst)
            for ell in range(1, inst.k + 1):
                a = verify_fixed_ell_pjr_plus_bruteforce(inst, X, ell).satisfied
                b = oracle_mpjr_plus_fixed_ell(emb, X, ell).satisfied
                assert a == b
