import json
import math

import numpy as np
import pytest

from propaudit import (ApprovalInstance, InputError, Instance,
                       UnsupportedBackend, check_selection, dump_instance,
                       embed_approval, load_instance, validate_metric)
from propaudit import core
from propaudit.gen import fixture_incomparability, substream

from conftest import group_approval_set


def small_embedded():
    appr = ApprovalInstance([{0}, {1}], 2, 1)
    return embed_approval(appr)


class TestDistance:
    def test_explicit_approved_pair_is_one(self):
        inst = small_embedded()
        assert inst.dists()[0, 0] == 1.0   # v1 -> c1

    def test_identity(self):
        matrix = small_embedded().to_dict()["matrix"]
        for p in range(4):
            assert matrix[p][p] == 0.0

    def test_euclidean_pythagorean(self):
        inst = Instance.euclidean([[0.0, 0.0]], [[3.0, 4.0]], 1)
        assert inst.dists()[0, 0] == 5.0

    def test_dists_bit_equal_to_plain_python(self, rng):
        # mixed magnitudes per coordinate make the summation order visible;
        # the last shapes span several row blocks of the output and end in
        # a partial one
        m = 40
        rows = core._PAIRWISE_BLOCK // m
        shapes = [(7, 5, dim) for dim in range(1, 9)]
        shapes += [(2 * rows + rows // 2 + 1, m, dim) for dim in (1, 3)]
        for n, m, dim in shapes:
            scale = 10.0 ** rng.integers(-6, 7, size=dim)
            agents = (rng.random((n, dim)) - 0.5) * scale
            cands = (rng.random((m, dim)) - 0.5) * scale
            inst = Instance.euclidean(agents, cands, 2)
            expect = [[math.sqrt(sum((a - b) * (a - b) for a, b in zip(p, q)))
                       for q in cands.tolist()] for p in agents.tolist()]
            assert inst.dists().tolist() == expect
            full = inst.to_explicit().dists()
            assert np.array_equal(full, inst.dists())


class TestGroupApprovalSet:
    """The candidates within r of some agent of a group, on the fixtures."""

    def test_instance2_ball_around_z(self):
        inst, _ = fixture_incomparability(2)
        assert group_approval_set(inst, [0, 1, 2, 3], 1.0) == {0, 1}   # {z, x1}

    def test_saturation(self):
        inst, _ = fixture_incomparability(2)
        assert group_approval_set(inst, [0], 100.0) == set(range(inst.m))


class TestValidateMetric:
    def test_embedded_instance_is_metric(self):
        assert validate_metric(small_embedded(), check_triangle=True).ok

    def test_asymmetry_detected(self):
        d = np.zeros((3, 3))
        d[0, 1], d[1, 0] = 1.0, 2.0
        d[0, 2] = d[2, 0] = 1.0
        d[1, 2] = d[2, 1] = 1.0
        check = validate_metric(Instance.explicit(d, 1, 1))
        assert not check.ok and check.violation == "asymmetry"

    def test_triangle_violation_named(self):
        d = np.array([[0.0, 1.0, 9.0],
                      [1.0, 0.0, 1.0],
                      [9.0, 1.0, 0.0]])
        check = validate_metric(Instance.explicit(d, 1, 1), check_triangle=True)
        assert not check.ok and check.violation == "triangle"
        a, b, c = check.points
        assert d[a, c] > d[a, b] + d[b, c]

    def test_euclidean_backend_unsupported(self):
        inst = Instance.euclidean([[0.0]], [[1.0]], 1)
        with pytest.raises(UnsupportedBackend):
            validate_metric(inst)


class TestBackendAgreement:
    def test_explicit_materialization_preserves_verdicts(self, rng):
        from propaudit import (oracle_dc, verify_dc_mpjr_plus,
                               verify_mpjr_plus_smallk)
        from propaudit.gen import sample_selection
        for _ in range(40):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 6))
            k = int(rng.integers(1, min(m, 3) + 1))
            inst = Instance.euclidean(rng.random((n, 2)), rng.random((m, 2)), k)
            X = sample_selection(m, k, rng)
            twin = inst.to_explicit()
            for fn in (verify_dc_mpjr_plus, verify_mpjr_plus_smallk, oracle_dc):
                a, b = fn(inst, X), fn(twin, X)
                assert a.satisfied == b.satisfied
                if a.witness is not None:
                    assert a.witness.center == b.witness.center
                    assert a.witness.level == b.witness.level
                    assert a.witness.radius == pytest.approx(b.witness.radius, abs=0)


class TestSelectionAndJson:
    def test_selection_size_enforced(self):
        inst, _ = fixture_incomparability(2)
        with pytest.raises(InputError):
            check_selection(inst, [1, 2])
        with pytest.raises(InputError):
            check_selection(inst, [1, 1, 2])
        assert check_selection(inst, [3, 1, 2]) == (1, 2, 3)

    def test_euclidean_rejects_overflowing_distances(self):
        # finite coordinates whose squared gaps overflow: dists() would hold inf
        with pytest.raises(InputError, match="distances must be finite"):
            Instance.euclidean([[1e308, 0.0], [-1e308, 0.0]], [[0.0, 0.0]], 1)
        with pytest.raises(InputError, match="distances must be finite"):
            Instance.euclidean([[0.0, 0.0]], [[2e154, 0.0]], 1)
        # the per-coordinate gap bound overflows (2e308 summed), yet every
        # agent-candidate distance is finite: the instance stands
        inst = Instance.euclidean([[1e154, 0.0], [0.0, 1e154]], [[0.0, 0.0]], 1)
        assert np.isfinite(inst.dists()).all()

    @pytest.mark.parametrize("n_agents", [2.5, 2.0, True, "2", None])
    def test_explicit_rejects_non_integer_agent_count(self, n_agents):
        with pytest.raises(InputError):
            Instance.explicit(np.ones((4, 4)) - np.eye(4), n_agents, 1)

    @pytest.mark.parametrize("bad", [True, False, "0.9", "x", None, 10 ** 400, [0.5]],
                             ids=["true", "false", "str", "word", "null", "huge", "list"])
    def test_entries_must_be_numbers(self, bad):
        """A bool, a string or a null is never read as a float, and an
        integer too large for one is an InputError, not an OverflowError,
        in agents, candidates and matrix alike."""
        with pytest.raises(InputError):
            Instance.euclidean([[0.5, bad], [1.0, 0.0]], [[0.0, 0.0]], 1)
        with pytest.raises(InputError):
            Instance.euclidean([[0.5, 0.5]], [[1.0, 0.0], [0.0, bad]], 1)
        matrix = (np.ones((3, 3)) - np.eye(3)).tolist()
        matrix[2][0] = bad
        with pytest.raises(InputError):
            Instance.explicit(matrix, 2, 1)
        with pytest.raises(InputError):
            Instance.explicit(np.array([[False, True], [True, False]]), 1, 1)

    def test_numbers_of_every_kind_accepted(self):
        # ints and floats, 0 and 1 among them, ints past int64 and numpy
        # arrays give the instance their float values give
        inst = Instance.euclidean([[0, 1], [1.0, 0.0], [2 ** 70, 0]], [[0, 0.5]], 1)
        same = Instance.euclidean(np.array([[0.0, 1.0], [1.0, 0.0], [2.0 ** 70, 0.0]]),
                                  [[0.0, 0.5]], 1)
        assert np.array_equal(inst.dists(), same.dists())
        assert Instance.explicit([[0, 1], [1, 0]], 1, 1).dists().tolist() == [[1.0]]

    def test_json_roundtrip(self, tmp_path, rng):
        inst, _ = fixture_incomparability(1)
        path = tmp_path / "inst.json"
        dump_instance(inst, path)
        back = load_instance(path)
        assert back.metric == "explicit" and back.n == 6 and back.k == 3
        assert np.array_equal(back.dists(), inst.dists())

        eu = Instance.euclidean(rng.random((4, 2)), rng.random((3, 2)), 2)
        dump_instance(eu, path)
        back = load_instance(path)
        assert back.metric == "euclidean" and back.dim == 2
        assert np.array_equal(back.dists(), eu.dists())

    @pytest.mark.parametrize("change", [
        {"k": "x"},
        {"k": 1.7},
        {"k": True},
        {"agents": ["a0", "a1", "a2", "a3", "a4"]},     # sixth agent would become a candidate
        {"candidates": ["z", "x1", "x2"]},
        {"matrix": [[0.0, 1.0], [1.0]]},
    ])
    def test_from_dict_rejects_bad_fields(self, change):
        inst, _ = fixture_incomparability(2)
        with pytest.raises(InputError):
            Instance.from_dict(dict(inst.to_dict(), **change))

    @pytest.mark.parametrize("change", [
        {"agents": "abcdef"},         # six one-letter names, as a string
        {"agents": {"a": 1}},
        {"candidates": "zxyw"},
        {"candidates": None},
    ])
    def test_from_dict_rejects_names_that_are_not_lists(self, change):
        inst, _ = fixture_incomparability(2)
        Instance.from_dict(inst.to_dict())
        with pytest.raises(InputError, match="lists of names"):
            Instance.from_dict(dict(inst.to_dict(), **change))

    @pytest.mark.parametrize("dim", [5, 1, 0, 2.0, "2", None, True])
    def test_from_dict_rejects_a_dim_that_is_not_the_points(self, dim):
        data = Instance.euclidean([[0.0, 0.0], [1.0, 1.0]], [[0.0, 1.0]], 1).to_dict()
        assert Instance.from_dict(data).dim == 2
        del data["dim"]
        assert Instance.from_dict(data).dim == 2           # dim stays optional
        with pytest.raises(InputError, match="dim"):
            Instance.from_dict(dict(data, dim=dim))

    def test_schema_fields(self):
        inst, _ = fixture_incomparability(2)
        data = inst.to_dict()
        assert data["metric"] == "explicit"
        assert data["candidates"] == ["z", "x1", "x2", "x3"]
        assert len(data["matrix"]) == 10
        blob = json.dumps(data)
        assert Instance.from_dict(json.loads(blob)).k == 3
