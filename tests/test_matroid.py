import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twolevel import matroid as mat


class TestConstruction:
    def test_rejects_non_antichain(self):
        with pytest.raises(ValueError):
            mat.Matroid([1, 2, 3], [{1, 2}, {1, 2, 3}])

    def test_rejects_foreign_elements(self):
        with pytest.raises(ValueError):
            mat.Matroid([1, 2], [{3}])

    def test_rejects_empty_circuit(self):
        with pytest.raises(ValueError):
            mat.Matroid([1, 2], [set()])

    def test_uniform_validates_rank(self):
        with pytest.raises(ValueError):
            mat.uniform(3, 0)
        with pytest.raises(ValueError):
            mat.uniform(3, 3)

    def test_uniform_circuits(self):
        u = mat.uniform(4, 2)
        assert all(len(c) == 3 for c in u.circuits)
        assert len(u.circuits) == 4


class TestRankAndBases:
    def test_uniform_bases(self):
        u = mat.uniform(5, 2)
        bs = mat.bases(u)
        assert len(bs) == 10
        assert all(len(b) == 2 for b in bs)

    def test_rank(self):
        assert mat.rank(mat.uniform(6, 3)) == 3
        assert mat.rank(mat.P6) == 3

    def test_p6_has_19_bases(self):
        bs = mat.bases(mat.P6)
        assert len(bs) == 19
        assert all(len(b) == 3 for b in bs)
        assert frozenset({1, 2, 3}) not in bs

    def test_bases_cap(self):
        with pytest.raises(ValueError):
            mat.bases(mat.uniform(15, 7))


class TestDuality:
    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3), (6, 2)])
    def test_uniform_dual(self, n, k):
        assert mat.dual(mat.uniform(n, k)) == mat.uniform(n, n - k)

    def test_dual_involution(self):
        assert mat.dual(mat.dual(mat.P6)) == mat.P6

    def test_self_dual_uniform(self):
        u = mat.uniform(4, 2)
        assert mat.dual(u) == u


class TestMinorsAndSums:
    def test_loops_and_coloops(self):
        m = mat.Matroid([1, 2, 3], [{1}, {2, 3}])
        assert mat.is_loop(m, 1) and not mat.is_coloop(m, 1)
        assert not mat.is_loop(m, 2) and not mat.is_coloop(m, 2)
        m2 = mat.Matroid([1, 2], [{1}])
        assert mat.is_coloop(m2, 2)

    def test_delete(self):
        u = mat.uniform(4, 2)
        d = mat.delete(u, 4)
        assert d == mat.uniform(3, 2, labels=[1, 2, 3])

    def test_direct_sum(self):
        s = mat.direct_sum(mat.uniform(3, 1, labels=[1, 2, 3]),
                           mat.uniform(3, 2, labels=[4, 5, 6]))
        assert s.size() == 6
        assert len(s.circuits) == 4  # three 2-circuits + one 3-circuit

    def test_two_sum_example(self):
        # parallel class {1,2,3} glued to a triangle through the base points
        m1 = mat.uniform(4, 1, labels=[1, 2, 3, 9])
        m2 = mat.uniform(3, 2, labels=[8, 5, 6])
        got = mat.two_sum(m1, 9, m2, 8)
        circuits = sorted(tuple(sorted(c)) for c in got.circuits)
        assert circuits == [
            (1, 2), (1, 3), (1, 5, 6), (2, 3), (2, 5, 6), (3, 5, 6)
        ]

    def test_two_sum_routes_agree(self):
        rng = random.Random(7)
        for _ in range(20):
            n1, n2 = rng.randint(3, 5), rng.randint(3, 5)
            k1, k2 = rng.randint(1, n1 - 1), rng.randint(1, n2 - 1)
            m1 = mat.uniform(n1, k1)
            m2 = mat.uniform(n2, k2, labels=range(10, 10 + n2))
            e1 = rng.choice(m1.ground)
            e2 = rng.choice(m2.ground)
            a = mat.two_sum(m1, e1, m2, e2)
            b = mat.two_sum_via_bases(m1, e1, m2, e2)
            assert a == b

    def test_two_sum_rejects_shared_ground(self):
        u = mat.uniform(4, 2)
        with pytest.raises(ValueError):
            mat.two_sum(u, 1, u, 2)

    def test_two_sum_rejects_bad_base_point(self):
        m1 = mat.Matroid([1, 2], [{1}])  # 1 loop, 2 coloop
        m2 = mat.uniform(3, 1, labels=[4, 5, 6])
        with pytest.raises(ValueError):
            mat.two_sum(m1, 1, m2, 4)
        with pytest.raises(ValueError):
            mat.two_sum(m1, 2, m2, 4)

    def test_two_sum_preserves_circuit_axioms(self):
        m1 = mat.uniform(4, 2)
        m2 = mat.uniform(4, 1, labels=[5, 6, 7, 8])
        s = mat.two_sum(m1, 1, m2, 5)
        assert mat.circuit_axioms_ok(s)
        assert mat.is_2connected(s)


class TestConnectivity:
    def test_uniform_is_2connected(self):
        assert mat.is_2connected(mat.uniform(5, 2))

    def test_direct_sum_is_not(self):
        s = mat.direct_sum(mat.uniform(3, 1), mat.uniform(3, 2, labels=[4, 5, 6]))
        assert not mat.is_2connected(s)

    def test_p6_is_2connected(self):
        assert mat.is_2connected(mat.P6)


class TestCircuitAxioms:
    @pytest.mark.parametrize("m", [mat.uniform(4, 2), mat.uniform(5, 3), mat.P6])
    def test_valid_matroids_pass(self, m):
        assert mat.circuit_axioms_ok(m)

    def test_elimination_violation_detected(self):
        # {1,2} and {2,3} require a circuit inside {1,3}
        bogus = mat.Matroid([1, 2, 3], [{1, 2}, {2, 3}])
        assert not mat.circuit_axioms_ok(bogus)


class TestIsomorphism:
    def test_relabelled_uniform(self):
        u = mat.uniform(5, 2)
        v = mat.relabel(u, {e: e * 10 for e in u.ground})
        assert mat.is_isomorphic(u, v)

    def test_different_rank_not_isomorphic(self):
        assert not mat.is_isomorphic(mat.uniform(5, 2), mat.uniform(5, 3))

    def test_same_profile_different_structure(self):
        # two 2-sums of the same pieces along different base points can
        # differ; compare a 2-sum against a uniform matroid of equal size
        m1 = mat.two_sum(mat.uniform(4, 2), 1,
                         mat.uniform(4, 2, labels=[5, 6, 7, 8]), 5)
        assert not mat.is_isomorphic(m1, mat.uniform(6, 2))

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_random_relabelling_detected(self, rng):
        m1 = mat.two_sum(mat.uniform(4, 2), 2,
                         mat.uniform(5, 2, labels=[5, 6, 7, 8, 9]), 7)
        perm = list(m1.ground)
        rng.shuffle(perm)
        m2 = mat.relabel(m1, dict(zip(m1.ground, perm)))
        assert mat.is_isomorphic(m1, m2)

    def test_iso_cap(self):
        big = mat.uniform(13, 1)
        with pytest.raises(ValueError):
            mat.is_isomorphic(big, big)


class TestRecord:
    def test_record_is_stable(self):
        u = mat.uniform(4, 2)
        assert mat.matroid_record(u) == mat.matroid_record(mat.uniform(4, 2))
        assert mat.matroid_record(u).startswith("ground=[1,2,3,4]")

    def test_record_distinguishes(self):
        assert mat.matroid_record(mat.uniform(4, 2)) != mat.matroid_record(
            mat.uniform(4, 1)
        )
