import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twolevel import matroid as mat
from twolevel import umrtree as umr

import reference_routes as ref


def tree_matroids(n_max):
    """The realised UMR-tree matroids with 3..n_max elements."""
    return [umr.tree_to_matroid(t) for n in range(3, n_max + 1)
            for t in umr.enumerate_umr_trees(n)]


# coloops 1 and 5, a loop 2 and a parallel pair 3, 4
LOOPS_AND_COLOOPS = mat.Matroid(range(1, 6), [{2}, {3, 4}])


class TestConstruction:
    def test_rejects_non_antichain(self):
        with pytest.raises(ValueError):
            mat.Matroid([1, 2, 3], [{1, 2}, {1, 2, 3}])

    def test_rejects_non_antichain_among_same_sizes(self):
        circuits = [{1, 2, 3}, {4, 5, 6}, {1, 4, 7}, {2, 5, 8},
                    {3, 6, 7, 8}, {1, 5, 6, 7}, {4, 5, 6, 9}, {2, 4, 6, 8}]
        with pytest.raises(ValueError, match="antichain"):
            mat.Matroid(range(1, 10), circuits)

    def test_rejects_non_antichain_across_a_size_gap(self):
        # a 2-circuit inside a 4-circuit, with no 3-circuit between them
        with pytest.raises(ValueError, match="antichain"):
            mat.Matroid([1, 2, 3, 4, 5], [{1, 2}, {2, 3, 4, 5}, {1, 2, 3, 4}])

    def test_circuits_view_round_trips(self):
        m = mat.two_sum(mat.uniform(4, 2), 1, mat.uniform(5, 1, labels=range(5, 10)), 7)
        for m in (mat.P6, mat.uniform(5, 3), m):
            assert all(type(c) is frozenset for c in m.circuits)
            assert mat.Matroid(m.ground, m.circuits) == m
            with pytest.raises(AttributeError):
                m.circuits = frozenset()

    def test_equal_and_hash_ignore_label_order(self):
        m1 = mat.Matroid([1, 2, 3, 4], [{1, 2}, {1, 3, 4}, {2, 3, 4}])
        m2 = mat.Matroid([4, 2, 3, 1], [[4, 3, 2], (2, 1), {3, 1, 4}])
        assert m1 == m2 and hash(m1) == hash(m2) and m2.ground == (1, 2, 3, 4)
        assert m1 != mat.Matroid([1, 2, 3, 4], [{1, 3}, {1, 2, 4}, {2, 3, 4}])

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

    def test_bases_of_an_antichain_that_is_no_matroid(self):
        # the greedy rank would stop at one element; the largest
        # circuit-free set has three
        m = mat.Matroid([1, 2, 3, 4], [{1, 2}, {1, 3}, {1, 4}])
        assert mat.bases(m) == {frozenset({2, 3, 4})}

    def test_p6_has_19_bases(self):
        bs = mat.bases(mat.P6)
        assert len(bs) == 19
        assert all(len(b) == 3 for b in bs)
        assert frozenset({1, 2, 3}) not in bs

    def test_bases_cap(self):
        with pytest.raises(ValueError):
            mat.bases(mat.uniform(15, 7))


class TestMaskKernels:
    """bases, rank, dual and is_2connected read the circuit masks; their
    answers are pinned against the definitions."""

    def test_p6(self):
        bs = {frozenset(b) for b in combinations(range(1, 7), 3)} - {frozenset({1, 2, 3})}
        assert mat.bases(mat.P6) == bs
        assert mat.rank(mat.P6) == 3 and mat.is_2connected(mat.P6)
        star = {frozenset(c) for c in combinations(range(1, 7), 4) if not {4, 5, 6} <= set(c)}
        assert mat.dual(mat.P6).circuits == star | {frozenset({4, 5, 6})}

    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 2), (5, 1), (6, 2), (7, 3)])
    def test_uniform(self, n, k):
        u = mat.uniform(n, k, labels=range(10, 10 + n))
        assert mat.bases(u) == {frozenset(b) for b in combinations(u.ground, k)}
        assert mat.rank(u) == k and mat.is_2connected(u)
        assert mat.dual(u) == mat.uniform(n, n - k, labels=u.ground)

    def test_with_loops_and_coloops(self):
        m = LOOPS_AND_COLOOPS
        assert mat.bases(m) == {frozenset({1, 3, 5}), frozenset({1, 4, 5})}
        assert mat.rank(m) == 3 and not mat.is_2connected(m)
        assert mat.dual(m).circuits == {frozenset({1}), frozenset({5}), frozenset({3, 4})}


class TestDuality:
    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3), (6, 2)])
    def test_uniform_dual(self, n, k):
        assert mat.dual(mat.uniform(n, k)) == mat.uniform(n, n - k)

    def test_dual_involution(self):
        assert mat.dual(mat.dual(mat.P6)) == mat.P6

    def test_self_dual_uniform(self):
        u = mat.uniform(4, 2)
        assert mat.dual(u) == u

    def test_matches_the_reference_bases_route(self):
        # the dual from the rank table against the circuits that the
        # reference route finds from the complemented bases
        ms = tree_matroids(7) + [mat.P6, LOOPS_AND_COLOOPS]
        ms += [mat.uniform(n, k) for n in range(2, 8) for k in range(1, n)]
        for m in ms:
            expected = ref.from_bases(m.ground, [set(m.ground) - b for b in mat.bases(m)])
            assert mat.dual(m) == expected


class TestRankTable:
    """_ranks(m)[s] against the definitions, over every subset mask s."""

    @staticmethod
    def free(m):
        """free[t]: whether the mask t contains no circuit."""
        return [all(c & t != c for c in m.masks) for t in range(1 << len(m.ground))]

    def test_rank_is_the_largest_circuit_free_subset(self):
        for m in tree_matroids(6) + [mat.P6, LOOPS_AND_COLOOPS]:
            free, r = self.free(m), mat._ranks(m)
            for s in range(1 << len(m.ground)):
                subsets = [t for t in range(s + 1) if t & s == t]
                assert r[s] == max(t.bit_count() for t in subsets if free[t])

    def test_full_rank_exactly_on_circuit_free_sets(self):
        # the last is an antichain that is no matroid's, where the greedy
        # rank falls short of the largest circuit-free subset
        no_matroid = mat.Matroid([1, 2, 3, 4], [{1, 2}, {1, 3}, {1, 4}])
        for m in tree_matroids(6) + [mat.P6, LOOPS_AND_COLOOPS, no_matroid]:
            free, r = self.free(m), mat._ranks(m)
            assert [r[s] == s.bit_count() for s in range(len(r))] == free


class TestMinorsAndSums:
    def test_loops_and_coloops(self):
        m = mat.Matroid([1, 2, 3], [{1}, {2, 3}])
        assert mat.is_loop(m, 1) and not mat.is_coloop(m, 1)
        assert not mat.is_loop(m, 2) and not mat.is_coloop(m, 2)
        m2 = mat.Matroid([1, 2], [{1}])
        assert mat.is_coloop(m2, 2)

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
            b = ref.two_sum_via_bases(m1, e1, m2, e2)
            assert a == b
        # realised UMR-tree matroids, folded and glued at random base points
        trees = [t for n in range(3, 7) for t in umr.enumerate_umr_trees(n)]
        for _ in range(20):
            m1 = ref.realise(ref.plain_tree(rng.choice(trees)), rng)
            m2 = ref.realise(ref.plain_tree(rng.choice(trees)), rng)
            m2 = ref.relabel(m2, {e: e + 100 for e in m2.ground})
            e1 = rng.choice(m1.ground)
            e2 = rng.choice(m2.ground)
            assert mat.two_sum(m1, e1, m2, e2) == ref.two_sum_via_bases(m1, e1, m2, e2)

    def test_two_sum_composes_circuits_without_repair(self):
        # every pair of antichains on three elements, base points neither
        # loops nor coloops: the composed family is returned as it stands
        subsets = [frozenset(c) for r in (1, 2, 3) for c in combinations((1, 2, 3), r)]
        antichains = [
            family for r in range(len(subsets) + 1)
            for family in combinations(subsets, r)
            if not any(a < b for a in family for b in family)
        ]
        glued = 0
        for c1, c2 in product(antichains, repeat=2):
            m1 = mat.Matroid([1, 2, 3], c1)
            m2 = ref.relabel(mat.Matroid([1, 2, 3], c2), {1: 4, 2: 5, 3: 6})
            if any(mat.is_loop(m, e) or mat.is_coloop(m, e) for m, e in ((m1, 3), (m2, 4))):
                continue
            composed = {c for c in m1.circuits if 3 not in c} | {
                c for c in m2.circuits if 4 not in c}
            composed |= {(a - {3}) | (b - {4})
                         for a in m1.circuits if 3 in a for b in m2.circuits if 4 in b}
            assert mat.two_sum(m1, 3, m2, 4).circuits == composed
            glued += 1
        assert glued == 81  # 9 pieces on each side qualify

    def test_two_sum_of_a_non_matroid_is_no_matroid(self):
        # {1,2} and {2,3} break circuit elimination; the 2-sum keeps the fault
        m1 = mat.Matroid([1, 2, 3], [{1, 2}, {2, 3}])
        s = mat.two_sum(m1, 3, mat.uniform(3, 1, labels=[4, 5, 6]), 4)
        assert s.circuits == {frozenset(c) for c in ({1, 2}, {2, 5}, {2, 6}, {5, 6})}
        assert not ref.circuit_axioms_ok(s)

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
        assert ref.circuit_axioms_ok(s)
        assert mat.is_2connected(s)


class TestConnectivity:
    def test_uniform_is_2connected(self):
        assert mat.is_2connected(mat.uniform(5, 2))

    def test_direct_sum_is_not(self):
        m1, m2 = mat.uniform(3, 1), mat.uniform(3, 2, labels=[4, 5, 6])
        s = mat.Matroid(m1.ground + m2.ground, m1.circuits | m2.circuits)
        assert not mat.is_2connected(s)

    def test_p6_is_2connected(self):
        assert mat.is_2connected(mat.P6)


class TestCircuitAxioms:
    @pytest.mark.parametrize("m", [mat.uniform(4, 2), mat.uniform(5, 3), mat.P6])
    def test_valid_matroids_pass(self, m):
        assert ref.circuit_axioms_ok(m)

    def test_elimination_violation_detected(self):
        # {1,2} and {2,3} require a circuit inside {1,3}
        bogus = mat.Matroid([1, 2, 3], [{1, 2}, {2, 3}])
        assert not ref.circuit_axioms_ok(bogus)


class TestIsomorphism:
    def test_relabelled_uniform(self):
        u = mat.uniform(5, 2)
        v = ref.relabel(u, {e: e * 10 for e in u.ground})
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
        m2 = ref.relabel(m1, dict(zip(m1.ground, perm)))
        assert mat.is_isomorphic(m1, m2)

    def test_bucketed_distinctness_matches_all_pairs(self):
        for n in range(3, 8):
            ms = [umr.tree_to_matroid(t) for t in umr.enumerate_umr_trees(n)]
            for family in (ms, ms + [ref.relabel(ms[-1], {e: -e for e in ms[-1].ground})]):
                scan = not any(mat.is_isomorphic(a, b) for a, b in combinations(family, 2))
                assert mat.pairwise_non_isomorphic(family) == scan
        assert mat.pairwise_non_isomorphic([])

    def test_relabelled_p6_share_a_bucket(self):
        rng = random.Random(3)
        perms = [rng.sample(range(1, 7), 6) for _ in range(2)]
        a, b = (ref.relabel(mat.P6, dict(zip(range(1, 7), p))) for p in perms)
        assert mat._invariant(a) == mat._invariant(b) == mat._invariant(mat.P6)
        assert not mat.pairwise_non_isomorphic([mat.uniform(6, 3), a, b])

    def test_iso_cap(self):
        big = mat.uniform(13, 1)
        with pytest.raises(ValueError):
            mat.is_isomorphic(big, big)

