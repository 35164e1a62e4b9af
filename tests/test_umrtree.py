import math
import random
from bisect import bisect_left
from functools import lru_cache
from operator import neg

import pytest

from twolevel import gfsystem as gf
from twolevel import matroid as mat
from twolevel import umrtree as umr

import reference_routes as ref
from reference_routes import plain_tree


# -- plain reference routes for the generator and its cached facts -------

# a leg of a nested node; it sorts after every vertex
LEG = ("leg",)


@lru_cache(maxsize=None)
def dfs_pointed(n, cat):
    """A second generator of the pointed trees: one depth-first recursion
    over a pool of candidate children, the largest first."""
    min_children = 2 if cat in ("R", "M") else 3
    out = []
    for children in dfs_child_multisets(umr._CHILD_CATS[cat], n, min_children):
        if cat == "U":
            out.extend(("U", k, children) for k in range(2, len(children)))
        else:
            out.append((cat, 0, children))
    return tuple(out)


def dfs_child_multisets(cats, total, min_count):
    pool, sizes = [], []
    for size in range(total - min_count + 1, 1, -1):
        for cat in cats:
            pool += dfs_pointed(size, cat)
            sizes += [size] * len(dfs_pointed(size, cat))
    # fits[r]: the first pool index whose subtree has at most r legs
    fits = [bisect_left(sizes, -r, key=neg) for r in range(total + 1)]
    out = []

    def rec(start, remaining, acc):
        if len(acc) + remaining >= min_count:
            out.append(tuple(sorted(acc + (LEG,) * remaining)))
        for i in range(max(start, fits[remaining]), len(pool)):
            rec(i, remaining - sizes[i], acc + (pool[i],))

    rec(0, total, ())
    return out


@lru_cache(maxsize=None)
def normalise(i):
    """Table entry i as a nested node, the children of every vertex sorted
    as tuples, the order the generator does not use; legs still come last."""
    if i == umr.LEG:
        return LEG
    cat, k, children = umr._NODES[i]
    return cat, k, tuple(sorted(map(normalise, children)))


def plain_height(node):
    return 1 + max((plain_height(c) for c in node[2] if c != LEG), default=-1)


def plain_dual(node):
    if node == LEG:
        return LEG
    cat, k, children = node
    dch = tuple(sorted(plain_dual(c) for c in children))
    if cat == "M":
        return ("R", 0, dch)
    if cat == "R":
        return ("M", 0, dch)
    return ("U", len(children) + 1 - k, dch)


def label(cat, n, k=None):
    if k is None:
        k = 1 if cat == "M" else n - 1
    return ref.check_label((cat, n, k))


class TestLabels:
    def test_categories_constrain_rank(self):
        with pytest.raises(ValueError):
            ref.check_label(("M", 4, 2))
        with pytest.raises(ValueError):
            ref.check_label(("R", 4, 2))
        with pytest.raises(ValueError):
            ref.check_label(("U", 4, 1))
        with pytest.raises(ValueError):
            ref.check_label(("U", 3, 2))  # U needs n >= 4
        with pytest.raises(ValueError):
            ref.check_label(("X", 4, 2))

    def test_dual(self):
        assert ref.dual_label(label("M", 5)) == label("R", 5)
        assert ref.dual_label(label("R", 5)) == label("M", 5)
        assert ref.dual_label(label("U", 6, 2)) == label("U", 6, 4)
        assert ref.dual_label(label("U", 4, 2)) == label("U", 4, 2)


class TestTreeValidation:
    """The reference check that every enumerated tree is a UMR-tree
    (test_trees_are_umr_trees) rejects each kind of malformed tree."""

    def test_single_vertex(self):
        t = ref.check_tree(((label("M", 3),), (), (3,)))
        assert sum(t[2]) == 3

    def test_leg_degree_mismatch(self):
        with pytest.raises(ValueError):
            ref.check_tree(((label("M", 3),), (), (2,)))

    def test_adjacent_same_category_rejected(self):
        with pytest.raises(ValueError):
            ref.check_tree(((label("M", 3), label("M", 3)), ((0, 1),), (2, 2)))

    def test_mr_edge_allowed(self):
        t = ref.check_tree(((label("M", 3), label("R", 3)), ((0, 1),), (2, 2)))
        assert sum(t[2]) == 4

    def test_disconnected_edges_rejected(self):
        # every vertex lies on an edge, but {0, 1} and {2, 3} are apart
        u42 = label("U", 4, 2)
        with pytest.raises(ValueError):
            ref.check_tree(((u42, u42, label("M", 3), label("R", 3)),
                            ((0, 1), (2, 3), (2, 3)), (3, 3, 1, 1)))

    def test_edge_outside_vertex_set_rejected(self):
        with pytest.raises(ValueError):
            ref.check_tree(((label("M", 3), label("R", 3)), ((0, 2),), (2, 2)))


class TestEnumeration:
    # unrooted counts, confirmed against the generating-function series
    EXPECTED = {3: 2, 4: 4, 5: 10, 6: 27, 7: 78, 8: 246, 9: 818, 10: 2871}

    @pytest.mark.parametrize("n,count", sorted(EXPECTED.items()))
    def test_counts(self, n, count):
        assert umr.count_trees(n) == len(umr.enumerate_umr_trees(n)) == count

    def test_all_have_n_legs(self):
        for n in (3, 4, 5, 6):
            assert all(ref.num_legs(t) == n for t in umr.enumerate_umr_trees(n))

    def test_trees_are_umr_trees(self):
        for n in range(3, 9):
            for t in umr.enumerate_umr_trees(n):
                ref.check_tree(plain_tree(t))

    def test_canonical_forms_distinct(self):
        forms = [ref.canonical_form(plain_tree(t)) for t in umr.enumerate_umr_trees(7)]
        assert len(forms) == len(set(forms))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            umr.enumerate_umr_trees(2)
        with pytest.raises(ValueError):
            umr.enumerate_umr_trees(umr.TREE_CAP + 1)

    def test_centre_rootings_match_all_rootings(self):
        # the route before centre rooting: every valid rooting, deduplicated
        # by canonical form
        for n in range(3, 9):
            trees = umr.enumerate_umr_trees(n)
            forms = {ref.canonical_form(plain_tree(t)) for t in trees}
            assert len(forms) == len(trees)
            every = {
                ref.canonical_form(plain_tree(node))
                for cat in ("R", "M", "U")
                for node in map(umr._NODES.__getitem__, umr._pointed(n, cat))
                if len(node[2]) >= 3 and node[1] <= len(node[2]) - 2
            }
            assert forms == every

    def test_trees_are_rooted_at_a_centre(self):
        for n in range(3, 9):
            for t in umr.enumerate_umr_trees(n):
                assert 0 in ref._centre(ref.adjacency(plain_tree(t)))

    @pytest.mark.parametrize("cat", ["R", "M", "U"])
    def test_pointed_trees_distinct_and_sorted(self, cat):
        # children come in generation order: their (size, category,
        # position in the size's table) never decrease, and legs come last
        place = {umr.LEG: (math.inf,)}
        for size in range(2, 9):
            for rank, c in enumerate("MRU"):
                trees = umr._pointed(size, c)
                place.update((i, (size, rank, i - trees.start)) for i in trees)
        for n in range(2, 10):
            nodes = [umr._NODES[i] for i in umr._pointed(n, cat)]
            assert len(set(nodes)) == len(nodes)
            for node in nodes:
                keys = [place[c] for c in node[2]]
                assert keys == sorted(keys)
                legs = node[2].count(umr.LEG)
                assert node[2][len(node[2]) - legs:] == (umr.LEG,) * legs

    @pytest.mark.parametrize("cat", ["R", "M", "U"])
    def test_pointed_trees_match_the_recursion(self, cat):
        for n in range(2, 10):
            assert set(map(normalise, umr._pointed(n, cat))) == set(dfs_pointed(n, cat))

    def test_children_are_the_generated_trees(self):
        # each child is a leg or a tree of a smaller size's table
        for n in range(3, 10):
            generated = {i for size in range(2, n) for cat in "RMU"
                         for i in umr._pointed(size, cat)} | {umr.LEG}
            for cat in "RMU":
                assert all(c in generated for i in umr._pointed(n, cat)
                           for c in umr._NODES[i][2])

    def test_cached_heights_and_duals(self):
        umr._subtree_facts(8)
        for n in range(2, 9):
            for cat, dual_cat in (("R", "M"), ("M", "R"), ("U", "U")):
                for i in umr._pointed(n, cat):
                    assert umr._HEIGHT[i] == plain_height(normalise(i))
                    assert normalise(umr._DUAL[i]) == plain_dual(normalise(i))
                    assert umr._DUAL[i] in umr._pointed(n, dual_cat)

    def test_table_invariants(self):
        # every child is a leg or an earlier entry with fewer legs, legs
        # last; dualizing is an involution on the recorded trees that keeps
        # heights, swaps M and R, and takes U_{r,k} to U_{r,r-k}
        umr._rooted_trees(9)
        umr._subtree_facts(8)
        assert umr._NODES[umr.LEG] == ("leg", 0, ()) and umr.LEG == 0
        assert len(umr._HEIGHT) == len(umr._DUAL) == len(umr._NODES)
        legs = [1]
        for i, (_, _, children) in enumerate(umr._NODES[1:], 1):
            assert all(c == umr.LEG or c < i for c in children)
            legs.append(sum(legs[c] for c in children))
            assert all(c == umr.LEG or legs[c] < legs[i] for c in children)
            n_legs = children.count(umr.LEG)
            assert children[len(children) - n_legs:] == (umr.LEG,) * n_legs
        recorded = [i for i in range(1, len(umr._NODES)) if umr._DUAL[i] is not None]
        assert set(recorded) >= {i for n in range(2, 9) for cat in "MRU"
                                 for i in umr._pointed(n, cat)}
        for i in recorded:
            d = umr._DUAL[i]
            (cat, k, children), (dual_cat, dual_k, dual_children) = umr._NODES[i], umr._NODES[d]
            assert umr._DUAL[d] == i and umr._HEIGHT[d] == umr._HEIGHT[i]
            assert dual_cat == {"M": "R", "R": "M", "U": "U"}[cat]
            assert len(dual_children) == len(children) and legs[d] == legs[i]
            if cat == "U":
                assert dual_k == len(children) + 1 - k

    def test_pointed_counts_match_series(self, pointed30):
        for n in range(2, 11):
            assert umr.pointed_count(n, "R") == int(pointed30.a_R.coeff(n))
            assert umr.pointed_count(n, "M") == int(pointed30.a_M.coeff(n))
            assert umr.pointed_count(n, "U") == int(pointed30.a_U.coeff(n))

    def test_canonical_form_invariant_under_relabelling(self):
        # re-rooting the same tree structure yields the same canonical form
        for t in map(plain_tree, umr.enumerate_umr_trees(6)):
            labels, edges, legs = t
            assert ref.canonical_form(t) == ref.canonical_form(
                (tuple(labels), tuple(edges), tuple(legs))
            )


    def test_canonical_form_invariant_under_vertex_permutation(self):
        # the centre, and so the canonical form, follows any renumbering
        rng = random.Random(7)
        for t in map(plain_tree, umr.enumerate_umr_trees(7)):
            t_labels, t_edges, t_legs = t
            perm = list(range(len(t_labels)))
            rng.shuffle(perm)
            labels, legs = [None] * len(perm), [None] * len(perm)
            for v, pv in enumerate(perm):
                labels[pv], legs[pv] = t_labels[v], t_legs[v]
            edges = tuple((perm[i], perm[j]) for i, j in t_edges)
            moved = (tuple(labels), edges, tuple(legs))
            assert ref.canonical_form(moved) == ref.canonical_form(t)

    def test_centre(self):
        path = [[1], [0, 2], [1, 3], [2]]
        assert sorted(ref._centre(path)) == [1, 2]
        star = [[1, 2, 3], [0], [0], [0]]
        assert ref._centre(star) == [0]
        assert ref._centre([[]]) == [0]
        assert sorted(ref._centre([[1], [0]])) == [0, 1]


class TestDuality:
    def test_dual_is_involution(self):
        for t in map(plain_tree, umr.enumerate_umr_trees(6)):
            assert ref.canonical_form(ref.dual_tree(ref.dual_tree(t))) == \
                ref.canonical_form(t)

    def test_dual_closed_on_classes(self):
        for n in (4, 5, 6):
            trees = [plain_tree(t) for t in umr.enumerate_umr_trees(n)]
            forms = {ref.canonical_form(t) for t in trees}
            for t in trees:
                assert ref.canonical_form(ref.dual_tree(t)) in forms

    def test_self_dual_counts(self):
        assert [umr.count_self_dual(n) for n in range(3, 11)] == [0, 2, 0, 5, 0, 16, 0, 53]

    def test_self_dual_counts_match_series(self, pointed30):
        s2 = gf.assemble_S2(pointed30)
        for n in range(3, 11):
            assert umr.count_self_dual(n) == s2.coeff(n)

    def test_centre_rooting_route_matches_canonical_forms(self):
        for n in range(3, 11):
            roots, self_dual = umr._rooted_trees(n)
            assert list(self_dual) == [ref.is_self_dual_tree(plain_tree(t)) for t in roots]

    def test_self_dual_pointed_matches_corrected_series(self, selfdual30):
        for n in range(2, 10):
            assert umr.count_self_dual_pointed(n) == int(
                selfdual30.s_U_corrected.coeff(n)
            )

    def test_self_dual_pointed_counts(self):
        assert [umr.count_self_dual_pointed(n) for n in range(11)] == [
            0, 0, 0, 1, 0, 3, 0, 10, 0, 38, 0]

    def test_self_dual_pointed_bounded_by_paper_series(self, selfdual30):
        for n in range(2, 10):
            assert umr.count_self_dual_pointed(n) <= int(
                selfdual30.s_U_paper.coeff(n)
            )

    def test_self_dual_root_degree_is_odd(self):
        # the pointed U-trees equal to their dual, found by the plain
        # dualization, are the ones counted, and each has an odd degree
        for n in range(2, 9):
            fixed = [i for i in umr._pointed(n, "U") if plain_dual(normalise(i)) == normalise(i)]
            assert len(fixed) == umr.count_self_dual_pointed(n)
            assert all(len(umr._NODES[i][2]) % 2 == 1 for i in fixed)


class TestMatroidRealization:
    def test_ground_set_size_is_leg_count(self):
        for n in (3, 4, 5):
            for t in umr.enumerate_umr_trees(n):
                assert len(umr.tree_to_matroid(t).ground) == n

    def test_realizations_are_2connected_matroids(self):
        for t in umr.enumerate_umr_trees(5):
            m = umr.tree_to_matroid(t)
            assert ref.circuit_axioms_ok(m)
            assert mat.is_2connected(m)

    def test_pairwise_non_isomorphic(self):
        for n in (5, 6):
            ms = [umr.tree_to_matroid(t) for t in umr.enumerate_umr_trees(n)]
            for i in range(len(ms)):
                for j in range(i + 1, len(ms)):
                    assert not mat.is_isomorphic(ms[i], ms[j])

    def test_base_point_choice_is_irrelevant(self):
        for t in umr.enumerate_umr_trees(6)[:8]:
            m0 = umr.tree_to_matroid(t)
            for seed in range(3):
                m1 = ref.realise(plain_tree(t), random.Random(seed))
                assert mat.is_isomorphic(m0, m1)

    def test_duality_commutes_with_realization(self):
        for t in (t for n in range(3, 8) for t in umr.enumerate_umr_trees(n)):
            lhs = mat.dual(umr.tree_to_matroid(t))
            rhs = ref.realise(ref.dual_tree(plain_tree(t)))
            assert mat.is_isomorphic(lhs, rhs)

    def test_series_parallel_example(self):
        ref = mat.Matroid([1, 2, 3, 4], [{1, 2}, {1, 3, 4}, {2, 3, 4}])
        two_vertex = [t for t in umr.enumerate_umr_trees(4) if len(plain_tree(t)[0]) == 2]
        assert len(two_vertex) == 1
        assert mat.is_isomorphic(umr.tree_to_matroid(two_vertex[0]), ref)

    def test_single_vertex_trees_are_uniform(self):
        for t in umr.enumerate_umr_trees(5):
            labels = plain_tree(t)[0]
            if len(labels) == 1:
                _, n, k = labels[0]
                assert mat.is_isomorphic(
                    umr.tree_to_matroid(t), mat.uniform(n, k)
                )

