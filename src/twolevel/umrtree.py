"""Exhaustive enumeration of UMR-trees and their induced matroids.

Each tree is generated once, rooted at its centre (Wright, Richmond,
Odlyzko and McKay, "Constant time generation of free trees", 1986): a
rooted tree is kept only if its root is a centre of the vertex tree, and of
the two rootings of a tree with two centres only the one that sorts first.
A tree is a nested node ``(cat, k, children)``: the category of its vertex,
the rank k of a U-vertex (0 for M and R, whose rank follows from their
size), and its children, pointed subtrees and legs, sorted so that every
leg comes last.  Children are built by the same generator that
independently realizes the pointed series counted in :mod:`twolevel.gfsystem`:
for each multiset of subtree sizes, every choice with repetition from the
pointed trees of each size, so each child is a shared, already generated
tree.  The height and the dual of each subtree are computed once and looked
up by the centre test and the self-duality tests.
``count_self_dual`` compares each centre rooting with its dual, and
``tree_to_matroid`` folds a node into its matroid by 2-sums.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, combinations_with_replacement

from . import matroid as mat

TREE_CAP = 10

LEG = ("leg",)

# which pointed-subtree categories may hang below a vertex of each category
_CHILD_CATS = {"R": ("M", "U"), "M": ("R", "U"), "U": ("M", "R", "U")}


# -- pointed (rooted) subtree generation --------------------------------

@lru_cache(maxsize=None)
def _pointed(n: int, cat: str) -> tuple:
    """All pointed trees with n legs whose pointed vertex has category cat."""
    min_children = 2 if cat in ("R", "M") else 3
    out = []
    for children in _child_multisets(_CHILD_CATS[cat], n, min_children):
        if cat == "U":
            out.extend(("U", k, children) for k in range(2, len(children)))
        else:
            out.append((cat, 0, children))
    return tuple(out)


def _child_multisets(cats: tuple, total: int, min_count: int) -> list[tuple]:
    """Sorted multisets of at least min_count legs/pointed subtrees whose
    sizes sum to total: for each multiset of subtree sizes (at least 2 legs
    each), every choice with repetition from the pointed trees of each size,
    and legs for the rest.  Each child is the generated tree itself, and LEG
    sorts after every node."""
    out = []
    for m in range(total // 2 + 1):
        for sizes in combinations_with_replacement(range(2, total + 1), m):
            legs = total - sum(sizes)
            if legs < 0 or m + legs < min_count:
                continue
            picks = [()]
            for size, count in Counter(sizes).items():
                pool = tuple(chain.from_iterable(_pointed(size, cat) for cat in cats))
                picks = [p + q for p in picks for q in combinations_with_replacement(pool, count)]
            tail = [LEG] * legs
            out.extend([tuple(sorted(p) + tail) for p in picks])
    return out


# The height of the vertex tree below each generated pointed tree (a leg is
# no vertex), and the generated tree equal to its dual, so a dual is a
# reference, not a copy.  Keyed by id(): a tuple's hash walks its whole
# subtree, and the tables cached by _subtree_facts keep every keyed tree alive.
_HEIGHT: dict[int, int] = {id(LEG): -1}
_DUAL: dict[int, tuple] = {id(LEG): LEG}


@lru_cache(maxsize=None)
def _subtree_facts(size: int) -> dict:
    """Record the height and dual of every pointed tree with at most size
    legs, smaller trees first, each once; returns the table of those with
    exactly size legs."""
    if size < 2:
        return {}
    _subtree_facts(size - 1)
    generated = {node: node for cat in ("M", "R", "U") for node in _pointed(size, cat)}
    for node in generated:
        _HEIGHT[id(node)] = _height(node)
        _DUAL[id(node)] = generated[_dual_node(node)]
    return generated


def pointed_count(n: int, cat: str) -> int:
    """Oracle count of pointed trees; matches the corresponding series."""
    if n < 2:
        return 0
    return len(_pointed(n, cat))


def _height(node: tuple) -> int:
    """Height of the vertex tree below node, from the recorded heights of
    its children; legs are not vertices."""
    return 1 + max(map(_HEIGHT.__getitem__, map(id, node[2])))


def _dual_node(node: tuple, parent_edges: int = 1) -> tuple:
    """Dualize every label: M and R swap, U_{r,k} becomes U_{r,r-k}.  The
    ground set of a vertex is its children and its parent edge; the root of
    an unrooted tree has none (parent_edges=0).  The children's duals are
    the recorded ones, so node's children must be generated trees."""
    cat, k, children = node
    dch = tuple(sorted(map(_DUAL.__getitem__, map(id, children))))
    if cat == "M":
        return ("R", 0, dch)
    if cat == "R":
        return ("M", 0, dch)
    return ("U", len(children) + parent_edges - k, dch)


def _is_self_dual_pointed(node: tuple) -> bool:
    """Whether a pointed U-tree is fixed by dualizing every label.  Its root
    U_{r+1,k} is self-dual only when 2k = r + 1, which is tested first."""
    _, k, children = node
    return 2 * k == len(children) + 1 and _dual_node(node) == node


def count_self_dual_pointed(n: int) -> int:
    """Pointed U-trees fixed by the label-dualizing involution."""
    _subtree_facts(n - 2)  # a U-vertex has at least 3 children
    return sum(1 for node in _pointed(n, "U") if _is_self_dual_pointed(node))


# -- unrooted enumeration ------------------------------------------------

@lru_cache(maxsize=None)
def _rooted_trees(n: int) -> tuple:
    """Each tree with n legs once, rooted at its centre: the pointed trees
    whose label still holds without the parent edge (R, M: 3 children; U:
    k <= children - 2) and whose root is the least centre rooting."""
    if n < 3:
        raise ValueError("a UMR-tree has at least 3 legs")
    if n > TREE_CAP:
        raise ValueError(f"leg count {n} exceeds cap {TREE_CAP}")
    _subtree_facts(n - 2)  # a root has at least 3 children
    out = []
    for cat in ("R", "M", "U"):
        for node in _pointed(n, cat):
            _, k, children = node
            if (len(children) >= 3 and k <= len(children) - 2
                    and _is_least_centre_rooting(node)):
                out.append(node)
    return tuple(out)


def _centre_rootings(root: tuple) -> list[tuple]:
    """The rootings of root's vertex tree at its centres, root first; empty
    if root is not a centre.  With h1 >= h2 the two largest heights of the
    root's (at least three) children, a leg's being -1, the root is the one
    centre when h1 = h2, is not a centre when h1 > h2 + 1, and shares the
    centre with its taller child when h1 = h2 + 1; only then is the other
    rooting built."""
    cat, k, children = root
    heights = list(map(_HEIGHT.__getitem__, map(id, children)))
    h2, h1 = sorted(heights)[-2:]
    if h1 != h2 + 1:
        return [root] if h1 == h2 else []
    # the rooting at the taller child c; labels keep n and k under rerooting
    i = heights.index(h1)
    c_cat, c_k, c_children = children[i]
    rest = (cat, k, children[:i] + children[i + 1:])
    return [root, (c_cat, c_k, tuple(sorted(c_children + (rest,))))]


def _is_least_centre_rooting(root: tuple) -> bool:
    """Whether root is a centre of its vertex tree and, if the tree has two
    centres, the rooting that sorts first."""
    rootings = _centre_rootings(root)
    return bool(rootings) and root == min(rootings)


def _is_self_dual_root(root: tuple) -> bool:
    """Whether the tree rooted at a centre is isomorphic to its dual: an
    isomorphism maps centres to centres, so the dual of the rooting must be
    the rooting at the same centre or, with two centres, at the other one."""
    return _dual_node(root, parent_edges=0) in _centre_rootings(root)


def enumerate_umr_trees(n: int) -> tuple:
    """All UMR-trees with exactly n legs, one per isomorphism class, each a
    node rooted at its centre."""
    return _rooted_trees(n)


def count_trees(n: int) -> int:
    """T(n): UMR-trees with n legs."""
    return len(_rooted_trees(n))


def count_self_dual(n: int) -> int:
    """S2(n): self-dual UMR-trees with n legs, decided on the centre
    rootings."""
    return sum(1 for root in _rooted_trees(n) if _is_self_dual_root(root))


def tree_to_matroid(root: tuple) -> mat.Matroid:
    """Fold the uniform matroids of the vertices by 2-sums.  Vertices are
    numbered in preorder and each vertex's elements consecutively from 1; a
    non-root vertex is glued to its parent on its last element, its children
    take the next elements down, and its legs keep the rest."""
    next_id = 1

    def fold(node: tuple, parent_edges: int) -> mat.Matroid:
        nonlocal next_id
        cat, k, children = node
        n = len(children) + parent_edges
        k = 1 if cat == "M" else n - 1 if cat == "R" else k
        first, next_id = next_id, next_id + n
        m = mat.uniform(n, k, labels=range(first, next_id))
        point = next_id - 1 - parent_edges
        for child in children:
            if child == LEG:
                break
            # the child's last element: its first is next_id, and it has
            # one element per child plus its parent edge
            glue = next_id + len(child[2])
            m = mat.two_sum(m, point, fold(child, 1), glue)
            point -= 1
        return m

    return fold(root, 0)
