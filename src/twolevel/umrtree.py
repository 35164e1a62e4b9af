"""Exhaustive enumeration of UMR-trees and their induced matroids.

Each tree is generated once, rooted at its centre (Wright, Richmond,
Odlyzko and McKay, "Constant time generation of free trees", 1986).  Every
generated pointed tree is an index into one append-only table, ``_NODES``,
of entries ``(cat, k, children)``: the category of the vertex, the rank k
of a U-vertex (0 for M and R, whose rank follows from their size), and the
children's indices in generation order: by size, then category M < R < U,
then position in that size's table, legs (entry ``LEG`` = 0) last.  The
children are choices with repetition from the generated trees of each size,
a generator that independently realizes the pointed series of
:mod:`twolevel.gfsystem`.  Heights and duals are lists indexed by tree.  A
root is an entry outside the table, taken from the R- and U-tables and from
the M-vertices with at least three children, so no M-table of the largest
size is built; ``tree_to_matroid`` folds a root into its matroid by 2-sums.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, combinations_with_replacement

from . import matroid as mat

TREE_CAP = 10

LEG = 0

# which pointed-subtree categories may hang below a vertex of each category,
# in generation order
_CHILD_CATS = {"R": ("M", "U"), "M": ("R", "U"), "U": ("M", "R", "U")}

# The generated pointed trees, and for each the height of the vertex tree
# below it (a leg is no vertex) and its dual's index, None until its size's
# facts are recorded; _BY_SIGNATURE finds a tree by label and sorted children.
_NODES: list[tuple] = [("leg", 0, ())]
_HEIGHT: list = [-1]
_DUAL: list = [LEG]
_BY_SIGNATURE: dict[tuple, int] = {}
_DUAL_CAT = {"M": "R", "R": "M", "U": "U"}


# -- pointed (rooted) subtree generation --------------------------------

@lru_cache(maxsize=None)
def _pointed(n: int, cat: str) -> range:
    """The indices of all pointed trees with n legs whose pointed vertex has
    category cat, appended to the table on the first call."""
    multisets = _child_multisets(_CHILD_CATS[cat], n, 2 if cat in ("R", "M") else 3)
    start = len(_NODES)
    if cat == "U":
        _NODES.extend([("U", k, ch) for ch in multisets for k in range(2, len(ch))])
    else:
        _NODES.extend([(cat, 0, ch) for ch in multisets])
    _HEIGHT[start:] = _DUAL[start:] = [None] * (len(_NODES) - start)
    return range(start, len(_NODES))


def _child_multisets(cats: tuple, total: int, min_count: int) -> list[tuple]:
    """Multisets of at least min_count legs/pointed subtrees whose sizes sum
    to total, each in generation order: for each multiset of subtree sizes
    (at least 2 legs each), every choice with repetition from the pointed
    trees of each size, smaller sizes first, and legs for the rest; the
    choices are prepended, from the largest size down."""
    out = []
    for m in range(total // 2 + 1):
        for sizes in combinations_with_replacement(range(2, total - 2 * m + 3), m):
            legs = total - sum(sizes)
            if legs < 0 or m + legs < min_count:
                continue
            picks = [(LEG,) * legs]
            for size, count in reversed(Counter(sizes).items()):
                pool = tuple(chain.from_iterable(_pointed(size, cat) for cat in cats))
                picks = [q + p for q in combinations_with_replacement(pool, count) for p in picks]
            out += picks
    return out


def _signature(cat: str, k: int, children) -> tuple:
    return (cat, k, *sorted(children))


def _dual_signature(cat: str, k: int, children) -> tuple:
    """The signature of the pointed tree with every label dualized: M and R
    swap, U_{r,k} becomes U_{r,r-k}, where r counts the children and the
    parent edge."""
    dual_k = len(children) + 1 - k if cat == "U" else 0
    return _signature(_DUAL_CAT[cat], dual_k, map(_DUAL.__getitem__, children))


@lru_cache(maxsize=None)
def _subtree_facts(size: int) -> None:
    """Record the facts of every pointed tree with at most size legs,
    smaller trees first, each once; a tree and its dual, which share their
    height, are recorded together."""
    if size < 2:
        return
    _subtree_facts(size - 1)
    trees = [i for cat in ("M", "R", "U") for i in _pointed(size, cat)]
    _BY_SIGNATURE.update((_signature(*_NODES[i]), i) for i in trees)
    for i in trees:
        if _DUAL[i] is None:
            dual = _BY_SIGNATURE[_dual_signature(*_NODES[i])]
            _HEIGHT[i] = _HEIGHT[dual] = 1 + max(map(_HEIGHT.__getitem__, _NODES[i][2]))
            _DUAL[i], _DUAL[dual] = dual, i


def pointed_count(n: int, cat: str) -> int:
    """Oracle count of pointed trees; matches the corresponding series."""
    return len(_pointed(n, cat))


def _fixed_by_duality(children) -> bool:
    """Whether dualizing every child permutes the children.  Whether the
    first child's dual is among them is asked first, which rejects almost
    every other tree."""
    return (_DUAL[children[0]] in children
            and sorted(map(_DUAL.__getitem__, children)) == sorted(children))


def count_self_dual_pointed(n: int) -> int:
    """Pointed U-trees fixed by the label-dualizing involution: the root
    U_{r+1,k} is self-dual only when 2k = r + 1, which is tested first."""
    _subtree_facts(n - 2)  # a U-vertex has at least 3 children
    return sum(1 for _, k, children in map(_NODES.__getitem__, _pointed(n, "U"))
               if 2 * k == len(children) + 1 and _fixed_by_duality(children))


# -- unrooted enumeration ------------------------------------------------

@lru_cache(maxsize=None)
def _rooted_trees(n: int) -> tuple[tuple, tuple]:
    """Each tree with n legs once, rooted at its centre, and whether it is
    self-dual.  The candidates are the pointed trees whose label holds
    without the parent edge (R, M: 3 children; U: k <= children - 2).  With
    h1 >= h2 the two largest heights of their children (a leg's is -1), the
    root is the one centre when h1 = h2.  When h1 = h2 + 1 it shares the
    central edge with its taller child q, which splits the tree into halves
    p and q; of the two rootings, the one whose root half p has the smaller
    index (one per isomorphism class) is kept.  Centres map to centres under
    isomorphism, so the tree is self-dual when dualizing fixes its rooting
    or maps its halves onto its halves."""
    if n < 3:
        raise ValueError("a UMR-tree has at least 3 legs")
    if n > TREE_CAP:
        raise ValueError(f"leg count {n} exceeds cap {TREE_CAP}")
    _subtree_facts(n - 2)  # a root has at least 3 children
    m_roots = (("M", 0, children) for children in _child_multisets(_CHILD_CATS["M"], n, 3))
    roots, self_dual = [], []
    for root in chain(map(_NODES.__getitem__, _pointed(n, "R")), m_roots,
                      map(_NODES.__getitem__, _pointed(n, "U"))):
        cat, k, children = root
        if len(children) < 3 or k > len(children) - 2:
            continue
        heights = list(map(_HEIGHT.__getitem__, children))
        h2, h1 = sorted(heights)[-2:]
        if h1 == h2:
            roots.append(root)
            self_dual.append(cat == "U" and 2 * k == len(children)
                             and _fixed_by_duality(children))
        elif h1 == h2 + 1:
            i = heights.index(h1)
            q = children[i]
            p = _BY_SIGNATURE[_signature(cat, k, children[:i] + children[i + 1:])]
            if p <= q:
                roots.append(root)
                self_dual.append(_DUAL[p] == q or (_DUAL[p] == p and _DUAL[q] == q))
    return tuple(roots), tuple(self_dual)


def enumerate_umr_trees(n: int) -> tuple:
    """All UMR-trees with exactly n legs, one per isomorphism class, each the
    entry of its root, a centre."""
    return _rooted_trees(n)[0]


def count_trees(n: int) -> int:
    """T(n): UMR-trees with n legs."""
    return len(_rooted_trees(n)[0])


def count_self_dual(n: int) -> int:
    """S2(n): self-dual UMR-trees with n legs, decided on the centre
    rootings."""
    return sum(_rooted_trees(n)[1])


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
            child = _NODES[child]
            # the child's last element: its first is next_id, and it has
            # one element per child plus its parent edge
            glue = next_id + len(child[2])
            m = mat.two_sum(m, point, fold(child, 1), glue)
            point -= 1
        return m

    return fold(root, 0)
