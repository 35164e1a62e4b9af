"""Exhaustive enumeration of UMR-trees and their induced matroids.

Trees are generated by rooting at a vertex (children are pointed subtrees) and
deduplicated by a canonical form: the minimum rooted encoding over the one or
two vertices of the tree's centre, which every isomorphism preserves, so two
rootings at most are encoded instead of all of them.  The same pointed-subtree
generator independently realizes the pointed series counted in
:mod:`twolevel.gfsystem`.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

from . import matroid as mat

TREE_CAP = 9

LEG = ("leg",)

# which pointed-subtree categories may hang below a vertex of each category
_CHILD_CATS = {"R": ("M", "U"), "M": ("R", "U"), "U": ("M", "R", "U")}


@dataclass(frozen=True)
class UniformLabel:
    """Vertex label: the uniform matroid U_{n,k} in category M, R, or U."""

    category: str
    n: int
    k: int

    def __post_init__(self):
        if self.category == "M":
            ok = self.k == 1 and self.n >= 3
        elif self.category == "R":
            ok = self.k == self.n - 1 and self.n >= 3
        elif self.category == "U":
            ok = self.n >= 4 and 2 <= self.k <= self.n - 2
        else:
            ok = False
        if not ok:
            raise ValueError(f"invalid label {self.category}_{self.n},{self.k}")

    def dual(self) -> "UniformLabel":
        if self.category == "M":
            return UniformLabel("R", self.n, self.n - 1)
        if self.category == "R":
            return UniformLabel("M", self.n, 1)
        return UniformLabel("U", self.n, self.n - self.k)


@dataclass(frozen=True)
class UMRTree:
    """Typed labelled tree; legs[i] counts the free elements at vertex i."""

    labels: tuple[UniformLabel, ...]
    edges: tuple[tuple[int, int], ...]
    legs: tuple[int, ...]

    def __post_init__(self):
        s = len(self.labels)
        if len(self.legs) != s or len(self.edges) != s - 1:
            raise ValueError("malformed tree")
        deg = [0] * s
        seen = {0}
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
            seen.add(i)
            seen.add(j)
        # edges are emitted in parent-before-child order, so reaching every
        # index with s-1 edges means connected and acyclic
        if seen != set(range(s)):
            raise ValueError("edges do not span the vertex set")
        for i, j in self.edges:
            ci, cj = self.labels[i].category, self.labels[j].category
            if ci == cj and ci in ("M", "R"):
                raise ValueError(f"adjacent {ci}-vertices")
        for v, lab in enumerate(self.labels):
            if self.legs[v] < 0 or self.legs[v] + deg[v] != lab.n:
                raise ValueError(f"legs + degree != n at vertex {v}")

    def num_legs(self) -> int:
        return sum(self.legs)


# -- pointed (rooted) subtree generation --------------------------------

def _sorted_nodes(cat: str, k: int, children) -> tuple:
    return (cat, k, tuple(sorted(children)))


@lru_cache(maxsize=None)
def _pointed(n: int, cat: str) -> tuple:
    """All pointed trees with n legs whose pointed vertex has category cat."""
    min_children = 2 if cat in ("R", "M") else 3
    out = []
    for children in _child_multisets(_CHILD_CATS[cat], n, min_children):
        if cat == "U":
            r = len(children)
            for k in range(2, r):
                out.append(_sorted_nodes("U", k, children))
        else:
            out.append(_sorted_nodes(cat, 0, children))
    return tuple(out)


@lru_cache(maxsize=None)
def _pool(cats: tuple, max_size: int) -> dict[int, tuple]:
    """Candidate children up to max_size legs by size, the largest first:
    pointed subtrees, then the leg."""
    pool = {size: tuple(node for cat in cats for node in _pointed(size, cat))
            for size in range(max_size, 1, -1)}
    pool[1] = (LEG,)
    return pool


def _child_multisets(cats: tuple, total: int, min_count: int):
    """Multisets of at least min_count legs/pointed subtrees whose sizes sum
    to total."""
    pool = _pool(cats, total - min_count + 1)
    sizes = list(pool)
    out = []

    def rec(si: int, remaining: int, acc: tuple):
        if remaining == 0:
            if len(acc) >= min_count:
                out.append(tuple(sorted(acc)))
        elif si < len(sizes):
            size = sizes[si]
            for c in range(remaining // size + 1):
                for combo in combinations_with_replacement(pool[size], c):
                    rec(si + 1, remaining - c * size, acc + combo)

    rec(0, total, ())
    return out


def pointed_count(n: int, cat: str) -> int:
    """Oracle count of pointed trees; matches the corresponding series."""
    if n < 2:
        return 0
    return len(_pointed(n, cat))


def _dual_node(node: tuple) -> tuple:
    if node == LEG:
        return LEG
    cat, k, children = node
    dch = tuple(sorted(_dual_node(c) for c in children))
    if cat == "M":
        return ("R", 0, dch)
    if cat == "R":
        return ("M", 0, dch)
    # pointed U-vertex: ground size is restricted degree + 1
    return ("U", len(children) + 1 - k, dch)


def count_self_dual_pointed(n: int) -> int:
    """Pointed U-trees fixed by the label-dualizing involution."""
    return sum(1 for node in _pointed(n, "U") if _dual_node(node) == node)


def self_dual_pointed_root_degrees(n: int) -> set[int]:
    """Restricted degrees occurring at roots of self-dual pointed trees."""
    return {
        len(node[2])
        for node in _pointed(n, "U")
        if _dual_node(node) == node
    }


# -- unrooted enumeration ------------------------------------------------

def _rooted_trees(n: int):
    """Trees rooted at a vertex: the pointed trees whose label still holds
    without the parent edge (R, M: 3 children; U: k <= children - 2)."""
    for cat in ("R", "M", "U"):
        for node in _pointed(n, cat):
            _, k, children = node
            if len(children) >= 3 and k <= len(children) - 2:
                yield node


def _node_to_tree(root: tuple) -> UMRTree:
    labels: list[UniformLabel] = []
    legs: list[int] = []
    edges: list[tuple[int, int]] = []

    def walk(node: tuple, parent: int | None) -> None:
        cat, k, children = node
        n_label = len(children) + (0 if parent is None else 1)
        if cat == "M":
            lab = UniformLabel("M", n_label, 1)
        elif cat == "R":
            lab = UniformLabel("R", n_label, n_label - 1)
        else:
            lab = UniformLabel("U", n_label, k)
        idx = len(labels)
        labels.append(lab)
        legs.append(sum(1 for c in children if c == LEG))
        if parent is not None:
            edges.append((parent, idx))
        for c in children:
            if c != LEG:
                walk(c, idx)

    walk(root, None)
    return UMRTree(tuple(labels), tuple(edges), tuple(legs))


def _encode(tree: UMRTree, v: int, parent: int | None, adj) -> tuple:
    lab = tree.labels[v]
    subs = tuple(
        sorted(_encode(tree, w, v, adj) for w in adj[v] if w != parent)
    )
    return (lab.category, lab.n, lab.k, tree.legs[v], subs)


def canonical_form(tree: UMRTree) -> tuple:
    """Minimum rooted encoding over the centre of the tree."""
    s = len(tree.labels)
    adj = [[] for _ in range(s)]
    for i, j in tree.edges:
        adj[i].append(j)
        adj[j].append(i)
    return min(_encode(tree, v, None, adj) for v in _centre(adj))


def _centre(adj) -> list[int]:
    """The one or two vertices left after peeling leaves layer by layer."""
    degree = [len(ws) for ws in adj]
    layer = [v for v, d in enumerate(degree) if d <= 1]
    left = len(adj)
    while left > 2:
        left -= len(layer)
        peeled = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    peeled.append(w)
        layer = peeled
    return layer


def dual_tree(tree: UMRTree) -> UMRTree:
    return UMRTree(
        tuple(lab.dual() for lab in tree.labels), tree.edges, tree.legs
    )


def is_self_dual_tree(tree: UMRTree) -> bool:
    return canonical_form(tree) == canonical_form(dual_tree(tree))


def enumerate_umr_trees(n: int, cap: int = TREE_CAP) -> list[UMRTree]:
    """All UMR-trees with exactly n legs, one per isomorphism class."""
    if n < 3:
        raise ValueError("a UMR-tree has at least 3 legs")
    if n > cap:
        raise ValueError(f"leg count {n} exceeds cap {cap}")
    seen: dict[tuple, UMRTree] = {}
    for root in _rooted_trees(n):
        tree = _node_to_tree(root)
        key = canonical_form(tree)
        if key not in seen:
            seen[key] = tree
    return [seen[k] for k in sorted(seen)]


def count_self_dual(n: int, cap: int = TREE_CAP) -> int:
    """S2(n): self-dual UMR-trees with n legs."""
    return sum(1 for t in enumerate_umr_trees(n, cap) if is_self_dual_tree(t))


def tree_to_matroid(tree: UMRTree, rng: random.Random | None = None) -> mat.Matroid:
    """Fold the labels by 2-sums; base points may be randomized (the result
    is the same matroid up to isomorphism for every choice)."""
    s = len(tree.labels)
    elems: list[list[int]] = []
    next_id = 1
    for lab in tree.labels:
        elems.append(list(range(next_id, next_id + lab.n)))
        next_id += lab.n
    available = [list(es) for es in elems]
    if rng is not None:
        for es in available:
            rng.shuffle(es)

    adj = [[] for _ in range(s)]
    for i, j in tree.edges:
        adj[i].append(j)
        adj[j].append(i)

    lab0 = tree.labels[0]
    m = mat.uniform(lab0.n, lab0.k, labels=elems[0])
    visited = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v in visited:
                continue
            visited.add(v)
            labv = tree.labels[v]
            mv = mat.uniform(labv.n, labv.k, labels=elems[v])
            e1 = available[u].pop()
            e2 = available[v].pop()
            m = mat.two_sum(m, e1, mv, e2)
            stack.append(v)
    return m


def tree_record(tree: UMRTree) -> str:
    """Stable one-line record of the canonical encoding."""
    return repr(canonical_form(tree))
