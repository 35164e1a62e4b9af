"""Reference routes the tests compare the package against.  No command runs
them: each reaches its answer by a route of its own.

A plain tree is a tuple ``(labels, edges, legs)``: ``labels[v] = (cat, n, k)``
is the uniform matroid U_{n,k} at vertex v, ``edges`` holds (parent, child)
pairs, and ``legs[v]`` counts the free elements at v.  ``check_tree`` decides
whether one is a UMR-tree.  Its canonical form is the least encoding rooted
at a centre found by peeling leaves, so it shares nothing with the
enumerator's centre rootings; its realisation folds the labels by 2-sums
along a depth-first walk, on base points that may be shuffled.
"""
from itertools import combinations, product

from twolevel import matroid as mat
from twolevel import umrtree as umr

_DUAL_CATEGORY = {"M": "R", "R": "M", "U": "U"}


def plain_tree(root):
    """The plain tree of a root entry, its vertices numbered in preorder."""
    labels, edges, legs = [], [], []

    def walk(node, parent):
        cat, k, children = node
        n = len(children) + (parent is not None)
        k = 1 if cat == "M" else n - 1 if cat == "R" else k
        v = len(labels)
        labels.append((cat, n, k))
        legs.append(children.count(umr.LEG))
        if parent is not None:
            edges.append((parent, v))
        for child in children:
            if child != umr.LEG:
                walk(umr._NODES[child], v)

    walk(root, None)
    return tuple(labels), tuple(edges), tuple(legs)


def check_label(label):
    """The label, if it is some M_n = U_{n,1}, R_n = U_{n,n-1} or U_{n,k}
    with 2 <= k <= n - 2; a ValueError otherwise."""
    cat, n, k = label
    ok = {"M": k == 1 and n >= 3, "R": k == n - 1 and n >= 3,
          "U": n >= 4 and 2 <= k <= n - 2}.get(cat, False)
    if not ok:
        raise ValueError(f"invalid label {cat}_{n},{k}")
    return label


def check_tree(tree):
    """The tree, if its labels are valid, its edges form a tree on its
    vertices with no two M- or two R-vertices adjacent, and each vertex's
    legs and edges number its label's n; a ValueError otherwise."""
    labels, edges, legs = tree
    for label in labels:
        check_label(label)
    s = len(labels)
    if len(legs) != s or len(edges) != s - 1:
        raise ValueError("malformed tree")
    for i, j in edges:
        if not (0 <= i < s and 0 <= j < s):
            raise ValueError(f"edge ({i}, {j}) leaves the vertex set")
        if labels[i][0] == labels[j][0] != "U":
            raise ValueError(f"adjacent {labels[i][0]}-vertices")
    adj = adjacency(tree)
    # s-1 edges that reach all s vertices from vertex 0 form a tree
    if sum(1 for _ in _walk(adj)) != s - 1:
        raise ValueError("edges do not connect the vertex set")
    for v, (_, n, _) in enumerate(labels):
        if legs[v] < 0 or legs[v] + len(adj[v]) != n:
            raise ValueError(f"legs + degree != n at vertex {v}")
    return tree


def num_legs(node):
    return sum(1 if child == umr.LEG else num_legs(umr._NODES[child]) for child in node[2])


def adjacency(tree):
    """Neighbours of each vertex, in the order of the edges."""
    labels, edges, _ = tree
    adj = [[] for _ in labels]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return adj


def _encode(tree, v, parent, adj):
    labels, _, legs = tree
    subs = tuple(sorted(_encode(tree, w, v, adj) for w in adj[v] if w != parent))
    return (*labels[v], legs[v], subs)


def canonical_form(tree):
    """Minimum rooted encoding over the centre of the tree."""
    adj = adjacency(tree)
    return min(_encode(tree, v, None, adj) for v in _centre(adj))


def _centre(adj):
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


def dual_label(label):
    """M and R swap, U_{n,k} becomes U_{n,n-k}."""
    cat, n, k = label
    return _DUAL_CATEGORY[cat], n, n - k


def dual_tree(tree):
    """Dualize every label."""
    labels, edges, legs = tree
    return tuple(map(dual_label, labels)), edges, legs


def is_self_dual_tree(tree):
    return canonical_form(tree) == canonical_form(dual_tree(tree))


def _walk(adj):
    """The edges (parent, child) of a depth-first walk from vertex 0, each
    yielded when the walk first reaches its child."""
    reached, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in reached:
                reached.add(v)
                yield u, v
                stack.append(v)


def realise(tree, rng=None):
    """Fold the labels of a plain tree by 2-sums; base points may be
    shuffled (the result is the same matroid up to isomorphism for every
    choice)."""
    labels = tree[0]
    elems, next_id = [], 1
    for _, n, _ in labels:
        elems.append(list(range(next_id, next_id + n)))
        next_id += n
    available = [list(es) for es in elems]
    if rng is not None:
        for es in available:
            rng.shuffle(es)
    _, n, k = labels[0]
    m = mat.uniform(n, k, labels=elems[0])
    for u, v in _walk(adjacency(tree)):
        _, n, k = labels[v]
        m = mat.two_sum(m, available[u].pop(), mat.uniform(n, k, labels=elems[v]),
                        available[v].pop())
    return m


def relabel(m, mapping):
    return mat.Matroid(
        [mapping[e] for e in m.ground],
        [{mapping[e] for e in c} for c in m.circuits],
    )


def from_bases(ground, bases):
    """The matroid on ground with these bases (sets of labels).  Its circuits
    are the minimal sets inside no base: the subsets are scanned by size, and
    one is kept when it lies inside no base and holds no circuit kept so far."""
    ground = tuple(sorted(ground))
    bit = {e: 1 << i for i, e in enumerate(ground)}
    base_masks = [sum(map(bit.get, b)) for b in bases]
    circuits = []
    for size in range(1, len(ground) + 1):
        for c in combinations(bit.values(), size):
            c = sum(c)
            if all(c & b != c for b in base_masks) and all(c & d != d for d in circuits):
                circuits.append(c)
    return mat.Matroid(ground, [{e for e in ground if c & bit[e]} for c in circuits])


def two_sum_via_bases(m1, e1, m2, e2):
    """Independent 2-sum route through the bases definition."""
    ground = [g for g in m1.ground + m2.ground if g not in (e1, e2)]
    return from_bases(ground, [
        (b1 | b2) - {e1, e2}
        for b1, b2 in product(mat.bases(m1), mat.bases(m2))
        if (e1 in b1) + (e2 in b2) == 1
    ])


def circuit_axioms_ok(m):
    """Antichain plus the circuit elimination axiom, checked exhaustively."""
    circs = list(m.circuits)
    for i, c1 in enumerate(circs):
        for c2 in circs[:i]:
            if c1 <= c2 or c2 <= c1:
                return False
            for e in c1 & c2:
                union = (c1 | c2) - {e}
                if not any(c3 <= union for c3 in circs):
                    return False
    return True
