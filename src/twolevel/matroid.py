"""Small-scale exact matroid algebra over circuit families.

Matroids are stored by their circuits; everything else is derived from two
bitmask tables over the subsets of the ground set, so ground sets stay small.
One subset generator fills both: the dependent sets (supersets of circuits)
back ``bases``, ``rank`` and ``is_2connected``, the last two through one
greedy rank; the independent sets (subsets of bases) give ``dual`` its
circuits.  This module is the brute-force oracle used to cross-validate the
generating-function counts.
"""
from __future__ import annotations

from itertools import combinations, groupby

BASES_CAP = 14
ISO_CAP = 12


class Matroid:
    """Ground-set labels plus the family of circuits (an antichain)."""

    __slots__ = ("ground", "circuits")

    def __init__(self, ground, circuits):
        ground = tuple(sorted(ground))
        gset = set(ground)
        if len(gset) != len(ground):
            raise ValueError("duplicate ground elements")
        circs = frozenset(frozenset(c) for c in circuits)
        for c in circs:
            if not c:
                raise ValueError("empty circuit")
            if not c <= gset:
                raise ValueError("circuit not contained in ground set")
        # c < d needs |c| < |d|, so circuits of one size are never compared
        buckets = [list(cs) for _, cs in groupby(sorted(circs, key=len), key=len)]
        for small, large in combinations(buckets, 2):
            if any(c < d for c in small for d in large):
                raise ValueError("circuit family is not an antichain")
        self.ground = ground
        self.circuits = circs

    def __eq__(self, other):
        return (
            isinstance(other, Matroid)
            and self.ground == other.ground
            and self.circuits == other.circuits
        )

    def __hash__(self):
        return hash((self.ground, self.circuits))

    def __repr__(self):
        return f"Matroid(|E|={len(self.ground)}, {len(self.circuits)} circuits)"

    def size(self) -> int:
        return len(self.ground)


# P6: the excluded minor with a single 3-circuit; fixture, not computed.
P6 = Matroid(
    range(1, 7),
    [
        {1, 2, 3},
        {1, 2, 4, 5}, {1, 2, 4, 6}, {1, 2, 5, 6},
        {1, 3, 4, 5}, {1, 3, 4, 6}, {1, 3, 5, 6},
        {1, 4, 5, 6},
        {2, 3, 4, 5}, {2, 3, 4, 6}, {2, 3, 5, 6},
        {2, 4, 5, 6}, {3, 4, 5, 6},
    ],
)


def uniform(n: int, k: int, labels=None) -> Matroid:
    """U_{n,k} with 0 < k < n; circuits are all (k+1)-subsets."""
    if k <= 0 or k >= n:
        raise ValueError("uniform matroid requires 0 < k < n")
    ground = tuple(labels) if labels is not None else tuple(range(1, n + 1))
    if len(ground) != n:
        raise ValueError("label count must equal n")
    return Matroid(ground, [set(c) for c in combinations(ground, k + 1)])


def _subsets(mask: int):
    """Every subset of mask, from mask itself down to 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _elements(ground, mask: int) -> frozenset:
    return frozenset(e for i, e in enumerate(ground) if mask >> i & 1)


def _dependent_table(m: Matroid) -> bytearray:
    """dep[mask] = 1 exactly when mask contains a circuit of m."""
    n = len(m.ground)
    idx = {e: i for i, e in enumerate(m.ground)}
    full = (1 << n) - 1
    dep = bytearray(1 << n)
    for c in m.circuits:
        cm = sum(1 << idx[e] for e in c)
        for sub in _subsets(full ^ cm):
            dep[cm | sub] = 1
    return dep


def _greedy_rank(dep: bytearray, mask: int) -> int:
    """Rank of the subset mask, grown greedily from its lowest element."""
    indep = 0
    rest = mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        if not dep[indep | bit]:
            indep |= bit
    return indep.bit_count()


def _from_bases(ground: tuple, base_sets) -> Matroid:
    """The matroid on ground with the given bases: the independent sets are
    their subsets, the circuits the minimal sets that are not."""
    n = len(ground)
    idx = {e: i for i, e in enumerate(ground)}
    indep = bytearray(1 << n)
    for b in base_sets:
        for sub in _subsets(sum(1 << idx[e] for e in b)):
            indep[sub] = 1
    circs = [
        _elements(ground, mask)
        for mask in range(1, 1 << n)
        if not indep[mask] and all(indep[mask ^ 1 << i] for i in range(n) if mask >> i & 1)
    ]
    return Matroid(ground, circs)


def bases(m: Matroid) -> frozenset:
    """All maximum-cardinality subsets containing no circuit.  The size is
    found by the scan, not by the greedy rank, so the answer keeps its
    meaning for a circuit family that is not a matroid's."""
    n = len(m.ground)
    if n > BASES_CAP:
        raise ValueError(f"ground set size {n} exceeds cap {BASES_CAP}")
    dep = _dependent_table(m)
    free = [mask for mask in range(1 << n) if not dep[mask]]
    size = max(mask.bit_count() for mask in free)
    return frozenset(_elements(m.ground, mask) for mask in free if mask.bit_count() == size)


def rank(m: Matroid) -> int:
    return _greedy_rank(_dependent_table(m), (1 << len(m.ground)) - 1)


def dual(m: Matroid) -> Matroid:
    """Matroid whose bases are the complements of the bases of m."""
    return _from_bases(m.ground, [frozenset(m.ground) - b for b in bases(m)])


def is_loop(m: Matroid, e) -> bool:
    return frozenset([e]) in m.circuits


def is_coloop(m: Matroid, e) -> bool:
    return all(e not in c for c in m.circuits)


def two_sum(m1: Matroid, e1, m2: Matroid, e2) -> Matroid:
    """2-sum of the matroids m1 and m2 along base points e1, e2 by the
    circuit composition rule (Oxley, Prop. 7.1.20): the circuits of each
    piece that avoid its base point, and (c1 - e1) | (c2 - e2) for each pair
    through them.  The inputs must be matroids: then that family is the
    antichain of circuits of the 2-sum as it stands, with nothing to
    remove, while for other circuit families it need not be a matroid's.
    """
    if set(m1.ground) & set(m2.ground):
        raise ValueError("ground sets must be disjoint")
    for m, e in ((m1, e1), (m2, e2)):
        if e not in m.ground:
            raise ValueError(f"base point {e} not in ground set")
        if is_loop(m, e) or is_coloop(m, e):
            raise ValueError(f"base point {e} is a loop or coloop")
    circs = {c for c in m1.circuits if e1 not in c}
    circs |= {c for c in m2.circuits if e2 not in c}
    for c1 in m1.circuits:
        if e1 not in c1:
            continue
        for c2 in m2.circuits:
            if e2 in c2:
                circs.add((c1 - {e1}) | (c2 - {e2}))
    ground = [g for g in m1.ground + m2.ground if g not in (e1, e2)]
    return Matroid(ground, circs)


def is_2connected(m: Matroid) -> bool:
    """No proper nonempty separator T with rank(T) + rank(E - T) = rank(E)."""
    dep = _dependent_table(m)
    full = (1 << len(m.ground)) - 1
    total = _greedy_rank(dep, full)
    for t in range(1, full):
        if _greedy_rank(dep, t) + _greedy_rank(dep, full ^ t) == total:
            return False
    return True


def is_isomorphic(m1: Matroid, m2: Matroid) -> bool:
    """Backtracking search for a circuit-preserving ground-set bijection."""
    n = len(m1.ground)
    if n > ISO_CAP or len(m2.ground) > ISO_CAP:
        raise ValueError(f"ground set size exceeds isomorphism cap {ISO_CAP}")
    if n != len(m2.ground) or len(m1.circuits) != len(m2.circuits):
        return False
    if sorted(map(len, m1.circuits)) != sorted(map(len, m2.circuits)):
        return False

    def profiles(m):
        """Sorted sizes of the circuits through each element."""
        return {e: tuple(sorted(len(c) for c in m.circuits if e in c)) for e in m.ground}

    p1, p2 = profiles(m1), profiles(m2)
    if sorted(p1.values()) != sorted(p2.values()):
        return False

    # rarest profiles first keeps the branching factor small
    order = sorted(m1.ground, key=lambda e: sum(1 for f in m2.ground if p2[f] == p1[e]))
    circuits2 = m2.circuits
    pos = {e: i for i, e in enumerate(order)}
    # circuits become checkable once their last-placed element is assigned
    by_last = [[] for _ in range(n)]
    for c in m1.circuits:
        by_last[max(pos[e] for e in c)].append(c)

    mapping = {}
    used = set()

    def backtrack(i: int) -> bool:
        if i == n:
            return True
        e = order[i]
        for f in m2.ground:
            if f in used or p2[f] != p1[e]:
                continue
            mapping[e] = f
            used.add(f)
            if all(
                frozenset(mapping[x] for x in c) in circuits2 for c in by_last[i]
            ) and backtrack(i + 1):
                return True
            used.discard(f)
            del mapping[e]
        return False

    return backtrack(0)

