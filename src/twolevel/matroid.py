"""Small-scale exact matroid algebra over circuit families: the brute-force
oracle used to cross-validate the generating-function counts.

A matroid holds its sorted ground set and each circuit as a bitmask over it
(bit i stands for ``ground[i]``); ``circuits`` is a read-only view of the
masks as sets of labels.  ``uniform`` and ``two_sum`` compose masks.  One
table, the greedy rank of every subset mask, backs ``bases``, ``rank``,
``dual`` and ``is_2connected``.
``pairwise_non_isomorphic`` runs ``is_isomorphic`` only within buckets of
equal invariants.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations

BASES_CAP = 14
ISO_CAP = 12


class Matroid:
    """Sorted ground-set labels plus the circuits (an antichain) as masks."""

    __slots__ = ("ground", "masks")

    def __init__(self, ground, circuits):
        ground = tuple(sorted(ground))
        bit = {e: 1 << i for i, e in enumerate(ground)}
        if len(bit) != len(ground):
            raise ValueError("duplicate ground elements")
        circuits = [frozenset(c) for c in circuits]
        if frozenset() in circuits:
            raise ValueError("empty circuit")
        if not frozenset().union(*circuits) <= bit.keys():
            raise ValueError("circuit not contained in ground set")
        self.ground = ground
        self.masks = _antichain([sum(map(bit.get, c)) for c in circuits])

    @property
    def circuits(self) -> frozenset:
        """The circuits as frozensets of ground-set labels."""
        return frozenset(_elements(self.ground, c) for c in self.masks)

    def __eq__(self, other):
        return (
            isinstance(other, Matroid)
            and self.ground == other.ground
            and self.masks == other.masks
        )

    def __hash__(self):
        return hash((self.ground, self.masks))

    def __repr__(self):
        return f"Matroid(|E|={len(self.ground)}, {len(self.masks)} circuits)"


def _antichain(masks) -> frozenset:
    """The masks, once none is found inside another: c < d, that is c & d
    == c for c != d, needs |c| < |d|, so each is scanned against those after
    it in size order, and the largest need no scan."""
    masks = frozenset(masks)
    ordered = sorted(masks, key=int.bit_count)
    for i, c in enumerate(ordered):
        if c.bit_count() == ordered[-1].bit_count():
            break
        if c in map(c.__and__, ordered[i + 1:]):
            raise ValueError("circuit family is not an antichain")
    return masks


def _matroid(ground: tuple, masks) -> Matroid:
    """The matroid on ground whose circuits are masks over it; a ground set
    out of order, or with repeats, goes through the labels."""
    if list(ground) != sorted(set(ground)):
        return Matroid(ground, [_elements(ground, c) for c in masks])
    m = object.__new__(Matroid)
    m.ground, m.masks = ground, _antichain(masks)
    return m


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


@lru_cache(maxsize=None)
def _uniform_masks(n: int, k: int) -> frozenset:
    return frozenset(sum(1 << i for i in c) for c in combinations(range(n), k + 1))


def uniform(n: int, k: int, labels=None) -> Matroid:
    """U_{n,k} with 0 < k < n; circuits are all (k+1)-subsets."""
    if k <= 0 or k >= n:
        raise ValueError("uniform matroid requires 0 < k < n")
    ground = tuple(labels) if labels is not None else tuple(range(1, n + 1))
    if len(ground) != n:
        raise ValueError("label count must equal n")
    return _matroid(ground, _uniform_masks(n, k))


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


def _ranks(m: Matroid) -> bytearray:
    """r[s]: the rank of each subset mask s, grown greedily from its lowest
    element.  r first holds 0 on the dependent sets (supersets of circuits)
    and |s| on the rest; then each mask adds its highest element to the
    greedy basis of the rest when the two together still hold their size."""
    n = len(m.ground)
    if n > BASES_CAP:
        raise ValueError(f"ground set size {n} exceeds cap {BASES_CAP}")
    full = (1 << n) - 1
    r = bytearray(map(int.bit_count, range(full + 1)))
    for c in m.masks:
        for sub in _subsets(full ^ c):
            r[c | sub] = 0
    basis = [0] * (full + 1)
    for s in range(1, full + 1):
        top = 1 << s.bit_length() - 1
        b = basis[s ^ top]
        if r[b | top] > b.bit_count():
            b |= top
        basis[s] = b
        r[s] = b.bit_count()
    return r


def bases(m: Matroid) -> frozenset:
    """The bases as sets of labels: the largest masks s with r[s] == |s|,
    that is, with no circuit inside.  Their size comes from the scan, not the
    greedy rank, so they keep their meaning for circuits no matroid has."""
    r = _ranks(m)
    free = [s for s in range(len(r)) if r[s] == s.bit_count()]
    size = max(map(int.bit_count, free))
    return frozenset(_elements(m.ground, s) for s in free if s.bit_count() == size)


def rank(m: Matroid) -> int:
    return _ranks(m)[-1]


def dual(m: Matroid) -> Matroid:
    """Matroid whose bases are the complements of the bases of m: its
    circuits are the minimal sets D whose complement has lower rank."""
    r = _ranks(m)
    full, total = len(r) - 1, r[-1]
    circs = []
    for d in range(1, full + 1):
        if r[full ^ d] < total:
            rest = d
            while rest and r[full ^ d ^ rest & -rest] == total:
                rest &= rest - 1
            if not rest:
                circs.append(d)
    return _matroid(m.ground, circs)


def is_loop(m: Matroid, e) -> bool:
    return 1 << m.ground.index(e) in m.masks


def is_coloop(m: Matroid, e) -> bool:
    return not any(map((1 << m.ground.index(e)).__and__, m.masks))


def two_sum(m1: Matroid, e1, m2: Matroid, e2) -> Matroid:
    """2-sum of the matroids m1 and m2 along base points e1, e2 by the
    circuit composition rule (Oxley, Prop. 7.1.20): the circuits of each
    piece that avoid its base point, and (c1 - e1) | (c2 - e2) for each pair
    through them.  The inputs must be matroids: then that family is the
    antichain of circuits of the 2-sum as it stands, with nothing to
    remove, while for other circuit families it need not be a matroid's.
    Base points are squeezed out of the masks, and m2's go above m1's."""
    if not set(m1.ground).isdisjoint(m2.ground):
        raise ValueError("ground sets must be disjoint")
    circs, through, ground = [], [], ()
    for m, e in ((m1, e1), (m2, e2)):
        if e not in m.ground:
            raise ValueError(f"base point {e} not in ground set")
        if is_loop(m, e) or is_coloop(m, e):
            raise ValueError(f"base point {e} is a loop or coloop")
        i, shift = m.ground.index(e), len(ground)
        bit, low = 1 << i, (1 << i) - 1
        circs += [(c & low | c >> 1 & ~low) << shift for c in m.masks if not c & bit]
        through.append([(c & low | c >> 1 & ~low) << shift for c in m.masks if c & bit])
        ground += m.ground[:i] + m.ground[i + 1:]
    circs += [c1 | c2 for c1 in through[0] for c2 in through[1]]
    return _matroid(ground, circs)


def is_2connected(m: Matroid) -> bool:
    """No proper nonempty separator T with rank(T) + rank(E - T) = rank(E)."""
    r = _ranks(m)
    full = len(r) - 1
    return all(r[t] + r[full ^ t] != r[full] for t in range(1, full))


def _invariant(m: Matroid) -> tuple:
    """Equal for isomorphic matroids: |E| and the multiset of circuit sizes."""
    return len(m.ground), *sorted(map(int.bit_count, m.masks))


def is_isomorphic(m1: Matroid, m2: Matroid) -> bool:
    """Backtracking search for a circuit-preserving bijection of positions."""
    n = len(m1.ground)
    if n > ISO_CAP or len(m2.ground) > ISO_CAP:
        raise ValueError(f"ground set size exceeds isomorphism cap {ISO_CAP}")
    if _invariant(m1) != _invariant(m2):
        return False

    def profiles(m):
        """Sorted sizes of the circuits through each position."""
        return [tuple(sorted(c.bit_count() for c in m.masks if c >> i & 1)) for i in range(n)]

    p1, p2 = profiles(m1), profiles(m2)
    if sorted(p1) != sorted(p2):
        return False

    # rarest profiles first keeps the branching factor small
    order = sorted(range(n), key=lambda i: p2.count(p1[i]))
    rank_of = {i: r for r, i in enumerate(order)}
    # circuits become checkable once their last-placed position is assigned
    by_last = [[] for _ in range(n)]
    for c in m1.masks:
        positions = [i for i in range(n) if c >> i & 1]
        by_last[max(map(rank_of.__getitem__, positions))].append(positions)
    image = [0] * n  # image[i]: the bit of m2 that position i of m1 maps to

    def backtrack(r: int, used: int) -> bool:
        if r == n:
            return True
        i = order[r]
        for j in range(n):
            if used >> j & 1 or p2[j] != p1[i]:
                continue
            image[i] = 1 << j
            if all(sum(map(image.__getitem__, c)) in m2.masks for c in by_last[r]) \
                    and backtrack(r + 1, used | 1 << j):
                return True
        return False

    return backtrack(0, 0)


def pairwise_non_isomorphic(ms) -> bool:
    """Whether no two of the matroids are isomorphic: ``is_isomorphic`` runs
    only on pairs that share their invariant."""
    buckets = {}
    for m in ms:
        buckets.setdefault(_invariant(m), []).append(m)
    return not any(is_isomorphic(a, b) for bucket in buckets.values()
                   for a, b in combinations(bucket, 2))
