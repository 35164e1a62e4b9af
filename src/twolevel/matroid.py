"""Small-scale exact matroid algebra over circuit families.

Matroids are stored by their circuits; bases, rank, and duality are derived by
exhaustive bitmask computations, so everything here is capped at small ground
sets.  This module is the brute-force oracle used to cross-validate the
generating-function counts.
"""
from __future__ import annotations

from itertools import combinations

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
        for c in circs:
            for d in circs:
                if c < d:
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


def relabel(m: Matroid, mapping) -> Matroid:
    return Matroid(
        [mapping[e] for e in m.ground],
        [{mapping[e] for e in c} for c in m.circuits],
    )


def _index(m: Matroid):
    return {e: i for i, e in enumerate(m.ground)}


def _circuit_masks(m: Matroid):
    idx = _index(m)
    return [sum(1 << idx[e] for e in c) for c in m.circuits]


def _dependent_table(n: int, cmasks) -> bytearray:
    dep = bytearray(1 << n)
    full = (1 << n) - 1
    for cm in cmasks:
        free = full ^ cm
        sub = free
        while True:
            dep[cm | sub] = 1
            if sub == 0:
                break
            sub = (sub - 1) & free
    return dep


def bases(m: Matroid, cap: int = BASES_CAP) -> frozenset:
    """All maximum-cardinality subsets containing no circuit."""
    n = len(m.ground)
    if n > cap:
        raise ValueError(f"ground set size {n} exceeds cap {cap}")
    dep = _dependent_table(n, _circuit_masks(m))
    best, best_size = [], -1
    for mask in range(1 << n):
        if dep[mask]:
            continue
        s = mask.bit_count()
        if s > best_size:
            best, best_size = [mask], s
        elif s == best_size:
            best.append(mask)
    g = m.ground
    return frozenset(
        frozenset(g[i] for i in range(n) if mask >> i & 1) for mask in best
    )


def rank(m: Matroid) -> int:
    n = len(m.ground)
    dep = _dependent_table(n, _circuit_masks(m))
    mask = 0
    for i in range(n):
        if not dep[mask | (1 << i)]:
            mask |= 1 << i
    return mask.bit_count()


def _circuits_from_independent(n: int, indep: bytearray):
    circs = []
    for mask in range(1, 1 << n):
        if indep[mask]:
            continue
        sub = mask
        minimal = True
        while sub:
            bit = sub & -sub
            if not indep[mask ^ bit]:
                minimal = False
                break
            sub ^= bit
        if minimal:
            circs.append(mask)
    return circs


def dual(m: Matroid, cap: int = BASES_CAP) -> Matroid:
    """Matroid whose bases are the complements of the bases of m."""
    n = len(m.ground)
    if n > cap:
        raise ValueError(f"ground set size {n} exceeds cap {cap}")
    idx = _index(m)
    full = (1 << n) - 1
    dual_bases = [
        full ^ sum(1 << idx[e] for e in b) for b in bases(m, cap)
    ]
    indep = bytearray(1 << n)
    for bm in dual_bases:
        sub = bm
        while True:
            indep[sub] = 1
            if sub == 0:
                break
            sub = (sub - 1) & bm
    g = m.ground
    circs = [
        {g[i] for i in range(n) if cm >> i & 1}
        for cm in _circuits_from_independent(n, indep)
    ]
    return Matroid(g, circs)


def is_loop(m: Matroid, e) -> bool:
    return frozenset([e]) in m.circuits


def is_coloop(m: Matroid, e) -> bool:
    return all(e not in c for c in m.circuits)


def delete(m: Matroid, e) -> Matroid:
    return Matroid(
        (g for g in m.ground if g != e), (c for c in m.circuits if e not in c)
    )


def direct_sum(m1: Matroid, m2: Matroid) -> Matroid:
    if set(m1.ground) & set(m2.ground):
        offset = max(m1.ground) + 1 - min(m2.ground)
        m2 = relabel(m2, {e: e + offset for e in m2.ground})
    return Matroid(m1.ground + m2.ground, m1.circuits | m2.circuits)


def _minimalize(circs):
    out = []
    by_size = sorted(circs, key=len)
    for c in by_size:
        if not any(d <= c for d in out if d != c):
            out.append(c)
    return out


def two_sum(m1: Matroid, e1, m2: Matroid, e2) -> Matroid:
    """2-sum along base points e1, e2 via the circuit composition rule."""
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
    return Matroid(ground, _minimalize(circs))


def two_sum_via_bases(m1: Matroid, e1, m2: Matroid, e2) -> Matroid:
    """Independent 2-sum route through the bases definition."""
    ground = tuple(sorted(g for g in m1.ground + m2.ground if g not in (e1, e2)))
    idx = {e: i for i, e in enumerate(ground)}
    n = len(ground)
    indep = bytearray(1 << n)
    for b1 in bases(m1):
        for b2 in bases(m2):
            if (e1 in b1) + (e2 in b2) != 1:
                continue
            bm = sum(1 << idx[e] for e in (b1 | b2) - {e1, e2})
            sub = bm
            while True:
                indep[sub] = 1
                if sub == 0:
                    break
                sub = (sub - 1) & bm
    circs = [
        {ground[i] for i in range(n) if cm >> i & 1}
        for cm in _circuits_from_independent(n, indep)
    ]
    return Matroid(ground, circs)


def is_2connected(m: Matroid) -> bool:
    """No proper nonempty separator T with rank(T) + rank(E - T) = rank(E)."""
    n = len(m.ground)
    if n <= 1:
        return True
    dep = _dependent_table(n, _circuit_masks(m))

    def greedy_rank(subset_mask: int) -> int:
        mask = 0
        rest = subset_mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            if not dep[mask | bit]:
                mask |= bit
        return mask.bit_count()

    full = (1 << n) - 1
    total = greedy_rank(full)
    for t in range(1, full):
        if greedy_rank(t) + greedy_rank(full ^ t) == total:
            return False
    return True


def circuit_axioms_ok(m: Matroid) -> bool:
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


def is_isomorphic(m1: Matroid, m2: Matroid, cap: int = ISO_CAP) -> bool:
    """Backtracking search for a circuit-preserving ground-set bijection."""
    n = len(m1.ground)
    if n > cap or len(m2.ground) > cap:
        raise ValueError(f"ground set size exceeds isomorphism cap {cap}")
    if n != len(m2.ground) or len(m1.circuits) != len(m2.circuits):
        return False
    if sorted(map(len, m1.circuits)) != sorted(map(len, m2.circuits)):
        return False

    def profiles(m):
        prof = {}
        for e in m.ground:
            sizes = sorted(len(c) for c in m.circuits if e in c)
            prof[e] = tuple(sizes)
        return prof

    p1, p2 = profiles(m1), profiles(m2)
    if sorted(p1.values()) != sorted(p2.values()):
        return False

    # rarest profiles first keeps the branching factor small
    order = sorted(m1.ground, key=lambda e: sum(1 for f in m2.ground if p2[f] == p1[e]))
    circuits2 = m2.circuits
    circs1 = list(m1.circuits)
    pos = {e: i for i, e in enumerate(order)}
    # circuits become checkable once their last-placed element is assigned
    by_last = [[] for _ in range(n)]
    for c in circs1:
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


def matroid_record(m: Matroid) -> str:
    """Stable one-line record: sorted circuit list over the sorted ground set."""
    circs = sorted(tuple(sorted(c)) for c in m.circuits)
    ground = ",".join(str(e) for e in m.ground)
    body = ";".join("{" + ",".join(str(e) for e in c) + "}" for c in circs)
    return f"ground=[{ground}] circuits=[{body}]"
