"""Exact UMR-tree counts by plain-int recurrences, independent of the package.

The pointed series are computed one coefficient at a time.  With
s = a_R + a_M + a_U + x, e = MSet(s) and lin = sum_{r>=1} s(x^r), the
U-equation reads a_U = e*lin + s - 2e + 2, in which the s_n terms cancel
(1 + 1 - 2), so [x^n]a_U depends only on lower coefficients.  Likewise
[x^n]MSet_{>=2}(f) = [x^n]MSet(f) - f_n depends only on f_k, k < n.  Both
are evaluated with the unknown n-th argument coefficient set to 0.

MSet is the Euler transform n*b_n = sum_k c_k*b_(n-k) with
c_k = sum_{d|k} d*f_d; every division is exact and is checked.  T comes from
the dissymmetry identity and the forests are MSet(T).  Nothing here imports
the twolevel package.
"""
from __future__ import annotations

from dataclasses import dataclass

# [x^3..x^12] T as published; the reference must reproduce it.
PUBLISHED_T = (2, 4, 10, 27, 78, 246, 818, 2871, 10446, 39358)


def _divisors(order: int) -> list[list[int]]:
    divs = [[] for _ in range(order + 1)]
    for d in range(1, order + 1):
        for k in range(d, order + 1, d):
            divs[k].append(d)
    return divs


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"inexact division {num}/{den}")
    return q


class _Euler:
    """Online MSet(f): coefficient n from f_1..f_n, one step at a time."""

    def __init__(self, order: int, divs):
        self.divs = divs
        self.f = [0] * (order + 1)
        self.c = [0] * (order + 1)
        self.b = [1] + [0] * order

    def _c(self, n: int) -> int:
        return sum(d * self.f[d] for d in self.divs[n])

    def peek(self, n: int) -> int:
        """[x^n]MSet(f) - f_n, with f_n still unknown."""
        self.f[n] = 0
        cn = self._c(n)
        acc = cn + sum(self.c[k] * self.b[n - k] for k in range(1, n))
        return _exact_div(acc, n)

    def push(self, n: int, fn: int) -> None:
        self.f[n] = fn
        self.c[n] = self._c(n)
        self.b[n] = _exact_div(
            sum(self.c[k] * self.b[n - k] for k in range(1, n + 1)), n
        )


def _mul(p: list[int], q: list[int]) -> list[int]:
    n = len(p) - 1
    out = [0] * (n + 1)
    for i, pi in enumerate(p):
        if pi:
            for j in range(n + 1 - i):
                out[i + j] += pi * q[j]
    return out


def _at_square(p: list[int]) -> list[int]:
    out = [0] * len(p)
    for i in range(0, (len(p) + 1) // 2):
        out[2 * i] = p[i]
    return out


def _add(*ps: list[int]) -> list[int]:
    return [sum(cs) for cs in zip(*ps)]


def _sub(p: list[int], q: list[int]) -> list[int]:
    return [a - b for a, b in zip(p, q)]


def _mset2(p: list[int]) -> list[int]:
    """Multisets of exactly two elements: (p^2 + p(x^2)) / 2."""
    return [_exact_div(a + b, 2) for a, b in zip(_mul(p, p), _at_square(p))]


@dataclass(frozen=True)
class Reference:
    order: int
    a_R: list[int]
    a_M: list[int]
    a_U: list[int]
    t: list[int]
    forest: list[int]


def solve(order: int) -> Reference:
    """All reference series through x^order."""
    divs = _divisors(order)
    x = [0, 1] + [0] * (order - 1)
    a_R, a_M, a_U = ([0] * (order + 1) for _ in range(3))
    f_R, f_M, e = (_Euler(order, divs) for _ in range(3))
    s = [0] * (order + 1)
    lin = [0] * (order + 1)
    for n in range(1, order + 1):
        a_R[n] = f_R.peek(n)
        a_M[n] = f_M.peek(n)
        # e and lin with s_n = 0; the s_n terms of a_U cancel
        e_n = e.peek(n)
        lin_n = sum(s[n // r] for r in divs[n] if r > 1)
        e.b[n] = e_n
        lin[n] = lin_n
        a_U[n] = sum(e.b[k] * lin[n - k] for k in range(n + 1)) - 2 * e_n
        s[n] = a_R[n] + a_M[n] + a_U[n] + x[n]
        lin[n] = lin_n + s[n]
        f_R.push(n, a_M[n] + a_U[n] + x[n])
        f_M.push(n, a_R[n] + a_U[n] + x[n])
        e.push(n, s[n])
        if e.b[n] != e_n + s[n]:
            raise ArithmeticError(f"MSet(s) at n={n} is not e_n + s_n")
    t = _unrooted(order, a_R, a_M, a_U, x, s, e.b)
    forest = _Euler(order, divs)
    for n in range(1, order + 1):
        forest.push(n, t[n])
    return Reference(order, a_R, a_M, a_U, t, forest.b)


def _unrooted(order, a_R, a_M, a_U, x, s, e):
    """T = T_v + T_e - T_d (dissymmetry), each part written out."""
    rux = _add(a_R, a_U, x)
    mux = _add(a_M, a_U, x)
    t_e = _add(_mul(a_M, rux), _mul(a_R, _add(a_U, x)), _mset2(a_U), _mul(x, a_U))
    t_d = _add(
        _mul(a_M, rux), _mul(a_R, _add(a_M, a_U, x)), _mul(a_U, s),
        _mul(x, _add(a_R, a_M, a_U)),
    )
    one = [1] + [0] * order
    t_R = _sub(a_R, _mset2(mux))
    t_M = _sub(a_M, _mset2(rux))
    t_U = _sub(a_U, _sub(_sub(_sub(e, one), s), _mset2(s)))
    t_bullet = _mul(x, _add(a_R, a_M, a_U))
    t_v = _add(t_R, t_M, t_U, t_bullet)
    return _sub(_add(t_v, t_e), t_d)
