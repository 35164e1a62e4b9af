"""Singularity analysis for the tree and forest series.

The pointed system has a common square-root branch point at x = rho.  This
module locates it, computes singular expansions in X = sqrt(1 - x/rho) one
order at a time, transfers the X^3 coefficient to the amplitude C of
C n^(-5/2) rho^(-n), and locates the first branch point of the bounding
series for self-dual trees in (0, sqrt(rho)], which the shipped bound has at
x = 0.39300 (growth 2.5445^n, not rho^(-n/2)).  Both branch points come from
one fold-point Newton iteration (:func:`_fold_point`), which takes any
right-hand side of :mod:`twolevel.gfsystem`.

Every equation is written once, in :mod:`twolevel.gfsystem`, and runs over
two rings.  Integer series give the exact counts (the online ring of
:mod:`twolevel.powerseries`, which every ``PowerSeries`` operation reads).  The
float ring here (:class:`Jet` over a :class:`JetPoint` x(X)) gives the value
of the same right-hand side along x(X), as a polynomial in X:

- at a constant point, with unknowns y + X v + X^2 e_j, the residual F - y
  to third order, and at x(X) = x0 + X^2 with y + X v, F_x and d/dx (J v)
  too (the fold-point Newton iteration); with the expansion of T at r = 1,
  the forest series, its tail taken at rho;
- at x(X) = rho (1 - X^2), with the unknowns set to their expansions, it
  is the residual of the singular expansion and, over its leaves, T's.

Every value of an element f is a polynomial in X, at a constant point as at
a moving one, computed on first read and kept in one list indexed by r:
f(x(X)^r) at r = 1..R, R the last r with |x(0)|^r > TAIL_EPS, and at index 0
f(0), the limit r -> infinity that every r past R reads (0 wherever MSet or
a sum over r reads it).  A leaf's values come from its coefficients, made
floats once (ValueError past the float range), by one Horner kernel: passes
over all r together give the series' Taylor coefficients at x(0)^r up to the
order that can reach the highest power of X the caller reads, X^DEG unless
it says less, composed with the shifts x(X)^r - x(0)^r.  A constant point
composes no Taylor term and builds no shift.  The unknowns replace a leaf's
r = 1 value.

Polynomials in X are plain lists of DEG + 1 floats (index = power of X),
truncated after degree DEG, and the linear solves are Gaussian elimination.
No solver takes a finite difference, and every one stops at one tolerance,
the run's ``--tol``.
"""
from __future__ import annotations

import math
import sys
from functools import cache
from operator import add, sub
from typing import NamedTuple

from . import gfsystem as gf
from .powerseries import PowerSeries

DEG = 4  # the highest power of X read: transfer reads X^3, singular_expansions X^4
TAIL_EPS = 1e-20

GAMMA_M32 = math.gamma(-1.5)  # 4*sqrt(pi)/3
POLY_EXPONENT = -2.5  # of n in C n^(-5/2) rho^(-n)


class CharSolution(NamedTuple):
    """Branch point of the pointed system and the series values there."""

    rho: float
    a_R: float  # = a_M by symmetry
    a_U: float
    c: float  # J - I has the null vector v = (1, c), c > 0
    j_minus_i: tuple[tuple[float, float], tuple[float, float]]  # exact, at rho
    residual: float  # max-norm of (F - y, (J - I) v), below the tol


class SingularExpansion(NamedTuple):
    """Expansions a(x), u(x) in powers of X = sqrt(1 - x/rho), degree <= DEG."""

    rho: float
    a: list[float]
    u: list[float]
    t: list[float]  # T by dissymmetry, over the leaves of a and u
    residual: float  # max-norm of the residual coefficients X^0..X^DEG


class BranchPointReport(NamedTuple):
    """Outcome of the subcritical branch-point scan for the bounding series."""

    x_max: float
    branch_x: float | None = None  # None: no branch point in (0, x_max]
    branch_s: float | None = None
    residual: float | None = None  # max-norm of (F - s, F_s - 1) at the branch point

    @property
    def no_branch_point(self) -> bool:
        return self.branch_x is None

    def describe(self) -> str:
        if self.no_branch_point:
            return f"no branch point in (0, {self.x_max:.8f}]"
        return (
            f"branch point at x = {self.branch_x:.8f} (s = {self.branch_s:.8f}), "
            f"inside (0, {self.x_max:.8f}]"
        )


# -- X-polynomial arithmetic ---------------------------------------------

def xp(*coeffs: float) -> list[float]:
    return [float(c) for c in coeffs] + [0.0] * (DEG + 1 - len(coeffs))


def xp_mul(p: list[float], q: list[float]) -> list[float]:
    """Product truncated after X^DEG (DEG = 4), unrolled."""
    p0, p1, p2, p3, p4 = p
    q0, q1, q2, q3, q4 = q
    return [p0 * q0, p0 * q1 + p1 * q0, p0 * q2 + p1 * q1 + p2 * q0,
            p0 * q3 + p1 * q2 + p2 * q1 + p3 * q0,
            p0 * q4 + p1 * q3 + p2 * q2 + p3 * q1 + p4 * q0]


def _xp_add(p: list[float], q: list[float]) -> list[float]:
    return list(map(add, p, q))


def _xp_sub(p: list[float], q: list[float]) -> list[float]:
    return list(map(sub, p, q))


def _xp_sum(polys) -> list[float]:
    return list(map(sum, zip(*polys)))


def _xp_scale(p: list[float], w: float) -> list[float]:
    return [c * w for c in p]


def _xp_div(p: list[float], k: int) -> list[float]:
    return [c / k for c in p]


def xp_exp(p: list[float]) -> list[float]:
    """exp of an X-polynomial (constant term allowed), from E' = p' E."""
    out = xp(math.exp(p[0]))
    for n in range(1, DEG + 1):
        out[n] = sum(k * p[k] * out[n - k] for k in range(1, n + 1)) / n
    return out


# -- the float ring -------------------------------------------------------

@cache
def _sum_terms(r_max: int, sign: float) -> list[list[tuple[int, float]]]:
    """For r = 0..r_max, the terms sign^k f(x^(r k)) / k of a sum over k, as
    (index r k, weight sign^k / k) with r k <= r_max; at r = 0 the one term
    f(0), which is 0 in every sum the ring takes."""
    return [[(r * k, sign**k / k) for k in range(1, r_max // r + 1 if r else 2)]
            for r in range(r_max + 1)]


class JetPoint:
    """The argument x(X) of a ring evaluation, its cutoff and its leaves.

    The cutoff R is the last r >= 1 with |x(0)|^r > TAIL_EPS; past it every
    element reads its value at x = 0.  ``reads`` is the highest power of X
    the caller reads; coefficients above it may be incomplete.  The shifts
    x(X)^r - x(0)^r are built only where x(X) moves.
    """

    def __init__(self, x_of_X: list[float], reads: int = DEG):
        x0 = x_of_X[0]
        if not abs(x0) < 1:
            raise ValueError("ring evaluation requires |x(0)| < 1")
        r_max = 1
        while abs(x0) ** (r_max + 1) > TAIL_EPS:
            r_max += 1
        self.r_max = r_max
        self._ys = [x0**r for r in range(1, r_max + 1)]
        # x(X)^r = x0^r + shift_r, and shift_r^j is O(X^(j val)): Taylor
        # orders past reads // val cannot reach X^reads
        val = next((i for i, c in enumerate(x_of_X) if i and c), None)
        self._taylor = 0 if val is None else reads // val
        self._shifts, power = [], x_of_X  # at r = 1..R, where a Taylor term reads them
        for _ in range(r_max if self._taylor else 0):
            self._shifts.append([0.0, *power[1:]])
            power = xp_mul(power, x_of_X)
        self._leaves: dict[PowerSeries, list[list[float]]] = {}

    def leaf(self, series: PowerSeries, at1: list[float] | None = None) -> "Jet":
        """series(x(X)^r) as a ring element, its values built once at this
        point and shared; ``at1`` replaces its value at r = 1."""
        values = self._leaves.get(series)
        if values is None:
            cs = _float_coeffs(series)
            values = self._leaves[series] = [xp(cs[0]), *self._leaf_values(cs)]
        if at1 is not None:
            values = [values[0], at1, *values[2:]]
        return Jet(self, None, values)

    def _leaf_values(self, cs: tuple[float, ...]) -> list[list[float]]:
        """cs(x(X)^r) for r = 1..R, from one Horner pass per Taylor order.

        The passes run over all r together and give f^(j)(x0^r) / j! for
        j = 0..J; they are composed with shift_r.
        """
        ys, top = self._ys, self._taylor
        b = [[0.0] * len(ys) for _ in range(top + 1)]
        degree = max((n for n, c in enumerate(cs) if c), default=0)
        for c in reversed(cs[:degree + 1]):  # zeros above it leave b at 0.0
            for j in range(top, 0, -1):  # (x f)^(j) / j! = x f^(j) / j! + f^(j-1) / (j-1)!
                b[j] = [v * y + w for v, w, y in zip(b[j], b[j - 1], ys)]
            b[0] = [v * y + c for v, y in zip(b[0], ys)]
        out = []
        for i in range(len(ys)):
            p = xp(b[top][i])
            for j in range(top - 1, -1, -1):
                p = xp_mul(p, self._shifts[i])
                p[0] += b[j][i]
            out.append(p)
        return out


def _float_coeffs(series: PowerSeries) -> tuple[float, ...]:
    """The coefficients as floats; the first one past their range raises ValueError."""
    try:
        return tuple(map(float, series.coeffs))
    except OverflowError:  # float() overflows only above the largest float
        n = next(n for n, c in enumerate(series.coeffs) if abs(c) > sys.float_info.max)
        raise ValueError(
            f"coefficient {n} of an order-{series.order} series exceeds the float "
            f"range; the float ring reads it only to order {n - 1}") from None


class Jet:
    """Element f of the float ring at a point x(X): ``f[r]`` is f(x(X)^r) at
    r = 1..R and f(0) at r = 0, and ``head`` is f[1].

    The right-hand sides of :mod:`twolevel.gfsystem` run on these unchanged.
    Each operation is one step, a function of r; f[r] runs it on first read
    and keeps the value, so an element computes each r at most once and only
    the r that an MSet, a sum over r or a substitution reads; a leaf comes
    with every value and no step.  a(x^k) reads index k r, or 0 past R, and
    MSet at r is exp(sum_k f(x^(r k))/k) over r k <= R.
    """

    __slots__ = ("point", "_memo", "_step")

    def __init__(self, point: JetPoint, step, values: list | None = None):
        self.point = point
        self._step = step
        self._memo = values or [None] * (point.r_max + 1)

    def __getitem__(self, r: int) -> list[float]:
        value = self._memo[r]
        if value is None:
            value = self._memo[r] = self._step(r)
        return value

    @property
    def head(self) -> list[float]:
        return self[1]

    def _zip(self, other, op) -> "Jet":
        if isinstance(other, int):  # a constant, the same at every r
            c = xp(other)
            return Jet(self.point, lambda r: op(self[r], c))
        if not isinstance(other, Jet):
            return NotImplemented
        return Jet(self.point, lambda r: op(self[r], other[r]))

    def __add__(self, other):
        return self._zip(other, _xp_add)

    def __sub__(self, other):
        return self._zip(other, _xp_sub)

    def __mul__(self, other):
        return self._zip(other, xp_mul)

    __rmul__ = __mul__

    def __truediv__(self, k: int) -> "Jet":
        return Jet(self.point, lambda r: _xp_div(self[r], k))

    def substitute_power(self, k: int) -> "Jet":
        if k < 1:
            raise ValueError("substitution power must be >= 1")
        if k == 1:
            return self
        r_max = self.point.r_max
        return Jet(self.point, lambda r: self[r * k if r * k <= r_max else 0])

    def substitution_sum(self) -> "Jet":
        terms = _sum_terms(self.point.r_max, 1.0)
        return Jet(self.point, lambda r: _xp_sum([self[i] for i, _ in terms[r]]))

    def mset(self, signed: bool = False) -> "Jet":
        if any(self[0]):
            raise ValueError("multiset operator requires zero constant term")
        terms = _sum_terms(self.point.r_max, -1.0 if signed else 1.0)
        return Jet(self.point, lambda r: xp_exp(
            _xp_sum([_xp_scale(self[i], w) for i, w in terms[r]])))

    mset2 = PowerSeries.mset2
    mset_odd = PowerSeries.mset_odd


# -- small dense linear solves -------------------------------------------

def _solve(a: list[list[float]], b: list[float]) -> list[float]:
    """Solve a v = b by Gaussian elimination with partial pivoting; a zero
    pivot (a singular matrix) raises ZeroDivisionError."""
    n = len(b)
    m = [[*row, rhs] for row, rhs in zip(a, b)]
    for k in range(n):
        i = max(range(k, n), key=lambda i: abs(m[i][k]))
        if m[i][k] == 0.0:
            raise ZeroDivisionError("singular matrix")
        m[k], m[i] = m[i], m[k]
        pivot = m[k]
        for row in m[k + 1:]:
            f = row[k] / pivot[k]
            for c in range(k, n + 1):
                row[c] -= f * pivot[c]
    v = [0.0] * n
    for k in reversed(range(n)):
        v[k] = (m[k][n] - sum(m[k][c] * v[c] for c in range(k + 1, n))) / m[k][k]
    return v


def _converged(g: list[float], tol: float) -> bool:
    return all(abs(gi) < tol for gi in g)  # False on a NaN


def _dot(p, q) -> float:
    return p[0] * q[0] + p[1] * q[1]


# -- fold points ---------------------------------------------------------

def _residuals(point: JetPoint, rhs, known, unknowns, heads: list[list[float]]):
    """F - y over the ring, F = rhs(*known, *unknowns) with the unknowns'
    heads y at r = 1."""
    outs = rhs(*map(point.leaf, known), *map(point.leaf, unknowns, heads))
    return [_xp_sub(f.head, y) for f, y in zip(outs, heads)]


def _fold_point(rhs, known, unknowns, seed, tol: float, max_iter: int = 100):
    """Newton iteration for a fold point of y = F(x, y), F = rhs(*known, *y):
    F(x, y) = y and (J - I) v = 0 with v_1 = 1, J the Jacobian of F in y, in
    the 2k unknowns z = (x, y, v_2..v_k), from z = seed (Moore-Spence, SIAM
    J. Numer. Anal. 1980).

    Its Jacobian is exact.  k evaluations at the constant point x, with
    y + X v + X^2 e_j, read F - y at X^0, (J - I) v at X^1, (J - I) e_j +
    H[v, v]/2 at X^2 and H[v, e_j] + T[v, v, v]/6 at X^3; weighted by v they
    give H[v, v]/2 and T[v, v, v]/6, over sum(v).  The x-column costs one
    evaluation at x + X^2 with y + X v, whose X^2 and X^3 coefficients carry
    F_x and d/dx (J v) in place of (J - I) e_j and H[v, e_j]; it is made
    only when a step is taken, and read only through X^3.  An iterate
    outside the ring's domain (|x| >= 1, or a value that is not finite), an
    overflow or a singular step ends the iteration with ArithmeticError.
    Returns z, J - I, H[v, v]/2 and the max-norm of (F - y, (J - I) v),
    below tol.
    """
    k, z = len(unknowns), list(seed)
    for _ in range(max_iter):
        x, y, v = z[0], z[1:k + 1], [1.0, *z[k + 1:]]
        if not (abs(x) < 1.0 and all(map(math.isfinite, y + v))):
            break
        try:
            here = JetPoint(xp(x))
            by_e = [_residuals(here, rhs, known, unknowns,
                               [xp(*yv, i == j) for i, yv in enumerate(zip(y, v))])
                    for j in range(k)]
            eqs = []  # per equation: H[v, v]/2, T[v, v, v]/6, its rows of J - I and H[v, .]
            for ps in zip(*by_e):
                h = (sum(v_j * p[2] for v_j, p in zip(v, ps)) - ps[0][1]) / sum(v)
                t = (sum(v_j * p[3] for v_j, p in zip(v, ps)) - 2.0 * h) / sum(v)
                eqs.append((h, t, tuple(p[2] - h for p in ps), [p[3] - t for p in ps]))
            g = [p[0] for p in by_e[0]] + [p[1] for p in by_e[0]]
            if _converged(g, tol):
                return z, tuple(e[2] for e in eqs), [e[0] for e in eqs], max(map(abs, g))
            shifted = _residuals(JetPoint(xp(x, 0.0, 1.0), reads=3), rhs, known, unknowns,
                                 [xp(*yv) for yv in zip(y, v)])
            rows = [([s[2] - h, *m_i, *[0.0] * (k - 1)], [s[3] - t, *h_i, *m_i[1:]])
                    for s, (h, t, m_i, h_i) in zip(shifted, eqs)]
            step = _solve([r for r, _ in rows] + [r for _, r in rows], [-g_i for g_i in g])
        except (OverflowError, ZeroDivisionError):
            break
        z = [z_i + d for z_i, d in zip(z, step)]
    raise ArithmeticError("fold-point Newton iteration did not converge")


def solve_char_system(pointed: gf.PointedSeries, tol: float = 1e-12) -> CharSolution:
    """The branch point of the pointed system: the fold point (x, a, u, c) of
    its unknowns (a, u), a the common R/M value, with v = (1, c), where
    det(I - J) = 0, found by :func:`_fold_point` from a fixed seed."""
    z, m, _, residual = _fold_point(gf._pointed_rhs, (pointed.a_leg,),
                                    (pointed.a_R, pointed.a_U), (0.2, 0.13, 0.07, 0.8), tol)
    return CharSolution(*z, m, residual)


# -- singular expansions --------------------------------------------------

def singular_expansions(char: CharSolution, pointed: gf.PointedSeries,
                        tol: float = 1e-12) -> SingularExpansion:
    """Solve the system at x = rho (1 - X^2) through X^DEG, order by order.

    Let M = J - I and v = (1, char.c) its right null vector, both carried by
    ``char``, w its left null vector and e = v rotated by 90 degrees, so
    M e != 0.  With Y_k = (A_k, U_k), the X^n residual is M Y_n plus terms in
    Y_0..Y_(n-1), so its w-component does not read Y_n.  Step k = 1..DEG-1
    sets Y_k = c v + d e, d from the step before (0 at k = 1, as the X^1
    residual is M Y_1), and Y_(k+1) = 0, and reads the X^(k+1) residual at
    c = 0, 1.  Its w-component fixes c: at k = 1 it is quadratic in c with no
    linear term (Y_1 enters X^2 only through its square), and c takes the
    sign that makes A_1 < 0; at k >= 2 it is affine in c.  The rest of it is
    M e times the next d.  Y_DEG's v-component would need X^(DEG+1): it is 0.
    Over the same leaves, :func:`twolevel.gfsystem.assemble_T` gives T's.
    """
    (p, q), (r, s) = char.j_minus_i
    v, e = (1.0, char.c), (-char.c, 1.0)
    # the larger column of the singular M gives w
    w = (r, -p) if abs(p) + abs(r) >= abs(q) + abs(s) else (s, -q)
    me = (p * e[0] + q * e[1], r * e[0] + s * e[1])
    point = JetPoint(xp(char.rho, 0.0, -char.rho))
    system = gf._pointed_rhs, (pointed.a_leg,), (pointed.a_R, pointed.a_U)
    a, u = xp(char.a_R), xp(char.a_U)
    d = 0.0
    for k in range(1, DEG):
        g = []
        for c in (0.0, 1.0):
            a[k], u[k] = c * v[0] + d * e[0], c * v[1] + d * e[1]
            r_a, r_u = _residuals(point, *system, (a, u))
            g.append((r_a[k + 1], r_u[k + 1]))
        g0, g1 = g
        dg = [y1 - y0 for y0, y1 in zip(g0, g1)]
        t = -_dot(w, g0) / _dot(w, dg)  # c^2 at k = 1, else c
        if k == 1 and not t > 0.0:
            raise ArithmeticError(f"no square-root branch point: A_1^2 ~ {t:.3e}")
        c = -math.sqrt(t) if k == 1 else t
        a[k], u[k] = c * v[0] + d * e[0], c * v[1] + d * e[1]
        d = -_dot(me, [y0 + t * dy for y0, dy in zip(g0, dg)]) / _dot(me, me)
    a[DEG], u[DEG] = d * e[0], d * e[1]
    r_a, r_u = _residuals(point, *system, (a, u))
    g = r_a + r_u
    if not _converged(g, tol):
        raise ArithmeticError("singular-expansion residual above tolerance")
    leaves = gf.PointedSeries(point.leaf(pointed.a_R, a), point.leaf(pointed.a_U, u),
                              point.leaf(pointed.a_leg))
    return SingularExpansion(rho=char.rho, a=a, u=u, t=gf.assemble_T(leaves).head,
                             residual=max(map(abs, g)))


# -- the forest series and transfer ---------------------------------------

def expand_forests(expansion: SingularExpansion, pointed: gf.PointedSeries) -> list[float]:
    """Singular expansion of the forest series MSet(T).

    :func:`twolevel.gfsystem.compute_forests` on the leaf of T with head T's
    expansion.  The tail factor exp(sum_{r>=2} T(x^r)/r) is analytic at rho
    and enters as its value there (MSet at the constant point rho); its X^2
    variation is an analytic term that cannot affect the transferred
    asymptotics, so by convention it is not expanded.
    """
    t = JetPoint(xp(expansion.rho)).leaf(gf.assemble_T(pointed), expansion.t)
    return gf.compute_forests(t).head


def transfer(poly: list[float], tol: float) -> float:
    """Amplitude C of [x^n] ~ C n^POLY_EXPONENT rho^(-n), from the X^3 coefficient.

    Requires a pure square-root branch point: the X^1 coefficient must vanish
    to within ``tol``, the tolerance the expansion was solved to (analytic and
    X^2 terms contribute nothing to the asymptotics at this order).
    [x^n](1 - x/rho)^(3/2) ~ n^(-5/2) rho^(-n) / Gamma(-3/2).
    """
    if abs(poly[1]) > tol:
        raise ArithmeticError(f"X^1 coefficient {poly[1]:.3e} is not negligible; "
                              "not a (1 - x/rho)^(3/2)-type singularity")
    return poly[3] / GAMMA_M32


# -- self-dual bounding series --------------------------------------------

def verify_selfdual_growth(pointed: gf.PointedSeries, s_U_paper: PowerSeries, rho: float,
                           tol: float) -> BranchPointReport:
    """Locate the first branch point of the bounding-series system of
    :func:`twolevel.gfsystem.compute_s_bound` in (0, sqrt(rho)], where the
    pair class at x^2 converges (past sqrt(rho) the truncated evaluations no
    longer describe the system).

    F(x, s) has nonnegative coefficients, so it increases in x and is
    increasing and convex in s >= 0: g(x) = max over s >= 0 of s - F(x, s)
    decreases in x, and s = F(x, s) has a solution exactly where g(x) >= 0
    (Pivoteau-Salvy-Soria, JCTA 2012).  A fold point (s = F, F_s = 1) with
    s >= 0 and F_ss > 0 is the crest of s - F at height 0, so its x is the
    unique root of g: the branch point, found by :func:`_fold_point` from a
    fixed seed; the shipped bound has it at x = 0.39300.  A root past
    sqrt(rho) means no branch point in the window: up to truncation and float
    error, the system has a fixed point throughout it.  Any other outcome
    raises ArithmeticError.
    """
    x_max = math.sqrt(rho)
    (x, s), _, (half_f_ss,), residual = _fold_point(
        gf._s_bound_rhs, (gf.pair_class(pointed, s_U_paper), pointed.a_leg),
        (gf.compute_s_bound(pointed, s_U_paper),), (0.40, 0.45), tol)
    if not (x > 0.0 and s >= 0.0 and half_f_ss > 0.0):
        raise ArithmeticError(
            f"self-dual scan: the fold point at x = {x:.8f}, s = {s:.8f} is not a branch point")
    if x > x_max:
        return BranchPointReport(x_max)
    return BranchPointReport(x_max, x, s, residual)
