"""Singularity analysis for the tree and forest series.

The pointed system has a common square-root branch point at x = rho.  This
module locates it by Newton iteration, computes singular expansions in
X = sqrt(1 - x/rho) one order at a time, transfers the X^3 coefficient to
n^(-5/2) * rho^(-n) growth estimates, and locates the first branch point of
the bounding series for self-dual trees in (0, sqrt(rho)]; the shipped bound
has one at x = 0.39300, so it grows like 2.5445^n rather than rho^(-n/2).

Every equation is written once, in :mod:`twolevel.gfsystem`, and runs over
three rings.  Integer series give the exact counts (``OnlineSeries`` in the
fixed-point solver, ``PowerSeries`` elsewhere).  The float ring here
(:class:`Jet` over a :class:`JetPoint` x(X)) gives the value of the same
right-hand side along x(X), as a polynomial in X:

- at a constant point, with one unknown set to its value plus X, the X^0..X^2
  coefficients are the value and its exact first and half second inner
  derivatives (the self-dual scan); with unknowns y + X v + X^2 e_k, the
  residual F - y to third order, and at x(X) = x0 + X^2 with y + X v, F_x
  and d/dx (J v) too (the branch-point Newton iteration, see _fold_system);
  with the expansion of T at r = 1, the forest series, its tail taken at rho;
- at x(X) = rho (1 - X^2), with the unknowns set to their expansions, it
  is the residual of the singular expansion, or the expansion of T.

Polynomials in X are plain lists of DEG + 1 floats (index = power of X),
truncated after degree DEG, and the linear solves are Gaussian elimination.
No solver takes a finite difference, and every one stops at one tolerance,
the run's ``--tol``.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from . import gfsystem as gf
from .powerseries import PowerSeries

DEG = 5
TAIL_EPS = 1e-20

GAMMA_M32 = math.gamma(-1.5)  # 4*sqrt(pi)/3


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
    residual: float  # max-norm of the residual coefficients X^0..X^DEG


class BranchPointReport(NamedTuple):
    """Outcome of the subcritical branch-point scan for the bounding series."""

    no_branch_point: bool
    x_max: float
    branch_x: float | None = None
    branch_s: float | None = None
    residual: float | None = None  # |g| where the scan stopped at branch_x

    def describe(self) -> str:
        if self.no_branch_point:
            return f"no branch point in (0, {self.x_max:.8f}]"
        return (
            f"branch point at x = {self.branch_x:.8f} (s = {self.branch_s:.8f}), "
            f"inside (0, {self.x_max:.8f}]"
        )


class AsymptoticEstimate(NamedTuple):
    """count(n) ~ amplitude * n^poly_exponent * growth_rate^n."""

    amplitude: float
    poly_exponent: float
    growth_rate: float

    def value(self, n: int) -> float:
        return self.amplitude * n**self.poly_exponent * self.growth_rate**n


# -- X-polynomial arithmetic ---------------------------------------------

def xp(*coeffs: float) -> list[float]:
    return [float(c) for c in coeffs] + [0.0] * (DEG + 1 - len(coeffs))


def xp_mul(p: list[float], q: list[float]) -> list[float]:
    """Product truncated after X^DEG (DEG = 5), unrolled."""
    p0, p1, p2, p3, p4, p5 = p
    q0, q1, q2, q3, q4, q5 = q
    return [p0 * q0, p0 * q1 + p1 * q0, p0 * q2 + p1 * q1 + p2 * q0,
            p0 * q3 + p1 * q2 + p2 * q1 + p3 * q0,
            p0 * q4 + p1 * q3 + p2 * q2 + p3 * q1 + p4 * q0,
            p0 * q5 + p1 * q4 + p2 * q3 + p3 * q2 + p4 * q1 + p5 * q0]


def _xp_add(p: list[float], q: list[float]) -> list[float]:
    return [a + b for a, b in zip(p, q)]


def _xp_sub(p: list[float], q: list[float]) -> list[float]:
    return [a - b for a, b in zip(p, q)]


def _xp_sum(polys) -> list[float]:
    return [sum(cs) for cs in zip(*polys)]


def xp_pow(p: list[float], r: int) -> list[float]:
    out = xp(1.0)
    for _ in range(r):
        out = xp_mul(out, p)
    return out


def xp_exp(p: list[float]) -> list[float]:
    """exp of an X-polynomial (constant term allowed), from E' = p' E."""
    out = xp(math.exp(p[0]))
    for n in range(1, DEG + 1):
        out[n] = sum(k * p[k] * out[n - k] for k in range(1, n + 1)) / n
    return out


def series_at_xpoly(series: PowerSeries, arg: list[float]) -> list[float]:
    """Expansion of series(arg(X)) as an X-polynomial, by Horner's rule.

    The series is a plain truncated polynomial, so the only error is its
    truncation (negligible when |arg[0]| is well inside the radius).
    """
    out = xp()
    for c in reversed(series.coeffs):
        out = xp_mul(out, arg)
        out[0] += float(c)
    return out


# -- the float ring -------------------------------------------------------

class JetPoint:
    """The argument x(X) of a ring evaluation; caches the leaves read at it."""

    def __init__(self, x_of_X: list[float]):
        if not abs(x_of_X[0]) < 1:
            raise ValueError("ring evaluation requires |x(0)| < 1")
        self.x = x_of_X
        self._leaves: dict[PowerSeries, Jet] = {}

    def leaf(self, series: PowerSeries, at1: list[float] | None = None) -> "Jet":
        """series(x(X)^r) as a ring element; ``at1`` replaces its value at r = 1."""
        base = self._leaves.get(series)
        if base is None:
            base = self._leaves[series] = _leaf(series, self.x)
        if at1 is None:
            return base
        return Jet(base.x0, lambda r: at1 if r == 1 else base(r))


def _leaf(series: PowerSeries, x_of_X: list[float]) -> "Jet":
    """r -> series(x(X)^r); past the cutoff only the constant term is left."""
    x0 = x_of_X[0]
    constant = not any(x_of_X[1:])
    coeffs = [float(c) for c in reversed(series.coeffs)]  # converted once

    def at(r: int) -> list[float]:
        y = x0**r
        if abs(y) <= TAIL_EPS:
            return xp(coeffs[-1])
        if not constant:
            return series_at_xpoly(series, xp_pow(x_of_X, r))
        v = 0.0
        for c in coeffs:  # one Horner pass
            v = v * y + c
        return xp(v)

    return Jet(x0, at, memo=True)


class Jet:
    """Element f of the float ring: r -> f(x(X)^r) as X-polynomials, on demand.

    The right-hand sides of :mod:`twolevel.gfsystem` run on these unchanged:
    ring operations act on each r separately, a(x^k) reads index k r, and
    MSet at r is exp(sum_k f(x^(r k))/k) over k = 1 and every further k
    with |x0|^(r k) > TAIL_EPS.  The cutoff point x0 is x(0) for a leaf,
    x0^k after substitute_power(k), and the larger in absolute value of the
    operands' for a sum or product.
    """

    __slots__ = ("x0", "_at", "_memo")

    def __init__(self, x0: float, at, memo: bool = False):
        self.x0 = x0
        self._at = at
        # only values that cost a Horner pass or a sum over k are kept; the
        # rest are a few list operations, cheaper to redo than to hold
        self._memo: dict[int, list[float]] | None = {} if memo else None

    def __call__(self, r: int = 1) -> list[float]:
        if self._memo is None:
            return self._at(r)
        v = self._memo.get(r)
        if v is None:
            v = self._memo[r] = self._at(r)
        return v

    def _multiples(self, r: int) -> range:
        k = 1
        while abs(self.x0) ** (r * (k + 1)) > TAIL_EPS:
            k += 1
        return range(1, k + 1)

    def _zip(self, other, op) -> "Jet":
        if isinstance(other, int):  # a constant, the same at every r
            c = xp(other)
            return Jet(self.x0, lambda r: op(self(r), c))
        if not isinstance(other, Jet):
            return NotImplemented
        # the cutoff of the operand that reaches further, so that no sum or
        # product cuts a term that one of its operands still needs
        x0 = max(self.x0, other.x0, key=abs)
        return Jet(x0, lambda r: op(self(r), other(r)))

    def __add__(self, other):
        return self._zip(other, _xp_add)

    def __sub__(self, other):
        return self._zip(other, _xp_sub)

    def __mul__(self, other):
        return self._zip(other, xp_mul)

    __rmul__ = __mul__

    def __truediv__(self, k: int) -> "Jet":
        return Jet(self.x0, lambda r: [c / k for c in self(r)])

    def substitute_power(self, k: int) -> "Jet":
        # f(x^k) is cut where x0^k is, as a leaf at the point x0^k would be
        return Jet(self.x0**k, lambda r: self(k * r))

    def substitution_sum(self) -> "Jet":
        return Jet(self.x0, lambda r: _xp_sum(self(r * k) for k in self._multiples(r)),
                   memo=True)

    def mset(self, signed: bool = False) -> "Jet":
        sign = -1.0 if signed else 1.0
        return Jet(self.x0, lambda r: xp_exp(
            _xp_sum([c * (sign**k / k) for c in self(r * k)] for k in self._multiples(r))),
            memo=True)

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


# -- characteristic system -----------------------------------------------

def _pointed_residuals(point: JetPoint, a: list[float], u: list[float],
                       a_R: PowerSeries, a_U: PowerSeries):
    """F_R - a and F_U - u over the ring, with a_R = a and a_U = u at r = 1."""
    new_R, new_U = gf._pointed_rhs(point.leaf(PowerSeries.x(a_R.order)),
                                   point.leaf(a_R, a), point.leaf(a_U, u))
    return _xp_sub(new_R(), a), _xp_sub(new_U(), u)


def _fold_system(x: float, a: float, u: float, c: float,
                 a_R: PowerSeries, a_U: PowerSeries):
    """The residual (F - y, (J - I) v) at (x, a, u, c), J - I, and the exact
    Jacobian in (x, a, u, c) on demand (Moore-Spence, SIAM J. Numer. Anal.
    1980, for this fold-point system).

    Two evaluations at the constant point x, with y + X v + X^2 e_k for
    k = a, u, read F - y at X^0, (J - I) v at X^1, (J - I) e_k + H[v, v]/2
    at X^2 and H[v, e_k] + T[v, v, v]/6 at X^3; as v = e_a + c e_u, together
    they give H[v, v]/2 and T[v, v, v]/6, over 1 + c.  The x-column costs one
    evaluation at x + X^2 with y + X v, whose X^2 and X^3 coefficients carry
    F_x and d/dx (J v) in place of (J - I) e_k and H[v, e_k].
    """
    here = JetPoint(xp(x))
    by_a = _pointed_residuals(here, xp(a, 1.0, 1.0), xp(u, c), a_R, a_U)
    by_u = _pointed_residuals(here, xp(a, 1.0), xp(u, c, 1.0), a_R, a_U)
    curv = []  # (H[v, v]/2, T[v, v, v]/6) of the R- and of the U-residual
    for p, q in zip(by_a, by_u):
        hvv = (p[2] + c * q[2] - p[1]) / (1.0 + c)
        curv.append((hvv, (p[3] + c * q[3] - 2.0 * hvv) / (1.0 + c)))
    m = tuple((p[2] - h, q[2] - h) for p, q, (h, _) in zip(by_a, by_u, curv))

    def jacobian() -> list[list[float]]:
        shifted = _pointed_residuals(JetPoint(xp(x, 0.0, 1.0)), xp(a, 1.0), xp(u, c),
                                     a_R, a_U)
        return ([[s[2] - h, *m_i, 0.0] for s, m_i, (h, _) in zip(shifted, m, curv)]
                + [[s[3] - t, p[3] - t, q[3] - t, m_i[1]]
                   for s, p, q, m_i, (_, t) in zip(shifted, by_a, by_u, m, curv)])

    return [p[0] for p in by_a] + [p[1] for p in by_a], m, jacobian


def solve_char_system(
    a_R: PowerSeries,
    a_U: PowerSeries,
    seed: tuple[float, float, float, float] = (0.2, 0.13, 0.07, 0.8),
    tol: float = 1e-12,
    max_iter: int = 100,
) -> CharSolution:
    """Newton iteration for the branch point of the pointed system.

    Unknowns (x, a, u, c) with a the common R/M value; conditions F = y and
    (J - I) v = 0 with v = (1, c), J the Jacobian of F in y = (a, u): the
    fold-point system, which holds where det(I - J) = 0.  Its Jacobian is
    exact (:func:`_fold_system`) and its x-column is evaluated only when a
    step is taken.  An iterate outside the ring's domain (|x| >= 1, or a
    value that is not finite) or a singular step ends the iteration.
    """
    x, a, u, c = seed
    for _ in range(max_iter):
        if not (abs(x) < 1.0 and all(map(math.isfinite, (a, u, c)))):
            break
        try:
            g, m, jacobian = _fold_system(x, a, u, c, a_R, a_U)
            if _converged(g, tol):
                return CharSolution(rho=x, a_R=a, a_U=u, c=c, j_minus_i=m,
                                    residual=max(map(abs, g)))
            dx, da, du, dc = _solve(jacobian(), [-gi for gi in g])
        except (OverflowError, ZeroDivisionError):
            break
        x, a, u, c = x + dx, a + da, u + du, c + dc
    raise ArithmeticError("branch-point Newton iteration did not converge")


# -- singular expansions --------------------------------------------------

def _branch_point(rho: float) -> JetPoint:
    """x(X) = rho (1 - X^2)."""
    return JetPoint(xp(rho, 0.0, -rho))


def singular_expansions(
    char: CharSolution,
    a_R: PowerSeries,
    a_U: PowerSeries,
    tol: float = 1e-12,
) -> SingularExpansion:
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
    """
    (p, q), (r, s) = char.j_minus_i
    v, e = (1.0, char.c), (-char.c, 1.0)
    # the larger column of the singular M gives w
    w = (r, -p) if abs(p) + abs(r) >= abs(q) + abs(s) else (s, -q)
    me = (p * e[0] + q * e[1], r * e[0] + s * e[1])
    point = _branch_point(char.rho)
    a, u = xp(char.a_R), xp(char.a_U)
    d = 0.0
    for k in range(1, DEG):
        g = []
        for c in (0.0, 1.0):
            a[k], u[k] = c * v[0] + d * e[0], c * v[1] + d * e[1]
            r_a, r_u = _pointed_residuals(point, a, u, a_R, a_U)
            g.append((r_a[k + 1], r_u[k + 1]))
        g0, g1 = g
        dg = [y1 - y0 for y0, y1 in zip(g0, g1)]
        t = -_dot(w, g0) / _dot(w, dg)  # c^2 at k = 1, else c
        if k == 1 and not t > 0.0:
            raise ArithmeticError(f"no square-root branch point: A_1^2 ~ {t:.3e}")
        c = math.copysign(math.sqrt(t), -v[0]) if k == 1 else t
        a[k], u[k] = c * v[0] + d * e[0], c * v[1] + d * e[1]
        d = -_dot(me, [y0 + t * dy for y0, dy in zip(g0, dg)]) / _dot(me, me)
    a[DEG], u[DEG] = d * e[0], d * e[1]
    r_a, r_u = _pointed_residuals(point, a, u, a_R, a_U)
    g = r_a + r_u
    if not _converged(g, tol):
        raise ArithmeticError("singular-expansion residual above tolerance")
    return SingularExpansion(rho=char.rho, a=a, u=u, residual=max(map(abs, g)))


# -- singular expansion of T and the forest series ------------------------

def expand_T(exp_: SingularExpansion, a_R: PowerSeries, a_U: PowerSeries) -> list[float]:
    """Singular expansion of the unrooted series T via dissymmetry.

    :func:`twolevel.gfsystem.assemble_T` evaluated over the ring at the
    branch point, with the pointed expansions at r = 1.
    """
    point = _branch_point(exp_.rho)
    p = gf.PointedSeries(point.leaf(a_R, exp_.a), point.leaf(a_U, exp_.u),
                         point.leaf(PowerSeries.x(a_R.order)))
    return gf.assemble_T(p).t()


def expand_forests(t_poly: list[float], t_series: PowerSeries, rho: float) -> list[float]:
    """Singular expansion of the forest series MSet(T).

    The tail factor exp(sum_{r>=2} T(x^r)/r) is analytic at rho and enters as
    its value there (MSet at the constant point rho); its X^2 variation is an
    analytic term that cannot affect the transferred asymptotics, so by
    convention it is not expanded.
    """
    return JetPoint(xp(rho)).leaf(t_series, t_poly).mset()()


def transfer(poly: list[float], rho: float, tol: float) -> AsymptoticEstimate:
    """Growth estimate from the X^3 coefficient of a singular expansion.

    Requires a pure square-root branch point: the X^1 coefficient must vanish
    to within ``tol``, the tolerance the expansion was solved to (analytic and
    X^2 terms contribute nothing to the asymptotics at this order).
    [x^n](1 - x/rho)^(3/2) ~ n^(-5/2) rho^(-n) / Gamma(-3/2).
    """
    if abs(poly[1]) > tol:
        raise ArithmeticError(
            f"X^1 coefficient {poly[1]:.3e} is not negligible; "
            "not a (1 - x/rho)^(3/2)-type singularity"
        )
    return AsymptoticEstimate(
        amplitude=poly[3] / GAMMA_M32,
        poly_exponent=-2.5,
        growth_rate=1.0 / rho,
    )


# -- self-dual bounding series --------------------------------------------

def verify_selfdual_growth(
    s_bound: PowerSeries,
    pair_series: PowerSeries,
    rho: float,
    tol: float,
) -> BranchPointReport:
    """Locate the first branch point of the bounding-series system in
    (0, sqrt(rho)], where the pair class at x^2 converges (past sqrt(rho)
    the truncated evaluations no longer describe the system).

    F(x, s) has nonnegative coefficients, so it increases in x and is
    increasing and convex in s >= 0: g(x) = max over s >= 0 of s - F(x, s)
    decreases in x, and s = F(x, s) has a solution exactly where g(x) >= 0
    (Pivoteau-Salvy-Soria, JCTA 2012).  g is read at its crest F_s = 1 (or
    s = 0), found by Newton with exact F_s and F_ss; an inexact crest only
    lowers g.  The root of g is the branch point, found by regula falsi
    (Illinois); the shipped bound has it at x = 0.39300.  "No branch point"
    means g(sqrt(rho)) >= 0: up to truncation and float error, the system
    has a fixed point throughout the window.
    """
    leg = PowerSeries.x(s_bound.order)

    def crest(x: float, s: float) -> tuple[float, float]:
        # g(x) and the crest, by Newton on F_s = 1 from s; F, F_s and
        # F_ss / 2 are the X^0..X^2 coefficients with s + X at r = 1
        point = JetPoint(xp(x))
        for _ in range(100):
            (f,) = gf._s_bound_rhs(point.leaf(pair_series), point.leaf(leg),
                                   point.leaf(s_bound, xp(s, 1.0)))
            f0, f_s, half_f_ss = f()[:3]
            if abs(1.0 - f_s) <= tol or (s == 0.0 and f_s >= 1.0):
                return s - f0, s
            s = max(0.0, s + (1.0 - f_s) / (2.0 * half_f_ss))
        raise ArithmeticError(f"self-dual scan: no crest found at x = {x:.8f}")

    x_max = math.sqrt(rho)
    b, (g_b, s) = x_max, crest(x_max, 0.0)
    if g_b >= 0.0:
        return BranchPointReport(no_branch_point=True, x_max=x_max)
    # g > 0 at the lower end is checked; g(0+) = max of s - e^s + 1 + s + s^2/2 > 0
    a, (g_a, s) = x_max / 2.0, crest(x_max / 2.0, s)
    while not g_a > 0.0:
        b, g_b, a = a, g_a, a / 2.0
        g_a, s = crest(a, s)
    # Illinois: b is the newest point; the value at a is halved when a is kept
    for _ in range(100):
        x = b - g_b * (b - a) / (g_b - g_a)
        g, s = crest(x, s)
        if abs(g) <= tol:
            return BranchPointReport(no_branch_point=False, x_max=x_max,
                                     branch_x=x, branch_s=s, residual=abs(g))
        if (g > 0.0) != (g_b > 0.0):
            a, g_a = b, g_b
        else:
            g_a /= 2.0
        b, g_b = x, g
    raise ArithmeticError("self-dual scan: regula falsi did not converge")
