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

- at a constant point x(X) = x0, with one unknown set to its value plus X,
  the X^0 coefficient is the value, the X^1 coefficient the exact inner
  derivative (branch-point Newton, self-dual scan) and the X^2 coefficient
  half the second one (the Newton step of the self-dual scan); with the
  expansion of T at r = 1 it gives the forest series, its tail taken at rho;
- at x(X) = rho (1 - X^2), with the unknowns set to their expansions, it
  is the residual of the singular expansion, or the expansion of T.

Polynomials in X are plain lists of DEG + 1 floats (index = power of X),
truncated after degree DEG, and the linear solves are Gaussian elimination.
The singular expansion is solved order by order in X, with the exact J - I at
rho; the self-dual scan is a 1-D bracketed solve with exact s-derivatives.
FD_STEP remains only for the Jacobian of the branch-point Newton iteration.
Every solver stops at one tolerance, the run's ``--tol``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import gfsystem as gf
from .powerseries import PowerSeries

DEG = 5
TAIL_EPS = 1e-20
FD_STEP = 1e-7

GAMMA_M32 = math.gamma(-1.5)  # 4*sqrt(pi)/3


@dataclass(frozen=True)
class CharSolution:
    """Branch point of the pointed system and the series values there."""

    rho: float
    a_R: float  # = a_M by symmetry
    a_U: float
    residual: float  # max-norm of the defining equations, below the tol


@dataclass(frozen=True)
class SingularExpansion:
    """Expansions a(x), u(x) in powers of X = sqrt(1 - x/rho), degree <= DEG."""

    rho: float
    a: list[float]
    u: list[float]
    residual: float  # max-norm of the residual coefficients X^0..X^DEG


@dataclass(frozen=True)
class BranchPointReport:
    """Outcome of the subcritical branch-point scan for the bounding series."""

    no_branch_point: bool
    x_max: float
    branch_x: float | None = None
    branch_s: float | None = None

    def describe(self) -> str:
        if self.no_branch_point:
            return f"no branch point in (0, {self.x_max:.8f}]"
        return (
            f"branch point at x = {self.branch_x:.8f} (s = {self.branch_s:.8f}), "
            f"inside (0, {self.x_max:.8f}]"
        )


@dataclass(frozen=True)
class AsymptoticEstimate:
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


def _newton_step(g: list[float], shifted: list[list[float]]) -> list[float]:
    """The step -J^-1 g, with column j of J the forward difference
    (shifted[j] - g) / FD_STEP of the residual g along unknown j."""
    jac = [[(col[i] - gi) / FD_STEP for col in shifted] for i, gi in enumerate(g)]
    return _solve(jac, [-gi for gi in g])


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


def _linearization(point: JetPoint, a: float, u: float,
                   a_R: PowerSeries, a_U: PowerSeries):
    """Fixed-point residuals at (x, a, u) and the exact J - I there.

    With one unknown set to its value plus X, the X^1 coefficients of the
    residuals are a column of J - I, J the Jacobian in (a, u).
    """
    r_a, s_a = _pointed_residuals(point, xp(a, 1.0), xp(u), a_R, a_U)
    r_u, s_u = _pointed_residuals(point, xp(a), xp(u, 1.0), a_R, a_U)
    return [r_a[0], s_a[0]], [[r_a[1], r_u[1]], [s_a[1], s_u[1]]]


def _char_residual(point: JetPoint, a: float, u: float,
                   a_R: PowerSeries, a_U: PowerSeries) -> list[float]:
    """Fixed-point residuals at (x, a, u) and det(J - I)."""
    g, ((p, q), (r, s)) = _linearization(point, a, u, a_R, a_U)
    return [*g, p * s - q * r]


def solve_char_system(
    a_R: PowerSeries,
    a_U: PowerSeries,
    seed: tuple[float, float, float] = (0.2, 0.13, 0.07),
    tol: float = 1e-12,
    max_iter: int = 100,
) -> CharSolution:
    """Newton iteration for the branch point of the pointed system.

    Unknowns (x, a, u) with a the common R/M value.  Conditions: a and u are
    fixed by the system and its Jacobian J in (a, u) satisfies det(I - J) = 0.
    """
    x, a, u = seed
    for _ in range(max_iter):
        here = JetPoint(xp(x))
        g = _char_residual(here, a, u, a_R, a_U)
        if _converged(g, tol):
            return CharSolution(rho=x, a_R=a, a_U=u, residual=max(map(abs, g)))
        dx, da, du = _newton_step(g, [
            _char_residual(JetPoint(xp(x + FD_STEP)), a, u, a_R, a_U),
            _char_residual(here, a + FD_STEP, u, a_R, a_U),
            _char_residual(here, a, u + FD_STEP, a_R, a_U),
        ])
        x, a, u = x + dx, a + da, u + du
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

    Let M = J - I at the branch point, v and w its right and left null
    vectors, and e = v rotated by 90 degrees, so M e != 0.  With
    Y_k = (A_k, U_k), the X^n residual is M Y_n plus terms in Y_0..Y_(n-1), so
    its w-component does not read Y_n.  Step k = 1..DEG-1 sets
    Y_k = c v + d e, d from the step before (0 at k = 1, as the X^1 residual
    is M Y_1), and Y_(k+1) = 0, and reads the X^(k+1) residual at c = 0, 1.
    Its w-component fixes c: at k = 1 it is quadratic in c with no linear
    term (Y_1 enters X^2 only through its square), and c takes the sign that
    makes A_1 < 0; at k >= 2 it is affine in c.  The rest of it is M e times
    the next d.  The v-component of Y_DEG would need X^(DEG+1) and stays 0.
    """
    _, ((p, q), (r, s)) = _linearization(JetPoint(xp(char.rho)), char.a_R, char.a_U,
                                         a_R, a_U)
    # the larger row of the singular M gives v, the larger column gives w
    v = (q, -p) if abs(p) + abs(q) >= abs(r) + abs(s) else (s, -r)
    w = (r, -p) if abs(p) + abs(r) >= abs(q) + abs(s) else (s, -q)
    e = (-v[1], v[0])
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
                                     branch_x=x, branch_s=s)
        if (g > 0.0) != (g_b > 0.0):
            a, g_a = b, g_b
        else:
            g_a /= 2.0
        b, g_b = x, g
    raise ArithmeticError("self-dual scan: regula falsi did not converge")
