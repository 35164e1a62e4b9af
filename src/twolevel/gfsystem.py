"""Generating-function system for UMR-trees.

Writes the fixed-point equations for the pointed tree series, assembles the
unrooted series T(x) and S2(x) (self-dual trees) by the dissymmetry identity,
and derives the self-dual pointed, bounding and forest series.  Each of these
is one ``PowerSeries`` returned by its own function, so a caller solves only
the series it reads; only the pointed solve returns its series together.

Duality swaps R- and M-vertices, so the M-pointed series equals the R-pointed
one.  The pointed system is solved on that slice, a_M = a_R, in two unknowns
(a_R, a_U); ``PointedSeries.a_M`` reads a_R.

The right-hand sides use only +, -, *, integer constants, division by an
integer, a(x^k), sum_r a(x^r) and the multiset operators, so
:func:`twolevel.powerseries.fixed_point` solves them over the online integer
ring and :mod:`twolevel.asymptotics` runs them over its float ring.
"""
from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .powerseries import PowerSeries, fixed_point


class PointedSeries(NamedTuple):
    """Series of trees pointed at an R-, M-, U-vertex, or a leg."""

    a_R: PowerSeries
    a_U: PowerSeries
    a_leg: PowerSeries

    @property
    def a_M(self) -> PowerSeries:
        """Duality swaps R and M, so the M-pointed series is the R-pointed one."""
        return self.a_R


def _pointed_rhs(leg, a_R, a_U):
    # on the slice a_M = a_R, where the M-equation is the R-equation
    f = a_R + a_U + leg
    s = f + a_R
    e = s.mset()
    lin = s.substitution_sum()
    # R: multisets of at least two components.  U: the terms in s_n cancel
    # (1 + 1 - 2), so coefficient n needs only lower ones.
    new_R = f.mset() - 1 - f
    new_U = e * lin + s - 2 * e + 2
    return new_R, new_U


def solve_pointed(order: int) -> PointedSeries:
    """Solve the pointed-series fixed point from the zero seed."""
    if order < 2:
        raise ValueError("order must be >= 2")
    leg = PowerSeries.x(order)
    a_R, a_U = fixed_point(_pointed_rhs, (leg,), 2)
    return PointedSeries(a_R, a_U, leg)


def assemble_T(p: PointedSeries) -> PowerSeries:
    """Unrooted series by the dissymmetry identity T = T_v + T_e - T_d
    (Bergeron-Labelle-Leroux 1998, section 4.1), in collected form.

    With A = a_R = a_M, U = a_U, L = leg, f = A + U + L and s = f + A, term
    by term: T_v = t_R + t_M + t_U + L(2A + U), with t_M = t_R; T_e = A f +
    A(U + L) + mset2(U) + L U, the M-R, M-U, M-leg, R-U, R-leg, U-U and
    U-leg edges; T_d = A f + A f + U s + L(2A + U), the same edges directed
    from their M-, R- and U-end and from the leg.  One A f and the leg terms
    L(2A + U) cancel, A(U + L) - A f = -A^2 and L U - U s = -2 A U - U^2, so
    T = 2 t_R + t_U + mset2(U) - (A + U)^2.
    """
    a, u, leg = p.a_R, p.a_U, p.a_leg
    a_u = a + u
    f = a_u + leg
    s = f + a
    t_R = a - f.mset2()
    # multisets of at least three components
    t_U = u - (s.mset() - 1 - s - s.mset2())
    return 2 * t_R + t_U + u.mset2() - a_u * a_u


def pair_class(p: PointedSeries, s_U: PowerSeries) -> PowerSeries:
    """The dual-pair class: pointed trees that are not self-dual.  R- and
    M-pointed trees pair across the two series, U-pointed ones within
    a_U - s_U, so each unordered pair {t, t*} is counted twice.  Both
    self-dual equations, S2 and the bounding series read this class."""
    return p.a_R + p.a_M + (p.a_U - s_U)


# what the pair class at x^2 is divided by: the paper's equation keeps both
# counts of each pair, the corrected one counts each unordered pair once
_PAIR_DIVISOR = {"paper": 1, "corrected": 2}


def _dual_pairs(variant, p, s_U):
    # divided after the substitution, which reads only settled coefficients
    if variant not in _PAIR_DIVISOR:
        raise ValueError(f"unknown self-dual variant {variant!r}")
    return pair_class(p, s_U).substitute_power(2) / _PAIR_DIVISOR[variant]


def assemble_S2(p: PointedSeries, s_U: PowerSeries) -> PowerSeries:
    """Self-dual UMR-trees S2(x), from the corrected self-dual pointed series.

    Duality commutes with the dissymmetry identity, so S2 = S_v + S_e - S_d
    on the duality-fixed classes (Bergeron-Labelle-Leroux 1998, section 4.1):
    S_v = E MSet(P) - 1 - mset2(core) - P + leg s_U, S_e = leg s_U +
    mset2(s_U) + P and S_d = s_U^2 + 2 leg s_U, where core = s_U + leg, E
    holds the multisets of core with an even number of parts, P the dual pairs.
    Collected, mset2(s_U) - s_U^2 = (s_U(x^2) - s_U^2)/2.
    """
    core = s_U + p.a_leg
    even = (core.mset() + core.mset(signed=True)) / 2
    pairs = _dual_pairs("corrected", p, s_U)
    return even * pairs.mset() - 1 - core.mset2() + (s_U.substitute_power(2) - s_U * s_U) / 2


def _selfdual_rhs(variant, a_R, a_U, leg, s_U):
    pairs = _dual_pairs(variant, PointedSeries(a_R, a_U, leg), s_U)
    core = s_U + leg
    odd = core.mset_odd()
    # odd multisets of at least three, plus nonempty pair multisets times odd ones
    return (pairs.mset() * odd - core,)


def compute_selfdual(p: PointedSeries, variant: str) -> PowerSeries:
    """Self-dual U-pointed series, "paper" or "corrected" pair counting."""
    (s_U,) = fixed_point(partial(_selfdual_rhs, variant), p, 1)
    return s_U


def _s_bound_rhs(pairs, leg, s):
    core = s + leg
    e = core.mset()
    pair_sets = pairs.substitute_power(2).mset()  # the pair class lives at x^2
    # multisets of at least three, plus nonempty pair multisets times nonempty ones
    return (pair_sets * (e - 1) - core - core.mset2(),)


def compute_s_bound(p: PointedSeries, s_U_paper: PowerSeries) -> PowerSeries:
    """Bounding series dominating the self-dual pointed series."""
    (s,) = fixed_point(_s_bound_rhs, (pair_class(p, s_U_paper), p.a_leg), 1)
    return s


def compute_forests(t: PowerSeries) -> PowerSeries:
    """Multisets of UMR-trees, MSet(T): the 2-level matroids whose every
    connected component has at least 3 elements, as T starts at n = 3.
    MSet(2x + x^2 + T), with the loop, the coloop and U(1,2), counts all
    2-level matroids."""
    return t.mset()

