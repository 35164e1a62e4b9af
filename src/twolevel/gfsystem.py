"""Generating-function system for UMR-trees.

Solves the coupled fixed-point equations for the pointed tree series, assembles
the unrooted series T(x) by the dissymmetry identity, and derives the self-dual
and bounding series plus the forest series MSet(T).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .powerseries import PowerSeries


@dataclass(frozen=True)
class PointedSeries:
    """Series of trees pointed at an R-, M-, U-vertex, or a leg."""

    a_R: PowerSeries
    a_M: PowerSeries
    a_U: PowerSeries
    a_leg: PowerSeries


@dataclass(frozen=True)
class UnrootedSeries:
    """T(x) together with its vertex-, edge-, and directed-edge-rooted parts."""

    t: PowerSeries
    t_v: PowerSeries
    t_e: PowerSeries
    t_d: PowerSeries


@dataclass(frozen=True)
class SelfDualSeries:
    """Self-dual pointed series (both variants) and the bounding series."""

    s_U_paper: PowerSeries
    s_U_corrected: PowerSeries
    s_bound: PowerSeries


def _fixed_point(rhs, known, unknowns: int):
    """Solve ys = rhs(*known, *ys) for a tuple of series ys, seeded with zeros.

    The system must be well founded: coefficient m of every right-hand side
    depends only on coefficients below m of the unknowns.  Pass m runs at
    truncation m and so pins coefficient m; a final pass at full order must
    then reproduce the solution.
    """
    order = known[0].order
    ys = (PowerSeries.zeros(order),) * unknowns
    for m in range(order + 1):
        new = rhs(*(a.truncate(m) for a in (*known, *ys)))
        ys = tuple(y.extended(order) for y in new)
    if tuple(rhs(*known, *ys)) != ys:
        raise ArithmeticError("fixed point did not converge to residual 0")
    return ys


def _pointed_rhs(leg, a_R, a_M, a_U):
    one = PowerSeries.one(leg.order)
    f_R = a_M + a_U + leg
    f_M = a_R + a_U + leg
    s = a_R + a_M + a_U + leg
    e = s.mset()
    lin = s
    for r in range(2, leg.order + 1):
        lin = lin + s.substitute_power(r)
    # R and M: multisets of at least two components.  U: the terms in s_n
    # cancel (1 + 1 - 2), so coefficient n needs only lower ones.
    new_R = f_R.mset() - one - f_R
    new_M = f_M.mset() - one - f_M
    new_U = e * lin + s - 2 * e + 2 * one
    return new_R, new_M, new_U


def solve_pointed(order: int) -> PointedSeries:
    """Solve the pointed-series fixed point from the zero seed."""
    if order < 2:
        raise ValueError("order must be >= 2")
    leg = PowerSeries.x(order)
    a_R, a_M, a_U = _fixed_point(_pointed_rhs, (leg,), 3)
    return PointedSeries(a_R, a_M, a_U, leg)


def pointed_residuals(p: PointedSeries) -> tuple[PowerSeries, PowerSeries, PowerSeries]:
    """Defining-equation residuals; all-zero for a valid fixed point."""
    r, s, u = _pointed_rhs(p.a_leg, p.a_R, p.a_M, p.a_U)
    return r - p.a_R, s - p.a_M, u - p.a_U


def assemble_T(p: PointedSeries) -> UnrootedSeries:
    """Unrooted series by the dissymmetry identity T = T_v + T_e - T_d."""
    a_R, a_M, a_U, leg = p.a_R, p.a_M, p.a_U, p.a_leg
    s = a_R + a_M + a_U + leg
    t_e = a_M * (a_R + a_U + leg) + a_R * (a_U + leg) + a_U.mset2() + leg * a_U
    t_d = (
        a_M * (a_R + a_U + leg)
        + a_R * (a_M + a_U + leg)
        + a_U * s
        + leg * (a_R + a_M + a_U)
    )
    t_bullet = leg * (a_R + a_M + a_U)
    t_R = a_R - (a_M + a_U + leg).mset2()
    t_M = a_M - (a_R + a_U + leg).mset2()
    # multisets of at least three components
    t_U = a_U - (s.mset() - PowerSeries.one(s.order) - s - s.mset2())
    t_v = t_R + t_M + t_U + t_bullet
    t = t_v + t_e - t_d
    return UnrootedSeries(t, t_v, t_e, t_d)


def _selfdual_rhs(variant, a_R, a_M, a_U, leg, s_U):
    if variant == "paper":
        pairs = (
            a_R.substitute_power(2)
            + a_M.substitute_power(2)
            + (a_U - s_U).substitute_power(2)
        )
    elif variant == "corrected":
        # one contribution per unordered dual pair {t, t*}; halved after the
        # substitution, where the iterate's unsettled top coefficient is gone
        pairs = a_R.substitute_power(2) + (a_U - s_U).substitute_power(2) / 2
    else:
        raise ValueError(f"unknown self-dual variant {variant!r}")
    core = s_U + leg
    odd = core.mset_odd()
    # odd multisets of at least three, plus pair multisets times odd ones
    return (odd - core + (pairs.mset() - PowerSeries.one(core.order)) * odd,)


def compute_selfdual(p: PointedSeries, variant: str) -> PowerSeries:
    """Self-dual U-pointed series, "paper" or "corrected" pair counting."""
    (s_U,) = _fixed_point(partial(_selfdual_rhs, variant),
                          (p.a_R, p.a_M, p.a_U, p.a_leg), 1)
    return s_U


def _s_bound_rhs(a_R, a_M, n_U, leg, s):
    pairs = a_R.substitute_power(2) + a_M.substitute_power(2) + n_U.substitute_power(2)
    one = PowerSeries.one(leg.order)
    core = s + leg
    e = core.mset()
    # multisets of at least three, plus nonempty pair multisets times nonempty ones
    return (e - one - core - core.mset2() + (pairs.mset() - one) * (e - one),)


def compute_s_bound(p: PointedSeries, s_U_paper: PowerSeries) -> PowerSeries:
    """Bounding series dominating the self-dual pointed series."""
    (s,) = _fixed_point(_s_bound_rhs, (p.a_R, p.a_M, p.a_U - s_U_paper, p.a_leg), 1)
    return s


def solve_selfdual(p: PointedSeries) -> SelfDualSeries:
    s_paper = compute_selfdual(p, "paper")
    s_corrected = compute_selfdual(p, "corrected")
    return SelfDualSeries(s_paper, s_corrected, compute_s_bound(p, s_paper))


def compute_forests(t: PowerSeries) -> PowerSeries:
    """Multisets of UMR-trees: all (possibly disconnected) 2-level matroids."""
    if t.coeff(0):
        raise ValueError("tree series must have zero constant term")
    return t.mset()


def lower_bound_counts(t: PowerSeries, selfdual_counts) -> list[int]:
    """Counts of non-congruent base polytopes, (L2(n) + S2(n)) / 2 per size."""
    tc = t.integer_coeffs()
    out = []
    for n, s2 in enumerate(selfdual_counts):
        l2 = tc[n] if n <= t.order else 0
        if (l2 + s2) % 2:
            raise ArithmeticError(
                f"parity violation at n={n}: tree count {l2}, self-dual count {s2}"
            )
        out.append((l2 + s2) // 2)
    return out
