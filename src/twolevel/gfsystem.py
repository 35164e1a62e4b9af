"""Generating-function system for UMR-trees.

Solves the coupled fixed-point equations for the pointed tree series, assembles
the unrooted series T(x) by the dissymmetry identity, and derives the self-dual
and bounding series plus the forest series MSet(T).

Duality swaps R- and M-vertices, so the M-pointed series equals the R-pointed
one.  The pointed system is solved on that slice, a_M = a_R, in two unknowns
(a_R, a_U); ``PointedSeries.a_M`` reads a_R.

The right-hand sides use only +, -, *, integer constants, division by an
integer, a(x^k), sum_r a(x^r) and the multiset operators, so the fixed-point
solver runs them over the online integer ring and :mod:`twolevel.asymptotics`
over its float ring.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .powerseries import OnlineSeries, PowerSeries


@dataclass(frozen=True)
class PointedSeries:
    """Series of trees pointed at an R-, M-, U-vertex, or a leg."""

    a_R: PowerSeries
    a_U: PowerSeries
    a_leg: PowerSeries

    @property
    def a_M(self) -> PowerSeries:
        """Duality swaps R and M, so the M-pointed series is the R-pointed one."""
        return self.a_R


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
    """Solve ys = rhs(*known, *ys) for a tuple of series ys, one index at a time.

    The right-hand sides are built once over the online ring.  The system must
    be well founded: coefficient n of every right-hand side has zero slope in
    coefficient n of the unknowns, so it is exact while the unknowns read a
    provisional 0 there.  Each unknown is then settled at n, and every node
    that reads an unknown forgets coefficient n, to recompute it on the next
    demand.  A final eager pass over ``PowerSeries`` must reproduce the
    solution.
    """
    order = known[0].order
    ys = [OnlineSeries.unknown() for _ in range(unknowns)]
    outs = rhs(*map(OnlineSeries.known, known), *ys)
    readers = _readers(outs, ys)
    for n in range(order + 1):
        values = [out[n] for out in outs]
        for node in readers:
            node.forget(n)
        for y, v in zip(ys, values):
            y.settle(n, v)
    solution = tuple(PowerSeries(y.upto(order)) for y in ys)
    if tuple(rhs(*known, *solution)) != solution:
        raise ArithmeticError("fixed point did not converge to residual 0")
    return solution


def _readers(outs, ys) -> list:
    """The nodes below ``outs`` that read an unknown, the unknowns excluded."""
    reads = {id(y): True for y in ys}
    found = []

    def visit(node):
        key = id(node)
        if key not in reads:
            reads[key] = any([visit(i) for i in node.inputs])  # visit every input
            if reads[key]:
                found.append(node)
        return reads[key]

    for out in outs:
        visit(out)
    return found


def _pointed_rhs(leg, a_R, a_U):
    # on the slice a_M = a_R, where the M-equation is the R-equation
    f = a_R + a_U + leg
    s = a_R + a_R + a_U + leg
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
    a_R, a_U = _fixed_point(_pointed_rhs, (leg,), 2)
    return PointedSeries(a_R, a_U, leg)


def assemble_T(p: PointedSeries) -> UnrootedSeries:
    """Unrooted series by the dissymmetry identity T = T_v + T_e - T_d."""
    a_R, a_M, a_U, leg = p.a_R, p.a_M, p.a_U, p.a_leg
    s = a_R + a_M + a_U + leg
    m_edges = a_M * (a_R + a_U + leg)  # edges with an M end; t_e and t_d both count them
    t_e = m_edges + a_R * (a_U + leg) + a_U.mset2() + leg * a_U
    t_d = (
        m_edges
        + a_R * (a_M + a_U + leg)
        + a_U * s
        + leg * (a_R + a_M + a_U)
    )
    t_bullet = leg * (a_R + a_M + a_U)
    t_R = a_R - (a_M + a_U + leg).mset2()
    t_M = a_M - (a_R + a_U + leg).mset2()
    # multisets of at least three components
    t_U = a_U - (s.mset() - 1 - s - s.mset2())
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
        # substitution, which reads only coefficients the solver has settled
        pairs = a_R.substitute_power(2) + (a_U - s_U).substitute_power(2) / 2
    else:
        raise ValueError(f"unknown self-dual variant {variant!r}")
    core = s_U + leg
    odd = core.mset_odd()
    # odd multisets of at least three, plus pair multisets times odd ones
    return (odd - core + (pairs.mset() - 1) * odd,)


def compute_selfdual(p: PointedSeries, variant: str) -> PowerSeries:
    """Self-dual U-pointed series, "paper" or "corrected" pair counting."""
    (s_U,) = _fixed_point(partial(_selfdual_rhs, variant),
                          (p.a_R, p.a_M, p.a_U, p.a_leg), 1)
    return s_U


def _s_bound_rhs(pairs, leg, s):
    core = s + leg
    e = core.mset()
    pair_sets = pairs.substitute_power(2).mset()  # the pair class lives at x^2
    # multisets of at least three, plus nonempty pair multisets times nonempty ones
    return (e - 1 - core - core.mset2() + (pair_sets - 1) * (e - 1),)


def pair_class(p: PointedSeries, s_U_paper: PowerSeries) -> PowerSeries:
    """The pair class of the bounding series: pointed trees, not self-dual."""
    return p.a_R + p.a_M + (p.a_U - s_U_paper)


def compute_s_bound(p: PointedSeries, s_U_paper: PowerSeries) -> PowerSeries:
    """Bounding series dominating the self-dual pointed series."""
    (s,) = _fixed_point(_s_bound_rhs, (pair_class(p, s_U_paper), p.a_leg), 1)
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
