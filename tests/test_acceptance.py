"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Each criterion is asserted with the stated tolerance; the printed line goes to
the real stdout so it is visible regardless of capture settings.
"""
import math
import random
import sys
import time
from itertools import combinations_with_replacement

import pytest

from twolevel import asymptotics as asy
from twolevel import cli
from twolevel import gfsystem as gf
from twolevel import matroid as mat
from twolevel import umrtree as umr
from twolevel.powerseries import PowerSeries

import reference_routes as ref

RUN_TOL = cli.RunConfig().tol  # the default --tol


def report(number: int, passed: bool, summary: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"CRITERION {number}: {verdict} — {summary}", file=sys.__stdout__)
    assert passed, f"criterion {number}: {summary}"


def test_criterion_1_exact_coefficients():
    start = time.perf_counter()
    t = gf.assemble_T(gf.solve_pointed(30))
    elapsed = time.perf_counter() - start
    expected = [2, 4, 10, 27, 78, 246, 818, 2871, 10446, 39358]
    got = t.integer_coeffs()[3:13]
    ok = got == expected and elapsed < 1.0
    report(1, ok, f"[x^3..x^12]T = {got}, computed in {elapsed:.3f}s (< 1s)")


def test_criterion_2_bijection_check():
    start = time.perf_counter()
    t = gf.assemble_T(gf.solve_pointed(10))
    counts_ok = all(
        len(umr.enumerate_umr_trees(n)) == int(t.coeff(n)) for n in range(3, 9)
    )
    distinct_ok = True
    for n in range(3, 8):
        ms = [umr.tree_to_matroid(tr) for tr in umr.enumerate_umr_trees(n)]
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                if mat.is_isomorphic(ms[i], ms[j]):
                    distinct_ok = False
    elapsed = time.perf_counter() - start
    ok = counts_ok and distinct_ok and elapsed < 300.0
    report(2, ok,
           f"tree counts n=3..8 match T, matroids pairwise distinct n=3..7, "
           f"{elapsed:.1f}s (< 5min)")


def test_criterion_3_p6_fixture():
    # two copies of P6: gluing at the 3-circuit vs away from it
    p6_a = mat.P6
    p6_b = ref.relabel(mat.P6, {e: e + 6 for e in mat.P6.ground})
    first = mat.two_sum(p6_a, 1, p6_b, 7)
    second = mat.two_sum(p6_a, 4, p6_b, 10)
    sizes1 = sorted(set(map(len, first.circuits)))
    sizes2 = sorted(set(map(len, second.circuits)))
    ok = (
        sizes1 == [4, 5, 6]
        and sizes2 == [3, 4, 6]
        and not mat.is_isomorphic(first, second)
        and len(mat.bases(mat.P6)) == 19
    )
    report(3, ok,
           f"two 2-sums of P6 pairs have circuit sizes {sizes1} vs {sizes2} "
           f"and are non-isomorphic; P6 has 19 bases")


def test_criterion_4_constants():
    start = time.perf_counter()
    p30 = gf.solve_pointed(30)
    char = asy.solve_char_system(p30, RUN_TOL)
    se = asy.singular_expansions(char, p30, RUN_TOL)
    t_poly = se.t
    f_poly = asy.expand_forests(se, p30)
    c_tree = asy.transfer(t_poly, RUN_TOL)
    c_forest = asy.transfer(f_poly, RUN_TOL)
    targets = [
        (char.rho, 0.20489584), (1 / char.rho, 4.88052854),
        (se.a[0], 0.13529174), (se.a[1], -0.23137622),
        (se.a[2], 0.04653888), (se.a[3], 0.06281332),
        (se.u[0], 0.06921673), (se.u[1], -0.19340420),
        (se.u[2], 0.15045323), (se.u[3], 0.01018058),
        (t_poly[0], 0.03457946), (t_poly[2], -0.18596384),
        (t_poly[3], 0.17921766),
        (f_poly[0], 1.03526853), (f_poly[2], -0.19252251),
        (f_poly[3], 0.18553841),
        (c_tree, 0.07583455), (c_forest, 0.07850913),
        (c_tree / 2, 0.03791727),
    ]
    worst = max(abs(got - want) for got, want in targets)
    # stability against the tail truncation order
    p40 = gf.solve_pointed(40)
    char40 = asy.solve_char_system(p40, RUN_TOL)
    se40 = asy.singular_expansions(char40, p40, RUN_TOL)
    drift = max(
        abs(char40.rho - char.rho),
        max(abs(se40.a[i] - se.a[i]) for i in range(4)),
        max(abs(se40.u[i] - se.u[i]) for i in range(4)),
    )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and abs(t_poly[1]) < 1e-8 and drift < 1e-7 and elapsed < 30.0
    report(4, ok,
           f"19 constants within 1e-6 (worst {worst:.2e}), |T1| = "
           f"{abs(t_poly[1]):.2e}, K=30→40 drift {drift:.2e}, {elapsed:.1f}s")


def _random_two_level_matroid(rng):
    n = rng.randint(3, min(6, umr.TREE_CAP))
    trees = umr.enumerate_umr_trees(n)
    return ref.realise(ref.plain_tree(rng.choice(trees)), random.Random(rng.random()))


def test_criterion_5_property_suites(reference):
    rng = random.Random(20230815)
    cases = 100
    failures = []
    # dual is an involution; circuit axioms hold for everything constructed
    for _ in range(cases):
        m = _random_two_level_matroid(rng)
        if mat.dual(mat.dual(m)) != m:
            failures.append("dual involution")
        if not ref.circuit_axioms_ok(m):
            failures.append("circuit axioms")
    # duality commutes with 2-sum
    for _ in range(cases):
        n1, n2 = rng.randint(3, 5), rng.randint(3, 5)
        m1 = mat.uniform(n1, rng.randint(1, n1 - 1))
        m2 = mat.uniform(n2, rng.randint(1, n2 - 1), labels=range(10, 10 + n2))
        e1, e2 = rng.choice(m1.ground), rng.choice(m2.ground)
        lhs = mat.dual(mat.two_sum(m1, e1, m2, e2))
        rhs = mat.two_sum(mat.dual(m1), e1, mat.dual(m2), e2)
        if not mat.is_isomorphic(lhs, rhs):
            failures.append("dual of 2-sum")
    # base-point invariance of the tree realization: the fold against the
    # reference route on shuffled base points
    trees = [t for n in (4, 5, 6) for t in umr.enumerate_umr_trees(n)
             if len(ref.plain_tree(t)[0]) > 1]
    for _ in range(cases):
        t = rng.choice(trees)
        m0 = umr.tree_to_matroid(t)
        m1 = ref.realise(ref.plain_tree(t), random.Random(rng.random()))
        if not mat.is_isomorphic(m0, m1):
            failures.append("base-point invariance")
    # multiset operators of the solver vs direct multiset counting
    # (support <= 3, order 8), one count per size and number of components
    for _ in range(cases):
        counts = [0] * 4
        for _ in range(3):
            counts[rng.randint(1, 3)] += rng.randint(0, 2)
        s = PowerSeries(counts + [0] * 5)
        objects = [(size, i) for size in (1, 2, 3) for i in range(counts[size])]
        direct = [[0] * 9 for _ in range(9)]  # direct[m][total]
        for m in range(9):
            for combo in combinations_with_replacement(objects, m):
                total = sum(sz for sz, _ in combo)
                if total <= 8:
                    direct[m][total] += 1

        def counted(keep):
            return [sum(direct[m][n] for m in range(9) if keep(m)) for n in range(9)]

        one = PowerSeries([1] + [0] * 8)
        operators = {
            "mset": (s.mset(), lambda m: True),
            "mset >= 1": (s.mset() - one, lambda m: m >= 1),
            "mset >= 2": (s.mset() - one - s, lambda m: m >= 2),
            "mset >= 3": (s.mset() - one - s - s.mset2(), lambda m: m >= 3),
            "mset2": (s.mset2(), lambda m: m == 2),
            "odd": (s.mset_odd(), lambda m: m % 2 == 1),
            "odd >= 3": (s.mset_odd() - s, lambda m: m % 2 == 1 and m >= 3),
        }
        for name, (got, keep) in operators.items():
            if got.integer_coeffs() != counted(keep):
                failures.append(name)
    # the solver assumes a_M = a_R; the reference solves a_M on its own
    if gf.solve_pointed(30).a_R.integer_coeffs() != reference.solve(30).a_M:
        failures.append("A_R = A_M")
    ok = not failures
    report(5, ok,
           f"{4 * cases}+ randomized cases across 6 property suites"
           + ("" if ok else f"; failed: {sorted(set(failures))}"))


def test_criterion_6_selfdual_arbitration(solve_selfdual, capsys):
    sd = solve_selfdual(gf.solve_pointed(10))
    paper_all = corrected_all = True
    for n in range(3, 8):
        count = umr.count_self_dual_pointed(n)
        paper_all = paper_all and count == int(sd.s_U_paper.coeff(n))
        corrected_all = corrected_all and count == int(sd.s_U_corrected.coeff(n))
    exactly_one = paper_all != corrected_all
    # the verify report must name the winner and flag the loser
    cli.main(["--order", "10", "--tree-cap", "7", "verify"])
    text = capsys.readouterr().out
    named = "corrected matches; paper variant over-counts" in text
    ok = exactly_one and corrected_all and named
    report(6, ok,
           "oracle matches the corrected variant at every order n<=7; "
           "paper variant over-counts (first at n=5: 4 vs oracle 3); "
           "verify report names the winner")


def two_step_growth(series: PowerSeries, n: int) -> float:
    """Growth rate R of c_n ~ C * n^(-3/2) * R^n, estimated from c_n / c_(n-2).

    Two steps, because the self-dual coefficients alternate between even and
    odd n; the factor (n/(n-2))^(3/2) removes the n^(-3/2) term of a
    square-root branch point.
    """
    c = series.integer_coeffs()
    return math.sqrt(c[n] / c[n - 2] * (n / (n - 2)) ** 1.5)


def test_criterion_7_selfdual_growth(solve_selfdual):
    # The self-dual bound s(x) must grow strictly slower than rho^(-n): its
    # first branch point lies beyond rho, and the exact coefficients grow at
    # the rate that point predicts.  The paper's sharper claim, that s(x)
    # stays analytic up to sqrt(rho) (growth rho^(-n/2)), is refuted: the
    # exact self-dual series already branches before sqrt(rho).
    p = gf.solve_pointed(30)
    char = asy.solve_char_system(p, RUN_TOL)
    sd = solve_selfdual(p)
    scan = asy.verify_selfdual_growth(p, char.rho, RUN_TOL)
    claimed = char.rho ** -0.5
    target = claimed if scan.no_branch_point else 1.0 / scan.branch_x
    growth = two_step_growth(sd.s_bound, 30)
    rel_err = abs(growth / target - 1.0)
    ok = not scan.no_branch_point and char.rho < scan.branch_x and rel_err < 0.05
    report(7, ok,
           f"scan: {scan.describe()}; coefficient growth "
           f"sqrt(c30/c28·(30/28)^(3/2)) = {growth:.4f} vs 1/x_branch = "
           f"{target:.4f} (rel. err. {rel_err:.2%}, need < 5%); refuted claim "
           f"rho^(-1/2) = {claimed:.4f} is {abs(growth / claimed - 1.0):.1%} off")


def test_criterion_8_empirical_transfer():
    start = time.perf_counter()
    t200 = gf.assemble_T(gf.solve_pointed(200))
    elapsed = time.perf_counter() - start
    rho = 0.20489584088646864
    amp = float(t200.coeff(150)) * 150**2.5 * rho**150
    rel_err = abs(amp / 0.07583455 - 1.0)
    ok = rel_err < 0.10 and elapsed < 120.0
    report(8, ok,
           f"[x^150]T·150^(5/2)·rho^150 = {amp:.5f} vs C = 0.07583455 "
           f"(rel. err. {rel_err:.1%}), order-200 series in {elapsed:.1f}s")


def test_criterion_9_lower_bound_table():
    p = gf.solve_pointed(10)
    t = gf.assemble_T(p)
    s2 = gf.assemble_S2(p)
    selfdual = [0] * 9
    for n in range(3, 9):
        selfdual[n] = umr.count_self_dual(n)
    routes_agree = s2.integer_coeffs()[:9] == selfdual
    parity_ok = all(
        (int(t.coeff(n)) + selfdual[n]) % 2 == 0 for n in range(9)
    )
    bounds = ((t + s2).truncate(8) / 2).integer_coeffs()
    ok = routes_agree and parity_ok and bounds[3] == 1 and bounds[4] == 3
    report(9, ok,
           f"(L2+S2)/2 = {bounds[3]}, {bounds[4]} for n = 3, 4; S2 from the series "
           f"equals the enumeration and parity holds for n <= 8")
