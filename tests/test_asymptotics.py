import math
from collections import Counter
from functools import partial

import pytest

from twolevel import asymptotics as asy
from twolevel import cli
from twolevel import gfsystem as gf
from twolevel.powerseries import PowerSeries, fixed_point

import reference_routes as ref

RHO = 0.20489584
TOL = 1e-6
RUN_TOL = 1e-12  # the default --tol, to which the fixtures are solved


def close(want):
    """Approximate equality with the default rtol and atol of np.allclose."""
    return pytest.approx(want, rel=1e-5, abs=1e-8)


def _pairs(p, sd):
    """The pair class of the self-dual bound, as `verify_selfdual_growth` builds it."""
    return gf.pair_class(p, sd.s_U_paper)


def _pointed_system(p):
    """(rhs, known, unknowns) of the pointed system, as `solve_char_system` passes them."""
    return gf._pointed_rhs, (p.a_leg,), (p.a_R, p.a_U)


def _bound_system(p, sd):
    """(rhs, known, unknowns) of the bounding series, as `verify_selfdual_growth` passes them."""
    return gf._s_bound_rhs, (_pairs(p, sd), p.a_leg), (sd.s_bound,)


def _record_evaluations(monkeypatch):
    """For each ring evaluation of a residual from here on, whether its point
    moves (x(X) is not constant), recorded through a JetPoint subclass."""
    moves = []

    class Recorded(asy.JetPoint):
        def __init__(self, x_of_X, **kwargs):
            super().__init__(x_of_X, **kwargs)
            self.moves = any(x_of_X[1:])

    residuals = asy._residuals
    monkeypatch.setattr(asy, "JetPoint", Recorded)
    monkeypatch.setattr(asy, "_residuals",
                        lambda point, *args: moves.append(point.moves) or residuals(point, *args))
    return moves


def _fold_residual(system, z):
    """(F - y, (J - I) v) at z = (x, y, v_2..v_k): the X^0 and X^1 coefficients
    of fresh evaluations at the constant point x with y + X v."""
    k = len(system[2])
    x, y, v = z[0], z[1:k + 1], [1.0, *z[k + 1:]]
    r = asy._residuals(asy.JetPoint(asy.xp(x)), *system, [asy.xp(*yv) for yv in zip(y, v)])
    return [p[0] for p in r] + [p[1] for p in r]


# The reference route for the ring's leaves, which shares no step with its
# Horner kernel: series(x(X)^r) by Horner's rule over X-polynomials.

def xp_pow(p, r):
    out = asy.xp(1.0)
    for _ in range(r):
        out = asy.xp_mul(out, p)
    return out


def values(f):
    """Every value of a ring element f: f(0) at index 0, f(x(X)^r) at r = 1..R."""
    return [f[r] for r in range(f.point.r_max + 1)]


def series_at_xpoly(series, arg):
    """Expansion of series(arg(X)) as an X-polynomial, by Horner's rule."""
    out = asy.xp()
    for c in reversed(series.coeffs):
        out = asy.xp_mul(out, arg)
        out[0] += float(c)
    return out


class TestXPolyHelpers:
    def test_xp_mul(self):
        p = asy.xp(1.0, 2.0)
        q = asy.xp(0.0, 1.0)
        assert asy.xp_mul(p, q) == close(asy.xp(0.0, 1.0, 2.0))

    def test_xp_mul_truncates(self):
        p = asy.xp(0.0, 0.0, 0.0, 1.0)
        out = asy.xp_mul(p, p)
        assert out == close([0.0] * (asy.DEG + 1))

    def test_xp_exp_constant(self):
        out = asy.xp_exp(asy.xp(1.0))
        assert out[0] == pytest.approx(math.e)
        assert out[1:] == close([0.0] * asy.DEG)

    def test_xp_exp_linear(self):
        out = asy.xp_exp(asy.xp(0.0, 1.0))
        want = [1 / math.factorial(j) for j in range(asy.DEG + 1)]
        assert out == close(want)

    def test_series_at_xpoly_is_shifted_taylor(self):
        # (x)^2 expanded at x = 2 + u: 4 + 4u + u^2
        sq = PowerSeries([0, 0, 1, 0, 0])
        out = series_at_xpoly(sq, asy.xp(2.0, 1.0))
        assert out[:3] == close([4.0, 4.0, 1.0])
        assert out[3:] == close([0.0] * (asy.DEG - 2))

    def test_tail_value_geometric(self):
        # MSet(x) = exp(sum_{r>=1} x^r / r) = 1 / (1 - x), tail cut by the point
        leg = asy.JetPoint(asy.xp(0.5)).leaf(PowerSeries.x(2))
        got = leg.mset().head
        assert got[0] == pytest.approx(2.0, abs=1e-12)
        assert all(c == 0.0 for c in got[1:])

    def test_tail_value_rejects_bad_argument(self):
        with pytest.raises(ValueError):
            asy.JetPoint(asy.xp(1.5))
        with pytest.raises(ValueError):
            asy.JetPoint(asy.xp(-1.0, 0.5))


class TestLinearSolves:
    def test_known_3x3_solution(self):
        a = [[2.0, 1.0, -1.0], [-3.0, -1.0, 2.0], [-2.0, 1.0, 2.0]]
        assert asy._solve(a, [8.0, -11.0, -3.0]) == pytest.approx(
            [2.0, 3.0, -1.0], rel=1e-14)

    def test_singular_2x2_raises(self):
        with pytest.raises(ZeroDivisionError):
            asy._solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0])


class TestCharSystem:
    def test_branch_point(self, char30):
        assert char30.rho == pytest.approx(RHO, abs=TOL)
        assert 1.0 / char30.rho == pytest.approx(4.88052854, abs=TOL)
        assert char30.a_R == pytest.approx(0.13529174, abs=TOL)
        assert char30.a_U == pytest.approx(0.06921673, abs=TOL)

    def test_residual_norm_small(self, char30, pointed30):
        # the carried residual is the max-norm of (F - y, (J - I) v) at rho,
        # v = (1, c): the X^0 and X^1 coefficients with y + X v
        g = _fold_residual(_pointed_system(pointed30), char30[:4])
        assert char30.residual == max(map(abs, g))
        assert char30.residual < 1e-11

    def test_stability_in_tail_order(self, char30):
        p40 = gf.solve_pointed(40)
        char40 = asy.solve_char_system(p40)
        assert abs(char40.rho - char30.rho) < 1e-7

    @pytest.mark.parametrize("system", ["pointed", "bound"])
    def test_bad_seed_raises(self, system, pointed30, selfdual30):
        # a diverging seed is an ArithmeticError itself, not an OverflowError
        # or a ValueError leaking out of the ring: (0.5, 0) takes the bound's
        # iterates out of |x| < 1
        with pytest.raises(ArithmeticError) as info:
            if system == "pointed":
                asy._fold_point(*_pointed_system(pointed30), (0.9, 50.0, 50.0, 0.8), RUN_TOL,
                                max_iter=5)
            else:
                asy._fold_point(*_bound_system(pointed30, selfdual30), (0.5, 0.0), RUN_TOL)
        assert info.type is ArithmeticError

    @pytest.mark.parametrize("order", [3, 30, 200])
    def test_evaluation_count(self, order, monkeypatch):
        # two constant-point evaluations per iterate, and one at x + X^2 per
        # step taken: three steps from the fixed seed at every order
        p = gf.solve_pointed(order)
        moves = _record_evaluations(monkeypatch)
        asy.solve_char_system(p)
        assert len(moves) <= 12
        assert sum(moves) <= 3

    def test_jacobian_against_forward_differences(self, char30, pointed30, selfdual30,
                                                  monkeypatch):
        # the fold-point Newton's Jacobian in z = (x, y, v_2..v_k), read from
        # its one step off the pointed system's and the bound's fold points,
        # and the carried J - I, against forward differences of fresh
        # evaluations there
        report = asy.verify_selfdual_growth(pointed30, selfdual30.s_U_paper, char30.rho, RUN_TOL)
        jacobians = []
        solve = asy._solve
        monkeypatch.setattr(asy, "_solve", lambda a, b: jacobians.append(a) or solve(a, b))
        h, differences = 1e-7, []
        bound_at = [report.branch_x, report.branch_s]
        # F_s - 1 is 0 at the bound's fold, where the difference reads h F_ss / 2;
        # the pointed system keeps a purely relative check
        for args, at, floor in ((_pointed_system(pointed30), list(char30[:4]), 0.0),
                                (_bound_system(pointed30, selfdual30), bound_at, 1e-6)):
            columns = []
            for j in range(len(at)):
                shifted = [z + h * (i == j) for i, z in enumerate(at)]
                columns.append([(s - b) / h for s, b in zip(_fold_residual(args, shifted),
                                                             _fold_residual(args, at))])
            with pytest.raises(ArithmeticError):  # tol 0: one step, then no convergence
                asy._fold_point(*args, at, 0.0, max_iter=1)
            jacobian = jacobians.pop()
            for j, column in enumerate(columns):
                assert [row[j] for row in jacobian] == pytest.approx(column, rel=1e-6, abs=floor), j
            differences.append(columns)
        m, columns = char30.j_minus_i, differences[0]
        assert [m[0][0], m[1][0], m[0][1], m[1][1]] == pytest.approx(
            columns[1][:2] + columns[2][:2], rel=1e-6)


class TestSingularExpansions:
    EXPECTED_A = [0.13529174, -0.23137622, 0.04653888, 0.06281332]
    EXPECTED_U = [0.06921673, -0.19340420, 0.15045323, 0.01018058]

    def test_coefficients(self, expansion30):
        for i in range(4):
            assert expansion30.a[i] == pytest.approx(self.EXPECTED_A[i], abs=TOL)
            assert expansion30.u[i] == pytest.approx(self.EXPECTED_U[i], abs=TOL)

    def test_residuals_matched(self, char30, expansion30, pointed30):
        # every coefficient X^0..X^DEG, not only the X^0..X^3 that asympt prints
        branch_point = asy.JetPoint(asy.xp(char30.rho, 0.0, -char30.rho))
        r_a, r_u = asy._residuals(branch_point, *_pointed_system(pointed30),
                                  (expansion30.a, expansion30.u))
        assert len(r_a) == len(r_u) == asy.DEG + 1
        assert max(map(abs, r_a + r_u)) < 1e-12
        assert expansion30.residual == max(map(abs, r_a + r_u))

    def test_branch_sign_convention(self, expansion30):
        assert expansion30.a[1] < 0 and expansion30.u[1] < 0

    def test_evaluation_count(self, char30, pointed30, monkeypatch):
        # none for J - I, which the branch point carries; two per order
        # X^2..X^DEG, one final residual check
        calls = []

        def counted(*args):
            calls.append(None)
            return residuals(*args)

        residuals = asy._residuals
        monkeypatch.setattr(asy, "_residuals", counted)
        asy.singular_expansions(char30, pointed30)
        assert len(calls) <= 9

    def test_off_the_branch_point_raises(self, char30, pointed30):
        # the values and J - I carried from rho do not solve the system at
        # 0.9 rho, so the expansion fails its residual check
        off = char30._replace(rho=0.9 * char30.rho)
        with pytest.raises(ArithmeticError):
            asy.singular_expansions(off, pointed30)


class TestExpandT:
    def test_constants(self, expansion30):
        t_poly = expansion30.t
        assert t_poly[0] == pytest.approx(0.03457946, abs=TOL)
        assert abs(t_poly[1]) < 1e-8
        assert t_poly[2] == pytest.approx(-0.18596384, abs=TOL)
        assert t_poly[3] == pytest.approx(0.17921766, abs=TOL)

    def test_T0_equals_series_value_at_rho(self, expansion30, char30):
        t_poly = expansion30.t
        t200 = gf.assemble_T(gf.solve_pointed(200))
        assert t_poly[0] == pytest.approx(t200.eval_float(char30.rho), abs=2e-5)


class TestForests:
    def test_constants(self, expansion30, pointed30):
        t_poly = expansion30.t
        f_poly = asy.expand_forests(expansion30, pointed30)
        assert f_poly[0] == pytest.approx(1.03526853, abs=TOL)
        assert f_poly[2] == pytest.approx(-0.19252251, abs=TOL)
        assert f_poly[3] == pytest.approx(0.18553841, abs=TOL)
        assert f_poly[0] > 1.0
        assert f_poly[3] == pytest.approx(f_poly[0] * t_poly[3], abs=1e-10)

    def test_through_compute_forests(self, expansion30, pointed30, monkeypatch):
        # the forest equation is written once, in gfsystem, and run over the
        # ring on the leaf of T whose head is T's expansion
        seen = []
        forests = gf.compute_forests
        monkeypatch.setattr(gf, "compute_forests", lambda t: seen.append(t) or forests(t))
        f_poly = asy.expand_forests(expansion30, pointed30)
        assert len(seen) == 1 and isinstance(seen[0], asy.Jet)
        assert seen[0].head == expansion30.t
        assert f_poly == forests(seen[0]).head


class TestTransfer:
    def test_amplitudes(self, expansion30, pointed30, char30):
        t_poly = expansion30.t
        f_poly = asy.expand_forests(expansion30, pointed30)
        c_t, c_f = asy.transfer(t_poly, RUN_TOL), asy.transfer(f_poly, RUN_TOL)
        assert c_t == pytest.approx(0.07583455, abs=TOL)
        assert c_f == pytest.approx(0.07850913, abs=TOL)
        assert c_t / 2.0 == pytest.approx(0.03791727, abs=TOL)
        assert asy.POLY_EXPONENT == -2.5

    def test_requires_vanishing_x1(self):
        bad = asy.xp(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ArithmeticError):
            asy.transfer(bad, RUN_TOL)


class TestSelfDualGrowth:
    def test_scan_finds_subcritical_branch_point(self, pointed30, selfdual30, char30):
        # honest outcome: the bounding-series system coalesces before
        # sqrt(rho); the scan reports the point instead of claiming none
        report = asy.verify_selfdual_growth(pointed30, selfdual30.s_U_paper, char30.rho, RUN_TOL)
        assert not report.no_branch_point
        assert report.branch_x == pytest.approx(0.393001, abs=1e-4)
        assert 0 < report.branch_x <= math.sqrt(char30.rho)
        assert "branch point at" in report.describe()

    def test_report_describe_positive_case(self):
        rep = asy.BranchPointReport(x_max=0.45)
        assert rep.no_branch_point
        assert rep.describe().startswith("no branch point")

    def test_scan_evaluation_count(self, pointed30, selfdual30, char30, monkeypatch):
        # one constant-point evaluation per iterate, and one at x + X^2 per
        # step taken: four steps from the fixed seed
        moves = _record_evaluations(monkeypatch)
        report = asy.verify_selfdual_growth(pointed30, selfdual30.s_U_paper, char30.rho, RUN_TOL)
        assert not report.no_branch_point
        assert len(moves) <= 9
        assert sum(moves) <= 4

    def test_exact_s_column(self, pointed30, selfdual30):
        # -2 (F_ss / 2), from the X^2 coefficient, against a forward
        # difference of 1 - F_s in s at x = 0.39
        def taylor(s):
            point = asy.JetPoint(asy.xp(0.39))
            (f,) = gf._s_bound_rhs(point.leaf(_pairs(pointed30, selfdual30)),
                                   point.leaf(pointed30.a_leg),
                                   point.leaf(selfdual30.s_bound, asy.xp(s, 1.0)))
            return f.head

        h = 1e-7
        f, g = taylor(0.45), taylor(0.45 + h)
        assert -2.0 * f[2] == pytest.approx(((1.0 - g[1]) - (1.0 - f[1])) / h, rel=1e-5)

    def test_monotone_iteration_brackets_the_branch_point(self, pointed30, selfdual30,
                                                          char30):
        # s <- F(x, s) from s = 0 increases to the least fixed point where one
        # exists and grows past every bound where none does; it shares no
        # code with the fold-point Newton of the scan
        pairs = _pairs(pointed30, selfdual30)
        report = asy.verify_selfdual_growth(pointed30, selfdual30.s_U_paper, char30.rho, RUN_TOL)

        def iterate(x):
            point = asy.JetPoint(asy.xp(x))
            s = 0.0
            for _ in range(1000):
                (f,) = gf._s_bound_rhs(point.leaf(pairs), point.leaf(pointed30.a_leg),
                                       point.leaf(selfdual30.s_bound, asy.xp(s)))
                s, last = f.head[0], s
                if s > 1.0 or s - last < 1e-13:
                    return s, s - last
            raise AssertionError(f"no decision at x = {x} in 1000 steps")

        s, step = iterate(report.branch_x - 1e-3)
        assert step < 1e-13 and 0.0 < s < report.branch_s
        s, _ = iterate(report.branch_x + 1e-3)
        assert s > 1.0

    def test_branch_point_is_where_the_least_gap_vanishes(self, pointed30, selfdual30,
                                                          char30):
        # m(x) = min over s in [0, 1] of F(x, s) - s is negative while s = F
        # has a root and positive past the branch point; bisection in x over
        # golden-section minima in s shares no code with the fold-point Newton
        pairs = _pairs(pointed30, selfdual30)
        golden = (math.sqrt(5.0) - 1.0) / 2.0

        def least_gap(x):
            point = asy.JetPoint(asy.xp(x))

            def gap(s):
                (f,) = gf._s_bound_rhs(point.leaf(pairs), point.leaf(pointed30.a_leg),
                                       point.leaf(selfdual30.s_bound, asy.xp(s)))
                return f.head[0] - s

            lo, hi = 0.0, 1.0
            a, b = hi - golden * (hi - lo), lo + golden * (hi - lo)
            ga, gb = gap(a), gap(b)
            while hi - lo > 1e-7:
                if ga < gb:
                    hi, b, gb = b, a, ga
                    a = hi - golden * (hi - lo)
                    ga = gap(a)
                else:
                    lo, a, ga = a, b, gb
                    b = lo + golden * (hi - lo)
                    gb = gap(b)
            return min(ga, gb)

        lo, hi = 0.38, 0.40
        assert least_gap(lo) < 0.0 < least_gap(hi)
        while hi - lo > 1e-12:
            mid = (lo + hi) / 2.0
            if least_gap(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        report = asy.verify_selfdual_growth(pointed30, selfdual30.s_U_paper, char30.rho, RUN_TOL)
        assert (lo + hi) / 2.0 == pytest.approx(report.branch_x, rel=0, abs=1e-9)


def _series_parallel_rhs(leg, a):
    # the R-equation of _pointed_rhs with a_U = 0: a = MSet(a + x) - 1 - (a + x)
    f = a + leg
    return (f.mset() - 1 - f,)


class TestFoldPoint:
    """The one fold-point Newton on systems that no command solves."""

    @pytest.fixture(scope="class")
    def pointed60(self):
        return gf.solve_pointed(60)

    @pytest.mark.parametrize("order", [30, 60])
    def test_series_parallel_known_answer(self, order):
        # series-parallel networks by edges, x + 2a, are OEIS A000084, and
        # their growth constant is 1/rho = 3.5608393095 (Moon 1987; Finch,
        # Mathematical Constants, section 5.6): numbers that no code here
        # produced, reached through mset, the online solve and the fold Newton
        leg = PowerSeries.x(order)
        (a,) = fixed_point(_series_parallel_rhs, (leg,), 1)
        assert list((leg + 2 * a).coeffs[1:15]) == [
            1, 2, 4, 10, 24, 66, 180, 522, 1532, 4624, 14136, 43930, 137908, 437502]
        (rho, _), _, _, residual = asy._fold_point(_series_parallel_rhs, (leg,), (a,),
                                                   (0.3, 0.0), RUN_TOL)
        assert 1.0 / rho == pytest.approx(3.5608393095, rel=0, abs=1e-10)
        assert residual < RUN_TOL

    @pytest.mark.parametrize("variant, order, want", [
        ("paper", 30, 0.4275297645), ("paper", 60, 0.4274799190),
        ("corrected", 30, 0.4480638949), ("corrected", 60, 0.4472749997)])
    def test_selfdual_variant_branch_points(self, variant, order, want, pointed30, pointed60):
        # README discrepancy #2 quotes these: each exact self-dual series
        # branches before sqrt(rho), so no dominating series can reach it
        p = {30: pointed30, 60: pointed60}[order]
        s_U = gf.compute_selfdual(p, variant)
        (x, s), _, (half_f_ss,), _ = asy._fold_point(
            partial(gf._selfdual_rhs, variant), p, (s_U,), (0.45, 0.5), RUN_TOL)
        assert x == pytest.approx(want, rel=0, abs=1e-10)
        assert x < math.sqrt(RHO) and s > 0.0 and half_f_ss > 0.0


class TestJetTailCutoff:
    """Every element at a point is cut at the point's R, the last r with
    |x(0)|^r > TAIL_EPS; past R it reads its value at 0, which its list holds
    at index 0.  At a constant point every value is an X-polynomial whose
    X^1..X^DEG coefficients are zero."""

    X0 = 0.4
    ZEROS = [0.0] * asy.DEG

    def leaf(self, pointed30, x0=X0):
        return asy.JetPoint(asy.xp(x0)).leaf(pointed30.a_R)

    def test_substitution_reads_nothing_past_the_cutoff(self, pointed30):
        # f = a_R + 1 is 1 at 0, so a read past R shows as exactly 1.0
        f = self.leaf(pointed30) + 1
        r_max = f.point.r_max
        assert self.X0**r_max > asy.TAIL_EPS >= self.X0 ** (r_max + 1)
        g = f.substitute_power(2)
        got = values(g)
        assert len(got) == r_max + 1 and g.head == got[1]
        for r, value in enumerate(got):
            assert value[1:] == self.ZEROS
            if 0 < 2 * r <= r_max:  # index 2 r, evaluated
                assert value[0] == pointed30.a_R.eval_float(self.X0 ** (2 * r)) + 1.0
            else:  # index 0, and every r past R / 2
                assert value[0] == 1.0

    def test_sum_and_product_are_cut_at_the_point(self, pointed30):
        # g = f(x^2) reads its value at 0 past r = R / 2; a sum or product
        # with it runs to the R of its point, not to g's R / 2
        for x0 in (self.X0, 0.2):
            f = self.leaf(pointed30, x0)
            g = f.substitute_power(2)
            r_max = f.point.r_max
            assert x0**r_max > asy.TAIL_EPS >= x0 ** (r_max + 1)
            assert g[0] == asy.xp()
            assert values(g)[r_max // 2 + 1:] == [asy.xp()] * (r_max - r_max // 2)
            for h, op in ((f + g, float.__add__), (f * g, float.__mul__),
                          (g - f, float.__rsub__)):
                assert h.point is f.point
                assert [v[0] for v in values(h)] == [
                    op(u[0], w[0]) for u, w in zip(values(f), values(g))]
                assert all(v[1:] == self.ZEROS for v in values(h))
                assert len(values(h)) == r_max + 1 and h.head == h[1]

    def test_mset_of_substituted_leaf_is_exact(self, pointed30):
        # MSet sums k = 1..R, but the terms past R / 2 are the value at 0,
        # 0.0, so it is the sum cut at 2 k <= R, bit for bit (the ring's
        # weights are 1.0 / k)
        f = self.leaf(pointed30)
        r_max = f.point.r_max
        cut = sum([pointed30.a_R.eval_float(self.X0 ** (2 * k)) * (1.0 / k)
                   for k in range(1, r_max // 2 + 1)])
        value = f.substitute_power(2).mset().head
        assert value[0] == math.exp(cut)
        assert value[1:] == self.ZEROS


class TestLeafKernel:
    """The leaves' Horner kernel against the reference route, and the values
    that the leaves and the ring compute once."""

    @pytest.mark.parametrize("x_of_X, taylor", [
        (asy.xp(RHO, 0.0, -RHO), 2), (asy.xp(RHO, 0.0, 1.0), 2), (asy.xp(0.1, 1.0), asy.DEG),
        (asy.xp(RHO), 0)], ids=["branch_point", "x_plus_X2", "0.1_plus_X", "constant"])
    def test_leaf_matches_horner_reference(self, x_of_X, taylor, pointed30):
        point = asy.JetPoint(x_of_X)
        assert point._taylor == taylor
        for series in (pointed30.a_R, pointed30.a_U, pointed30.a_leg):
            leaf = point.leaf(series)
            got = values(leaf)
            assert len(got) == point.r_max + 1 and leaf.head is got[1]
            assert got[0] == asy.xp(series.coeff(0))
            for r, value in enumerate(got[1:], 1):
                want = series_at_xpoly(series, xp_pow(x_of_X, r))
                assert value == pytest.approx(want, rel=1e-13, abs=0), r

    def test_constant_point_builds_no_shift(self, monkeypatch):
        # a shift is read only by a Taylor term, and a constant point composes
        # none: building it multiplies nothing, a moving point builds R shifts
        calls = Counter()
        mul = asy.xp_mul
        monkeypatch.setattr(asy, "xp_mul", lambda p, q: calls.update(["xp_mul"]) or mul(p, q))
        constant = asy.JetPoint(asy.xp(RHO))
        assert calls["xp_mul"] == 0 and constant._shifts == []
        moving = asy.JetPoint(asy.xp(RHO, 0.0, 1.0), reads=3)
        assert calls["xp_mul"] == moving.r_max == len(moving._shifts)

    @pytest.mark.parametrize("system", ["pointed", "bound"])
    def test_reads_trims_no_coefficient_it_keeps(self, system, char30, pointed30, selfdual30):
        # at x + X^2, reads=3 drops the Taylor term b_2 shift^2 = O(X^4):
        # X^0..X^3 of every residual are the same floats as with reads=DEG
        if system == "pointed":
            args, heads = _pointed_system(pointed30), [
                asy.xp(char30.a_R, 1.0), asy.xp(char30.a_U, char30.c)]
        else:
            args = _bound_system(pointed30, selfdual30)
            heads = [asy.xp(selfdual30.s_bound.eval_float(char30.rho), 1.0)]
        x_of_X = asy.xp(char30.rho, 0.0, 1.0)
        trimmed, full = asy.JetPoint(x_of_X, reads=3), asy.JetPoint(x_of_X)
        assert (trimmed._taylor, full._taylor) == (1, 2)
        got = asy._residuals(trimmed, *args, heads)
        want = asy._residuals(full, *args, heads)
        assert [p[:4] for p in got] == [p[:4] for p in want]

    def test_no_ring_value_is_computed_twice(self, monkeypatch, capsys):
        # over whole commands, every element runs its step at most once per r,
        # and every leaf's values are built once per point
        steps, leaves = Counter(), Counter()
        init, leaf_values = asy.Jet.__init__, asy.JetPoint._leaf_values

        def counted_init(self, point, step, values=None):
            if step is not None:
                def counted(r, node=object(), step=step):
                    steps[node, r] += 1
                    return step(r)

                step = counted
            init(self, point, step, values)

        def counted_values(point, cs):
            leaves[point, cs] += 1
            return leaf_values(point, cs)

        monkeypatch.setattr(asy.Jet, "__init__", counted_init)
        monkeypatch.setattr(asy.JetPoint, "_leaf_values", counted_values)
        for command in ("asympt", "bound"):
            steps.clear()
            leaves.clear()
            assert cli.main([command]) == 0
            assert steps and set(steps.values()) == {1}
            assert leaves and set(leaves.values()) == {1}

    @pytest.mark.parametrize("command", ["asympt", "bound"])
    def test_one_branch_point_per_command(self, command, monkeypatch, capsys):
        # singular_expansions builds x(X) = rho (1 - X^2) once, for T's expansion too
        built = []

        class Counted(asy.JetPoint):
            def __init__(self, x_of_X, **kwargs):
                built.append(x_of_X)
                super().__init__(x_of_X, **kwargs)

        monkeypatch.setattr(asy, "JetPoint", Counted)
        assert cli.main([command]) == 0
        assert sum(x[2] < 0.0 for x in built) == 1

    @pytest.mark.parametrize("command", ["asympt", "bound"])
    def test_one_leg_series_per_command(self, command, monkeypatch, capsys):
        # solve_pointed builds the leg series; every leaf of it reads a_leg
        built = []
        leg = PowerSeries.x
        monkeypatch.setattr(PowerSeries, "x",
                            classmethod(lambda cls, order: built.append(order) or leg(order)))
        assert cli.main([command]) == 0
        assert len(built) == 1

    def test_leaf_past_the_float_range_raises(self):
        # a ValueError, so that the Newton guard, which catches OverflowError,
        # does not report it as a diverging iteration
        with pytest.raises(ValueError, match="coefficient 2 of an order-2 series exceeds"):
            asy.JetPoint(asy.xp(0.1)).leaf(PowerSeries([0, 1, 10**400]))


class TestJetRing:
    """The float ring against the integer ring on the right-hand sides of gfsystem.

    Float side: every input a leaf of its exact order-30 series, at
    x(X) = 0.1 + X and at the constant point x(X) = 0.1.  Integer side: the
    same inputs, zero-extended to order 90 so that its truncation is far
    below the tolerance at 0.1; its first 31 coefficients are the solved
    series.  The float values must be the integer results' Taylor jets at
    0.1 (their values, at the constant point), through X^DEG.
    """

    @pytest.fixture(params=[(0.1, 1.0), (0.1,)], ids=["jet", "constant"])
    def both(self, request):
        x_of_X = asy.xp(*request.param)
        point = asy.JetPoint(x_of_X)

        def inputs(*series):
            return ([point.leaf(s) for s in series],
                    [PowerSeries(s.coeffs + (0,) * (90 - s.order)) for s in series])

        def check(ring_result, int_result, solved):
            assert int_result.truncate(solved.order) == solved
            want = series_at_xpoly(int_result, x_of_X)
            assert ring_result.head == pytest.approx(want, rel=1e-12, abs=0)

        return inputs, check

    def test_pointed_rhs(self, both, pointed30):
        inputs, check = both
        p = pointed30
        ring, ints = inputs(p.a_leg, p.a_R, p.a_U)
        # the integer side on plain lists, as PowerSeries has no sum over powers
        want = ref.pointed_rhs(*(list(s.coeffs) for s in ints))
        for got, want, solved in zip(gf._pointed_rhs(*ring), map(PowerSeries, want),
                                     (p.a_R, p.a_U), strict=True):
            check(got, want, solved)

    def test_assemble_T(self, both, pointed30, unrooted30):
        inputs, check = both
        p = pointed30
        ring, ints = inputs(p.a_R, p.a_U, p.a_leg)
        check(gf.assemble_T(gf.PointedSeries(*ring)),
              gf.assemble_T(gf.PointedSeries(*ints)), unrooted30)

    def test_s_bound_rhs(self, both, pointed30, selfdual30):
        inputs, check = both
        p = pointed30
        ring, ints = inputs(_pairs(p, selfdual30), p.a_leg, selfdual30.s_bound)
        (got,), (want,) = gf._s_bound_rhs(*ring), gf._s_bound_rhs(*ints)
        check(got, want, selfdual30.s_bound)

    @pytest.mark.parametrize("variant", ["paper", "corrected"])
    def test_selfdual_rhs(self, both, pointed30, selfdual30, variant):
        # covers mset_odd and exact halving on the float ring
        inputs, check = both
        p = pointed30
        s_U = getattr(selfdual30, f"s_U_{variant}")
        ring, ints = inputs(p.a_R, p.a_U, p.a_leg, s_U)
        (got,), (want,) = (gf._selfdual_rhs(variant, *ring),
                           gf._selfdual_rhs(variant, *ints))
        check(got, want, s_U)

    @pytest.mark.parametrize("x_of_X", [asy.xp(RHO), asy.xp(RHO, 0.0, -RHO)],
                             ids=["constant", "branch_point"])
    def test_every_value_is_an_x_polynomial(self, x_of_X, pointed30, monkeypatch):
        # at a constant point as at a moving one: every node's head and its
        # values at r = 0..R are lists of DEG + 1 floats
        built, init = [], asy.Jet.__init__

        def recorded(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(asy.Jet, "__init__", recorded)
        point, p = asy.JetPoint(x_of_X), pointed30
        gf._pointed_rhs(*map(point.leaf, (p.a_leg, p.a_R, p.a_U)))
        assert len(built) > 10
        for jet in built:
            got = [jet.head, *values(jet)]
            assert len(got) == point.r_max + 2
            for value in got:
                assert type(value) is list and len(value) == asy.DEG + 1
                assert all(type(c) is float for c in value)

    def test_arithmetic_computes_only_the_head(self, pointed30, monkeypatch):
        # reading the heads of the pointed right-hand side runs one
        # X-polynomial kernel per +, -, * and / node, at r = 1 (and at the r
        # that an MSet or a sum over r reads, for the nodes below one); index
        # 0 is computed only where an MSet checks its input's constant term,
        # and no output holds a value past r = 1
        point, p = asy.JetPoint(asy.xp(RHO)), pointed30
        leaves = [point.leaf(s) for s in (p.a_leg, p.a_R, p.a_U)]
        running = []  # the kernels of each step being run, innermost last
        steps, arithmetic, at_0 = {}, [], []
        checking = [False]
        for name in ("xp_mul", "_xp_add", "_xp_sub", "_xp_sum", "_xp_scale", "_xp_div",
                     "xp_exp"):
            def counted_kernel(*args, kernel=getattr(asy, name)):
                running[-1] += 1
                return kernel(*args)

            monkeypatch.setattr(asy, name, counted_kernel)
        init = asy.Jet.__init__

        def counted_init(self, point, step, values=None):
            if step is not None:
                runs = steps[self] = {}

                def counted(r, step=step):
                    if r == 0:
                        at_0.append(checking[0])
                    running.append(0)
                    value = step(r)
                    runs[r] = running.pop()
                    return value

                step = counted
            init(self, point, step, values)

        monkeypatch.setattr(asy.Jet, "__init__", counted_init)
        for name in ("__add__", "__sub__", "__mul__", "__rmul__", "__truediv__"):
            def node(self, other, method=getattr(asy.Jet, name)):
                out = method(self, other)
                arithmetic.append(out)
                return out

            monkeypatch.setattr(asy.Jet, name, node)

        def mset(self, signed=False, method=asy.Jet.mset):
            checking[0] = True
            try:
                return method(self, signed)
            finally:
                checking[0] = False

        monkeypatch.setattr(asy.Jet, "mset", mset)
        outs = gf._pointed_rhs(*leaves)
        # building computes nothing but the MSets' checks at index 0
        assert not running and all(set(runs) <= {0} for runs in steps.values())
        for out in outs:
            out.head
        assert len(arithmetic) == 12
        for out in arithmetic:
            assert steps[out][1] == 1 and set(steps[out].values()) == {1}
        assert at_0 and all(at_0)
        assert [sorted(steps[out]) for out in outs] == [[1], [1]]

    def test_inner_derivative_is_x1_coefficient(self, pointed30):
        # MSet(s + x) at r = 1 with s = s0 + X: d/ds exp(s + x + tail) = itself
        point = asy.JetPoint(asy.xp(0.15))
        s = point.leaf(pointed30.a_U, asy.xp(0.05, 1.0))
        e = (s + point.leaf(pointed30.a_leg)).mset().head
        assert e[1] == pytest.approx(e[0], rel=1e-14)
        assert e[2] == pytest.approx(e[0] / 2, rel=1e-14)


class TestPinnedConstants:
    """The order-30 `asympt` constants, pinned (1e-9 relative) to the values
    printed when the X-polynomials were arrays and the solves LAPACK calls."""

    PINNED = {
        "inv_rho": 4.880528544032742,
        "A1": -0.23137622024787413, "A2": 0.04653887815706324,
        "A3": 0.06281332384023937,
        "U1": -0.19340420187708596, "U2": 0.15045322715748757,
        "U3": 0.010180576525339644,
        "T0": 0.03457946220171887, "T2": -0.18596383705689845,
        "T3": 0.1792176644510199,
        "C": 0.07583455460326684, "c_polytope": 0.03791727730163342,
    }

    def test_selfdual_scan(self, char30, pointed30, selfdual30):
        # a regression pin of the root from a 2-D Newton search on (s = F,
        # F_s = 1), which is the solver itself; the routes that share no code
        # with it are test_monotone_iteration_brackets_the_branch_point and
        # test_branch_point_is_where_the_least_gap_vanishes, which finds x
        # within 1e-9 of this value
        report = asy.verify_selfdual_growth(pointed30, selfdual30.s_U_paper, char30.rho, RUN_TOL)
        assert report.branch_x == pytest.approx(0.3930010376370808, rel=0, abs=1e-9)
        assert report.branch_s == pytest.approx(0.465261382005694, rel=0, abs=1e-9)

    def test_selfdual_scan_window_below_branch_point(self, pointed30, selfdual30):
        # sqrt(0.1) = 0.316 lies below the branch point at 0.393
        report = asy.verify_selfdual_growth(pointed30, selfdual30.s_U_paper, 0.1, RUN_TOL)
        assert report.no_branch_point
        assert report.x_max == pytest.approx(math.sqrt(0.1))

    def test_order30_values(self, char30, expansion30):
        t_poly = expansion30.t
        c = asy.transfer(t_poly, RUN_TOL)
        got = {"inv_rho": 1.0 / char30.rho, "C": c, "c_polytope": c / 2.0}
        for i in (1, 2, 3):
            got[f"A{i}"], got[f"U{i}"] = expansion30.a[i], expansion30.u[i]
        for i in (0, 2, 3):
            got[f"T{i}"] = t_poly[i]
        for name, want in self.PINNED.items():
            assert got[name] == pytest.approx(want, rel=1e-9, abs=0), name
