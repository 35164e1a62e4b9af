import dataclasses
import math

import pytest

from twolevel import asymptotics as asy
from twolevel import gfsystem as gf
from twolevel.powerseries import PowerSeries

RHO = 0.20489584
TOL = 1e-6
RUN_TOL = 1e-12  # the default --tol, to which the fixtures are solved


def close(want):
    """Approximate equality with the default rtol and atol of np.allclose."""
    return pytest.approx(want, rel=1e-5, abs=1e-8)


def _pairs(p, sd):
    """The pair class of the self-dual bound, as `cmd_asympt` builds it."""
    return gf.pair_class(p, sd.s_U_paper)


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
        sq = PowerSeries.from_coeffs([0, 0, 1], 4)
        out = asy.series_at_xpoly(sq, asy.xp(2.0, 1.0))
        assert out[:3] == close([4.0, 4.0, 1.0])
        assert out[3:] == close([0.0] * (asy.DEG - 2))

    def test_tail_value_geometric(self):
        # MSet(x) = exp(sum_{r>=1} x^r / r) = 1 / (1 - x), tail cut by the point
        leg = asy.JetPoint(asy.xp(0.5)).leaf(PowerSeries.x(2))
        got = leg.mset()()
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

    def test_newton_step_on_linear_residual(self):
        # g(v) = a v - b, one step from v = 0 lands on the solution
        a = [[4.0, 1.0], [1.0, 3.0]]
        b = [1.0, 2.0]

        def g(v):
            return [sum(c * x for c, x in zip(row, v)) - rhs for row, rhs in zip(a, b)]

        shifted = [g([asy.FD_STEP, 0.0]), g([0.0, asy.FD_STEP])]
        assert asy._newton_step(g([0.0, 0.0]), shifted) == pytest.approx(
            [1 / 11, 7 / 11], rel=1e-7)


class TestCharSystem:
    def test_branch_point(self, char30):
        assert char30.rho == pytest.approx(RHO, abs=TOL)
        assert 1.0 / char30.rho == pytest.approx(4.88052854, abs=TOL)
        assert char30.a_R == pytest.approx(0.13529174, abs=TOL)
        assert char30.a_U == pytest.approx(0.06921673, abs=TOL)

    def test_residual_norm_small(self, char30, pointed30):
        # the carried residual is the max-norm of the defining equations at rho
        g = asy._char_residual(asy.JetPoint(asy.xp(char30.rho)), char30.a_R, char30.a_U,
                               pointed30.a_R, pointed30.a_U)
        assert char30.residual == max(map(abs, g))
        assert char30.residual < 1e-11

    def test_stability_in_tail_order(self, char30):
        p40 = gf.solve_pointed(40)
        char40 = asy.solve_char_system(p40.a_R, p40.a_U)
        assert abs(char40.rho - char30.rho) < 1e-7

    def test_bad_seed_raises(self, pointed30):
        with pytest.raises(ArithmeticError):
            asy.solve_char_system(
                pointed30.a_R, pointed30.a_U, seed=(0.9, 50.0, 50.0), max_iter=5
            )


class TestSingularExpansions:
    EXPECTED_A = [0.13529174, -0.23137622, 0.04653888, 0.06281332]
    EXPECTED_U = [0.06921673, -0.19340420, 0.15045323, 0.01018058]

    def test_coefficients(self, expansion30):
        for i in range(4):
            assert expansion30.a[i] == pytest.approx(self.EXPECTED_A[i], abs=TOL)
            assert expansion30.u[i] == pytest.approx(self.EXPECTED_U[i], abs=TOL)

    def test_residuals_matched(self, char30, expansion30, pointed30):
        # every coefficient X^0..X^DEG, not only the X^0..X^3 that asympt prints
        r_a, r_u = asy._pointed_residuals(asy._branch_point(char30.rho), expansion30.a,
                                          expansion30.u, pointed30.a_R, pointed30.a_U)
        assert len(r_a) == len(r_u) == asy.DEG + 1
        assert max(map(abs, r_a + r_u)) < 1e-12
        assert expansion30.residual == max(map(abs, r_a + r_u))

    def test_branch_sign_convention(self, expansion30):
        assert expansion30.a[1] < 0 and expansion30.u[1] < 0

    def test_evaluation_count(self, char30, pointed30, monkeypatch):
        # two for J - I, two per order X^2..X^DEG, one final residual check
        calls = []

        def counted(*args):
            calls.append(None)
            return residuals(*args)

        residuals = asy._pointed_residuals
        monkeypatch.setattr(asy, "_pointed_residuals", counted)
        asy.singular_expansions(char30, pointed30.a_R, pointed30.a_U)
        assert len(calls) <= 16

    def test_off_the_branch_point_raises(self, char30, pointed30):
        # at 0.9 rho, J - I is regular: no direction solves the X^1 residual
        off = dataclasses.replace(char30, rho=0.9 * char30.rho)
        with pytest.raises(ArithmeticError):
            asy.singular_expansions(off, pointed30.a_R, pointed30.a_U)


class TestExpandT:
    def test_constants(self, expansion30, pointed30):
        t_poly = asy.expand_T(expansion30, pointed30.a_R, pointed30.a_U)
        assert t_poly[0] == pytest.approx(0.03457946, abs=TOL)
        assert abs(t_poly[1]) < 1e-8
        assert t_poly[2] == pytest.approx(-0.18596384, abs=TOL)
        assert t_poly[3] == pytest.approx(0.17921766, abs=TOL)

    def test_T0_equals_series_value_at_rho(self, expansion30, pointed30, char30):
        t_poly = asy.expand_T(expansion30, pointed30.a_R, pointed30.a_U)
        t200 = gf.assemble_T(gf.solve_pointed(200)).t
        assert t_poly[0] == pytest.approx(t200.eval_float(char30.rho), abs=2e-5)


class TestForests:
    def test_constants(self, expansion30, pointed30, unrooted30, char30):
        t_poly = asy.expand_T(expansion30, pointed30.a_R, pointed30.a_U)
        f_poly = asy.expand_forests(t_poly, unrooted30.t, char30.rho)
        assert f_poly[0] == pytest.approx(1.03526853, abs=TOL)
        assert f_poly[2] == pytest.approx(-0.19252251, abs=TOL)
        assert f_poly[3] == pytest.approx(0.18553841, abs=TOL)
        assert f_poly[0] > 1.0
        assert f_poly[3] == pytest.approx(f_poly[0] * t_poly[3], abs=1e-10)


class TestTransfer:
    def test_amplitudes(self, expansion30, pointed30, unrooted30, char30):
        t_poly = asy.expand_T(expansion30, pointed30.a_R, pointed30.a_U)
        f_poly = asy.expand_forests(t_poly, unrooted30.t, char30.rho)
        est_t = asy.transfer(t_poly, char30.rho, RUN_TOL)
        est_f = asy.transfer(f_poly, char30.rho, RUN_TOL)
        assert est_t.amplitude == pytest.approx(0.07583455, abs=TOL)
        assert est_f.amplitude == pytest.approx(0.07850913, abs=TOL)
        assert est_t.amplitude / 2.0 == pytest.approx(0.03791727, abs=TOL)
        assert est_t.poly_exponent == -2.5
        assert est_t.growth_rate == pytest.approx(1.0 / char30.rho)

    def test_requires_vanishing_x1(self, char30):
        bad = asy.xp(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ArithmeticError):
            asy.transfer(bad, char30.rho, RUN_TOL)

    def test_estimate_value(self):
        est = asy.AsymptoticEstimate(2.0, -2.5, 3.0)
        assert est.value(4) == pytest.approx(2.0 * 4**-2.5 * 81.0)


class TestSelfDualGrowth:
    def test_scan_finds_subcritical_branch_point(self, pointed30, selfdual30, char30):
        # honest outcome: the bounding-series system coalesces before
        # sqrt(rho); the scan reports the point instead of claiming none
        report = asy.verify_selfdual_growth(
            selfdual30.s_bound, _pairs(pointed30, selfdual30), char30.rho, RUN_TOL
        )
        assert not report.no_branch_point
        assert report.branch_x == pytest.approx(0.393001, abs=1e-4)
        assert 0 < report.branch_x <= math.sqrt(char30.rho)
        assert "branch point at" in report.describe()

    def test_report_describe_positive_case(self):
        rep = asy.BranchPointReport(no_branch_point=True, x_max=0.45)
        assert rep.describe().startswith("no branch point")

    def test_scan_evaluation_count(self, pointed30, selfdual30, char30, monkeypatch):
        # one evaluation per crest Newton step, and each crest is started
        # from the last one, so a few steps per regula falsi step suffice
        calls = []

        def counted(*args):
            calls.append(None)
            return rhs(*args)

        rhs = gf._s_bound_rhs
        monkeypatch.setattr(gf, "_s_bound_rhs", counted)
        report = asy.verify_selfdual_growth(selfdual30.s_bound, _pairs(pointed30, selfdual30),
                                            char30.rho, RUN_TOL)
        assert not report.no_branch_point
        assert len(calls) <= 80

    def test_exact_s_column(self, pointed30, selfdual30):
        # -2 (F_ss / 2), from the X^2 coefficient, against a forward
        # difference of 1 - F_s in s at x = 0.39
        def taylor(s):
            point = asy.JetPoint(asy.xp(0.39))
            (f,) = gf._s_bound_rhs(point.leaf(_pairs(pointed30, selfdual30)),
                                   point.leaf(pointed30.a_leg),
                                   point.leaf(selfdual30.s_bound, asy.xp(s, 1.0)))
            return f()

        h = asy.FD_STEP
        f, g = taylor(0.45), taylor(0.45 + h)
        assert -2.0 * f[2] == pytest.approx(((1.0 - g[1]) - (1.0 - f[1])) / h, rel=1e-5)

    def test_monotone_iteration_brackets_the_branch_point(self, pointed30, selfdual30,
                                                          char30):
        # s <- F(x, s) from s = 0 increases to the least fixed point where one
        # exists and grows past every bound where none does; it shares no
        # code with the crest Newton or the regula falsi of the scan
        pairs = _pairs(pointed30, selfdual30)
        report = asy.verify_selfdual_growth(selfdual30.s_bound, pairs, char30.rho, RUN_TOL)

        def iterate(x):
            point = asy.JetPoint(asy.xp(x))
            s = 0.0
            for _ in range(1000):
                (f,) = gf._s_bound_rhs(point.leaf(pairs), point.leaf(pointed30.a_leg),
                                       point.leaf(selfdual30.s_bound, asy.xp(s)))
                s, last = f()[0], s
                if s > 1.0 or s - last < 1e-13:
                    return s, s - last
            raise AssertionError(f"no decision at x = {x} in 1000 steps")

        s, step = iterate(report.branch_x - 1e-3)
        assert step < 1e-13 and 0.0 < s < report.branch_s
        s, _ = iterate(report.branch_x + 1e-3)
        assert s > 1.0


class TestJetTailCutoff:
    """A substituted or combined element is cut at the point it is read at."""

    X0 = 0.4

    def leaf(self, pointed30):
        return asy.JetPoint(asy.xp(self.X0)).leaf(pointed30.a_R)

    def test_substitution_stops_at_the_leafs_cutoff(self, pointed30):
        f = self.leaf(pointed30)
        for r in (1, 2, 3):
            ks = f.substitute_power(2)._multiples(r)
            # index 2 r k is read; the leaf gives more than its constant
            # term there, and not one step further
            assert all(self.X0 ** (2 * r * k) > asy.TAIL_EPS for k in ks)
            assert self.X0 ** (2 * r * (ks[-1] + 1)) <= asy.TAIL_EPS

    def test_sum_keeps_the_larger_cutoff(self, pointed30):
        f = self.leaf(pointed30)
        g = f.substitute_power(2)
        assert g.x0 == pytest.approx(self.X0**2)
        assert (f + g).x0 == (g + f).x0 == (f * g).x0 == (g - f).x0 == self.X0

    def test_mset_of_substituted_leaf_is_exact(self, pointed30):
        # the reads past the leaf's cutoff are its constant term 0, so the
        # cut sum is the uncut one, bit for bit
        f = self.leaf(pointed30)
        uncut = asy.xp_exp(asy._xp_sum([c / k for c in f(2 * k)] for k in f._multiples(1)))
        assert len(f.substitute_power(2)._multiples(1)) < len(f._multiples(1))
        assert f.substitute_power(2).mset()() == uncut


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
                    [PowerSeries.from_coeffs(s.coeffs, 90) for s in series])

        def check(ring_result, int_result, solved):
            assert int_result.truncate(solved.order) == solved
            want = asy.series_at_xpoly(int_result, x_of_X)
            assert ring_result() == pytest.approx(want, rel=1e-12, abs=0)

        return inputs, check

    def test_pointed_rhs(self, both, pointed30):
        inputs, check = both
        p = pointed30
        ring, ints = inputs(p.a_leg, p.a_R, p.a_U)
        for got, want, solved in zip(gf._pointed_rhs(*ring), gf._pointed_rhs(*ints),
                                     (p.a_R, p.a_U), strict=True):
            check(got, want, solved)

    def test_assemble_T(self, both, pointed30, unrooted30):
        inputs, check = both
        p = pointed30
        ring, ints = inputs(p.a_R, p.a_U, p.a_leg)
        check(gf.assemble_T(gf.PointedSeries(*ring)).t,
              gf.assemble_T(gf.PointedSeries(*ints)).t, unrooted30.t)

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
        ring, ints = inputs(p.a_R, p.a_M, p.a_U, p.a_leg, s_U)
        (got,), (want,) = (gf._selfdual_rhs(variant, *ring),
                           gf._selfdual_rhs(variant, *ints))
        check(got, want, s_U)

    def test_inner_derivative_is_x1_coefficient(self, pointed30):
        # MSet(s + x) at r = 1 with s = s0 + X: d/ds exp(s + x + tail) = itself
        point = asy.JetPoint(asy.xp(0.15))
        s = point.leaf(pointed30.a_U, asy.xp(0.05, 1.0))
        e = (s + point.leaf(pointed30.a_leg)).mset()()
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
        # the root pinned from a 2-D Newton search on (s = F, F_s = 1), which
        # shares no step with the bracket
        report = asy.verify_selfdual_growth(selfdual30.s_bound, _pairs(pointed30, selfdual30),
                                            char30.rho, RUN_TOL)
        assert report.branch_x == pytest.approx(0.3930010376370808, rel=0, abs=1e-9)
        assert report.branch_s == pytest.approx(0.465261382005694, rel=0, abs=1e-9)

    def test_selfdual_scan_window_below_branch_point(self, pointed30, selfdual30):
        # sqrt(0.1) = 0.316 lies below the branch point at 0.393
        report = asy.verify_selfdual_growth(selfdual30.s_bound, _pairs(pointed30, selfdual30),
                                            0.1, RUN_TOL)
        assert report.no_branch_point
        assert report.x_max == pytest.approx(math.sqrt(0.1))

    def test_order30_values(self, char30, expansion30, pointed30):
        t_poly = asy.expand_T(expansion30, pointed30.a_R, pointed30.a_U)
        est = asy.transfer(t_poly, char30.rho, RUN_TOL)
        got = {"inv_rho": 1.0 / char30.rho, "C": est.amplitude,
               "c_polytope": est.amplitude / 2.0}
        for i in (1, 2, 3):
            got[f"A{i}"], got[f"U{i}"] = expansion30.a[i], expansion30.u[i]
        for i in (0, 2, 3):
            got[f"T{i}"] = t_poly[i]
        for name, want in self.PINNED.items():
            assert got[name] == pytest.approx(want, rel=1e-9, abs=0), name
