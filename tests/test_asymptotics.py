import math

import numpy as np
import pytest

from twolevel import asymptotics as asy
from twolevel import gfsystem as gf
from twolevel.powerseries import PowerSeries

RHO = 0.20489584
TOL = 1e-6


class TestXPolyHelpers:
    def test_xp_mul(self):
        p = asy.xp(1.0, 2.0)
        q = asy.xp(0.0, 1.0)
        assert np.allclose(asy.xp_mul(p, q), asy.xp(0.0, 1.0, 2.0))

    def test_xp_mul_truncates(self):
        p = asy.xp(0.0, 0.0, 0.0, 1.0)
        out = asy.xp_mul(p, p)
        assert np.allclose(out, np.zeros(asy.DEG + 1))

    def test_xp_exp_constant(self):
        out = asy.xp_exp(asy.xp(1.0))
        assert out[0] == pytest.approx(math.e)
        assert np.allclose(out[1:], 0.0)

    def test_xp_exp_linear(self):
        out = asy.xp_exp(asy.xp(0.0, 1.0))
        want = [1 / math.factorial(j) for j in range(asy.DEG + 1)]
        assert np.allclose(out, want)

    def test_series_at_xpoly_is_shifted_taylor(self):
        # (x)^2 expanded at x = 2 + u: 4 + 4u + u^2
        sq = PowerSeries.from_coeffs([0, 0, 1], 4)
        out = asy.series_at_xpoly(sq, asy.xp(2.0, 1.0))
        assert np.allclose(out[:3], [4.0, 4.0, 1.0])
        assert np.allclose(out[3:], 0.0)

    def test_tail_value_geometric(self):
        # sum_{r>=1} x^r / r = -log(1-x); here from r=2
        leg = PowerSeries.x(2)
        got = asy.tail_value(leg, 0.5)
        assert got == pytest.approx(-math.log(0.5) - 0.5, abs=1e-12)

    def test_tail_value_rejects_bad_argument(self):
        with pytest.raises(ValueError):
            asy.tail_value(PowerSeries.x(2), 1.5)


class TestCharSystem:
    def test_branch_point(self, char30):
        assert char30.rho == pytest.approx(RHO, abs=TOL)
        assert 1.0 / char30.rho == pytest.approx(4.88052854, abs=TOL)
        assert char30.a_R == pytest.approx(0.13529174, abs=TOL)
        assert char30.a_U == pytest.approx(0.06921673, abs=TOL)

    def test_residual_norm_small(self, char30, pointed30):
        res = asy.char_residual_norm(char30, pointed30.a_R, pointed30.a_U)
        assert res < 1e-11

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
        res = asy.expansion_residual_norm(
            char30, expansion30, pointed30.a_R, pointed30.a_U
        )
        assert res < 1e-10

    def test_branch_sign_convention(self, expansion30):
        assert expansion30.a[1] < 0 and expansion30.u[1] < 0


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
        est_t = asy.transfer(t_poly, char30.rho)
        est_f = asy.transfer(f_poly, char30.rho)
        assert est_t.amplitude == pytest.approx(0.07583455, abs=TOL)
        assert est_f.amplitude == pytest.approx(0.07850913, abs=TOL)
        assert est_t.amplitude / 2.0 == pytest.approx(0.03791727, abs=TOL)
        assert est_t.poly_exponent == -2.5
        assert est_t.growth_rate == pytest.approx(1.0 / char30.rho)

    def test_requires_vanishing_x1(self, char30):
        bad = asy.xp(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ArithmeticError):
            asy.transfer(bad, char30.rho)

    def test_estimate_value(self):
        est = asy.AsymptoticEstimate(2.0, -2.5, 3.0)
        assert est.value(4) == pytest.approx(2.0 * 4**-2.5 * 81.0)


class TestSelfDualGrowth:
    def test_scan_finds_subcritical_branch_point(self, pointed30, selfdual30, char30):
        # honest outcome: the bounding-series system coalesces before
        # sqrt(rho); the scan reports the point instead of claiming none
        pair = pointed30.a_R + pointed30.a_M + (
            pointed30.a_U - selfdual30.s_U_paper
        )
        report = asy.verify_selfdual_growth(
            selfdual30.s_bound, pair, char30.rho
        )
        assert not report.no_branch_point
        assert report.branch_x == pytest.approx(0.393001, abs=1e-4)
        assert 0 < report.branch_x <= math.sqrt(char30.rho)
        assert "branch point at" in report.describe()

    def test_report_describe_positive_case(self):
        rep = asy.BranchPointReport(no_branch_point=True, x_max=0.45)
        assert rep.describe().startswith("no branch point")


class TestEmpiricalGrowth:
    def test_richardson_rate_geometric(self):
        s = PowerSeries.from_coeffs([2**n for n in range(12)])
        assert asy.richardson_rate(s) == pytest.approx(2.0, abs=1e-12)

    def test_richardson_needs_three_terms(self):
        with pytest.raises(ValueError):
            asy.richardson_rate(PowerSeries.from_coeffs([1, 2], 2))
