from functools import partial

import pytest

from twolevel import gfsystem as gf
from twolevel.powerseries import OnlineSeries, PowerSeries

# coefficient tables used as fixed expectations (independently reproduced by
# the brute-force enumeration in test_umrtree / test_acceptance)
T_COEFFS = [0, 0, 0, 2, 4, 10, 27, 78, 246, 818, 2871, 10446, 39358]
AR_HEAD = [0, 0, 1, 2, 6, 19, 70, 263, 1038]
SU_PAPER_HEAD = [0, 0, 0, 1, 0, 4, 0, 15, 0, 66]
SU_CORRECTED_HEAD = [0, 0, 0, 1, 0, 3, 0, 10, 0, 38]
SBOUND_HEAD = [0, 0, 0, 1, 1, 4, 5, 16, 24, 77]


class TestPointed:
    def test_low_order_coefficients(self, pointed30):
        assert pointed30.a_R.integer_coeffs()[:9] == AR_HEAD
        assert pointed30.a_M == pointed30.a_R
        assert pointed30.a_U.integer_coeffs()[:6] == [0, 0, 0, 1, 4, 15]

    def test_residuals_vanish(self, pointed30):
        p = pointed30
        assert gf._pointed_rhs(p.a_leg, p.a_R, p.a_U) == (p.a_R, p.a_U)

    def test_leg_series(self, pointed30):
        assert pointed30.a_leg == PowerSeries.x(30)

    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            gf.solve_pointed(1)

    def test_coefficients_nonnegative(self, pointed30):
        for s in (pointed30.a_R, pointed30.a_U):
            assert all(c >= 0 for c in s.integer_coeffs())


class TestUnrooted:
    def test_known_coefficients(self, unrooted30):
        assert unrooted30.t.integer_coeffs()[:13] == T_COEFFS

    def test_dissymmetry_parts(self, unrooted30):
        assert unrooted30.t == unrooted30.t_v + unrooted30.t_e - unrooted30.t_d

    def test_counts_are_nonnegative_integers(self, unrooted30):
        assert all(c >= 0 for c in unrooted30.t.integer_coeffs())

    def test_no_trees_below_three_legs(self, unrooted30):
        assert unrooted30.t.integer_coeffs()[:3] == [0, 0, 0]


class TestSelfDual:
    def test_paper_variant_head(self, selfdual30):
        assert selfdual30.s_U_paper.integer_coeffs()[:10] == SU_PAPER_HEAD

    def test_corrected_variant_head(self, selfdual30):
        assert selfdual30.s_U_corrected.integer_coeffs()[:10] == SU_CORRECTED_HEAD

    def test_even_coefficients_vanish(self, selfdual30):
        # a self-dual pointed tree has odd size: legs pair up except around
        # the odd core at the root
        for s in (selfdual30.s_U_paper, selfdual30.s_U_corrected):
            assert all(c == 0 for c in s.integer_coeffs()[::2])

    def test_paper_dominates_corrected(self, selfdual30):
        diff = selfdual30.s_U_paper - selfdual30.s_U_corrected
        assert all(c >= 0 for c in diff.integer_coeffs())

    def test_bound_head(self, selfdual30):
        assert selfdual30.s_bound.integer_coeffs()[:10] == SBOUND_HEAD

    def test_bound_dominates_paper_variant(self, selfdual30):
        diff = selfdual30.s_bound - selfdual30.s_U_paper
        assert all(c >= 0 for c in diff.integer_coeffs())

    def test_bound_dominated_by_a_U(self, selfdual30, pointed30):
        diff = pointed30.a_U - selfdual30.s_bound
        assert all(c >= 0 for c in diff.integer_coeffs())

    def test_unknown_variant_rejected(self, pointed30):
        with pytest.raises(ValueError):
            gf.compute_selfdual(pointed30, "bogus")


class TestIndependentRoute:
    """Order 200 against bench/reference.py: plain-int recurrences that share
    no code with the package."""

    @pytest.fixture(scope="class")
    def reference200(self, reference):
        return reference.solve(200)

    def test_order_200(self, reference200):
        p = gf.solve_pointed(200)
        t = gf.assemble_T(p).t
        assert p.a_R.integer_coeffs() == reference200.a_R
        assert p.a_M.integer_coeffs() == reference200.a_M
        assert p.a_U.integer_coeffs() == reference200.a_U
        assert t.integer_coeffs() == reference200.t
        assert gf.compute_forests(t).integer_coeffs() == reference200.forest


class TestOnlineSolver:
    def test_ill_founded_system_fails_the_residual_pass(self):
        # y = x + (1 + x) y has slope 1 in y_n: the provisional 0 is not exact
        def rhs(leg, y):
            return (leg + (leg + 1) * y,)

        with pytest.raises(ArithmeticError, match="residual 0"):
            gf._fixed_point(rhs, (PowerSeries.x(10),), 1)

    def test_constant_term_read_through_substitution(self):
        # y = 1 + x y(x^2) is 1 + x + x^3 + x^7 + x^15 + ...: index 0 of y(x^2)
        # is read before y_0 is settled, so it must be recomputed too
        def rhs(leg, y):
            return (leg * y.substitute_power(2) + 1,)

        (y,) = gf._fixed_point(rhs, (PowerSeries.x(20),), 1)
        assert y.integer_coeffs() == [int(n + 1 in (1, 2, 4, 8, 16)) for n in range(21)]

    @pytest.fixture(scope="class")
    def order60(self):
        p = gf.solve_pointed(60)
        return p, gf.solve_selfdual(p)

    @staticmethod
    def assert_same_on_both_rings(rhs, *inputs):
        online = rhs(*map(OnlineSeries.known, inputs))
        for got, want in zip(online, rhs(*inputs), strict=True):
            assert got.upto(60)[:61] == list(want.coeffs)

    def test_pointed_rhs(self, order60):
        p, _ = order60
        self.assert_same_on_both_rings(gf._pointed_rhs, p.a_leg, p.a_R, p.a_U)

    @pytest.mark.parametrize("variant", ["paper", "corrected"])
    def test_selfdual_rhs(self, order60, variant):
        p, sd = order60
        self.assert_same_on_both_rings(partial(gf._selfdual_rhs, variant), p.a_R, p.a_M,
                                       p.a_U, p.a_leg, getattr(sd, f"s_U_{variant}"))

    def test_s_bound_rhs(self, order60):
        p, sd = order60
        self.assert_same_on_both_rings(gf._s_bound_rhs, gf.pair_class(p, sd.s_U_paper),
                                       p.a_leg, sd.s_bound)


class TestForests:
    def test_head(self, unrooted30):
        f = gf.compute_forests(unrooted30.t)
        cs = f.integer_coeffs()
        assert cs[0] == 1
        assert cs[3] == 2  # only single trees fit
        assert cs[4] == 4  # two trees need at least 6 legs
        assert cs[6] == 30  # 27 single trees + 3 pairs of size-3 trees

    def test_requires_zero_constant(self):
        with pytest.raises(ValueError):
            gf.compute_forests(PowerSeries.one(5))


class TestLowerBound:
    def test_matches_hand_computation(self, unrooted30):
        # S2(n) for n = 0..8 from the brute-force oracle
        selfdual = [0, 0, 0, 0, 2, 0, 5, 0, 16]
        got = gf.lower_bound_counts(unrooted30.t.truncate(8), selfdual)
        assert got == [0, 0, 0, 1, 3, 5, 16, 39, 131]

    def test_parity_violation_raises(self, unrooted30):
        with pytest.raises(ArithmeticError):
            gf.lower_bound_counts(unrooted30.t.truncate(4), [0, 0, 0, 1, 0])
