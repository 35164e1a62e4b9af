import hashlib

import pytest

from twolevel import gfsystem as gf
from twolevel.powerseries import PowerSeries

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

    def test_accepts_order_2(self):
        # the guard's boundary; order 2 holds A_R's x^2, the two-leaf multiset
        p = gf.solve_pointed(2)
        assert p.a_R.coeffs == (0, 0, 1)
        assert p.a_U.coeffs == (0, 0, 0)

    def test_coefficients_nonnegative(self, pointed30):
        for s in (pointed30.a_R, pointed30.a_U):
            assert all(c >= 0 for c in s.integer_coeffs())


class TestUnrooted:
    def test_known_coefficients(self, unrooted30):
        assert unrooted30.integer_coeffs()[:13] == T_COEFFS

    def test_counts_are_nonnegative_integers(self, unrooted30):
        assert all(c >= 0 for c in unrooted30.integer_coeffs())

    def test_no_trees_below_three_legs(self, unrooted30):
        assert unrooted30.integer_coeffs()[:3] == [0, 0, 0]


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
        t = gf.assemble_T(p)
        assert p.a_R.integer_coeffs() == reference200.a_R
        assert p.a_M.integer_coeffs() == reference200.a_M
        assert p.a_U.integer_coeffs() == reference200.a_U
        assert t.integer_coeffs() == reference200.t
        assert gf.compute_forests(t).integer_coeffs() == reference200.forest


class TestForests:
    def test_head(self, unrooted30):
        f = gf.compute_forests(unrooted30)
        cs = f.integer_coeffs()
        assert cs[0] == 1
        assert cs[3] == 2  # only single trees fit
        assert cs[4] == 4  # two trees need at least 6 legs
        assert cs[6] == 30  # 27 single trees + 3 pairs of size-3 trees

    def test_counts_components_of_at_least_three_elements(self, unrooted30):
        # forest = MSet(T) reads 1, 0, 0, 2, 4, 10: T starts at n = 3, so it
        # misses every matroid with a component on 1 or 2 elements
        assert gf.compute_forests(unrooted30).integer_coeffs()[:6] == [1, 0, 0, 2, 4, 10]
        # the connected matroids on 1 and 2 elements are the loop and the
        # coloop (2x) and U(1,2) (x^2); with them MSet counts every 2-level
        # matroid: all matroids on n <= 5 elements (Mayhew-Royle, JCTB 2008,
        # OEIS A055545), as the excluded minors of 2-levelness, M(K4), W^3,
        # Q6 and P6, have 6 elements (Grande-Sanyal, JCTB 2017); at n = 6,
        # 98 matroids less those four
        small = PowerSeries([0, 2, 1] + [0] * (unrooted30.order - 2))
        g = gf.compute_forests(small + unrooted30).integer_coeffs()
        assert g[:6] == [1, 2, 4, 8, 17, 38]
        assert g[6] == 98 - 4 == 94

    def test_requires_zero_constant(self):
        with pytest.raises(ValueError):
            gf.compute_forests(PowerSeries([1, 0, 0, 0, 0, 0]))


class TestLowerBound:
    def test_matches_hand_computation(self, pointed30, unrooted30, selfdual30):
        s2 = gf.assemble_S2(pointed30, selfdual30.s_U_corrected)
        # S2(n) for n = 0..8 from the brute-force oracle
        assert s2.integer_coeffs()[:9] == [0, 0, 0, 0, 2, 0, 5, 0, 16]
        got = (unrooted30 + s2) / 2
        assert got.integer_coeffs()[:9] == [0, 0, 0, 1, 3, 5, 16, 39, 131]

    def test_parity_violation_raises(self, unrooted30):
        odd_s2 = PowerSeries([0, 0, 0, 1, 0])
        with pytest.raises(ArithmeticError):
            (unrooted30.truncate(4) + odd_s2) / 2

    def test_exact_and_nonnegative_at_order_100(self):
        p = gf.solve_pointed(100)
        s2 = gf.assemble_S2(p, gf.compute_selfdual(p, "corrected"))
        (gf.assemble_T(p) + s2) / 2  # raises ArithmeticError where L2 + S2 is odd
        assert min(s2.integer_coeffs()) == 0


class TestCollectedForm:
    """The equations keep their collected form: the terms that cancel in the
    dissymmetry identity are not multiplied out and subtracted again."""

    @staticmethod
    def products(monkeypatch, build, *args):
        calls = []
        mul = PowerSeries.__mul__

        def counted(self, other):
            calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(PowerSeries, "__mul__", counted)
        build(*args)
        monkeypatch.undo()
        return len(calls)

    def test_assemble_T_runs_at_most_four_products(self, monkeypatch, pointed30):
        # one inside each mset2 (of f, s and a_U), and (a_R + a_U)^2
        assert self.products(monkeypatch, gf.assemble_T, pointed30) <= 4

    def test_assemble_S2_runs_at_most_three_products(self, monkeypatch, pointed30, selfdual30):
        # E MSet(P), mset2(core) and s_U^2
        s_U = selfdual30.s_U_corrected
        assert self.products(monkeypatch, gf.assemble_S2, pointed30, s_U) <= 3

    def test_S2_at_order_150_is_pinned(self):
        # SHA-256 of repr(integer_coeffs()), captured before the collected form
        p = gf.solve_pointed(150)
        s2 = gf.assemble_S2(p, gf.compute_selfdual(p, "corrected"))
        digest = hashlib.sha256(repr(s2.integer_coeffs()).encode()).hexdigest()
        assert digest == "137a671a3fc73a73fe319377bd6cc3d5c430ada9a48310ed1bcf70bd4ab0150e"
