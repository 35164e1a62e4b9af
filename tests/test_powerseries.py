import ast
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twolevel import gfsystem as gf
from twolevel import powerseries
from twolevel.powerseries import OnlineSeries, PowerSeries, _known, fixed_point

import reference_routes as ref

ORDER = 8


def series(coeffs, order=ORDER):
    """The series of ``coeffs`` at ``order``, zero-padded or truncated."""
    cs = list(coeffs)[:order + 1]
    return PowerSeries(cs + [0] * (order + 1 - len(cs)))


series_strategy = st.lists(st.integers(-9, 9), min_size=1, max_size=ORDER + 1).map(series)
no_constant_strategy = series_strategy.map(lambda s: series([0, *s.coeffs[1:]]))


class TestBasics:
    def test_constructors(self):
        assert PowerSeries.x(3).coeffs == (0, 1, 0, 0)
        assert PowerSeries.x(1).coeffs == (0, 1)
        with pytest.raises(ValueError):
            PowerSeries.x(0)

    def test_repr_shows_at_most_eight_coefficients(self):
        assert repr(series(range(8), order=7)) == "PowerSeries([0, 1, 2, 3, 4, 5, 6, 7]; order=7)"
        assert (repr(series(range(9), order=8))
                == "PowerSeries([0, 1, 2, 3, 4, 5, 6, 7, ...]; order=8)")

    def test_order_and_coeff(self):
        s = series([1, 2, 3])
        assert s.order == ORDER
        assert s.coeff(1) == 2
        with pytest.raises(IndexError):
            s.coeff(ORDER + 1)

    def test_truncate_and_extend(self):
        s = series([1, 2, 3], order=4)
        assert s.truncate(2).coeffs == (1, 2, 3)
        assert s.truncate(6) is s
        assert series(s.coeffs, 6).coeffs == (1, 2, 3, 0, 0, 0, 0)

    def test_binary_ops_truncate_to_shorter(self):
        a = series([1, 1], order=5)
        b = series([1, 1], order=3)
        assert (a + b).order == 3
        assert (a * b).order == 3

    def test_integer_coeffs(self):
        assert series([1, 2]).integer_coeffs() == [1, 2] + [0] * (ORDER - 1)

    def test_rejects_non_integral_coefficients(self):
        with pytest.raises(TypeError):
            PowerSeries([Fraction(1, 2)])
        with pytest.raises(TypeError):
            PowerSeries([1.0])

    def test_eval_float(self):
        s = series([1, 2, 3], order=2)
        assert s.eval_float(0.5) == pytest.approx(1 + 1 + 0.75)

    def test_substitute_power(self):
        s = series([0, 1, 1])
        s2 = s.substitute_power(2)
        assert s2.coeff(2) == 1 and s2.coeff(4) == 1 and s2.coeff(1) == 0

    def test_scalar_ops(self):
        s = series([0, 2])
        assert (3 * s).coeff(1) == 6
        assert (s / 2).coeff(1) == 1
        assert (-s).coeff(1) == -2

    def test_constants_add_to_the_constant_term(self):
        s = series([5, 2])
        assert s + 2 == s + 2 * series([1])
        assert (s - 7).coeffs[:2] == (-2, 2)
        with pytest.raises(TypeError):
            s + 0.5

    def test_substitution_sum_is_divisor_sum(self):
        # [x^n] sum_{r>=1} a(x^r) = sum_{d | n} a_d
        s = series([0, 1, 2, 3, 4, 5, 6, 7, 8])
        want = [sum(d for d in range(1, n + 1) if n % d == 0) for n in range(ORDER + 1)]
        assert list(online_coeffs(online(s).substitution_sum())) == want

    def test_division_is_exact(self):
        with pytest.raises(ArithmeticError):
            series([2, 3, 4]) / 2
        with pytest.raises(ArithmeticError):
            series([0, -1]) / 2


class TestAlgebraProperties:
    @given(series_strategy, series_strategy)
    @settings(max_examples=100)
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(series_strategy, series_strategy, series_strategy)
    @settings(max_examples=100)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(no_constant_strategy)
    @settings(max_examples=100)
    def test_mset_times_signed_mset(self, a):
        # exp(sum_r (1 + (-1)^r) a(x^r)/r) = exp(sum_r a(x^2r)/r)
        assert a.mset() * a.mset(signed=True) == a.mset().substitute_power(2)

    @given(no_constant_strategy, no_constant_strategy)
    @settings(max_examples=100)
    def test_mset_additive(self, a, b):
        assert (a + b).mset() == a.mset() * b.mset()

    @given(series_strategy, st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=100)
    def test_substitute_power_composes(self, a, r, s):
        assert a.substitute_power(r).substitute_power(s) == a.substitute_power(r * s)

    @given(series_strategy)
    @settings(max_examples=100)
    def test_substitution_sum_adds_every_power(self, a):
        # against one plain-list series per power, r = 1..order; the online
        # sum reads coefficient 0 as 0, where this truncated sum has order a_0
        want = [sum(cs) for cs in zip(*(ref.substitute(list(a.coeffs), r)
                                        for r in range(1, a.order + 1)))]
        assert online_coeffs(online(a).substitution_sum()) == (0, *want[1:])


def brute_force_multiset(coeffs, order, predicate):
    """Multiset counts by explicit enumeration for a class with finitely many
    objects per size: coeffs[k] objects of size k."""
    objects = []
    for size, cnt in enumerate(coeffs):
        if size == 0:
            continue
        objects.extend((size, i) for i in range(cnt))
    out = [0] * (order + 1)
    for m in range(order + 1):
        for combo in combinations_with_replacement(objects, m):
            total = sum(size for size, _ in combo)
            if total <= order and predicate(m):
                out[total] += 1
    return out


@pytest.mark.parametrize(
    "counts",
    [(0, 2), (0, 1, 1), (0, 0, 3), (0, 2, 0, 1), (0, 1, 2, 1)],
)
class TestMultisetAgainstBruteForce:
    def make(self, counts):
        return series(counts)

    def test_unrestricted(self, counts):
        got = self.make(counts).mset().integer_coeffs()
        want = brute_force_multiset(counts, ORDER, lambda m: True)
        assert got == want

    def test_exactly(self, counts):
        f = self.make(counts)
        for k, got in enumerate((series([1]), f, f.mset2())):
            want = brute_force_multiset(counts, ORDER, lambda m: m == k)
            assert got.integer_coeffs() == want

    def test_at_least(self, counts):
        f = self.make(counts)
        one = series([1])
        parts = (f.mset(), f.mset() - one, f.mset() - one - f, f.mset() - one - f - f.mset2())
        for k, got in enumerate(parts):
            want = brute_force_multiset(counts, ORDER, lambda m: m >= k)
            assert got.integer_coeffs() == want

    def test_odd_at_least(self, counts):
        f = self.make(counts)
        for k, got in ((1, f.mset_odd()), (3, f.mset_odd() - f)):
            want = brute_force_multiset(counts, ORDER, lambda m: m % 2 == 1 and m >= k)
            assert got.integer_coeffs() == want

    def test_signed(self, counts):
        got = self.make(counts).mset(signed=True).integer_coeffs()
        even = brute_force_multiset(counts, ORDER, lambda m: m % 2 == 0)
        odd = brute_force_multiset(counts, ORDER, lambda m: m % 2 == 1)
        assert got == [e - o for e, o in zip(even, odd)]


class TestMultisetIdentities:
    @given(no_constant_strategy, no_constant_strategy)
    @settings(max_examples=50)
    def test_mset2_of_sum(self, a, b):
        # a pair from a + b is a pair from a, a pair from b, or one of each
        assert (a + b).mset2() == a.mset2() + a * b + b.mset2()

    @given(no_constant_strategy, no_constant_strategy)
    @settings(max_examples=50)
    def test_mset_odd_of_sum(self, a, b):
        # an odd multiset from a + b has an odd part from exactly one side
        even_a, even_b = a.mset() - a.mset_odd(), b.mset() - b.mset_odd()
        assert (a + b).mset_odd() == a.mset_odd() * even_b + even_a * b.mset_odd()

    def test_mset_counts_partitions(self):
        # one object of each size: MSet counts the partitions of n
        ones = series([0] + [1] * ORDER)
        assert ones.mset().integer_coeffs() == [1, 1, 2, 3, 5, 7, 11, 15, 22]

    def test_mset_of_x_is_all_ones(self):
        # one multiset of legs per total size
        assert PowerSeries.x(ORDER).mset().integer_coeffs() == [1] * (ORDER + 1)

    def test_mset_requires_zero_constant(self):
        with pytest.raises(ValueError):
            series([1, 1]).mset()


online = _known


def online_coeffs(s):
    return tuple(s.upto(ORDER)[: ORDER + 1])


class TestOnlineSeries:
    @given(series_strategy, series_strategy, no_constant_strategy, st.integers(-3, 3))
    @settings(max_examples=50)
    def test_operations_match_eager(self, a, b, c, k):
        # against the plain-list kernels of reference_routes
        a_, b_, c_ = (list(s.coeffs) for s in (a, b, c))
        pairs = (
            ([x + y for x, y in zip(a_, b_)], online(a) + online(b)),
            ([a_[0] - k, *a_[1:]], online(a) - k),
            (ref.cauchy_product(a_, b_), online(a) * online(b)),
            ([k * x for x in a_], k * online(a)),
            (a_, 2 * online(a) / 2),
            (a_, online(a).substitute_power(1)),
            (ref.substitute(a_, 3), online(a).substitute_power(3)),
            (ref.divisor_sum(c_), online(c).substitution_sum()),
            (ref.multiset(c_), online(c).mset()),
            (ref.multiset(c_, signed=True), online(c).mset(signed=True)),
            ([(x + y) // 2 for x, y in zip(ref.cauchy_product(c_, c_), ref.substitute(c_, 2))],
             online(c).mset2()),
            ([(x - y) // 2 for x, y in zip(ref.multiset(c_), ref.multiset(c_, signed=True))],
             online(c).mset_odd()),
        )
        for eager, lazy in pairs:
            assert online_coeffs(lazy) == tuple(eager)

    def test_mset_requires_zero_constant(self):
        with pytest.raises(ValueError):
            online(series([1, 1])).mset()[0]

    def test_division_is_exact(self):
        half = online(series([0, 3])) / 2
        assert half[0] == 0
        with pytest.raises(ArithmeticError):
            half[1]

    def test_known_series_ends_at_its_order(self):
        with pytest.raises(IndexError):
            online(series([1]))[ORDER + 1]


class TestOnlineSolver:
    def test_ill_founded_system_fails_the_residual_pass(self):
        # y = x + (1 + x) y has slope 1 in y_n: the provisional 0 is not exact
        def rhs(leg, y):
            return (leg + (leg + 1) * y,)

        with pytest.raises(ArithmeticError, match="residual 0"):
            fixed_point(rhs, (PowerSeries.x(10),), 1)

    def test_residual_is_checked_at_the_last_coefficient(self):
        # y = z + y with z = x^10 holds below index 10, where z reads 0; at 10
        # the provisional 0 settles y_10 = 1, and the recomputed z + y reads 2
        def rhs(z, y):
            return (z + y,)

        with pytest.raises(ArithmeticError, match="residual 0"):
            fixed_point(rhs, (series([0] * 10 + [1], order=10),), 1)

    def test_constant_term_read_through_substitution(self):
        # y = 1 + x y(x^2) is 1 + x + x^3 + x^7 + x^15 + ...: index 0 of y(x^2)
        # is read before y_0 is settled, so it must be recomputed too
        def rhs(leg, y):
            return (leg * y.substitute_power(2) + 1,)

        (y,) = fixed_point(rhs, (PowerSeries.x(20),), 1)
        assert y.integer_coeffs() == [int(n + 1 in (1, 2, 4, 8, 16)) for n in range(21)]

    @pytest.fixture(scope="class")
    def order60(self, solve_selfdual):
        p = gf.solve_pointed(60)
        return p, solve_selfdual(p)

    @staticmethod
    def assert_matches_reference(rhs, reference, *inputs):
        # the online ring against the same equations on plain lists
        want = reference(*(list(s.coeffs) for s in inputs))
        for got, want in zip(rhs(*map(_known, inputs)), want, strict=True):
            assert got.upto(60)[:61] == want

    def test_pointed_rhs(self, order60):
        rhs, known, solution = gf.pointed_system(order60[0])
        self.assert_matches_reference(rhs, ref.pointed_rhs, *known, *solution)

    @pytest.mark.parametrize("variant", ["paper", "corrected"])
    def test_selfdual_rhs(self, order60, variant):
        p, sd = order60
        self.assert_matches_reference(partial(gf._selfdual_rhs, variant),
                                      partial(ref.selfdual_rhs, variant), p.a_R, p.a_U,
                                      p.a_leg, getattr(sd, f"s_U_{variant}"))

    def test_s_bound_rhs(self, order60):
        rhs, known, solution = gf.bound_system(order60[0])
        self.assert_matches_reference(rhs, ref.s_bound_rhs, *known, *solution)


class TestModuleBoundary:
    """The online ring and its solve are one module's: other modules see only
    ``fixed_point`` and plain ``PowerSeries``."""

    def test_online_series_is_named_only_in_powerseries(self):
        naming = set()
        for path in Path(powerseries.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Name) and node.id == "OnlineSeries"
                        or isinstance(node, ast.Attribute) and node.attr == "OnlineSeries"
                        or isinstance(node, ast.ImportFrom)
                        and any(alias.name == "OnlineSeries" for alias in node.names)):
                    naming.add(path.name)
        assert naming == {"powerseries.py"}

    @pytest.mark.parametrize("name", ["known", "unknown", "forget", "settle", "inputs"])
    def test_online_series_leaves_the_solve_to_fixed_point(self, name):
        assert not hasattr(OnlineSeries, name)
