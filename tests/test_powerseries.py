from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twolevel.powerseries import PowerSeries

ORDER = 8


def series(coeffs, order=ORDER):
    return PowerSeries.from_coeffs(coeffs, order)


series_strategy = st.lists(st.integers(-9, 9), min_size=1, max_size=ORDER + 1).map(
    lambda cs: PowerSeries.from_coeffs(cs, ORDER)
)
no_constant_strategy = series_strategy.map(
    lambda s: PowerSeries.from_coeffs([0] + list(s.coeffs[1:]), ORDER)
)


class TestBasics:
    def test_constructors(self):
        assert PowerSeries.x(3).coeffs == (0, 1, 0, 0)
        assert PowerSeries.one(2).coeffs == (1, 0, 0)
        assert PowerSeries.zeros(2).coeffs == (0, 0, 0)

    def test_order_and_coeff(self):
        s = series([1, 2, 3])
        assert s.order == ORDER
        assert s.coeff(1) == 2
        with pytest.raises(IndexError):
            s.coeff(ORDER + 1)

    def test_truncate_and_extend(self):
        s = series([1, 2, 3], order=4)
        assert s.truncate(2).coeffs == (1, 2, 3)
        assert s.extended(6).coeffs == (1, 2, 3, 0, 0, 0, 0)

    def test_binary_ops_truncate_to_shorter(self):
        a = series([1, 1], order=5)
        b = series([1, 1], order=3)
        assert (a + b).order == 3
        assert (a * b).order == 3

    def test_valuation(self):
        assert series([0, 0, 7]).valuation() == 2
        assert PowerSeries.zeros(3).valuation() is None

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
        return PowerSeries.from_coeffs(list(counts), ORDER)

    def test_unrestricted(self, counts):
        got = self.make(counts).mset().integer_coeffs()
        want = brute_force_multiset(counts, ORDER, lambda m: True)
        assert got == want

    def test_exactly(self, counts):
        f = self.make(counts)
        for k, got in enumerate((PowerSeries.one(ORDER), f, f.mset2())):
            want = brute_force_multiset(counts, ORDER, lambda m: m == k)
            assert got.integer_coeffs() == want

    def test_at_least(self, counts):
        f = self.make(counts)
        one = PowerSeries.one(ORDER)
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
        ones = PowerSeries.from_coeffs([0] + [1] * ORDER, ORDER)
        assert ones.mset().integer_coeffs() == [1, 1, 2, 3, 5, 7, 11, 15, 22]

    def test_mset_of_x_is_all_ones(self):
        # one multiset of legs per total size
        assert PowerSeries.x(ORDER).mset().integer_coeffs() == [1] * (ORDER + 1)

    def test_mset_requires_zero_constant(self):
        with pytest.raises(ValueError):
            series([1, 1]).mset()
