"""Truncated univariate formal power series with integer coefficients.

Every series of this package counts objects, so coefficients are plain
``int``.  The multiset operator is the Euler transform, whose divisions are
exact; any division that leaves a remainder raises ``ArithmeticError``.

All operations are pure and eager: a binary operation on series of different
truncation orders truncates to the shorter one, never zero-extends.  The one
deliberate exception is :meth:`PowerSeries.extended`, used by the fixed-point
solver that manages its own truncation.
"""
from __future__ import annotations

from operator import index

# The coefficient type; bench/run.py records its name in every run.
Rational = int


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"inexact division {num}/{den}")
    return q


class PowerSeries:
    """Immutable power series truncated (inclusively) at a fixed order."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        # operator.index accepts integers only; it never truncates a value
        cs = tuple(map(index, coeffs))
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        self._coeffs = cs

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, order: int) -> "PowerSeries":
        return cls([0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls([1] + [0] * order)

    @classmethod
    def x(cls, order: int) -> "PowerSeries":
        if order < 1:
            raise ValueError("order must be >= 1 to hold x")
        return cls([0, 1] + [0] * (order - 1))

    @classmethod
    def from_coeffs(cls, coeffs, order: int | None = None) -> "PowerSeries":
        cs = list(coeffs)
        if order is not None:
            if len(cs) > order + 1:
                cs = cs[: order + 1]
            else:
                cs += [0] * (order + 1 - len(cs))
        return cls(cs)

    # -- basics -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self):
        return self._coeffs

    def coeff(self, n: int):
        if n < 0 or n > self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self._coeffs[n]

    def truncate(self, order: int) -> "PowerSeries":
        if order >= self.order:
            return self
        return PowerSeries(self._coeffs[: order + 1])

    def extended(self, order: int) -> "PowerSeries":
        """Explicit zero-extension; only meaningful for solver iterates."""
        if order <= self.order:
            return self.truncate(order)
        return PowerSeries(self._coeffs + (0,) * (order - self.order))

    def valuation(self) -> int | None:
        for i, c in enumerate(self._coeffs):
            if c:
                return i
        return None

    def integer_coeffs(self) -> list:
        return list(self._coeffs)

    def eval_float(self, x: float) -> float:
        total = 0.0
        for c in reversed(self._coeffs):
            total = total * x + c
        return total

    def __eq__(self, other):
        return isinstance(other, PowerSeries) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        head = ", ".join(str(c) for c in self._coeffs[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"PowerSeries([{head}{tail}]; order={self.order})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):  # a constant
            return PowerSeries((self._coeffs[0] + other,) + self._coeffs[1:])
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return PowerSeries([a + b for a, b in zip(self._coeffs, other._coeffs)])

    def __sub__(self, other):
        if isinstance(other, int):
            return self + -other
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return PowerSeries([a - b for a, b in zip(self._coeffs, other._coeffs)])

    def __neg__(self):
        return PowerSeries([-c for c in self._coeffs])

    def scale(self, c) -> "PowerSeries":
        c = index(c)
        return PowerSeries([c * a for a in self._coeffs])

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other):
        """Exact division by an integer; raises ArithmeticError on a remainder."""
        if isinstance(other, int):
            return PowerSeries([_exact_div(c, other) for c in self._coeffs])
        return NotImplemented

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            if isinstance(other, int):
                return self.scale(other)
            return NotImplemented
        n = min(self.order, other.order)
        a = self._coeffs
        b = other._coeffs
        out = [0] * (n + 1)
        for i in range(n + 1):
            ai = a[i]
            if not ai:
                continue
            for j in range(n + 1 - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        return PowerSeries(out)

    # -- combinatorial operators ---------------------------------------

    def substitute_power(self, r: int) -> "PowerSeries":
        """Return a(x^r), truncated to this series' order."""
        if r < 1:
            raise ValueError("substitution power must be >= 1")
        if r == 1:
            return self
        n = self.order
        out = [0] * (n + 1)
        out[::r] = self._coeffs[: n // r + 1]
        return PowerSeries(out)

    def substitution_sum(self) -> "PowerSeries":
        """sum_{r>=1} a(x^r) for a with zero constant term, truncated."""
        total = self
        for r in range(2, self.order + 1):
            total = total + self.substitute_power(r)
        return total

    def mset(self, signed: bool = False) -> "PowerSeries":
        """Multiset operator MSet = exp(sum_r a(x^r)/r), as the Euler transform.

        n*b_n = sum_{k=1..n} c_k*b_(n-k) with c_k = sum_{d|k} d*a_d; every
        division is exact.  With ``signed`` the term of a(x^r) carries the
        sign (-1)^r, which counts each multiset with the sign (-1)^(number of
        components).
        """
        a = self._coeffs
        if a[0]:
            raise ValueError("multiset operator requires zero constant term")
        n = self.order
        c = [0] * (n + 1)
        for d in range(1, n + 1):
            da = d * a[d]
            if da:
                for r, k in enumerate(range(d, n + 1, d), 1):
                    c[k] += -da if signed and r % 2 else da
        b = [1] + [0] * n
        for m in range(1, n + 1):
            b[m] = _exact_div(sum(c[k] * b[m - k] for k in range(1, m + 1)), m)
        return PowerSeries(b)

    def mset2(self) -> "PowerSeries":
        """Multisets of exactly two components, (a^2 + a(x^2)) / 2."""
        return (self * self + self.substitute_power(2)) / 2

    def mset_odd(self) -> "PowerSeries":
        """Multisets with an odd number of components, (MSet - signed MSet) / 2."""
        return (self.mset() - self.mset(signed=True)) / 2

    # Names of the former rational API that bench/tracer.py still wraps;
    # nothing calls them.
    exp = mset_restricted = None
