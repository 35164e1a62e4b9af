"""Truncated univariate formal power series with integer coefficients.

Every series of this package counts objects, so coefficients are plain
``int``.  The multiset operator is the Euler transform, whose divisions are
exact; any division that leaves a remainder raises ``ArithmeticError``.

All operations of :class:`PowerSeries` are pure and eager: a binary operation
on series of different truncation orders truncates to the shorter one, never
zero-extends.  :class:`OnlineSeries` is the same ring computed online, one
coefficient at a time, on which :func:`fixed_point` solves a system of
equations.
"""
from __future__ import annotations

from functools import cache
from operator import add, index, mul, sub

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
    def x(cls, order: int) -> "PowerSeries":
        if order < 1:
            raise ValueError("order must be >= 1 to hold x")
        return cls([0, 1] + [0] * (order - 1))

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
        a, b = self._coeffs, other._coeffs
        return PowerSeries([sum(map(mul, a[:k + 1], b[k::-1]))
                            for k in range(min(self.order, other.order) + 1)])

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
        """sum_{r=1..order} a(x^r), truncated, each a(x^r) added in place."""
        a, out = self._coeffs, list(self._coeffs)
        for r in range(2, self.order + 1):
            out[::r] = map(add, out[::r], a)
        return PowerSeries(out)

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
        b = [1]
        for m in range(1, n + 1):
            b.append(_exact_div(sum(map(mul, c[1:m + 1], reversed(b))), m))
        return PowerSeries(b)

    def mset2(self) -> "PowerSeries":
        """Multisets of exactly two components, (a^2 + a(x^2)) / 2."""
        return (self * self + self.substitute_power(2)) / 2

    def mset_odd(self) -> "PowerSeries":
        """Multisets with an odd number of components, (MSet - signed MSet) / 2."""
        return (self.mset() - self.mset(signed=True)) / 2

    # Names of the former rational API that bench/tracer.py still wraps;
    # nothing calls them.
    exp = mset_restricted = extended = None


@cache
def _divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def _middle(a: list, b: list):
    """n -> sum_(0<i<n) a[i] b[n-i] for two growing coefficient lists.

    The sum reads only indices below n, which are settled by the time it is
    asked for, so it is kept for when a node recomputes coefficient n.
    """
    memo = [0, 0]

    def at(n: int) -> int:
        if memo[0] != n:
            memo[:] = n, sum(map(mul, a[1:n], b[n - 1:0:-1]))
        return memo[1]

    return at


class OnlineSeries:
    """Series of the online ring: each coefficient is computed on first demand.

    An element holds the coefficients computed so far and a step that
    computes coefficient n from its inputs' coefficients up to n (McIlroy,
    "Power series, power serious", 1999; van der Hoeven, "Relax, but don't
    be too lazy", 2002).  The right-hand sides of :mod:`twolevel.gfsystem`
    run on it unchanged, which lets :func:`fixed_point` read them one index
    at a time.
    """

    __slots__ = ("_c", "_step", "_inputs")

    def __init__(self, step, inputs=(), coeffs=None):
        self._c = [] if coeffs is None else coeffs
        self._step = step
        self._inputs = inputs

    def upto(self, n: int) -> list:
        """The coefficient list, computed through index n."""
        c = self._c
        while len(c) <= n:
            c.append(self._step(len(c)))
        return c

    def __getitem__(self, n: int) -> int:
        return self.upto(n)[n]

    # -- ring operations ----------------------------------------------

    def _zip(self, other, op) -> "OnlineSeries":
        if isinstance(other, int):  # a constant
            return OnlineSeries(lambda n: op(self[n], 0 if n else other), (self,))
        if not isinstance(other, OnlineSeries):
            return NotImplemented
        return OnlineSeries(lambda n: op(self[n], other[n]), (self, other))

    def __add__(self, other):
        return self._zip(other, add)

    def __sub__(self, other):
        return self._zip(other, sub)

    def __mul__(self, other):
        if isinstance(other, int):
            return OnlineSeries(lambda n: other * self[n], (self,))
        if not isinstance(other, OnlineSeries):
            return NotImplemented
        a, b = self._c, other._c
        middle = _middle(a, b)

        def step(n):
            self.upto(n)
            other.upto(n)
            return a[0] * b[n] + middle(n) + a[n] * b[0] if n else a[0] * b[0]

        return OnlineSeries(step, (self, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return OnlineSeries(lambda n: _exact_div(self[n], other), (self,))

    # -- combinatorial operators ---------------------------------------

    def substitute_power(self, r: int) -> "OnlineSeries":
        if r < 1:
            raise ValueError("substitution power must be >= 1")
        if r == 1:
            return self
        return OnlineSeries(lambda n: 0 if n % r else self[n // r], (self,))

    def substitution_sum(self) -> "OnlineSeries":
        return OnlineSeries(lambda n: sum(self[d] for d in _divisors(n)) if n else 0,
                            (self,))

    def mset(self, signed: bool = False) -> "OnlineSeries":
        """The Euler transform of :meth:`PowerSeries.mset`, kept running."""
        def c_step(n):
            return sum(-d * self[d] if signed and n // d % 2 else d * self[d]
                       for d in _divisors(n)) if n else 0

        c = OnlineSeries(c_step, (self,))
        b = []
        middle = _middle(c._c, b)

        def step(n):
            if n == 0:
                if self[0]:
                    raise ValueError("multiset operator requires zero constant term")
                return 1
            return _exact_div(c[n] + middle(n), n)  # c_n b_0 + sum_(0<k<n) c_k b_(n-k)

        return OnlineSeries(step, (self, c), b)

    mset2 = PowerSeries.mset2
    mset_odd = PowerSeries.mset_odd


def _known(series: PowerSeries) -> OnlineSeries:
    """An input of the online ring: the coefficients of ``series``, no more."""
    def beyond(n):
        raise IndexError(f"coefficient {n} outside truncation order {series.order}")

    return OnlineSeries(beyond, coeffs=list(series.coeffs))


def fixed_point(rhs, known, unknowns: int) -> tuple:
    """Solve ys = rhs(*known, *ys) for a tuple of series ys, one index at a time.

    The right-hand sides are built once over the online ring, where each
    unknown reads 0 at an index until it is settled there.  The system must
    be well founded: coefficient n of every right-hand side has zero slope in
    coefficient n of the unknowns, so it is exact while they read that
    provisional 0.  Each unknown is then settled at n, and every node that
    reads an unknown forgets coefficient n, to recompute it on the next
    demand.  A final eager pass over ``PowerSeries`` must reproduce the
    solution.
    """
    order = known[0].order
    ys = [OnlineSeries(lambda n: 0) for _ in range(unknowns)]
    outs = rhs(*map(_known, known), *ys)
    reads = dict.fromkeys(ys, True)
    readers = []  # the nodes below outs that read an unknown, the unknowns excluded

    def visit(node):
        if node not in reads:
            reads[node] = any([visit(i) for i in node._inputs])  # visit every input
            if reads[node]:
                readers.append(node)
        return reads[node]

    for out in outs:
        visit(out)
    for n in range(order + 1):
        values = [out[n] for out in outs]
        for node in readers:
            del node._c[n:]
        for y, v in zip(ys, values):
            y._c[n:] = [v]
    solution = tuple(PowerSeries(y.upto(order)) for y in ys)
    if tuple(rhs(*known, *solution)) != solution:
        raise ArithmeticError("fixed point did not converge to residual 0")
    return solution
