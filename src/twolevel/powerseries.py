"""Truncated univariate formal power series with integer coefficients.

Every series of this package counts objects, so coefficients are plain
``int``.  The multiset operator is the Euler transform, whose divisions are
exact; any division that leaves a remainder raises ``ArithmeticError``.

The ring is written once, online, in one class (McIlroy, "Power series,
power serious", 1999; van der Hoeven, "Relax, but don't be too lazy", 2002).
A :class:`PowerSeries` holds the coefficients computed so far and a step
that computes coefficient n from its inputs' coefficients up to n; its order
is the smallest of its inputs', so a binary operation on series of different
truncation orders truncates to the shorter one, never zero-extends.  An
operation on known series computes every coefficient at once and keeps only
the result, a value: an inexact division or a multiset of a nonzero constant
term raises there.  An operation that reads an unknown of
:func:`fixed_point` stays lazy, which lets the solve read the right-hand
sides of :mod:`twolevel.gfsystem` one index at a time.
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
    """Power series truncated (inclusively) at ``order``, computed online."""

    __slots__ = ("_c", "_step", "_inputs", "order")

    def __init__(self, coeffs):
        # operator.index accepts integers only; it never truncates a value
        cs = list(map(index, coeffs))
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        # a value: its step reads past the list, so past the order is IndexError
        self._c, self._step, self._inputs, self.order = cs, cs.__getitem__, (), len(cs) - 1

    # -- constructors -------------------------------------------------

    @classmethod
    def x(cls, order: int) -> "PowerSeries":
        if order < 1:
            raise ValueError("order must be >= 1 to hold x")
        return cls([0, 1] + [0] * (order - 1))

    # -- basics -------------------------------------------------------

    def _upto(self, n: int) -> list:
        """The coefficient list, computed through index n."""
        c = self._c
        while len(c) <= n:
            c.append(self._step(len(c)))
        return c

    def __getitem__(self, n: int) -> int:
        return self._upto(n)[n]

    @property
    def coeffs(self) -> tuple:
        return tuple(self._upto(self.order))

    def coeff(self, n: int):
        if n < 0 or n > self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self[n]

    def truncate(self, order: int) -> "PowerSeries":
        if order >= self.order:
            return self
        return PowerSeries(self.coeffs[: order + 1])

    def integer_coeffs(self) -> list:
        return list(self.coeffs)

    def eval_float(self, x: float) -> float:
        total = 0.0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __eq__(self, other):
        return isinstance(other, PowerSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"PowerSeries([{head}{tail}]; order={self.order})"

    # -- ring operations ----------------------------------------------

    def _zip(self, other, op) -> "PowerSeries":
        if isinstance(other, int):  # a constant
            return _node(lambda n: op(self[n], 0 if n else other), (self,))
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return _node(lambda n: op(self[n], other[n]), (self, other))

    def __add__(self, other):
        return self._zip(other, add)

    def __sub__(self, other):
        return self._zip(other, sub)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "PowerSeries":
        c = index(c)
        return _node(lambda n: c * self[n], (self,))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        a, b = self._c, other._c
        middle = _middle(a, b)

        def step(n):
            self._upto(n)
            other._upto(n)
            return a[0] * b[n] + middle(n) + a[n] * b[0] if n else a[0] * b[0]

        return _node(step, (self, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact division by an integer; raises ArithmeticError on a remainder."""
        if not isinstance(other, int):
            return NotImplemented
        return _node(lambda n: _exact_div(self[n], other), (self,))

    # -- combinatorial operators ---------------------------------------

    def substitute_power(self, r: int) -> "PowerSeries":
        """Return a(x^r), truncated to this series' order."""
        if r < 1:
            raise ValueError("substitution power must be >= 1")
        if r == 1:
            return self
        return _node(lambda n: 0 if n % r else self[n // r], (self,))

    def substitution_sum(self) -> "PowerSeries":
        """sum_(r>=1) a(x^r), with coefficient 0 read as 0."""
        return _node(lambda n: sum(self[d] for d in _divisors(n)), (self,))

    def mset(self, signed: bool = False) -> "PowerSeries":
        """Multiset operator MSet = exp(sum_r a(x^r)/r), as the Euler transform.

        n*b_n = sum_{k=1..n} c_k*b_(n-k) with c_k = sum_{d|k} d*a_d; every
        division is exact.  With ``signed`` the term of a(x^r) carries the
        sign (-1)^r, which counts each multiset with the sign (-1)^(number of
        components).
        """
        def c_step(n):
            return sum(-d * self[d] if signed and n // d % 2 else d * self[d]
                       for d in _divisors(n))

        c = _node(c_step, (self,))
        b = []
        middle = _middle(c._c, b)

        def step(n):
            if n == 0:
                if self[0]:
                    raise ValueError("multiset operator requires zero constant term")
                return 1
            return _exact_div(c[n] + middle(n), n)  # c_n b_0 + sum_(0<k<n) c_k b_(n-k)

        return _node(step, (self, c), b)

    def mset2(self) -> "PowerSeries":
        """Multisets of exactly two components, (a^2 + a(x^2)) / 2."""
        return (self * self + self.substitute_power(2)) / 2

    def mset_odd(self) -> "PowerSeries":
        """Multisets with an odd number of components, (MSet - signed MSet) / 2."""
        return (self.mset() - self.mset(signed=True)) / 2

    # Names of the former rational API that bench/tracer.py still wraps;
    # nothing calls them.
    exp = mset_restricted = extended = None


def _node(step, inputs: tuple, c: list | None = None) -> PowerSeries:
    """The series whose coefficient n ``step`` computes from ``inputs``, to
    the smallest of their orders.  On known inputs it is computed at once and
    becomes a value, with no step or inputs to keep."""
    s = object.__new__(PowerSeries)
    s._c, s._step, s._inputs = [] if c is None else c, step, inputs
    s.order = min(i.order for i in inputs)
    if all(len(i._c) > i.order for i in inputs):  # all known: a value, as __init__ makes
        s._step, s._inputs = s._upto(s.order).__getitem__, ()
    return s


@cache
def _divisors(n: int) -> tuple[int, ...]:
    """The divisors of n; none of 0, so a divisor sum reads 0 there."""
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


def fixed_point(rhs, known, unknowns: int) -> tuple:
    """Solve ys = rhs(*known, *ys) for a tuple of series ys, one index at a time.

    The right-hand sides are built once on the known series and on lazy
    unknowns, each of which reads 0 at an index until it is settled there.
    The system must be well founded: coefficient n of every right-hand side
    has zero slope in coefficient n of the unknowns, so it is exact while they
    read that provisional 0.  Each unknown is then settled at n, and every
    node that reads an unknown forgets coefficient n and recomputes it on the
    settled unknowns; a right-hand side whose recomputed coefficient differs
    from the settled one leaves a residual, and the solve raises
    ArithmeticError.  Nodes are keyed by identity, so none is hashed.
    """
    order = known[0].order
    ys = [object.__new__(PowerSeries) for _ in range(unknowns)]
    for y in ys:  # lazy: each reads 0 at an index until it is settled there
        y._c, y._step, y._inputs, y.order = [], lambda n: 0, (), order
    outs = rhs(*known, *ys)
    reads = dict.fromkeys(map(id, ys), True)
    readers = []  # the nodes below outs that read an unknown, the unknowns excluded

    def visit(node):
        key = id(node)
        if key not in reads:
            reads[key] = any([visit(i) for i in node._inputs])  # visit every input
            if reads[key]:
                readers.append(node)
        return reads[key]

    for out in outs:
        visit(out)
    for n in range(order + 1):
        values = [out[n] for out in outs]
        for node in readers:
            del node._c[n:]
        for y, v in zip(ys, values):
            y._c[n:] = [v]
        if [out[n] for out in outs] != values:
            raise ArithmeticError("fixed point did not converge to residual 0")
    return tuple(PowerSeries(y._upto(order)) for y in ys)
