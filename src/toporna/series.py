"""Exact arithmetic for truncated power series and marker polynomials.

Everything here works over the rationals.  Coefficients are stored as plain
``int`` whenever they are integral and as :class:`fractions.Fraction`
otherwise; the integer fast path matters because the counting sequences in
this package are integers and Python multiplies machine-word ints far faster
than Fractions.

Five layers:

* :class:`TruncatedSeries`, a univariate power series known up to a fixed
  truncation order,
* :class:`Polynomial` and :class:`XYPolynomial`, exact polynomials in one
  and two variables,
* :class:`AlgebraicSeries`, an exact element (p + q*S) / d of Q(x)(S) with
  S = sqrt(delta) for a fixed integer polynomial delta with delta(0) = 1,
  held untruncated and expanded to any order on request,
* :class:`YJet`, a series-valued 2-jet in a marker variable, carrying the
  value and the first two derivatives at marker value 1,
* :class:`BivariateSeries`, a series in the main variable whose coefficients
  are polynomials in the marker, for full joint distributions.

Mixing series of different truncation orders, or algebraic series over
different radicands, is an error rather than a silent re-truncation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Sequence

Scalar = int | Fraction


def _norm(value: Scalar) -> Scalar:
    """Collapse a Fraction with denominator 1 to a plain int."""
    if type(value) is int:  # skips the slower abstract-class check on Fraction
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


def _div(num: Scalar, den: Scalar) -> Scalar:
    """Exact division, staying in the int fast path when it divides evenly."""
    if isinstance(num, int) and isinstance(den, int):
        q, rem = divmod(num, den)
        if rem == 0:
            return q
        return Fraction(num, den)
    return _norm(Fraction(num) / Fraction(den))


def _as_scalar(value: object) -> Scalar:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return _norm(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


class TruncatedSeries:
    """A power series in one variable, exact up to ``x**(order-1)``.

    The coefficient list always has length ``order``.  Arithmetic never
    changes the order; combining two series of different orders raises
    ``ValueError``.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence[Scalar], order: int):
        if order <= 0:
            raise ValueError("truncation order must be positive")
        if len(coeffs) > order:
            raise ValueError(
                f"got {len(coeffs)} coefficients for truncation order {order}"
            )
        data = [_norm(c) for c in coeffs]
        data.extend([0] * (order - len(data)))
        self.order = order
        self.coeffs = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> TruncatedSeries:
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> TruncatedSeries:
        return cls([1], order)

    @classmethod
    def constant(cls, value: Scalar, order: int) -> TruncatedSeries:
        return cls([_as_scalar(value)], order)

    @classmethod
    def x(cls, order: int) -> TruncatedSeries:
        return cls([0, 1] if order > 1 else [0], order)

    @classmethod
    def x_power(cls, k: int, order: int) -> TruncatedSeries:
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        coeffs = [0] * min(k, order)
        if k < order:
            coeffs.append(1)
        return cls(coeffs, order)

    # -- basics ------------------------------------------------------------

    def coeff(self, n: int) -> Scalar:
        """Coefficient of ``x**n``; raises if ``n`` is beyond the order."""
        if n < 0:
            raise ValueError("negative exponent")
        if n >= self.order:
            raise ValueError(f"coefficient {n} not known at order {self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check(self, other: TruncatedSeries) -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, tuple(self.coeffs)))

    def __repr__(self) -> str:
        shown = self.coeffs[: min(8, self.order)]
        tail = ", ..." if self.order > 8 else ""
        return f"TruncatedSeries({shown}{tail}, order={self.order})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: TruncatedSeries | Scalar) -> TruncatedSeries:
        if isinstance(other, (int, Fraction)):
            coeffs = self.coeffs[:]
            coeffs[0] = _norm(coeffs[0] + other)
            return TruncatedSeries(coeffs, self.order)
        self._check(other)
        return TruncatedSeries(
            [_norm(a + b) for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    __radd__ = __add__

    def __sub__(self, other: TruncatedSeries | Scalar) -> TruncatedSeries:
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        self._check(other)
        return TruncatedSeries(
            [_norm(a - b) for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __rsub__(self, other: Scalar) -> TruncatedSeries:
        return (-self) + other

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other: TruncatedSeries | Scalar) -> TruncatedSeries:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return TruncatedSeries.zero(self.order)
            return TruncatedSeries(
                [_norm(c * other) for c in self.coeffs], self.order
            )
        self._check(other)
        n = self.order
        a = self.coeffs
        b = other.coeffs
        out: list[Scalar] = [0] * n
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j in range(n - i):
                bj = b[j]
                if bj != 0:
                    out[i + j] += ai * bj
        return TruncatedSeries([_norm(c) for c in out], n)

    __rmul__ = __mul__

    def __truediv__(self, other: TruncatedSeries | Scalar) -> TruncatedSeries:
        """Series division; the divisor needs a nonzero constant term."""
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of a series by zero")
            return TruncatedSeries(
                [_div(c, other) for c in self.coeffs], self.order
            )
        self._check(other)
        b0 = other.coeffs[0]
        if b0 == 0:
            raise ZeroDivisionError(
                "series division requires a nonzero constant term"
            )
        n = self.order
        a = self.coeffs
        b = other.coeffs
        q: list[Scalar] = [0] * n
        for m in range(n):
            acc = a[m]
            for k in range(1, m + 1):
                bk = b[k]
                if bk != 0:
                    qk = q[m - k]
                    if qk != 0:
                        acc -= bk * qk
            q[m] = _div(acc, b0)
        return TruncatedSeries(q, n)

    def sqrt(self) -> TruncatedSeries:
        """Square root of a series with constant term 1.

        Raises:
            ValueError: if the constant term is not 1.
        """
        if self.coeffs[0] != 1:
            raise ValueError("square root needs constant term 1")
        n = self.order
        f = self.coeffs
        s: list[Scalar] = [0] * n
        s[0] = 1
        for m in range(1, n):
            acc = f[m]
            for i in range(1, m):
                si = s[i]
                if si != 0:
                    sj = s[m - i]
                    if sj != 0:
                        acc -= si * sj
            s[m] = _div(acc, 2)
        return TruncatedSeries(s, n)

    def compose(self, inner: TruncatedSeries) -> TruncatedSeries:
        """Substitute ``inner`` for the variable; ``inner`` must vanish at 0."""
        self._check(inner)
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs an inner series with no constant term")
        acc = TruncatedSeries.zero(self.order)
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def shift(self, k: int) -> TruncatedSeries:
        """Multiply by ``x**k``, truncating at the same order."""
        if k < 0:
            raise ValueError("shift amount must be nonnegative")
        coeffs = [0] * min(k, self.order) + self.coeffs[: max(0, self.order - k)]
        return TruncatedSeries(coeffs, self.order)

    def shifted_down(self, k: int) -> TruncatedSeries:
        """Divide by ``x**k``; the first ``k`` coefficients must vanish.

        The result is only determined up to ``x**(order-k-1)``, so its
        truncation order shrinks by ``k``.
        """
        if k < 0:
            raise ValueError("shift amount must be nonnegative")
        if k >= self.order:
            raise ValueError("cannot shift past the truncation order")
        if any(c != 0 for c in self.coeffs[:k]):
            raise ValueError(f"series is not divisible by x**{k}")
        return TruncatedSeries(self.coeffs[k:], self.order - k)

    def truncate(self, order: int) -> TruncatedSeries:
        """Drop down to a smaller truncation order."""
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[:order], order)

    def eval_at(self, x: Scalar) -> Scalar:
        """Evaluate the truncated polynomial at an exact point."""
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _norm(acc)


class Polynomial:
    """An exact univariate polynomial, stored dense with no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        data = [_norm(c) for c in coeffs]
        while data and data[-1] == 0:
            data.pop()
        self.coeffs = data

    @classmethod
    def x_power(cls, k: int) -> Polynomial:
        return cls([0] * k + [1])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Scalar:
        if n < 0:
            raise ValueError("negative exponent")
        return self.coeffs[n] if n < len(self.coeffs) else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __repr__(self) -> str:
        return f"Polynomial({self.coeffs})"

    def __add__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    __radd__ = __add__

    def __sub__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        return self + (-other)

    def __rsub__(self, other: Scalar) -> Polynomial:
        return (-self) + other

    def __neg__(self) -> Polynomial:
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out: list[Scalar] = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> Polynomial:
        if self.is_zero():
            return Polynomial()
        return Polynomial([0] * k + self.coeffs)

    def __call__(self, x: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _norm(acc)

    def derivative(self) -> Polynomial:
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def to_series(self, order: int) -> TruncatedSeries:
        if len(self.coeffs) > order:
            raise ValueError(
                f"polynomial of degree {self.degree} does not fit order {order}"
            )
        return TruncatedSeries(self.coeffs, order)


def _exact_quotient(num: int, den: int, what: str) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"{what} is not an integer: remainder {rem} mod {den}")
    return q


class AlgebraicSeries:
    """An exact element (p + q*S) / d of Q(x)(S), where S = sqrt(delta).

    ``delta`` is a fixed integer polynomial with delta(0) = 1, so S is the
    power series with constant term 1.  p, q and d are integer polynomials
    (d nonzero); after every operation they share no power of x and no
    integer content.  Arithmetic is exact and never truncates; only
    :meth:`series` expands the element, to any order, as a
    :class:`TruncatedSeries` with integer coefficients.

    Combining elements over different ``delta`` raises ``ValueError``.
    """

    __slots__ = ("delta", "p", "q", "d")

    def __init__(
        self,
        delta: Polynomial,
        p: Polynomial,
        q: Polynomial | None = None,
        d: Polynomial | None = None,
    ):
        q = Polynomial() if q is None else q
        d = Polynomial([1]) if d is None else d
        if delta.coeff(0) != 1:
            raise ValueError("the radicand needs constant term 1")
        if d.is_zero():
            raise ZeroDivisionError("zero denominator")
        for poly in (delta, p, q, d):
            if not all(type(c) is int for c in poly.coeffs):
                raise TypeError("coefficients must be ints")
        self.delta = delta
        if p.is_zero() and q.is_zero():
            self.p, self.q, self.d = p, q, Polynomial([1])
            return
        parts = (p.coeffs, q.coeffs, d.coeffs)
        low = min(next(i for i, c in enumerate(cs) if c) for cs in parts if cs)
        content = gcd(*(c for cs in parts for c in cs))
        self.p, self.q, self.d = (
            Polynomial([c // content for c in cs[low:]]) for cs in parts
        )

    def __repr__(self) -> str:
        return f"AlgebraicSeries(p={self.p}, q={self.q}, d={self.d}, delta={self.delta})"

    def _lift(self, other: object) -> AlgebraicSeries:
        if isinstance(other, AlgebraicSeries):
            if other.delta != self.delta:
                raise ValueError(
                    f"radicand mismatch: {self.delta} vs {other.delta}"
                )
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return AlgebraicSeries(self.delta, Polynomial([other]))
        raise TypeError(f"expected an AlgebraicSeries or int, got {type(other).__name__}")

    def __add__(self, other: AlgebraicSeries | int) -> AlgebraicSeries:
        if type(other) is int:
            return AlgebraicSeries(self.delta, self.p + self.d * other, self.q, self.d)
        o = self._lift(other)
        return AlgebraicSeries(
            self.delta,
            self.p * o.d + o.p * self.d,
            self.q * o.d + o.q * self.d,
            self.d * o.d,
        )

    __radd__ = __add__

    def __neg__(self) -> AlgebraicSeries:
        return AlgebraicSeries(self.delta, -self.p, -self.q, self.d)

    def __sub__(self, other: AlgebraicSeries | int) -> AlgebraicSeries:
        return self + (-self._lift(other))

    def __rsub__(self, other: int) -> AlgebraicSeries:
        return self._lift(other) - self

    def __mul__(self, other: AlgebraicSeries | int) -> AlgebraicSeries:
        o = self._lift(other)
        return AlgebraicSeries(
            self.delta,
            self.p * o.p + self.q * o.q * self.delta,
            self.p * o.q + self.q * o.p,
            self.d * o.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: AlgebraicSeries | int) -> AlgebraicSeries:
        """Division through the conjugate: 1/(p + qS) = (p - qS)/(p^2 - q^2 delta)."""
        o = self._lift(other)
        norm = o.p * o.p - o.q * o.q * self.delta
        if norm.is_zero():
            raise ZeroDivisionError("division by zero in Q(x)(S)")
        return AlgebraicSeries(
            self.delta,
            (self.p * o.p - self.q * o.q * self.delta) * o.d,
            (self.q * o.p - self.p * o.q) * o.d,
            self.d * norm,
        )

    def __rtruediv__(self, other: int) -> AlgebraicSeries:
        return self._lift(other) / self

    def series(self, order: int) -> TruncatedSeries:
        """Expansion up to ``x**(order-1)``.

        S comes from the recurrence 2m s_m = sum_j delta_j (3j - 2m) s_(m-j),
        the coefficient form of delta S' = delta' S / 2.  The numerator
        p + qS is then divided by d: first by d's power of x, below which the
        numerator must vanish, then by a recurrence on the rest.  Every
        division is exact or raises ``ArithmeticError``.
        """
        if order < 1:
            raise ValueError(f"order must be at least 1, got {order}")
        dc = self.d.coeffs
        low = next(i for i, c in enumerate(dc) if c)
        length = order + low
        steps = list(enumerate(self.delta.coeffs))[1:]
        s = [1] + [0] * (length - 1)
        for m in range(1, length):
            acc = sum(c * (3 * j - 2 * m) * s[m - j] for j, c in steps if j <= m)
            s[m] = _exact_quotient(acc, 2 * m, f"coefficient {m} of the square root")
        num = self.p.coeffs[:length] + [0] * max(0, length - len(self.p.coeffs))
        for i, qi in enumerate(self.q.coeffs[:length]):
            if qi:
                num[i:] = [a + qi * b for a, b in zip(num[i:], s)]
        if any(num[:low]):
            raise ArithmeticError(f"not a power series: the denominator has x**{low}")
        num = num[low:]
        head, tail = dc[low], dc[low + 1 :]
        out = [0] * order
        for m in range(order):
            span = min(m, len(tail))
            acc = num[m] - sum(map(mul, tail[:span], reversed(out[m - span : m])))
            out[m] = _exact_quotient(acc, head, f"coefficient {m} of the quotient")
        return TruncatedSeries(out, order)


class XYPolynomial:
    """An exact polynomial in the main variable x and a marker variable y.

    Terms live in a dict keyed by ``(x_exponent, y_exponent)``.  Zero
    coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], Scalar] | None = None):
        clean: dict[tuple[int, int], Scalar] = {}
        if terms:
            for key, val in terms.items():
                v = _norm(val)
                if v != 0:
                    clean[key] = v
        self.terms = clean

    @classmethod
    def constant(cls, value: Scalar) -> XYPolynomial:
        return cls({(0, 0): value})

    @classmethod
    def monomial(cls, dx: int, dy: int, coeff: Scalar = 1) -> XYPolynomial:
        return cls({(dx, dy): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XYPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        items = ", ".join(
            f"x^{i}y^{j}: {c}" for (i, j), c in self.sorted_terms()
        )
        return f"XYPolynomial({{{items}}})"

    def sorted_terms(self) -> list[tuple[tuple[int, int], Scalar]]:
        return sorted(self.terms.items())

    def __add__(self, other: XYPolynomial | Scalar) -> XYPolynomial:
        if isinstance(other, (int, Fraction)):
            other = XYPolynomial.constant(other)
        terms = dict(self.terms)
        for key, val in other.terms.items():
            terms[key] = terms.get(key, 0) + val
        return XYPolynomial(terms)

    __radd__ = __add__

    def __sub__(self, other: XYPolynomial | Scalar) -> XYPolynomial:
        if isinstance(other, (int, Fraction)):
            other = XYPolynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> XYPolynomial:
        return (-self) + other

    def __neg__(self) -> XYPolynomial:
        return XYPolynomial({k: -v for k, v in self.terms.items()})

    def mul(self, other: XYPolynomial, x_cap: int | None = None) -> XYPolynomial:
        """Product, optionally discarding terms with x-degree >= ``x_cap``."""
        out: dict[tuple[int, int], Scalar] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                i = i1 + i2
                if x_cap is not None and i >= x_cap:
                    continue
                key = (i, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return XYPolynomial(out)

    def __mul__(self, other: XYPolynomial | Scalar) -> XYPolynomial:
        if isinstance(other, (int, Fraction)):
            return XYPolynomial(
                {k: v * other for k, v in self.terms.items()}
            )
        return self.mul(other)

    __rmul__ = __mul__

    def pow(self, exponent: int, x_cap: int | None = None) -> XYPolynomial:
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        result = XYPolynomial.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result.mul(base, x_cap)
            e >>= 1
            if e:
                base = base.mul(base, x_cap)
        return result

    def partial_x(self) -> XYPolynomial:
        return XYPolynomial(
            {(i - 1, j): i * c for (i, j), c in self.terms.items() if i > 0}
        )

    def partial_y(self) -> XYPolynomial:
        return XYPolynomial(
            {(i, j - 1): j * c for (i, j), c in self.terms.items() if j > 0}
        )

    def x_degree(self) -> int:
        return max((i for (i, _) in self.terms), default=-1)

    def y_degree(self) -> int:
        return max((j for (_, j) in self.terms), default=-1)

    def eval_exact(self, x: Scalar, y: Scalar) -> Scalar:
        acc: Scalar = 0
        for (i, j), c in self.terms.items():
            acc += c * x**i * y**j
        return _norm(acc)

    def at_y(self, y: Scalar) -> Polynomial:
        """Substitute an exact value for the marker variable."""
        out: dict[int, Scalar] = {}
        for (i, j), c in self.terms.items():
            out[i] = out.get(i, 0) + c * y**j
        if not out:
            return Polynomial()
        coeffs = [0] * (max(out) + 1)
        for i, c in out.items():
            coeffs[i] = c
        return Polynomial(coeffs)

    def y1_jets(self) -> tuple[Polynomial, Polynomial, Polynomial]:
        """Value and first two y-derivatives at y = 1, as x-polynomials."""
        return (
            self.at_y(1),
            self.partial_y().at_y(1),
            self.partial_y().partial_y().at_y(1),
        )

    def y_coefficient(self, j: int) -> Polynomial:
        out: dict[int, Scalar] = {}
        for (i, jj), c in self.terms.items():
            if jj == j:
                out[i] = c
        if not out:
            return Polynomial()
        coeffs = [0] * (max(out) + 1)
        for i, c in out.items():
            coeffs[i] = c
        return Polynomial(coeffs)


# -- y-polynomial helpers for BivariateSeries ------------------------------

def _pnorm(p: list[Scalar]) -> list[Scalar]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _padd(p: list[Scalar], q: list[Scalar], sign: int = 1) -> list[Scalar]:
    n = max(len(p), len(q))
    out = [
        _norm((p[i] if i < len(p) else 0) + sign * (q[i] if i < len(q) else 0))
        for i in range(n)
    ]
    return _pnorm(out)


def _pmul(p: list[Scalar], q: list[Scalar]) -> list[Scalar]:
    if not p or not q:
        return []
    out: list[Scalar] = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b != 0:
                out[i + j] += a * b
    return _pnorm([_norm(c) for c in out])


class BivariateSeries:
    """A truncated series in x whose coefficients are polynomials in y.

    Coefficient ``n`` is a list of y-coefficients (index = y-exponent, no
    trailing zeros, empty list means zero).  Used for joint distributions
    where both the size and a marked statistic are tracked exactly.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence[Sequence[Scalar]], order: int):
        if order <= 0:
            raise ValueError("truncation order must be positive")
        if len(coeffs) > order:
            raise ValueError("too many coefficients for the truncation order")
        data = [_pnorm([_norm(c) for c in p]) for p in coeffs]
        data.extend([[] for _ in range(order - len(data))])
        self.order = order
        self.coeffs = data

    @classmethod
    def zero(cls, order: int) -> BivariateSeries:
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> BivariateSeries:
        return cls([[1]], order)

    @classmethod
    def from_xy_poly(cls, p: XYPolynomial, order: int) -> BivariateSeries:
        coeffs: list[list[Scalar]] = [[] for _ in range(order)]
        for (i, j), c in p.terms.items():
            if i >= order:
                raise ValueError(
                    f"x-degree {i} does not fit truncation order {order}"
                )
            row = coeffs[i]
            if len(row) <= j:
                row.extend([0] * (j + 1 - len(row)))
            row[j] = row[j] + c
        return cls(coeffs, order)

    def coeff(self, n: int, l: int) -> Scalar:
        """Coefficient of ``x**n y**l``."""
        if n < 0 or l < 0:
            raise ValueError("negative exponent")
        if n >= self.order:
            raise ValueError(f"coefficient {n} not known at order {self.order}")
        row = self.coeffs[n]
        return row[l] if l < len(row) else 0

    def y_poly(self, n: int) -> list[Scalar]:
        if n >= self.order:
            raise ValueError(f"coefficient {n} not known at order {self.order}")
        return list(self.coeffs[n])

    def _check(self, other: BivariateSeries) -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __add__(self, other: BivariateSeries) -> BivariateSeries:
        self._check(other)
        return BivariateSeries(
            [_padd(a, b) for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __sub__(self, other: BivariateSeries) -> BivariateSeries:
        self._check(other)
        return BivariateSeries(
            [_padd(a, b, -1) for a, b in zip(self.coeffs, other.coeffs)],
            self.order,
        )

    def __neg__(self) -> BivariateSeries:
        return BivariateSeries(
            [[-c for c in p] for p in self.coeffs], self.order
        )

    def __mul__(self, other: BivariateSeries | Scalar) -> BivariateSeries:
        if isinstance(other, (int, Fraction)):
            return BivariateSeries(
                [[_norm(c * other) for c in p] for p in self.coeffs], self.order
            )
        self._check(other)
        n = self.order
        out: list[list[Scalar]] = [[] for _ in range(n)]
        for i, p in enumerate(self.coeffs):
            if not p:
                continue
            for j in range(n - i):
                q = other.coeffs[j]
                if q:
                    out[i + j] = _padd(out[i + j], _pmul(p, q))
        return BivariateSeries(out, n)

    __rmul__ = __mul__

    def __truediv__(self, other: BivariateSeries | Scalar) -> BivariateSeries:
        """Division; the divisor's constant term must be a nonzero rational."""
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of a series by zero")
            return BivariateSeries(
                [[_div(c, other) for c in p] for p in self.coeffs], self.order
            )
        self._check(other)
        b0_poly = other.coeffs[0]
        if len(b0_poly) != 1:
            raise ZeroDivisionError(
                "division needs a constant term free of the marker variable"
            )
        b0 = b0_poly[0]
        n = self.order
        q: list[list[Scalar]] = [[] for _ in range(n)]
        for m in range(n):
            acc = list(self.coeffs[m])
            for k in range(1, m + 1):
                bk = other.coeffs[k]
                if bk and q[m - k]:
                    acc = _padd(acc, _pmul(bk, q[m - k]), -1)
            q[m] = [_div(c, b0) for c in acc]
        return BivariateSeries(q, n)

    def sqrt(self) -> BivariateSeries:
        if self.coeffs[0] != [1]:
            raise ValueError("square root needs constant term 1")
        n = self.order
        s: list[list[Scalar]] = [[] for _ in range(n)]
        s[0] = [1]
        for m in range(1, n):
            acc = list(self.coeffs[m])
            for i in range(1, m):
                if s[i] and s[m - i]:
                    acc = _padd(acc, _pmul(s[i], s[m - i]), -1)
            s[m] = [_div(c, 2) for c in acc]
        return BivariateSeries(s, n)

    def shift(self, k: int) -> BivariateSeries:
        coeffs = [[] for _ in range(min(k, self.order))]
        coeffs.extend(self.coeffs[: max(0, self.order - k)])
        return BivariateSeries(coeffs, self.order)

    def shifted_down(self, k: int) -> BivariateSeries:
        if k >= self.order:
            raise ValueError("cannot shift past the truncation order")
        if any(self.coeffs[i] for i in range(k)):
            raise ValueError(f"series is not divisible by x**{k}")
        return BivariateSeries(self.coeffs[k:], self.order - k)

    def y_shifted_down(self, r: int) -> BivariateSeries:
        """Divide by ``y**r``; every coefficient must be divisible by it."""
        out: list[list[Scalar]] = []
        for n, p in enumerate(self.coeffs):
            if any(c != 0 for c in p[:r]):
                raise ValueError(
                    f"coefficient of x**{n} is not divisible by y**{r}"
                )
            out.append(p[r:])
        return BivariateSeries(out, self.order)

    def at_y(self, y: Scalar) -> TruncatedSeries:
        """Collapse the marker variable at an exact value."""
        out: list[Scalar] = []
        for p in self.coeffs:
            acc: Scalar = 0
            for c in reversed(p):
                acc = acc * y + c
            out.append(_norm(acc))
        return TruncatedSeries(out, self.order)


class YJet:
    """A power series in x together with its first two marker derivatives.

    A jet stores ``(value, d1, d2)``: the series itself and its first and
    second partial derivatives with respect to the marker variable, all
    evaluated at marker value 1.  This is enough to extract exact means and
    variances of the marked statistic without carrying the full bivariate
    expansion.
    """

    __slots__ = ("value", "d1", "d2")

    def __init__(self, value: TruncatedSeries, d1: TruncatedSeries, d2: TruncatedSeries):
        if value.order != d1.order or value.order != d2.order:
            raise ValueError("jet components must share one truncation order")
        self.value = value
        self.d1 = d1
        self.d2 = d2

    @property
    def order(self) -> int:
        return self.value.order

    @classmethod
    def plain(cls, value: TruncatedSeries) -> YJet:
        """Wrap a series that does not involve the marker."""
        n = value.order
        return cls(value, TruncatedSeries.zero(n), TruncatedSeries.zero(n))

    @classmethod
    def constant(cls, c0: Scalar, c1: Scalar, c2: Scalar, order: int) -> YJet:
        return cls(
            TruncatedSeries.constant(c0, order),
            TruncatedSeries.constant(c1, order),
            TruncatedSeries.constant(c2, order),
        )

    @classmethod
    def marker_power(cls, r: int, order: int) -> YJet:
        """The jet of ``y**r`` at y = 1."""
        return cls.constant(1, r, r * (r - 1), order)

    @classmethod
    def from_xy_poly(cls, p: XYPolynomial, order: int) -> YJet:
        v, d1, d2 = p.y1_jets()
        return cls(
            v.to_series(order), d1.to_series(order), d2.to_series(order)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, YJet):
            return NotImplemented
        return (
            self.value == other.value
            and self.d1 == other.d1
            and self.d2 == other.d2
        )

    def __add__(self, other: YJet | Scalar) -> YJet:
        if isinstance(other, (int, Fraction)):
            return YJet(self.value + other, self.d1, self.d2)
        return YJet(
            self.value + other.value, self.d1 + other.d1, self.d2 + other.d2
        )

    __radd__ = __add__

    def __sub__(self, other: YJet | Scalar) -> YJet:
        if isinstance(other, (int, Fraction)):
            return YJet(self.value - other, self.d1, self.d2)
        return YJet(
            self.value - other.value, self.d1 - other.d1, self.d2 - other.d2
        )

    def __rsub__(self, other: Scalar) -> YJet:
        return YJet(other - self.value, -self.d1, -self.d2)

    def __neg__(self) -> YJet:
        return YJet(-self.value, -self.d1, -self.d2)

    def __mul__(self, other: YJet | Scalar) -> YJet:
        if isinstance(other, (int, Fraction)):
            return YJet(self.value * other, self.d1 * other, self.d2 * other)
        value = self.value * other.value
        d1 = self.d1 * other.value + self.value * other.d1
        d2 = (
            self.d2 * other.value
            + 2 * (self.d1 * other.d1)
            + self.value * other.d2
        )
        return YJet(value, d1, d2)

    __rmul__ = __mul__

    def __truediv__(self, other: YJet | Scalar) -> YJet:
        if isinstance(other, (int, Fraction)):
            return YJet(self.value / other, self.d1 / other, self.d2 / other)
        value = self.value / other.value
        d1 = (self.d1 - value * other.d1) / other.value
        d2 = (self.d2 - 2 * (d1 * other.d1) - value * other.d2) / other.value
        return YJet(value, d1, d2)

    def sqrt(self) -> YJet:
        value = self.value.sqrt()
        d1 = self.d1 / (2 * value)
        d2 = (self.d2 - 2 * (d1 * d1)) / (2 * value)
        return YJet(value, d1, d2)

    def shift(self, k: int) -> YJet:
        return YJet(self.value.shift(k), self.d1.shift(k), self.d2.shift(k))

    def shifted_down(self, k: int) -> YJet:
        return YJet(
            self.value.shifted_down(k),
            self.d1.shifted_down(k),
            self.d2.shifted_down(k),
        )

    def truncate(self, order: int) -> YJet:
        return YJet(
            self.value.truncate(order),
            self.d1.truncate(order),
            self.d2.truncate(order),
        )


def puiseux_expand(n: int, order: int) -> TruncatedSeries:
    """Expansion of ``(1 - 4x)**(-(n + 1/2))`` as a series in x.

    The coefficients satisfy ``c_k = c_{k-1} * 2 * (2n + 2k - 1) / k`` with
    ``c_0 = 1`` and are always integers; for n = 0 this is the central
    binomial series 1, 2, 6, 20, 70, ...

    Args:
        n: the integer part of the exponent, at least 0.
        order: truncation order of the result.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    coeffs: list[Scalar] = [0] * order
    c: Scalar = 1
    coeffs[0] = c
    for k in range(1, order):
        c = _div(c * 2 * (2 * n + 2 * k - 1), k)
        coeffs[k] = c
    return TruncatedSeries(coeffs, order)


def geometric(ratio_power: int, order: int) -> TruncatedSeries:
    """The series ``1 / (1 - x**k)`` for a positive integer k."""
    if ratio_power <= 0:
        raise ValueError("the power must be positive")
    coeffs = [1 if i % ratio_power == 0 else 0 for i in range(order)]
    return TruncatedSeries(coeffs, order)
