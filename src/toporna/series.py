"""Exact integer arithmetic for truncated power series and marker polynomials.

Every coefficient is a plain ``int``: the counting sequences in this package
are integer sequences, so the kernel has one coefficient type.  The
constructors of :class:`TruncatedSeries`, :class:`Polynomial`,
:class:`XYPolynomial` and :class:`BivariateSeries` raise ``TypeError`` for
any other coefficient, and every division (series by series, series by an
int, each step of the recurrence for S below) is exact or raises
``ArithmeticError``.
Rationals appear only at the library's boundary, in the exact means and
variances of :mod:`toporna.genfun`.

Under the classes sits the kernel: :func:`_convolve` (product),
:func:`_quotient` (power-series quotient), :func:`_exact_factor` (exact
polynomial division), :meth:`Polynomial.__call__` (Horner's rule) and
:func:`_power` (integer powers of either polynomial type).  All products,
quotients and evaluations of the package live only there, the sampler's
stem-chain tables included, except the marker-polynomial rings
(:class:`XYPolynomial`, :class:`BivariateSeries` and those of
:mod:`toporna.recursions`) and the sampler's secondary counts: one loop
there fills d0 together with the component and loop-body counts it
depends on.

Four layers:

* :class:`TruncatedSeries`, a univariate power series known up to a fixed
  truncation order,
* :class:`Polynomial` and :class:`XYPolynomial`, exact polynomials in one
  and two variables,
* :class:`AlgebraicSeries`, an exact element (p + q*S) / d of Q(x)(S) with
  S = sqrt(delta) for a fixed integer polynomial delta with delta(0) = 1.
  It has no arithmetic: every family built on it knows p, q and d in
  closed form (see :mod:`toporna.genfun`) and only expands it.
  :func:`_expand` is the one place where an element becomes a series; it
  computes S once for all the elements it is given, and S is the only
  square root the kernel expands,
* :class:`YJet`, a 2-jet in a marker variable, carrying the value and the
  first two derivatives at marker value 1 as truncated series of one order.

A joint distribution in x and the marker is not held as a series with
polynomial coefficients: it is read off :class:`AlgebraicSeries` evaluated
at integer marker values and interpolated exactly (see
:func:`toporna.genfun.arc_distribution`).  :class:`BivariateSeries` remains
only as the reference the jet rules are tested against.

Mixing series of different truncation orders, or algebraic series over
different radicands, is an error rather than a silent re-truncation.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from operator import mul, sub
from typing import Iterable, Sequence


def _ints(coeffs: Iterable[int]) -> list[int]:
    """``coeffs`` as a new list; raises ``TypeError`` unless each is an int."""
    data = list(coeffs)
    bad = set(map(type, data)) - {int}
    if bad:
        raise TypeError(f"coefficients must be ints, got {bad.pop().__name__}")
    return data


def _exact_quotient(num: int, den: int, what: str, *args: int) -> int:
    """num / den; raises ``ArithmeticError`` naming ``what.format(*args)`` unless exact.

    The label is formatted only on failure, so a hot loop pays nothing for it.
    """
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"{what.format(*args)} is not an integer: remainder {rem} mod {den}")
    return q


def _convolve(a: Sequence[int], b: Sequence[int], n: int | None = None) -> list[int]:
    """The first ``n`` coefficients of the product a*b, or all of them when n is None.

    Schoolbook, skipping zero coefficients; the operand with fewer nonzero
    coefficients drives the outer loop, so a sparse factor costs a few rows.
    """
    if n is None:
        n = len(a) + len(b) - 1 if a and b else 0
    if len(a) - a.count(0) > len(b) - b.count(0):
        a, b = b, a
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for k, bj in enumerate(b[: n - i], i):
                if bj:
                    out[k] += ai * bj
    return out


def _quotient(num: Sequence[int], den: Sequence[int], order: int) -> list[int]:
    """The first ``order`` coefficients of num / den, by recurrence on den's tail.

    Each division by den[0] is exact or raises ``ArithmeticError``; trailing
    zeros of den cost nothing.
    """
    head, tail = den[0], list(den[1:])
    if head == 0:
        raise ZeroDivisionError("series division requires a nonzero constant term")
    while tail and not tail[-1]:
        tail.pop()
    num = list(num[:order]) + [0] * (order - len(num))
    out = [0] * order
    for m in range(order):
        span = min(m, len(tail))
        acc = num[m] - sum(map(mul, tail[:span], reversed(out[m - span : m])))
        out[m] = _exact_quotient(acc, head, "coefficient {} of the quotient", m)
    return out


class TruncatedSeries:
    """A power series in one variable, exact up to ``x**(order-1)``.

    The coefficient list always has length ``order``.  Arithmetic never
    changes the order; combining two series of different orders raises
    ``ValueError``.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence[int], order: int):
        if order <= 0:
            raise ValueError("truncation order must be positive")
        if len(coeffs) > order:
            raise ValueError(
                f"got {len(coeffs)} coefficients for truncation order {order}"
            )
        data = _ints(coeffs)
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
    def constant(cls, value: int, order: int) -> TruncatedSeries:
        return cls([value], order)

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

    def coeff(self, n: int) -> int:
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

    def __add__(self, other: TruncatedSeries | int) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            coeffs = self.coeffs[:]
            coeffs[0] += other
            return TruncatedSeries(coeffs, self.order)
        self._check(other)
        return TruncatedSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    __radd__ = __add__

    def __sub__(self, other: TruncatedSeries | int) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return self + (-other)
        self._check(other)
        return TruncatedSeries(
            [a - b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __rsub__(self, other: int) -> TruncatedSeries:
        return (-self) + other

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other: TruncatedSeries | int) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries([c * other for c in self.coeffs], self.order)
        self._check(other)
        return TruncatedSeries(_convolve(self.coeffs, other.coeffs, self.order), self.order)

    __rmul__ = __mul__

    def __truediv__(self, other: TruncatedSeries | int) -> TruncatedSeries:
        """Exact series division; the divisor needs a nonzero constant term.

        Raises:
            ArithmeticError: if the quotient has a coefficient that is not
                an integer.
        """
        if not isinstance(other, TruncatedSeries):
            if type(other) is not int:
                raise TypeError(f"expected an int divisor, got {type(other).__name__}")
            if other == 0:
                raise ZeroDivisionError("division of a series by zero")
            return TruncatedSeries(
                [_exact_quotient(c, other, "a quotient coefficient") for c in self.coeffs],
                self.order,
            )
        self._check(other)
        return TruncatedSeries(_quotient(self.coeffs, other.coeffs, self.order), self.order)

    def compose(self, inner: TruncatedSeries) -> TruncatedSeries:
        """Substitute ``inner`` for the variable; ``inner`` must vanish at 0."""
        self._check(inner)
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs an inner series with no constant term")
        return Polynomial(self.coeffs)(inner)

    def shift(self, k: int) -> TruncatedSeries:
        """Multiply by ``x**k``, truncating at the same order."""
        if k < 0:
            raise ValueError("shift amount must be nonnegative")
        coeffs = [0] * min(k, self.order) + self.coeffs[: max(0, self.order - k)]
        return TruncatedSeries(coeffs, self.order)

    def truncate(self, order: int) -> TruncatedSeries:
        """Drop down to a smaller truncation order."""
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[:order], order)


class Polynomial:
    """An integer polynomial, stored dense with no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        data = _ints(coeffs)
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

    def coeff(self, n: int) -> int:
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

    def __add__(self, other: Polynomial | int) -> Polynomial:
        if not isinstance(other, Polynomial):
            other = Polynomial([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    __radd__ = __add__

    def __sub__(self, other: Polynomial | int) -> Polynomial:
        if not isinstance(other, Polynomial):
            other = Polynomial([other])
        return self + (-other)

    def __rsub__(self, other: int) -> Polynomial:
        return (-self) + other

    def __neg__(self) -> Polynomial:
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other: Polynomial | int) -> Polynomial:
        if not isinstance(other, Polynomial):
            return Polynomial([c * other for c in self.coeffs])
        return Polynomial(_convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def shift(self, k: int) -> Polynomial:
        if self.is_zero():
            return Polynomial()
        return Polynomial([0] * k + self.coeffs)

    def __call__(self, x):
        """The value at ``x`` by Horner's rule.

        ``x`` is a number (an int, a rational or an mpmath float), a
        :class:`TruncatedSeries` or a :class:`YJet`.  The sum starts from
        ``x * 0``, so the zero polynomial returns the zero of x's kind.
        """
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> Polynomial:
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def to_series(self, order: int) -> TruncatedSeries:
        if len(self.coeffs) > order:
            raise ValueError(
                f"polynomial of degree {self.degree} does not fit order {order}"
            )
        return TruncatedSeries(self.coeffs, order)


def _exact_factor(f: Polynomial, g: Polynomial) -> Polynomial:
    """f / g for a primitive g; raises ``ArithmeticError`` unless g divides f.

    By Gauss's lemma a primitive divisor leaves an integer quotient, so a
    leading coefficient that does not divide is already a failure.
    """
    rem = f.coeffs[:]
    lead, top = g.coeffs[-1], g.degree
    quot = [0] * max(0, len(rem) - top)
    for i in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[i + top], lead)
        if r:
            break
        if c:
            quot[i] = c
            rem[i : i + top] = map(sub, rem[i : i + top], map(mul, repeat(c), g.coeffs))
    else:
        if not any(rem[:top]):
            return Polynomial(quot)
    raise ArithmeticError(f"{g} does not divide {f}")


def _power(p: Polynomial | XYPolynomial, k: int) -> Polynomial | XYPolynomial:
    """p**k by repeated multiplication, for either polynomial type."""
    out = p * 0 + 1
    for _ in range(k):
        out = out * p
    return out


class AlgebraicSeries:
    """An exact element (p + q*S) / d of Q(x)(S), where S = sqrt(delta).

    ``delta`` is a fixed integer polynomial with delta(0) = 1, so S is the
    power series with constant term 1.  p, q and d are integer polynomials
    (d nonzero) that share no power of x and no integer content.  The
    element has no arithmetic: the families of :mod:`toporna.genfun` build
    p, q and d in closed form, with d a constant times a power of x times a
    power of delta, and :func:`_expand` turns elements into
    :class:`TruncatedSeries` with integer coefficients, to any order.
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
        self.delta = delta
        if p.is_zero() and q.is_zero():
            self.p, self.q, self.d = p, q, Polynomial([1])
            return
        parts = (p.coeffs, q.coeffs, d.coeffs)
        low = min(next(i for i, c in enumerate(cs) if c) for cs in parts if cs)
        content = gcd(*(c for cs in parts for c in cs))
        self.p, self.q, self.d = (Polynomial([c // content for c in cs[low:]]) for cs in parts)

    def __repr__(self) -> str:
        return f"AlgebraicSeries(p={self.p}, q={self.q}, d={self.d}, delta={self.delta})"

    def series(self, order: int) -> TruncatedSeries:
        """Expansion up to ``x**(order-1)``; see :func:`_expand`."""
        return _expand(order, self)[0]


def _expand(order: int, *elements: AlgebraicSeries) -> list[TruncatedSeries]:
    """Expansions up to ``x**(order-1)`` of elements over one radicand.

    S is computed once, as far as the element with the highest power of x
    in its denominator needs, from the recurrence
    2m s_m = sum_j delta_j (3j - 2m) s_(m-j), the coefficient form of
    delta S' = delta' S / 2.  Each numerator p + qS is then divided by its
    d: first by d's power of x, below which the numerator must vanish, then
    by a recurrence on the rest.  Every division is exact or raises
    ``ArithmeticError``.
    """
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    delta = elements[0].delta
    if any(e.delta != delta for e in elements):
        raise ValueError("the elements must share one radicand")
    lows = [next(i for i, c in enumerate(e.d.coeffs) if c) for e in elements]
    steps = list(enumerate(delta.coeffs))[1:]
    s = [1] + [0] * (order + max(lows) - 1)
    for m in range(1, len(s)):
        acc = sum(c * (3 * j - 2 * m) * s[m - j] for j, c in steps if j <= m)
        s[m] = _exact_quotient(acc, 2 * m, "coefficient {} of the square root", m)
    out = []
    for e, low in zip(elements, lows):
        length = order + low
        num = _convolve(e.q.coeffs, s, length)
        for i, pi in enumerate(e.p.coeffs[:length]):
            num[i] += pi
        if any(num[:low]):
            raise ArithmeticError(f"not a power series: the denominator has x**{low}")
        out.append(TruncatedSeries(_quotient(num[low:], e.d.coeffs[low:], order), order))
    return out


class XYPolynomial:
    """An integer polynomial in the main variable x and a marker variable y.

    Terms live in a dict keyed by ``(x_exponent, y_exponent)``.  Zero
    coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        terms = terms or {}
        _ints(terms.values())
        self.terms = {key: val for key, val in terms.items() if val}

    @classmethod
    def constant(cls, value: int) -> XYPolynomial:
        return cls({(0, 0): value})

    @classmethod
    def monomial(cls, dx: int, dy: int, coeff: int = 1) -> XYPolynomial:
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

    def sorted_terms(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self.terms.items())

    def __add__(self, other: XYPolynomial | int) -> XYPolynomial:
        if not isinstance(other, XYPolynomial):
            other = XYPolynomial.constant(other)
        terms = dict(self.terms)
        for key, val in other.terms.items():
            terms[key] = terms.get(key, 0) + val
        return XYPolynomial(terms)

    __radd__ = __add__

    def __sub__(self, other: XYPolynomial | int) -> XYPolynomial:
        if not isinstance(other, XYPolynomial):
            other = XYPolynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other: int) -> XYPolynomial:
        return (-self) + other

    def __neg__(self) -> XYPolynomial:
        return XYPolynomial({k: -v for k, v in self.terms.items()})

    def mul(self, other: XYPolynomial, x_cap: int | None = None) -> XYPolynomial:
        """Product, optionally discarding terms with x-degree >= ``x_cap``."""
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                i = i1 + i2
                if x_cap is not None and i >= x_cap:
                    continue
                key = (i, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return XYPolynomial(out)

    def __mul__(self, other: XYPolynomial | int) -> XYPolynomial:
        if not isinstance(other, XYPolynomial):
            return XYPolynomial(
                {k: v * other for k, v in self.terms.items()}
            )
        return self.mul(other)

    __rmul__ = __mul__

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

    def at_y(self, y: int) -> Polynomial:
        """Substitute an integer for the marker variable."""
        coeffs = [0] * (self.x_degree() + 1)
        for (i, j), c in self.terms.items():
            coeffs[i] += c * y**j
        return Polynomial(coeffs)

    def y1_jets(self) -> tuple[Polynomial, Polynomial, Polynomial]:
        """Value and first two y-derivatives at y = 1, as x-polynomials."""
        return (
            self.at_y(1),
            self.partial_y().at_y(1),
            self.partial_y().partial_y().at_y(1),
        )


# -- y-polynomial helpers for BivariateSeries ------------------------------

def _pnorm(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _padd(p: list[int], q: list[int], sign: int = 1) -> list[int]:
    n = max(len(p), len(q))
    out = [
        (p[i] if i < len(p) else 0) + sign * (q[i] if i < len(q) else 0)
        for i in range(n)
    ]
    return _pnorm(out)


class BivariateSeries:
    """A truncated series in x whose coefficients are polynomials in y.

    Coefficient ``n`` is a list of y-coefficients (index = y-exponent, no
    trailing zeros, empty list means zero).  No family in this package uses
    it; it is the reference the jet rules of :class:`YJet` are tested
    against, so it keeps only multiplication, division and evaluation at an
    integer marker value.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence[Sequence[int]], order: int):
        if order <= 0:
            raise ValueError("truncation order must be positive")
        if len(coeffs) > order:
            raise ValueError("too many coefficients for the truncation order")
        data = [_pnorm(_ints(p)) for p in coeffs]
        data.extend([[] for _ in range(order - len(data))])
        self.order = order
        self.coeffs = data

    def _check(self, other: BivariateSeries) -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __mul__(self, other: BivariateSeries) -> BivariateSeries:
        self._check(other)
        n = self.order
        out: list[list[int]] = [[] for _ in range(n)]
        for i, p in enumerate(self.coeffs):
            if not p:
                continue
            for j in range(n - i):
                q = other.coeffs[j]
                if q:
                    out[i + j] = _padd(out[i + j], _convolve(p, q))
        return BivariateSeries(out, n)

    def __truediv__(self, other: BivariateSeries) -> BivariateSeries:
        """Exact division; the divisor's constant term must be a nonzero int."""
        self._check(other)
        b0_poly = other.coeffs[0]
        if len(b0_poly) != 1:
            raise ZeroDivisionError(
                "division needs a constant term free of the marker variable"
            )
        b0 = b0_poly[0]
        n = self.order
        q: list[list[int]] = [[] for _ in range(n)]
        for m in range(n):
            acc = list(self.coeffs[m])
            for k in range(1, m + 1):
                bk = other.coeffs[k]
                if bk and q[m - k]:
                    acc = _padd(acc, _convolve(bk, q[m - k]), -1)
            q[m] = [_exact_quotient(c, b0, "coefficient {} of the quotient", m) for c in acc]
        return BivariateSeries(q, n)

    def at_y(self, y: int) -> TruncatedSeries:
        """Collapse the marker variable at an integer value."""
        return TruncatedSeries([Polynomial(p)(y) for p in self.coeffs], self.order)


class YJet:
    """A power series in x together with its first two marker derivatives.

    A jet stores ``(value, d1, d2)``: the series itself and its first and
    second partial derivatives with respect to the marker variable, all
    evaluated at marker value 1.  This is enough to extract exact means and
    variances of the marked statistic without carrying the full bivariate
    expansion.  The components are :class:`TruncatedSeries` of one order;
    an :class:`AlgebraicSeries` becomes one through :func:`_expand` first.
    """

    __slots__ = ("value", "d1", "d2")

    def __init__(self, value: TruncatedSeries, d1: TruncatedSeries, d2: TruncatedSeries):
        if not all(isinstance(c, TruncatedSeries) for c in (value, d1, d2)):
            raise TypeError("jet components must be truncated series")
        if len({value.order, d1.order, d2.order}) > 1:
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
        return cls(value, value * 0, value * 0)

    @classmethod
    def constant(cls, c0: int, c1: int, c2: int, order: int) -> YJet:
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

    def __add__(self, other: YJet | int) -> YJet:
        if not isinstance(other, YJet):
            return YJet(self.value + other, self.d1, self.d2)
        return YJet(
            self.value + other.value, self.d1 + other.d1, self.d2 + other.d2
        )

    __radd__ = __add__

    def __sub__(self, other: YJet | int) -> YJet:
        if not isinstance(other, YJet):
            return YJet(self.value - other, self.d1, self.d2)
        return YJet(
            self.value - other.value, self.d1 - other.d1, self.d2 - other.d2
        )

    def __rsub__(self, other: int) -> YJet:
        return YJet(other - self.value, -self.d1, -self.d2)

    def __neg__(self) -> YJet:
        return YJet(-self.value, -self.d1, -self.d2)

    def __mul__(self, other: YJet | int) -> YJet:
        if not isinstance(other, YJet):
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

    def __truediv__(self, other: YJet | int) -> YJet:
        if not isinstance(other, YJet):
            return YJet(self.value / other, self.d1 / other, self.d2 / other)
        value = self.value / other.value
        d1 = (self.d1 - value * other.d1) / other.value
        d2 = (self.d2 - 2 * (d1 * other.d1) - value * other.d2) / other.value
        return YJet(value, d1, d2)

    def shift(self, k: int) -> YJet:
        return YJet(self.value.shift(k), self.d1.shift(k), self.d2.shift(k))

    def truncate(self, order: int) -> YJet:
        return YJet(
            self.value.truncate(order),
            self.d1.truncate(order),
            self.d2.truncate(order),
        )
