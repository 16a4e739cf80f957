"""Tests for the exact series layer."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from toporna.genfun import _element_jet
from toporna.series import (
    AlgebraicSeries,
    BivariateSeries,
    Polynomial,
    TruncatedSeries,
    XYPolynomial,
    YJet,
    _convolve,
    _exact_factor,
    _expand,
    _power,
    _quotient,
)


def random_series(rng: random.Random, order: int, *, unit: bool = False) -> TruncatedSeries:
    """Random integer coefficients; with ``unit`` the constant term is 1 or -1."""
    coeffs = [rng.randint(-6, 6) for _ in range(order)]
    if unit:
        coeffs[0] = rng.choice([1, -1])
    return TruncatedSeries(coeffs, order)


def test_constructors_and_coeff():
    s = TruncatedSeries([1, 2, 3], 6)
    assert s.coeffs == [1, 2, 3, 0, 0, 0]
    assert s.coeff(1) == 2
    assert s.coeff(5) == 0
    with pytest.raises(ValueError):
        s.coeff(6)
    assert TruncatedSeries.x_power(3, 5).coeffs == [0, 0, 0, 1, 0]
    assert TruncatedSeries.x_power(9, 5).is_zero()


@pytest.mark.parametrize(
    "build",
    [
        lambda c: TruncatedSeries([1, c], 3),
        lambda c: Polynomial([1, c]),
        lambda c: XYPolynomial({(0, 0): 1, (1, 2): c}),
        lambda c: BivariateSeries([[1], [0, c]], 3),
    ],
)
@pytest.mark.parametrize("value", [Fraction(1, 3), Fraction(4, 2), 0.5, True])
def test_non_int_coefficients_raise_type_error(build, value):
    with pytest.raises(TypeError, match="ints"):
        build(value)


@pytest.mark.parametrize(
    "compute",
    [
        lambda c: TruncatedSeries.one(3) * c,
        lambda c: TruncatedSeries.one(3) + c,
        lambda c: TruncatedSeries.one(3) / c,
        lambda c: Polynomial([1]) * c,
        lambda c: Polynomial([1]) - c,
        lambda c: XYPolynomial.constant(1) * c,
        lambda c: YJet.marker_power(2, 3) * c,
    ],
)
@pytest.mark.parametrize("value", [Fraction(1, 3), Fraction(1, 2), 0.5])
def test_non_int_scalars_raise_type_error(compute, value):
    with pytest.raises(TypeError):
        compute(value)


@pytest.mark.parametrize(
    "compute",
    [
        lambda: TruncatedSeries([1], 4) / TruncatedSeries([2, 1], 4),  # 1 / (2 + x)
        lambda: TruncatedSeries([2, 3], 4) / 2,
        # sqrt(1 + x) = 1 + x/2 - ...: the S recurrence hits a half
        lambda: AlgebraicSeries(Polynomial([1, 1]), Polynomial(), Polynomial([1])).series(4),
        lambda: BivariateSeries([[1]], 3) / BivariateSeries([[2], [1]], 3),
        lambda: YJet.marker_power(2, 3) / 2,
    ],
)
def test_inexact_division_raises(compute):
    with pytest.raises(ArithmeticError, match="not an integer"):
        compute()


def test_exact_division_by_a_non_unit_stays_integral():
    assert (TruncatedSeries([2, -4, 6], 3) / 2).coeffs == [1, -2, 3]
    a, b = TruncatedSeries([1, 2, 3], 5), TruncatedSeries([3, 1], 5)
    assert (a * b) / b == a


def test_order_mismatch_raises():
    a = TruncatedSeries([1], 4)
    b = TruncatedSeries([1], 5)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a / b


def test_exact_factor_divides_or_raises():
    one_plus_x = Polynomial([1, 1])
    assert _exact_factor(Polynomial([1, 2, 1]) * 3, one_plus_x) == Polynomial([3, 3])
    assert _exact_factor(Polynomial(), one_plus_x) == Polynomial()
    for f, g in [
        (Polynomial([1, 0, 1]), one_plus_x),  # a nonzero remainder
        (Polynomial([0, 1]), Polynomial([1, 2])),  # a lead that does not divide
        (Polynomial([1]), one_plus_x),  # a degree below the divisor's
    ]:
        with pytest.raises(ArithmeticError, match="does not divide"):
            _exact_factor(f, g)


def test_geometric_series_division():
    order = 12
    one = TruncatedSeries.one(order)
    denom = one - TruncatedSeries.x(order)
    g = one / denom
    assert g.coeffs == [1] * order
    cubic = TruncatedSeries.one(7) / (1 - TruncatedSeries.x_power(3, 7))
    assert cubic.coeffs == [1, 0, 0, 1, 0, 0, 1]


def test_mul_div_roundtrip_random():
    rng = random.Random(20260823)
    for _ in range(25):
        order = rng.randint(3, 14)
        a = random_series(rng, order)
        b = random_series(rng, order, unit=True)
        assert (a * b) / b == a


def test_sqrt_roundtrip_random():
    """The S recurrence recovers g from the radicand g^2, for integer g with g(0) = 1."""
    rng = random.Random(77)
    for _ in range(25):
        order = rng.randint(3, 14)
        g = Polynomial([1] + [rng.randint(-6, 6) for _ in range(rng.randint(0, 6))])
        assert AlgebraicSeries(g * g, Polynomial(), Polynomial([1])).series(order) == g.to_series(
            max(order, g.degree + 1)
        ).truncate(order)
    with pytest.raises(ValueError):
        AlgebraicSeries(Polynomial([4, 1]), Polynomial(), Polynomial([1]))


def test_compose():
    order = 8
    one = TruncatedSeries.one(order)
    outer = one / (1 - TruncatedSeries.x(order))
    inner = TruncatedSeries.x(order) * 2
    # 1 / (1 - 2x)
    assert outer.compose(inner).coeffs == [2**k for k in range(order)]
    with pytest.raises(ValueError):
        outer.compose(TruncatedSeries.one(order))


def naive_product(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j < n:
                out[i + j] += ai * bj
    return out


def sparse_coeffs(rng: random.Random, size: int) -> list[int]:
    """Random ints, about half of them zero, sometimes with trailing zeros."""
    return [rng.choice([0, rng.randint(-9, 9)]) for _ in range(size)] + [0] * rng.randint(0, 2)


def test_convolve_matches_the_double_loop():
    rng = random.Random(15)
    for _ in range(200):
        a = sparse_coeffs(rng, rng.randint(0, 9))
        b = sparse_coeffs(rng, rng.randint(0, 9))
        full = len(a) + len(b) - 1 if a and b else 0
        assert _convolve(a, b) == naive_product(a, b, full)
        for n in (0, 1, full // 2, full, full + 3):  # n beyond the product pads with zeros
            assert _convolve(a, b, n) == naive_product(a, b, n), (a, b, n)
    assert _convolve([], [1, 2]) == _convolve([3], []) == []
    assert _convolve([], [1, 2], 3) == _convolve([0, 0], [1, 2], 3) == [0, 0, 0]


def test_quotient_matches_the_double_loop():
    rng = random.Random(16)
    for _ in range(200):
        order = rng.randint(1, 12)
        den = [rng.choice([1, -1])] + sparse_coeffs(rng, rng.randint(0, order + 2))
        num = sparse_coeffs(rng, rng.randint(0, order + 2))
        out: list[int] = []
        for m in range(order):
            acc = num[m] if m < len(num) else 0
            for k in range(1, min(m, len(den) - 1) + 1):
                acc -= den[k] * out[m - k]
            out.append(acc * den[0])
        assert _quotient(num, den, order) == out, (num, den)
        # a constant term other than a unit divides every product exactly
        den[0] = rng.choice([2, -3])
        assert _quotient(naive_product(out, den, order), den, order) == out
    # trailing zeros of the divisor change nothing; a short numerator is padded
    assert _quotient([1], [1, -1, 0, 0, 0, 0], 5) == [1, 1, 1, 1, 1]
    assert _quotient([2, 0, 0], [2, -2], 4) == [1, 1, 1, 1]


def test_quotient_that_is_not_integral_raises():
    with pytest.raises(ArithmeticError, match="coefficient 1 of the quotient"):
        _quotient([2, 1], [2, 0, 0], 3)
    with pytest.raises(ZeroDivisionError):
        _quotient([1], [0, 1], 2)


def test_zero_polynomial_evaluates_to_the_zero_of_its_argument():
    zero = Polynomial()
    series = TruncatedSeries([1, 2, 3], 4)
    assert zero(series) == TruncatedSeries.zero(4)
    jet = YJet(series, series, series)
    assert zero(jet) == YJet.plain(TruncatedSeries.zero(4))
    assert zero(Fraction(1, 3)) == 0 and zero(5) == 0
    # and a nonzero polynomial agrees with the series arithmetic it stands for
    assert Polynomial([1, -2, 1])(series) == (1 - series) * (1 - series)


def test_shift():
    s = TruncatedSeries([1, 2, 3], 5)
    assert s.shift(2).coeffs == [0, 0, 1, 2, 3]
    assert s.shift(4).coeffs == [0, 0, 0, 0, 1]
    with pytest.raises(ValueError):
        s.shift(-1)


def half_integer_power(n: int, order: int) -> TruncatedSeries:
    """(1 - 4x)^(-(n + 1/2)) as the element S / (1 - 4x)^(n + 1), S = sqrt(1 - 4x)."""
    delta = Polynomial([1, -4])
    element = AlgebraicSeries(delta, Polynomial(), Polynomial([1]), _power(delta, n + 1))
    return element.series(order)


def test_puiseux_half_integer_base_case():
    # (1 - 4x)^(-1/2) is the central binomial series.
    s = half_integer_power(0, 8)
    assert s.coeffs == [comb(2 * k, k) for k in range(8)]
    assert all(isinstance(c, int) for c in s.coeffs)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_puiseux_matches_product_form(n):
    # (1-4x)^(-(n+1/2)) = (1-4x)^(-1/2) * (1-4x)^(-n)
    order = 20
    base = half_integer_power(0, order)
    one = TruncatedSeries.one(order)
    inv = one / (one - 4 * TruncatedSeries.x(order))
    expected = base
    for _ in range(n):
        expected = expected * inv
    assert half_integer_power(n, order) == expected


def test_polynomial_basics():
    p = Polynomial([1, 0, 3])
    q = Polynomial([0, 2])
    assert (p * q).coeffs == [0, 2, 0, 6]
    assert (p + q).coeffs == [1, 2, 3]
    assert p(2) == 13
    assert p(Fraction(1, 2)) == Fraction(7, 4)
    assert p.derivative().coeffs == [0, 6]
    assert Polynomial([0, 0]).is_zero()
    assert p.to_series(5).coeffs == [1, 0, 3, 0, 0]
    with pytest.raises(ValueError):
        p.to_series(2)


def test_xy_polynomial_arith_and_partials():
    x = XYPolynomial.monomial(1, 0)
    y = XYPolynomial.monomial(0, 1)
    p = (x + y).mul(x + y).mul(x + y)
    assert p.terms == {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
    assert p.partial_x().terms == {(2, 0): 3, (1, 1): 6, (0, 2): 3}
    assert p.partial_y().terms == {(2, 0): 3, (1, 1): 6, (0, 2): 3}
    assert p.at_y(3)(2) == 125


def test_xy_polynomial_pow_with_cap():
    x = XYPolynomial.monomial(1, 0)
    p = XYPolynomial.constant(1)
    for _ in range(6):
        p = p.mul(1 + x, x_cap=3)
    assert p.terms == {(0, 0): 1, (1, 0): 6, (2, 0): 15}


def test_y1_jets_of_polynomial():
    # f = x*y^2 + 3*x^2*y: at y=1 the jets are x + 3x^2, 2x + 3x^2, 2x.
    f = XYPolynomial({(1, 2): 1, (2, 1): 3})
    v, d1, d2 = f.y1_jets()
    assert v.coeffs == [0, 1, 3]
    assert d1.coeffs == [0, 2, 3]
    assert d2.coeffs == [0, 2]


def random_bivariate(rng: random.Random, order: int, max_ydeg: int = 3) -> BivariateSeries:
    coeffs = []
    for _ in range(order):
        coeffs.append([rng.randint(-4, 4) for _ in range(rng.randint(0, max_ydeg + 1))])
    return BivariateSeries(coeffs, order)


def bivariate_y_derivative(s: BivariateSeries) -> BivariateSeries:
    out = []
    for p in s.coeffs:
        out.append([j * c for j, c in enumerate(p)][1:])
    return BivariateSeries(out, s.order)


def jet_of(s: BivariateSeries) -> YJet:
    d1 = bivariate_y_derivative(s)
    d2 = bivariate_y_derivative(d1)
    return YJet(s.at_y(1), d1.at_y(1), d2.at_y(1))


def test_jet_product_rule_against_bivariate():
    rng = random.Random(5)
    for _ in range(20):
        order = rng.randint(3, 10)
        f = random_bivariate(rng, order)
        g = random_bivariate(rng, order)
        assert jet_of(f) * jet_of(g) == jet_of(f * g)


def test_jet_quotient_rule_against_bivariate():
    rng = random.Random(6)
    for _ in range(20):
        order = rng.randint(3, 10)
        f = random_bivariate(rng, order)
        g = random_bivariate(rng, order)
        g.coeffs[0] = [rng.choice([1, -1])]
        assert jet_of(f) / jet_of(g) == jet_of(f / g)


def random_xy(rng: random.Random) -> XYPolynomial:
    """A few terms of x-degree at most 3 and y-degree at most 2."""
    return XYPolynomial(
        {(rng.randint(0, 3), rng.randint(0, 2)): rng.randint(-3, 3) for _ in range(4)}
    )


def bivariate_of(poly: XYPolynomial, order: int) -> BivariateSeries:
    coeffs: list[list[int]] = [[] for _ in range(order)]
    for (i, j), c in poly.terms.items():
        if i < order:
            coeffs[i] += [0] * (j + 1 - len(coeffs[i]))
            coeffs[i][j] += c
    return BivariateSeries(coeffs, order)


def test_element_jet_rule_against_bivariate():
    """The jet of (p + q R) / (d E^j), R = sqrt(E), against the bivariate quotient.

    On a perfect square E = (1 + x f)^2, R is the polynomial 1 + x f, so the
    element is a quotient of polynomials whose constant term in x is 1.
    """
    rng = random.Random(7)
    one, x = XYPolynomial.constant(1), XYPolynomial.monomial(1, 0)
    for j in (0, 1, 2):
        for _ in range(15):
            order = rng.randint(1, 10)
            p, q, f, g = (random_xy(rng) for _ in range(4))
            root, d = one + x * f, one + x * g
            den = d
            for _ in range(2 * j):
                den = den * root
            quotient = bivariate_of(p + q * root, order) / bivariate_of(den, order)
            expanded = YJet(*_expand(order, *_element_jet(p, q, d, root * root, j)))
            assert expanded == jet_of(quotient), j


def test_jet_marker_power():
    order = 4
    j = YJet.marker_power(3, order)
    assert j.value.coeff(0) == 1
    assert j.d1.coeff(0) == 3
    assert j.d2.coeff(0) == 6
    # y^3 * y^2 == y^5
    assert j * YJet.marker_power(2, order) == YJet.marker_power(5, order)


def test_bivariate_at_y_matches_exact_eval():
    p = XYPolynomial({(0, 0): 1, (1, 1): 2, (2, 3): -1})
    s = BivariateSeries([[1], [0, 2], [0, 0, 0, -1]], 4)
    for y in (3, -2):
        collapsed = s.at_y(y)
        for n in range(3):
            assert collapsed.coeff(n) == p.at_y(y).coeff(n)


# (1 - x)^2 - 4x^2, the discriminant of the unconstrained class
MOTZKIN_DELTA = Polynomial([1, -2, -3])


def test_algebraic_square_root_expansion():
    s = AlgebraicSeries(MOTZKIN_DELTA, Polynomial(), Polynomial([1]))
    order = 30
    expansion = s.series(order)
    assert expansion.coeff(0) == 1
    assert expansion * expansion == MOTZKIN_DELTA.to_series(order)


def test_algebraic_normal_form_drops_common_x_power_and_content():
    e = AlgebraicSeries(
        MOTZKIN_DELTA, Polynomial([0, 2]), Polynomial([0, 4]), Polynomial([0, 0, 6])
    )
    assert (e.p, e.q, e.d) == (Polynomial([1]), Polynomial([2]), Polynomial([0, 3]))
    zero = AlgebraicSeries(MOTZKIN_DELTA, Polynomial(), None, Polynomial([0, 5]))
    assert zero.d == Polynomial([1]) and zero.series(4).is_zero()


@pytest.mark.parametrize(
    "delta, p, d",
    [
        (MOTZKIN_DELTA, [1], [3, 1]),  # 1 / (3 + x) is not integral
        (MOTZKIN_DELTA, [1], [0, 1]),  # 1 / x has a pole
        (Polynomial([1, 1]), [], [1]),  # sqrt(1 + x) has coefficient 1/2
    ],
)
def test_algebraic_non_integral_expansion_raises(delta, p, d):
    q = Polynomial([1]) if not p else Polynomial()
    e = AlgebraicSeries(delta, Polynomial(p), q, Polynomial(d))
    with pytest.raises(ArithmeticError):
        e.series(6)


def test_algebraic_mixing_radicands_and_bad_orders_raise():
    a = AlgebraicSeries(MOTZKIN_DELTA, Polynomial([1]))
    b = AlgebraicSeries(Polynomial([1, -4]), Polynomial([1]))
    with pytest.raises(ValueError, match="radicand"):
        _expand(4, a, b)
    with pytest.raises(ValueError):
        AlgebraicSeries(Polynomial([2, 1]), Polynomial([1]))
    for order in (0, -3):
        with pytest.raises(ValueError, match="order"):
            _expand(order, a)
    with pytest.raises(ZeroDivisionError):
        AlgebraicSeries(MOTZKIN_DELTA, Polynomial([1]), None, Polynomial())


def test_algebraic_jet_expands_like_the_truncated_rules():
    """Elements have no arithmetic: a jet is built from their expansions only."""
    s = AlgebraicSeries(MOTZKIN_DELTA, Polynomial(), Polynomial([1]))
    elements = (s, AlgebraicSeries(MOTZKIN_DELTA, Polynomial([0, 2])),
                AlgebraicSeries(MOTZKIN_DELTA, Polynomial(), Polynomial([0, 1])))
    order = 12
    expanded = YJet(*_expand(order, *elements))
    assert expanded.order == order
    x = TruncatedSeries.x(order)
    assert expanded == YJet(s.series(order), x * 2, s.series(order) * x)
    for compute in (lambda: s + s, lambda: s * 2, lambda: 1 - s, lambda: -s):
        with pytest.raises(TypeError):
            compute()
    with pytest.raises(TypeError, match="truncated"):
        YJet(*elements)
    with pytest.raises(TypeError, match="truncated"):
        YJet(s, s.series(order), s.series(order))
    with pytest.raises(ValueError, match="order"):
        YJet(s.series(order), s.series(order), s.series(order - 1))
    assert not hasattr(YJet, "series")


def test_algebraic_jet_shares_one_root_across_unequal_denominators():
    """Elements whose denominators carry different powers of x expand as alone."""
    s = AlgebraicSeries(MOTZKIN_DELTA, Polynomial(), Polynomial([1]))
    root = s.series(12).coeffs

    def tail(k):  # (S minus its first k terms) / x^k
        return AlgebraicSeries(MOTZKIN_DELTA, -Polynomial(root[:k]), Polynomial([1]),
                               Polynomial.x_power(k))

    elements = (tail(5), s, tail(2))
    for order in (1, 7):
        assert _expand(order, *elements) == [c.series(order) for c in elements]
    with pytest.raises(ValueError, match="order"):
        _expand(0, *elements)
    other = AlgebraicSeries(Polynomial([1, -4]), Polynomial(), Polynomial([1]))
    with pytest.raises(ValueError, match="radicand"):
        _expand(4, s, other, s)
