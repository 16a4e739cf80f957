"""Tests for the exact series layer."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from toporna.series import (
    AlgebraicSeries,
    BivariateSeries,
    Polynomial,
    TruncatedSeries,
    XYPolynomial,
    YJet,
    geometric,
    puiseux_expand,
)


def random_series(rng: random.Random, order: int, *, unit: bool = False) -> TruncatedSeries:
    coeffs: list[int | Fraction] = []
    for i in range(order):
        if rng.random() < 0.15:
            coeffs.append(Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        else:
            coeffs.append(rng.randint(-6, 6))
    if unit:
        coeffs[0] = 1
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


def test_fraction_coefficients_normalize_to_int():
    s = TruncatedSeries([Fraction(4, 2), Fraction(1, 3)], 3)
    assert s.coeffs[0] == 2
    assert isinstance(s.coeffs[0], int)
    assert s.coeffs[1] == Fraction(1, 3)
    t = s * 3
    assert isinstance(t.coeffs[1], int)


def test_order_mismatch_raises():
    a = TruncatedSeries([1], 4)
    b = TruncatedSeries([1], 5)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a / b


def test_geometric_series_division():
    order = 12
    one = TruncatedSeries.one(order)
    denom = one - TruncatedSeries.x(order)
    g = one / denom
    assert g.coeffs == [1] * order
    assert g == geometric(1, order)
    assert geometric(3, 7).coeffs == [1, 0, 0, 1, 0, 0, 1]


def test_mul_div_roundtrip_random():
    rng = random.Random(20260823)
    for _ in range(25):
        order = rng.randint(3, 14)
        a = random_series(rng, order)
        b = random_series(rng, order)
        if b.coeffs[0] == 0:
            b = b + 1
        assert (a * b) / b == a


def test_sqrt_roundtrip_random():
    rng = random.Random(77)
    for _ in range(25):
        order = rng.randint(3, 14)
        f = random_series(rng, order, unit=True)
        s = f.sqrt()
        assert s * s == f
    with pytest.raises(ValueError):
        TruncatedSeries([2, 1], 4).sqrt()


def test_compose():
    order = 8
    outer = geometric(1, order)
    inner = TruncatedSeries.x(order) * 2
    # 1 / (1 - 2x)
    assert outer.compose(inner).coeffs == [2**k for k in range(order)]
    with pytest.raises(ValueError):
        outer.compose(TruncatedSeries.one(order))


def test_shift_and_shifted_down():
    s = TruncatedSeries([1, 2, 3], 5)
    up = s.shift(2)
    assert up.coeffs == [0, 0, 1, 2, 3]
    down = up.shifted_down(2)
    assert down.order == 3
    assert down.coeffs == [1, 2, 3]
    with pytest.raises(ValueError):
        s.shifted_down(1)


def test_eval_at():
    s = TruncatedSeries([1, 1, 1], 3)
    assert s.eval_at(Fraction(1, 2)) == Fraction(7, 4)
    assert s.eval_at(2) == 7


def test_puiseux_half_integer_base_case():
    # (1 - 4x)^(-1/2) is the central binomial series.
    s = puiseux_expand(0, 8)
    assert s.coeffs == [comb(2 * k, k) for k in range(8)]
    assert all(isinstance(c, int) for c in s.coeffs)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_puiseux_matches_product_form(n):
    # (1-4x)^(-(n+1/2)) = (1-4x)^(-1/2) * (1-4x)^(-n)
    order = 20
    base = puiseux_expand(0, order)
    one = TruncatedSeries.one(order)
    inv = one / (one - 4 * TruncatedSeries.x(order))
    expected = base
    for _ in range(n):
        expected = expected * inv
    assert puiseux_expand(n, order) == expected


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
    p = (x + y).pow(3)
    assert p.terms == {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
    assert p.partial_x().terms == {(2, 0): 3, (1, 1): 6, (0, 2): 3}
    assert p.partial_y().terms == {(2, 0): 3, (1, 1): 6, (0, 2): 3}
    assert p.eval_exact(2, 3) == 125


def test_xy_polynomial_pow_with_cap():
    x = XYPolynomial.monomial(1, 0)
    p = (1 + x).pow(6, x_cap=3)
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
        g.coeffs[0] = [rng.choice([1, 2, -1, 3])]
        assert jet_of(f) / jet_of(g) == jet_of(f / g)


def test_jet_sqrt_rule_against_bivariate():
    rng = random.Random(7)
    for _ in range(20):
        order = rng.randint(3, 10)
        f = random_bivariate(rng, order)
        f.coeffs[0] = [1]
        root = f.sqrt()
        assert root * root == f
        assert jet_of(f).sqrt() == jet_of(root)


def test_jet_marker_power():
    order = 4
    j = YJet.marker_power(3, order)
    assert j.value.coeff(0) == 1
    assert j.d1.coeff(0) == 3
    assert j.d2.coeff(0) == 6
    # y^3 * y^2 == y^5
    assert j * YJet.marker_power(2, order) == YJet.marker_power(5, order)


def test_bivariate_shift_down_checks():
    s = BivariateSeries.from_xy_poly(XYPolynomial({(2, 1): 5, (3, 2): 1}), 6)
    down = s.shifted_down(2)
    assert down.order == 4
    assert down.coeff(0, 1) == 5
    stripped = s.y_shifted_down(1)
    assert stripped.coeff(2, 0) == 5
    assert stripped.coeff(3, 1) == 1
    with pytest.raises(ValueError):
        s.shifted_down(3)
    with pytest.raises(ValueError):
        s.y_shifted_down(2)


def test_bivariate_at_y_matches_exact_eval():
    p = XYPolynomial({(0, 0): 1, (1, 1): 2, (2, 3): -1})
    s = BivariateSeries.from_xy_poly(p, 4)
    collapsed = s.at_y(Fraction(1, 2))
    for n in range(3):
        assert collapsed.coeff(n) == p.y_coefficient(0).coeff(n) + sum(
            p.y_coefficient(j).coeff(n) * Fraction(1, 2) ** j for j in range(1, 4)
        )


# (1 - x)^2 - 4x^2, the discriminant of the unconstrained class
MOTZKIN_DELTA = Polynomial([1, -2, -3])


def random_element(rng: random.Random, *, unit: bool = False) -> AlgebraicSeries:
    """(p + qS)/d with d(0) = 1, so the expansion has integer coefficients."""

    def poly(size):
        return Polynomial([rng.randint(-5, 5) for _ in range(size)])

    p, q = poly(rng.randint(0, 4)), poly(rng.randint(0, 4))
    if unit:
        p = p + (1 - p.coeff(0) - q.coeff(0))
    d = Polynomial([1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
    return AlgebraicSeries(MOTZKIN_DELTA, p, q, d)


def test_algebraic_square_root_expansion():
    s = AlgebraicSeries(MOTZKIN_DELTA, Polynomial(), Polynomial([1]))
    order = 30
    assert s.series(order) == MOTZKIN_DELTA.to_series(order).sqrt()
    assert (s * s).series(order) == MOTZKIN_DELTA.to_series(order)


def test_algebraic_arithmetic_matches_truncated_series():
    rng = random.Random(11)
    order = 25
    for _ in range(40):
        a = random_element(rng)
        b = random_element(rng, unit=True)
        sa, sb = a.series(order), b.series(order)
        assert (a + b).series(order) == sa + sb
        assert (a - b).series(order) == sa - sb
        assert (a * b).series(order) == sa * sb
        assert (a / b).series(order) == sa / sb
        assert (3 - a * 2).series(order) == 3 - sa * 2
        assert (1 / b).series(order) == TruncatedSeries.one(order) / sb


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
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        AlgebraicSeries(Polynomial([2, 1]), Polynomial([1]))
    for order in (0, -3):
        with pytest.raises(ValueError, match="order"):
            a.series(order)
    with pytest.raises(ZeroDivisionError):
        a / AlgebraicSeries(MOTZKIN_DELTA, Polynomial())
