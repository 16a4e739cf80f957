from fractions import Fraction

from hypothesis import given, settings, strategies as st
from mpmath import mp

import pytest

from toporna import asymptotics
from toporna.asymptotics import (
    GENUS1_TYPE_DENOMINATOR,
    GENUS1_TYPE_NUMERATORS,
    _enclose,
    _isolate,
    _refine,
    _rounded,
    _side_sign,
    arc_law,
    fit_power_exponent,
    genus1_type_probability,
    mean_arc_grid,
    singularity,
)
from toporna.genfun import StructureClass, discriminant_poly, structure_counts
from toporna.series import Polynomial

PLAIN = StructureClass(1, 1)


def test_singularity_plain():
    rho = singularity(PLAIN)
    with mp.workdps(60):
        assert abs(rho - mp.mpf(1) / 3) < mp.mpf(10) ** -40


def test_singularity_spaced():
    rho = singularity(StructureClass(2, 1))
    with mp.workdps(60):
        exact = (3 - mp.sqrt(5)) / 2
        assert abs(rho - exact) < mp.mpf(10) ** -40


def test_arc_law_plain_exact():
    law = arc_law(PLAIN)
    with mp.workdps(60):
        assert abs(law.mean - mp.mpf(1) / 3) < mp.mpf(10) ** -35
        assert abs(law.variance - mp.mpf(1) / 18) < mp.mpf(10) ** -35


def test_arc_law_spot_values():
    spots = {
        (2, 1): "0.2764",
        (2, 2): "0.3172",
        (4, 3): "0.3113",
        (6, 6): "0.3359",
    }
    for (lam, r), want in spots.items():
        mean = arc_law(StructureClass(lam, r)).mean
        assert f"{float(mean):.4f}" == want, (lam, r)


def test_mean_arc_grid_shape_and_monotonicity():
    grid = mean_arc_grid()
    assert len(grid) == 26
    assert all(lam <= r + 1 for lam, r in grid)
    for lam in range(1, 7):
        row = [grid[(lam, r)] for r in range(1, 7) if (lam, r) in grid]
        assert all(a < b for a, b in zip(row, row[1:])), lam
        assert all(0.25 < v < 0.40 for v in row), lam


def test_type_asymptotics_partition_exact():
    total = [0, 0, 0]
    for triple in GENUS1_TYPE_NUMERATORS.values():
        for i in range(3):
            total[i] += triple[i]
    assert tuple(total) == GENUS1_TYPE_DENOMINATOR


def test_type_probability_values():
    p_h = genus1_type_probability("H", 500)
    assert 0.0362 < p_h < 0.0363
    with mp.workdps(30):
        total = sum(genus1_type_probability(k, 500) for k in "HKLM")
        assert abs(total - 1) < mp.mpf(10) ** -20
    # M dominates for long sequences
    assert genus1_type_probability("M", 10**6) > 0.9


def test_fit_recovers_synthetic_exponent():
    with mp.workdps(40):
        rho = mp.mpf(1) / 4
        values = {n: 5 * mp.mpf(n) ** 2.5 * 4**n for n in range(50, 151)}
    d, _ = fit_power_exponent(values, 50, 150, rho)
    assert abs(d - 2.5) < 1e-10


def test_fit_on_plain_secondary_counts():
    counts = structure_counts(PLAIN, 0, 161)
    rho = singularity(PLAIN)
    d, _ = fit_power_exponent(counts, 100, 160, rho)
    assert abs(d - (-1.5)) < 0.1


def test_fit_rejects_nonpositive():
    with pytest.raises(ValueError):
        fit_power_exponent([0] * 20, 5, 15, 0.5)


# -- the exact root kernel -------------------------------------------------


def _product(factors):
    """Coefficients of the product of the factors a x - b, given as (b, a)."""
    poly = Polynomial([1])
    for b, a in factors:
        poly = poly * Polynomial([-b, a])
    return poly.coeffs


def _holds(bracket, root):
    lo, hi, k = bracket
    return Fraction(lo, 2**k) <= root <= Fraction(hi, 2**k) and (lo < hi or lo == root * 2**k)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-7, 15), st.integers(1, 7)), min_size=1, max_size=5))
def test_isolation_and_refinement_bracket_the_smallest_root(factors):
    roots = [Fraction(b, a) for b, a in factors]
    positive = [x for x in roots if x > 0]
    coeffs = _product(factors)
    if not positive or min(positive) >= 2 or roots.count(min(positive)) > 1:
        with pytest.raises(ArithmeticError):
            _isolate(coeffs)
        return
    root = min(positive)
    bracket = _isolate(coeffs)
    assert _holds(bracket, root)
    lo, hi, k = bracket
    others = [x for x in roots if x != root]
    assert not any(Fraction(lo, 2**k) < x < Fraction(hi, 2**k) for x in others)
    lo, hi, k = narrow = _refine(coeffs, bracket, 60)
    assert _holds(narrow, root)
    assert (hi - lo) * 2**60 <= 2**k


def test_isolation_refuses_a_double_smallest_root():
    for factors in (
        [(1, 3), (1, 3), (5, 3)],  # 1/3 twice: Descartes never separates it
        [(1, 2), (1, 2), (3, 2)],  # 1/2 twice: a bisection midpoint
        [(1, 1), (1, 1)],
    ):
        with pytest.raises(ArithmeticError, match="not simple"):
            _isolate(_product(factors))
    # a double root above a simple one is no obstacle
    assert _holds(_isolate(_product([(1, 2), (1, 2), (1, 3)])), Fraction(1, 3))


def test_isolation_separates_simple_roots_closer_than_its_depth():
    close = Fraction(1, 3) + Fraction(1, 2**70)
    coeffs = _product([(1, 3), (close.numerator, close.denominator), (7, 4)])
    bracket = _isolate(coeffs)
    assert _holds(bracket, Fraction(1, 3))
    lo, hi, k = bracket
    assert Fraction(hi, 2**k) < close
    assert _holds(_refine(coeffs, bracket, 200), Fraction(1, 3))


def test_isolation_of_the_discriminant():
    coeffs = discriminant_poly(PLAIN).at_y(1).coeffs
    assert _holds(_refine(coeffs, _isolate(coeffs), 100), Fraction(1, 3))
    with pytest.raises(ArithmeticError, match="no root"):
        _isolate([1, 1])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=8),
    st.integers(0, 2**12 - 1),
    st.integers(0, 2**8),
)
def test_enclosure_holds_every_value_on_the_interval(coeffs, lo, span):
    frac = 11  # the interval [lo, lo + span] / 2^11 lies in [0, 2.2)
    hi = lo + span
    parts = (tuple(max(c, 0) for c in coeffs), tuple(max(-c, 0) for c in coeffs))
    low, high = _enclose(parts, (lo, hi), frac)
    for x in (lo, hi, (lo + hi) // 2, lo + span // 3):
        value = sum(c * Fraction(x, 2**frac) ** i for i, c in enumerate(coeffs))
        assert Fraction(low, 2**frac) <= value <= Fraction(high, 2**frac)


def test_side_signs_at_a_root_follow_its_multiplicity():
    for power, right, left in ((1, 1, -1), (2, 1, 1), (3, 1, -1)):
        coeffs = _product([(1, 2)] * power)  # (2x - 1)^power at x = 1/2
        assert (_side_sign(coeffs, 1, 1, 1), _side_sign(coeffs, 1, 1, -1)) == (right, left)


def test_refinement_takes_newton_steps(monkeypatch):
    coeffs = discriminant_poly(StructureClass(2, 2)).at_y(1).coeffs
    bracket = _isolate(coeffs)
    evaluations = []
    scaled = asymptotics._scaled
    monkeypatch.setattr(asymptotics, "_scaled", lambda *a: evaluations.append(a) or scaled(*a))
    lo, hi, k = _refine(coeffs, bracket, 2000)
    assert (hi - lo) * 2**2000 <= 2**k
    assert len(evaluations) < 80  # bisection alone would take 2000


def test_rounding_is_half_even_on_the_exact_value():
    assert _rounded(1, 3, 2) == "0.12"  # 0.125
    assert _rounded(3, 3, 2) == "0.38"  # 0.375
    assert _rounded(-3, 3, 2) == "-0.38"
    assert _rounded(2**60 - 1, 60, 3) == "1.000"


def test_a_digit_that_never_settles_is_refused(monkeypatch):
    # 40 digits from a 15-digit enclosure: refined until they settle
    assert arc_law(PLAIN, 15).decimal("mean", 40) == "0." + "3" * 40
    spaced = StructureClass(2, 2)
    assert arc_law(spaced, 15).decimal("variance", 60) == arc_law(spaced, 70).decimal("variance", 60)
    # an enclosure that straddles 0.25 however far it is refined
    monkeypatch.setattr(
        asymptotics,
        "_law_bounds",
        lambda cls_, frac: dict.fromkeys(asymptotics._FIELDS, (2 ** (frac - 2) - 1, 2 ** (frac - 2) + 1)),
    )
    with pytest.raises(ArithmeticError, match="not settled"):
        arc_law(PLAIN).decimal("mean", 1)
