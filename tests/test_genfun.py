from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toporna.genfun import (
    LOOP_KINDS,
    StructureClass,
    arc_distribution,
    core_polys,
    d0_bivariate,
    d0_jet,
    d0_series,
    dg_bivariate,
    dg_jet,
    dg_series,
    dg_via_chords,
    discriminant_poly,
    expected_marks,
    loop_marked_d0_jet,
    loop_marked_dg_jet,
    marks_variance,
    pk_marked_dg_jet,
    structure_counts,
)
from toporna.oracle import full_census
from toporna.recursions import MARK_KINDS, marked_shape_poly
from toporna.series import TruncatedSeries, YJet, XYPolynomial

PLAIN = StructureClass(1, 1)
SPACED = StructureClass(2, 1)
CANONICAL = StructureClass(2, 2)


def series_list(s, n):
    return [s.coeff(k) for k in range(n)]


def test_d0_plain_is_motzkin():
    got = series_list(d0_series(PLAIN, 12), 12)
    assert got == [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798]


def test_d0_spaced_secondary_counts():
    got = series_list(d0_series(SPACED, 11), 11)
    assert got == [1, 1, 1, 2, 4, 8, 17, 37, 82, 185, 423]


def test_core_polys_plain():
    a, b = core_polys(PLAIN)
    assert a == XYPolynomial.constant(1)
    assert b == XYPolynomial({(0, 0): 1, (1, 0): -1})


def test_quadratic_residual_vanishes():
    order = 22
    for lam, r in [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)]:
        cls_ = StructureClass(lam, r)
        a, b = core_polys(cls_)
        aj = YJet.from_xy_poly(a, order)
        bj = YJet.from_xy_poly(b, order)
        qr = YJet.marker_power(r, order).shift(2 * r)
        d0 = d0_jet(cls_, order)
        res = qr * d0 * d0 - bj * d0 + aj
        zero = TruncatedSeries.zero(order)
        assert res.value == zero and res.d1 == zero and res.d2 == zero, (lam, r)


def test_d0_three_routes_agree():
    order = 20
    for lam, r in [(1, 1), (2, 2), (3, 2)]:
        cls_ = StructureClass(lam, r)
        closed = d0_jet(cls_, order)
        assert loop_marked_d0_jet(cls_, "arc", order) == closed, (lam, r)
        assert dg_via_chords(cls_, 0, order) == closed, (lam, r)


def test_d0_against_census():
    for lam, r in [(1, 1), (2, 2), (3, 2)]:
        cls_ = StructureClass(lam, r)
        jet = d0_jet(cls_, 10)
        for n in range(10):
            row = full_census(n, lam, r, max_genus=0)[0]
            assert jet.value.coeff(n) == row["count"], (lam, r, n)
            assert jet.d1.coeff(n) == row["arcs"], (lam, r, n)


def test_loop_marked_d0_against_census():
    for lam, r in [(1, 1), (2, 2)]:
        cls_ = StructureClass(lam, r)
        jets = {k: loop_marked_d0_jet(cls_, k, 10) for k in LOOP_KINDS}
        for n in range(10):
            row = full_census(n, lam, r, max_genus=0)[0]
            for kind in LOOP_KINDS:
                assert jets[kind].d1.coeff(n) == row["loops"][kind], (lam, r, n, kind)


def test_stem_marking_identities():
    order = 20
    for cls_ in (PLAIN, CANONICAL):
        stem = loop_marked_d0_jet(cls_, "stem", order)
        parts = {k: loop_marked_d0_jet(cls_, k, order) for k in LOOP_KINDS}
        assert stem.d1 == parts["hairpin"].d1 + parts["multi"].d1
        assert stem.d1 == parts["stack"].d1 - parts["bulge"].d1 - parts["interior"].d1


def test_dg_counts_against_census():
    for lam, r, top in [(1, 1, 10), (2, 2, 12)]:
        cls_ = StructureClass(lam, r)
        per_genus = {g: dg_series(cls_, g, top + 1) for g in (1, 2)}
        for n in range(top + 1):
            rows = full_census(n, lam, r, max_genus=2)
            for g in (1, 2):
                assert per_genus[g].coeff(n) == rows[g]["count"], (lam, r, g, n)


def test_dg_marked_jets_against_census():
    cls_ = PLAIN
    top = 10
    loop_jets = {
        (g, k): loop_marked_dg_jet(cls_, g, k, top + 1)
        for g in (1, 2)
        for k in LOOP_KINDS
    }
    pk_jets = {
        (g, k): pk_marked_dg_jet(cls_, g, k, top + 1)
        for g in (1, 2)
        for k in MARK_KINDS
    }
    arc_jets = {g: dg_jet(cls_, g, top + 1) for g in (1, 2)}
    for n in range(top + 1):
        rows = full_census(n, 1, 1, max_genus=2)
        for g in (1, 2):
            assert arc_jets[g].d1.coeff(n) == rows[g]["arcs"], (g, n)
            for k in LOOP_KINDS:
                assert loop_jets[g, k].d1.coeff(n) == rows[g]["loops"][k], (g, k, n)
            for k in MARK_KINDS:
                assert pk_jets[g, k].d1.coeff(n) == rows[g]["pk"][k], (g, k, n)
        # a genus-1 structure cannot contain a block of genus two or more
        assert rows[1]["pk"]["higher"] == 0


def test_dg_two_routes_match():
    order = 30
    for lam, r in [(1, 1), (2, 2), (3, 2)]:
        cls_ = StructureClass(lam, r)
        for g in (1, 2):
            assert dg_jet(cls_, g, order) == dg_via_chords(cls_, g, order), (lam, r, g)


def test_marked_series_values_reduce_to_plain():
    order = 25
    for cls_ in (PLAIN, CANONICAL):
        for g in (0, 1, 2):
            plain = dg_series(cls_, g, order)
            assert dg_jet(cls_, g, order).value == plain
            for kind in LOOP_KINDS:
                assert loop_marked_dg_jet(cls_, g, kind, order).value == plain
            if g >= 1:
                for kind in MARK_KINDS:
                    assert pk_marked_dg_jet(cls_, g, kind, order).value == plain


def test_pk_types_partition_genus1():
    order = 30
    for cls_ in (PLAIN, CANONICAL):
        total = TruncatedSeries.zero(order)
        for kind in MARK_KINDS:
            total = total + pk_marked_dg_jet(cls_, 1, kind, order).d1
        assert total == dg_series(cls_, 1, order)


def test_parameter_validation():
    with pytest.raises(ValueError):
        StructureClass(0, 1)
    with pytest.raises(ValueError):
        StructureClass(1, 0)
    wide = StructureClass(4, 2)
    assert d0_series(wide, 8).coeff(0) == 1
    with pytest.raises(ValueError):
        dg_series(wide, 1, 8)
    with pytest.raises(ValueError):
        loop_marked_dg_jet(PLAIN, 1, "stem", 8)
    with pytest.raises(ValueError):
        loop_marked_d0_jet(PLAIN, "knot", 8)
    with pytest.raises(ValueError):
        pk_marked_dg_jet(PLAIN, 0, "H", 8)
    with pytest.raises(ValueError):
        pk_marked_dg_jet(PLAIN, 1, "Z", 8)
    with pytest.raises(ValueError, match="order"):
        d0_series(PLAIN, 0)
    with pytest.raises(ValueError, match="order"):
        dg_series(PLAIN, 1, -3)
    with pytest.raises(ValueError, match="genus"):
        dg_series(PLAIN, -1, 8)
    with pytest.raises(ValueError, match="order"):
        pk_marked_dg_jet(PLAIN, 1, "H", 0)


def test_bivariate_matches_jets():
    order = 12
    for g in (0, 1):
        biv = dg_bivariate(PLAIN, g, order)
        jet = dg_jet(PLAIN, g, order)
        assert biv.at_y(1) == jet.value
        for n in range(order):
            weighted = sum(l * c for l, c in enumerate(biv.y_poly(n)))
            assert weighted == jet.d1.coeff(n), (g, n)


def test_arc_distribution_sums():
    counts = arc_distribution(PLAIN, 1, 8)
    assert sum(counts) == dg_series(PLAIN, 1, 9).coeff(8)
    # a genus-1 structure needs at least two arcs
    assert counts[0] == 0 and counts[1] == 0


def test_structure_counts_helper():
    assert structure_counts(PLAIN, 0, 6) == [1, 1, 2, 4, 9, 21]
    assert structure_counts(PLAIN, 1, 6) == [0, 0, 0, 0, 1, 5]


def test_expectation_helpers():
    jet = dg_jet(PLAIN, 1, 13)
    mean = expected_marks(jet, 12)
    assert isinstance(mean, Fraction)
    assert 2 < mean < 6
    assert marks_variance(jet, 12) > 0
    with pytest.raises(ZeroDivisionError):
        expected_marks(jet, 3)


def test_discriminant_poly_plain():
    # (1-x)^2 - 4 x^2 y for the unconstrained class
    got = discriminant_poly(PLAIN)
    assert got == XYPolynomial(
        {(0, 0): 1, (1, 0): -2, (2, 0): 1, (2, 1): -4}
    )


def test_d0_growth_rate_plain():
    s = d0_series(PLAIN, 160)
    ratio = Fraction(s.coeff(159), s.coeff(158))
    assert Fraction(28, 10) < ratio < 3


def _pk_reference(cls_, genus, kind, order):
    """The block-marked jet by truncated-series arithmetic alone.

    The same closed form as :func:`pk_marked_dg_jet`, D0 * P(w) for the value
    and both marker derivatives of the marked shape polynomial P, with D0
    taken from the arc-marked jet.
    """
    r = cls_.min_stack
    d0 = d0_jet(cls_, order).value
    x2r = TruncatedSeries.x_power(2 * r, order)
    x2 = TruncatedSeries.x_power(2, order)
    w = x2r * d0 * d0 / (1 - x2 - x2r * (d0 * d0 - 1))
    parts = []
    for poly in marked_shape_poly(genus, kind).y1_jets():
        acc = TruncatedSeries.zero(order)
        for c in reversed(poly.coeffs):
            acc = acc * w + c
        parts.append(d0 * acc)
    return YJet(*parts)


@settings(max_examples=50, deadline=None)
@given(
    r=st.integers(1, 3),
    data=st.data(),
    genus=st.integers(0, 2),
    order=st.integers(1, 60),
)
def test_algebraic_families_match_truncated_route(r, data, genus, order):
    cls_ = StructureClass(data.draw(st.integers(1, r + 1), label="min_arc"), r)
    assert dg_series(cls_, genus, order) == dg_jet(cls_, genus, order).value
    if genus >= 1:
        kind = data.draw(st.sampled_from(MARK_KINDS), label="kind")
        assert pk_marked_dg_jet(cls_, genus, kind, order) == _pk_reference(
            cls_, genus, kind, order
        )


def test_scaled_type_h_mean_enters_the_five_percent_band_by_3600():
    """Where criterion 6's 5 % band on n * mean(H) is first met.

    Criterion 6 asks for the band at n = 400 and fails by design; the exact
    gap is 14.03 % there and 4.96 % at n = 3600, decaying like 3 / sqrt(n).
    """
    target = Fraction(18)

    def gap(n):
        jet = pk_marked_dg_jet(PLAIN, 1, "H", n + 1)
        return abs(n * expected_marks(jet, n) - target) / target

    at_400, at_3600 = gap(400), gap(3600)
    assert at_400 > Fraction(1, 20)
    assert at_3600 < Fraction(1, 20)
    assert (round(float(at_400), 4), round(float(at_3600), 4)) == (0.1403, 0.0496)
