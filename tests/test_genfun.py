import hashlib
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from toporna.genfun import (
    LOOP_KINDS,
    StructureClass,
    arc_distribution,
    core_polys,
    d0_jet,
    d0_series,
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
from toporna import genfun
from toporna.genfun import _arc_element, _dg, _inflated, _jet_elements, _loop_quadratic
from toporna.oracle import enumerate_diagrams, full_census
from toporna.recursions import MARK_KINDS, chord_series, marked_shape_poly, shape_poly
from toporna.series import Polynomial, TruncatedSeries, YJet, XYPolynomial, _power

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


#: Orders at or below deg B, where the routes must widen their inner order.
SMALL_ORDERS = [
    (StructureClass(lam, r), order)
    for lam, r in [(1, 1), (2, 2), (3, 2), (1, 3), (4, 3)]
    for order in range(1, 7)
]


def test_d0_two_routes_agree():
    cases = [(StructureClass(lam, r), 20) for lam, r in [(1, 1), (2, 2), (3, 2)]]
    for cls_, order in cases + SMALL_ORDERS:
        closed = d0_jet(cls_, order)
        assert dg_via_chords(cls_, 0, order) == closed, (cls_, order)


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


def _fixpoint_loop_d0_jet(cls_, kind, order):
    """Reference: the loop grammar iterated to its fixpoint, one kind marked."""
    lam, r = cls_.min_arc, cls_.min_stack
    x = TruncatedSeries.x(order)
    inv1x = TruncatedSeries.one(order) / (1 - x)
    one_j = YJet.plain(TruncatedSeries.one(order))
    y = YJet.marker_power(1, order)
    run = YJet.plain(x * inv1x)
    hairpin_fill = YJet.plain(TruncatedSeries.x_power(lam - 1, order) * inv1x)
    sigma = YJet.plain(
        TruncatedSeries.x_power(2 * r, order) / (1 - TruncatedSeries.x_power(2, order))
    )
    marks = {k: one_j for k in LOOP_KINDS}
    for k in ("hairpin", "multi") if kind == "stem" else (kind,):
        marks[k] = y
    gap_j = YJet.plain(inv1x)
    closed = YJet.plain(TruncatedSeries.zero(order))
    for _ in range(order + 1):
        spread = closed * gap_j
        multi = spread * spread * gap_j / (1 - spread)
        body = marks["hairpin"] * hairpin_fill
        body = body + marks["bulge"] * run * closed * 2
        body = body + marks["interior"] * run * run * closed
        body = body + marks["multi"] * multi
        refined = marks["stack"] * sigma * body
        if refined == closed:
            break
        closed = refined
    return one_j / (1 - YJet.plain(x) - closed)


def _branch_loop_substitution(cls_, kind, z, order):
    """Reference: the series each shape arc becomes, one formula per kind."""
    x = TruncatedSeries.x(order)
    x2 = YJet.plain(TruncatedSeries.x_power(2, order))
    x2r = YJet.plain(TruncatedSeries.x_power(2 * cls_.min_stack, order))
    y = YJet.marker_power(1, order)
    run = YJet.plain(x / (1 - x))
    z2 = z * z
    if kind == "stack":
        return x2r * y * z2 / (1 - x2 - x2r * y * (z2 - 1))
    if kind == "hairpin":
        return x2r * z2 / (1 - x2 - x2r * (z2 - 1))
    if kind == "bulge":
        return x2r * z2 / (1 - x2 - x2r * (z2 - 1 - run * (1 - y) * 2))
    if kind == "interior":
        return x2r * z2 / (1 - x2 - x2r * (z2 - 1 - run * run * (1 - y)))
    assert kind == "multi"
    extra = (run * 2 + run * run) * (1 - y)
    return x2r * z2 / (1 - x2 - x2r * (y * (z2 - 1) + extra))


def test_loop_marked_closed_form_matches_fixpoint():
    for lam, r in [(1, 1), (2, 1), (2, 2), (4, 3)]:
        cls_ = StructureClass(lam, r)
        for order in list(range(1, 9)) + [41]:
            for kind in LOOP_KINDS + ("stem",):
                z = _fixpoint_loop_d0_jet(cls_, kind, order)
                assert loop_marked_d0_jet(cls_, kind, order) == z, (cls_, kind, order)
                if kind == "stem":
                    continue
                w = _branch_loop_substitution(cls_, kind, z, order)
                for g in (1, 2):
                    expect = z * 0
                    for c in reversed(shape_poly(g).coeffs):
                        expect = expect * w + c
                    expect = z * expect
                    got = loop_marked_dg_jet(cls_, g, kind, order)
                    assert got == expect, (cls_, g, kind, order)
    with pytest.raises(ValueError, match="arc"):
        loop_marked_d0_jet(PLAIN, "arc", 8)


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
    cases = [(StructureClass(lam, r), 30) for lam, r in [(1, 1), (2, 2), (3, 2)]]
    for cls_, order in cases + SMALL_ORDERS:
        for g in (1, 2):
            assert dg_jet(cls_, g, order) == dg_via_chords(cls_, g, order), (
                cls_, g, order
            )


def test_repeated_dg_jet_reuses_the_class_algebra():
    cls_ = StructureClass(3, 2)
    first = dg_jet(cls_, 2, 20)
    hits = _jet_elements.cache_info().hits
    assert dg_jet(cls_, 2, 25).truncate(20) == first
    assert _jet_elements.cache_info().hits == hits + 1
    assert all(f.cache_info().maxsize for f in (_arc_element, _dg, _jet_elements))


def test_repeated_pk_jet_reuses_its_elements(monkeypatch):
    cls_ = StructureClass(2, 2)
    first = pk_marked_dg_jet(cls_, 2, "K", 30)
    built = []
    inflated = genfun._inflated

    def counted(*args):
        built.append(args)
        return inflated(*args)

    monkeypatch.setattr(genfun, "_inflated", counted)
    hits = _jet_elements.cache_info().hits
    assert pk_marked_dg_jet(cls_, 2, "K", 35).truncate(30) == first
    assert built == [] and _jet_elements.cache_info().hits == hits + 1


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
    with pytest.raises(ValueError, match="^n must"):
        arc_distribution(PLAIN, 1, -1)
    with pytest.raises(ValueError, match="genus"):
        arc_distribution(PLAIN, -1, 8)
    for call in (
        lambda order: d0_jet(PLAIN, order),
        lambda order: dg_jet(PLAIN, 1, order),
        lambda order: dg_via_chords(PLAIN, 1, order),
        lambda order: loop_marked_d0_jet(PLAIN, "stack", order),
        lambda order: loop_marked_dg_jet(PLAIN, 1, "stack", order),
    ):
        with pytest.raises(ValueError, match="^order"):
            call(0)
    for call in (
        lambda genus: dg_jet(PLAIN, genus, 8),
        lambda genus: dg_via_chords(PLAIN, genus, 8),
        lambda genus: loop_marked_dg_jet(PLAIN, genus, "stack", 8),
    ):
        with pytest.raises(ValueError, match="^genus"):
            call(-1)


def test_arc_distribution_matches_jets():
    order = 41
    for cls_ in (PLAIN, StructureClass(2, 2), StructureClass(4, 3)):
        for g in (0, 1, 2):
            jet = dg_jet(cls_, g, order)
            for n in range(order):
                counts = arc_distribution(cls_, g, n)
                assert sum(counts) == jet.value.coeff(n), (cls_, g, n)
                assert sum(l * c for l, c in enumerate(counts)) == jet.d1.coeff(n), (cls_, g, n)
                falling = sum(l * (l - 1) * c for l, c in enumerate(counts))
                assert falling == jet.d2.coeff(n), (cls_, g, n)


def test_arc_distribution_sums():
    counts = arc_distribution(PLAIN, 1, 8)
    assert sum(counts) == dg_series(PLAIN, 1, 9).coeff(8)
    # a genus-1 structure needs at least two arcs
    assert counts[0] == 0 and counts[1] == 0


def test_arc_distribution_matches_enumeration():
    for cls_ in (PLAIN, CANONICAL, StructureClass(1, 2)):
        for g in (0, 1, 2):
            for n in range(7):
                hist = [0] * (n // 2 + 1)
                for d in enumerate_diagrams(n, cls_.min_arc, cls_.min_stack, genus=g):
                    hist[d.num_arcs] += 1
                while hist and not hist[-1]:
                    hist.pop()
                assert arc_distribution(cls_, g, n) == hist, (cls_, g, n)


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
    taken from the chord-diagram route.
    """
    r = cls_.min_stack
    d0 = dg_via_chords(cls_, 0, order).value
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


@settings(max_examples=30, deadline=None)
@given(
    r=st.integers(1, 4),
    data=st.data(),
    genus=st.integers(0, 2),
    order=st.integers(1, 60),
)
def test_algebraic_arc_jet_matches_chord_route(r, data, genus, order):
    """dg_jet, exact in Q(x)(S), against the truncated chord-diagram route."""
    cls_ = StructureClass(data.draw(st.integers(1, r + 1), label="min_arc"), r)
    assert dg_jet(cls_, genus, order) == dg_via_chords(cls_, genus, order)


@settings(max_examples=30, deadline=None)
@given(
    r=st.integers(1, 4),
    data=st.data(),
    genus=st.integers(0, 2),
    order=st.integers(1, 60),
)
def test_truncated_routes_stay_integral(r, data, genus, order):
    """Every loop jet, the chord route and the three chord series divide exactly.

    Every division of the integer kernel raises ``ArithmeticError`` unless
    it is exact, so each call below completing is the check.
    """
    cls_ = StructureClass(data.draw(st.integers(1, r + 1), label="min_arc"), r)
    for kind in LOOP_KINDS + (("stem",) if genus == 0 else ()):
        loop_marked_dg_jet(cls_, genus, kind, order)
    dg_via_chords(cls_, genus, order)
    routes = {chord_series(genus, order, route) for route in ("recursion", "closed", "shapes")}
    assert len(routes) == 1


BASE_CLASSES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (1, 3), (4, 3), (1, 4)]


def _remainder(a, b):
    a = a[:]
    while len(a) >= len(b):
        c, shift = a[-1] / b[-1], len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] -= c * bi
        while a and a[-1] == 0:
            a.pop()
    return a


def _gcd_degree(f, g):
    a, b = [Fraction(c) for c in f.coeffs], [Fraction(c) for c in g.coeffs]
    while b:
        a, b = b, _remainder(a, b)
    return len(a) - 1


@pytest.mark.parametrize("lam, r", BASE_CLASSES)
def test_factor_base_is_primitive_squarefree_and_coprime(lam, r):
    """Delta is the one factor of the closed form's denominators besides x.

    At y = 1, 2, 3 it is primitive, squarefree and a unit at x = 0, and the
    numerator P of D_g = P Delta^(-N-1/2) shares with it only the factors of
    A (which divides Delta when B = (1 - x) A), so the exponent -N-1/2 holds
    at every other root of Delta.
    """
    cls_ = StructureClass(lam, r)
    for y in (1, 2, 3):
        delta = discriminant_poly(cls_).at_y(y)
        assert delta.degree >= 1 and delta.coeff(0) == 1
        assert gcd(*delta.coeffs) == 1
        assert _gcd_degree(delta, delta.derivative()) == 0
        shared = _gcd_degree(core_polys(cls_)[0].at_y(y), delta)
        assert shared == (2 * r if lam == 1 and r > 1 else 0)
        for genus in (1, 2, 3):
            numerator = _arc_element(cls_, genus)[1].at_y(y)
            assert _gcd_degree(numerator, delta) == shared, (y, genus)


def _horner_reference(cls_, genus, y, order):
    """Reference: D0 P_g(w) at marker value y, by truncated-series arithmetic alone.

    D0 is the fixed point of the arc quadratic, D0 = (A + q^r D0^2) / B,
    iterated once per order from 0, so the reference shares no square-root
    recurrence with the closed form.  w = q^r D0^2 / (1 - q - q^r (D0^2 - 1))
    is the series each shape arc becomes, and P_g(w) is taken by Horner's rule.
    """
    a, b = (TruncatedSeries(f.at_y(y).coeffs, order) for f in core_polys(cls_))
    q = TruncatedSeries.x_power(2, order) * y
    qr = TruncatedSeries.x_power(2 * cls_.min_stack, order) * y**cls_.min_stack
    d0 = TruncatedSeries.zero(order)
    for _ in range(order):
        d0 = (a + qr * d0 * d0) / b
    d02 = d0 * d0
    w = qr * d02 / (1 - q - qr * (d02 - 1))
    return d0 * shape_poly(genus)(w)


@pytest.mark.parametrize("lam, r", BASE_CLASSES)
def test_class_base_reduction_keeps_the_expansion(lam, r):
    """D_g = P Delta^(-N-1/2) equals D0 P_g(w) at y = 1, 2, 3.

    The closed form is the class's reduced element: p is zero and the
    denominator is exactly Delta^(N+1) = Delta^(3g).
    """
    cls_ = StructureClass(lam, r)
    for y in (1, 2, 3):
        delta = discriminant_poly(cls_).at_y(y)
        for genus in (1, 2, 3):
            reduced = _dg(cls_, genus, y)
            assert reduced.series(30) == _horner_reference(cls_, genus, y, 30), (genus, y)
            assert reduced.p.is_zero() and reduced.d == _power(delta, 3 * genus), (genus, y)


def test_arc_jet_matches_chord_route_at_high_genus():
    for lam, r, genus in [(4, 3, 3), (1, 4, 2)]:
        cls_ = StructureClass(lam, r)
        assert dg_jet(cls_, genus, 41) == dg_via_chords(cls_, genus, 41), (lam, r, genus)


def _jet_data(jet):
    return (jet.value.coeffs, jet.d1.coeffs, jet.d2.coeffs)


def test_algebraic_family_outputs_are_pinned():
    """One SHA-256 over the arc- and block-marked families and the chord route.

    The digest was recorded from the factor-base implementation these
    closed forms replaced, so any change of output shows here.
    """
    digest = hashlib.sha256()
    for lam, r in [(1, 1), (2, 1), (1, 2), (2, 2), (4, 3)]:
        cls_ = StructureClass(lam, r)
        for g in (0, 1, 2):
            digest.update(repr(dg_series(cls_, g, 60).coeffs).encode())
            digest.update(repr(_jet_data(dg_jet(cls_, g, 41))).encode())
            digest.update(repr(arc_distribution(cls_, g, 22)).encode())
            digest.update(repr(_jet_data(dg_via_chords(cls_, g, 31))).encode())
        for g in (1, 2):
            for kind in MARK_KINDS:
                digest.update(repr(_jet_data(pk_marked_dg_jet(cls_, g, kind, 41))).encode())
    assert digest.hexdigest() == (
        "132ece659726c13e7ff3a1505602dea4a6016dad9001a068576f3a37b4e66c61"
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


LOOP_CLASSES = [(1, 1), (2, 1), (2, 2), (3, 2), (1, 3), (4, 3), (1, 2)]


@pytest.mark.parametrize("lam, r", LOOP_CLASSES)
def test_loop_radicand_is_the_arc_discriminant_at_y1(lam, r):
    """E = beta^2 - 4 alpha gamma of the loop quadratic is (1 - x)^4 Delta at y = 1."""
    cls_ = StructureClass(lam, r)
    u4 = Polynomial([1, -4, 6, -4, 1])
    for kind in LOOP_KINDS + ("stem",):
        e = _inflated(_loop_quadratic(cls_, kind), [1])[3]
        assert e.at_y(1) == u4 * discriminant_poly(cls_).at_y(1), kind


def test_loop_jet_refuses_a_grammar_that_is_not_the_arc_grammar_at_y1(monkeypatch):
    def perturbed(cls_, kind):
        alpha, beta, gamma, m = _loop_quadratic(cls_, kind)
        return alpha, beta, gamma + XYPolynomial.monomial(5, 0), m

    _jet_elements.cache_clear()
    monkeypatch.setattr(genfun, "_loop_quadratic", perturbed)
    for genus in (0, 1):
        with pytest.raises(ArithmeticError, match="arc quadratic"):
            loop_marked_dg_jet(PLAIN, genus, "multi", 8)
    monkeypatch.undo()
    assert loop_marked_dg_jet(PLAIN, 1, "multi", 8).value == dg_series(PLAIN, 1, 8)


def _loop_digest(classes, orders):
    """SHA-256 over the loop-marked jets: class, then genus, then kind, then order."""
    digest = hashlib.sha256()
    for lam, r in classes:
        cls_ = StructureClass(lam, r)
        for g in (0, 1, 2):
            for kind in LOOP_KINDS + (("stem",) if g == 0 else ()):
                for order in orders:
                    jet = loop_marked_dg_jet(cls_, g, kind, order)
                    digest.update(repr(_jet_data(jet)).encode())
    return digest.hexdigest()


def test_loop_family_outputs_are_pinned():
    """1,232 loop-marked jets, recorded from the truncated implicit-differentiation route."""
    orders = list(range(1, 9)) + [13, 30, 41]
    assert _loop_digest(LOOP_CLASSES, orders) == (
        "dfc6edf25b9d8e08c4930e4a29ce01e9fae05070d32e2c6e452c0b313831f410"
    )


def test_loop_family_outputs_are_pinned_at_order_101():
    assert _loop_digest([(1, 1), (2, 2), (4, 3), (1, 4)], [101]) == (
        "1c44529dca1beacc37169453689d940ec581631b2f9bcf27eb94f606c2e867df"
    )


@pytest.mark.parametrize(
    "cls_", [PLAIN, SPACED, StructureClass(1, 2), CANONICAL],
    ids=lambda c: f"{c.min_arc}-{c.min_stack}",
)
def test_below_the_shortest_structure_the_families_are_zero_as_computed(monkeypatch, cls_):
    """Below length 4gr, that of the shortest genus-g structure, the shortcut's zeros are exact.

    Coefficients do not depend on the order, so each series family is
    checked against its truncated expansion past 4gr; the arc breakdown
    against itself with the shortcut switched off.
    """
    for genus in range(1, 5):
        top = 4 * genus * cls_.min_stack + 2
        loop = LOOP_KINDS[genus % len(LOOP_KINDS)]
        families = [
            lambda order: [dg_series(cls_, genus, order)],
            lambda order: _jet_parts(dg_jet(cls_, genus, order)),
            lambda order: _jet_parts(loop_marked_dg_jet(cls_, genus, loop, order)),
        ] + [
            lambda order, kind=kind: _jet_parts(pk_marked_dg_jet(cls_, genus, kind, order))
            for kind in MARK_KINDS
        ]
        for family in families:
            full = family(top)
            for order in range(1, top + 1):
                assert list(family(order)) == [f.truncate(order) for f in full], (genus, order)
        fast = [arc_distribution(cls_, genus, n) for n in range(top)]
        with monkeypatch.context() as patched:
            patched.setattr(genfun, "_below_shortest", lambda *args: False)
            assert fast == [arc_distribution(cls_, genus, n) for n in range(top)], genus
        assert fast[top - 3] == [] and sum(fast[top - 2]) > 0


def _jet_parts(jet):
    return jet.value, jet.d1, jet.d2


def test_structure_counts_over_every_genus_are_the_involution_numbers():
    """Every partial matching on n vertices has genus at most n/4: T(n) = T(n-1) + (n-1) T(n-2)."""
    involutions = [1, 1]
    for n in range(2, 101):
        involutions.append(involutions[-1] + (n - 1) * involutions[-2])
    totals = [0] * 101
    for genus in range(51):  # from genus 26 on, length 100 lies below 4g
        for n, c in enumerate(dg_series(PLAIN, genus, 101).coeffs):
            totals[n] += c
    assert totals == involutions
