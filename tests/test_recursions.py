import hashlib
import random
import sys

import pytest

from toporna import recursions
from toporna.diagram import (
    Diagram,
    classify_component,
    crossing_components,
    genus_of_partner,
)
from toporna.oracle import enumerate_shapes, irreducible_shadow_counts
from toporna.recursions import (
    MARK_KINDS,
    catalan_series,
    chord_count,
    chord_series,
    irreducible_poly,
    marked_irreducible_poly,
    marked_shape_poly,
    shape_poly,
    shape_weights,
)
from toporna.series import Polynomial, TruncatedSeries, XYPolynomial


def all_matchings(num_arcs):
    """All perfect matchings on 2*num_arcs points, as arc tuples."""
    def rec(free):
        if not free:
            yield ()
            return
        first = free[0]
        for k in range(1, len(free)):
            rest = free[1:k] + free[k + 1:]
            for tail in rec(rest):
                yield ((first, free[k]),) + tail
    yield from rec(tuple(range(1, 2 * num_arcs + 1)))


def matching_genus(arcs):
    n = 2 * len(arcs)
    partner = [0] * (n + 1)
    for i, j in arcs:
        partner[i] = j
        partner[j] = i
    return genus_of_partner(n, partner).genus


def test_chord_counts_match_brute_force():
    for n in range(6):
        tally = {}
        for arcs in all_matchings(n):
            g = matching_genus(arcs)
            tally[g] = tally.get(g, 0) + 1
        for g in range(4):
            assert chord_count(g, n) == tally.get(g, 0), (g, n)


def test_chord_count_rows():
    assert [chord_count(0, n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    assert [chord_count(1, n) for n in range(8)] == [0, 0, 1, 10, 70, 420, 2310, 12012]
    assert [chord_count(2, n) for n in range(7)] == [0, 0, 0, 0, 21, 483, 6468]
    assert chord_count(3, 6) == 1485


def test_cold_chord_count_fills_rows_without_recursing(monkeypatch):
    monkeypatch.setattr(recursions, "_chord_rows", [[1, 1]])
    assert chord_count(1, 3000) == chord_series(1, 3001, "closed").coeff(3000)
    assert chord_count(2, 2000) == chord_series(2, 2001, "closed").coeff(2000)
    assert chord_count(0, 1500) == catalan_series(1501).coeff(1500)


def test_shape_weights_values():
    assert shape_weights(1) == {2: 1}
    assert shape_weights(2) == {4: 21, 5: 105}
    assert shape_weights(3) == {6: 1485, 7: 18018, 8: 50050}
    with pytest.raises(ValueError):
        shape_weights(0)


def test_shape_weight_support():
    for g in range(1, 7):
        row = shape_weights(g)
        assert set(row) <= set(range(2 * g, 3 * g))
        assert all(w > 0 for w in row.values())
        # the top weight always survives
        assert row[3 * g - 1] > 0


def test_shape_poly_small():
    assert shape_poly(0) == Polynomial([1])
    assert shape_poly(1) == Polynomial([0, 0, 1, 3, 3, 1])
    s2 = shape_poly(2)
    assert s2 == Polynomial([0, 0, 0, 0, 21, 210, 840, 1785, 2205, 1596, 630, 105])
    assert s2(1) == 7392


def test_shape_poly_matches_enumeration():
    counts = {}
    for diagram, g in enumerate_shapes(5, max_genus=2):
        counts[(g, len(diagram.arcs))] = counts.get((g, len(diagram.arcs)), 0) + 1
    for g in (1, 2):
        poly = shape_poly(g)
        for k in range(6):
            assert poly.coeff(k) == counts.get((g, k), 0), (g, k)


def test_irreducible_poly_builtin():
    assert irreducible_poly(1) == Polynomial([0, 0, 1, 2, 1])
    i2 = irreducible_poly(2)
    expected = Polynomial([17, 92, 96])
    for _ in range(4):
        expected = expected * Polynomial([1, 1])
    assert i2 == expected.shift(4)
    assert i2(1) == 3280


def test_irreducible_poly_derived_route_agrees():
    # the one derived path against the genus-1 shadow catalog and the genus-2 pin
    for kind in MARK_KINDS:
        assert irreducible_poly(1) == marked_irreducible_poly(kind).at_y(1)
    assert irreducible_poly(2).coeffs == [0, 0, 0, 0, 17, 160, 566, 1004, 961, 476, 96]


def test_irreducible_genus3_head_matches_enumeration():
    i3 = irreducible_poly(3)
    assert i3.coeffs[:6] == [0] * 6
    assert i3.degree == 16
    assert all(c > 0 for c in i3.coeffs[6:])
    counts = irreducible_shadow_counts(7, 3)
    assert i3.coeff(6) == counts.get(6, 0)
    assert i3.coeff(7) == counts.get(7, 0)


def test_marked_irreducible_catalog():
    assert marked_irreducible_poly("H") == XYPolynomial(
        {(2, 1): 1, (3, 0): 2, (4, 0): 1}
    )
    assert marked_irreducible_poly("K") == XYPolynomial(
        {(3, 1): 1, (2, 0): 1, (3, 0): 1, (4, 0): 1}
    )
    assert marked_irreducible_poly("K") == marked_irreducible_poly("L")
    assert marked_irreducible_poly("M") == XYPolynomial(
        {(4, 1): 1, (2, 0): 1, (3, 0): 2}
    )
    for kind in MARK_KINDS:
        assert marked_irreducible_poly(kind).at_y(1) == irreducible_poly(1)
    with pytest.raises(ValueError):
        marked_irreducible_poly("X")


def test_marked_shape_genus1():
    expected = {
        "H": XYPolynomial({(2, 1): 1, (3, 1): 1, (3, 0): 2, (4, 0): 3, (5, 0): 1}),
        "K": XYPolynomial({(3, 1): 1, (4, 1): 1, (2, 0): 1, (3, 0): 2, (4, 0): 2, (5, 0): 1}),
        "M": XYPolynomial({(4, 1): 1, (5, 1): 1, (2, 0): 1, (3, 0): 3, (4, 0): 2}),
    }
    expected["L"] = expected["K"]
    for kind in MARK_KINDS:
        assert marked_shape_poly(1, kind) == expected[kind], kind


def test_marked_shape_reduces_to_plain():
    for g in range(4):
        plain = shape_poly(g)
        for kind in MARK_KINDS:
            assert marked_shape_poly(g, kind).at_y(1) == plain, (g, kind)


def test_marked_shape_genus1_types_partition():
    total = Polynomial()
    for kind in MARK_KINDS:
        total = total + marked_shape_poly(1, kind).partial_y().at_y(1)
    # every genus-1 shape carries exactly one crossing component
    assert total == shape_poly(1)


def test_marked_shape_genus2_pin():
    inner = XYPolynomial(
        {
            (0, 0): 17, (1, 0): 143, (2, 0): 447, (3, 0): 637,
            (4, 0): 420, (5, 0): 105,
            (1, 1): 20, (2, 1): 36, (3, 1): 14,
            (0, 2): 4, (1, 2): 5,
        }
    )
    square = XYPolynomial({(0, 0): 1, (1, 0): 2, (2, 0): 1})
    expected = XYPolynomial.monomial(4, 0).mul(square).mul(inner)
    got = marked_shape_poly(2, "H")
    assert got == expected
    assert got.at_y(1)(1) == 7392


def test_marked_shape_genus2_matches_enumeration():
    tally = {}
    for diagram, _ in enumerate_shapes(5, genus=2):
        hits = 0
        for block in crossing_components(diagram):
            label, _ = classify_component(diagram, block)
            if label == "H":
                hits += 1
        key = (len(diagram.arcs), hits)
        tally[key] = tally.get(key, 0) + 1
    poly = marked_shape_poly(2, "H")
    for arcs in (4, 5):
        for marks in range(3):
            coeff = poly.terms.get((arcs, marks), 0)
            assert coeff == tally.get((arcs, marks), 0), (arcs, marks)


def test_chord_series_routes_agree():
    order = 25
    for g in range(4):
        base = chord_series(g, order, "recursion")
        assert chord_series(g, order, "closed") == base, g
        assert chord_series(g, order, "shapes") == base, g
    with pytest.raises(ValueError):
        chord_series(1, 10, "nope")


@pytest.mark.parametrize(
    "call",
    [
        shape_poly,
        lambda g: marked_shape_poly(g, "H"),
        lambda g: chord_series(g, 5),
        lambda g: chord_series(g, 5, "closed"),
        lambda g: chord_series(g, 5, "shapes"),
    ],
    ids=["shape_poly", "marked_shape_poly", "recursion", "closed", "shapes"],
)
def test_negative_genus_is_rejected_with_one_message(call):
    with pytest.raises(ValueError, match=r"^genus must be nonnegative, got -1$"):
        call(-1)


@pytest.mark.parametrize("route", ["recursion", "closed", "shapes"])
@pytest.mark.parametrize("genus", [0, 2])
def test_nonpositive_order_is_rejected_with_one_message(route, genus):
    for order in (0, -3):
        with pytest.raises(ValueError, match=rf"^order must be at least 1, got {order}$"):
            chord_series(genus, order, route)


def test_catalan_series_closed_form():
    order = 30
    cat = catalan_series(order)
    assert cat == chord_series(0, order, "recursion")
    # Catalan convolution: C = 1 + x C^2
    assert cat == 1 + (cat * cat).shift(1)


def test_chord_series_random_spot_checks():
    rng = random.Random(20240817)
    for _ in range(20):
        g = rng.randrange(1, 4)
        order = rng.randrange(5, 18)
        s = chord_series(g, order, "closed")
        n = rng.randrange(order)
        assert s.coeff(n) == chord_count(g, n)


def test_top_weight_closed_form():
    # at the top of the support only one recursion branch survives, so
    # w_g(3g-1) = 2(6g-3)(6g-5)(6g-7) w_{g-1}(3g-4) / (3g)
    for g in range(2, 7):
        prev = shape_weights(g - 1)[3 * g - 4]
        num = 2 * (6 * g - 3) * (6 * g - 5) * (6 * g - 7) * prev
        assert shape_weights(g)[3 * g - 1] * 3 * g == num
    top = [shape_weights(g)[3 * g - 1] for g in range(1, 6)]
    assert top == [1, 105, 50050, 56581525, 117123756750]


def test_shape_weights_are_built_bottom_up(monkeypatch):
    # From a cache holding only genus 1, a build that recursed once per
    # genus would need 150 frames; the lowered limit leaves it 30.
    warm = {g: shape_weights(g) for g in range(1, 7)}
    monkeypatch.setattr(recursions, "_weight_cache", {1: {2: 1}})
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        top = shape_weights(150)
    finally:
        sys.setrecursionlimit(limit)
    assert sorted(top) == list(range(300, 450))
    assert 450 * top[449] == 2 * 897 * 895 * 893 * shape_weights(149)[446]
    assert {g: shape_weights(g) for g in range(1, 7)} == warm


def test_counting_layer_outputs_are_pinned():
    # One digest over the irreducible, shape and marked shape polynomials and
    # every chord route, so any rewrite of the counting layer must reproduce
    # them exactly.
    digest = hashlib.sha256()
    for g in range(1, 5):
        digest.update(repr(irreducible_poly(g).coeffs).encode())
    for g in range(7):
        digest.update(repr(shape_poly(g).coeffs).encode())
    for g in range(4):
        for kind in MARK_KINDS:
            digest.update(repr(marked_shape_poly(g, kind).sorted_terms()).encode())
    for g in range(6):
        for order in (1, 2, 5, 25, 61, 401):
            for route in ("recursion", "closed", "shapes"):
                digest.update(repr(chord_series(g, order, route).coeffs).encode())
    assert digest.hexdigest() == (
        "b15ecd1a93424255044135aa2c3e44ec09f064aaa4aebce2cee4f38f1e4bdd9f"
    )
