"""Tests for the brute-force enumeration engine."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from toporna.diagram import (
    Diagram,
    crossing_components,
    classify_component,
    genus_of_partner,
    loop_counts,
    satisfies_constraints,
)
from toporna.oracle import (
    _corner_face,
    count_table,
    enumerate_diagrams,
    enumerate_shadows,
    enumerate_shapes,
    full_census,
    irreducible_shadow_counts,
)


def all_matchings(n: int):
    """Reference generator: every partial matching, with no pruning."""

    def rec(vertices):
        if not vertices:
            yield []
            return
        first, *rest = vertices
        yield from rec(rest)
        for k, other in enumerate(rest):
            for tail in rec(rest[:k] + rest[k + 1 :]):
                yield [(first, other)] + tail

    for arcs in rec(list(range(1, n + 1))):
        yield Diagram(n, tuple(arcs))


@pytest.mark.parametrize("n", [0, 1, 4, 6, 8])
def test_census_counts_against_reference(n):
    expected: dict[int, int] = {}
    expected_arcs: dict[int, int] = {}
    for d in all_matchings(n):
        g = d.genus().genus
        expected[g] = expected.get(g, 0) + 1
        expected_arcs[g] = expected_arcs.get(g, 0) + d.num_arcs
    rows = full_census(n, 1, 1, max_genus=2)
    for g in range(3):
        assert rows[g]["count"] == expected.get(g, 0), (n, g)
        assert rows[g]["arcs"] == expected_arcs.get(g, 0), (n, g)


def test_census_validity_filters_against_reference():
    n = 8
    for lam, r in ((2, 1), (2, 2), (4, 1)):
        expected = Counter()
        for d in all_matchings(n):
            if satisfies_constraints(d, lam, r):
                expected[d.genus().genus] += 1
        rows = full_census(n, lam, r, max_genus=2)
        for g in range(3):
            assert rows[g]["count"] == expected.get(g, 0), (lam, r, g)


def test_genus_zero_counts_match_known_sequences():
    # no side conditions: Motzkin sums; hairpins of length >= 1: the
    # classical secondary structure numbers
    table = count_table(10, 1, 1, max_genus=0)
    motzkin_sum = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]
    assert [table[(0, n)] for n in range(11)] == motzkin_sum

    table2 = count_table(10, 2, 1, max_genus=0)
    stein_waterman = [1, 1, 1, 2, 4, 8, 17, 37, 82, 185, 423]
    assert [table2[(0, n)] for n in range(11)] == stein_waterman


def test_first_crossing_structures():
    # the 4-vertex crossing pair is the unique genus-1 structure at n=4,
    # and it stays valid for any hairpin bound because nothing in it closes
    # a hairpin
    for lam in (1, 2, 4):
        rows = full_census(4, lam, 1)
        assert rows[1]["count"] == 1, lam
    # with stacks of two, the smallest genus-1 structure doubles each arc
    rows = full_census(8, 1, 2)
    assert rows[1]["count"] == 1
    assert rows[1]["arc_hist"] == {4: 1}
    for n in range(8):
        assert full_census(n, 1, 2)[1]["count"] == 0


def test_census_loop_totals_match_reference_counts():
    n = 9
    for lam, r in ((1, 1), (2, 1)):
        rows = full_census(n, lam, r, max_genus=2)
        totals = {g: Counter() for g in range(3)}
        for d in enumerate_diagrams(n, lam, r, max_genus=2):
            totals[d.genus().genus].update(loop_counts(d))
        for g in range(3):
            for kind in ("stack", "hairpin", "bulge", "interior", "multi"):
                assert rows[g]["loops"][kind] == totals[g].get(kind, 0), (
                    lam,
                    r,
                    g,
                    kind,
                )


def test_census_pk_totals_match_reference_classification():
    n = 10
    rows = full_census(n, 1, 1, max_genus=2)
    totals = {g: Counter() for g in range(3)}
    for d in enumerate_diagrams(n, 1, 1, max_genus=2):
        g = d.genus().genus
        for comp in crossing_components(d):
            label, _ = classify_component(d, comp)
            if label != "secondary":
                totals[g][label] += 1
    for g in range(3):
        for label in ("H", "K", "L", "M", "higher"):
            assert rows[g]["pk"][label] == totals[g].get(label, 0), (g, label)


def test_enumerate_diagrams_respects_filters():
    for d in enumerate_diagrams(7, 2, 1, genus=1):
        assert d.genus().genus == 1
        assert satisfies_constraints(d, 2, 1)
    count = sum(1 for _ in enumerate_diagrams(7, 2, 1, genus=1))
    assert count == full_census(7, 2, 1)[1]["count"]


def test_enumerate_diagrams_starts_with_empty():
    first = next(enumerate_diagrams(5))
    assert first == Diagram(5)


def test_parallel_census_merges_to_same_result():
    serial = full_census(8, 1, 1, max_genus=2)
    parallel = full_census(8, 1, 1, max_genus=2, processes=2)
    assert serial == parallel


def test_shapes_of_genus_one():
    by_arcs = Counter()
    shapes = []
    for d, g in enumerate_shapes(5, genus=1):
        by_arcs[d.num_arcs] += 1
        shapes.append(d)
    assert dict(by_arcs) == {2: 1, 3: 3, 4: 3, 5: 1}
    assert len(shapes) == len(set(shapes)) == 8


def test_shadow_catalog_at_genus_one():
    assert irreducible_shadow_counts(4, 1) == {2: 1, 3: 2, 4: 1}
    # no genus-1 irreducible shadow has more than four arcs
    assert irreducible_shadow_counts(5, 1) == {2: 1, 3: 2, 4: 1}


def test_shadows_are_shapes_with_all_arcs_crossing():
    from toporna.diagram import arcs_cross, project_shadow

    for d, g in enumerate_shadows(3):
        assert d.genus().genus == g
        assert project_shadow(d) == d
        for arc in d.arcs:
            assert any(arcs_cross(arc, other) for other in d.arcs if other != arc)


@st.composite
def _partner_with_free_pair(draw):
    """A random partial matching on n <= 12 vertices with two free vertices."""
    n = draw(st.integers(2, 12))
    order = draw(st.permutations(range(1, n + 1)))
    num_arcs = draw(st.integers(0, (n - 2) // 2))
    partner = [0] * (n + 1)
    for t in range(num_arcs):
        i, j = order[2 * t], order[2 * t + 1]
        partner[i], partner[j] = j, i
    free = [x for x in range(1, n + 1) if partner[x] == 0]
    return n, partner, free[0], draw(st.sampled_from(free[1:]))


@given(_partner_with_free_pair())
def test_genus_step_follows_the_corner_face(case):
    n, partner, v, u = case
    before = genus_of_partner(n, partner).genus
    on_face = _corner_face(n, partner, v)
    partner[v], partner[u] = u, v
    after = genus_of_partner(n, partner).genus
    assert after - before == (0 if on_face[u] else 1)


def test_census_rejects_negative_genus_cap():
    with pytest.raises(ValueError, match="max_genus"):
        full_census(4, max_genus=-1)


@pytest.mark.parametrize("kwargs", [{"max_genus": -1}, {"genus": -1}])
def test_enumerate_diagrams_rejects_negative_genus(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        list(enumerate_diagrams(4, **kwargs))
