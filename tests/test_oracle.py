"""Tests for the brute-force enumeration engine."""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from toporna.diagram import (
    Diagram,
    crossing_components,
    classify_component,
    genus_of_partner,
    loop_counts,
    new_tally,
    satisfies_constraints,
    tally_structure,
)
from toporna import cli, oracle
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


def test_shadows_are_shapes_with_all_arcs_crossing(arcs_cross):
    # each is a fixpoint of the shadow reduction (the reference projection of
    # test_diagram.py): no rule finds an unpaired vertex or an arc to remove
    for d, g in enumerate_shadows(3):
        assert d.genus().genus == g
        assert d.n == 2 * d.num_arcs
        for i, j in d.arcs:
            assert j > i + 1 and (i + 1, j - 1) not in d.arcs
            assert any(arcs_cross((i, j), other) for other in d.arcs)


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


def test_corner_face_is_walked_only_for_a_pairable_vertex(monkeypatch):
    census = full_census(10, 1, 1, 2)
    shapes = list(enumerate_shapes(6, genus=2))
    calls = 0

    def checked(n, partner, v):
        nonlocal calls
        calls += 1
        assert any(partner[u] == 0 for u in range(v + 1, n + 1)), (partner, v)
        return _corner_face(n, partner, v)

    monkeypatch.setattr(oracle, "_corner_face", checked)
    oracle._census_rows.clear()  # search again rather than read the cached rows
    assert full_census(10, 1, 1, 2) == census
    assert list(enumerate_shapes(6, genus=2)) == shapes
    assert calls > 0


#: SHA-256 of the canonical JSON of ``full_census(n, min_arc, min_stack,
#: max_genus)``, recorded before the crossing pass, the face walk and the
#: classifier key were reworked for speed.
CENSUS_DIGESTS = {
    (10, 1, 1, 2): "085494518961442c218dd622098ce4346aee89f0cd82edc0b376ddb4f109a045",
    (12, 2, 1, 2): "793041c2736f0b8434891920f349e4b63ed826702ca08cd5f005a384194a7fe7",
    (16, 2, 2, 2): "7017e3bafb374e2ab58e9506543256741e39d039cb70c490ac8b2a21dada9994",
    (11, 1, 2, 1): "95c096a2fd9ccb386907abf2bd0724cb28469d2e61489f2d17168ba74cc1662b",
}


@pytest.mark.parametrize("case", sorted(CENSUS_DIGESTS))
def test_census_rows_match_recorded_digest(case):
    text = json.dumps(full_census(*case), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == CENSUS_DIGESTS[case]


def test_shape_search_output_is_pinned():
    """Every shape up to 6 arcs, then those of genus <= 2 up to 7, in search order.

    The digest was recorded while shapes still had a search of their own,
    before they were run through the census search.
    """
    digest = hashlib.sha256()
    for shapes in (enumerate_shapes(6), enumerate_shapes(7, max_genus=2)):
        for d, g in shapes:
            digest.update(repr((d.arcs, g)).encode())
    assert digest.hexdigest() == (
        "2d8b334765ebbda500ba634874b55e14471abaed2a3891f2f04be066277ea831"
    )


def _searched_rows(n, min_arc, min_stack, max_genus):
    """Census rows tallied over the plain search, every structure visited."""
    rows = {g: new_tally() for g in range(max_genus + 1)}
    for g, partner, arcs in oracle._structures(n, min_arc, min_stack, max_genus):
        tally_structure(n, partner, arcs, rows[g])
    return rows


@pytest.mark.parametrize("min_arc, min_stack", [(1, 1), (2, 1), (2, 2)])
def test_census_from_shorter_lengths_matches_the_plain_search(min_arc, min_stack):
    """R(n) = Σ U(k) ⊗ R(n−k) gives every row the full search gives."""
    oracle._census_rows.clear()
    for max_genus in range(3):
        for n in range(13):
            rows = _searched_rows(n, min_arc, min_stack, max_genus)
            case = (n, min_arc, min_stack, max_genus)
            assert full_census(*case) == rows, case


def _spans_every_gap(n, arcs):
    spanned = [False] * (n + 1)
    for i, j in arcs:
        spanned[i:j] = [True] * (j - i)  # the gaps (i, i + 1), ..., (j - 1, j)
    return all(spanned[1:n])


def test_unsplittable_search_yields_the_structures_with_every_gap_spanned():
    for min_arc, min_stack in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2)):
        for n in range(11):
            plain = [
                (g, tuple(arcs))
                for g, _, arcs in oracle._structures(n, min_arc, min_stack, 2)
                if _spans_every_gap(n, arcs)
            ]
            blocks = [
                (g, tuple(arcs))
                for g, _, arcs in oracle._structures(n, min_arc, min_stack, 2, unsplittable=True)
            ]
            assert blocks == plain, (n, min_arc, min_stack)
            assert blocks or n > 1  # the empty structure, and the lone vertex


@st.composite
def _stacked_structure(draw):
    """Arcs of a random perfect matching, each stacked one to three high, between unpaired runs."""
    k = draw(st.integers(0, 3))
    ends = draw(st.permutations(range(2 * k)))  # arc t joins ends[2t] and ends[2t + 1]
    arc_of = {end: t for t, end in enumerate(ends)}
    heights = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    gaps = draw(st.lists(st.integers(0, 2), min_size=2 * k + 1, max_size=2 * k + 1))
    first: dict[int, int] = {}
    arcs = []
    v = gaps[0]
    for end in range(2 * k):
        t = arc_of[end] // 2
        if t in first:  # the closing ends of the stack, innermost first
            arcs += [(first[t] + h, v + heights[t] - h) for h in range(heights[t])]
        else:
            first[t] = v + 1
        v += heights[t] + gaps[end + 1]
    return v, sorted(arcs)


def _partner_of(n, arcs):
    partner = [0] * (n + 1)
    for i, j in arcs:
        partner[i], partner[j] = j, i
    return partner


@given(
    _stacked_structure(), _stacked_structure(),
    st.integers(0, 4), st.integers(1, 3), st.integers(1, 3),
)
def test_census_fields_add_over_concatenation(left, right, max_genus, min_arc, min_stack):
    """Genus, validity and every tally field of A·B follow from those of A and B.

    This is the law that builds the census rows from unsplittable blocks.
    """
    (na, arcs_a), (nb, arcs_b) = left, right
    n = na + nb
    arcs = arcs_a + [(i + na, j + na) for i, j in arcs_b]
    pa, pb, both = _partner_of(na, arcs_a), _partner_of(nb, arcs_b), _partner_of(n, arcs)
    ga, gb = genus_of_partner(na, pa).genus, genus_of_partner(nb, pb).genus
    assert genus_of_partner(n, both).genus == ga + gb
    valid = [satisfies_constraints(Diagram(m, tuple(a)), min_arc, min_stack)
             for m, a in ((na, arcs_a), (nb, arcs_b), (n, arcs))]
    assert valid[2] == (valid[0] and valid[1])

    def rows_of(m, partner, arcs, g):
        rows = {h: new_tally() for h in range(max(max_genus, ga, gb) + 1)}
        tally_structure(m, partner, arcs, rows[g])
        return rows

    rows_a, rows_b = rows_of(na, pa, arcs_a, ga), rows_of(nb, pb, arcs_b, gb)
    expected = {h: new_tally() for h in range(max_genus + 1)}
    if ga + gb <= max_genus:
        tally_structure(n, both, arcs, expected[ga + gb])
    product = {h: new_tally() for h in range(max_genus + 1)}
    oracle._concatenate(rows_a, rows_b, product)
    assert product == expected


def test_census_rows_do_not_depend_on_the_cache():
    lengths = range(12)
    cases = [(n, cls, g) for cls in ((2, 1), (1, 2)) for g in (0, 2) for n in lengths]
    expected = {}
    for n, cls, g in cases:
        oracle._census_rows.clear()
        expected[n, cls, g] = full_census(n, *cls, g)

    def warm(order):
        oracle._census_rows.clear()
        return {(n, cls, g): full_census(n, *cls, g) for n, cls, g in order}

    assert warm(cases) == expected
    assert warm(reversed(cases)) == expected
    assert {(n, cls, g): full_census(n, *cls, g) for n, cls, g in cases} == expected
    # a cache left holding only the U rows, or only the R rows, serves the same
    for kind in ("U", "R"):
        warm(cases)
        for key in [key for key in oracle._census_rows if key[0] == kind]:
            del oracle._census_rows[key]
        assert {(n, cls, g): full_census(n, *cls, g) for n, cls, g in reversed(cases)} == expected


def test_census_cache_is_bounded(monkeypatch):
    expected = {n: full_census(n, 2, 1, 1) for n in range(12)}
    oracle._census_rows.clear()
    monkeypatch.setattr(oracle, "_ROWS_CAP", 3)
    searched = Counter()
    search = oracle._structures

    def counted(n, *args, **kwargs):
        searched[n] += 1
        return search(n, *args, **kwargs)

    monkeypatch.setattr(oracle, "_structures", counted)
    kinds = set()
    for n in (11, 4, 9, 0, 10, 5, 1, 11):
        searched.clear()
        assert full_census(n, 2, 1, 1) == expected[n], n
        assert len(oracle._census_rows) <= 3
        kinds.update(key[0] for key in oracle._census_rows)
        # the cache is emptied several times within a call, yet no length is searched twice
        assert all(times == 1 for times in searched.values()), (n, searched)
    assert kinds == {"U", "R"}  # the one cap bounds both kinds together
    oracle._census_rows.clear()


def test_plan_cache_is_bounded_and_changes_no_row(monkeypatch):
    cases = [(n, *cls, 2) for cls in ((1, 1), (2, 2)) for n in range(11)]
    oracle._census_rows.clear()
    expected = [full_census(*case) for case in cases]
    oracle._census_rows.clear()
    oracle._plans.clear()
    monkeypatch.setattr(oracle, "_PLANS_CAP", 2)
    built = []
    plan = oracle._plan

    def counted(*args):
        assert len(oracle._plans) < 2  # emptied before a third plan goes in
        built.append(args[0])
        return plan(*args)

    monkeypatch.setattr(oracle, "_plan", counted)
    assert [full_census(*case) for case in cases] == expected
    assert len(oracle._plans) <= 2
    assert len(built) > len(set(built))  # plans were dropped and built again
    oracle._census_rows.clear()


def test_mutating_a_returned_row_changes_no_later_call():
    case = (9, 1, 1, 2)
    census = full_census(*case)
    for rows in (full_census(*case), full_census(*case)):
        rows[1]["count"] = -1
        rows[1]["arc_hist"].clear()
        rows[0]["loops"]["stack"] += 7
        rows[2]["pk"]["H"] = None
        rows.pop(2)
    assert full_census(*case) == census


@pytest.mark.parametrize("lam, r, genus", [(1, 1, 2), (2, 1, 1), (1, 2, 0), (2, 2, 2)])
def test_count_oracle_and_census_search_each_length_once(monkeypatch, capsys, lam, r, genus):
    """``count --oracle`` leaves full rows, which ``census`` at its class and genus cap reads."""
    cls = ("--lambda", str(lam), "--r", str(r))
    requests = [
        ("count", "8", "--genus", str(genus), "--oracle", *cls),
        ("count", "8", "--genus", str(genus), "--oracle", "--arcs", *cls),
        ("census", "--n", "10", "--max-genus", str(genus), *cls),
    ]
    cold = []
    for argv in requests:
        oracle._census_rows.clear()
        assert cli.main(list(argv)) == 0
        cold.append(capsys.readouterr().out)
    oracle._census_rows.clear()
    searched = Counter()
    search = oracle._structures

    def counted(n, *args, **kwargs):
        searched[n] += 1
        return search(n, *args, **kwargs)

    monkeypatch.setattr(oracle, "_structures", counted)
    for argv, out in zip(requests, cold):
        assert cli.main(list(argv)) == 0
        assert capsys.readouterr().out == out
    # R(0), the empty structure, is a one-leaf search that every call not
    # answered from the cache runs; every other length is searched once
    del searched[0]
    assert searched == Counter(range(1, 11)), searched
    oracle._census_rows.clear()


def test_census_rejects_negative_genus_cap():
    with pytest.raises(ValueError, match="max_genus"):
        full_census(4, max_genus=-1)


@pytest.mark.parametrize("kwargs", [{"max_genus": -1}, {"genus": -1}])
def test_enumerate_diagrams_rejects_negative_genus(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        list(enumerate_diagrams(4, **kwargs))


@pytest.mark.parametrize(
    "enumerate_, args, kwargs, name",
    [
        (enumerate_diagrams, (8,), {"genus": 2, "max_genus": 1}, "^genus must be at most"),
        (enumerate_shapes, (4,), {"genus": 2, "max_genus": 1}, "^genus must be at most"),
        (enumerate_shapes, (4,), {"genus": -1}, "^genus must be nonnegative"),
        (enumerate_shapes, (4,), {"max_genus": -1}, "^max_genus must be nonnegative"),
    ],
)
def test_enumerators_reject_contradictory_genus_arguments(enumerate_, args, kwargs, name):
    with pytest.raises(ValueError, match=name):
        next(enumerate_(*args, **kwargs))


@pytest.mark.parametrize(
    "call",
    [full_census, lambda n: next(enumerate_diagrams(n))],
    ids=["full_census", "enumerate_diagrams"],
)
def test_oracle_rejects_a_negative_length(call):
    with pytest.raises(ValueError, match=r"^n must be nonnegative, got -1$"):
        call(-1)


@pytest.mark.parametrize(
    "call, name",
    [
        (count_table, "n_max"),
        (enumerate_shapes, "max_arcs"),
        (enumerate_shadows, "max_arcs"),
        (lambda k: irreducible_shadow_counts(k, 1), "max_arcs"),
    ],
    ids=["count_table", "enumerate_shapes", "enumerate_shadows", "irreducible_shadow_counts"],
)
def test_oracle_rejects_a_negative_size_by_name(call, name):
    with pytest.raises(ValueError, match=rf"^{name} must be nonnegative, got -1$"):
        call(-1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_diagrams(-1),
        lambda: enumerate_diagrams(4, min_stack=0),
        lambda: enumerate_diagrams(8, genus=2, max_genus=1),
        lambda: enumerate_shapes(4, genus=2, max_genus=1),
        lambda: enumerate_shapes(-1),
        lambda: enumerate_shadows(4, genus=2, max_genus=1),
    ],
)
def test_enumerators_check_their_arguments_before_iteration(call):
    """The call itself refuses; a caller that never iterates still sees the error."""
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "min_arc, min_stack, name", [(0, 1, "min_arc"), (0, 0, "min_arc"), (1, 0, "min_stack")]
)
def test_oracle_rejects_invalid_class(min_arc, min_stack, name):
    with pytest.raises(ValueError, match=name):
        full_census(5, min_arc, min_stack)
    with pytest.raises(ValueError, match=name):
        list(enumerate_diagrams(4, min_arc, min_stack))
