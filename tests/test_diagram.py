"""Tests for diagrams, genus, projections and loop statistics."""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, strategies as st

from toporna import oracle
from toporna.diagram import (
    GENUS1_SHADOWS,
    PAGES,
    PK_LABELS,
    Diagram,
    _apply_plan,
    _arc_pattern,
    _classify_arcs,
    _component_classes,
    _crossings,
    _plan,
    block_decomposition,
    boundary_components,
    classify_component,
    crossing_components,
    emit_structure,
    genus_of_partner,
    loop_counts,
    new_tally,
    parse_structure,
    project_shadow,
    project_shape,
    satisfies_constraints,
    tally_structure,
    validate_constraints,
)


def random_diagram(rng: random.Random, n: int, pair_chance: float = 0.6) -> Diagram:
    vertices = [v for v in range(1, n + 1) if rng.random() < pair_chance]
    if len(vertices) % 2:
        vertices.pop(rng.randrange(len(vertices)))
    rng.shuffle(vertices)
    arcs = tuple(
        (min(a, b), max(a, b))
        for a, b in zip(vertices[::2], vertices[1::2])
    )
    return Diagram(n, arcs)


def test_construction_normalizes_and_validates():
    d = Diagram(5, ((4, 2), (1, 5)))
    assert d.arcs == ((1, 5), (2, 4))
    with pytest.raises(ValueError):
        Diagram(3, ((1, 4),))
    with pytest.raises(ValueError):
        Diagram(4, ((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        Diagram(4, ((2, 2),))


def test_partner_roundtrip():
    d = Diagram(6, ((1, 4), (2, 6)))
    assert d.partner() == [0, 4, 6, 0, 1, 0, 2]
    assert Diagram.from_partner(6, d.partner()) == d


def test_json_roundtrip():
    d = Diagram(6, ((1, 4), (2, 6)))
    assert Diagram.from_json_dict(d.to_json_dict()) == d


def test_genus_hand_cases():
    crossing = Diagram(4, ((1, 3), (2, 4)))
    res = crossing.genus()
    assert (res.genus, res.boundary_components) == (1, 1)

    nested = Diagram(4, ((1, 4), (2, 3)))
    res = nested.genus()
    assert (res.genus, res.boundary_components) == (0, 3)

    empty = Diagram(3)
    res = empty.genus()
    assert (res.genus, res.boundary_components) == (0, 1)

    assert Diagram(0).genus().genus == 0
    assert Diagram(1).genus().boundary_components == 1
    assert Diagram(2, ((1, 2),)).genus().genus == 0


def test_genus_of_catalog_shadows():
    for name, shadow in GENUS1_SHADOWS.items():
        assert shadow.genus().genus == 1, name


def test_genus_adds_over_concatenation():
    rng = random.Random(13)
    for _ in range(30):
        d1 = random_diagram(rng, rng.randint(0, 9))
        d2 = random_diagram(rng, rng.randint(1, 9))
        joined = Diagram(
            d1.n + d2.n,
            d1.arcs + tuple((i + d1.n, j + d1.n) for i, j in d2.arcs),
        )
        assert joined.genus().genus == d1.genus().genus + d2.genus().genus


def test_genus_monotone_under_arc_insertion():
    rng = random.Random(14)
    for _ in range(60):
        d = random_diagram(rng, rng.randint(2, 10), pair_chance=0.4)
        free = [v for v in range(1, d.n + 1) if d.partner()[v] == 0]
        if len(free) < 2:
            continue
        a, b = sorted(rng.sample(free, 2))
        bigger = Diagram(d.n, d.arcs + ((a, b),))
        before = d.genus()
        after = bigger.genus()
        assert after.genus - before.genus in (0, 1)
        assert abs(after.boundary_components - before.boundary_components) == 1


def test_boundary_components_empty_backbone():
    assert boundary_components(0, [0]) == 1
    assert boundary_components(1, [0, 0]) == 1


def test_genus_of_partner_matches_diagram():
    rng = random.Random(15)
    for _ in range(20):
        d = random_diagram(rng, rng.randint(0, 12))
        assert genus_of_partner(d.n, d.partner()) == d.genus()


def test_parse_and_emit_simple():
    d = parse_structure("((...))")
    assert d == Diagram(7, ((1, 7), (2, 6)))
    assert emit_structure(d) == "((...))"


def test_parse_crossing_pages():
    d = parse_structure("([)]")
    assert d == Diagram(4, ((1, 3), (2, 4)))
    assert d.genus().genus == 1


def test_emit_uses_lowest_free_page():
    m = GENUS1_SHADOWS["M"]
    assert emit_structure(m) == "([{)(]})"
    assert parse_structure(emit_structure(m)) == m


def test_parse_errors_carry_columns():
    with pytest.raises(ValueError, match="column 3"):
        parse_structure("..)..")
    with pytest.raises(ValueError, match="column 2"):
        parse_structure(".(.")
    with pytest.raises(ValueError, match="column 4"):
        parse_structure("...x")


def test_emit_parse_roundtrip_random():
    rng = random.Random(16)
    for _ in range(40):
        d = random_diagram(rng, rng.randint(0, 14))
        assert parse_structure(emit_structure(d)) == d


def test_shape_collapses_secondary_structure_to_nothing():
    d = parse_structure("((..((...))..))")
    assert project_shape(d) == Diagram(0)


def test_shape_of_inflated_crossing_pair():
    # two stems of two arcs each, mutually crossing, with unpaired padding
    d = Diagram(16, ((1, 12), (2, 11), (5, 16), (6, 15)))
    assert project_shape(d) == Diagram(4, ((1, 3), (2, 4)))


def test_shape_keeps_enclosing_arc_but_shadow_drops_it():
    rainbow_h = Diagram(6, ((1, 6), (2, 4), (3, 5)))
    assert project_shape(rainbow_h) == rainbow_h
    assert project_shadow(rainbow_h) == Diagram(4, ((1, 3), (2, 4)))


def test_projection_preserves_genus():
    rng = random.Random(17)
    for _ in range(40):
        d = random_diagram(rng, rng.randint(0, 12))
        g = d.genus().genus
        assert project_shape(d).genus().genus == g
        assert project_shadow(d).genus().genus == g


def _project_by_fixpoint(d: Diagram, crosses=None) -> Diagram:
    """Reference projection: apply one reduction rule at a time until none applies.

    Unpaired vertices are dropped and the rest renumbered after every
    removal.  The rules remove an arc between adjacent vertices, an arc with
    another stacked directly inside it, and, for the shadow (``crosses``
    given, the ``arcs_cross`` fixture), an arc that crosses no other arc
    (tested pair by pair).
    """

    def compact(arcs: set) -> tuple[int, set]:
        used = sorted(v for arc in arcs for v in arc)
        index = {v: t + 1 for t, v in enumerate(used)}
        return len(used), {(index[i], index[j]) for i, j in arcs}

    n, arcs = compact(set(d.arcs))
    while True:
        for i, j in sorted(arcs):
            if (
                j == i + 1
                or (i + 1, j - 1) in arcs
                or (crosses and not any(crosses((i, j), o) for o in arcs))
            ):
                arcs.discard((i, j))
                n, arcs = compact(arcs)
                break
        else:
            return Diagram(n, tuple(arcs))


def _all_partners(n: int):
    """Every partial matching on 1..n, as a partner array (index 0 unused)."""
    partner = [0] * (n + 1)

    def rec(v: int):
        while v <= n and partner[v]:
            v += 1
        if v > n:
            yield partner
            return
        yield from rec(v + 1)
        for w in range(v + 1, n + 1):
            if not partner[w]:
                partner[v], partner[w] = w, v
                yield from rec(v + 1)
                partner[v] = partner[w] = 0

    yield from rec(1)


def _assert_projections_match_fixpoint(d: Diagram, arcs_cross) -> None:
    assert project_shape(d) == _project_by_fixpoint(d)
    assert project_shadow(d) == _project_by_fixpoint(d, arcs_cross)


def test_projections_match_fixpoint_on_every_diagram_up_to_ten_vertices(arcs_cross):
    seen = 0
    for n in range(11):
        for partner in _all_partners(n):
            _assert_projections_match_fixpoint(Diagram.from_partner(n, partner), arcs_cross)
            seen += 1
    assert seen == 13232


def test_crossing_components_and_classification():
    d = Diagram(
        12,
        ((1, 12), (2, 6), (3, 9), (7, 11), (4, 5)),
    )
    comps = crossing_components(d)
    sizes = sorted(len(c) for c in comps)
    assert sizes == [1, 1, 3]
    for comp in comps:
        label, genus = classify_component(d, comp)
        if len(comp) == 1:
            assert label == "secondary"
        else:
            assert (label, genus) == ("K", 1)


def test_classify_all_catalog_members():
    for name, shadow in GENUS1_SHADOWS.items():
        (comp,) = crossing_components(shadow)
        assert classify_component(shadow, comp) == (name, 1)


def test_block_decomposition_nests_by_span():
    d = Diagram(12, ((1, 12), (2, 6), (3, 9), (7, 11), (4, 5)))
    roots = block_decomposition(d)
    assert len(roots) == 1
    root = roots[0]
    assert root.span == (1, 12)
    assert root.label == "secondary"
    (knot,) = root.children
    assert knot.label == "K"
    assert knot.span == (2, 11)
    (inner,) = knot.children
    assert inner.span == (4, 5)


def test_validate_constraints():
    hairpin = parse_structure("((...))")
    validate_constraints(hairpin, 4, 2)
    assert not satisfies_constraints(hairpin, 5, 2)
    assert not satisfies_constraints(hairpin, 4, 3)
    with pytest.raises(ValueError, match="unpaired"):
        validate_constraints(parse_structure("(..)."), 4, 1)
    with pytest.raises(ValueError, match="stack"):
        validate_constraints(parse_structure("(...)"), 2, 2)
    # crossing arcs are exempt from the hairpin length condition
    assert satisfies_constraints(Diagram(4, ((1, 3), (2, 4))), 4, 1)


def stem_count(diagram: Diagram) -> int:
    """Number of stems: chains of stacks linked by bulges and interior loops."""
    counts = loop_counts(diagram)
    return counts["stack"] - counts["bulge"] - counts["interior"]


def test_loop_counts_multiloop():
    d = parse_structure("((..((...))..((...))))")
    assert loop_counts(d) == {
        "stack": 3,
        "hairpin": 2,
        "bulge": 0,
        "interior": 0,
        "multi": 1,
    }
    assert stem_count(d) == 3


def test_loop_counts_bulge_and_interior():
    bulge = parse_structure("((.((...))))")
    assert loop_counts(bulge)["bulge"] == 1
    assert loop_counts(bulge)["interior"] == 0
    assert stem_count(bulge) == 1

    interior = parse_structure("((.((...)).))")
    assert loop_counts(interior)["bulge"] == 0
    assert loop_counts(interior)["interior"] == 1
    assert stem_count(interior) == 1


def test_loop_counts_skips_branching_between_crossing_blocks():
    # an arc over two crossing blocks branches at shape level; the marked
    # series never count such a pattern as a multiloop
    d = Diagram(
        14,
        ((1, 14), (2, 7), (3, 5), (4, 6), (8, 13), (9, 11), (10, 12)),
    )
    assert d.genus().genus == 2
    counts = loop_counts(d)
    assert counts["multi"] == 0
    assert counts["stack"] == 7
    assert counts["hairpin"] == 0
    literal = loop_counts(d, literal_multi=True)
    assert literal["multi"] == 1


def test_loop_counts_multi_with_one_crossing_branch():
    # a stem junction whose side insertion carries a hairpin counts as a
    # multiloop even though the continuing stack hides a pseudoknot below
    d = parse_structure("((.)(([.)].....)...)")
    assert d.arcs == ((1, 20), (2, 4), (5, 16), (6, 9), (7, 10))
    counts = loop_counts(d)
    assert counts["multi"] == 1


def test_loop_counts_naked_knot_in_branch_is_not_a_multiloop():
    # here the crossing block sits directly in the branching region, which
    # only happens outside stem chains; no loop pattern closes at (3, 18)
    d = parse_structure(".((.([.)].((..)).))")
    assert loop_counts(d)["multi"] == 0


def test_arcs_cross(arcs_cross):
    assert arcs_cross((1, 3), (2, 4))
    assert not arcs_cross((1, 4), (2, 3))
    assert not arcs_cross((1, 2), (3, 4))


@st.composite
def _partner_array(draw, max_n=14):
    """A random partial matching on n <= max_n vertices, as ``(n, partner)``."""
    n = draw(st.integers(0, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    partner = [0] * (n + 1)
    for t in range(draw(st.integers(0, n // 2))):
        i, j = order[2 * t], order[2 * t + 1]
        partner[i], partner[j] = j, i
    return n, partner


@given(_partner_array())
def test_crossing_pass_and_tally_match_pair_scan(arcs_cross, case):
    n, partner = case
    d = Diagram.from_partner(n, partner)
    arcs = d.arcs
    members = {a: {a} for a in range(len(arcs))}
    endpoints: set[int] = set()
    for a in range(len(arcs)):
        for b in range(a + 1, len(arcs)):
            if arcs_cross(arcs[a], arcs[b]):
                endpoints.update((*arcs[a], *arcs[b]))
                merged = members[a] | members[b]
                for t in merged:
                    members[t] = merged

    components, involved = _crossings(arcs)
    assert sorted(a for c in components for a in c) == list(range(len(arcs)))
    assert {frozenset(c) for c in components} == {
        frozenset(c) for c in members.values()
    }
    assert [c[0] for c in components] == sorted(min(c) for c in components)
    assert involved == sorted(endpoints)

    row = new_tally()
    tally_structure(n, partner, arcs, row)
    pk = dict.fromkeys(PK_LABELS, 0)
    for comp in crossing_components(d):
        label, _ = classify_component(d, comp)
        if label != "secondary":
            pk[label] += 1
    assert row == {
        "count": 1,
        "arcs": len(arcs),
        "arc_hist": {len(arcs): 1},
        "loops": loop_counts(d),
        "pk": pk,
    }


def _faces_by_rotation_table(n: int, partner: list[int]) -> int:
    """Reference face count: orbits of ``h -> sigma_next[h ^ 1]``.

    Backbone edge v -> v+1 owns halves 2(v-1) and 2(v-1)+1, the a-th arc
    (by left endpoint) halves B0+2a and B0+2a+1 with B0 = 2(n-1), and the
    counterclockwise order at each vertex is (right backbone, arc, left
    backbone).
    """
    half = 2 * (n - 1)
    arc_half = [0] * (n + 1)
    for v in range(1, n + 1):
        if partner[v] > v:
            arc_half[v] = half
            arc_half[partner[v]] = half + 1
            half += 2
    if half <= 0:
        return 1
    sigma_next = [0] * half
    for v in range(1, n + 1):
        cycle = [2 * (v - 1)] if v < n else []
        if partner[v]:
            cycle.append(arc_half[v])
        if v > 1:
            cycle.append(2 * (v - 2) + 1)
        for t, h in enumerate(cycle):
            sigma_next[h] = cycle[(t + 1) % len(cycle)]
    seen = [False] * half
    faces = 0
    for start in range(half):
        if not seen[start]:
            faces += 1
            h = start
            while not seen[h]:
                seen[h] = True
                h = sigma_next[h ^ 1]
    return faces


@given(_partner_array())
def test_face_walk_matches_rotation_table(case):
    n, partner = case
    assert boundary_components(n, partner) == _faces_by_rotation_table(n, partner)


def test_two_crossing_arcs_are_the_h_shadow(arcs_cross):
    rng = random.Random(16)
    for _ in range(200):
        n = rng.randint(4, 16)
        a, b, c, d = sorted(rng.sample(range(1, n + 1), 4))
        arcs = ((a, c), (b, d))
        shadow = _project_by_fixpoint(Diagram(n, arcs), arcs_cross)
        assert shadow == GENUS1_SHADOWS["H"]
        assert _classify_arcs(arcs, [0, 1]) == ("H", 1)


@given(_partner_array())
def test_stack_collapsed_key_keeps_the_component_class(arcs_cross, case):
    n, partner = case
    d = Diagram.from_partner(n, partner)
    labels = {shadow: name for name, shadow in GENUS1_SHADOWS.items()}
    for comp in crossing_components(d):
        if len(comp) < 2:
            continue
        component = Diagram(n, tuple(d.arcs[a] for a in comp))
        shadow = _project_by_fixpoint(component, arcs_cross)
        g = shadow.genus().genus
        expected = (labels[shadow] if g == 1 else "higher", g)
        assert classify_component(d, comp) == expected


@pytest.mark.parametrize(
    "n, arcs, indices",
    [
        (4, ((1, 4), (2, 3)), [0, 1]),  # nested, no crossing
        (4, ((1, 2), (3, 4)), [0, 1]),  # side by side
        (6, ((1, 3), (2, 5), (4, 6)), [0, 1]),  # part of a three-arc chain
        (6, ((1, 3), (2, 5), (4, 6)), [1]),  # one arc that crosses others
        (4, ((1, 3), (2, 4)), [0, 0]),
        (4, ((1, 3), (2, 4)), [0, 2]),
        (4, ((1, 3), (2, 4)), []),
    ],
)
def test_classify_component_rejects_arcs_that_are_not_one_component(n, arcs, indices):
    with pytest.raises(ValueError, match="crossing component"):
        classify_component(Diagram(n, arcs), indices)
    assert classify_component(Diagram(4, ((1, 3), (2, 4))), [1, 0]) == ("H", 1)


def _emit_by_pair_scan(diagram: Diagram, arcs_cross) -> str:
    """Lowest-free-page emission that tests each arc against every placed arc."""
    pages: list[list] = []
    assignment = {}
    for arc in diagram.arcs:
        for idx, placed in enumerate(pages):
            if all(not arcs_cross(arc, other) for other in placed):
                placed.append(arc)
                assignment[arc] = idx
                break
        else:
            if len(pages) >= len(PAGES):
                raise ValueError(f"diagram needs more than {len(PAGES)} bracket pages")
            pages.append([arc])
            assignment[arc] = len(pages) - 1
    chars = ["."] * diagram.n
    for (i, j), page in assignment.items():
        chars[i - 1], chars[j - 1] = PAGES[page]
    return "".join(chars)


@given(_partner_array(max_n=60))
def test_emit_matches_pair_scan(arcs_cross, case):
    d = Diagram.from_partner(*case)
    assert emit_structure(d) == _emit_by_pair_scan(d, arcs_cross)


@given(_partner_array(max_n=60))
def test_projections_match_fixpoint(arcs_cross, case):
    _assert_projections_match_fixpoint(Diagram.from_partner(*case), arcs_cross)


def test_emit_rejects_too_many_pages_like_pair_scan(arcs_cross):
    # forty mutually crossing arcs need forty pages
    d = Diagram(80, tuple((k, k + 40) for k in range(1, 41)))
    with pytest.raises(ValueError) as scan:
        _emit_by_pair_scan(d, arcs_cross)
    with pytest.raises(ValueError, match="more than 30 bracket pages") as emitted:
        emit_structure(d)
    assert str(emitted.value) == str(scan.value)
    # thirty of them still fit, one per page
    d = Diagram(60, tuple((k, k + 30) for k in range(1, 31)))
    assert emit_structure(d) == _emit_by_pair_scan(d, arcs_cross)


@given(
    _partner_array(),
    st.integers(0, 40),
    st.lists(st.integers(0, 3), min_size=14, max_size=14),
)
def test_classifier_caches_ignore_position_and_gaps(arcs_cross, case, shift, gaps):
    """A component moved right, past vertex 255, with free vertices in its gaps."""
    n, partner = case
    d = Diagram.from_partner(n, partner)
    place = [0] * (n + 1)
    at = 256 + shift
    for v in range(1, n + 1):
        at += 1 + gaps[v - 1]
        place[v] = at
    moved = Diagram(at, tuple((place[i], place[j]) for i, j in d.arcs))
    labels = {shadow: name for name, shadow in GENUS1_SHADOWS.items()}
    for comp in crossing_components(d):
        if len(comp) < 2:
            continue
        component = Diagram(n, tuple(d.arcs[a] for a in comp))
        shadow = _project_by_fixpoint(component, arcs_cross)
        g = shadow.genus().genus
        expected = (labels[shadow] if g == 1 else "higher", g)
        for first, second in ((d, moved), (moved, d)):
            _component_classes.clear()
            assert classify_component(first, comp) == expected
            assert classify_component(second, comp) == expected


def _tally_by_position_walk(n, partner, arcs, row, literal_multi=False) -> None:
    """Reference census tally: walk every arc's interior on the vertex positions.

    This is the tally as it stood before plans: one :func:`_crossings`
    pass and :func:`classify_component` per crossing component, then each
    arc's interior walked on ``partner`` itself, unpaired vertices
    included.  The stack count is the number of arcs that are not directly
    inside another.
    """
    num = len(arcs)
    row["count"] += 1
    row["arcs"] += num
    row["arc_hist"][num] = row["arc_hist"].get(num, 0) + 1
    components, involved = _crossings(arcs)
    d = Diagram(n, tuple(arcs))
    for members in components:
        if len(members) > 1:
            row["pk"][classify_component(d, members)[0]] += 1
    loops = row["loops"]
    for i, j in arcs:
        if partner[i - 1] != j + 1:  # outermost arc of its run (partner[0] is 0)
            loops["stack"] += 1
        v = i + 1
        children = []
        while v < j:
            p = partner[v]
            if p == 0:
                v += 1
            elif v < p < j:
                children.append((v, p))
                v = p + 1
            else:
                break
        else:  # no arc leaves the interior, so (i, j) closes a loop
            if not children:
                loops["hairpin"] += 1
            elif len(children) == 1:
                cl, cr = children[0]
                gaps = (cl > i + 1) + (cr < j - 1)
                if gaps == 1:
                    loops["bulge"] += 1
                elif gaps == 2:
                    loops["interior"] += 1
            elif literal_multi or sum(
                bisect_right(involved, cr) > bisect_left(involved, cl)
                for cl, cr in children
            ) <= 1:
                loops["multi"] += 1


def _assert_tally_matches_position_walk(n, partner, arcs) -> None:
    """Both plans agree with the reference: the structure's own and its arc pattern's."""
    expected = new_tally()
    _tally_by_position_walk(n, partner, arcs, expected)
    row = new_tally()
    tally_structure(n, partner, arcs, row)
    assert row == expected, (n, arcs)
    pattern, joined = _arc_pattern(n, partner)
    row = new_tally()
    _apply_plan(_plan(pattern, [(s, t) for s, t in enumerate(pattern) if t > s]), joined, row)
    assert row == expected, (n, arcs)


@pytest.mark.parametrize("min_arc, min_stack", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_planned_tally_matches_the_position_walk_on_every_searched_structure(
    min_arc, min_stack
):
    seen = 0
    for n in range(12):
        for _, partner, arcs in oracle._structures(n, min_arc, min_stack, 2):
            _assert_tally_matches_position_walk(n, partner, arcs)
            seen += 1
    assert seen == sum(oracle.count_table(11, min_arc, min_stack, 2).values())


@st.composite
def _stacked_partner(draw):
    """``(n, partner)``: up to 6 stacks, 1 to 4 arcs high, between runs of unpaired vertices.

    The stacks join the ends of a random perfect matching, so n <= 74.
    """
    k = draw(st.integers(0, 6))
    ends = draw(st.permutations(range(2 * k)))  # stack t joins ends[2t] and ends[2t + 1]
    stack_of = {end: t // 2 for t, end in enumerate(ends)}
    heights = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    gaps = draw(st.lists(st.integers(0, 2), min_size=2 * k + 1, max_size=2 * k + 1))
    first: dict[int, int] = {}
    arcs = []
    v = gaps[0]
    for end in range(2 * k):
        t = stack_of[end]
        if t in first:
            arcs += [(first[t] + h, v + heights[t] - h) for h in range(heights[t])]
        else:
            first[t] = v + 1
        v += heights[t] + gaps[end + 1]
    partner = [0] * (v + 1)
    for i, j in arcs:
        partner[i], partner[j] = j, i
    return v, partner


@given(st.one_of(_stacked_partner(), _partner_array(max_n=80)), st.booleans())
def test_planned_tally_and_loop_counts_match_the_position_walk(case, literal_multi):
    n, partner = case
    d = Diagram.from_partner(n, partner)
    _assert_tally_matches_position_walk(n, partner, d.arcs)
    expected = new_tally()
    _tally_by_position_walk(n, partner, d.arcs, expected, literal_multi)
    assert loop_counts(d, literal_multi=literal_multi) == expected["loops"]
