"""Brute-force enumeration used to cross-check every generating function.

The workhorse is a vertex-by-vertex backtracking search over partial
matchings.  It tracks the genus of the growing diagram incrementally:
before pairing the lowest undecided vertex v, the search walks the one
boundary component through v's insertion corner and marks the free
vertices whose corners lie on it.  Pairing v with a marked vertex splits
that component and keeps the genus; pairing it with an unmarked one merges
two components and raises the genus by one.  Together with early checks
for undersized stacks and short hairpins this keeps the search tree close
to the set of structures actually counted.

Census results are plain nested dicts so tests can compare them wholesale
against coefficient data from the generating function modules.
"""

from __future__ import annotations

import multiprocessing
from typing import Iterator

from .diagram import (
    LOOP_KINDS,
    Arc,
    Diagram,
    _rotation,
    _tally_loops,
    classify_component,
)

PK_LABELS = ("H", "K", "L", "M", "higher")

#: Shared cache mapping a relabelled crossing component to its pk label.
_pattern_cache: dict[tuple[Arc, ...], str] = {}


def _corner_face(n: int, partner: list[int], v: int) -> bytearray:
    """Mark the vertices whose insertion corner lies on v's corner face.

    Requires ``v < n`` with v unpaired.  The corner of a free vertex
    u < n is entered by backbone half 2u - 1 (the edge from u + 1 into u),
    and that of u = n by half 2n - 4 (the edge from n - 1 into n); see
    :func:`toporna.diagram._rotation` for the numbering.
    """
    sigma_next = _rotation(n, partner)
    base = 2 * (n - 1)
    last_corner = 2 * n - 4
    on_face = bytearray(n + 1)
    start = h = 2 * v - 1
    while True:
        if h < base:
            if h & 1:
                on_face[(h + 1) >> 1] = 1
            elif h == last_corner:
                on_face[n] = 1
        h = sigma_next[h ^ 1]
        if h == start:
            return on_face


def _classify_key(key: tuple[Arc, ...]) -> str:
    label = _pattern_cache.get(key)
    if label is None:
        sub = Diagram(2 * len(key), key)
        label, _ = classify_component(sub, list(range(len(key))))
        _pattern_cache[key] = label
    return label


def _leaf_statistics(
    n: int,
    partner: list[int],
    arcs: list[Arc],
    row: dict,
) -> None:
    """Tally one finished structure into a census row."""
    num = len(arcs)
    row["count"] += 1
    row["arcs"] += num
    hist = row["arc_hist"]
    hist[num] = hist.get(num, 0) + 1

    crossing = [0] * num
    comp = list(range(num))
    involved: list[int] = []
    for a in range(num):
        ia, ja = arcs[a]
        for b in range(a + 1, num):
            ib, jb = arcs[b]
            if ia < ib < ja < jb:
                crossing[a] = crossing[b] = 1
                involved.extend((ia, ja, ib, jb))
                ra, rb = comp[a], comp[b]
                if ra != rb:
                    for t in range(num):
                        if comp[t] == ra:
                            comp[t] = rb

    involved.sort()
    _tally_loops(n, partner, arcs, involved, row["loops"])

    pk = row["pk"]
    seen_roots: dict[int, list[int]] = {}
    for a in range(num):
        if crossing[a]:
            seen_roots.setdefault(comp[a], []).append(a)
    for members in seen_roots.values():
        verts = sorted(v for a in members for v in arcs[a])
        rank = {v: t + 1 for t, v in enumerate(verts)}
        key = tuple(sorted((rank[arcs[a][0]], rank[arcs[a][1]]) for a in members))
        pk[_classify_key(key)] += 1


def _new_row() -> dict:
    return {
        "count": 0,
        "arcs": 0,
        "arc_hist": {},
        "loops": {k: 0 for k in LOOP_KINDS},
        "pk": {k: 0 for k in PK_LABELS},
    }


def _structures(
    n: int,
    min_arc: int,
    min_stack: int,
    max_genus: int,
    first_choice: int | None = None,
) -> Iterator[tuple[int, list[int], list[Arc]]]:
    """Yield ``(genus, partner, arcs)`` for every valid structure on ``n`` vertices.

    The buffers are live: they change once the consumer resumes the
    search, so copy what must outlive a step.  The deterministic order
    pairs the lowest free vertex last, so the empty diagram comes first.
    Structures of genus above ``max_genus`` are pruned during the search.
    ``first_choice`` restricts the decision at vertex 1 (0 for unpaired,
    otherwise the partner vertex); used to split the tree across workers.
    """
    partner = [0] * (n + 1)
    run_len = [0] * (n + 1)
    arcs: list[Arc] = []

    def descend(v: int, genus: int) -> Iterator[tuple[int, list[int], list[Arc]]]:
        while v <= n and partner[v]:
            i = partner[v]
            if v - i < min_arc and all(partner[t] == 0 for t in range(i + 1, v)):
                return
            if v > 1:
                w = partner[v - 1]
                if w > v and run_len[v - 1] < min_stack:
                    return
            v += 1
        if v > n:
            yield genus, partner, arcs
            return
        wrap = partner[v - 1] if v > 1 else 0
        blocked = wrap > v and run_len[v - 1] < min_stack
        if not blocked:
            yield from descend(v + 1, genus)
        on_face = _corner_face(n, partner, v) if arcs and v < n else None
        for u in range(v + 1, n + 1):
            if partner[u]:
                continue
            if blocked and u != wrap - 1:
                continue
            if u == v + 1 and min_arc > 1:
                continue
            g2 = genus if on_face is None or on_face[u] else genus + 1
            if g2 > max_genus:
                continue
            rl = run_len[v - 1] + 1 if v > 1 and partner[v - 1] == u + 1 else 1
            if u == v + 1 and rl < min_stack:
                continue
            partner[v] = u
            partner[u] = v
            run_len[v] = rl
            arcs.append((v, u))
            yield from descend(v + 1, g2)
            arcs.pop()
            partner[v] = 0
            partner[u] = 0

    if first_choice is None:
        yield from descend(1, 0)
    elif first_choice == 0:
        yield from descend(2, 0)
    else:
        u = first_choice
        if u == 2 and (min_arc > 1 or min_stack > 1):
            return  # a lone 1-arc can never satisfy these side conditions
        partner[1] = u
        partner[u] = 1
        run_len[1] = 1
        arcs.append((1, u))
        yield from descend(2, 0)


def _census_worker(args) -> dict[int, dict]:
    n, min_arc, min_stack, max_genus, choice = args
    rows = {g: _new_row() for g in range(max_genus + 1)}
    for genus, partner, arcs in _structures(n, min_arc, min_stack, max_genus, choice):
        _leaf_statistics(n, partner, arcs, rows[genus])
    return rows


def _merge_rows(target: dict[int, dict], extra: dict[int, dict]) -> None:
    for g, row in extra.items():
        mine = target[g]
        mine["count"] += row["count"]
        mine["arcs"] += row["arcs"]
        for k, v in row["arc_hist"].items():
            mine["arc_hist"][k] = mine["arc_hist"].get(k, 0) + v
        for k in LOOP_KINDS:
            mine["loops"][k] += row["loops"][k]
        for k in PK_LABELS:
            mine["pk"][k] += row["pk"][k]


def full_census(
    n: int,
    min_arc: int = 1,
    min_stack: int = 1,
    max_genus: int = 2,
    processes: int | None = None,
) -> dict[int, dict]:
    """Census of all valid structures on ``n`` vertices, split by genus.

    Each genus maps to a dict with the structure count, the total arc
    count, an arc-number histogram, totals for the five loop kinds, and
    totals for the pseudoknot component classes.

    Args:
        min_arc: hairpin-closing arcs must span at least this far.
        min_stack: every maximal stack needs at least this many arcs.
        max_genus: structures of larger genus are pruned during the search.
        processes: optional worker count; the tree is split on the first
            vertex's decision.
    """
    if max_genus < 0:
        raise ValueError(f"max_genus must be nonnegative, got {max_genus}")
    if processes and processes > 1 and n >= 2:
        rows = {g: _new_row() for g in range(max_genus + 1)}
        tasks = [(n, min_arc, min_stack, max_genus, 0)]
        tasks += [(n, min_arc, min_stack, max_genus, u) for u in range(2, n + 1)]
        with multiprocessing.Pool(processes) as pool:
            for part in pool.imap_unordered(_census_worker, tasks):
                _merge_rows(rows, part)
        return rows
    return _census_worker((n, min_arc, min_stack, max_genus, None))


def count_table(
    n_max: int,
    min_arc: int = 1,
    min_stack: int = 1,
    max_genus: int = 2,
) -> dict[tuple[int, int], int]:
    """Structure counts indexed by ``(genus, n)`` for all ``n <= n_max``."""
    out: dict[tuple[int, int], int] = {}
    for n in range(n_max + 1):
        rows = full_census(n, min_arc, min_stack, max_genus)
        for g, row in rows.items():
            out[(g, n)] = row["count"]
    return out


def enumerate_diagrams(
    n: int,
    min_arc: int = 1,
    min_stack: int = 1,
    genus: int | None = None,
    max_genus: int | None = None,
) -> Iterator[Diagram]:
    """Yield every valid structure on ``n`` vertices, optionally by genus.

    The deterministic order pairs the lowest free vertex last, so the empty
    diagram comes first.  This runs the same search as :func:`full_census`.
    """
    for name, value in (("genus", genus), ("max_genus", max_genus)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    if genus is not None and max_genus is None:
        max_genus = genus
    cap = max_genus if max_genus is not None else n // 2
    for g, _, arcs in _structures(n, min_arc, min_stack, cap):
        if genus is None or g == genus:
            yield Diagram(n, tuple(arcs))


def _matching_search(
    num_arcs: int,
    require_crossing: bool,
    max_genus: int | None,
) -> Iterator[tuple[Diagram, int]]:
    """Enumerate stack-free perfect matchings without 1-arcs.

    With ``require_crossing`` every arc must cross another arc, which
    yields exactly the standalone shadows; without it the noncrossing
    arcs survive and the results are the shapes.
    """
    n = 2 * num_arcs
    if num_arcs == 0:
        yield Diagram(0), 0
        return
    partner = [0] * (n + 1)
    arcs: list[Arc] = []
    crossed: list[bool] = []

    def descend(v: int, genus: int) -> Iterator[tuple[Diagram, int]]:
        while v <= n and partner[v]:
            if require_crossing and partner[v] < v:
                idx = next(
                    t for t, (i, j) in enumerate(arcs) if j == v
                )
                if not crossed[idx]:
                    return
            v += 1
        if v > n:
            yield Diagram(n, tuple(arcs)), genus
            return
        on_face = _corner_face(n, partner, v) if arcs and v < n else None
        for u in range(v + 2, n + 1):
            if partner[u]:
                continue
            if v > 1 and partner[v - 1] == u + 1:
                continue  # would stack onto the enclosing arc
            g2 = genus if on_face is None or on_face[u] else genus + 1
            if max_genus is not None and g2 > max_genus:
                continue
            new_crossed = False
            touched: list[int] = []
            for t, (i, j) in enumerate(arcs):
                if i < v < j < u:
                    new_crossed = True
                    if not crossed[t]:
                        crossed[t] = True
                        touched.append(t)
            partner[v] = u
            partner[u] = v
            arcs.append((v, u))
            crossed.append(new_crossed)
            yield from descend(v + 1, g2)
            crossed.pop()
            arcs.pop()
            partner[v] = 0
            partner[u] = 0
            for t in touched:
                crossed[t] = False

    yield from descend(1, 0)


def enumerate_shapes(
    max_arcs: int,
    genus: int | None = None,
    max_genus: int | None = None,
) -> Iterator[tuple[Diagram, int]]:
    """Yield all shapes with up to ``max_arcs`` arcs as (diagram, genus).

    A shape has no unpaired vertices, no 1-arcs and no stacked arcs; the
    number of shapes of fixed genus is finite.
    """
    if genus is not None and max_genus is None:
        max_genus = genus
    for k in range(max_arcs + 1):
        for d, g in _matching_search(k, False, max_genus):
            if genus is None or g == genus:
                yield d, g


def enumerate_shadows(
    max_arcs: int,
    genus: int | None = None,
    max_genus: int | None = None,
) -> Iterator[tuple[Diagram, int]]:
    """Yield all shadows with up to ``max_arcs`` arcs as (diagram, genus).

    Shadows are shapes in which every arc crosses another arc.  Filter by
    :func:`toporna.diagram.crossing_components` for irreducible ones.  The
    search beyond 7 arcs gets expensive; callers gate that explicitly.
    """
    if genus is not None and max_genus is None:
        max_genus = genus
    for k in range(max_arcs + 1):
        for d, g in _matching_search(k, True, max_genus):
            if genus is None or g == genus:
                yield d, g


def irreducible_shadow_counts(
    max_arcs: int, genus: int
) -> dict[int, int]:
    """Count irreducible shadows of one genus, keyed by arc number."""
    from .diagram import crossing_components

    out: dict[int, int] = {}
    for d, g in enumerate_shadows(max_arcs, genus=genus):
        if d.num_arcs and len(crossing_components(d)) == 1:
            out[d.num_arcs] = out.get(d.num_arcs, 0) + 1
    return out
