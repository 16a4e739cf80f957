"""Brute-force enumeration used to cross-check every generating function.

The workhorse is a vertex-by-vertex backtracking search over partial
matchings.  It tracks the genus of the growing diagram incrementally:
before pairing the lowest undecided vertex v, the search walks the one
boundary component through v's insertion corner straight on the partner
array (:func:`toporna.diagram._corner_face`) and marks the free vertices
whose corners lie on it.  Pairing v with a marked vertex splits that
component and keeps the genus; pairing it with an unmarked one merges two
components and raises the genus by one.  The walk is lazy: it runs once
the first partner candidate u has passed the cheap checks (u is free; u
closes the only arc allowed when an open stack is still short; in a shape,
u does not stack onto the enclosing arc), and before any pairing, so a
vertex that can only stay unpaired costs no walk.  Together with early
checks for undersized stacks and short hairpins this keeps the search tree
close to the set of structures actually counted.

Each finished structure is tallied into its genus row by the plan of its
arc pattern (:func:`toporna.diagram._plan`): its arcs with the unpaired
vertices dropped.  The plan holds everything the row gains but what the
structure's gaps decide, which is read from one pass over its partner
array (:func:`toporna.diagram._arc_pattern`).  Plans are cached by
pattern in :data:`_plans`, so each pattern is walked and its crossing
components classified once, however many structures share it.  The
sampler statistics build the same plans on each structure's own
positions, uncached.  Every census row is a full row, so a caller that
reads only counts or arc histograms shares the rows of one that reads
everything.  Census results are plain nested dicts so tests can compare
them wholesale against coefficient data from the generating function
modules.

Every census field adds over concatenation: loops and stacks are closed
by arcs, no crossing component spans a split point, and genus adds.  So
the rows R(n) at length n are the sequence construction over unsplittable
blocks (Flajolet and Sedgewick, *Analytic Combinatorics*, §I.2),

    R(n) = Σ_{k=1..n} U(k) ⊗ R(n−k),

where U(k) is the rows of the structures on k vertices in which an arc
spans every gap between neighbouring vertices, U(1) the lone unpaired
vertex and R(0) the empty structure.  ⊗ multiplies counts, adds the sum
fields each weighted by the other side's count, convolves ``arc_hist`` and
adds genera, dropping a sum above ``max_genus``.  This is the first-vertex
split of the secondary-structure recursions (Waterman 1978; Nussinov,
Pieczenik, Griggs and Kleitman 1978) taken at every split point.  Only
U(k) is searched, by the same search in its unsplittable mode, which
refuses a free vertex as soon as no arc can span the gap before it, at
O(1) per node.  U and R rows share one cache keyed by kind, length and
(min_arc, min_stack, max_genus), which is emptied whenever it reaches
:data:`_ROWS_CAP` entries; callers get copies.

Shapes come from the same search, with ``shape=True`` on 2k vertices
without 1-arcs: every vertex is paired and no arc sits directly inside
another.  Shadows are not searched for separately: they are the shapes
whose crossing components all have at least two arcs.
"""

from __future__ import annotations

from typing import Iterator

from .diagram import (
    Arc,
    Diagram,
    _apply_plan,
    _arc_pattern,
    _check_parameters,
    _corner_face,
    _plan,
    crossing_components,
    new_tally,
)


def _structures(
    n: int,
    min_arc: int,
    min_stack: int,
    max_genus: int,
    shape: bool = False,
    unsplittable: bool = False,
) -> Iterator[tuple[int, list[int], list[Arc]]]:
    """Yield ``(genus, partner, arcs)`` for every valid structure on ``n`` vertices.

    The buffers are live: they change once the consumer resumes the
    search, so copy what must outlive a step.  The deterministic order
    pairs the lowest free vertex last, so the empty diagram comes first.
    Structures of genus above ``max_genus`` are pruned during the search.
    With ``shape`` set every vertex is paired and no arc sits directly
    inside another, so only the shapes of the class are yielded.  With
    ``unsplittable`` set only the structures in which an arc spans every
    gap (v, v + 1) are yielded: a free vertex v is refused once ``reach``,
    the largest partner opened so far (1 before any), is below v, and left
    unpaired only if ``reach`` is beyond it or v is the last vertex.  Vertex
    1 of two or more is therefore always paired.
    """
    partner = [0] * (n + 1)
    run_len = [0] * (n + 1)
    arcs: list[Arc] = []
    one_face = b"\1" * (n + 1)  # with no arcs every corner is on the one face
    first = 2 if min_arc > 1 else 1  # the nearest partner of v is v + first
    # A hairpin shorter than min_arc needs min_arc > first, and a stack
    # shorter than min_stack needs min_stack > 1; otherwise neither check
    # can fire, and run_len is not kept.  Shapes need neither.
    hairpins = min_arc > first
    stacks = min_stack > 1

    def descend(v: int, genus: int, reach: int) -> Iterator[tuple[int, list[int], list[Arc]]]:
        while v <= n and partner[v]:
            if hairpins:
                i = partner[v]
                if v - i < min_arc and all(partner[t] == 0 for t in range(i + 1, v)):
                    return
            if stacks and v > 1 and partner[v - 1] > v and run_len[v - 1] < min_stack:
                return
            v += 1
        if v > n:
            yield genus, partner, arcs
            return
        if unsplittable and reach < v:
            return  # no arc can span the gap (v - 1, v) any more
        wrap = partner[v - 1] if v > 1 else 0
        blocked = stacks and wrap > v and run_len[v - 1] < min_stack
        if not (blocked or shape or unsplittable and reach <= v < n):
            yield from descend(v + 1, genus, reach)
        low, high = v + first, n
        if blocked:  # v closes the short stack around it
            low, high = max(low, wrap - 1), wrap - 1
        on_face = None
        for u in range(low, high + 1):
            if partner[u]:
                continue
            if shape and u == wrap - 1:
                continue  # would stack onto the enclosing arc
            if on_face is None:
                on_face = _corner_face(n, partner, v) if arcs else one_face
            g2 = genus if on_face[u] else genus + 1
            if g2 > max_genus:
                continue
            if stacks:
                rl = run_len[v - 1] + 1 if v > 1 and partner[v - 1] == u + 1 else 1
                if u == v + 1 and rl < min_stack:
                    continue
                run_len[v] = rl
            partner[v] = u
            partner[u] = v
            arcs.append((v, u))
            yield from descend(v + 1, g2, u if u > reach else reach)
            arcs.pop()
            partner[v] = 0
            partner[u] = 0

    yield from descend(1, 0, 1)


def _check_class(
    n: int | None = None, min_arc: int = 1, min_stack: int = 1,
    max_genus: int | None = None, genus: int | None = None, *, size: str = "n",
) -> None:
    """Raise ``ValueError``, naming the argument, for a request no structure can meet.

    ``size`` is the caller's name for the size ``n``.
    """
    _check_parameters(min_arc, min_stack)
    for name, value in ((size, n), ("genus", genus), ("max_genus", max_genus)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    if genus is not None and max_genus is not None and genus > max_genus:
        raise ValueError(f"genus must be at most max_genus, got {genus} > {max_genus}")


#: Census rows by (kind, n, min_arc, min_stack, max_genus), where kind is
#: "U" for the unsplittable rows U(n) and "R" for the census rows R(n); every
#: row is a full row.  The cache is emptied once it reaches :data:`_ROWS_CAP`
#: entries, about 3 KB each; U and R at all lengths 1 to 16 of four classes at
#: three genus caps take 384.
_census_rows: dict[tuple[str, int, int, int, int], dict[int, dict]] = {}
_ROWS_CAP = 512


def _keep(key: tuple[str, int, int, int, int], rows: dict[int, dict]) -> dict[int, dict]:
    """Cache ``rows`` under ``key``, emptying the cache first if it is full."""
    if len(_census_rows) >= _ROWS_CAP:
        _census_rows.clear()
    _census_rows[key] = rows
    return rows


def _empty(max_genus: int) -> dict[int, dict]:
    """Zero rows for genera up to ``max_genus``."""
    return {g: new_tally() for g in range(max_genus + 1)}


def _concatenate(blocks: dict[int, dict], rest: dict[int, dict], out: dict[int, dict]) -> None:
    """Add the rows of every structure of ``blocks`` followed by one of ``rest`` to ``out``.

    Counts multiply, the ``arcs``, ``loops`` and ``pk`` totals add with each
    side weighted by the other's count, ``arc_hist`` convolves, and genera
    add, those above the cap dropped.
    """
    top = len(out) - 1
    for ga, a in blocks.items():
        ca = a["count"]
        for gb in range(top - ga + 1):
            b = rest[gb]
            cb = b["count"]
            row = out[ga + gb]
            hist = row["arc_hist"]
            for i, x in a["arc_hist"].items():
                for j, y in b["arc_hist"].items():
                    hist[i + j] = hist.get(i + j, 0) + x * y
            row["count"] += ca * cb
            row["arcs"] += a["arcs"] * cb + ca * b["arcs"]
            for field in ("loops", "pk"):
                mine, theirs = row[field], b[field]
                for key, x in a[field].items():
                    mine[key] += x * cb + ca * theirs[key]


def _rows(n: int, min_arc: int, min_stack: int, max_genus: int) -> dict[int, dict]:
    """The census rows R(n), cached.

    R(m) = Σ_{k=1..m} U(k) ⊗ R(m−k) (see :func:`_concatenate`) for
    m = 1, ..., n, with R(0) the empty structure.  Each U(k) and R(m) is read
    from the cache or built, and held here until R(n) is done, so emptying
    the cache midway costs no second search.  The result is shared: never
    mutate it.
    """
    cls = (min_arc, min_stack, max_genus)
    done = _census_rows.get(("R", n, *cls))
    if done is not None:
        return done
    blocks = [
        _census_rows.get(("U", k, *cls)) or _keep(("U", k, *cls), _searched(k, *cls))
        for k in range(1, n + 1)
    ]
    prefix = [_searched(0, *cls)]
    for m in range(1, n + 1):
        rows = _census_rows.get(("R", m, *cls))
        if rows is None:
            rows = _empty(max_genus)
            for k in range(1, m + 1):
                _concatenate(blocks[k - 1], prefix[m - k], rows)
            _keep(("R", m, *cls), rows)
        prefix.append(rows)
    return prefix[n]


#: Tally plans (:func:`toporna.diagram._plan`) by arc pattern, shared by
#: every class, length and genus cap: a plan reads nothing else.  The cache
#: is emptied once it reaches :data:`_PLANS_CAP` entries, about 450 bytes
#: each with its key; a cold ``full_census(14, 1, 1, 2)`` builds 11,176.
_plans: dict[tuple[int, ...], tuple] = {}
_PLANS_CAP = 16384


def _searched(m: int, min_arc: int, min_stack: int, max_genus: int) -> dict[int, dict]:
    """Rows tallied over U(m), the unsplittable structures; for m = 0, over R(0), the empty one."""
    rows = _empty(max_genus)
    for genus, partner, _ in _structures(m, min_arc, min_stack, max_genus, unsplittable=True):
        pattern, joined = _arc_pattern(m, partner)
        plan = _plans.get(pattern)
        if plan is None:
            if len(_plans) >= _PLANS_CAP:
                _plans.clear()
            arcs = [(s, t) for s, t in enumerate(pattern) if t > s]
            plan = _plans[pattern] = _plan(pattern, arcs)
        _apply_plan(plan, joined, rows[genus])
    return rows


def full_census(
    n: int,
    min_arc: int = 1,
    min_stack: int = 1,
    max_genus: int = 2,
) -> dict[int, dict]:
    """Census of all valid structures on ``n`` vertices, split by genus.

    Each genus maps to a dict with the structure count, the total arc
    count, an arc-number histogram, totals for the five loop kinds, and
    totals for the pseudoknot component classes.  The rows are the
    caller's own copy.

    Args:
        min_arc: hairpin-closing arcs must span at least this far.
        min_stack: every maximal stack needs at least this many arcs.
        max_genus: structures of larger genus are pruned during the search.
    """
    _check_class(n, min_arc, min_stack, max_genus)
    return {
        g: {field: value if isinstance(value, int) else dict(value) for field, value in row.items()}
        for g, row in _rows(n, min_arc, min_stack, max_genus).items()
    }


def count_table(
    n_max: int,
    min_arc: int = 1,
    min_stack: int = 1,
    max_genus: int = 2,
) -> dict[tuple[int, int], int]:
    """Structure counts indexed by ``(genus, n)`` for all ``n <= n_max``."""
    _check_class(n_max, min_arc, min_stack, max_genus, size="n_max")
    return {
        (g, n): row["count"]
        for n in range(n_max + 1)
        for g, row in _rows(n, min_arc, min_stack, max_genus).items()
    }


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
    The arguments are checked when it is called, not when iteration starts.
    """
    _check_class(n, min_arc, min_stack, max_genus, genus)
    if max_genus is None:
        max_genus = n // 2 if genus is None else genus
    return (
        Diagram(n, tuple(arcs))
        for g, _, arcs in _structures(n, min_arc, min_stack, max_genus)
        if genus is None or g == genus
    )


def _shape_search(num_arcs: int, max_genus: int) -> Iterator[tuple[Diagram, int]]:
    """Yield ``(shape, genus)`` for the shapes with ``num_arcs`` arcs, in search order."""
    for genus, _, arcs in _structures(2 * num_arcs, 2, 1, max_genus, shape=True):
        yield Diagram(2 * num_arcs, tuple(arcs)), genus


def enumerate_shapes(
    max_arcs: int,
    genus: int | None = None,
    max_genus: int | None = None,
) -> Iterator[tuple[Diagram, int]]:
    """Yield all shapes with up to ``max_arcs`` arcs as (diagram, genus).

    A shape has no unpaired vertices, no 1-arcs and no stacked arcs; the
    number of shapes of fixed genus is finite.  The arguments are checked
    when it is called, not when iteration starts.
    """
    _check_class(max_arcs, max_genus=max_genus, genus=genus, size="max_arcs")
    if max_genus is None:
        max_genus = genus
    return (
        (d, g)
        for k in range(max_arcs + 1)
        for d, g in _shape_search(k, k if max_genus is None else max_genus)
        if genus is None or g == genus
    )


def enumerate_shadows(
    max_arcs: int,
    genus: int | None = None,
    max_genus: int | None = None,
) -> Iterator[tuple[Diagram, int]]:
    """Yield all shadows with up to ``max_arcs`` arcs as (diagram, genus).

    Shadows are the shapes in which every arc crosses another arc, that is
    whose crossing components all have at least two arcs.  Filter by
    :func:`toporna.diagram.crossing_components` for irreducible ones.  The
    search beyond 7 arcs gets expensive; callers gate that explicitly.
    """
    return (
        (d, g)
        for d, g in enumerate_shapes(max_arcs, genus, max_genus)
        if all(len(comp) > 1 for comp in crossing_components(d))
    )


def irreducible_shadow_counts(max_arcs: int, genus: int) -> dict[int, int]:
    """Count irreducible shadows of one genus, keyed by arc number."""
    out: dict[int, int] = {}
    for d, g in enumerate_shadows(max_arcs, genus=genus):
        if d.num_arcs and len(crossing_components(d)) == 1:
            out[d.num_arcs] = out.get(d.num_arcs, 0) + 1
    return out
