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

Each finished structure is tallied into its genus row by
:func:`toporna.diagram.tally_structure`, the same tally the sampler
statistics use; :func:`arc_histograms` only counts arcs, for callers that
read nothing else.  Census results are plain nested dicts so tests can
compare them wholesale against coefficient data from the generating
function modules.

No tally reads an unpaired first or last vertex (the exterior loop is not
counted), so deleting one maps the structures on n vertices that leave it
unpaired onto all structures on n − 1 vertices, genus and every row field
kept.  Counting the two ends by inclusion and exclusion gives, for n >= 2,

    R(n) = 2·R(n−1) − R(n−2) + B(n),

where R(n) is the census rows at length n and B(n) the rows of the
structures whose vertices 1 and n are both paired: the first-vertex split
of the secondary-structure recursions (Waterman 1978; Nussinov, Pieczenik,
Griggs and Kleitman 1978) applied at both ends.  Only B(n) is searched, by
the same search in its ends-paired mode: vertex 1 is never left unpaired,
and while vertex n is free a branch dies as soon as fewer free vertices
remain than pairing n needs (a count the search keeps, not a scan).  The
rows R(n), n <= 1, come from the plain search.  Rows are kept in one cache
keyed by (n, min_arc, min_stack, max_genus), which is emptied whenever it
reaches :data:`_ROWS_CAP` entries; callers get copies.

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
    _check_parameters,
    _corner_face,
    crossing_components,
    new_tally,
    tally_structure,
)


def _structures(
    n: int,
    min_arc: int,
    min_stack: int,
    max_genus: int,
    shape: bool = False,
    ends: bool = False,
) -> Iterator[tuple[int, list[int], list[Arc]]]:
    """Yield ``(genus, partner, arcs)`` for every valid structure on ``n`` vertices.

    The buffers are live: they change once the consumer resumes the
    search, so copy what must outlive a step.  The deterministic order
    pairs the lowest free vertex last, so the empty diagram comes first.
    Structures of genus above ``max_genus`` are pruned during the search.
    With ``shape`` set every vertex is paired and no arc sits directly
    inside another, so only the shapes of the class are yielded.  With
    ``ends`` set only the structures whose vertices 1 and ``n`` are both
    paired are yielded: vertex 1 is never left unpaired, and while vertex
    ``n`` is free a branch dies once too few free vertices remain to pair it.
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
    everything = n + 2  # ``spare`` when vertex n needs no partner

    def descend(v: int, genus: int, skipped: int) -> Iterator[tuple[int, list[int], list[Arc]]]:
        # ``skipped`` counts the vertices left unpaired, so n - 2·len(arcs)
        # - skipped vertices from v on are still free.
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
        wrap = partner[v - 1] if v > 1 else 0
        blocked = stacks and wrap > v and run_len[v - 1] < min_stack
        # the free vertices other than v and n that could still pair with n
        spare = n - 2 * len(arcs) - skipped - 2 if ends and not partner[n] else everything
        if not (blocked or shape) and spare > 0 and (v > 1 or not ends):
            yield from descend(v + 1, genus, skipped + 1)
        low, high = v + first, n
        if blocked:  # v closes the short stack around it
            low, high = max(low, wrap - 1), wrap - 1
        if spare < 2:  # v must take n
            low = max(low, n)
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
            yield from descend(v + 1, g2, skipped)
            arcs.pop()
            partner[v] = 0
            partner[u] = 0

    yield from descend(1, 0, 0)


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


#: Census rows by (n, min_arc, min_stack, max_genus): full rows, or rows
#: holding only ``arc_hist`` when no caller has asked for more.  The cache
#: is emptied once it reaches :data:`_ROWS_CAP` entries, about 3 KB each;
#: all lengths up to 16 of four classes at three genus caps take 204.
_census_rows: dict[tuple[int, int, int, int], dict[int, dict]] = {}
_ROWS_CAP = 256


def _add_rows(rows: dict[int, dict], other: dict[int, dict], k: int) -> None:
    """Add ``k`` times ``other`` to ``rows``, over the fields ``rows`` holds.

    ``arc_hist`` entries that reach zero are dropped, as the search never
    makes them; the loop and pk totals keep every key.
    """
    for g, row in rows.items():
        theirs = other[g]
        for field, mine in row.items():
            if isinstance(mine, int):
                row[field] = mine + k * theirs[field]
                continue
            for key, value in theirs[field].items():
                total = mine.get(key, 0) + k * value
                if total or field != "arc_hist":
                    mine[key] = total
                else:
                    del mine[key]


def _rows(n: int, min_arc: int, min_stack: int, max_genus: int, tally: bool) -> dict[int, dict]:
    """The census rows R(n), cached; full rows if ``tally``, else ``arc_hist`` only.

    R(m) for m = 0, 1, ..., n is read from the cache or built as
    2·R(m−1) − R(m−2) + B(m) from the two rows before it, so emptying the
    cache midway costs no second search.  The result is shared: never
    mutate it.
    """
    before = last = None
    for m in range(n + 1):
        key = (m, min_arc, min_stack, max_genus)
        rows = _census_rows.get(key)
        if rows is None or (tally and "loops" not in rows[0]):
            rows = _searched(m, min_arc, min_stack, max_genus, tally)
            if m > 1:
                _add_rows(rows, last, 2)
                _add_rows(rows, before, -1)
            if len(_census_rows) >= _ROWS_CAP:
                _census_rows.clear()
            _census_rows[key] = rows
        before, last = last, rows
    return last


def _searched(m: int, min_arc: int, min_stack: int, max_genus: int, tally: bool) -> dict[int, dict]:
    """Rows tallied over B(m), the structures with both ends paired, or over R(m) for m <= 1."""
    search = _structures(m, min_arc, min_stack, max_genus, ends=m > 1)
    if tally:
        rows = {g: new_tally() for g in range(max_genus + 1)}
        for genus, partner, arcs in search:
            tally_structure(m, partner, arcs, rows[genus])
    else:
        rows = {g: {"arc_hist": {}} for g in range(max_genus + 1)}
        for genus, _, arcs in search:
            hist = rows[genus]["arc_hist"]
            hist[len(arcs)] = hist.get(len(arcs), 0) + 1
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
        for g, row in _rows(n, min_arc, min_stack, max_genus, True).items()
    }


def arc_histograms(
    n: int,
    min_arc: int = 1,
    min_stack: int = 1,
    max_genus: int = 2,
) -> dict[int, dict[int, int]]:
    """Arc-number histograms of the structures on ``n`` vertices, by genus.

    Counts straight from the search, with no tally and no :class:`Diagram`
    per structure, by the same identity and cache as :func:`full_census`;
    the histograms equal its ``arc_hist`` rows.
    """
    _check_class(n, min_arc, min_stack, max_genus)
    return {
        g: dict(row["arc_hist"])
        for g, row in _rows(n, min_arc, min_stack, max_genus, False).items()
    }


def count_table(
    n_max: int,
    min_arc: int = 1,
    min_stack: int = 1,
    max_genus: int = 2,
) -> dict[tuple[int, int], int]:
    """Structure counts indexed by ``(genus, n)`` for all ``n <= n_max``."""
    _check_class(n_max, min_arc, min_stack, max_genus, size="n_max")
    out: dict[tuple[int, int], int] = {}
    for n in range(n_max + 1):
        for g, hist in arc_histograms(n, min_arc, min_stack, max_genus).items():
            out[(g, n)] = sum(hist.values())
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
