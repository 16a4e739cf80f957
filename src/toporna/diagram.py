"""Chord diagrams over a linear backbone and their topological invariants.

A diagram has vertices 1..n on an oriented backbone and a partial matching
drawn as arcs in the upper half plane.  Thickening vertices to disks and
edges to ribbons produces a fatgraph whose boundary components determine the
Euler characteristic and hence the genus of the diagram.

Faces are traced by one walker, :func:`_walk_face`, that steps straight
on the partner array; :func:`boundary_components` and the oracle's genus
step (:func:`_corner_face`) both use it.  Besides the genus computation
this module holds the purely combinatorial toolbox: dot-bracket parsing
with paged brackets, projections that collapse stacks and strip away
secondary content, the decomposition into crossing components,
classification of those components against the genus-1 catalog, and the
loop statistics used to cross-check marked generating functions.

Each per-structure analysis has one definition here.  :func:`_crossings` is
the only scan over crossing arc pairs, :func:`_collapse` the only stack
collapse, :func:`classify_component` the only (cached) block classifier and
:func:`_plan` the only loop classifier.  A plan holds what a census row
gains from a structure apart from its gaps, and :func:`_apply_plan` adds
it with the gaps read off the structure.  Built on an arc pattern
(:func:`_arc_pattern`) a plan serves every structure with that pattern,
as in the brute-force census; built on a structure's own positions it
serves :func:`tally_structure` and :func:`loop_counts`, as in the sampler
statistics.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

Arc = tuple[int, int]

#: Loop kinds tallied by :func:`loop_counts`, in report order.
LOOP_KINDS = ("stack", "hairpin", "bulge", "interior", "multi")

#: Bracket pairs available for dot-bracket output, lowest page first.
PAGES: tuple[str, ...] = ("()", "[]", "{}", "<>") + tuple(
    chr(ord("A") + k) + chr(ord("a") + k) for k in range(26)
)

_OPEN_PAGE = {p[0]: idx for idx, p in enumerate(PAGES)}
_CLOSE_PAGE = {p[1]: idx for idx, p in enumerate(PAGES)}


@dataclass(frozen=True)
class Diagram:
    """An n-vertex diagram with arcs stored sorted by left endpoint.

    Arcs are 1-based pairs ``(i, j)`` with ``i < j``; every vertex occurs in
    at most one arc.  Construction normalizes arc order and validates.
    """

    n: int
    arcs: tuple[Arc, ...] = ()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        seen: set[int] = set()
        fixed = []
        for i, j in self.arcs:
            if i > j:
                i, j = j, i
            if i == j:
                raise ValueError(f"degenerate arc at vertex {i}")
            if not (1 <= i and j <= self.n):
                raise ValueError(f"arc ({i}, {j}) outside 1..{self.n}")
            if i in seen or j in seen:
                raise ValueError(f"vertex used twice in arc ({i}, {j})")
            seen.update((i, j))
            fixed.append((i, j))
        object.__setattr__(self, "arcs", tuple(sorted(fixed)))

    @classmethod
    def from_partner(cls, n: int, partner: list[int]) -> Diagram:
        """Build from a partner array (index 0 unused, 0 meaning unpaired)."""
        arcs = [
            (v, partner[v])
            for v in range(1, n + 1)
            if partner[v] > v
        ]
        return cls(n, tuple(arcs))

    def partner(self) -> list[int]:
        out = [0] * (self.n + 1)
        for i, j in self.arcs:
            out[i] = j
            out[j] = i
        return out

    @property
    def num_arcs(self) -> int:
        return len(self.arcs)

    def genus(self) -> GenusResult:
        return genus_of_partner(self.n, self.partner())

    def to_json_dict(self) -> dict:
        return {"n": self.n, "arcs": [[i, j] for i, j in self.arcs]}

    @classmethod
    def from_json_dict(cls, data: dict) -> Diagram:
        return cls(int(data["n"]), tuple((int(i), int(j)) for i, j in data["arcs"]))


@dataclass(frozen=True)
class GenusResult:
    """Topological summary of a diagram's fatgraph."""

    genus: int
    boundary_components: int
    euler_characteristic: int


def _walk_face(n: int, partner: list[int], w: int, t: int, seen: bytearray) -> None:
    """Mark ``seen[3w + t]`` for every half-edge on the face through ``(w, t)``.

    This is the one face tracer of the thickened diagram.  Half-edge
    ``(w, t)`` sits at vertex w: t=0 is the backbone half leaving to the
    right (R), t=1 the arc half (A) and t=2 the backbone half leaving to the
    left (L).  At each vertex the counterclockwise order is (R, A, L), and a
    face step crosses the ribbon of the current half, then takes the next
    half present at the far vertex in that order.
    """
    start = h = 3 * w + t
    while True:
        seen[h] = 1
        if t == 2:  # to (w - 1, R), then A, L or R
            w -= 1
            t = 1 if partner[w] else 2 if w > 1 else 0
        elif t == 1:  # to (partner, A), then L or R
            w = partner[w]
            t = 2 if w > 1 else 0
        else:  # to (w + 1, L), then R, A or L
            w += 1
            t = 0 if w < n else 1 if partner[w] else 2
        h = 3 * w + t
        if h == start:
            return


def boundary_components(n: int, partner: list[int]) -> int:
    """Count boundary components of the thickened diagram (see :func:`_walk_face`)."""
    if n < 2:
        return 1
    seen = bytearray(3 * n + 3)
    faces = 0
    # every face passes a backbone half: an arc half is always followed by one
    for w in range(1, n):
        if not seen[3 * w]:
            faces += 1
            _walk_face(n, partner, w, 0, seen)
        if not seen[3 * w + 5]:
            faces += 1
            _walk_face(n, partner, w + 1, 2, seen)
    return faces


def _corner_face(n: int, partner: list[int], v: int) -> bytearray:
    """Mark the vertices whose insertion corner lies on v's corner face.

    Requires ``v < n`` with v unpaired.  The corner of a free vertex u < n
    is entered by the half (u + 1, L) and that of u = n by (n - 1, R); the
    face walked is the one through v's own corner (see :func:`_walk_face`).
    """
    seen = bytearray(3 * n + 3)
    _walk_face(n, partner, v + 1, 2, seen)
    on_face = seen[5::3]
    on_face.append(seen[3 * n - 3])
    return on_face


def genus_of_partner(n: int, partner: list[int]) -> GenusResult:
    """Genus from a partner array, via the boundary component count."""
    if n == 0:
        return GenusResult(0, 1, 2)
    num_arcs = sum(1 for v in range(1, n + 1) if partner[v] > v)
    faces = boundary_components(n, partner)
    euler = n - ((n - 1) + num_arcs) + faces
    if (2 - euler) % 2:
        raise AssertionError("odd Euler characteristic for an orientable surface")
    return GenusResult((2 - euler) // 2, faces, euler)


# -- dot-bracket ----------------------------------------------------------


def parse_structure(text: str) -> Diagram:
    """Parse a dot-bracket string into a diagram.

    Dots are unpaired vertices.  Crossing arcs use successive bracket pages
    ``()``, ``[]``, ``{}``, ``<>``, then ``Aa`` through ``Zz``.

    Raises:
        ValueError: on stray characters, an unmatched closer, or an
            unclosed opener; messages carry the 1-based column.
    """
    stacks: dict[int, list[int]] = {}
    arcs: list[Arc] = []
    for col, ch in enumerate(text.strip(), start=1):
        if ch == ".":
            continue
        if ch in _OPEN_PAGE:
            stacks.setdefault(_OPEN_PAGE[ch], []).append(col)
        elif ch in _CLOSE_PAGE:
            page = _CLOSE_PAGE[ch]
            if not stacks.get(page):
                raise ValueError(f"unmatched {ch!r} at column {col}")
            arcs.append((stacks[page].pop(), col))
        else:
            raise ValueError(f"unexpected character {ch!r} at column {col}")
    for page, stack in stacks.items():
        if stack:
            raise ValueError(
                f"unclosed {PAGES[page][0]!r} at column {stack[-1]}"
            )
    return Diagram(len(text.strip()), tuple(arcs))


def emit_structure(diagram: Diagram) -> str:
    """Render a diagram as dot-bracket text.

    Arcs are greedily assigned to the lowest page on which they cross
    nothing already placed there; crossing-free diagrams therefore come out
    in plain round brackets.  Each page stacks the right ends of its open
    arcs, innermost last.  Arcs come sorted by left end i, so once the ends
    below i are popped, arc (i, j) fits a page if its stack is empty or j
    lies below the top: O(m * pages) for m arcs, each end pushed once.

    Raises:
        ValueError: if the diagram needs more than the available pages.
    """
    stacks: list[list[int]] = []
    chars = ["."] * diagram.n
    for i, j in diagram.arcs:
        for page, stack in enumerate(stacks):
            while stack and stack[-1] < i:
                stack.pop()
            if not stack or j < stack[-1]:
                break
        else:
            if len(stacks) >= len(PAGES):
                raise ValueError(f"diagram needs more than {len(PAGES)} bracket pages")
            page, stack = len(stacks), []
            stacks.append(stack)
        stack.append(j)
        chars[i - 1], chars[j - 1] = PAGES[page]
    return "".join(chars)


# -- projections ----------------------------------------------------------


def _project(diagram: Diagram, *, drop_noncrossing: bool) -> Diagram:
    """Shape or shadow in one pass over the arcs.

    The shape keeps each arc whose span holds an endpoint of a crossing arc
    (bisecting the endpoints :func:`_crossings` returns), the shadow only
    the crossing arcs; :func:`_pattern` drops the unpaired vertices and
    :func:`_collapse` the stacks.
    """
    involved = _crossings(diagram.arcs)[1]
    kept = [
        v
        for i, j in diagram.arcs
        if bisect_right(involved, i if drop_noncrossing else j) > bisect_left(involved, i)
        for v in (i, j)
    ]
    return _pattern_diagram(_collapse(_pattern(kept)))


def project_shape(diagram: Diagram) -> Diagram:
    """The shape: no unpaired vertices, no stacks, no adjacent-vertex arcs.

    Only crossing arcs and the arcs around them survive: secondary content
    collapses away, so the shape of a genus-0 diagram is empty.  Preserves
    genus.
    """
    return _project(diagram, drop_noncrossing=False)


def project_shadow(diagram: Diagram) -> Diagram:
    """The shadow: the crossing arcs alone, with their stacks collapsed."""
    return _project(diagram, drop_noncrossing=True)


# -- crossing components and their classification -------------------------

#: The four irreducible genus-1 shadows, keyed by their traditional labels.
GENUS1_SHADOWS: dict[str, Diagram] = {
    "H": Diagram(4, ((1, 3), (2, 4))),
    "K": Diagram(6, ((1, 3), (2, 5), (4, 6))),
    "L": Diagram(6, ((1, 4), (2, 5), (3, 6))),
    "M": Diagram(8, ((1, 4), (2, 6), (3, 7), (5, 8))),
}

_SHADOW_LABELS = {d: name for name, d in GENUS1_SHADOWS.items()}

#: Crossing-block classes tallied by :func:`tally_structure`, in report order.
PK_LABELS = (*GENUS1_SHADOWS, "higher")


@dataclass(frozen=True)
class ComponentBlock:
    """One crossing component, with the components nested directly inside it."""

    arc_indices: tuple[int, ...]
    span: tuple[int, int]
    genus: int
    label: str
    children: tuple[ComponentBlock, ...]


def _crossings(arcs: list[Arc] | tuple[Arc, ...]) -> tuple[list[list[int]], list[int]]:
    """One pass over the crossing pairs of ``arcs``, sorted by left endpoint.

    Returns the connected components of the crossing graph as lists of arc
    indices, singletons included, in order of their first arc, and the
    sorted endpoints of every arc that crosses another.  The scan from arc
    a stops at the first arc that starts beyond a's right endpoint: every
    later arc starts further right still, so none of them can cross a.

    Crossing arcs are joined by union-find on roots (path halving) and
    marked in a per-arc ``crossed`` flag; both are allocated at the first
    crossing, so a crossing-free structure costs only the scan.
    """
    m = len(arcs)
    root: list[int] = []
    crossed = b""
    for a in range(m):
        ja = arcs[a][1]
        for b in range(a + 1, m):
            ib, jb = arcs[b]
            if ib > ja:
                break
            if jb > ja:
                if not root:
                    root = list(range(m))
                    crossed = bytearray(m)
                crossed[a] = crossed[b] = 1
                ra, rb = a, b
                while root[ra] != ra:
                    root[ra] = root[root[ra]]
                    ra = root[ra]
                while root[rb] != rb:
                    root[rb] = root[root[rb]]
                    rb = root[rb]
                if ra != rb:
                    root[rb] = ra
    if not root:
        return [[a] for a in range(m)], []
    groups: dict[int, list[int]] = {}
    for a in range(m):
        r = a
        while root[r] != r:
            r = root[r]
        groups.setdefault(r, []).append(a)
    involved = sorted([v for a in range(m) if crossed[a] for v in arcs[a]])
    return list(groups.values()), involved


def crossing_components(diagram: Diagram) -> list[list[int]]:
    """Connected components of the crossing graph, as lists of arc indices.

    Arcs that cross nothing form singleton components.
    """
    return _crossings(diagram.arcs)[0]


#: ``(label, genus)`` of every crossing component classified so far, keyed
#: by its pattern (see :func:`_pattern`) with stacks collapsed.
_component_classes: dict[tuple[int, ...], tuple[str, int]] = {}


def _pattern(flat: list[int]) -> tuple[int, ...]:
    """Replace each vertex of ``flat`` (all distinct) by its rank among them, from 0."""
    rank = {v: t for t, v in enumerate(sorted(flat))}
    return tuple([rank[v] for v in flat])


def _classify_arcs(
    arcs: list[Arc] | tuple[Arc, ...], arc_indices: list[int]
) -> tuple[str, int]:
    """Classify the component ``arc_indices`` of ``arcs``, through one cache.

    The component's pattern lists the endpoints of its arcs, arc by arc in
    left-endpoint order, relabelled onto 0..2k-1: it does not see where
    the component sits or which other vertices fill its gaps.
    :func:`_collapse` drops its stacks; the collapsed pattern keys
    :data:`_component_classes`, and only a new one is classified.
    """
    pattern = _collapse(_pattern([v for a in arc_indices for v in arcs[a]]))
    result = _component_classes.get(pattern)  # every arc crosses: this is the shadow
    if result is None:
        shadow = _pattern_diagram(pattern)
        g = shadow.genus().genus
        label = _SHADOW_LABELS.get(shadow) if g == 1 else "higher"
        if label is None:
            raise AssertionError(
                f"genus-1 component with shadow outside the catalog: {shadow}"
            )
        result = _component_classes[pattern] = label, g
    return result


def _collapse(pattern: tuple[int, ...]) -> tuple[int, ...]:
    """Drop each arc of ``pattern`` with the next arc stacked right inside it.

    A run of parallel arcs keeps its innermost arc, which crosses the same
    arcs, so neither the shadow nor the genus changes.  One pass suffices.
    """
    pairs = list(zip(pattern[0::2], pattern[1::2]))
    kept = [
        v
        for (i, j), (k, l) in zip(pairs, pairs[1:])
        if k != i + 1 or l != j - 1
        for v in (i, j)
    ]
    if len(kept) + 2 < len(pattern):
        pattern = _pattern(kept + list(pairs[-1]))
    return pattern


def _pattern_diagram(pattern: tuple[int, ...]) -> Diagram:
    """The diagram on 1..len(pattern) whose arcs ``pattern`` lists from 0."""
    arcs = zip(pattern[0::2], pattern[1::2])
    return Diagram(len(pattern), tuple((i + 1, j + 1) for i, j in arcs))


def classify_component(diagram: Diagram, arc_indices: list[int]) -> tuple[str, int]:
    """Label one crossing component.

    Returns a pair ``(label, genus)`` where the label is ``"secondary"``
    for a single non-crossing arc, one of ``"H"``, ``"K"``, ``"L"``, ``"M"``
    for a genus-1 component according to its shadow, and ``"higher"``
    otherwise.  Results are cached on the component's pattern, its arcs
    relabelled onto 0..2k-1 (see :func:`_classify_arcs`), so repeated
    patterns are projected once.

    Raises:
        ValueError: if ``arc_indices`` is not one of the diagram's
            crossing components.
    """
    if sorted(arc_indices) not in crossing_components(diagram):
        raise ValueError(
            f"arcs {list(arc_indices)} are not one crossing component of the diagram"
        )
    return _label_component(diagram.arcs, arc_indices)


def _label_component(arcs: tuple[Arc, ...], arc_indices: list[int]) -> tuple[str, int]:
    if len(arc_indices) == 1:
        return "secondary", 0
    return _classify_arcs(arcs, arc_indices)


def block_decomposition(diagram: Diagram) -> list[ComponentBlock]:
    """Nest the crossing components into a forest by span containment.

    Distinct components can never partially overlap (that would make them
    one component), so sorting spans by start and nesting greedily gives a
    well-defined forest.
    """
    arcs = diagram.arcs
    flat: list[ComponentBlock] = []
    for indices in crossing_components(diagram):
        span = (
            min(arcs[a][0] for a in indices),
            max(arcs[a][1] for a in indices),
        )
        label, genus = _label_component(arcs, indices)
        flat.append(ComponentBlock(tuple(indices), span, genus, label, ()))
    flat.sort(key=lambda b: (b.span[0], -b.span[1]))
    return _assemble_forest(flat)


def _assemble_forest(flat: list[ComponentBlock]) -> list[ComponentBlock]:
    """Rebuild parent-child links from spans (input sorted by (start, -end))."""
    roots: list[ComponentBlock] = []
    path: list[tuple[ComponentBlock, list[ComponentBlock]]] = []

    def close() -> None:
        """Pop the innermost open node and attach it, with its children, to its parent."""
        finished, kids = path.pop()
        closed = ComponentBlock(
            finished.arc_indices, finished.span, finished.genus, finished.label, tuple(kids)
        )
        (path[-1][1] if path else roots).append(closed)

    for node in flat:
        while path and not (
            path[-1][0].span[0] < node.span[0] and node.span[1] < path[-1][0].span[1]
        ):
            close()
        path.append((node, []))
    while path:
        close()
    return roots


# -- validity and loop statistics -----------------------------------------


def _check_parameters(min_arc: int, min_stack: int) -> None:
    """Refuse a ``min_arc`` or ``min_stack`` below 1, naming it and its value."""
    for name, value in (("min_arc", min_arc), ("min_stack", min_stack)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def validate_constraints(diagram: Diagram, min_arc: int, min_stack: int) -> None:
    """Check the two structural side conditions.

    Args:
        min_arc: every arc whose interior is entirely unpaired must span at
            least this far, i.e. enclose at least ``min_arc - 1`` vertices.
        min_stack: every maximal run of parallel arcs must have at least
            this many arcs.

    Raises:
        ValueError: naming the first offending arc or stack.
    """
    _check_parameters(min_arc, min_stack)
    partner = diagram.partner()
    for i, j in diagram.arcs:
        if j - i < min_arc and all(partner[v] == 0 for v in range(i + 1, j)):
            raise ValueError(
                f"arc ({i}, {j}) encloses {j - i - 1} unpaired vertices, "
                f"needs {min_arc - 1}"
            )
        if i > 1 and j < diagram.n and partner[i - 1] == j + 1:
            continue  # not the outermost arc of its run
        run = 1
        while i + run < j - run and partner[i + run] == j - run:
            run += 1
        if run < min_stack:
            raise ValueError(
                f"stack starting at arc ({i}, {j}) has {run} arcs, needs {min_stack}"
            )


def satisfies_constraints(diagram: Diagram, min_arc: int, min_stack: int) -> bool:
    try:
        validate_constraints(diagram, min_arc, min_stack)
    except ValueError:
        return False
    return True


def loop_counts(diagram: Diagram, *, literal_multi: bool = False) -> dict[str, int]:
    """Count stacks and the four loop patterns.

    A loop hangs off an arc ``(i, j)`` whose interior splits into unpaired
    gaps and closed child intervals, each exactly spanned by an arc: no
    children makes a hairpin; one child makes a bulge or an interior loop
    depending on whether one or both gaps are nonempty (both empty is just
    a stacked pair); two or more children make a multiloop.

    A multiloop whose children include two or more crossing-carrying
    intervals sits at a branch point of the diagram's shape rather than
    inside a stem or a secondary region, and the stem-decomposition
    generating functions never mark it.  Those patterns are skipped by
    default so that the census agrees with the marked series; pass
    ``literal_multi=True`` to count every branching pattern.

    The stack count is the number of maximal runs of parallel arcs.
    """
    partner = diagram.partner()
    row = new_tally()
    _apply_plan(_plan(partner, diagram.arcs, literal_multi), partner, row)
    return row["loops"]


# -- per-structure tally --------------------------------------------------


def new_tally() -> dict:
    """An empty census row for :func:`tally_structure`."""
    return {
        "count": 0,
        "arcs": 0,
        "arc_hist": {},
        "loops": dict.fromkeys(LOOP_KINDS, 0),
        "pk": dict.fromkeys(PK_LABELS, 0),
    }


def tally_structure(
    n: int,
    partner: list[int],
    arcs: list[Arc] | tuple[Arc, ...],
    row: dict,
) -> None:
    """Add one structure to a census row from :func:`new_tally`.

    ``arcs`` must be sorted by left endpoint and ``partner`` must match
    them.  The row gains the structure, its arcs, its loop tallies (as
    :func:`loop_counts` gives them) and one count per crossing component
    under its :data:`PK_LABELS` class.  The plan is built on the structure
    itself, so nothing is cached.
    """
    _apply_plan(_plan(partner, arcs), partner, row)


def _arc_pattern(n: int, partner: list[int]) -> tuple[tuple[int, ...], bytearray]:
    """The arc pattern of the structure ``partner`` on 1..n, and which gaps are empty.

    The pattern is the partner array of the structure with its unpaired
    vertices removed: the paired vertices are renumbered 1..2a in backbone
    order, and entry 0 is unused.  Byte t of the second result is 0 if an
    unpaired vertex was removed right after the paired vertex numbered t,
    and 1 otherwise, as :func:`_apply_plan` reads it.
    """
    rank = [0] * (n + 1)
    pattern = [0]
    joined = bytearray(b"\1") * (n + 1)
    t = 0
    for v in range(1, n + 1):
        p = partner[v]
        if not p:
            joined[t] = 0
            continue
        t += 1
        if p > v:
            rank[v] = t
            pattern.append(0)
        else:
            s = rank[p]
            pattern[s] = t
            pattern.append(s)
    return tuple(pattern), joined


def _plan(
    partner: list[int] | tuple[int, ...],
    arcs: list[Arc] | tuple[Arc, ...],
    literal_multi: bool = False,
) -> tuple:
    """What a structure adds to a census row, apart from what its gaps decide.

    ``partner`` maps each position to its partner, 0 for an unpaired one,
    and ``arcs`` lists its arcs by left endpoint.  Built on an arc pattern
    (:func:`_arc_pattern`), the plan serves every structure with that
    pattern; built on a structure's own positions, that structure alone.

    Each arc's interior is walked from child to child, unpaired positions
    skipped; the arc closes a loop if no arc leaves the interior on the
    way.  Returns ``(num, pairs, hairpins, multis, pk)``:

    - the arc count;
    - for each loop arc (i, j) with one child (k, l), the pair
      (k - 1, j - 1): whether the gaps right before k and before j hold a
      vertex tells a stacked pair, a bulge and an interior loop apart (see
      :func:`_apply_plan`);
    - the loop arcs with no child, and those with two or more children
      counted as multiloops (see :func:`loop_counts` for ``literal_multi``);
    - the :data:`PK_LABELS` class of each crossing component
      :func:`_crossings` finds.
    """
    components, involved = _crossings(arcs)
    pairs = []
    hairpins = multis = 0
    for i, j in arcs:
        v = i + 1
        children = 0
        while v < j:
            p = partner[v]
            if not p:
                v += 1
            elif v < p < j:
                if not children:
                    first = v
                children += 1
                v = p + 1
            else:
                break
        else:  # no arc leaves the interior, so (i, j) closes a loop
            if not children:
                hairpins += 1
            elif children == 1:
                pairs.append((first - 1, j - 1))
            elif literal_multi or _branches(partner, i, j, involved) <= 1:
                multis += 1
    pk = []
    if involved:
        for members in components:
            if len(members) == 2:
                pk.append("H")  # two crossing arcs are the H shadow itself
            elif len(members) > 2:
                pk.append(_classify_arcs(arcs, members)[0])
    return len(arcs), tuple(pairs), hairpins, multis, tuple(pk)


def _branches(
    partner: list[int] | tuple[int, ...], i: int, j: int, involved: list[int]
) -> int:
    """How many children of the loop closed by (i, j) hold an endpoint in ``involved``."""
    carrying = 0
    v = i + 1
    while v < j:
        p = partner[v]
        if p:
            carrying += bisect_right(involved, p) > bisect_left(involved, v)
            v = p + 1
        else:
            v += 1
    return carrying


def _apply_plan(plan: tuple, joined: bytes | bytearray | list[int], row: dict) -> None:
    """Add one structure with :func:`_plan` ``plan`` to ``row``.

    Each pair (x, y) of the plan names the positions right before the two
    gaps of a one-child loop, and ``joined[x]`` is nonzero if the gap after
    x holds no vertex.  On an arc pattern, ``joined`` comes from
    :func:`_arc_pattern`.  On a structure's own positions the partner array
    serves: x is then paired exactly when it is the loop arc's or the
    child's own end, that is when the gap is empty.  A loop arc with both
    gaps empty is stacked onto its child, so its run has one maximal stack
    fewer; one gap held makes a bulge, both an interior loop.
    """
    num, pairs, hairpins, multis, labels = plan
    row["count"] += 1
    row["arcs"] += num
    hist = row["arc_hist"]
    hist[num] = hist.get(num, 0) + 1
    stacked = bulges = interiors = 0
    for x, y in pairs:
        if joined[x]:
            if joined[y]:
                stacked += 1
            else:
                bulges += 1
        elif joined[y]:
            bulges += 1
        else:
            interiors += 1
    loops = row["loops"]
    loops["stack"] += num - stacked
    loops["hairpin"] += hairpins
    loops["bulge"] += bulges
    loops["interior"] += interiors
    loops["multi"] += multis
    pk = row["pk"]
    for label in labels:
        pk[label] += 1
