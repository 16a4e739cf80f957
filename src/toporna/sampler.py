"""Uniform random sampling of structures at fixed length and genus.

Sampling mirrors the decomposition the generating functions count: a
structure is a secondary prefix, a shape drawn from the finite inventory
for the target genus, and one stem chain per shape arc, with secondary
fillers spliced into the gap after each inflated endpoint.  Secondary
structure has one grammar: a segment is a sequence of unpaired vertices
and components, and a component is a stack around a loop body, which is
any segment but a lone component.  Every discrete choice uses exact
integer weights from DP tables, so draws are uniform by construction and
no floating point enters the pipeline.

Each choice reads a cumulative weight list from one of the declared
weight tables, which fill themselves per length on first use, and costs
one call of :func:`_choose`: rejection on ``getrandbits`` below the total,
then a bisection.  That is the rule ``random.Random.randrange`` follows,
so a seeded stream picks what ``bisect_right(cum, rng.randrange(total))``
would.

The enumerative fallback materializes the whole family first and is only
meant for cross-checks at small lengths.  :func:`empirical_stats` tallies
the draws with :func:`toporna.diagram.tally_structure`, the census row
builder, so sampled and enumerated statistics are computed the same way.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from itertools import accumulate, islice
from operator import mul, neg

from .diagram import Diagram, new_tally, tally_structure
from .genfun import StructureClass, require_inflatable
from .oracle import _shape_search, enumerate_diagrams
from .recursions import _check_genus
from .series import _convolve, _quotient

__all__ = [
    "StructureSampler",
    "empirical_stats",
    "sample_enumerative",
    "inventory_cap",
    "chi_square",
    "chi_square_pvalue",
]


def _choose(getrandbits, cum) -> int:
    """Index into a cumulative integer weight list, exactly.

    r is drawn below the total by rejection on ``total.bit_length()``
    random bits and the index is the number of entries at most r, so index
    i is drawn with probability (cum[i] - cum[i - 1]) / total.
    """
    total = cum[-1]
    k = total.bit_length()
    r = getrandbits(k)
    while r >= total:
        r = getrandbits(k)
    return bisect_right(cum, r)


class _Cumulative(dict):
    """Cumulative weight lists keyed by an int, each built on first use.

    ``weights`` must not reach the sampler that owns the table, or every
    sampler becomes a reference cycle that only the cycle collector frees.
    """

    __slots__ = ("_weights",)

    def __init__(self, weights):
        super().__init__()
        self._weights = weights

    def __missing__(self, key: int) -> list[int]:
        cum = self[key] = list(accumulate(self._weights(key)))
        return cum


def _tokens_to_diagram(tokens: list[int]) -> Diagram:
    # 0 is an unpaired vertex, +k opens arc k, -k closes it
    first = [0] * (len(tokens) + 1)
    arcs = []
    for pos, tok in enumerate(tokens, start=1):
        if tok > 0:
            first[tok] = pos
        elif tok < 0:
            arcs.append((first[-tok], pos))
    return Diagram(len(tokens), tuple(arcs))


def inventory_cap(genus: int, max_len: int, min_stack: int) -> int:
    """Most shape arcs in the inventory of a genus-``genus`` sampler.

    Each shape arc inflates to a stack of at least ``min_stack`` arcs, so
    at most ``max_len // (2 * min_stack)`` fit; no shape of genus g has more
    arcs than the degree of its shape polynomial, 6g - 1 for g >= 1
    (:func:`~toporna.recursions.shape_poly`).
    """
    _check_genus(genus)
    return min(6 * genus - 1 if genus else 0, max_len // (2 * min_stack))


_SHAPES: dict[tuple[int, int], tuple[Diagram, ...]] = {}  # keyed by (genus, arcs)


def _shape_inventory(genus: int, k_cap: int) -> dict[int, tuple[Diagram, ...]]:
    """The genus-``genus`` shapes with at most ``k_cap`` arcs, keyed by arc count.

    Every sampler in the process shares them: the inventory depends on
    nothing else.  Each arc count is searched once, by the oracle's one
    search run for shapes, as :func:`~toporna.oracle.enumerate_shapes` runs
    it for each count in turn, so a cached tuple is in the order a fresh
    search gives, and the seeded shape choice is unchanged.
    """
    for k in range(k_cap + 1):
        if (genus, k) not in _SHAPES:
            _SHAPES[genus, k] = tuple(d for d, g in _shape_search(k, genus) if g == genus)
    return {k: pool for k in range(k_cap + 1) if (pool := _SHAPES[genus, k])}


class StructureSampler:
    """Exact uniform sampler over structures of one genus.

    Tables cover lengths up to ``max_len`` and are built once; afterwards
    each draw costs a handful of weighted choices plus the recursion into
    secondary fillers.  For positive genus the shape inventory is read
    from a per-process cache or enumerated, and enumeration grows quickly
    with the number of admissible shape arcs (:func:`inventory_cap`), so
    keep ``max_len`` modest at genus two and beyond.
    """

    def __init__(self, cls_: StructureClass, genus: int, max_len: int):
        if not isinstance(cls_, StructureClass):
            raise TypeError(f"cls_ must be a StructureClass, got {cls_!r}")
        _check_genus(genus)
        if max_len < 0:
            raise ValueError(f"max_len must be nonnegative, got {max_len}")
        if genus:
            require_inflatable(cls_)
        self.cls_ = cls_
        self.genus = genus
        self.max_len = max_len
        self._build_secondary()
        if genus:
            self._build_inventory()
            self._build_chains()

    # -- table construction ------------------------------------------------

    def _build_secondary(self) -> None:
        """Fill the genus-zero grammar tables up to ``max_len``.

        A segment counts as d0 = 1 / (1 - x - comp), a component as the sum
        over s >= ``min_stack`` of x^(2s)·body, and a body as d0 - comp from
        ``min_arc - 1`` vertices on: a lone component would lengthen the
        stack.  The body needs d0 and comp needs the body, so one loop fills
        all three, d0 by the recurrence of its quotient.
        """
        lam, r = self.cls_.min_arc, self.cls_.min_stack
        top = self.max_len
        comp, body, d0 = [0] * (top + 1), [0] * (top + 1), [1] + [0] * top
        for m in range(top + 1):
            comp[m] = sum(body[m - 2 * s] for s in range(r, m // 2 + 1))
            if m:
                d0[m] = d0[m - 1] + sum(map(mul, comp[2 : m + 1], reversed(d0[: m - 1])))
            if m >= lam - 1:
                body[m] = d0[m] - comp[m]
        self._d0 = d0

        def first(m: int, stop: int) -> list[int]:  # a vertex, or a component shorter than stop
            if not m:
                return [d0[0]]  # the empty segment, which emission never chooses
            return [d0[m - 1]] + [comp[t] * d0[m - t] for t in range(2, stop)]

        # The choices of secondary emission, keyed by the length left: the
        # first item of a segment, or of a body, which is no lone component.
        self._seq = _Cumulative(lambda m: first(m, m + 1))
        self._comp = _Cumulative(lambda t: [body[t - 2 * s] for s in range(r, t // 2 + 1)])
        self._body = _Cumulative(lambda u: first(u, u))

    def _build_inventory(self) -> None:
        self._k_cap = inventory_cap(self.genus, self.max_len, self.cls_.min_stack)
        self._shapes = _shape_inventory(self.genus, self._k_cap)
        self._ks = sorted(self._shapes)

    def _build_chains(self) -> None:
        r = self.cls_.min_stack
        top = self.max_len
        d0 = self._d0
        p2 = _convolve(d0, d0, top + 1)
        p2m1 = list(p2)
        p2m1[0] -= 1

        def stacked(f: list[int]) -> list[int]:  # f x^(2r) / (1 - x^2): a stack of r or more arcs
            return _quotient([0] * (2 * r) + f, [1, 0, -1], top + 1)

        h = stacked(p2m1)
        geo = _quotient([1], [1] + [-c for c in h[1:]], top + 1)  # 1 / (1 - h)
        pg = _convolve(p2, geo, top + 1)
        pmg = _convolve(p2m1, geo, top + 1)
        chain = stacked(pg)
        cp = [[1] + [0] * top]
        for _ in range(self._k_cap):
            cp.append(_convolve(cp[-1], chain, top + 1))
        self._geo, self._pg, self._pmg, self._chain, self._cp = geo, pg, pmg, chain, cp
        # The choices of shape assembly: the prefix before k chains of n
        # vertices, and the length of the next chain when j chains share rem.
        prefix = [
            _Cumulative(lambda n, po=po: [d0[m] * po[n - m] for m in range(n + 1)])
            for po in cp
        ]
        self._prefix = prefix
        self._part = [
            _Cumulative(lambda rem, po=po: [chain[c] * po[rem - c] for c in range(rem + 1)])
            for po in cp
        ]
        sizes = [(k, len(self._shapes[k])) for k in self._ks]
        # the number of structures of length n on the shapes with k arcs
        self._k = _Cumulative(lambda n: [size * prefix[k][n][-1] for k, size in sizes])
        # The choices of one stem chain, keyed by the vertices left.
        self._stack0 = _Cumulative(lambda c: [pg[c - 2 * s] for s in range(r, c // 2 + 1)])
        self._numer = _Cumulative(lambda m: [p2[a] * geo[m - a] for a in range(m + 1)])
        self._stack = _Cumulative(lambda m: [pmg[m - 2 * s] for s in range(r, m // 2 + 1)])
        self._junc = _Cumulative(lambda m: [p2m1[t] * geo[m - t] for t in range(m + 1)])
        self._split = _Cumulative(lambda m: [d0[a] * d0[m - a] for a in range(m + 1)])

    # -- public interface --------------------------------------------------

    def count(self, n: int) -> int:
        """Number of structures of length ``n`` (tables must cover it)."""
        if not 0 <= n <= self.max_len:
            raise ValueError(f"length {n} outside table range 0..{self.max_len}")
        if not self.genus:
            return self._d0[n]
        cum = self._k[n]
        return cum[-1] if cum else 0

    def sample(self, n: int, rng: random.Random) -> Diagram:
        if self.count(n) == 0:
            raise ValueError(f"no structures of length {n} at genus {self.genus}")
        fresh = iter(range(1, n + 2))  # arc keys, in the order arcs open
        if self.genus == 0:
            return _tokens_to_diagram(self._seq_tokens(n, fresh, rng.getrandbits))
        return _tokens_to_diagram(self._positive_tokens(n, fresh, rng.getrandbits))

    def sample_many(self, n: int, draws: int, seed=None) -> list[Diagram]:
        """Draw ``draws`` structures with a private ``random.Random(seed)``."""
        if draws < 0:
            raise ValueError(f"draws must be nonnegative, got {draws}")
        rng = random.Random(seed)
        return [self.sample(n, rng) for _ in range(draws)]

    # -- positive-genus assembly -------------------------------------------

    def _positive_tokens(self, n: int, fresh, bits) -> list[int]:
        k = self._ks[_choose(bits, self._k[n])]
        pool = self._shapes[k]
        shape = pool[_choose(bits, range(1, len(pool) + 1))]
        m0 = _choose(bits, self._prefix[k][n])
        rem = n - m0
        lens = []
        for j in range(k - 1, 0, -1):
            c = _choose(bits, self._part[j][rem])
            lens.append(c)
            rem -= c
        lens.append(rem)
        blocks = [self._chain_blocks(c, fresh, bits) for c in lens]
        left_index = {arc[0]: i for i, arc in enumerate(shape.arcs)}
        partner = shape.partner()
        tokens = self._seq_tokens(m0, fresh, bits)
        for v in range(1, shape.n + 1):
            if partner[v] > v:
                tokens.extend(blocks[left_index[v]][0])
            else:
                tokens.extend(blocks[left_index[partner[v]]][1])
        return tokens

    def _chain_blocks(self, c: int, fresh, bits):
        """Sample one stem chain of ``c`` vertices as (opens, closes) tokens.

        A chain is a run of stacks inflating a single shape arc.  The
        outermost stack's trailing filler sits after the whole chain, the
        innermost stack's leading filler directly wraps the interior, and
        each junction carries a not-both-empty filler pair keeping the
        stacks maximal.
        """
        r = self.cls_.min_stack
        stacks = [r + _choose(bits, self._stack0[c])]
        rem = c - 2 * stacks[0]
        m = _choose(bits, self._numer[rem])
        fl, fr = self._pair_tokens(m, fresh, bits)
        rem -= m
        juncs = []
        while rem:
            s = r + _choose(bits, self._stack[rem])
            rem -= 2 * s
            t = _choose(bits, self._junc[rem])
            juncs.append(self._pair_tokens(t, fresh, bits))
            stacks.append(s)
            rem -= t
        keylists = [list(islice(fresh, s)) for s in stacks]
        opens: list[int] = []
        for t, keys in enumerate(keylists):
            opens.extend(keys)
            if t < len(keylists) - 1:
                opens.extend(juncs[t][0])
        opens.extend(fl)
        closes: list[int] = []
        for t in range(len(keylists) - 1, -1, -1):
            closes.extend(map(neg, reversed(keylists[t])))
            closes.extend(juncs[t - 1][1] if t else fr)
        return opens, closes

    def _pair_tokens(self, m: int, fresh, bits):
        a = _choose(bits, self._split[m])
        return self._seq_tokens(a, fresh, bits), self._seq_tokens(m - a, fresh, bits)

    # -- secondary emission ------------------------------------------------

    def _seq_tokens(self, m: int, fresh, bits, out=None, table=None) -> list[int]:
        """Append a segment of ``m`` vertices to ``out`` (a new list if None).

        Its first item is chosen from ``table`` (a loop body passes ``_body``)
        and every other item from ``_seq``.
        """
        out = [] if out is None else out
        seq = self._seq
        table = seq if table is None else table
        while m:
            idx = _choose(bits, table[m])  # one vertex, or a component of idx + 1
            table = seq
            if idx:
                self._comp_tokens(idx + 1, out, fresh, bits)
            else:
                out.append(0)
            m -= idx + 1
        return out

    def _comp_tokens(self, t: int, out, fresh, bits) -> None:
        s = self.cls_.min_stack + _choose(bits, self._comp[t])
        keys = list(islice(fresh, s))
        out.extend(keys)
        self._seq_tokens(t - 2 * s, fresh, bits, out, self._body)
        out.extend(map(neg, reversed(keys)))


def sample_enumerative(
    cls_: StructureClass, genus: int, n: int, draws: int, seed=None
) -> list[Diagram]:
    """Draw uniformly by materializing the whole family first.

    Only sensible at small lengths; the grammar sampler covers the rest.
    """
    if draws < 0:
        raise ValueError(f"draws must be nonnegative, got {draws}")
    pool = list(
        enumerate_diagrams(n, cls_.min_arc, cls_.min_stack, genus=genus)
    )
    if not pool:
        raise ValueError(f"no structures of length {n} at genus {genus}")
    rng = random.Random(seed)
    return [pool[rng.randrange(len(pool))] for _ in range(draws)]


def empirical_stats(samples: list[Diagram]) -> dict:
    """Census-style aggregate over sampled structures.

    Returns draw count, total arcs, arc histogram, loop tallies and
    crossing-block class tallies in the layout of a brute-force census
    row, with ``count`` renamed ``draws``, so the two are directly
    comparable.
    """
    if not samples:
        raise ValueError("need at least one sample")
    report = new_tally()
    for d in samples:
        tally_structure(d.n, d.partner(), d.arcs, report)
    return {"draws": report.pop("count"), **report}


def chi_square(observed, weights) -> tuple[float, int]:
    """Pearson statistic of observed counts against exact bin weights.

    ``weights`` holds the unnormalized exact frequency of every bin; bins
    absent from ``observed`` count as zero draws, and an observed bin
    outside the support raises.  Returns ``(stat, dof)``.
    """
    total = sum(weights.values())
    draws = sum(observed.values())
    if total <= 0 or draws <= 0:
        raise ValueError("need positive weights and at least one draw")
    support = {key for key, w in weights.items() if w > 0}
    stray = set(observed) - support
    if stray and any(observed[key] for key in stray):
        raise ValueError(f"observed bins outside the support: {sorted(stray)!r}")
    stat = 0.0
    for key in support:
        expected = draws * weights[key] / total
        diff = observed.get(key, 0) - expected
        stat += diff * diff / expected
    return stat, len(support) - 1


def chi_square_pvalue(stat: float, dof: int) -> float:
    """Upper tail probability of the chi-square distribution.

    Abramowitz and Stegun 26.4.4-26.4.5: with h = stat / 2, erfc(sqrt(h)) for odd dof
    plus h^a e^-h / Gamma(a + 1), through logarithms, for a = dof/2 - 1, dof/2 - 2, ... >= 0.
    """
    if dof <= 0:
        raise ValueError("dof must be positive")
    if not 0 <= stat < math.inf:
        raise ValueError(f"stat must be finite and nonnegative, got {stat!r}")
    half = stat / 2
    if not half:
        return 1.0
    logs = (k / 2 * math.log(half) - half - math.lgamma(k / 2 + 1) for k in range(dof - 2, -1, -2))
    return math.fsum(map(math.exp, logs)) + (math.erfc(math.sqrt(half)) if dof % 2 else 0.0)
