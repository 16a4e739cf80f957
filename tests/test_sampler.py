"""Tests for the uniform structure sampler."""

import gc
import random
import re
import weakref
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import pytest

from toporna.diagram import Diagram, satisfies_constraints, validate_constraints
from toporna.genfun import StructureClass, arc_distribution, structure_counts
from toporna import oracle, sampler as sampler_module
from toporna.oracle import _shape_search, enumerate_diagrams, enumerate_shapes
from toporna.recursions import irreducible_poly, shape_poly, shape_weights
from toporna.sampler import (
    StructureSampler,
    _choose,
    chi_square,
    chi_square_pvalue,
    inventory_cap,
    sample_enumerative,
)

PLAIN = StructureClass(1, 1)
SPACED = StructureClass(2, 1)
CANONICAL = StructureClass(2, 2)


def test_dp_counts_match_series():
    """The sampler's integer tables reproduce the series coefficients."""
    cases = [
        (PLAIN, 0, 14),
        (PLAIN, 1, 14),
        (PLAIN, 2, 12),
        (SPACED, 0, 14),
        (SPACED, 1, 14),
        (CANONICAL, 1, 16),
        (CANONICAL, 2, 14),
    ]
    for cls_, genus, top in cases:
        sampler = StructureSampler(cls_, genus, top)
        got = [sampler.count(n) for n in range(top + 1)]
        assert got == structure_counts(cls_, genus, top + 1), (cls_, genus)


def _cubic_chain_tables(sampler: StructureSampler) -> dict[str, list]:
    """The chain tables by the direct triple sum for geo, from the sampler's d0."""
    r = sampler.cls_.min_stack
    top = sampler.max_len
    d0 = sampler._d0

    def conv(u, v):
        return [sum(u[a] * v[m - a] for a in range(m + 1)) for m in range(top + 1)]

    p2 = conv(d0, d0)
    p2m1 = [p2[0] - 1] + p2[1:]
    geo = [1] + [0] * top
    for m in range(1, top + 1):
        geo[m] = sum(
            p2m1[m - 2 * s - t] * geo[t]
            for s in range(r, m // 2 + 1)
            for t in range(m - 2 * s + 1)
        )
    pg, pmg = conv(p2, geo), conv(p2m1, geo)
    chain = [sum(pg[m - 2 * s] for s in range(r, m // 2 + 1)) for m in range(top + 1)]
    cp = [[1] + [0] * top]
    for _ in range(sampler._k_cap):
        cp.append(conv(cp[-1], chain))
    lead = [conv(d0, po) for po in cp]
    total = [
        sum(len(v) * lead[k][m] for k, v in sampler._shapes.items())
        for m in range(top + 1)
    ]
    return {
        "geo": geo, "pg": pg, "pmg": pmg, "chain": chain,
        "cp": cp, "lead": lead, "total": total,
    }


@pytest.mark.parametrize("lam, r", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 3)])
def test_chain_tables_match_cubic_recurrence(lam, r):
    sampler = StructureSampler(StructureClass(lam, r), 1, 120)
    tables = _cubic_chain_tables(sampler)
    lead, total = tables.pop("lead"), tables.pop("total")
    for name, table in tables.items():
        assert getattr(sampler, "_" + name) == table, name
    # the shape-size weights are read from the lead column only at n
    for m in range(sampler.max_len + 1):
        weights = [len(sampler._shapes[k]) * lead[k][m] for k in sampler._ks]
        assert sampler._k[m] == list(accumulate(weights)), m
        assert sampler.count(m) == total[m], m


def _loop_kind_counts(lam: int, r: int, top: int) -> tuple[list[int], list[int]]:
    """(comp, body) by one recurrence per loop kind, the body split as
    hairpin + 2·bulge + interior + multiloop."""
    hairpin = [1 if m >= lam - 1 else 0 for m in range(top + 1)]
    comp, bulge, interior, multi, body = ([0] * (top + 1) for _ in range(5))
    comps = [0] * (top + 1)  # one or more components, each after a gap
    tail = [0] * (top + 1)  # the components after the first, each with its gap
    for m in range(top + 1):
        if m:
            bulge[m] = bulge[m - 1] + comp[m - 1]
            interior[m] = interior[m - 1] + bulge[m - 1]
        two_or_more = sum(comps[t] * tail[m - t] for t in range(2, m - 1))
        multi[m] = (multi[m - 1] if m else 0) + two_or_more
        body[m] = hairpin[m] + 2 * bulge[m] + interior[m] + multi[m]
        comp[m] = sum(body[m - 2 * s] for s in range(r, m // 2 + 1))
        comps[m] = (comps[m - 1] if m else 0) + comp[m]
        tail[m] = sum(comps[v] * (1 if v == m else tail[m - v]) for v in range(2, m + 1))
    return comp, body


@pytest.mark.parametrize("lam, r", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)])
def test_segment_tables_split_like_the_loop_kinds(lam, r):
    """A body, any segment but a lone component, counts every loop kind once."""
    top = 80
    sampler = StructureSampler(StructureClass(lam, r), 0, top)
    comp, body = _loop_kind_counts(lam, r, top)
    d0 = structure_counts(StructureClass(lam, r), 0, top + 1)
    assert sampler._d0 == d0

    def total(cum):
        return cum[-1] if cum else 0

    for m in range(top + 1):
        assert total(sampler._seq[m]) == d0[m], m
        assert total(sampler._comp[m]) == comp[m], m
        stacks = [body[m - 2 * s] for s in range(r, m // 2 + 1)]
        assert sampler._comp[m] == list(accumulate(stacks)), m
        if m >= lam - 1:
            assert total(sampler._body[m]) == body[m] == d0[m] - comp[m], m


def test_choose_hits_each_index_by_its_weight():
    """Every bit pattern below the total lands on one index; the rest are redrawn."""
    weights = [3, 0, 5, 1, 0, 4]
    cum = list(accumulate(weights))
    width = cum[-1].bit_length()
    patterns = iter([7, 15, 0, 13, 2, 14, 12, 9, 1, 4, 10, 3, 8, 5, 11, 6])
    asked = []

    def getrandbits(k):
        asked.append(k)
        return next(patterns)

    hits = [0] * len(weights)
    for _ in range(cum[-1]):
        hits[_choose(getrandbits, cum)] += 1
    assert hits == weights
    assert asked == [width] * 2**width
    assert next(patterns, None) is None


def test_choose_follows_randrange():
    """Seeded choices are those of bisecting randrange's draw below the total."""
    cum = list(accumulate([5, 0, 2**70 + 3, 1, 17]))
    ours, theirs = random.Random(3), random.Random(3)
    for total in (cum, [1], [1, 2], [6, 7]):
        for _ in range(200):
            assert _choose(ours.getrandbits, total) == bisect_right(
                total, theirs.randrange(total[-1])
            )


def test_used_sampler_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        for genus, n in ((0, 30), (1, 40)):
            sampler = StructureSampler(PLAIN, genus, n)
            sampler.sample_many(n, 20, seed=1)
            ref = weakref.ref(sampler)
            del sampler
            assert ref() is None, genus
    finally:
        gc.enable()


def test_shape_inventory_sizes():
    # the enumerated inventory agrees with the shape-count polynomial
    sampler = StructureSampler(PLAIN, 1, 14)
    sizes = {k: len(v) for k, v in sampler._shapes.items()}
    poly = shape_poly(1)
    expect = {k: poly.coeffs[k] for k in range(len(poly.coeffs)) if poly.coeffs[k]}
    assert sizes == expect == {2: 1, 3: 3, 4: 3, 5: 1}


def test_shape_inventory_is_shared_and_in_search_order():
    small, large = StructureSampler(PLAIN, 2, 10), StructureSampler(PLAIN, 2, 12)
    fresh: dict[int, list] = {}
    for shape, _ in enumerate_shapes(6, genus=2):
        fresh.setdefault(len(shape.arcs), []).append(shape)
    assert {k: list(v) for k, v in large._shapes.items()} == fresh
    assert all(type(v) is tuple and v is large._shapes[k] for k, v in small._shapes.items())
    assert sorted(small._shapes) == [4, 5]


def test_larger_shape_cap_searches_only_the_new_arc_counts(monkeypatch):
    searched = []

    def search(k, max_genus):
        searched.append(k)
        return _shape_search(k, max_genus)

    monkeypatch.setattr(sampler_module, "_SHAPES", {})
    monkeypatch.setattr(sampler_module, "_shape_search", search)
    small = StructureSampler(PLAIN, 2, 10)  # shapes up to 5 arcs
    assert searched == [0, 1, 2, 3, 4, 5]
    large = StructureSampler(PLAIN, 2, 12)  # shapes up to 6 arcs
    assert searched == [0, 1, 2, 3, 4, 5, 6]
    assert sorted(small._shapes) == [4, 5] and sorted(large._shapes) == [4, 5, 6]
    assert all(large._shapes[k] is v for k, v in small._shapes.items())


def test_samples_valid_and_deterministic():
    cases = [
        (PLAIN, 0, 10),
        (PLAIN, 1, 12),
        (PLAIN, 2, 12),
        (SPACED, 1, 11),
        (CANONICAL, 1, 14),
    ]
    for cls_, genus, n in cases:
        sampler = StructureSampler(cls_, genus, n)
        rng = random.Random(7)
        for _ in range(60):
            d = sampler.sample(n, rng)
            assert d.n == n
            assert d.genus().genus == genus
            assert satisfies_constraints(d, cls_.min_arc, cls_.min_stack)
        first = [d.arcs for d in sampler.sample_many(n, 25, seed=99)]
        again = [d.arcs for d in sampler.sample_many(n, 25, seed=99)]
        assert first == again
        other = [d.arcs for d in sampler.sample_many(n, 25, seed=100)]
        assert first != other


def test_uniform_over_full_family_genus_one():
    """Chi-square over all 420 structures at n=8, genus 1."""
    family = {d.arcs: 1 for d in enumerate_diagrams(8, genus=1)}
    assert len(family) == 420
    sampler = StructureSampler(PLAIN, 1, 8)
    observed: dict = {}
    for d in sampler.sample_many(8, 21000, seed=5):
        observed[d.arcs] = observed.get(d.arcs, 0) + 1
    assert set(observed) <= set(family)
    assert min(observed.values()) >= 1 and len(observed) == 420
    stat, dof = chi_square(observed, family)
    assert dof == 419
    assert chi_square_pvalue(stat, dof) > 1e-3


def test_uniform_over_full_family_genus_zero():
    family = {d.arcs: 1 for d in enumerate_diagrams(9, genus=0)}
    assert len(family) == 835
    sampler = StructureSampler(PLAIN, 0, 9)
    observed: dict = {}
    for d in sampler.sample_many(9, 12600, seed=11):
        observed[d.arcs] = observed.get(d.arcs, 0) + 1
    stat, dof = chi_square(observed, family)
    assert chi_square_pvalue(stat, dof) > 1e-3


def test_uniform_over_full_family_canonical():
    family = {d.arcs: 1 for d in enumerate_diagrams(12, 2, 2, genus=1)}
    assert len(family) == 106
    sampler = StructureSampler(CANONICAL, 1, 12)
    observed: dict = {}
    for d in sampler.sample_many(12, 9000, seed=17):
        observed[d.arcs] = observed.get(d.arcs, 0) + 1
    stat, dof = chi_square(observed, family)
    assert chi_square_pvalue(stat, dof) > 1e-3


def _draw_probabilities(sampler: StructureSampler, n: int, monkeypatch) -> dict:
    """The exact probability of every structure a draw of length n can return.

    ``_choose`` is replaced by a script: it replays a prefix of indices, then
    takes the first index of nonzero weight.  Each path is walked once, and
    each later choice point schedules its other nonzero indices, so every
    choice path of nonzero weight is walked exactly once.
    """
    script: list[int] = []
    path: list[tuple[int, list[int]]] = []

    def scripted(getrandbits, cum):
        weights = [b - a for a, b in zip([0, *cum], cum)]
        if len(path) < len(script):
            i = script[len(path)]
        else:
            i = next(j for j, w in enumerate(weights) if w)
        path.append((i, weights))
        return i

    monkeypatch.setattr(sampler_module, "_choose", scripted)
    hits: dict = {}
    todo = [[]]
    while todo:
        script, path = todo.pop(), []
        arcs = sampler.sample(n, random.Random(0)).arcs
        p = Fraction(1)
        for depth, (i, weights) in enumerate(path):
            p *= Fraction(weights[i], sum(weights))
            if depth >= len(script):
                prefix = [j for j, _ in path[:depth]]
                todo.extend(prefix + [j] for j in range(i + 1, len(weights)) if weights[j])
        hits[arcs] = hits.get(arcs, 0) + p
    return hits


@pytest.mark.parametrize(
    "lam, r, genus, n",
    [(1, 1, 0, 9), (2, 1, 0, 10), (2, 2, 0, 12), (3, 2, 0, 12),
     (1, 1, 1, 8), (2, 2, 1, 12), (1, 1, 2, 10)],
)
def test_every_structure_is_drawn_with_probability_exactly_one_over_the_family(
    lam, r, genus, n, monkeypatch
):
    family = {d.arcs for d in enumerate_diagrams(n, lam, r, genus=genus)}
    sampler = StructureSampler(StructureClass(lam, r), genus, n)
    hits = _draw_probabilities(sampler, n, monkeypatch)
    assert family and set(hits) == family
    assert set(hits.values()) == {Fraction(1, len(family))}


def test_arc_marginal_and_mean_beyond_enumeration():
    """At n=16 the arc-count marginal matches the exact distribution."""
    weights = {
        k: c for k, c in enumerate(arc_distribution(PLAIN, 1, 16)) if c
    }
    sampler = StructureSampler(PLAIN, 1, 16)
    draws = sampler.sample_many(16, 20000, seed=23)
    observed: dict = {}
    for d in draws:
        observed[len(d.arcs)] = observed.get(len(d.arcs), 0) + 1
    stat, dof = chi_square(observed, weights)
    assert chi_square_pvalue(stat, dof) > 1e-3
    total = sum(weights.values())
    mean = Fraction(sum(k * c for k, c in weights.items()), total)
    second = Fraction(sum(k * k * c for k, c in weights.items()), total)
    var = float(second - mean * mean)
    emp = sum(len(d.arcs) for d in draws) / len(draws)
    se = (var / len(draws)) ** 0.5
    assert abs(emp - float(mean)) < 5 * se


def test_enumerative_fallback():
    pool = {d.arcs for d in enumerate_diagrams(8, genus=1)}
    first = sample_enumerative(PLAIN, 1, 8, 40, seed=4)
    again = sample_enumerative(PLAIN, 1, 8, 40, seed=4)
    assert [d.arcs for d in first] == [d.arcs for d in again]
    assert all(d.arcs in pool for d in first)
    with pytest.raises(ValueError):
        sample_enumerative(PLAIN, 1, 3, 5, seed=0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        StructureSampler(PLAIN, -1, 10)
    with pytest.raises(ValueError):
        StructureSampler(PLAIN, 1, -1)
    with pytest.raises(ValueError):
        StructureSampler(StructureClass(3, 1), 1, 10)
    sampler = StructureSampler(PLAIN, 1, 10)
    assert sampler.count(3) == 0
    rng = random.Random(0)
    with pytest.raises(ValueError):
        sampler.sample(3, rng)
    with pytest.raises(ValueError):
        sampler.sample(11, rng)
    # genus 0 at length 0 is the empty structure, not an error
    empty = StructureSampler(PLAIN, 0, 4)
    assert empty.sample(0, rng).n == 0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: StructureClass(0, 1), "min_arc must be at least 1, got 0"),
        (lambda: StructureClass(1, -2), "min_stack must be at least 1, got -2"),
        (lambda: StructureSampler(PLAIN, -1, 5), "genus must be nonnegative, got -1"),
        (lambda: StructureSampler(PLAIN, 1, -5), "max_len must be nonnegative, got -5"),
        (lambda: StructureSampler(PLAIN, 0, 4).sample_many(4, -3), "draws must be nonnegative, got -3"),
        (lambda: sample_enumerative(PLAIN, 1, 8, -3), "draws must be nonnegative, got -3"),
        (lambda: validate_constraints(Diagram(4), 0, 1), "min_arc must be at least 1, got 0"),
        (lambda: validate_constraints(Diagram(4), 1, 0), "min_stack must be at least 1, got 0"),
        (lambda: Diagram(-1), "vertex count must be nonnegative, got -1"),
        (lambda: shape_weights(0), "shape weights are defined for genus >= 1, got 0"),
        (lambda: irreducible_poly(0), "irreducible shadows require genus >= 1, got 0"),
        (lambda: inventory_cap(-1, 10, 1), "genus must be nonnegative, got -1"),
        (lambda: chi_square_pvalue(-1.0, 3), "stat must be finite and nonnegative, got -1.0"),
        (lambda: chi_square_pvalue(float("nan"), 3), "stat must be finite and nonnegative, got nan"),
        (lambda: chi_square_pvalue(float("inf"), 3), "stat must be finite and nonnegative, got inf"),
    ],
)
def test_refusals_name_the_argument_and_the_value(call, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        call()


@pytest.mark.parametrize("cls_", [(1, 1), None, "(1, 1)"])
def test_sampler_refuses_a_class_that_is_not_a_structure_class(cls_):
    message = f"cls_ must be a StructureClass, got {cls_!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        StructureSampler(cls_, 0, 10)


def test_inventory_cap_is_the_shape_polynomial_degree():
    """The cap reads 6g - 1 without building the shape polynomial."""
    assert inventory_cap(0, 100, 1) == shape_poly(0).degree == 0
    for g in range(1, 6):
        assert inventory_cap(g, 10**6, 1) == shape_poly(g).degree == 6 * g - 1
    assert inventory_cap(1000, 10**6, 1) == 5999  # shape_poly(1000) takes minutes
    assert inventory_cap(3, 20, 2) == 5  # at most 20 // 4 stacks of two fit


def test_empirical_stats_matches_census_on_full_family():
    """Aggregating the whole family reproduces the census row exactly."""
    from toporna.oracle import full_census
    from toporna.sampler import empirical_stats

    family = list(enumerate_diagrams(8, genus=1))
    report = empirical_stats(family)
    row = full_census(8, 1, 1, max_genus=1)[1]
    assert report["draws"] == row["count"] == 420
    assert report["arcs"] == row["arcs"]
    assert report["arc_hist"] == row["arc_hist"]
    assert report["loops"] == row["loops"]
    assert report["pk"] == row["pk"]
    with pytest.raises(ValueError):
        empirical_stats([])


def test_empirical_stats_leaves_the_plan_cache_as_it_found_it():
    from toporna.sampler import empirical_stats

    family = list(enumerate_diagrams(9, genus=1))
    for warm in (False, True):
        oracle._plans.clear()
        if warm:
            oracle._census_rows.clear()
            oracle.full_census(9, 1, 1, 1)
        before = dict(oracle._plans)
        assert bool(before) == warm
        empirical_stats(family)
        assert oracle._plans == before


def test_chi_square_helpers():
    stat, dof = chi_square({"a": 30, "b": 60, "c": 10}, {"a": 3, "b": 6, "c": 1})
    assert stat == pytest.approx(0.0)
    assert dof == 2
    # canonical 5% critical value for five degrees of freedom
    assert chi_square_pvalue(11.0705, 5) == pytest.approx(0.05, abs=2e-4)
    assert chi_square_pvalue(0.0, 3) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        chi_square({"x": 5}, {"a": 1})
    with pytest.raises(ValueError):
        chi_square({}, {"a": 1})
    with pytest.raises(ValueError):
        chi_square_pvalue(1.0, 0)
    # zero-weight bins are dropped from the support
    stat, dof = chi_square({"a": 10}, {"a": 1, "b": 0})
    assert dof == 0 and stat == pytest.approx(0.0)


#: (stat, dof, upper tail), as mpmath's regularized incomplete gamma function
#: gave them at 30 digits: criterion 8's 148 and 4 degrees of freedom, and a
#: small grid of odd and even ones.
PVALUE_PINS = [
    (100.0, 148, 0.9991135674117169),
    (148.0, 148, 0.4845401751533863),
    (200.0, 148, 0.002848577503633545),
    (250.0, 148, 3.217624763254891e-07),
    (0.25, 4, 0.9928090154076699),
    (4.0, 4, 0.40600584970983805),
    (15.0, 4, 0.0047012171462565856),
    (30.0, 4, 4.8944371280292126e-06),
    (0.5, 1, 0.4795001221869535),
    (3.0, 1, 0.0832645166635504),
    (12.0, 1, 0.0005320055051392497),
    (60.0, 1, 9.485737571073848e-15),
    (0.5, 2, 0.7788007830714049),
    (60.0, 2, 9.357622968840175e-14),
    (3.0, 3, 0.39162517627108895),
    (60.0, 3, 5.878230727906912e-13),
    (12.0, 5, 0.03478778050624185),
    (60.0, 5, 1.215456977718304e-11),
    (0.5, 10, 0.999993388289439),
    (12.0, 10, 0.2850565003166312),
    (60.0, 10, 3.6243009520614882e-09),
    (0.5, 31, 1.0),
    (3.0, 31, 0.9999999999746513),
    (60.0, 31, 0.0013497859785251325),
]


@pytest.mark.parametrize("stat, dof, want", PVALUE_PINS)
def test_chi_square_pvalue_is_pinned(stat, dof, want):
    assert chi_square_pvalue(stat, dof) == pytest.approx(want, rel=1e-12, abs=0)
