"""Acceptance gate: eight end-to-end checks over the whole library.

Each test covers one release criterion: the asymptotic mean-arc table, the
frozen polynomial pins, agreement between the generating-series pipeline and
brute-force enumeration, cross-route identities, the shadow censuses, exact
rate properties of the crossing-block types, growth-exponent fits, and
random-sampler uniformity.  Every test measures its own wall time against
the budget for that criterion.  A per-criterion PASS/FAIL summary is printed
at the end of the run by the hook in conftest.py.
"""

import time
from fractions import Fraction

import pytest

from toporna.asymptotics import fit_power_exponent, mean_arc_grid, singularity
from toporna.genfun import (
    LOOP_KINDS,
    StructureClass,
    arc_distribution,
    core_polys,
    d0_jet,
    dg_jet,
    dg_series,
    dg_via_chords,
    expected_marks,
    loop_marked_dg_jet,
    pk_marked_dg_jet,
)
from toporna.oracle import (
    enumerate_diagrams,
    full_census,
    irreducible_shadow_counts,
)
from toporna.recursions import (
    MARK_KINDS,
    chord_series,
    irreducible_poly,
    marked_shape_poly,
    shape_poly,
    shape_weights,
)
from toporna.sampler import StructureSampler, chi_square, chi_square_pvalue
from toporna.series import TruncatedSeries, XYPolynomial, YJet

PLAIN = StructureClass(1, 1)
SHIFTED = StructureClass(2, 1)
CANONICAL = StructureClass(2, 2)
CLASSES = (PLAIN, SHIFTED, CANONICAL)

#: Wall-time budget of each criterion in seconds; the conftest.py summary
#: prints it beside the time taken.
BUDGET_S = {
    1: 10.0,
    2: 1.0,
    3: 600.0,
    4: 60.0,
    5: 300.0,
    6: 120.0,
    7: 180.0,
    8: 300.0,
}

# Limiting mean arc density per (min_arc, min_stack) cell, rounded to four
# decimals.  Only cells with min_arc <= min_stack + 1 support structures of
# every positive genus, so the grid is triangular below the second row.
ARC_DENSITY_TABLE = {
    (1, 1): 0.3333, (1, 2): 0.3484, (1, 3): 0.3582,
    (1, 4): 0.3651, (1, 5): 0.3704, (1, 6): 0.3746,
    (2, 1): 0.2764, (2, 2): 0.3172, (2, 3): 0.3364,
    (2, 4): 0.3482, (2, 5): 0.3565, (2, 6): 0.3627,
    (3, 2): 0.2983, (3, 3): 0.3215, (3, 4): 0.3358,
    (3, 5): 0.3459, (3, 6): 0.3534,
    (4, 3): 0.3113, (4, 4): 0.3268, (4, 5): 0.3378, (4, 6): 0.3460,
    (5, 4): 0.3203, (5, 5): 0.3316, (5, 6): 0.3403,
    (6, 5): 0.3271, (6, 6): 0.3359,
}


@pytest.fixture(scope="module")
def long_series():
    """Order-401 series and marked jets for the unconstrained class."""
    order = 401
    return {
        "order": order,
        "rho": singularity(PLAIN),
        "d0": dg_series(PLAIN, 0, order),
        "d1": dg_series(PLAIN, 1, order),
        "d2": dg_series(PLAIN, 2, order),
        "pk": {kind: pk_marked_dg_jet(PLAIN, 1, kind, order) for kind in MARK_KINDS},
    }


def test_criterion_1_mean_arc_table():
    start = time.monotonic()
    grid = mean_arc_grid(6, 6)
    assert set(grid) == set(ARC_DENSITY_TABLE)
    for cell, expect in ARC_DENSITY_TABLE.items():
        assert abs(grid[cell] - expect) <= 5e-5, (cell, grid[cell], expect)
    elapsed = time.monotonic() - start
    assert elapsed < BUDGET_S[1], f"mean-arc grid took {elapsed:.1f}s"


def test_criterion_2_exact_polynomial_pins():
    start = time.monotonic()
    assert shape_weights(1) == {2: 1}
    assert shape_weights(2)[4] == 21
    assert shape_poly(1).coeffs == [0, 0, 1, 3, 3, 1]
    assert marked_shape_poly(1, "H").terms == {
        (2, 1): 1, (3, 0): 2, (3, 1): 1, (4, 0): 3, (5, 0): 1,
    }
    inner = XYPolynomial(
        {
            (0, 0): 17, (1, 0): 143, (2, 0): 447, (3, 0): 637,
            (4, 0): 420, (5, 0): 105,
            (1, 1): 20, (2, 1): 36, (3, 1): 14,
            (0, 2): 4, (1, 2): 5,
        }
    )
    square = XYPolynomial({(0, 0): 1, (1, 0): 2, (2, 0): 1})
    assert marked_shape_poly(2, "H") == XYPolynomial.monomial(4, 0).mul(square).mul(inner)
    assert irreducible_poly(1).coeffs == [0, 0, 1, 2, 1]
    assert irreducible_poly(2).coeffs == [
        0, 0, 0, 0, 17, 160, 566, 1004, 961, 476, 96,
    ]
    elapsed = time.monotonic() - start
    assert elapsed < BUDGET_S[2], f"polynomial pins took {elapsed:.1f}s"


def test_criterion_3_series_match_brute_force():
    start = time.monotonic()
    top = 14
    order = top + 1
    empty = {
        "count": 0,
        "arcs": 0,
        "loops": {kind: 0 for kind in LOOP_KINDS},
        "pk": {kind: 0 for kind in MARK_KINDS},
    }
    for cls_ in CLASSES:
        plain = {g: dg_jet(cls_, g, order) for g in (0, 1, 2)}
        loops = {
            (g, kind): loop_marked_dg_jet(cls_, g, kind, order)
            for g in (0, 1, 2)
            for kind in LOOP_KINDS
        }
        pks = {
            (g, kind): pk_marked_dg_jet(cls_, g, kind, order)
            for g in (1, 2)
            for kind in MARK_KINDS
        }
        for n in range(top + 1):
            census = full_census(n, cls_.min_arc, cls_.min_stack, max_genus=2)
            for g in (0, 1, 2):
                row = census.get(g, empty)
                where = (cls_.min_arc, cls_.min_stack, n, g)
                assert plain[g].value.coeff(n) == row["count"], where
                assert plain[g].d1.coeff(n) == row["arcs"], where
                for kind in LOOP_KINDS:
                    jet = loops[(g, kind)]
                    assert jet.value.coeff(n) == row["count"], where + (kind,)
                    assert jet.d1.coeff(n) == row["loops"][kind], where + (kind,)
                if g >= 1:
                    for kind in MARK_KINDS:
                        jet = pks[(g, kind)]
                        assert jet.value.coeff(n) == row["count"], where + (kind,)
                        assert jet.d1.coeff(n) == row["pk"][kind], where + (kind,)
    elapsed = time.monotonic() - start
    assert elapsed < BUDGET_S[3], f"census comparison took {elapsed:.1f}s"


def test_criterion_4_cross_route_identities():
    start = time.monotonic()
    order = 40
    zero = TruncatedSeries.zero(order)
    for g in (0, 1, 2, 3):
        base = chord_series(g, order, route="recursion")
        assert chord_series(g, order, route="closed") == base, g
        assert chord_series(g, order, route="shapes") == base, g
    for cls_ in CLASSES:
        a, b = core_polys(cls_)
        aj = YJet.from_xy_poly(a, order)
        bj = YJet.from_xy_poly(b, order)
        qr = YJet.marker_power(cls_.min_stack, order).shift(2 * cls_.min_stack)
        d0 = d0_jet(cls_, order)
        res = qr * d0 * d0 - bj * d0 + aj
        assert res.value == zero and res.d1 == zero and res.d2 == zero, cls_
        for g in (0, 1, 2):
            plain = dg_series(cls_, g, order)
            assert dg_jet(cls_, g, order).value == plain, (cls_, g)
            assert dg_via_chords(cls_, g, order) == dg_jet(cls_, g, order), (cls_, g)
            for kind in LOOP_KINDS:
                assert loop_marked_dg_jet(cls_, g, kind, order).value == plain
            if g >= 1:
                for kind in MARK_KINDS:
                    assert pk_marked_dg_jet(cls_, g, kind, order).value == plain
        total = TruncatedSeries.zero(order)
        for kind in MARK_KINDS:
            total = total + pk_marked_dg_jet(cls_, 1, kind, order).d1
        assert total == dg_series(cls_, 1, order), cls_
    elapsed = time.monotonic() - start
    assert elapsed < BUDGET_S[4], f"route identities took {elapsed:.1f}s"


def test_criterion_5_shadow_censuses():
    start = time.monotonic()
    assert irreducible_shadow_counts(4, 1) == {2: 1, 3: 2, 4: 1}
    deep = irreducible_shadow_counts(7, 2)
    assert deep == {4: 17, 5: 160, 6: 566, 7: 1004}
    closed = irreducible_poly(2).coeffs
    assert all(closed[k] == deep[k] for k in deep)
    elapsed = time.monotonic() - start
    assert elapsed < BUDGET_S[5], f"shadow censuses took {elapsed:.1f}s"


def test_criterion_6_crossing_type_rates(long_series):
    start = time.monotonic()
    order = long_series["order"]
    jets = long_series["pk"]
    # Every genus-1 structure carries exactly one crossing block, so the four
    # type counts partition the family identically in the algebra.
    total = TruncatedSeries.zero(order)
    for kind in MARK_KINDS:
        total = total + jets[kind].d1
    assert total == long_series["d1"]
    # The limit of n times the type-H fraction is 288/16 = 18; the scaled
    # finite-length means must close in on it monotonically.
    target = Fraction(18)
    gaps = {}
    for n in (100, 200, 400):
        mean = expected_marks(jets["H"], n)
        gaps[n] = abs(n * mean - target) / target
    assert gaps[200] < gaps[100] < Fraction(1)
    assert gaps[400] < gaps[200]
    elapsed = time.monotonic() - start
    assert elapsed < BUDGET_S[6], f"rate checks took {elapsed:.1f}s"
    scaled = 400 * expected_marks(jets["H"], 400)
    assert gaps[400] <= Fraction(1, 20), (
        f"n*mean(H) at n=400 is {float(scaled):.4f}, {float(gaps[400]):.1%} away "
        "from the limit 18; the finite-size correction decays like c/sqrt(n) "
        "with c near 3, so the 5% band is first reached around n=3600"
    )


def test_criterion_7_growth_exponents(long_series):
    start = time.monotonic()
    rho = long_series["rho"]
    fits = {}
    for name in ("d0", "d1", "d2"):
        exponent, _ = fit_power_exponent(long_series[name].coeffs, 200, 400, rho)
        fits[name] = float(exponent)
    assert abs(fits["d0"] + 1.5) <= 0.1, fits["d0"]
    assert abs(fits["d1"] - 1.5) <= 0.1, fits["d1"]
    assert abs(fits["d2"] - fits["d1"] - 3.0) <= 0.15, (fits["d1"], fits["d2"])
    elapsed = time.monotonic() - start
    assert elapsed < BUDGET_S[7], f"exponent fits took {elapsed:.1f}s"


def test_criterion_8_sampler_uniformity():
    start = time.monotonic()
    family = list(enumerate_diagrams(12, genus=1))
    assert len(family) == 74415
    # Deterministic partition of the family into equal-weight buckets large
    # enough for a valid chi-square at 1e5 draws.
    buckets = 149
    bucket_of = {}
    weights = {}
    for index, diagram in enumerate(family):
        bucket = index % buckets
        bucket_of[diagram.arcs] = bucket
        weights[bucket] = weights.get(bucket, 0) + 1
    sampler = StructureSampler(PLAIN, 1, 16)
    draws = sampler.sample_many(12, 100_000, seed=2026)
    observed = {}
    arc_observed = {}
    for diagram in draws:
        bucket = bucket_of[diagram.arcs]  # KeyError would mean a bad sample
        observed[bucket] = observed.get(bucket, 0) + 1
        arc_observed[diagram.num_arcs] = arc_observed.get(diagram.num_arcs, 0) + 1
    stat, dof = chi_square(observed, weights)
    assert dof == buckets - 1
    assert chi_square_pvalue(stat, dof) > 1e-3, float(stat)
    # Second view of the same draws: the arc-count marginal.
    arc_weights = {
        arcs: count
        for arcs, count in enumerate(arc_distribution(PLAIN, 1, 12))
        if count
    }
    stat, dof = chi_square(arc_observed, arc_weights)
    assert chi_square_pvalue(stat, dof) > 1e-3, float(stat)
    # Mean arc count at a length beyond the enumerated family, against the
    # exact first and second moments.
    tail = arc_distribution(PLAIN, 1, 16)
    total = sum(tail)
    mean = Fraction(sum(a * c for a, c in enumerate(tail)), total)
    second = Fraction(sum(a * a * c for a, c in enumerate(tail)), total)
    variance = second - mean * mean
    tail_draws = sampler.sample_many(16, 30_000, seed=4096)
    empirical = Fraction(sum(d.num_arcs for d in tail_draws), len(tail_draws))
    stderr = (float(variance) / len(tail_draws)) ** 0.5
    assert abs(float(empirical - mean)) <= 4 * stderr, (float(empirical), float(mean))
    # Fixed seed reproduces the run exactly.
    first = [d.arcs for d in sampler.sample_many(12, 50, seed=1234)]
    again = [d.arcs for d in sampler.sample_many(12, 50, seed=1234)]
    assert first == again
    elapsed = time.monotonic() - start
    assert elapsed < BUDGET_S[8], f"sampler checks took {elapsed:.1f}s"
