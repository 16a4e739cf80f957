"""Generating functions for structures with crossing arcs, filtered by genus.

A structure class fixes two constraints: a minimal span for hairpin-closing
arcs (``min_arc``) and a minimal length for every stack (``min_stack``).
Within a class, the genus-0 series comes from a quadratic functional
equation; genus-g series are obtained by substituting it into the finite
shape polynomial of that genus.  Most functions return a :class:`YJet`, the
series together with its first two derivatives in a marker variable y
evaluated at y = 1, which is enough to read off exact expectations and
variances of the marked statistic.

Two kinds of family live here.  The algebraic ones, :func:`d0_series`,
:func:`dg_series` and :func:`pk_marked_dg_jet`, are computed exactly in
Q(x)(S), with S the square root of the discriminant at y = 1, as
:class:`~toporna.series.AlgebraicSeries`, and expanded only at the end.  The
arc-marked jets (:func:`d0_jet`, :func:`dg_jet`, :func:`dg_via_chords`), the
loop-marked jets and the bivariate series (:func:`dg_bivariate`,
:func:`arc_distribution`) stay on truncated-series arithmetic; they are the
independent route the algebraic families are checked against.

Everything here is exact; coefficients are ints (occasionally Fractions in
intermediate steps).  Results are truncated power series in x, where x
counts vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagram import LOOP_KINDS
from .recursions import MARK_KINDS, chord_series, marked_shape_poly, shape_poly
from .series import (
    AlgebraicSeries,
    BivariateSeries,
    Polynomial,
    TruncatedSeries,
    XYPolynomial,
    YJet,
)


@dataclass(frozen=True)
class StructureClass:
    """Constraint pair: minimal hairpin span and minimal stack length."""

    min_arc: int = 1
    min_stack: int = 1

    def __post_init__(self):
        if self.min_arc < 1:
            raise ValueError("min_arc must be at least 1")
        if self.min_stack < 1:
            raise ValueError("min_stack must be at least 1")


def _require_inflatable(cls_: StructureClass) -> None:
    if cls_.min_arc > cls_.min_stack + 1:
        raise ValueError(
            "genus inflation requires min_arc <= min_stack + 1; "
            f"got min_arc={cls_.min_arc}, min_stack={cls_.min_stack}"
        )


def core_polys(cls_: StructureClass) -> tuple[XYPolynomial, XYPolynomial]:
    """The pair (A, B) entering the quadratic equation for the genus-0 series.

    With q = x^2 y marking an arc, A = 1 - q + q^r and
    B = (1 - x) A + q^r (1 + x + ... + x^(min_arc - 2)).  The genus-0
    series solves q^r D^2 - B D + A = 0.
    """
    r = cls_.min_stack
    q = XYPolynomial.monomial(2, 1)
    qr = XYPolynomial.monomial(2 * r, r)
    a = XYPolynomial.constant(1) - q + qr
    run = XYPolynomial()
    for i in range(cls_.min_arc - 1):
        run = run + XYPolynomial.monomial(i, 0)
    b = (XYPolynomial.constant(1) - XYPolynomial.monomial(1, 0)).mul(a) + qr.mul(run)
    return a, b


def discriminant_poly(cls_: StructureClass) -> XYPolynomial:
    """B^2 - 4 (x^2 y)^r A; its root curve carries the dominant singularity."""
    a, b = core_polys(cls_)
    qr = XYPolynomial.monomial(2 * cls_.min_stack, cls_.min_stack)
    return b.mul(b) - qr.mul(a) * 4


def _arc_marker_jet(r: int, order: int) -> YJet:
    """Jet of (x^2 y)^r at y = 1."""
    return YJet.marker_power(r, order).shift(2 * r)


def _check_order(order: int) -> None:
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")


def _d0(cls_: StructureClass) -> AlgebraicSeries:
    """The genus-0 series (B - S) / (2 x^(2r)) at y = 1, with S^2 the discriminant."""
    r = cls_.min_stack
    b = core_polys(cls_)[1].at_y(1)
    delta = discriminant_poly(cls_).at_y(1)
    return AlgebraicSeries(delta, b, Polynomial([-1]), Polynomial.x_power(2 * r) * 2)


def _stack_substitution(cls_: StructureClass, d0: AlgebraicSeries) -> AlgebraicSeries:
    """w = x^(2r) D0^2 / (1 - x^2 - x^(2r) (D0^2 - 1)), the series each shape arc becomes."""
    x2r = AlgebraicSeries(d0.delta, Polynomial.x_power(2 * cls_.min_stack))
    x2 = AlgebraicSeries(d0.delta, Polynomial.x_power(2))
    return x2r * d0 * d0 / (1 - x2 - x2r * (d0 * d0 - 1))


def d0_series(cls_: StructureClass, order: int) -> TruncatedSeries:
    """Genus-0 structure counts by length (marker set to 1)."""
    _check_order(order)
    return _d0(cls_).series(order)


def d0_jet(cls_: StructureClass, order: int) -> YJet:
    """Genus-0 series with the marker counting arcs."""
    r = cls_.min_stack
    a, b = core_polys(cls_)
    inner = max(order, b.x_degree() + 1 - 2 * r)  # room for every term of B
    wide = inner + 2 * r
    aj = YJet.from_xy_poly(a, wide)
    bj = YJet.from_xy_poly(b, wide)
    disc = bj * bj - _arc_marker_jet(r, wide) * aj * 4
    num = bj - disc.sqrt()
    two = YJet.constant(2, 2 * r, 2 * r * (r - 1), inner)
    return (num.shifted_down(2 * r) / two).truncate(order)


def dg_series(cls_: StructureClass, genus: int, order: int) -> TruncatedSeries:
    """Genus-g structure counts by length."""
    _check_order(order)
    if genus < 0:
        raise ValueError(f"genus must be nonnegative, got {genus}")
    d0 = _d0(cls_)
    if genus == 0:
        return d0.series(order)
    _require_inflatable(cls_)
    w = _stack_substitution(cls_, d0)
    return (d0 * _horner(shape_poly(genus), w)).series(order)


def dg_jet(cls_: StructureClass, genus: int, order: int) -> YJet:
    """Genus-g series with the marker counting arcs."""
    if genus == 0:
        return d0_jet(cls_, order)
    _require_inflatable(cls_)
    d0 = d0_jet(cls_, order)
    arc1 = _arc_marker_jet(1, order)
    arcr = _arc_marker_jet(cls_.min_stack, order)
    w = arcr * d0 * d0 / (1 - arc1 - arcr * (d0 * d0 - 1))
    return d0 * _horner(shape_poly(genus), w)


def _horner(poly: Polynomial, w):
    """``poly`` evaluated at ``w``, a YJet or an AlgebraicSeries."""
    acc = w * 0
    for c in reversed(poly.coeffs):
        acc = acc * w + c
    return acc


def _dseries(f: TruncatedSeries) -> TruncatedSeries:
    """Derivative, top coefficient dropped to keep the truncation order.

    The missing top term only matters when the result is composed with an
    inner series of valuation 1, which never happens here: all inner series
    start at x^2 or later.
    """
    coeffs = [(n + 1) * f.coeff(n + 1) for n in range(f.order - 1)]
    coeffs.append(0)
    return TruncatedSeries(coeffs, f.order)


def dg_via_chords(cls_: StructureClass, genus: int, order: int) -> YJet:
    """Genus-g series computed through the chord-diagram series instead.

    Uses the alternative form (A/B) C_g(q^r A / B^2) with q = x^2 y.  Agrees
    with :func:`dg_jet`; kept as an independent route for cross-checking.
    """
    if genus >= 1:
        _require_inflatable(cls_)
    a, b = core_polys(cls_)
    aj = YJet.from_xy_poly(a, order)
    bj = YJet.from_xy_poly(b, order)
    u = _arc_marker_jet(cls_.min_stack, order) * aj / (bj * bj)
    outer = chord_series(genus, order + 2, "recursion")
    f1 = _dseries(outer).truncate(order)
    f2 = _dseries(_dseries(outer)).truncate(order)
    f0 = outer.truncate(order)
    value = f0.compose(u.value)
    slope = f1.compose(u.value)
    d1 = slope * u.d1
    d2 = f2.compose(u.value) * u.d1 * u.d1 + slope * u.d2
    return (aj / bj) * YJet(value, d1, d2)


def loop_marked_d0_jet(cls_: StructureClass, kind: str, order: int) -> YJet:
    """Genus-0 series with the marker counting one loop statistic.

    ``kind`` is one of the five loop kinds, or "stem" (which marks hairpins
    and multiloops together, one per stem), or "arc" (recovering
    :func:`d0_jet` through the grammar route).
    """
    if kind not in LOOP_KINDS and kind not in ("stem", "arc"):
        raise ValueError(f"unknown loop kind {kind!r}")
    lam, r = cls_.min_arc, cls_.min_stack
    x = TruncatedSeries.x(order)
    inv1x = TruncatedSeries.one(order) / (1 - x)
    one_j = YJet.plain(TruncatedSeries.one(order))
    y = YJet.marker_power(1, order)
    run = YJet.plain(x * inv1x)
    hairpin_fill = YJet.plain(TruncatedSeries.x_power(lam - 1, order) * inv1x)
    if kind == "arc":
        sigma = _arc_marker_jet(r, order) / (1 - _arc_marker_jet(1, order))
    else:
        plain = TruncatedSeries.x_power(2 * r, order) / (
            1 - TruncatedSeries.x_power(2, order)
        )
        sigma = YJet.plain(plain)
    marks = {k: one_j for k in LOOP_KINDS}
    if kind == "stem":
        marks["hairpin"] = y
        marks["multi"] = y
    elif kind in marks:
        marks[kind] = y
    gap_j = YJet.plain(inv1x)
    closed = YJet.plain(TruncatedSeries.zero(order))
    for _ in range(order + 1):
        spread = closed * gap_j
        multi = spread * spread * gap_j / (1 - spread)
        body = marks["hairpin"] * hairpin_fill
        body = body + marks["bulge"] * run * closed * 2
        body = body + marks["interior"] * run * run * closed
        body = body + marks["multi"] * multi
        refined = marks["stack"] * sigma * body
        if refined == closed:
            break
        closed = refined
    return one_j / (1 - YJet.plain(x) - closed)


def _loop_substitution(
    cls_: StructureClass, kind: str, z: YJet, order: int
) -> YJet:
    """Per-arc replacement series used when inflating a shape, marker included."""
    r = cls_.min_stack
    x = TruncatedSeries.x(order)
    x2 = YJet.plain(TruncatedSeries.x_power(2, order))
    x2r = YJet.plain(TruncatedSeries.x_power(2 * r, order))
    y = YJet.marker_power(1, order)
    run = YJet.plain(x / (1 - x))
    z2 = z * z
    if kind == "stack":
        num = x2r * y * z2
        den = 1 - x2 - x2r * y * (z2 - 1)
    elif kind == "hairpin":
        num = x2r * z2
        den = 1 - x2 - x2r * (z2 - 1)
    elif kind == "bulge":
        num = x2r * z2
        den = 1 - x2 - x2r * (z2 - 1 - run * (1 - y) * 2)
    elif kind == "interior":
        num = x2r * z2
        den = 1 - x2 - x2r * (z2 - 1 - run * run * (1 - y))
    elif kind == "multi":
        num = x2r * z2
        den = 1 - x2 - x2r * (y * (z2 - 1) + (run * 2 + run * run) * (1 - y))
    else:
        raise ValueError(f"unknown loop kind {kind!r}")
    return num / den


def loop_marked_dg_jet(
    cls_: StructureClass, genus: int, kind: str, order: int
) -> YJet:
    """Genus-g series with the marker counting one loop statistic."""
    if genus == 0:
        return loop_marked_d0_jet(cls_, kind, order)
    if kind == "stem":
        raise ValueError("stem marking is only available at genus 0")
    if kind not in LOOP_KINDS:
        raise ValueError(f"unknown loop kind {kind!r}")
    _require_inflatable(cls_)
    z = loop_marked_d0_jet(cls_, kind, order)
    h = _loop_substitution(cls_, kind, z, order)
    return z * _horner(shape_poly(genus), h)


def pk_marked_dg_jet(
    cls_: StructureClass, genus: int, kind: str, order: int
) -> YJet:
    """Genus-g series with the marker counting crossing blocks of one type.

    ``kind`` selects one of the four genus-1 block types (see
    :data:`toporna.recursions.MARK_KINDS`).  Arcs are unmarked here; only
    whole blocks whose shadow matches the requested type count.
    """
    if kind not in MARK_KINDS:
        raise ValueError(f"unknown block kind {kind!r}")
    if genus < 1:
        raise ValueError(f"block marking needs genus at least 1, got {genus}")
    _check_order(order)
    _require_inflatable(cls_)
    d0 = _d0(cls_)
    w = _stack_substitution(cls_, d0)
    jets = marked_shape_poly(genus, kind).y1_jets()
    return YJet(*((d0 * _horner(p, w)).series(order) for p in jets))


def _biv_const(value, order: int) -> BivariateSeries:
    return BivariateSeries.from_xy_poly(XYPolynomial.constant(value), order)


def d0_bivariate(cls_: StructureClass, order: int) -> BivariateSeries:
    """Genus-0 series with full arc-count resolution per length."""
    r = cls_.min_stack
    wide = order + 2 * r
    a, b = core_polys(cls_)
    ab = BivariateSeries.from_xy_poly(a, wide)
    bb = BivariateSeries.from_xy_poly(b, wide)
    qr = BivariateSeries.from_xy_poly(XYPolynomial.monomial(2 * r, r), wide)
    disc = bb * bb - qr * ab * 4
    num = bb - disc.sqrt()
    return num.shifted_down(2 * r).y_shifted_down(r) / 2


def dg_bivariate(cls_: StructureClass, genus: int, order: int) -> BivariateSeries:
    """Genus-g series with full arc-count resolution per length."""
    if genus == 0:
        return d0_bivariate(cls_, order)
    _require_inflatable(cls_)
    r = cls_.min_stack
    d0 = d0_bivariate(cls_, order)
    one = BivariateSeries.one(order)
    q1 = BivariateSeries.from_xy_poly(XYPolynomial.monomial(2, 1), order)
    qr = BivariateSeries.from_xy_poly(XYPolynomial.monomial(2 * r, r), order)
    w = qr * d0 * d0 / (one - q1 - qr * (d0 * d0 - one))
    acc = BivariateSeries.zero(order)
    for c in reversed(shape_poly(genus).coeffs):
        acc = acc * w + _biv_const(c, order)
    return d0 * acc


def structure_counts(cls_: StructureClass, genus: int, order: int) -> list[int]:
    """Counts of genus-g structures for each length below ``order``."""
    series = dg_series(cls_, genus, order)
    return [series.coeff(n) for n in range(order)]


def arc_distribution(cls_: StructureClass, genus: int, n: int) -> list[int]:
    """Counts of genus-g structures of length ``n``, split by number of arcs."""
    biv = dg_bivariate(cls_, genus, n + 1)
    return biv.y_poly(n)


def expected_marks(jet: YJet, n: int) -> Fraction:
    """Exact mean of the marked statistic over length-n structures."""
    total = jet.value.coeff(n)
    if total == 0:
        raise ZeroDivisionError(f"no structures of length {n}")
    return Fraction(jet.d1.coeff(n)) / Fraction(total)


def marks_variance(jet: YJet, n: int) -> Fraction:
    """Exact variance of the marked statistic over length-n structures."""
    total = Fraction(jet.value.coeff(n))
    if total == 0:
        raise ZeroDivisionError(f"no structures of length {n}")
    mean = Fraction(jet.d1.coeff(n)) / total
    second = Fraction(jet.d2.coeff(n)) / total
    return second + mean - mean * mean
