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
:func:`dg_series`, :func:`arc_distribution`, :func:`pk_marked_dg_jet` and
the arc-marked jets :func:`d0_jet` and :func:`dg_jet`, are computed exactly
in Q(x)(S), with S the square root of the discriminant at an integer marker
value y, as :class:`~toporna.series.AlgebraicSeries`, and expanded only at
the end.  An arc-marked jet holds D_g and its first two y-derivatives at
y = 1 as three such elements; D_0's jet is that of the root of its
quadratic equation at the element D_0, by implicit differentiation in y,
so no square root but S itself is taken.  At y = 1 every element is
reduced over the class's factor base: the coprime, squarefree factors of
the discriminant Delta(x, 1) and of the norm of w's denominator, w being
the series each shape arc becomes.  Every denominator is a power of x
times a power product of that base, so trial division keeps the degrees
small.  :func:`arc_distribution` evaluates D_g(x, y) at y = 1, ..., n/2 + 1
and interpolates the polynomial [x^n] D_g exactly.

The chord-diagram route :func:`dg_via_chords` and the loop-marked jets
stay on truncated-series arithmetic.  :func:`dg_via_chords` is the
independent derivation the arc-marked jets are checked against.  The
loop-marked jets take the root of the loop grammar's genus-0 quadratic the
same way: its value at y = 1 is read off the genus-0 element, which must
solve the quadratic exactly, and its y-derivatives follow by implicit
differentiation.  One table of markers drives that root and the series
each shape arc becomes.

Everything here is exact: coefficients are ints, and every division on
the way is exact or raises ``ArithmeticError``.  Results are truncated
power series in x, where x counts vertices; only :func:`expected_marks`
and :func:`marks_variance` return rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .diagram import LOOP_KINDS
from .recursions import MARK_KINDS, chord_series, marked_shape_poly, shape_poly
from .series import (
    AlgebraicSeries,
    Polynomial,
    TruncatedSeries,
    XYPolynomial,
    YJet,
    _exact_quotient,
    coprime_base,
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


def require_inflatable(cls_: StructureClass) -> None:
    """Raise ``ValueError`` unless stacks of this class can inflate a shape arc.

    Positive genus needs min_arc <= min_stack + 1; the genus-g series and
    the sampler's chains are built on that inflation.
    """
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


def _check_genus(genus: int) -> None:
    if genus < 0:
        raise ValueError(f"genus must be nonnegative, got {genus}")


def _elements(
    cls_: StructureClass, y: int, base: tuple[Polynomial, ...]
) -> tuple[AlgebraicSeries, ...]:
    """D0, q = x^2 y and q^r at marker value y, as elements of Q(x)(S).

    D0 = (B - S) / (2 q^r) is the genus-0 series, with S^2 the
    discriminant at y; ``base`` is the factor base the elements carry.
    """
    delta = discriminant_poly(cls_).at_y(y)
    b = core_polys(cls_)[1].at_y(y)
    r = cls_.min_stack
    qr = Polynomial.x_power(2 * r) * y**r
    return (
        AlgebraicSeries(delta, b, Polynomial([-1]), qr * 2, base),
        AlgebraicSeries(delta, Polynomial.x_power(2) * y, base=base),
        AlgebraicSeries(delta, qr, base=base),
    )


# A cached element holds 10-35 kB (traced at (4,3), genus 2, where unreduced
# elements at y >= 2 reach degree 242), and arc_distribution adds one per y,
# so these caches are bounded.
_CLASS_CACHE = 64


@lru_cache(maxsize=None)
def _factor_base(cls_: StructureClass) -> tuple[Polynomial, ...]:
    """The coprime base of the discriminant and of E, the norm of w's denominator, at y = 1.

    Every denominator of D_g and of its marker derivatives at y = 1 is, up
    to a constant and a power of x, a power product of these factors.
    """
    d0, q, qr = _elements(cls_, 1, ())
    return coprime_base((d0.delta, (1 - q - qr * (d0 * d0 - 1)).norm()))


@lru_cache(maxsize=_CLASS_CACHE)
def _element_jets(cls_: StructureClass) -> tuple[YJet, ...]:
    """Jets at y = 1 of D0, q and q^r, reduced over the class's factor base.

    D0's jet is that of the root of q^r D^2 - B D + A = 0 at the element
    D0, by implicit differentiation in y (:meth:`YJet.quadratic_root`).
    """
    d0 = _elements(cls_, 1, _factor_base(cls_))[0]

    def jet(poly: XYPolynomial) -> YJet:
        return YJet(*(AlgebraicSeries(d0.delta, p, base=d0.base) for p in poly.y1_jets()))

    a, b = core_polys(cls_)
    r = cls_.min_stack
    qr = jet(XYPolynomial.monomial(2 * r, r))
    return YJet.quadratic_root(qr, -jet(b), jet(a), d0), jet(XYPolynomial.monomial(2, 1)), qr


def _stack_substitution(d0, q, qr):
    """w = q^r D0^2 / (1 - q - q^r (D0^2 - 1)), the series each shape arc becomes."""
    return qr * d0 * d0 / (1 - q - qr * (d0 * d0 - 1))


def _genus_series(genus: int, d0, q, qr):
    """D_g = D0 P_g(w) from D0, q and q^r: elements or their jets."""
    if genus == 0:
        return d0
    return d0 * shape_poly(genus)(_stack_substitution(d0, q, qr))


@lru_cache(maxsize=_CLASS_CACHE)
def _dg(cls_: StructureClass, genus: int, y: int) -> AlgebraicSeries:
    """The genus-g series D_g(x, y) at marker value y, arcs marked by y.

    At y = 1 the elements are reduced over the class's factor base.  The
    base is built from the discriminant at y = 1 only; at y >= 2 the plain
    normal form measured faster than a base of that y's own.  Every
    argument is positional, so a call has one cache key.
    """
    _check_genus(genus)
    if genus:
        require_inflatable(cls_)
    base = _factor_base(cls_) if y == 1 else ()
    return _genus_series(genus, *_elements(cls_, y, base))


def d0_series(cls_: StructureClass, order: int) -> TruncatedSeries:
    """Genus-0 structure counts by length (marker set to 1)."""
    _check_order(order)
    return _dg(cls_, 0, 1).series(order)


def d0_jet(cls_: StructureClass, order: int) -> YJet:
    """Genus-0 series with the marker counting arcs."""
    return dg_jet(cls_, 0, order)


def dg_series(cls_: StructureClass, genus: int, order: int) -> TruncatedSeries:
    """Genus-g structure counts by length."""
    _check_order(order)
    return _dg(cls_, genus, 1).series(order)


def dg_jet(cls_: StructureClass, genus: int, order: int) -> YJet:
    """Genus-g series with the marker counting arcs.

    The jet is computed exactly in Q(x)(S) and expanded only at the end.
    """
    _check_order(order)
    return _genus_jet(cls_, genus).series(order)


@lru_cache(maxsize=_CLASS_CACHE)
def _genus_jet(cls_: StructureClass, genus: int) -> YJet:
    """D_g's jet at y = 1 as elements of Q(x)(S), before expansion."""
    _check_genus(genus)
    if genus:
        require_inflatable(cls_)
    return _genus_series(genus, *_element_jets(cls_))


def dg_via_chords(cls_: StructureClass, genus: int, order: int) -> YJet:
    """Genus-g series computed through the chord-diagram series instead.

    Uses the alternative form (A/B) C_g(q^r A / B^2) with q = x^2 y.  Agrees
    with :func:`dg_jet`; kept as an independent route for cross-checking.
    """
    _check_order(order)
    _check_genus(genus)
    if genus >= 1:
        require_inflatable(cls_)
    a, b = core_polys(cls_)
    wide = max(order, b.x_degree() + 1)  # room for every term of B
    aj = YJet.from_xy_poly(a, wide)
    bj = YJet.from_xy_poly(b, wide)
    u = _arc_marker_jet(cls_.min_stack, wide) * aj / (bj * bj)
    # Each derivative loses the top known term, so C_g is taken two terms
    # wider.  A lost term would only matter when composed with an inner
    # series of valuation 1; every inner series here starts at x^2 or later.
    outer = Polynomial(chord_series(genus, wide + 2, "recursion").coeffs)
    derivatives = (outer, outer.derivative(), outer.derivative().derivative())
    f0, f1, f2 = (TruncatedSeries(f.coeffs[:wide], wide) for f in derivatives)
    value = f0.compose(u.value)
    slope = f1.compose(u.value)
    d1 = slope * u.d1
    d2 = f2.compose(u.value) * u.d1 * u.d1 + slope * u.d2
    return ((aj / bj) * YJet(value, d1, d2)).truncate(order)


def _loop_marks(kind: str, order: int) -> dict[str, YJet | int]:
    """The marker of each loop kind: the jet of y where ``kind`` counts, else 1."""
    if kind not in LOOP_KINDS and kind != "stem":
        raise ValueError(f"unknown loop kind {kind!r}")
    counted = ("hairpin", "multi") if kind == "stem" else (kind,)
    y = YJet.marker_power(1, order)
    return {k: y if k in counted else 1 for k in LOOP_KINDS}


def loop_marked_d0_jet(cls_: StructureClass, kind: str, order: int) -> YJet:
    """Genus-0 series with the marker counting one loop statistic.

    ``kind`` is one of the five loop kinds, or "stem" (which marks hairpins
    and multiloops together, one per stem).  With G = 1/(1 - x), run = x G,
    s = m_stack x^(2r)/(1 - x^2), h = m_hairpin x^(min_arc - 1) G,
    l = 2 m_bulge run + m_interior run^2 and m = m_multi, the closed
    component C (a stack with everything it encloses) solves
    C (1 - C G) = s ((h + l C)(1 - C G) + m C^2 G^3),
    a quadratic a C^2 + b C + k = 0.  At y = 1 its root is C0 = 1 - x - 1/D0,
    from the genus-0 element; the marker derivatives follow by implicit
    differentiation (:meth:`YJet.quadratic_root`), which raises unless C0
    solves the quadratic.  The series is 1 / (1 - x - C).
    """
    _check_order(order)
    marks = _loop_marks(kind, order)
    x = TruncatedSeries.x(order)
    one = YJet.plain(TruncatedSeries.one(order))
    g = one / YJet.plain(1 - x)
    run = YJet.plain(x) * g
    arcs = YJet.plain(TruncatedSeries.x_power(2 * cls_.min_stack, order))
    s = marks["stack"] * arcs / (1 - YJet.plain(TruncatedSeries.x_power(2, order)))
    fill = YJet.plain(TruncatedSeries.x_power(cls_.min_arc - 1, order))
    h = marks["hairpin"] * fill * g
    loops = marks["bulge"] * run * 2 + marks["interior"] * run * run
    a = g + s * (marks["multi"] * g * g * g - loops * g)
    b = s * (loops - h * g) - 1
    closed = YJet.quadratic_root(a, b, s * h, (1 - 1 / _dg(cls_, 0, 1)).series(order) - x)
    return one / (1 - YJet.plain(x) - closed)


def loop_marked_dg_jet(
    cls_: StructureClass, genus: int, kind: str, order: int
) -> YJet:
    """Genus-g series with the marker counting one loop statistic.

    With Z the genus-0 series, each shape arc becomes the stack series
    x^(2r) m_stack Z^2 / (1 - x^2 - x^(2r) m_stack J), where
    J = m_multi (Z^2 - 1 - 2 run - run^2) + 2 m_bulge run + m_interior run^2
    marks the loop between two consecutive stacked arcs.
    """
    _check_order(order)
    _check_genus(genus)
    if genus == 0:
        return loop_marked_d0_jet(cls_, kind, order)
    if kind == "stem":
        raise ValueError("stem marking is only available at genus 0")
    marks = _loop_marks(kind, order)
    require_inflatable(cls_)
    z = loop_marked_d0_jet(cls_, kind, order)
    z2 = z * z
    x = TruncatedSeries.x(order)
    run = YJet.plain(x / (1 - x))
    x2 = YJet.plain(TruncatedSeries.x_power(2, order))
    arcs = YJet.plain(TruncatedSeries.x_power(2 * cls_.min_stack, order))
    arcs = marks["stack"] * arcs
    loops = marks["multi"] * (z2 - 1 - run * 2 - run * run)
    loops = loops + marks["bulge"] * run * 2 + marks["interior"] * run * run
    w = arcs * z2 / (1 - x2 - arcs * loops)
    return z * shape_poly(genus)(w)


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
    require_inflatable(cls_)
    d0, q, qr = _elements(cls_, 1, _factor_base(cls_))
    w = _stack_substitution(d0, q, qr)
    jets = marked_shape_poly(genus, kind).y1_jets()
    return YJet(*((d0 * p(w)).series(order) for p in jets))


def structure_counts(cls_: StructureClass, genus: int, order: int) -> list[int]:
    """Counts of genus-g structures for each length below ``order``."""
    series = dg_series(cls_, genus, order)
    return [series.coeff(n) for n in range(order)]


def arc_distribution(cls_: StructureClass, genus: int, n: int) -> list[int]:
    """Counts of genus-g structures of length ``n``, split by number of arcs.

    [x^n] D_g(x, y) is an integer polynomial in y of degree at most n/2.  It
    is evaluated at y = 1, ..., n/2 + 1 and interpolated in Newton form; at
    consecutive integer nodes every divided difference of an integer
    polynomial is an integer, so each division is exact or raises.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    top = n // 2 + 1
    diffs = [_dg(cls_, genus, y).series(n + 1).coeff(n) for y in range(1, top + 1)]
    for step in range(1, top):
        for i in range(top - 1, step - 1, -1):
            diffs[i] = _exact_quotient(diffs[i] - diffs[i - 1], step, "a divided difference")
    counts = Polynomial()
    for k in reversed(range(top)):  # Horner in the Newton basis
        counts = Polynomial([-k - 1, 1]) * counts + diffs[k]
    return counts.coeffs


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
