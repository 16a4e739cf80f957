"""Generating functions for structures with crossing arcs, filtered by genus.

A structure class fixes two constraints: a minimal span for hairpin-closing
arcs (``min_arc``) and a minimal length for every stack (``min_stack``).
Within a class, the genus-0 series comes from a quadratic functional
equation; genus-g series are obtained by substituting it into the finite
shape polynomial of that genus.  Most functions return a :class:`YJet`, the
series together with its first two derivatives in a marker variable y
evaluated at y = 1, which is enough to read off exact expectations and
variances of the marked statistic.

Every family is a closed form in Q(x)(R), R the square root of a
discriminant E, held as :class:`~toporna.series.AlgebraicSeries` and
expanded only at the end.  Each solves a quadratic
alpha Z^2 + beta Z + gamma = 0 over Z[x, y] at genus 0, with
E = beta^2 - 4 alpha gamma, root Z = (-beta - R) / (2 alpha) and shape-arc
series w = (-beta - R) / (2 m R).  One builder, :func:`_inflated`, forms
D_g = Z P_g(w) (P_g the genus-g shape polynomial) as one element
(p + q R) / (d E^j) of Z[x, y][R]; one rule, :func:`_element_jet`, reads
its value and two y-derivatives at y = 1.  No element is ever divided.

* Arcs: with q = x^2 y, D0 solves q^r D0^2 - B D0 + A = 0
  (:func:`core_polys`), the case (q^r, -B, A, 1) with E = Delta.  At
  positive genus the chord-diagram route D_g = (A/B) C_g(u),
  u = q^r A / B^2, C_g(u) = sum_n w(n) u^n (1 - 4u)^(-n-1/2) with the shape
  weights w(n) (Harer-Zagier), and 1 - 4u = Delta / B^2 give
  D_g = P Delta^(-N-1/2), P = sum_n w(n) A^(n+1) q^(rn) Delta^(N-n),
  N = 3g - 1: the element (0, P, 1, Delta, N + 1), with P from the one
  weight sum :func:`toporna.recursions._weight_sum`.  :func:`dg_series` and
  :func:`arc_distribution` evaluate it at integer y; the latter
  interpolates [x^n] D_g exactly from y = 1, ..., n/2 + 1.
* Loops: with G = 1/(1 - x), run = x G, s = m_stack x^(2r)/(1 - x^2),
  h = m_hairpin x^(min_arc - 1) G, l = 2 m_bulge run + m_interior run^2
  and m = m_multi, the closed component C (a stack with all it encloses)
  solves C (1 - C G) = s ((h + l C)(1 - C G) + m C^2 G^3).  Substituting
  C = 1 - x - 1/D, since D = 1/(1 - x - C), and multiplying through by
  (1 - x)^4 (1 + x) leaves the quadratic :func:`_loop_quadratic`.
* Crossing blocks: the arc case at y = 1, so Z and w are free of y and
  each y-derivative of the marked shape polynomial is inflated by itself.

The three marked families share one path, :func:`_marked_jet`, and one
cache of jet elements per class, genus and mark, :func:`_jet_elements`.
Only :func:`dg_via_chords`, the independent route the arc jets are
checked against, works on truncated series.  Every other family answers 0
without building an element below length 4gr, that of the shortest genus-g
structure (:func:`_below_shortest`).

Everything here is exact: coefficients are ints, and every division on
the way is exact or raises ``ArithmeticError``.  Results are truncated
power series in x, where x counts vertices; only :func:`expected_marks`
and :func:`marks_variance` return rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .diagram import LOOP_KINDS, _check_parameters
from .recursions import MARK_KINDS, chord_series, marked_shape_poly, shape_poly
from .recursions import _check_genus, _check_order, _weight_sum, _xy_from_poly
from .series import (
    AlgebraicSeries,
    Polynomial,
    TruncatedSeries,
    XYPolynomial,
    YJet,
    _exact_quotient,
    _expand,
    _power,
)


@dataclass(frozen=True)
class StructureClass:
    """Constraint pair: minimal hairpin span and minimal stack length."""

    min_arc: int = 1
    min_stack: int = 1

    def __post_init__(self):
        _check_parameters(self.min_arc, self.min_stack)


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


# Three caches, each bounded: one element per class and genus, its value at
# every marker value y that arc_distribution asks for, and the three jet
# elements per class, genus and mark.
_CLASS_CACHE = 64


@lru_cache(maxsize=_CLASS_CACHE)
def _arc_element(cls_: StructureClass, genus: int) -> tuple:
    """D_g with arcs marked by y as (p, q, d, Delta, j): D_g = (p + q S) / (d Delta^j).

    At genus 0 the root of the arc quadratic (see :func:`_inflated`).  At
    positive genus (0, P, 1, Delta, N + 1): P = A sum_n w(n) u^n Delta^(N-n)
    with u = (x^2 y)^r A, the weight sum of
    :func:`toporna.recursions._weight_sum`, and N = 3g - 1.
    """
    if genus == 0:
        return _inflated(_arc_quadratic(cls_), [1])
    a, delta = core_polys(cls_)[0], discriminant_poly(cls_)
    u = a.mul(XYPolynomial.monomial(2 * cls_.min_stack, cls_.min_stack))
    p, top = _weight_sum(genus, u, delta)
    return XYPolynomial(), a.mul(p), XYPolynomial.constant(1), delta, top + 1


@lru_cache(maxsize=_CLASS_CACHE)
def _dg(cls_: StructureClass, genus: int, y: int) -> AlgebraicSeries:
    """The genus-g series D_g(x, y) at marker value y, arcs marked by y.

    Every argument is positional, so a call has one cache key.
    """
    return _at_y(_arc_element(cls_, genus), y)


def _at_y(element: tuple, y: int) -> AlgebraicSeries:
    """The element (p, q, d, E, j) at marker value y: (p + q R) / (d E^j)."""
    p, q, d, e, j = element
    e = e.at_y(y)
    return AlgebraicSeries(e, p.at_y(y), q.at_y(y), d.at_y(y) * _power(e, j))


def _below_shortest(cls_: StructureClass, genus: int, order: int) -> bool:
    """Whether ``order`` <= 4 g r, so that every coefficient below x^order is 0 at genus g.

    A genus-g shape has at least 2g arcs and each stands for a stack of at
    least r arcs, so no genus-g structure is shorter than 4gr.  Checks the
    genus and, at positive genus, that the class inflates.
    """
    _check_genus(genus)
    if genus:
        require_inflatable(cls_)
    return order <= 4 * genus * cls_.min_stack


def d0_series(cls_: StructureClass, order: int) -> TruncatedSeries:
    """Genus-0 structure counts by length (marker set to 1)."""
    return dg_series(cls_, 0, order)


def d0_jet(cls_: StructureClass, order: int) -> YJet:
    """Genus-0 series with the marker counting arcs."""
    return dg_jet(cls_, 0, order)


def dg_series(cls_: StructureClass, genus: int, order: int) -> TruncatedSeries:
    """Genus-g structure counts by length."""
    _check_order(order)
    if _below_shortest(cls_, genus, order):
        return TruncatedSeries.zero(order)
    return _dg(cls_, genus, 1).series(order)


def dg_jet(cls_: StructureClass, genus: int, order: int) -> YJet:
    """Genus-g series with the marker counting arcs.

    The jet is computed exactly in Q(x)(S) and expanded only at the end.
    """
    return _marked_jet(cls_, genus, "arcs", order)


def _marked_jet(cls_: StructureClass, genus: int, mark: str, order: int) -> YJet:
    """D_g's jet to ``order`` with ``mark`` counted; 0 below length 4gr."""
    _check_order(order)
    if _below_shortest(cls_, genus, order):
        return YJet.plain(TruncatedSeries.zero(order))
    return YJet(*_expand(order, *_jet_elements(cls_, genus, mark)))


@lru_cache(maxsize=_CLASS_CACHE)
def _jet_elements(cls_: StructureClass, genus: int, mark: str) -> tuple[AlgebraicSeries, ...]:
    """D_g's jet at y = 1 as three elements of Q(x)(S), before expansion.

    ``mark`` is "arcs", a loop kind, "stem" or a block kind.
    """
    if mark == "arcs":
        return _element_jet(*_arc_element(cls_, genus))
    if mark in MARK_KINDS:
        unmarked = tuple(_xy_from_poly(f.at_y(1)) for f in _arc_quadratic(cls_))
        return tuple(
            _at_y(_inflated(unmarked, f.coeffs), 1)
            for f in marked_shape_poly(genus, mark).y1_jets()
        )
    quadratic = _loop_quadratic(cls_, mark)
    u2 = XYPolynomial({(0, 0): 1, (1, 0): -2, (2, 0): 1})
    if any(f.at_y(1) != (u2 * g).at_y(1) for f, g in zip(quadratic[:3], _arc_quadratic(cls_))):
        raise ArithmeticError("loop quadratic at y = 1 is not (1 - x)^2 times the arc quadratic")
    return _element_jet(*_inflated(quadratic, shape_poly(genus).coeffs))


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


def _arc_quadratic(cls_: StructureClass) -> tuple[XYPolynomial, ...]:
    """(q^r, -B, A, 1): the arc grammar q^r D0^2 - B D0 + A = 0, with m = 1."""
    a, b = core_polys(cls_)
    r = cls_.min_stack
    return XYPolynomial.monomial(2 * r, r), -b, a, XYPolynomial.constant(1)


def _loop_quadratic(cls_: StructureClass, kind: str) -> tuple[XYPolynomial, ...]:
    """(alpha, beta, gamma, m): the loop grammar as alpha D^2 + beta D + gamma = 0.

    The mark of each counted loop kind is y and every other mark is 1;
    "stem" counts hairpins and multiloops.  With u = 1 - x,
    sigma = m_stack x^(2r) and m = m_multi,
    gamma = u^3 (1 + x) + sigma (m - 2 m_bulge x u - m_interior x^2),
    beta = -u (gamma + sigma (m - m_hairpin x^(min_arc - 1))) and
    alpha = m sigma u^2.  At y = 1 this is (1 - x)^2 times the arc
    quadratic, and E = beta^2 - 4 alpha gamma is (1 - x)^4 Delta.
    """
    counted = ("hairpin", "multi") if kind == "stem" else (kind,)
    one, x = XYPolynomial.constant(1), XYPolynomial.monomial(1, 0)
    mark = {k: XYPolynomial.monomial(0, 1) if k in counted else one for k in LOOP_KINDS}
    u, m = one - x, mark["multi"]
    sigma = mark["stack"] * XYPolynomial.monomial(2 * cls_.min_stack, 0)
    fill = mark["hairpin"] * XYPolynomial.monomial(cls_.min_arc - 1, 0)
    loops = m - mark["bulge"] * x * u * 2 - mark["interior"] * x * x
    gamma = u * u * u * (one + x) + sigma * loops
    beta = -(u * (gamma + sigma * (m - fill)))
    return m * sigma * u * u, beta, gamma, m


def _inflated(quadratic: tuple[XYPolynomial, ...], coeffs: list) -> tuple:
    """Z poly(w) as one element (p + q R) / (d E^j) of Z[x, y][R], R = sqrt(E).

    ``quadratic`` is (alpha, beta, gamma, m) and ``coeffs`` lists poly's
    coefficients, ints or polynomials in y, lowest first.  With
    E = beta^2 - 4 alpha gamma, the root Z = (-beta - R) / (2 alpha) and the
    shape-arc series w = (-beta - R) / (2 m R), Z poly(w) is
    sum_k c_k (-beta - R)^(k+1) (2 m R)^(K-k) over 2 alpha (2m)^K R^K, K the
    degree.  The numerator is formed by Horner's rule in -beta - R and
    2 m R, reduced by R^2 = E, and R^K becomes E^ceil(K/2) after one more
    factor R when K is odd.  Returns (p, q, d, E, j).
    """
    alpha, beta, gamma, m = quadratic
    e, two_m = beta * beta - alpha * gamma * 4, m * 2
    p = q = tq = XYPolynomial()  # the numerator p + q R, and (2 m R)^(K-k) = tp + tq R
    tp = XYPolynomial.constant(1)
    for c in reversed(coeffs):
        p, q = tp * c - p * beta - q * e, tq * c - q * beta - p
        tp, tq = two_m * tq * e, two_m * tp
    p, q = -(p * beta) - q * e, -(q * beta) - p
    top = len(coeffs) - 1
    if top % 2:
        p, q = q * e, p
    return p, q, alpha * 2 * _power(two_m, top), e, (top + 1) // 2


def _element_jet(
    p: XYPolynomial, q: XYPolynomial, d: XYPolynomial, e: XYPolynomial, j: int
) -> tuple[AlgebraicSeries, ...]:
    """F, F_y and F_yy at y = 1 for F = (p + q R) / (d E^j), R = sqrt(E), in Q(x)(R).

    The k-th y-derivative is F_k = (p_k + q_k R) / (2^k d^(k+1) E^(j+k)),
    and the quotient rule with R_y = E_y R / (2E) gives
    p_(k+1) = 2E (d p_k,y - (k + 1) d_y p_k) - 2(j + k) d E_y p_k, and
    q_(k+1) the same with 2(j + k) - 1 in place of 2(j + k).  The step from
    F_1 to F_2 needs p_1 and q_1 with their first y-derivatives, so p, q, d
    and E enter with two derivatives at y = 1.
    """
    (d0, d1, d2), (e0, e1, e2) = d.y1_jets(), e.y1_jets()
    rows = []
    for f, c in ((p, 2 * j), (q, 2 * j - 1)):
        f0, f1, f2 = f.y1_jets()
        g0 = (f1 * d0 - f0 * d1) * e0 * 2 - f0 * d0 * e1 * c  # p_1 or q_1
        g1 = ((f2 * d0 - f0 * d2) * e0 + (f1 * d0 - f0 * d1) * e1) * 2
        g1 = g1 - (f1 * d0 * e1 + f0 * (d1 * e1 + d0 * e2)) * c  # its y-derivative
        rows.append((f0, g0, (g1 * d0 - g0 * d1 * 2) * e0 * 2 - g0 * d0 * e1 * (c + 2)))
    return tuple(
        AlgebraicSeries(e0, pk, qk, _power(d0, k + 1) * _power(e0, j + k) * 2**k)
        for k, (pk, qk) in enumerate(zip(*rows))
    )


def loop_marked_d0_jet(cls_: StructureClass, kind: str, order: int) -> YJet:
    """Genus-0 series with the marker counting one loop statistic.

    ``kind`` is a loop kind or "stem", which marks hairpins and multiloops
    together, one per stem; this is :func:`loop_marked_dg_jet` at genus 0.
    """
    return loop_marked_dg_jet(cls_, 0, kind, order)


def loop_marked_dg_jet(
    cls_: StructureClass, genus: int, kind: str, order: int
) -> YJet:
    """Genus-g series with the marker counting one loop statistic.

    D_g = Z P_g(w), with Z the root of the loop quadratic
    (:func:`_loop_quadratic`) and w the series each shape arc becomes, both
    in closed form (see :func:`_inflated`).  "stem" is genus 0 only.

    Raises:
        ArithmeticError: unless the loop quadratic at y = 1 is (1 - x)^2
            times the arc quadratic, whose root is D0.
    """
    _check_genus(genus)
    if kind not in LOOP_KINDS and kind != "stem":
        raise ValueError(f"unknown loop kind {kind!r}")
    if genus and kind == "stem":
        raise ValueError("stem marking is only available at genus 0")
    return _marked_jet(cls_, genus, kind, order)


def pk_marked_dg_jet(
    cls_: StructureClass, genus: int, kind: str, order: int
) -> YJet:
    """Genus-g series with the marker counting crossing blocks of one type.

    ``kind`` selects one of the four genus-1 block types (see
    :data:`toporna.recursions.MARK_KINDS`).  Arcs are unmarked here; only
    whole blocks whose shadow matches the requested type count.  The series
    is D0 P(w), with the arc quadratic at y = 1 and P the marked shape
    polynomial; D0 and w are free of y, so its k-th y-derivative is
    D0 P_k(w), P_k that of P at y = 1, each built by :func:`_inflated`.
    """
    if kind not in MARK_KINDS:
        raise ValueError(f"unknown block kind {kind!r}")
    if genus < 1:
        raise ValueError(f"block marking needs genus at least 1, got {genus}")
    return _marked_jet(cls_, genus, kind, order)


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
    if _below_shortest(cls_, genus, n + 1):
        return []
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
