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
the arc-marked jets :func:`d0_jet` and :func:`dg_jet`, are closed forms in
Q(x)(S), with S the square root of the discriminant Delta = B^2 - 4 q^r A
at an integer marker value y, held as
:class:`~toporna.series.AlgebraicSeries` and expanded only at the end.
The closed form comes from the chord-diagram route in three lines:

* D_g = (A/B) C_g(u) with u = q^r A / B^2, where q = x^2 y;
* C_g(u) = sum_n w(n) u^n (1 - 4u)^(-n-1/2), w being the shape weights of
  genus g (:func:`~toporna.recursions.shape_weights`, Harer-Zagier);
* 1 - 4u = Delta / B^2, so for g >= 1 every power of B cancels and
  D_g = P Delta^(-N-1/2), P = sum_n w(n) A^(n+1) q^(rn) Delta^(N-n), N = 3g - 1.

P is one :class:`~toporna.series.XYPolynomial` per class and genus, and
D_g at y is the single element P S / Delta^(N+1).  At genus 0,
D0 = (B - S) / (2 q^r).  The marker jets at y = 1 come from exact
y-derivatives of P and Delta, each again a polynomial times S over a power
of Delta.  The block-marked jets read D_g = D0 P_g(w) with w = (B - S)/(2S),
the series each shape arc becomes, formed as one element whose denominator
is a constant times x^(2r) times a power of Delta.  No element is ever
divided by another.  :func:`arc_distribution` evaluates D_g(x, y) at
y = 1, ..., n/2 + 1 and interpolates the polynomial [x^n] D_g exactly.

The chord-diagram route :func:`dg_via_chords` and the loop-marked jets
stay on truncated-series arithmetic.  :func:`dg_via_chords` is the
independent derivation the arc-marked jets are checked against: it reads
the chord counts, not the shape weights.  The loop-marked jets take the
root of the loop grammar's genus-0 quadratic by implicit differentiation
(:meth:`~toporna.series.YJet.quadratic_root`) from its value at y = 1,
read off the closed form of D0.  One table of markers drives that root and
the series each shape arc becomes.

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
from .recursions import MARK_KINDS, chord_series, marked_shape_poly, shape_poly, shape_weights
from .series import (
    AlgebraicSeries,
    Polynomial,
    TruncatedSeries,
    XYPolynomial,
    YJet,
    _exact_quotient,
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


def _power(p: Polynomial, k: int) -> Polynomial:
    out = Polynomial([1])
    for _ in range(k):
        out = out * p
    return out


# arc_distribution adds one cached element per marker value y, so these
# caches are bounded.
_CLASS_CACHE = 64


@lru_cache(maxsize=_CLASS_CACHE)
def _radical_numerator(cls_: StructureClass, genus: int) -> tuple[XYPolynomial, int]:
    """P and N with D_g = P Delta^(-N-1/2), for genus g >= 1.

    P = sum_n w(n) A^(n+1) (x^2 y)^(rn) Delta^(N-n), with w the shape
    weights of genus g and N the largest n they support, 3g - 1.
    """
    weights = shape_weights(genus)
    a = core_polys(cls_)[0]
    delta = discriminant_poly(cls_)
    u = a.mul(XYPolynomial.monomial(2 * cls_.min_stack, cls_.min_stack))
    top = max(weights)
    acc, power = XYPolynomial(), XYPolynomial.constant(1)
    for n in range(top + 1):  # after step n, acc = sum_(k <= n) w(k) u^k Delta^(n-k)
        acc = acc.mul(delta) + power * weights.get(n, 0)
        if n < top:
            power = power.mul(u)
    return a.mul(acc), top


@lru_cache(maxsize=_CLASS_CACHE)
def _dg(cls_: StructureClass, genus: int, y: int) -> AlgebraicSeries:
    """The genus-g series D_g(x, y) at marker value y, arcs marked by y.

    D0 = (B - S) / (2 q^r); at positive genus D_g = (0 + P S) / Delta^(N+1)
    (see :func:`_radical_numerator`).  Every argument is positional, so a
    call has one cache key.
    """
    _check_genus(genus)
    if genus:
        require_inflatable(cls_)
    delta = discriminant_poly(cls_).at_y(y)
    if genus == 0:
        qr = Polynomial.x_power(2 * cls_.min_stack) * y**cls_.min_stack
        return AlgebraicSeries(delta, core_polys(cls_)[1].at_y(y), Polynomial([-1]), qr * 2)
    p, top = _radical_numerator(cls_, genus)
    return AlgebraicSeries(delta, Polynomial(), p.at_y(y), _power(delta, top + 1))


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


def _radical_jet(p: XYPolynomial, m: int, delta: XYPolynomial) -> YJet:
    """The jet at y = 1 of P Delta^(-m-1/2), as three elements of Q(x)(S).

    The rule d/dy (P Delta^(-m-1/2)) = Q Delta^(-m-3/2) / 2, with
    Q = 2 P_y Delta - (2m + 1) P Delta_y, applied twice: the first
    derivative is Q S / (2 Delta^(m+2)) and the second
    (2 Q_y Delta - (2m + 3) Q Delta_y) S / (4 Delta^(m+3)).
    """
    (p0, p1, p2), (d0, d1, d2) = p.y1_jets(), delta.y1_jets()
    q0 = p1 * d0 * 2 - p0 * d1 * (2 * m + 1)
    q1 = p2 * d0 * 2 + p1 * d1 * (1 - 2 * m) - p0 * d2 * (2 * m + 1)  # Q_y
    q2 = q1 * d0 * 2 - q0 * d1 * (2 * m + 3)
    return YJet(*(
        AlgebraicSeries(d0, Polynomial(), num, _power(d0, m + 1 + i) * 2**i)
        for i, num in enumerate((p0, q0, q2))
    ))


@lru_cache(maxsize=_CLASS_CACHE)
def _genus_jet(cls_: StructureClass, genus: int) -> YJet:
    """D_g's jet at y = 1 as elements of Q(x)(S), before expansion.

    At genus 0, D0 = y^(-r) (B - S) / (2 x^(2r)): the jet of B - S times
    that of y^(-r), which is (1, -r, r(r + 1)), over 2 x^(2r).
    """
    _check_genus(genus)
    delta = discriminant_poly(cls_)
    if genus:
        require_inflatable(cls_)
        return _radical_jet(*_radical_numerator(cls_, genus), delta)
    r, d = cls_.min_stack, delta.at_y(1)
    b = YJet(*(AlgebraicSeries(d, p) for p in core_polys(cls_)[1].y1_jets()))
    c = AlgebraicSeries(d, Polynomial([1]), None, Polynomial.x_power(2 * r) * 2)
    b_minus_s = b + _radical_jet(XYPolynomial.constant(-1), -1, delta)
    return b_minus_s * YJet(c, c * -r, c * (r * (r + 1)))


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
    a quadratic a C^2 + b C + k = 0.  At y = 1 its root is
    C0 = 1 - x - 1/D0 = 1 - x - (B + S) / (2A), an element of Q(x)(S)
    because (B - S)(B + S) = 4 x^(2r) A; the marker derivatives follow by implicit
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
    a1, b1 = (p.at_y(1) for p in core_polys(cls_))
    inverse = AlgebraicSeries(discriminant_poly(cls_).at_y(1), b1, Polynomial([1]), a1 * 2)
    closed = YJet.quadratic_root(a, b, s * h, (1 - inverse).series(order) - x)
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
    whole blocks whose shadow matches the requested type count.  The value
    and both marker derivatives are D0 p(w) for the value and derivatives p
    of the marked shape polynomial at y = 1 (see :func:`_inflated`).
    """
    if kind not in MARK_KINDS:
        raise ValueError(f"unknown block kind {kind!r}")
    if genus < 1:
        raise ValueError(f"block marking needs genus at least 1, got {genus}")
    _check_order(order)
    require_inflatable(cls_)
    delta = discriminant_poly(cls_).at_y(1)
    b = core_polys(cls_)[1].at_y(1)
    jets = marked_shape_poly(genus, kind).y1_jets()
    return YJet(*(_inflated(p, b, delta, cls_.min_stack).series(order) for p in jets))


def _inflated(poly: Polynomial, b: Polynomial, delta: Polynomial, r: int) -> AlgebraicSeries:
    """D0 poly(w) at y = 1 as one element of Q(x)(S).

    w = (B - S) / (2S) = (B S - Delta) / (2 Delta) is the series each shape
    arc becomes.  With D0 = (B - S) / (2 x^(2r)) and K = deg poly, D0 poly(w) is
    sum_k c_k (B - S)^(k+1) (2S)^(K-k) over 2^(K+1) x^(2r) S^K.  The
    numerator is formed in Z[x][S], reduced by S^2 = Delta, and S^K
    becomes Delta^ceil(K/2) after one more factor S when K is odd.
    """
    p = q = Polynomial()  # the numerator p + q S
    tp, tq = Polynomial([1]), Polynomial()  # (2S)^(K-k)
    for c in reversed(poly.coeffs):  # homogeneous Horner in B - S and 2S
        p, q = p * b - q * delta + tp * c, q * b - p + tq * c
        tp, tq = tq * delta * 2, tp * 2
    p, q = p * b - q * delta, q * b - p
    top = poly.degree
    if top % 2:
        p, q = q * delta, p
    den = Polynomial.x_power(2 * r) * 2 ** (top + 1) * _power(delta, (top + 1) // 2)
    return AlgebraicSeries(delta, p, q, den)


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
