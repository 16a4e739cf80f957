"""Closed-form counting of chord diagrams, shapes, and irreducible shadows.

Everything in this module lives on the "matching" side of the theory: linear
chord diagrams (no unpaired vertices) filtered by genus, the finite shape
polynomials obtained by collapsing stacks, and the irreducible shadows that
form the crossing cores of shapes.  All arithmetic is exact; counts are
plain ints and polynomials carry int coefficients.

The central recursion is the two-term one for chord diagram counts by genus,

    (n + 1) c_g(n) = 2(2n - 1) c_g(n-1) + (n - 1)(2n - 1)(2n - 3) c_{g-1}(n-2),

seeded by the empty diagram.  A companion recursion produces the finite
weight family ``shape_weights(g)`` (Harer-Zagier) whose entries expand the
genus-g diagram series in the basis x^n (1-4x)^(-n-1/2) and, at the same
time, give the shape polynomial in the basis x^n (1+x)^(n+1).  Both, and
the arc series of :mod:`toporna.genfun`, are one weight sum
P = sum_n w(n) u^n delta^(N-n), N = 3g - 1, in different rings;
:func:`_weight_sum` is its one expansion.  At genus 0 the series is
Catalan's, the algebraic element (1 - sqrt(1 - 4x)) / (2x).

Shapes are built from irreducible shadows by one block grammar,
:func:`_grammar`: read forwards it gives the marked shape polynomials, and
solved for its irreducible term it derives the irreducible shadow
polynomials from the plain ones.  The four genus-1 crossing types that can
be marked, and the arc counts of their shadows, are read off
:data:`toporna.diagram.GENUS1_SHADOWS`.
"""

from __future__ import annotations

from .diagram import GENUS1_SHADOWS
from .series import (
    AlgebraicSeries,
    Polynomial,
    TruncatedSeries,
    XYPolynomial,
    _exact_factor,
    _power,
)

MARK_KINDS = tuple(GENUS1_SHADOWS)

_chord_rows: list[list[int]] = [[1, 1]]  # row g holds c_g(0), c_g(1), ...
_weight_cache: dict[int, dict[int, int]] = {1: {2: 1}}
_marked_cache: dict[str, list[XYPolynomial]] = {}
_irreducible_cache: list[Polynomial] = []
_ONE_PLUS_X = XYPolynomial({(0, 0): 1, (1, 0): 1})


def _check_genus(genus: int) -> None:
    if genus < 0:
        raise ValueError(f"genus must be nonnegative, got {genus}")


def _check_order(order: int) -> None:
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")


def chord_count(genus: int, arcs: int) -> int:
    """Number of linear chord diagrams with ``arcs`` chords and given genus."""
    if genus < 0 or arcs < 2 * genus:
        return 0
    while len(_chord_rows) <= genus:
        _chord_rows.append([0, 0])
    for g in range(genus + 1):  # bottom-up, so no call recurses however large
        row = _chord_rows[g]
        for n in range(len(row), arcs - 2 * (genus - g) + 1):
            total = 2 * (2 * n - 1) * row[n - 1]
            if g:
                total += (n - 1) * (2 * n - 1) * (2 * n - 3) * _chord_rows[g - 1][n - 2]
            value, rem = divmod(total, n + 1)
            if rem:
                raise ArithmeticError(f"chord recursion not divisible at g={g}, n={n}")
            row.append(value)
    return _chord_rows[genus][arcs]


def shape_weights(genus: int) -> dict[int, int]:
    """Weights w(n), supported on 2g <= n <= 3g - 1, defining the genus-g bases.

    The genus-g chord diagram series equals sum w(n) x^n (1-4x)^(-n-1/2) and
    the shape polynomial equals sum w(n) x^n (1+x)^(n+1).  Only defined for
    genus >= 1; genus 0 is covered by the Catalan series and the constant
    shape polynomial.
    """
    if genus < 1:
        raise ValueError(f"shape weights are defined for genus >= 1, got {genus}")
    for g in range(max(_weight_cache) + 1, genus + 1):  # bottom-up, as chord_count
        prev = _weight_cache[g - 1]
        row: dict[int, int] = {}
        for n in range(2 * g, 3 * g):
            total = (n - 1) * (2 * n - 1) * (2 * n - 3) * prev.get(n - 2, 0)
            total += 2 * (2 * n - 1) * (2 * n - 3) * (2 * n - 5) * prev.get(n - 3, 0)
            value, rem = divmod(total, n + 1)
            if rem:
                raise ArithmeticError(f"weight recursion not divisible at g={g}, n={n}")
            if value:
                row[n] = value
        _weight_cache[g] = row
    return dict(_weight_cache[genus])


def _weight_sum(genus: int, u, delta) -> tuple:
    """P = sum_n w(n) u^n delta^(N-n) and N = 3g - 1, for genus g >= 1.

    u and delta are ints or polynomials of either kind; P is formed by
    homogeneous Horner in (u, delta).  The one expansion of the weights.
    """
    weights = shape_weights(genus)
    top = max(weights)
    acc, power = u * 0, u * 0 + 1
    for n in range(top + 1):  # after step n, acc = sum_(k <= n) w(k) u^k delta^(n-k)
        acc = acc * delta + power * weights.get(n, 0)
        if n < top:
            power = power * u
    return acc, top


def shape_poly(genus: int) -> Polynomial:
    """Generating polynomial of genus-g shapes, counted by arcs.

    Degree 6g - 1 for genus >= 1, where it is (1 + x) P with u = x (1 + x)
    and delta = 1 in :func:`_weight_sum`; the empty shape gives the
    constant 1 at genus 0.
    """
    _check_genus(genus)
    if genus == 0:
        return Polynomial([1])
    return Polynomial([1, 1]) * _weight_sum(genus, Polynomial([0, 1, 1]), 1)[0]


def irreducible_poly(genus: int) -> Polynomial:
    """Generating polynomial of genus-g irreducible shadows, counted by arcs.

    Derived by solving the block grammar (see :func:`_grammar`) for the
    genus-g irreducible term, lower genera first, and cached.
    """
    if genus < 1:
        raise ValueError(f"irreducible shadows require genus >= 1, got {genus}")
    while len(_irreducible_cache) < genus:
        _irreducible_cache.append(_derive_irreducible(len(_irreducible_cache) + 1))
    return _irreducible_cache[genus - 1]


def marked_irreducible_poly(kind: str) -> XYPolynomial:
    """Genus-1 irreducible shadow polynomial with y marking one crossing type.

    ``kind`` selects which of the four genus-1 shadows carries the marker:
    H (two mutually crossing arcs), K and L (the three-arc shadows), or
    M (the four-arc shadow).  Coefficients at y^0 cover the other shadows.
    """
    if kind not in MARK_KINDS:
        raise ValueError(f"unknown mark kind {kind!r}")
    terms: dict[tuple[int, int], int] = {}
    for name, shadow in GENUS1_SHADOWS.items():
        key = (len(shadow.arcs), int(name == kind))
        terms[key] = terms.get(key, 0) + 1
    return XYPolynomial(terms)


def marked_shape_poly(genus: int, kind: str) -> XYPolynomial:
    """Genus-g shape polynomial with y marking crossing components of one type.

    The marker follows the block decomposition of the shape: each block whose
    shadow matches ``kind`` contributes one power of y.  At y = 1 this
    reduces to ``shape_poly(genus)``.
    """
    if kind not in MARK_KINDS:
        raise ValueError(f"unknown mark kind {kind!r}")
    _check_genus(genus)
    table = _marked_cache.setdefault(kind, [XYPolynomial.constant(1)])
    while len(table) <= genus:
        table.append(_next_marked(table, kind))
    return table[genus]


def _xy_from_poly(p: Polynomial) -> XYPolynomial:
    return XYPolynomial({(i, 0): c for i, c in enumerate(p.coeffs) if c})


def _marked_irreducible(genus: int, kind: str) -> XYPolynomial:
    if genus == 1:
        return marked_irreducible_poly(kind)
    return _xy_from_poly(irreducible_poly(genus))


def _grammar(table: list[XYPolynomial], irreducible, cap: int) -> XYPolynomial:
    """Every genus-g shape term of the block grammar except (1 + x) I_g.

    ``table`` holds the shapes S_0, ..., S_(g-1) and ``irreducible(j)`` the
    irreducible shadows I_j of genus j < g.  The terms are x S_i S_(g-i) and
    (1 + x) I_j(u) at t^(g-j), u the stack substitution; x-degrees from
    ``cap`` up are dropped.
    """
    gg = len(table)
    u = _stack_substitution(table, gg - 1, cap)
    pairs = sum((table[i].mul(table[gg - i], cap) for i in range(1, gg)), XYPolynomial())
    cores = sum(
        (_compose_x(irreducible(j), u, gg - j, cap)[gg - j] for j in range(1, gg)), XYPolynomial()
    )
    return XYPolynomial.monomial(1, 0).mul(pairs, cap) + _ONE_PLUS_X.mul(cores, cap)


def _next_marked(table: list[XYPolynomial], kind: str) -> XYPolynomial:
    gg = len(table)
    rest = _grammar(table, lambda j: _marked_irreducible(j, kind), 6 * gg)
    return rest + _ONE_PLUS_X.mul(_marked_irreducible(gg, kind))


def _stack_substitution(
    table: list[XYPolynomial], tcap: int, cap: int
) -> list[XYPolynomial]:
    """Series in t (list of x,y-polynomials) replacing x in an inner polynomial.

    With P(t) the partial sum of the table entries, this is
    x P(t)^2 / (1 - x (P(t)^2 - 1)), the substitution that inflates an
    irreducible core by hanging shape material off its arcs.
    """
    x = XYPolynomial.monomial(1, 0)
    p = [table[k] if k < len(table) else XYPolynomial() for k in range(tcap + 1)]
    p2 = _tmul(p, p, tcap, cap)
    den = [XYPolynomial() for _ in range(tcap + 1)]
    den[0] = XYPolynomial.constant(1) - x.mul(p2[0] - 1, cap)
    for m in range(1, tcap + 1):
        den[m] = -x.mul(p2[m], cap)
    num = [x.mul(q, cap) for q in p2]
    return _tmul(num, _tinv(den, tcap, cap), tcap, cap)


def _tmul(
    a: list[XYPolynomial], b: list[XYPolynomial], tcap: int, cap: int
) -> list[XYPolynomial]:
    out = [XYPolynomial() for _ in range(tcap + 1)]
    for m in range(tcap + 1):
        for k in range(m + 1):
            if k < len(a) and m - k < len(b):
                out[m] = out[m] + a[k].mul(b[m - k], cap)
    return out


def _tinv(a: list[XYPolynomial], tcap: int, cap: int) -> list[XYPolynomial]:
    if a[0] != XYPolynomial.constant(1):
        raise ValueError("t-series inverse requires constant term 1")
    out = [XYPolynomial.constant(1)]
    for m in range(1, tcap + 1):
        acc = XYPolynomial()
        for k in range(1, m + 1):
            acc = acc + a[k].mul(out[m - k], cap)
        out.append(-acc)
    return out


def _compose_x(
    poly: XYPolynomial, u: list[XYPolynomial], tcap: int, cap: int
) -> list[XYPolynomial]:
    """Substitute the t-series ``u`` for x in ``poly``, keeping y intact."""
    slices: dict[int, XYPolynomial] = {}
    for (i, j), c in poly.terms.items():
        slices[i] = slices.get(i, XYPolynomial()) + XYPolynomial.monomial(0, j, c)
    top = max(slices) if slices else 0
    acc = [XYPolynomial() for _ in range(tcap + 1)]
    for i in range(top, -1, -1):
        acc = _tmul(acc, u[: tcap + 1], tcap, cap)
        if i in slices:
            acc[0] = acc[0] + slices[i]
    return acc


def _derive_irreducible(genus: int) -> Polynomial:
    shapes = [_xy_from_poly(shape_poly(k)) for k in range(genus)]
    rest = _grammar(shapes, lambda j: _xy_from_poly(irreducible_poly(j)), 6 * genus)
    val = _xy_from_poly(shape_poly(genus)) - rest
    if val.y_degree() != 0:
        raise ArithmeticError("unexpected marker content in shadow inversion")
    return _exact_factor(val.at_y(1), Polynomial([1, 1]))


def catalan_series(order: int) -> TruncatedSeries:
    """Series of the Catalan numbers, from the closed form (1 - sqrt(1-4x))/2x in Q(x)(S)."""
    one = Polynomial([1])
    return AlgebraicSeries(Polynomial([1, -4]), one, -one, Polynomial([0, 2])).series(order)


def chord_series(genus: int, order: int, route: str = "recursion") -> TruncatedSeries:
    """Truncated series counting genus-g linear chord diagrams by arcs.

    Three routes are provided so they can be played against each other in
    tests; ``"closed"`` and ``"shapes"`` both expand :func:`shape_weights`, so
    they are independent of the recursion but not of each other:

    * ``"recursion"``: term-by-term from the two-term recursion.
    * ``"closed"``: the finite weight expansion over (1-4x)^(-n-1/2), the
      element P S / (1-4x)^(N+1) of :func:`_weight_sum` with u = x,
      delta = 1 - 4x and S = sqrt(1 - 4x) (Catalan closed form at genus 0).
    * ``"shapes"``: inflate the shape polynomial, composing it with
      x C0^2 / (1 - x C0^2) and multiplying by the Catalan series C0.
    """
    _check_genus(genus)
    _check_order(order)
    if route == "recursion":
        return TruncatedSeries([chord_count(genus, n) for n in range(order)], order)
    if route == "closed":
        if genus == 0:
            return catalan_series(order)
        delta = Polynomial([1, -4])
        p, top = _weight_sum(genus, Polynomial([0, 1]), delta)
        return AlgebraicSeries(delta, Polynomial(), p, _power(delta, top + 1)).series(order)
    if route == "shapes":
        c0 = catalan_series(order)
        xc2 = (c0 * c0).shift(1)
        inner = xc2 / (1 - xc2)
        return c0 * shape_poly(genus)(inner)
    raise ValueError(f"unknown route {route!r}")
