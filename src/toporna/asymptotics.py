"""Singularity analysis: growth rates, arc-count limit law, exponent fits.

The dominant singularity of every genus-g series in a structure class is the
smallest positive root rho of the discriminant B^2 - 4 (x^2 y)^r A at y = 1;
genus only changes the subexponential factor n^((6g-3)/2).  This module
finds rho and the arc-count limit law with integers alone:

* Descartes' rule of signs on Taylor-shifted integer polynomials isolates
  the smallest root in (0, 2) by bisection, and refuses a root that is not
  simple (Collins and Akritas, "Polynomial real root isolation using
  Descartes' rule of signs", SYMSAC 1976);
* dyadic Newton steps narrow that bracket, every new end confirmed by an
  exact sign evaluation, and every round also bisects;
* fixed-point interval arithmetic on scaled integers, each result rounded
  outward, bounds the implicit derivatives of the root curve and the
  limit law on the bracket (Moore, Kearfott and Cloud, *Introduction to
  Interval Analysis*, SIAM 2009).

A constant is printed only to the digits at which both ends of its
enclosure round alike (:meth:`ArcLaw.decimal`); the mpf fields of
:class:`ArcLaw` are the enclosures' midpoints.  A least-squares helper reads
exponents off exact coefficient data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

from mpmath import mp

from .genfun import StructureClass, discriminant_poly
from .series import Polynomial, _exact_factor

#: Bits carried beyond a request's digits, for what the enclosures lose.
GUARD_BITS = 16
#: Bisection depth at which Descartes' rule hands over to an exact gcd,
#: which tells a multiple root from close simple ones.
SEPARATION_BITS = 64
#: How often :meth:`ArcLaw.decimal` doubles the bits before it refuses.
REFINEMENTS = 4

#: (lo, hi, k): a root lies in [lo / 2^k, hi / 2^k], strictly inside
#: unless lo == hi.
Bracket = tuple[int, int, int]


# -- exact root isolation --------------------------------------------------


def _scaled(coeffs, m: int, k: int) -> int:
    """2^(k n) p(m / 2^k) for p of degree n = len(coeffs) - 1, by Horner's rule."""
    acc = 0
    for i, c in enumerate(reversed(coeffs)):
        acc = acc * m + (c << k * i)
    return acc


def _sign(value: int) -> int:
    return (value > 0) - (value < 0)


def _side_sign(coeffs, m: int, k: int, side: int) -> int:
    """Sign of p just right (side 1) or just left (side -1) of m / 2^k.

    That is the sign of p's first nonzero derivative there, times side to
    the order of that derivative.
    """
    flip = 1
    while coeffs:
        value = _scaled(coeffs, m, k)
        if value:
            return flip * _sign(value)
        coeffs = Polynomial(coeffs).derivative().coeffs
        flip *= side
    raise ArithmeticError("the zero polynomial has no sign")


def _shift1(coeffs) -> list[int]:
    """Coefficients of q(x + 1), by repeated synthetic division."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += c[j + 1]
    return c


def _variations(coeffs) -> int:
    """Sign changes along the coefficients, zeros skipped."""
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


class _Unseparated(Exception):
    """Bisection reached its depth with more than one root still counted."""


def _descartes(coeffs, depth: int | None) -> Bracket:
    """Bracket of the smallest root in (0, 2) of p, where p(0) != 0.

    A polynomial q has no more roots in (0, 1) than the sign variations of
    (x + 1)^n q(1 / (x + 1)), and as many modulo 2, so a count of 1
    isolates one simple root.  (0, 2) is bisected depth first, left half
    first: the halves of q are 2^n q(u / 2) and its shift by 1, and a root
    at a midpoint is returned exactly once its left half holds none.
    Raises :class:`_Unseparated` below ``depth`` levels.
    """
    # q(u) = p(2u); each entry's q, shifted by 1 first if marked so, is on
    # (0, 1) and stands for u in (c, c + 1) / 2^k
    pending = [(False, [c << i for i, c in enumerate(coeffs)], 0, 0)]
    while pending:
        shifted, q, c, k = pending.pop()
        if q is None:
            return 2 * c, 2 * c, k
        if shifted:  # a right half, built only once its left half is ruled out
            q = _shift1(q)
            q = q[next(i for i, a in enumerate(q) if a) :]  # less the midpoint's roots
        count = _variations(_shift1(q[::-1]))
        if count == 1:
            return 2 * c, 2 * c + 2, k
        if count == 0:
            continue
        if depth is not None and k >= depth:
            raise _Unseparated
        top = len(q) - 1
        left = [a << top - i for i, a in enumerate(q)]
        pending.append((True, left, 2 * c + 1, k + 1))
        if not sum(left):  # 2^n q(1/2): the midpoint is a root
            pending.append((False, None, 2 * c + 1, k + 1))
        pending.append((False, left, 2 * c, k + 1))
    raise ArithmeticError("no root in (0, 2)")


def _primitive(coeffs) -> Polynomial:
    """The integer polynomial over its content, with a positive leading coefficient."""
    while coeffs and not coeffs[-1]:
        coeffs = coeffs[:-1]
    if not coeffs:
        return Polynomial()
    content = gcd(*coeffs) * _sign(coeffs[-1])
    return Polynomial([c // content for c in coeffs])


def _gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """A primitive greatest common divisor, by pseudo-remainders with the content divided out."""
    while not b.is_zero():
        rem, lead, top = a.coeffs[:], b.coeffs[-1], b.degree
        while len(rem) > top:
            head, offset = rem[-1], len(rem) - 1 - top
            rem = [lead * c for c in rem]
            for i, c in enumerate(b.coeffs):
                rem[i + offset] -= head * c
            while rem and not rem[-1]:
                rem.pop()
        a, b = b, _primitive(rem)
    return _primitive(a.coeffs)


def _isolate(coeffs) -> Bracket:
    """Bracket of the smallest root in (0, 2) of an integer polynomial.

    Raises ``ArithmeticError`` when (0, 2) holds no root, or when its
    smallest root is not simple.  Past :data:`SEPARATION_BITS` levels the
    search runs again on the squarefree part p / gcd(p, p'); the smallest
    root is then multiple exactly when gcd(p / gcd(p, p'), gcd(p, p')),
    whose roots are p's multiple roots, each once, changes sign across
    the bracket.
    """
    p = list(coeffs)
    while p and not p[0]:
        p.pop(0)
    if not p:
        raise ArithmeticError("the zero polynomial has no smallest root")
    try:
        lo, hi, k = _descartes(p, SEPARATION_BITS)
        multiple = lo == hi and not _scaled(Polynomial(p).derivative().coeffs, lo, k)
    except _Unseparated:
        poly = Polynomial(p)
        g = _gcd(poly, poly.derivative())
        s = _exact_factor(poly, g)
        lo, hi, k = _descartes(s.coeffs, None)
        h = _gcd(s, g).coeffs
        if lo == hi:
            multiple = not _scaled(h, lo, k)
        else:
            multiple = _side_sign(h, lo, k, 1) != _side_sign(h, hi, k, -1)
    if multiple:
        raise ArithmeticError(f"the smallest positive root, in [{lo}, {hi}] / 2^{k}, is not simple")
    return lo, hi, k


def _refine(coeffs, bracket: Bracket, bits: int) -> Bracket:
    """An isolating bracket of a simple root narrowed to width at most 2^-bits.

    Each round evaluates p exactly at the midpoint, which bisects, and
    takes Newton's step from there.  Newton's error is about C delta^2 for
    a step of length delta, so the round also evaluates p at the step's
    point minus and plus 2^guard delta^2; an end whose sign confirms it
    becomes the new end.  A round whose two ends lie inside the bracket
    but are not both confirmed raises the guard, so later steps claim less.
    """
    lo, hi, k = bracket
    if lo == hi:
        return bracket
    slope = Polynomial(coeffs).derivative().coeffs
    left = _side_sign(coeffs, lo, k, 1)  # the sign of p between lo and the root
    guard = 2
    while (hi - lo) << bits > 1 << k:
        lo, hi, k = lo << 1, hi << 1, k + 1
        mid = (lo + hi) >> 1
        value = _scaled(coeffs, mid, k)
        if not value:
            return mid, mid, k
        if _sign(value) == left:
            lo = mid
        else:
            hi = mid
        d = _scaled(slope, mid, k)
        if not d:
            continue
        # the step is value / d units of 2^-k, shorter than 2^length
        length = (abs(value) // abs(d)).bit_length() - k
        radius = max(2 * length + guard, -bits - 1)
        shift = max(0, 4 - radius - k)  # eps at least 16 units
        lo, hi, mid, k = lo << shift, hi << shift, mid << shift, k + shift
        step, eps = mid - (value << shift) // d, 1 << radius + k
        inside = lo < step - eps and step + eps < hi
        confirmed = 0
        for point, want in ((step - eps, left), (step + eps, -left)):
            if lo < point < hi:
                s = _sign(_scaled(coeffs, point, k))
                if not s:
                    return point, point, k
                if s == left:
                    lo = point
                else:
                    hi = point
                confirmed += s == want
        if inside and confirmed < 2:
            guard += 1
    return lo, hi, k


# -- fixed-point interval arithmetic ---------------------------------------
#
# An interval (a, b) at scale frac stands for [a / 2^frac, b / 2^frac];
# every operation rounds its lower end down and its upper end up.


def _down(value: int, shift: int) -> int:
    """floor(value / 2^shift), for a shift of either sign."""
    return value >> shift if shift >= 0 else value << -shift


def _up(value: int, shift: int) -> int:
    return -_down(-value, shift)


def _horner(coeffs, x: int, frac: int, up: bool) -> int:
    """p(x) at scale frac for nonnegative coefficients and x >= 0.

    Every product is rounded down, or up, so the result is a lower, or an
    upper, bound: each step is increasing in what it is given.
    """
    acc = 0
    for c in reversed(coeffs):
        acc = (-(-acc * x >> frac) if up else acc * x >> frac) + (c << frac)
    return acc


def _enclose(parts, rho: tuple[int, int], frac: int) -> tuple[int, int]:
    """The values of p = pos - neg on rho's enclosure, as an interval.

    ``parts`` holds pos and neg, the positive part of p and its negated
    negative part; on x >= 0 both increase, so p lies between
    pos(lo) - neg(hi) and pos(hi) - neg(lo).
    """
    (pos, neg), (lo, hi) = parts, rho
    return (
        _horner(pos, lo, frac, False) - _horner(neg, hi, frac, True),
        _horner(pos, hi, frac, True) - _horner(neg, lo, frac, False),
    )


def _add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _neg(a):
    return -a[1], -a[0]


def _mul(a, b, frac: int):
    products = [x * y for x in a for y in b]
    return min(products) >> frac, -(-max(products) >> frac)


def _div(a, b, frac: int):
    if b[0] <= 0 <= b[1]:
        raise ArithmeticError("a divisor's enclosure contains 0")
    return (
        min((x << frac) // y for x in a for y in b),
        max(-((-x << frac) // y) for x in a for y in b),
    )


def _rounded(value: int, frac: int, digits: int) -> str:
    """value / 2^frac, exactly, rounded half-even to ``digits`` decimal places."""
    whole, rest = divmod(value * 10**digits, 1 << frac)
    if 2 * rest > 1 << frac or (2 * rest == 1 << frac and whole & 1):
        whole += 1
    units, fraction = divmod(abs(whole), 10**digits)
    return f"{'-' if value < 0 else ''}{units}.{fraction:0{digits}d}"


# -- the arc-count limit law -----------------------------------------------


def _bits(dps: int) -> int:
    """Fixed-point bits for ``dps`` decimal digits (10/3 > log2 10), plus the guard."""
    return (10 * dps + 2) // 3 + GUARD_BITS


@lru_cache(maxsize=64)
def _root_curve(cls_: StructureClass) -> tuple:
    """Delta(x, 1), rho's isolating bracket, and the parts (see :func:`_enclose`)
    of Delta_x, Delta_y, Delta_xx, Delta_xy and Delta_yy at y = 1."""
    disc = discriminant_poly(cls_)
    rows = [[0] * (disc.x_degree() + 1) for _ in range(6)]
    for (i, j), c in disc.terms.items():
        # the coefficient of x^(i - drop) in each of the six, at y = 1
        for row, weight, drop in zip(
            rows, (1, i, j, i * (i - 1), i * j, j * (j - 1)), (0, 1, 0, 2, 1, 0)
        ):
            if weight:
                row[i - drop] += weight * c
    poly = Polynomial(rows[0]).coeffs
    parts = tuple(
        (tuple(max(c, 0) for c in row), tuple(max(-c, 0) for c in row)) for row in rows[1:]
    )
    return poly, _isolate(poly), parts


_FIELDS = ("rho", "rho_d1", "rho_d2", "mean", "variance")


def _law_bounds(cls_: StructureClass, frac: int) -> dict[str, tuple[int, int]]:
    """Enclosures at scale frac of rho, rho', rho'', the mean and the variance.

    Differentiating Delta(rho(y), y) = 0 at y = 1 gives
    rho' = -Delta_y / Delta_x and
    rho'' = -(Delta_xx rho'^2 + 2 Delta_xy rho' + Delta_yy) / Delta_x;
    the mean is -rho'/rho and the variance (rho'/rho)^2 - (rho'' + rho')/rho.
    """
    poly, bracket, parts = _root_curve(cls_)
    lo, hi, k = _refine(poly, bracket, frac)
    rho = (_down(lo, k - frac), _up(hi, k - frac))
    vx, vy, vxx, vxy, vyy = (_enclose(q, rho, frac) for q in parts)
    d1 = _neg(_div(vy, vx, frac))
    cross = _mul((2 * vxy[0], 2 * vxy[1]), d1, frac)
    d2 = _neg(_div(_add(_add(_mul(vxx, _mul(d1, d1, frac), frac), cross), vyy), vx, frac))
    ratio = _div(d1, rho, frac)
    variance = _add(_mul(ratio, ratio, frac), _neg(_div(_add(d2, d1), rho, frac)))
    return dict(zip(_FIELDS, (rho, d1, d2, _neg(ratio), variance)))


def singularity(cls_: StructureClass, dps: int = 50):
    """Smallest positive root of the discriminant at marker value 1, as an mpf at ``dps`` digits."""
    poly, bracket, _ = _root_curve(cls_)
    lo, hi, k = _refine(poly, bracket, _bits(dps))
    with mp.workdps(dps):
        return mp.ldexp(mp.mpf(lo + hi), -k - 1)


@dataclass(frozen=True)
class ArcLaw:
    """Arc-count limit law data for one structure class (any genus >= 0).

    The five constants are mpf values at the digits asked for, each the
    midpoint of an integer enclosure kept in ``bounds`` at scale ``frac``;
    :meth:`decimal` prints a constant from its enclosure.
    """

    rho: object
    rho_d1: object
    rho_d2: object
    mean: object
    variance: object
    cls_: StructureClass = field(repr=False)
    frac: int = field(repr=False)
    bounds: dict = field(repr=False, compare=False)

    def decimal(self, name: str, digits: int) -> str:
        """The constant ``name`` rounded half-even to ``digits`` places, certified.

        The text is returned once both ends of the enclosure round to it,
        so the exact constant does too.  The enclosure is recomputed at
        twice the bits up to :data:`REFINEMENTS` times; a digit still not
        settled then raises ``ArithmeticError``.
        """
        frac, bounds = self.frac, self.bounds
        for attempt in range(REFINEMENTS + 1):
            if attempt:
                frac *= 2
                bounds = _law_bounds(self.cls_, frac)
            lo, hi = bounds[name]
            text = _rounded(lo, frac, digits)
            if text == _rounded(hi, frac, digits):
                return text
        raise ArithmeticError(f"{name} is not settled to {digits} digits at {frac} bits")


def arc_law(cls_: StructureClass, dps: int = 50) -> ArcLaw:
    """Mean and variance coefficients of the arc-count limit law.

    The number of arcs in a random length-n structure is asymptotically
    Gaussian with mean ``mean * n`` and variance ``variance * n``; both
    coefficients are independent of genus.
    """
    frac = _bits(dps)
    bounds = _law_bounds(cls_, frac)
    with mp.workdps(dps):
        values = [mp.ldexp(mp.mpf(lo + hi), -frac - 1) for lo, hi in bounds.values()]
    return ArcLaw(*values, cls_=cls_, frac=frac, bounds=bounds)


def arc_law_grid(
    max_arc: int = 6, max_stack: int = 6, dps: int = 50
) -> dict[tuple[int, int], ArcLaw]:
    """The arc law of every class with min_arc <= min_stack + 1, keyed (min_arc, min_stack)."""
    return {
        (lam, r): arc_law(StructureClass(lam, r), dps)
        for lam in range(1, max_arc + 1)
        for r in range(1, max_stack + 1)
        if lam <= r + 1
    }


def mean_arc_grid(
    max_arc: int = 6, max_stack: int = 6, dps: int = 50
) -> dict[tuple[int, int], object]:
    """Mean-arc coefficients (mpf) for every class with min_arc <= min_stack + 1, at ``dps`` digits."""
    return {key: law.mean for key, law in arc_law_grid(max_arc, max_stack, dps).items()}


# Numerators of the limiting type probabilities for genus-1 structures in the
# unconstrained class, over the common denominator 16n - 51.  Each entry is
# (constant, coefficient of sqrt(3*pi*n), coefficient of n).
GENUS1_TYPE_NUMERATORS = {
    "H": (288, 0, 0),
    "K": (-432, 24, 0),
    "L": (-432, 24, 0),
    "M": (525, -48, 16),
}
GENUS1_TYPE_DENOMINATOR = (-51, 0, 16)


def genus1_type_probability(kind: str, n: int, dps: int = 30):
    """Asymptotic probability that a genus-1 structure's block has this type."""
    a, b, c = GENUS1_TYPE_NUMERATORS[kind]
    da, db, dc = GENUS1_TYPE_DENOMINATOR
    with mp.workdps(dps):
        root = mp.sqrt(3 * mp.pi * n)
        return (a + b * root + c * n) / (da + db * root + dc * n)


def fit_power_exponent(values, n_lo: int, n_hi: int, rho, dps: int = 50):
    """Least-squares exponent d in values[n] ~ C * n^d * rho^(-n).

    ``values`` is indexable by n (list or dict) with positive entries over
    [n_lo, n_hi].  Returns (d, log_C) as floats.
    """
    with mp.workdps(dps):
        log_rho = mp.log(mp.mpf(rho))
        xs = []
        ys = []
        for n in range(n_lo, n_hi + 1):
            v = values[n]
            if v <= 0:
                raise ValueError(f"nonpositive value at n={n}")
            xs.append(mp.log(n))
            ys.append(mp.log(mp.mpf(v)) + n * log_rho)
        m = len(xs)
        mean_x = mp.fsum(xs) / m
        mean_y = mp.fsum(ys) / m
        sxx = mp.fsum((x - mean_x) ** 2 for x in xs)
        sxy = mp.fsum(
            (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
        )
        slope = sxy / sxx
        intercept = mean_y - slope * mean_x
        return float(slope), float(intercept)
