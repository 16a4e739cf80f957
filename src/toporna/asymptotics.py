"""Singularity analysis: growth rates, arc-count limit law, exponent fits.

The dominant singularity of every genus-g series in a structure class is the
smallest positive root of the discriminant B^2 - 4 (x^2 y)^r A at y = 1;
genus only changes the subexponential factor n^((6g-3)/2).  This module
locates that root numerically (an exact sign scan, then Newton's method in
mpmath to controlled precision),
differentiates the root curve implicitly to get the arc-count limit law, and
provides a least-squares helper for reading exponents off exact coefficient
data.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

from .genfun import StructureClass, discriminant_poly
from .series import Polynomial


#: The root is first bracketed on the grid k / SCAN_STEPS.
SCAN_STEPS = 1024


def singularity(cls_: StructureClass, dps: int = 50):
    """Smallest positive root of the discriminant at marker value 1.

    The first grid point k / 1024 below 2 where the discriminant is negative
    is found by exact integer sign tests: the sign of Delta(k / 1024) is that
    of sum_i c_i k^i 1024^(deg - i).  Newton's method then runs in mpmath
    at dps + 15 digits inside the bracket ((k - 1) / 1024, k / 1024], which
    every evaluation narrows; a step that would leave it is replaced by a
    bisection step.  It stops once a step, or the bracket, is below
    10^-(dps + 10).
    """
    poly = discriminant_poly(cls_).at_y(1)
    top = poly.degree
    scaled = Polynomial([c * SCAN_STEPS ** (top - i) for i, c in enumerate(poly.coeffs)])
    k = next((k for k in range(1, 2 * SCAN_STEPS) if scaled(k) < 0), None)
    if k is None:
        raise ArithmeticError("no sign change found below x = 2")
    slope = poly.derivative()
    with mp.workdps(dps + 15):
        lo, hi = mp.mpf(k - 1) / SCAN_STEPS, mp.mpf(k) / SCAN_STEPS
        target = mp.mpf(10) ** (-(dps + 10))
        t = (lo + hi) / 2
        while hi - lo > target:
            value = poly(t)
            if value == 0:
                return t
            if value < 0:
                hi = t
            else:
                lo = t
            step = value / slope(t)
            if lo < t - step < hi:
                t -= step
                if abs(step) < target:
                    return t
            else:
                t = (lo + hi) / 2
        return (lo + hi) / 2


@dataclass(frozen=True)
class ArcLaw:
    """Arc-count limit law data for one structure class (any genus >= 0)."""

    rho: object
    rho_d1: object
    rho_d2: object
    mean: object
    variance: object


def arc_law(cls_: StructureClass, dps: int = 50) -> ArcLaw:
    """Mean and variance coefficients of the arc-count limit law.

    The number of arcs in a random length-n structure is asymptotically
    Gaussian with mean ``mean * n`` and variance ``variance * n``; both
    coefficients are independent of genus.
    """
    disc = discriminant_poly(cls_)
    px = disc.partial_x().at_y(1)
    py = disc.partial_y().at_y(1)
    pxx = disc.partial_x().partial_x().at_y(1)
    pxy = disc.partial_x().partial_y().at_y(1)
    pyy = disc.partial_y().partial_y().at_y(1)
    with mp.workdps(dps + 15):
        rho = singularity(cls_, dps)
        vx = px(rho)
        vy = py(rho)
        d1 = -vy / vx
        d2 = -(pxx(rho) * d1 * d1 + 2 * pxy(rho) * d1 + pyy(rho)) / vx
        ratio = d1 / rho
        mean = -ratio
        variance = ratio * ratio - (d2 + d1) / rho
        return ArcLaw(rho, d1, d2, mean, variance)


def mean_arc_grid(
    max_arc: int = 6, max_stack: int = 6, dps: int = 50
) -> dict[tuple[int, int], object]:
    """Mean-arc coefficients (mpf) for every class with min_arc <= min_stack + 1, at ``dps`` digits."""
    out: dict[tuple[int, int], object] = {}
    for lam in range(1, max_arc + 1):
        for r in range(1, max_stack + 1):
            if lam > r + 1:
                continue
            out[(lam, r)] = arc_law(StructureClass(lam, r), dps).mean
    return out


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
