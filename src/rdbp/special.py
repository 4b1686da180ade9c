"""Self-contained scalar special functions for the closed-form critical values.

These deliberately do not share a backend with the law objects (which lean on
scipy), so closed-form results and generic solver results can be compared as
genuinely independent routes.

regularized_incomplete_beta follows the classic continued-fraction evaluation
(modified Lentz), and the inverse is a bisection-safeguarded Newton iteration.
"""

from __future__ import annotations

import math

__all__ = [
    "ConvergenceError",
    "regularized_incomplete_beta",
    "inverse_regularized_incomplete_beta",
]


class ConvergenceError(ArithmeticError):
    """An iteration failed to reach its tolerance within the step budget."""


_MAX_CF_ITER = 500
_CF_EPS = 1e-16
_TINY = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta integral (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_CF_ITER + 1):
        m2 = 2 * m
        num = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + num * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + num / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        num = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + num * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + num / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ConvergenceError(f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_{a,b}(x) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("regularized incomplete beta requires a, b > 0")
    if x < 0.0 or x > 1.0:
        raise ValueError("regularized incomplete beta requires x in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # the continued fraction converges fast only on its own side of the mean
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def inverse_regularized_incomplete_beta(a: float, b: float, p: float) -> float:
    """Solve I_{a,b}(x) = p for x, by Newton steps safeguarded with bisection."""
    if p < 0.0 or p > 1.0:
        raise ValueError("inverse incomplete beta requires p in [0, 1]")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    ln_b = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    lo, hi = 0.0, 1.0
    x = a / (a + b)
    for _ in range(200):
        f = regularized_incomplete_beta(a, b, x) - p
        if f > 0.0:
            hi = x
        else:
            lo = x
        # near x = 1 the density diverges and |f| < 1e-14 may be unreachable
        # in double precision, so a bracket collapsed to a few ulps also counts
        if abs(f) < 1e-14 or hi - lo <= 1e-16 + 4e-16 * hi:
            return x
        with_pdf = (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - ln_b
        step = f / math.exp(with_pdf) if with_pdf > -700.0 else 0.0
        x_new = x - step
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        x = x_new
    raise ConvergenceError(f"inverse incomplete beta stalled at a={a}, b={b}, p={p}")
