"""Lower real branch of the Lambert W function, for tests only.

A Halley iteration seeded from branch-point and log-log expansions.  The
exponential closed form is cross-checked through it: inverting the cutoff
equation with W_{-1} recovers the critical resource mean by a route that
shares nothing with the solvers.
"""

import math

from rdbp.criteria import ConvergenceError

_INV_E = math.exp(-1.0)


def lambert_w_minus1(z: float) -> float:
    """Lower real branch of w * exp(w) = z, defined for z in [-1/e, 0).

    Returns w <= -1 with |w exp(w) - z| <= 1e-12 |z|.
    """
    if z >= 0.0 or z < -_INV_E - 1e-12:
        raise ValueError(f"lambert_w_minus1 requires z in [-1/e, 0), got {z}")
    delta = 1.0 + math.e * z
    if delta <= 0.0:
        return -1.0
    if delta < 1e-2:
        # branch-point series in p = -sqrt(2 (1 + e z))
        p = -math.sqrt(2.0 * delta)
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    else:
        # asymptotic seed from the log-log expansion near 0-
        l1 = math.log(-z)
        l2 = math.log(-l1)
        w = l1 - l2 + l2 / l1
    for _ in range(100):
        e_w = math.exp(w)
        f = w * e_w - z
        # tolerances scale with |z|: the residual itself shrinks with z
        if abs(f) <= 1e-15 * abs(z):
            break
        # Halley update
        denom = e_w * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        step = f / denom
        w -= step
        if abs(step) <= 1e-15 * abs(w):
            break
    if abs(w * math.exp(w) - z) > 1e-12 * abs(z):
        raise ConvergenceError(f"lambert_w_minus1 residual too large at z={z}")
    return w
