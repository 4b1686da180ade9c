"""Roots of the regularized incomplete beta in mpmath, for tests only.

The referee for both routes that invert I_x(a, b) in double precision:
``ScaledBeta.icdf`` and the beta closed forms of the critical resource mean.
"""

import mpmath


def beta_root(a, b, u, start=0.0):
    """The x with I_x(a, b) = u, to 2**-120 relative, by Newton's method at
    200 bits, kept inside a shrinking bracket.  ``start`` only saves steps."""
    with mpmath.workprec(200):
        a, b, u = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(u)
        if u == 0 or u == 1:
            return u
        ln_beta = mpmath.log(mpmath.beta(a, b))
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        if 0.0 < start < 1.0:
            x = mpmath.mpf(start)
        elif u < 0.5:  # the leading term of each tail
            x = min((a * mpmath.beta(a, b) * u) ** (1 / a), mpmath.mpf(0.5))
        else:
            x = max(1 - (b * mpmath.beta(a, b) * (1 - u)) ** (1 / b), mpmath.mpf(0.5))
        for _ in range(1000):
            # I_x - u, from the tail that holds u exactly
            if u < 0.5:
                f = mpmath.betainc(a, b, 0, x, regularized=True) - u
            else:
                f = (1 - u) - mpmath.betainc(a, b, x, 1, regularized=True)
            step = f / mpmath.exp((a - 1) * mpmath.log(x) + (b - 1) * mpmath.log1p(-x) - ln_beta)
            if abs(step) <= x * mpmath.mpf(2) ** -120:
                return x - step
            lo, hi = (lo, x) if f > 0 else (x, hi)
            x = x - step if lo < x - step < hi else (lo + hi) / 2 if lo > 0 else hi / 2 ** 16
        raise AssertionError(f"no root for a={a}, b={b}, u={u}")
