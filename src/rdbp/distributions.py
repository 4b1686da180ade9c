"""Offspring, claim, and resource laws with exact moment helpers.

Sampling is inverse-CDF throughout, so a single uniform deviate per cell
determines the sample.  Every scalar law's ``icdf(u, out=None)`` writes its
values into ``out`` when given, which may be ``u`` itself, so a reader that
owns a buffer of units turns them into the law's values in place.  The
engine then quantizes claims and resources onto the triple's lattice
(``LawTriple.lattice_bits``): int64 multiples of one power of two, on which
every sum is exact.  Partial moments (the mean restricted to claims below
or above a cutoff) are closed forms per law; numerical quadrature is used
only as a cross-check in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, NamedTuple, Optional, Union

import numpy as np

__all__ = [
    "OffspringLaw",
    "Uniform",
    "ScaledBeta",
    "Exponential",
    "Constant",
    "ScalarLaw",
    "LawTriple",
    "RegularityReport",
    "validate_regularity",
]


@dataclass(frozen=True)
class OffspringLaw:
    """Finite-support law on {0, 1, ..., K}; entry j is P[offspring = j]."""

    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probabilities)
        object.__setattr__(self, "probabilities", probs)
        if not probs:
            raise ValueError("offspring law needs at least one probability")
        if any(p < 0.0 or not math.isfinite(p) for p in probs):
            raise ValueError("offspring probabilities must be finite and non-negative")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("offspring probabilities must sum to 1 within 1e-12")
        # every CDF entry from max_offspring on is forced to 1.0, so a deviate
        # arbitrarily close to 1 still maps to a count with positive mass.  A
        # unit never exceeds _TOP_UNIT, so only the cuts below it can count;
        # each is kept as the first hashed word whose unit lies above it, out
        # of the dataclass fields, so equality, hashing and repr still see
        # the probabilities alone
        cum = np.cumsum(np.asarray(probs, dtype=np.float64))
        cum[self.max_offspring:] = 1.0
        cuts, times = np.unique(cum[cum < _TOP_UNIT], return_counts=True)
        object.__setattr__(self, "_word_cuts", tuple(
            (np.uint64(_first_word_above(cut)), times) for cut, times in zip(cuts.tolist(), times.tolist())))

    @property
    def max_offspring(self) -> int:
        """Largest litter size with positive mass (trailing zeros ignored)."""
        for j in range(len(self.probabilities) - 1, -1, -1):
            if self.probabilities[j] > 0.0:
                return j
        return 0

    def mean(self) -> float:
        return float(sum(j * p for j, p in enumerate(self.probabilities)))

    def variance(self) -> float:
        m = self.mean()
        second = sum(j * j * p for j, p in enumerate(self.probabilities))
        return float(second - m * m)

    def word_totals(self, words: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Offspring totals of rows of ``cells[i]`` >= 1 mixed 64-bit words,
        laid out back to back, from the words alone.

        A word's unit u draws the smallest count j with CDF(j) >= u, which
        is the number of CDF entries strictly below u.  So a row's total is,
        over each distinct cut c below 1, the number of entries equal to c
        times the number of units above c.  A word's unit exceeds a cut
        exactly when the word is at least the cut's threshold
        (``_first_word_above``), so the units are never built.
        """
        if len(cells) == 1:
            return np.array([sum(times * np.count_nonzero(words >= word) for word, times in self._word_cuts)],
                            dtype=np.int64)
        totals = np.zeros(len(cells), dtype=np.int64)
        # rows of one word each need no sum
        starts = np.cumsum(cells) - cells if len(cells) < len(words) else None
        for word, times in self._word_cuts:
            hits = words >= word
            totals += times * (hits if starts is None else np.add.reduceat(hits, starts, dtype=np.int64))
        return totals


def _first_word_above(cut: float) -> int:
    """Smallest 64-bit word whose unit ``((w >> 11) | 1) * 2**-53``, the
    universe's unit of a mixed word, exceeds ``cut``; 2**64 if none does.

    The unit never decreases as the word grows, so a binary search over the
    top 53 bits on that exact float expression finds the first one above.
    """
    lo, hi = 0, 1 << 53  # the first top bits above the cut lie in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if (mid | 1) * 2.0 ** -53 > cut:
            hi = mid
        else:
            lo = mid + 1
    return lo << 11


@dataclass(frozen=True)
class Uniform:
    """Uniform law on (lo, hi).  Claim laws use lo = 0.

    With lo = 0 and hi a power of two, the quanta of a hashed word's value
    are the word shifted right (``word_shift``), so the universe's reader
    builds neither units nor values for such a law: it passes the words to
    ``icdf`` with that shift.
    """

    lo: float
    hi: float

    kind: ClassVar[str] = "uniform"
    is_bounded: ClassVar[bool] = True
    is_continuous: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo < self.hi) or not math.isfinite(self.hi):
            raise ValueError("uniform law requires 0 <= lo < hi < inf")

    @property
    def support_lower(self) -> float:
        return self.lo

    @property
    def support_upper(self) -> float:
        return self.hi

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def variance(self) -> float:
        return (self.hi - self.lo) ** 2 / 12.0

    def cdf(self, x):
        return np.clip((np.asarray(x, dtype=np.float64) - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def icdf(self, u, out=None, *, shift=None):
        """``lo + u * (hi - lo)``; the ``+ lo`` pass is skipped where lo = 0.

        With a ``shift`` from ``word_shift(bits)``, ``u`` holds the hashed
        uint64 words rather than their units, and their values are written
        into the int64 ``out`` in truncated quanta of 2**-bits: ``u >> shift``,
        or zeros for a shift of 64 or more, rather than rely on what numpy
        makes of a shift that wide.
        """
        if shift is not None:
            if shift < 64:
                np.right_shift(u, shift, out=out.view(np.uint64))
            else:
                out.fill(0)
            return out
        x = np.multiply(np.asarray(u, dtype=np.float64), self.hi - self.lo, out=out)
        return np.add(x, self.lo, out=out) if self.lo else x

    def word_shift(self, bits: int) -> Optional[int]:
        """The k for which ``w >> k`` is, for every 64-bit word w, the value
        of w's unit in truncated quanta of 2**-bits; None unless lo = 0 and
        hi = 2**E with E + bits <= 52 and E >= -1021.

        The unit is m * 2**-53 with m = (w >> 11) | 1 below 2**53, so its
        value m * 2**(E - 53) is a double (E >= -1021) and the scaling by
        2**bits is exact.  Truncating m * 2**(E + bits - 53) drops the
        ``| 1`` bit when E + bits <= 52, which leaves w >> (64 - E - bits).
        A k of 64 or more means every value lies below one quantum.
        """
        mantissa, exponent = math.frexp(self.hi)
        if self.lo or mantissa != 0.5 or not -1021 <= exponent - 1 <= 52 - bits:
            return None
        return 65 - exponent - bits

    def lower_partial_moment(self, t: float) -> float:
        """E[X; X <= t], the mean restricted to values at most t."""
        if t <= self.lo:
            return 0.0
        if t >= self.hi:
            return self.mean()
        return (t * t - self.lo * self.lo) / (2.0 * (self.hi - self.lo))

    def upper_partial_moment(self, t: float) -> float:
        """E[X; X >= t]."""
        if t <= self.lo:
            return self.mean()
        if t >= self.hi:
            return 0.0
        return (self.hi * self.hi - t * t) / (2.0 * (self.hi - self.lo))


def _scipy_special():
    """``scipy.special``, imported on first use.  Only ``ScaledBeta`` needs
    it, and loading scipy costs more start-up time and memory than the rest
    of the package, which runs on other laws should not pay."""
    import scipy.special

    return scipy.special


def _betaincinv(a: float, b: float, u):
    """``scipy.special.betaincinv(a, b, u)``, but with the leading-order root
    (a B(a, b) u)**(1/a) of the lower tail wherever betaincinv returns NaN
    or no normal double there.

    betaincinv returns NaN for (2, 5) at u <= 1e-186 and (5, 2) at
    u <= 1e-151, and the smallest normal double, 2.2e-308, for (0.5, 2) at
    u = 1e-300, whose root is 4.4e-601.  The leading root x0 stands in only
    where the next term of the series, of relative size (b - 1) x0 / (a + 1),
    is at most an ulp; elsewhere betaincinv's value, NaN included, is kept.
    The kernel's units are at least 2**-53; there only shapes with a below
    about 0.05 reach roots under the smallest normal double, so every other
    shape keeps betaincinv's values bit for bit.
    """
    special = _scipy_special()
    x = special.betaincinv(a, b, u)
    far = ~(x > np.finfo(np.float64).tiny) & (u < 0.5)
    if np.any(far):
        # u**(1/a) as m**(1/a) * 2**(r/a) * 2**q with u = m * 2**e and
        # e = q*a + r exactly: a rounded 1/a times ln u ~ -700 would cost
        # tens of ulp
        m, e = np.frexp(u)
        r = np.fmod(e, a)
        q = np.rint((e - r) / a).astype(np.int64)
        lead = math.exp((math.log(a) + float(special.betaln(a, b))) / a)
        root = np.ldexp(lead * m ** (1.0 / a) * np.exp2(r / a), q)
        tiny = abs(b - 1.0) * root <= np.finfo(np.float64).eps * (a + 1.0)
        x = np.where(far & tiny, root, x)
    return x


#: cells of each table that seeds the beta inverse; interpolated guesses land
#: within about 1e-8 of the root (1e-6 at worst on the tested shapes), and
#: one Halley step takes them to a few ulp.  Every node keeps its own tail
#: from ``betainc``, computed once with the table
_INVERSE_CELLS = 4096

#: the outer abscissae of the 3-point Gauss-Legendre rule lie this far from
#: the middle of the interval, in units of its width
_GL_OFFSET = 0.5 * math.sqrt(0.6)


def _powered(base: np.ndarray, exponent: float) -> np.ndarray:
    """base**exponent, in base's own memory; an exponent of 1 costs nothing."""
    return base if exponent == 1.0 else np.power(base, exponent, out=base)


def _density(z: np.ndarray, zm1: float, ym1: float) -> np.ndarray:
    """z**zm1 * (1 - z)**ym1, in z's own memory."""
    y = _powered(np.subtract(1.0, z), ym1)
    z = _powered(z, zm1)
    z *= y
    return z


def _density_integral(zm1: float, ym1: float, lo: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The integral of z**zm1 * (1 - z)**ym1 over [lo, lo + width], by the
    3-point Gauss-Legendre rule, which is exact for polynomials of degree 5."""
    mid = width * 0.5
    mid += lo
    offset = width * _GL_OFFSET
    total = _density(mid - offset, zm1, ym1)
    total += _density(np.add(mid, offset, out=offset), zm1, ym1)
    total *= 5.0 / 8.0
    total += _density(mid, zm1, ym1)
    total *= width
    total *= 4.0 / 9.0
    return total


class _InverseHalf(NamedTuple):
    """One half of a ``_BetaInverse``: u <= 1/2, in z = x, or u > 1/2, in
    z = 1 - x as the step rounds it."""

    flip: bool  # z = 1 - x
    exponent: float  # t = p**exponent ...
    cells_per_t: float  # ... times this is p's table cell plus its place in it
    nodes: np.ndarray  # the table of x
    slopes: np.ndarray  # x's rise over each cell
    starts: np.ndarray  # the nodes in z
    tails: np.ndarray  # I_z at each node; NaN where the cell falls back
    zm1: float  # the density in z is z**zm1 * (1 - z)**ym1 / B(a, b)
    ym1: float


class _BetaInverse:
    """x with I_x(a, b) = u for many units at once, each unit on its own.

    Each half works on its own tail p = min(u, 1 - u), which is exact: the
    lower half solves I_x(a, b) = p and the upper half I_{1-x}(b, a) = p,
    each in its own variable z = x or 1 - x.  Near p = 0 the root moves like
    p**(1/a) (p**(1/b) for 1 - x), so a table of ``betaincinv`` at evenly
    spaced t = p**(1/a) (or p**(1/b)) gives a close linear guess, and one
    Halley step refines it.  The step's residual I_z - p is the tail at the
    guess's node, which ``betainc`` gave when the table was built, minus p,
    plus the 3-point Gauss-Legendre integral of the density from the node to
    the guess; the guess lies inside the node's cell, so that interval is
    short.  Units in a table's first cell, which holds the far tail, units
    in the cells where the rule is not good to half an ulp of the tail, and
    units whose step is too large to trust fall back to ``betaincinv``.
    """

    # b just above ScaledBeta._inverse's cut leaves NaN and inf in the upper
    # half's far cells, which fall back as any such cell does
    @np.errstate(all="ignore")
    def __init__(self, a: float, b: float):
        special = _scipy_special()
        self._a, self._b = a, b
        n = _INVERSE_CELLS
        t = np.arange(n + 1) / n
        self._beta = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
        self._halves = []
        for alpha, beta, flip in ((a, b, False), (b, a, True)):
            top = 0.5 ** (1.0 / alpha)
            x = special.betaincinv(alpha, beta, np.minimum((top * t) ** alpha, 0.5))
            if flip:
                x = 1.0 - x
            # NaN in cell 0 fails the step check, so the first cell falls back
            x[0] = np.nan
            # z as the step rounds it, so the integral starts exactly there
            z = 1.0 - x if flip else x
            tails = special.betainc(alpha, beta, z)
            # a cell whose rule over its whole width differs from the rule over
            # its two halves by half an ulp of its tail falls back too
            width = np.diff(z)
            whole = _density_integral(alpha - 1.0, beta - 1.0, z[:-1], width)
            split = _density_integral(alpha - 1.0, beta - 1.0, z[:-1], 0.5 * width)
            split += _density_integral(alpha - 1.0, beta - 1.0, z[:-1] + 0.5 * width, 0.5 * width)
            tails[:-1][~(np.abs(whole - split) <= 2.0 ** -54 * self._beta * tails[:-1])] = np.nan
            self._halves.append(_InverseHalf(flip, 1.0 / alpha, n / top, x, np.append(np.diff(x), 0.0), z, tails,
                                             alpha - 1.0, beta - 1.0))
        # from relative error e in min(x, 1 - x), a Halley step leaves at most
        # K * e**3 with K = S**2/12 + S/6, S = |a - 1| + |b - 1|; keep only
        # steps after which that is below half an ulp
        spread = abs(a - 1.0) + abs(b - 1.0)
        self._tol = min(1e-6, (2.0 ** -54 / (spread * spread / 12.0 + spread / 6.0)) ** (1.0 / 3.0))

    def __call__(self, u: np.ndarray) -> np.ndarray:
        x, redo = np.empty_like(u), []
        upper = u > 0.5
        with np.errstate(all="ignore"):
            for half, where in zip(self._halves, (np.flatnonzero(~upper), np.flatnonzero(upper))):
                x[where], keep = self._step(half, u.take(where))
                redo.append(where[~keep])
        redo = np.concatenate(redo)
        if len(redo):
            x[redo] = _betaincinv(self._a, self._b, u[redo])
        return x

    def _step(self, half: _InverseHalf, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The Halley steps of one half's units, and which of them to keep."""
        a1, b1 = self._a - 1.0, self._b - 1.0
        p = np.subtract(1.0, u) if half.flip else u
        # the guess: p to its table cell, then linear inside the cell; a
        # NaN unit lands on some node, and the step check catches it
        t = p ** half.exponent
        t *= half.cells_per_t
        cell = t.astype(np.intp)
        t -= cell
        x = half.slopes.take(cell, mode="clip")
        x *= t
        x += half.nodes.take(cell, mode="clip", out=t)
        w = np.subtract(1.0, x)
        # f = B(a, b) (I_z - p): the tail at the cell's node minus p, plus the
        # integral of the density from the node to z
        f = half.tails.take(cell, mode="clip")
        f -= p
        f *= self._beta
        lo = half.starts.take(cell, mode="clip", out=t)
        del cell
        f += _density_integral(half.zm1, half.ym1, lo, np.subtract(w if half.flip else x, lo))
        # Newton's step f / density, signed as a move of x
        d = _powered(x.copy(), a1)
        d *= _powered(w.copy(), b1)
        f /= d
        if half.flip:
            np.negative(f, out=f)
            # 1 - x is rounded where x < 1/2; the density times the rounding
            # corrects I_{1-x}(b, a) to first order
            r = np.subtract(1.0, w, out=t)
            r -= x
            f -= r
        # Halley's correction, with the curvature of the log-density
        np.divide(0.5 * a1, x, out=d)
        d -= np.divide(0.5 * b1, w, out=t)
        d *= f
        np.subtract(1.0, d, out=d)
        f /= d
        keep = np.abs(f, out=d) <= np.minimum(x, w, out=t) * self._tol
        x -= f
        return x, keep


@dataclass(frozen=True)
class ScaledBeta:
    """Beta(a, b) law stretched onto (0, scale).

    ``icdf`` inverts I_x(a, b) with table-seeded Halley steps (see
    ``_BetaInverse``) when a > 1 and b != 1; their residuals come from node
    tails that ``scipy.special.betainc`` gives once per table, not per
    sample.  ``scipy.special.betaincinv`` serves the far tails, the cells
    where the step's quadrature is not good enough, any step it cannot
    trust, and the other shapes (see ``_inverse``), with the leading-order
    root where betaincinv fails far in the lower tail (see ``_betaincinv``).
    """

    a: float
    b: float
    scale: float = 1.0

    kind: ClassVar[str] = "scaled_beta"
    is_bounded: ClassVar[bool] = True
    is_continuous: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if not all(0.0 < v < math.inf for v in (self.a, self.b, self.scale)):
            raise ValueError("scaled beta law requires finite a, b, scale > 0")
        # pay the import while the law is built, not inside a timed call
        _scipy_special()

    @property
    def support_lower(self) -> float:
        return 0.0

    @property
    def support_upper(self) -> float:
        return self.scale

    def mean(self) -> float:
        return self.scale * self.a / (self.a + self.b)

    def variance(self) -> float:
        s = self.a + self.b
        return self.scale ** 2 * self.a * self.b / (s * s * (s + 1.0))

    def cdf(self, x):
        y = np.clip(np.asarray(x, dtype=np.float64) / self.scale, 0.0, 1.0)
        return _scipy_special().betainc(self.a, self.b, y)

    def __getstate__(self) -> dict:
        # the inverse tables are rebuilt on first use, never pickled
        state = dict(self.__dict__)
        state.pop("_inverse", None)
        return state

    @cached_property
    def _inverse(self) -> Optional[_BetaInverse]:
        """Built on first use; None for the shapes left to ``betaincinv``.

        a = 1 and b = 1 have closed forms there.  For a < 1 the lower tail
        x ~ (a B(a, b) p)**(1/a) stretches the relative error of I_x by 1/a.
        The step reads I_x from node tails that ``betainc`` gives, which is
        off by up to about 10 ulp for such shapes, so it would fall short of
        ``betaincinv``, which iterates in extended precision; and the
        density's pole at 0 defeats the 3-point rule in the first cells.
        For b below about 9.3e-4 the upper half's top cut 0.5**(1/b)
        underflows to 0, which leaves that half no table.
        """
        if self.a <= 1.0 or self.b == 1.0 or 0.5 ** (1.0 / self.b) == 0.0:
            return None
        return _BetaInverse(self.a, self.b)

    def icdf(self, u, out=None):
        """The inverse reads ``u`` after it writes, so its values are built
        aside and copied into ``out``."""
        u = np.asarray(u, dtype=np.float64)
        if self._inverse is None:
            return np.multiply(_betaincinv(self.a, self.b, u), self.scale, out=out)
        x = self._inverse(u.ravel()).reshape(u.shape)
        if out is not None:
            return np.multiply(x, self.scale, out=out)
        x *= self.scale
        return x[()]

    def lower_partial_moment(self, t: float) -> float:
        # integrating x against the density raises the first beta parameter by one
        if t <= 0.0:
            return 0.0
        if t >= self.scale:
            return self.mean()
        return self.mean() * float(_scipy_special().betainc(self.a + 1.0, self.b, t / self.scale))

    def upper_partial_moment(self, t: float) -> float:
        if t <= 0.0:
            return self.mean()
        if t >= self.scale:
            return 0.0
        return self.mean() * float(1.0 - _scipy_special().betainc(self.a + 1.0, self.b, t / self.scale))


@dataclass(frozen=True)
class Exponential:
    """Exponential law with the given rate; mean 1/rate.  Unbounded support."""

    rate: float

    kind: ClassVar[str] = "exponential"
    is_bounded: ClassVar[bool] = False
    is_continuous: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.rate <= 0.0 or not math.isfinite(self.rate):
            raise ValueError("exponential law requires rate > 0")
        # the lattice is read off the largest draw, about 36.7 / rate, which
        # a rate below about 2.044e-307 sends past the largest double
        with np.errstate(over="ignore"):
            if not math.isfinite(_largest_value(self)):
                raise ValueError(f"exponential law requires a rate whose largest draw is finite, not {self.rate!r}")

    @property
    def support_lower(self) -> float:
        return 0.0

    @property
    def support_upper(self) -> float:
        return math.inf

    def mean(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        return 1.0 / (self.rate * self.rate)

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x > 0.0, -np.expm1(-self.rate * x), 0.0)

    def icdf(self, u, out=None):
        # -log1p(-u) / rate: division rounds the same whichever side is negated
        x = np.log1p(np.negative(np.asarray(u, dtype=np.float64), out=out), out=out)
        return np.divide(x, -self.rate, out=out)

    def lower_partial_moment(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        mu = self.mean()
        return mu - (t + mu) * math.exp(-self.rate * t)

    def upper_partial_moment(self, t: float) -> float:
        if t <= 0.0:
            return self.mean()
        mu = self.mean()
        return (t + mu) * math.exp(-self.rate * t)


@dataclass(frozen=True)
class Constant:
    """Point mass.  Handy for degenerate fixtures and constant resources.

    The lower partial moment owns the boundary atom: lower(t) covers X <= t
    and upper(t) covers X > t, so the two always sum to the mean.
    """

    value: float

    kind: ClassVar[str] = "constant"
    is_bounded: ClassVar[bool] = True
    is_continuous: ClassVar[bool] = False

    def __post_init__(self) -> None:
        if self.value < 0.0 or not math.isfinite(self.value):
            raise ValueError("constant law requires a finite value >= 0")

    @property
    def support_lower(self) -> float:
        return self.value

    @property
    def support_upper(self) -> float:
        return self.value

    def mean(self) -> float:
        return self.value

    def variance(self) -> float:
        return 0.0

    def cdf(self, x):
        return np.where(np.asarray(x, dtype=np.float64) >= self.value, 1.0, 0.0)

    def icdf(self, u, out=None):
        if out is None:
            return np.full_like(np.asarray(u, dtype=np.float64), self.value)
        out.fill(self.value)
        return out

    def lower_partial_moment(self, t: float) -> float:
        return self.value if t >= self.value else 0.0

    def upper_partial_moment(self, t: float) -> float:
        return 0.0 if t >= self.value else self.value


ScalarLaw = Union[Uniform, ScaledBeta, Exponential, Constant]


@dataclass(frozen=True)
class LawTriple:
    """The three laws that define one population model."""

    offspring: OffspringLaw
    claim: ScalarLaw
    resource: ScalarLaw

    def __post_init__(self) -> None:
        for name in ("claim", "resource"):
            law = getattr(self, name)
            if not hasattr(law, "lower_partial_moment"):
                raise TypeError(f"{name} law must be a scalar law instance, got {type(law).__name__}")

    @cached_property
    def lattice_bits(self) -> int:
        """s: claims and resources are int64 multiples of the quantum 2**-s.

        It follows from the laws alone, so every process on this triple
        shares one lattice, whatever its founder count or policy.
        """
        return _lattice_bits(max(_largest_value(self.claim), _largest_value(self.resource)))

    @cached_property
    def word_shifts(self) -> tuple[Optional[int], Optional[int]]:
        """The claim and the resource law's ``Uniform.word_shift`` on this
        lattice, None for a law that has none: the reader writes the quanta
        of a law with a shift straight from the hashed words."""
        return tuple(law.word_shift(self.lattice_bits) if isinstance(law, Uniform) else None
                     for law in (self.claim, self.resource))

    @property
    def quantum(self) -> float:
        """2**-s, the value of one lattice step."""
        return 2.0 ** -self.lattice_bits


#: every value a unit can give lies below 2**_VALUE_BITS quanta, so the
#: engine's CLAIM_CAP = 2**27 of them sum below 2**63
_VALUE_BITS = 36
#: the largest unit the universe gives, ``((w >> 11) | 1) * 2**-53``
_TOP_UNIT = 1.0 - 2.0 ** -53


def _largest_value(law: ScalarLaw) -> float:
    """The largest value any unit can give: the upper end of a bounded
    support, or the value of the largest unit."""
    top = law.support_upper
    return top if math.isfinite(top) else float(law.icdf(np.array([_TOP_UNIT]))[0])


def _lattice_bits(top: float) -> int:
    """The s that puts every value up to ``top`` below 2**_VALUE_BITS quanta
    of 2**-s (at most 1023, so that 2.0**s is finite)."""
    return min(_VALUE_BITS - math.frexp(top)[1], 1023)


@dataclass(frozen=True)
class RegularityReport:
    """Named checks on a law triple.

    The first five flags gate the survival classification.  The reachability
    flag is a sufficient proxy (some k >= 2 with p_k > 0 and F(rbar/k) > 0,
    rbar the resource mean), not the sharpest possible condition.
    bounded_claims is only needed for strongest-first analysis and for
    envelope statements, so it does not enter ``ok``.
    """

    supercritical_offspring: bool
    extinction_reachable: bool
    growth_reachable: bool
    small_claims_reachable: bool
    finite_moments: bool
    bounded_claims: bool
    messages: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (
            self.supercritical_offspring
            and self.extinction_reachable
            and self.growth_reachable
            and self.small_claims_reachable
            and self.finite_moments
        )


def validate_regularity(triple: LawTriple) -> RegularityReport:
    off = triple.offspring
    msgs: list[str] = []

    m = off.mean()
    supercritical = 1.0 < m < math.inf
    if not supercritical:
        msgs.append(f"offspring mean {m:g} is not in (1, inf)")

    extinction = off.probabilities[0] > 0.0
    if not extinction:
        msgs.append("p0 = 0: the population can never shrink to zero in one step")

    growth = any(p > 0.0 for j, p in enumerate(off.probabilities) if j >= 2)
    if not growth:
        msgs.append("no p_k > 0 with k >= 2: supercritical growth needs multiple births")

    rbar = triple.resource.mean()
    reachable = False
    for j, p in enumerate(off.probabilities):
        if j >= 2 and p > 0.0 and float(triple.claim.cdf(rbar / j)) > 0.0:
            reachable = True
            break
    if not reachable:
        msgs.append("no k >= 2 with p_k > 0 and F(rbar/k) > 0: k served children are unreachable")

    mu = triple.claim.mean()
    finite = (
        0.0 < mu < math.inf
        and math.isfinite(triple.claim.variance())
        and math.isfinite(triple.resource.variance())
        and math.isfinite(rbar)
        and math.isfinite(off.variance())
    )
    if not finite:
        msgs.append("moment conditions fail: need 0 < claim mean < inf and finite variances")

    bounded = triple.claim.is_bounded
    if not bounded:
        msgs.append("claim law is unbounded: strongest-first analysis is unavailable")

    return RegularityReport(
        supercritical_offspring=supercritical,
        extinction_reachable=extinction,
        growth_reachable=growth,
        small_claims_reachable=reachable,
        finite_moments=finite,
        bounded_claims=bounded,
        messages=tuple(msgs),
    )
