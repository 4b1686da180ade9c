"""Offspring, claim, and resource laws with exact moment helpers.

Sampling is inverse-CDF throughout, so a single uniform deviate per cell
determines the sample.  Partial moments (the mean restricted to claims below
or above a cutoff) are closed forms per law; numerical quadrature is used
only as a cross-check in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Optional, Union

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
        # built once and kept out of the dataclass fields, so equality,
        # hashing and repr still see the probabilities alone
        cum = np.cumsum(np.asarray(probs, dtype=np.float64))
        cum[self.max_offspring:] = 1.0
        cum.flags.writeable = False
        object.__setattr__(self, "_cdf", cum)
        # a deviate never exceeds 1, so only the cuts below 1 can count; each
        # is kept as the first hashed word whose unit lies above it
        cuts, times = np.unique(cum[cum < 1.0], return_counts=True)
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

    def cumulative(self) -> np.ndarray:
        """Read-only CDF grid for inverse-CDF sampling.  Every entry from
        ``max_offspring`` on is forced to 1.0, so a deviate arbitrarily close
        to 1 still maps to a count with positive mass."""
        return self._cdf

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
    """Smallest 64-bit word whose unit ``((w >> 11) + 0.5) * 2**-53``, the
    universe's unit of a mixed word, exceeds ``cut``; 2**64 if none does.

    The unit never decreases as the word grows, so bisection over the top
    53 bits on that exact float expression finds the first one above.
    """
    lo, hi = 0, 1 << 53  # the first top bits above the cut lie in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if (mid + 0.5) * 2.0 ** -53 > cut:
            hi = mid
        else:
            lo = mid + 1
    return lo << 11


@dataclass(frozen=True)
class Uniform:
    """Uniform law on (lo, hi).  Claim laws use lo = 0."""

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

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def icdf(self, u):
        return self.lo + np.asarray(u, dtype=np.float64) * (self.hi - self.lo)

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


#: cells of each table that seeds the beta inverse; interpolated guesses land
#: within about 1e-8 of the root (1e-6 at worst on the tested shapes), and
#: one Halley step takes them to a few ulp
_INVERSE_CELLS = 4096


class _BetaInverse:
    """x with I_x(a, b) = u for many units at once, each unit on its own.

    Each half works on its own tail p = min(u, 1 - u), which is exact: the
    lower half solves I_x(a, b) = p and the upper half I_{1-x}(b, a) = p.
    Near p = 0 the root moves like p**(1/a) (p**(1/b) for 1 - x), so a table
    of ``betaincinv`` at evenly spaced t = p**(1/a) (or p**(1/b)) gives a
    close linear guess, and one Halley step on ``betainc`` and the density
    refines it.  Units in a table's first cell, which holds the far tail,
    and units whose step is too large to trust fall back to ``betaincinv``.
    """

    def __init__(self, a: float, b: float):
        special = _scipy_special()
        self._a, self._b = a, b
        n = _INVERSE_CELLS
        t = np.arange(n + 1) / n
        nodes = []
        for alpha, beta, flip in ((a, b, False), (b, a, True)):
            top = 0.5 ** (1.0 / alpha)
            x = special.betaincinv(alpha, beta, np.minimum((top * t) ** alpha, 0.5))
            if flip:
                x = 1.0 - x
            # NaN in cell 0 fails the step check, so the first cell falls back
            x[0] = np.nan
            nodes.append(x)
        # per half, indexed by 0 (u <= 1/2) or 1 (u > 1/2): the table, its
        # map from p, betainc's parameters (I_x(a, b), then I_{1-x}(b, a))
        # and B(a, b) with the sign that turns f into the move of x
        self._nodes = np.concatenate(nodes)
        self._slopes = np.concatenate([np.append(np.diff(x), 0.0) for x in nodes])
        self._offsets = np.array([0, n + 1])
        self._exponents = np.array([1.0 / a, 1.0 / b])
        self._cells_per_t = n / 0.5 ** self._exponents
        self._first, self._second = np.array([a, b]), np.array([b, a])
        self._signed_beta = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)) * np.array([1.0, -1.0])
        # from relative error e in min(x, 1 - x), a Halley step leaves at most
        # K * e**3 with K = S**2/12 + S/6, S = |a - 1| + |b - 1|; keep only
        # steps after which that is below half an ulp
        spread = abs(a - 1.0) + abs(b - 1.0)
        self._tol = min(1e-6, (2.0 ** -54 / (spread * spread / 12.0 + spread / 6.0)) ** (1.0 / 3.0))

    def __call__(self, u: np.ndarray) -> np.ndarray:
        a1, b1 = self._a - 1.0, self._b - 1.0
        with np.errstate(all="ignore"):
            upper = u > 0.5
            half = upper.view(np.uint8)
            w = np.subtract(1.0, u)
            p = np.minimum(u, w)
            # the guess: p to its table cell, then linear inside the cell; a
            # NaN unit lands on some node, and the step check catches it
            t = np.power(p, self._exponents.take(half))
            t *= self._cells_per_t.take(half)
            cell = t.astype(np.intp)
            t -= cell
            cell += self._offsets.take(half)
            x = self._slopes.take(cell, mode="clip")
            x *= t
            x += self._nodes.take(cell, mode="clip")
            del cell
            # f = I_x(a, b) - p below 1/2 and I_{1-x}(b, a) - p above, then
            # Newton's step f / density, signed as a move of x
            np.subtract(1.0, x, out=w)
            flip = upper.astype(np.float64)
            z = np.abs(np.subtract(flip, x, out=t), out=t)
            f = _scipy_special().betainc(self._first.take(half), self._second.take(half), z)
            f -= p
            d = np.power(x, a1)
            d *= np.power(w, b1, out=t)
            f /= d
            f *= self._signed_beta.take(half)
            # 1 - x is rounded where x < 1/2; the density times the rounding
            # corrects I_{1-x}(b, a) to first order
            np.subtract(1.0, w, out=t)
            t -= x
            t *= flip
            f -= t
            # Halley's correction, with the curvature of the log-density
            np.divide(0.5 * a1, x, out=d)
            d -= np.divide(0.5 * b1, w, out=t)
            d *= f
            np.subtract(1.0, d, out=d)
            f /= d
            keep = np.abs(f, out=d) <= np.minimum(x, w, out=t) * self._tol
        x -= f
        if not keep.all():
            redo = ~keep
            x[redo] = _scipy_special().betaincinv(self._a, self._b, u[redo])
        return x


@dataclass(frozen=True)
class ScaledBeta:
    """Beta(a, b) law stretched onto (0, scale).

    ``icdf`` inverts I_x(a, b) with table-seeded Halley steps (see
    ``_BetaInverse``) when a > 1 and b != 1, and with
    ``scipy.special.betaincinv`` for the far tails, for any step it cannot
    trust, and for the other shapes (see ``_inverse``).
    """

    a: float
    b: float
    scale: float = 1.0

    kind: ClassVar[str] = "scaled_beta"
    is_bounded: ClassVar[bool] = True
    is_continuous: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.a <= 0.0 or self.b <= 0.0 or self.scale <= 0.0:
            raise ValueError("scaled beta law requires a, b, scale > 0")
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

    def pdf(self, x):
        y = np.asarray(x, dtype=np.float64) / self.scale
        ln_b = math.lgamma(self.a) + math.lgamma(self.b) - math.lgamma(self.a + self.b)
        with np.errstate(divide="ignore", invalid="ignore"):
            ln_f = (self.a - 1.0) * np.log(y) + (self.b - 1.0) * np.log1p(-y) - ln_b
            out = np.exp(ln_f) / self.scale
        return np.where((y > 0.0) & (y < 1.0), out, 0.0)

    def __getstate__(self) -> dict:
        # the inverse tables are rebuilt on first use, never pickled
        state = dict(self.__dict__)
        state.pop("_inverse", None)
        return state

    @cached_property
    def _inverse(self) -> Optional[_BetaInverse]:
        """Built on first use; None for the shapes left to ``betaincinv``.

        a = 1 and b = 1 have closed forms there.  For a < 1 the lower tail
        x ~ (a B(a, b) p)**(1/a) stretches the relative error of I_x by 1/a,
        and ``betainc`` is off by up to about 10 ulp for such shapes, so a
        step in double precision falls short of ``betaincinv``, which
        iterates in extended precision; ``betainc`` also costs 200-400 ns a
        sample there, which leaves little to gain.
        """
        if self.a <= 1.0 or self.b == 1.0:
            return None
        return _BetaInverse(self.a, self.b)

    def icdf(self, u):
        u = np.asarray(u, dtype=np.float64)
        if self._inverse is None:
            return self.scale * _scipy_special().betaincinv(self.a, self.b, u)
        x = self._inverse(u.ravel()).reshape(u.shape)
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

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x >= 0.0, self.rate * np.exp(-self.rate * x), 0.0)

    def icdf(self, u):
        return -np.log1p(-np.asarray(u, dtype=np.float64)) / self.rate

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

    def icdf(self, u):
        return np.full_like(np.asarray(u, dtype=np.float64), self.value)

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
