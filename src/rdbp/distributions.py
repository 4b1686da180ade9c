"""Offspring, claim, and resource laws with exact moment helpers.

Sampling is inverse-CDF throughout, so a single uniform deviate per cell
determines the sample.  Partial moments (the mean restricted to claims below
or above a cutoff) are closed forms per law; numerical quadrature is used
only as a cross-check in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np
from scipy.special import betainc, betaincinv

__all__ = [
    "OffspringLaw",
    "Uniform",
    "ScaledBeta",
    "Exponential",
    "Constant",
    "ScalarLaw",
    "LawTriple",
    "RegularityReport",
    "mean",
    "cdf",
    "lower_partial_moment",
    "upper_partial_moment",
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

    def quantile(self, u):
        """Smallest j with CDF(j) >= u.  Vectorised."""
        return np.searchsorted(self._cdf, u, side="left").astype(np.int64)


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


@dataclass(frozen=True)
class ScaledBeta:
    """Beta(a, b) law stretched onto (0, scale)."""

    a: float
    b: float
    scale: float = 1.0

    kind: ClassVar[str] = "scaled_beta"
    is_bounded: ClassVar[bool] = True
    is_continuous: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.a <= 0.0 or self.b <= 0.0 or self.scale <= 0.0:
            raise ValueError("scaled beta law requires a, b, scale > 0")

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
        return betainc(self.a, self.b, y)

    def pdf(self, x):
        y = np.asarray(x, dtype=np.float64) / self.scale
        ln_b = math.lgamma(self.a) + math.lgamma(self.b) - math.lgamma(self.a + self.b)
        with np.errstate(divide="ignore", invalid="ignore"):
            ln_f = (self.a - 1.0) * np.log(y) + (self.b - 1.0) * np.log1p(-y) - ln_b
            out = np.exp(ln_f) / self.scale
        return np.where((y > 0.0) & (y < 1.0), out, 0.0)

    def icdf(self, u):
        return self.scale * betaincinv(self.a, self.b, np.asarray(u, dtype=np.float64))

    def lower_partial_moment(self, t: float) -> float:
        # integrating x against the density raises the first beta parameter by one
        if t <= 0.0:
            return 0.0
        if t >= self.scale:
            return self.mean()
        return self.mean() * float(betainc(self.a + 1.0, self.b, t / self.scale))

    def upper_partial_moment(self, t: float) -> float:
        if t <= 0.0:
            return self.mean()
        if t >= self.scale:
            return 0.0
        return self.mean() * float(1.0 - betainc(self.a + 1.0, self.b, t / self.scale))


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


def mean(law) -> float:
    return law.mean()


def cdf(law, x):
    return law.cdf(x)


def lower_partial_moment(law, t: float) -> float:
    return law.lower_partial_moment(t)


def upper_partial_moment(law, t: float) -> float:
    return law.upper_partial_moment(t)


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
