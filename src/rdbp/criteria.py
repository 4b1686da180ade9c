"""Extinction and survival analysis.

The decisive quantity for the ordered policies is an effective offspring
mean: the raw mean m curtailed by the fraction of claims a policy can fund
in the long run.  Serving small claims first funds claims below a cutoff T
solving  E[X; X <= T] = r/m,  so the effective mean is m * F(T).  Serving
large claims first funds claims above a cutoff solving  E[X; X >= T] = r/m,
giving m * (1 - F(T)).  Service in arrival order is blind to claim size and
survives precisely when the resource mean r beats the claim mean.

When r >= m * E[X] the demand of all prospective children is covered on
average and the curtailment factor is taken as 1 (the cutoffs leave the
support), so both effective means reduce to m.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

from .distributions import (
    Constant,
    Exponential,
    LawTriple,
    ScaledBeta,
    Uniform,
    _scipy_special,
    validate_regularity,
)

__all__ = [
    "DomainError",
    "UnboundedClaimError",
    "UnsupportedKindError",
    "ConvergenceError",
    "SolverConfig",
    "Classification",
    "CriticalReport",
    "EXTINCTION",
    "SURVIVAL",
    "CRITICAL",
    "INAPPLICABLE",
    "CRITICAL_BAND",
    "solve_wf_threshold",
    "solve_sf_threshold",
    "effective_mean_wf",
    "effective_mean_sf",
    "classify",
    "moment_shortcut",
    "critical_resource_mean",
    "closed_form_critical_resource",
    "beta_asymptotic_critical_resource",
    "critical_curve",
    "critical_report",
]


class DomainError(ValueError):
    """Inputs outside the domain where the requested quantity exists."""


class UnboundedClaimError(ValueError):
    """Strongest-first analysis needs a bounded claim law."""


class UnsupportedKindError(ValueError):
    """No closed form is shipped for this law kind."""


class ConvergenceError(ArithmeticError):
    """An iteration failed to reach its tolerance within the step budget."""


EXTINCTION = "almost_sure_extinction"
SURVIVAL = "positive_survival"
CRITICAL = "critical"
INAPPLICABLE = "inapplicable"

#: half-width of the band around 1 in which the decisive quantity is
#: reported as critical rather than rounded to one side
CRITICAL_BAND = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    abs_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not 0.0 < self.abs_tol < math.inf or self.max_iter < 1:
            raise ValueError("solver config requires a finite abs_tol > 0 and max_iter >= 1")


@dataclass(frozen=True)
class Classification:
    verdict: str
    basis: str


def _check_rm(r: float, m: float) -> None:
    if not (r > 0.0 and math.isfinite(r)):
        raise DomainError(f"resource mean must be positive and finite, got {r}")
    if not (m > 1.0 and math.isfinite(m)):
        raise DomainError(f"offspring mean must be in (1, inf), got {m}")


def _bisect(residual, lo: float, hi: float, tol: float, max_iter: int, what: str,
            width: float = 0.0) -> float:
    """Midpoint of [lo, hi] where the non-decreasing ``residual`` is within
    ``tol`` of 0, or where the bracket has shrunk below ``width``.

    Raises ConvergenceError after ``max_iter`` halvings.
    """
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        val = residual(mid)
        if abs(val) <= tol or hi - lo < width:
            return mid
        if val < 0.0:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(f"{what} residual above {tol:g} after {max_iter} bisections")


def solve_wf_threshold(claim, r: float, m: float, cfg: SolverConfig = SolverConfig()) -> float:
    """Cutoff T with E[X; X <= T] = r/m, for smallest-first service.

    Bisection on the lower partial moment, which is continuous and
    non-decreasing for the continuous law kinds.  Raises DomainError when
    r > m * E[X] (no cutoff exists) and when the cutoff would diverge.
    """
    _check_rm(r, m)
    if not claim.is_continuous:
        raise UnsupportedKindError("cutoff solving needs a continuous claim law")
    mu = claim.mean()
    target = r / m
    if target > mu:
        raise DomainError(f"r = {r:g} exceeds m * claim mean = {m * mu:g}; no cutoff exists")
    if claim.is_bounded:
        hi = float(claim.support_upper)
        if target == mu:
            return hi
    else:
        if target >= mu:
            raise DomainError("cutoff diverges: r = m * claim mean with unbounded claims")
        hi = max(claim.mean(), 1.0)
        while claim.lower_partial_moment(hi) < target:
            hi *= 2.0
            if hi > 1e300:
                raise ConvergenceError("failed to bracket the smallest-first cutoff")
    return _bisect(lambda t: claim.lower_partial_moment(t) - target, 0.0, hi,
                   cfg.abs_tol, cfg.max_iter, "lower partial moment")


def solve_sf_threshold(claim, r: float, m: float, cfg: SolverConfig = SolverConfig()) -> float:
    """Cutoff T with E[X; X >= T] = r/m, for largest-first service.

    The upper partial moment is continuous and non-increasing; requires a
    bounded claim law.
    """
    _check_rm(r, m)
    if not claim.is_bounded:
        raise UnboundedClaimError("largest-first cutoff needs a bounded claim law")
    if not claim.is_continuous:
        raise UnsupportedKindError("cutoff solving needs a continuous claim law")
    mu = claim.mean()
    target = r / m
    if target > mu:
        raise DomainError(f"r = {r:g} exceeds m * claim mean = {m * mu:g}; no cutoff exists")
    # the upper partial moment falls as t grows, so its negation is bisected
    return _bisect(lambda t: target - claim.upper_partial_moment(t), 0.0, float(claim.support_upper),
                   cfg.abs_tol, cfg.max_iter, "upper partial moment")


def effective_mean_wf(claim, r: float, m: float, cfg: SolverConfig = SolverConfig()) -> float:
    """m * F(T) with T the smallest-first cutoff; m itself once r >= m * E[X]."""
    _check_rm(r, m)
    if not claim.is_continuous:
        raise UnsupportedKindError("effective means need a continuous claim law")
    if r >= m * claim.mean():
        return float(m)
    cut = solve_wf_threshold(claim, r, m, cfg)
    return float(m * claim.cdf(cut))


def effective_mean_sf(claim, r: float, m: float, cfg: SolverConfig = SolverConfig()) -> float:
    """m * (1 - F(T)) with T the largest-first cutoff; m once r >= m * E[X]."""
    _check_rm(r, m)
    if not claim.is_bounded:
        raise UnboundedClaimError("largest-first effective mean needs a bounded claim law")
    if not claim.is_continuous:
        raise UnsupportedKindError("effective means need a continuous claim law")
    if r >= m * claim.mean():
        return float(m)
    cut = solve_sf_threshold(claim, r, m, cfg)
    return float(m * (1.0 - claim.cdf(cut)))


_PROCESS_KINDS = ("wf", "sf", "fcfs")


def classify(process_kind: str, triple: LawTriple, cfg: SolverConfig = SolverConfig()) -> Classification:
    """Almost-sure extinction versus positive survival for one policy kind.

    The verdict is 'critical' only when the decisive quantity sits within
    CRITICAL_BAND of 1.  Preconditions that the theory needs (supercritical
    offspring, reachable extinction and growth, moment bounds; bounded
    claims for 'sf') produce an 'inapplicable' verdict instead of a guess.
    """
    if process_kind not in _PROCESS_KINDS:
        raise UnsupportedKindError(f"process kind must be one of {_PROCESS_KINDS}, got {process_kind!r}")
    reg = validate_regularity(triple)
    # only the offspring-shape assumptions are preconditions here; the
    # reachability proxy and moment flags stay informational in the report
    if not (reg.supercritical_offspring and reg.extinction_reachable and reg.growth_reachable):
        return Classification(INAPPLICABLE, "; ".join(reg.messages) or "regularity conditions fail")
    if process_kind == "sf" and not reg.bounded_claims:
        return Classification(INAPPLICABLE, "claim law is unbounded; largest-first criteria need a bounded claim")
    if process_kind != "fcfs" and not triple.claim.is_continuous:
        return Classification(INAPPLICABLE, "claim law has atoms; the cutoff criteria need a continuous claim law")

    m = triple.offspring.mean()
    mu = triple.claim.mean()
    r = triple.resource.mean()

    if process_kind == "fcfs":
        decisive = r / mu
        basis = f"resource mean {r:g} vs claim mean {mu:g} (arrival-order criterion)"
    else:
        eff = effective_mean_wf if process_kind == "wf" else effective_mean_sf
        decisive = eff(triple.claim, r, m, cfg)
        if r > m * mu:
            basis = f"r = {r:g} exceeds total demand m*mu = {m * mu:g}; effective mean equals m = {m:g}"
        else:
            basis = f"effective offspring mean {decisive:.12g} (cutoff criterion)"

    if abs(decisive - 1.0) <= CRITICAL_BAND:
        return Classification(CRITICAL, basis)
    if decisive < 1.0:
        return Classification(EXTINCTION, basis)
    return Classification(SURVIVAL, basis)


def moment_shortcut(process_kind: str, triple: LawTriple) -> Optional[Classification]:
    """Verdicts obtainable from means and variances alone, without solving.

    Returns None when no shortcut clause applies.  The clauses are one-sided
    sufficient conditions, so a None here says nothing about the verdict.
    """
    if process_kind not in ("wf", "sf"):
        raise UnsupportedKindError("moment shortcuts exist for 'wf' and 'sf' only")
    m = triple.offspring.mean()
    mu = triple.claim.mean()
    r = triple.resource.mean()
    var = triple.claim.variance()
    if m <= 1.0:
        return None
    if process_kind == "wf":
        if mu < r:
            return Classification(SURVIVAL, f"claim mean {mu:g} below resource mean {r:g}")
        if r <= m * mu * (1.0 - math.sqrt(1.0 - 1.0 / m)):
            bound = (m * mu - r) ** 2 / (m * (m - 1.0)) - mu * mu
            if 0.0 < bound and var < bound:
                return Classification(
                    EXTINCTION, f"claim variance {var:g} below shortcut bound {bound:g} at scarce r"
                )
        return None
    if r < mu:
        return Classification(EXTINCTION, f"resource mean {r:g} below claim mean {mu:g}")
    if r >= mu * math.sqrt(m):
        bound = r * r / m - mu * mu
        if 0.0 < bound and var < bound:
            return Classification(
                SURVIVAL, f"claim variance {var:g} below shortcut bound {bound:g} at ample r"
            )
    return None


def critical_resource_mean(
    process_kind: str, claim, m: float, cfg: SolverConfig = SolverConfig()
) -> float:
    """Resource mean at which the policy's decisive quantity crosses 1.

    For 'fcfs' this is the claim mean.  For the ordered policies the
    effective mean is increasing in r, so an outer bisection over r around
    inner cutoff solves locates the crossing.
    """
    if process_kind not in _PROCESS_KINDS:
        raise UnsupportedKindError(f"process kind must be one of {_PROCESS_KINDS}, got {process_kind!r}")
    if not (m > 1.0 and math.isfinite(m)):
        raise DomainError(f"offspring mean must be in (1, inf), got {m}")
    if process_kind == "fcfs":
        return float(claim.mean())
    if process_kind == "sf" and not claim.is_bounded:
        raise UnboundedClaimError("no critical resource mean for largest-first with unbounded claims")

    eff = effective_mean_wf if process_kind == "wf" else effective_mean_sf
    inner = replace(cfg, abs_tol=min(cfg.abs_tol, 1e-12), max_iter=max(cfg.max_iter, 200))
    hi = m * claim.mean()
    lo = hi * 1e-12
    if eff(claim, lo, m, inner) >= 1.0:
        return lo
    # the bracket is narrower than the width after 44 halvings, long before
    # the iterations run out
    return _bisect(lambda r: eff(claim, r, m, inner) - 1.0, lo, hi, 1e-10, max(cfg.max_iter, 200),
                   "effective mean", width=1e-13 * m * claim.mean())


def closed_form_critical_resource(process_kind: str, claim, m: float) -> float:
    """Critical resource mean in closed form, for the kinds that have one.

    Uniform(0, d): d/(2m) smallest-first, d(1 - 1/(2m)) largest-first, d/2
    arrival-order.  Scaled beta uses ``scipy.special``'s regularized
    incomplete beta and its inverse, and raises ConvergenceError where the
    value leaves double precision.  Exponential has a logarithmic form for
    smallest-first and no largest-first value at all.
    """
    if process_kind not in _PROCESS_KINDS:
        raise UnsupportedKindError(f"process kind must be one of {_PROCESS_KINDS}, got {process_kind!r}")
    if not (m > 1.0 and math.isfinite(m)):
        raise DomainError(f"offspring mean must be in (1, inf), got {m}")

    if isinstance(claim, Uniform):
        if claim.lo != 0.0:
            raise UnsupportedKindError("uniform closed forms assume support starting at 0")
        d = claim.hi
        if process_kind == "wf":
            return d / (2.0 * m)
        if process_kind == "sf":
            return d * (1.0 - 1.0 / (2.0 * m))
        return d / 2.0

    if isinstance(claim, ScaledBeta):
        a, b, s = claim.a, claim.b, claim.scale
        if process_kind == "fcfs":
            return s * a / (a + b)
        special = _scipy_special()
        # the cutoff leaves mass 1/m in the served tail: s*x with I_x(a, b) = 1/m
        # smallest-first, s*(1 - y) with I_y(b, a) = 1/m largest-first
        if process_kind == "wf":
            x = special.betaincinv(a, b, 1.0 / m)
            cut, tail, moment = x, special.betainc(a, b, x), special.betainc(a + 1.0, b, x)
        else:
            y = special.betaincinv(b, a, 1.0 / m)
            cut, tail, moment = 1.0 - y, special.betainc(b, a, y), special.betainc(b, a + 1.0, y)
        # r = m E[X; tail] + cut * (1 - m P(tail)) is m E[X; tail] at the root
        # and stationary in the cutoff there, so betaincinv's error enters
        # squared instead of times the slope of the partial moment
        residual = 1.0 - m * tail
        # a NaN or clamped root leaves a large residual, and a moment below
        # the normal doubles has lost its digits
        if not (abs(residual) <= 1e-8 and moment >= sys.float_info.min):
            raise ConvergenceError(
                f"no {process_kind} closed form in double precision for beta(a={a:g}, b={b:g}) "
                f"claims at m={m:g}: betaincinv gave a cutoff of {cut:g}"
            )
        # r < s (largest-first: m E[X; X >= T] < m s P(X >= T) = s), but
        # rounding can pass s by a few ulp where r nears it at large m
        return min(float(s * (m * a / (a + b) * moment + cut * residual)), s)

    if isinstance(claim, Exponential):
        if process_kind == "wf":
            return (1.0 - (m - 1.0) * math.log(m / (m - 1.0))) / claim.rate
        if process_kind == "sf":
            raise UnboundedClaimError("no largest-first critical value for exponential claims")
        return 1.0 / claim.rate

    if isinstance(claim, Constant):
        raise UnsupportedKindError("no closed forms for a point-mass claim law")
    raise UnsupportedKindError(f"no closed forms for claim law {type(claim).__name__}")


def beta_asymptotic_critical_resource(a: float, b: float, process_kind: str, m: float) -> float:
    """Large-m leading order of the beta(a, b) critical resource mean, unit scale.

    Smallest-first:  (a/(a+1)) * (a B(a,b) / m)^(1/a).
    Largest-first:   1 - (b/(b+1)) * (b B(a,b) / m)^(1/b), the first-order
    expansion of the exact closed form around the upper endpoint.
    """
    if a <= 0.0 or b <= 0.0:
        raise DomainError("beta parameters must be positive")
    if not (m > 1.0 and math.isfinite(m)):
        raise DomainError(f"offspring mean must be in (1, inf), got {m}")
    beta_ab = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    if process_kind == "wf":
        return (a / (a + 1.0)) * (a * beta_ab / m) ** (1.0 / a)
    if process_kind == "sf":
        return 1.0 - (b / (b + 1.0)) * (b * beta_ab / m) ** (1.0 / b)
    raise UnsupportedKindError("asymptotic forms exist for 'wf' and 'sf' only")


def critical_curve(claim, m_grid, cfg: SolverConfig = SolverConfig()) -> list[tuple[float, float, float, float]]:
    """Rows (m, r_wc, r_uc, r_sc): critical resource means per policy over a
    grid of offspring means.  Each is the closed form where the claim law has
    one, since the bisection is good to only about 1e-10, and the bisection
    where it has none.  Solver errors propagate per row."""
    grid = [float(m) for m in m_grid]
    if not grid:
        raise DomainError("m_grid must be non-empty")
    if any(not (m > 1.0 and math.isfinite(m)) for m in grid):
        raise DomainError("every m in the grid must be in (1, inf)")

    def critical(kind: str, m: float) -> float:
        try:
            return closed_form_critical_resource(kind, claim, m)
        except UnsupportedKindError:
            return critical_resource_mean(kind, claim, m, cfg)

    return [(m, critical("wf", m), critical("fcfs", m), critical("sf", m)) for m in grid]


@dataclass(frozen=True)
class CriticalReport:
    offspring_mean: float
    claim_mean: float
    resource_mean: float
    wf_cutoff: Optional[float]
    sf_cutoff: Optional[float]
    effective_mean_wf: Optional[float]
    effective_mean_sf: Optional[float]
    critical_resource_wf: Optional[float]
    critical_resource_fcfs: Optional[float]
    critical_resource_sf: Optional[float]
    classifications: dict
    regularity: object


def critical_report(triple: LawTriple, cfg: SolverConfig = SolverConfig()) -> CriticalReport:
    """Everything the classifier knows about one law triple, in one place."""
    m = triple.offspring.mean()
    mu = triple.claim.mean()
    r = triple.resource.mean()

    def attempt(fn):
        try:
            return fn()
        except (DomainError, UnboundedClaimError, UnsupportedKindError):
            return None

    return CriticalReport(
        offspring_mean=m,
        claim_mean=mu,
        resource_mean=r,
        wf_cutoff=attempt(lambda: solve_wf_threshold(triple.claim, r, m, cfg)),
        sf_cutoff=attempt(lambda: solve_sf_threshold(triple.claim, r, m, cfg)),
        effective_mean_wf=attempt(lambda: effective_mean_wf(triple.claim, r, m, cfg)),
        effective_mean_sf=attempt(lambda: effective_mean_sf(triple.claim, r, m, cfg)),
        critical_resource_wf=attempt(lambda: critical_resource_mean("wf", triple.claim, m, cfg)),
        critical_resource_fcfs=attempt(lambda: critical_resource_mean("fcfs", triple.claim, m, cfg)),
        critical_resource_sf=attempt(lambda: critical_resource_mean("sf", triple.claim, m, cfg)),
        classifications={kind: classify(kind, triple, cfg) for kind in _PROCESS_KINDS},
        regularity=validate_regularity(triple),
    )
