"""Extinction and survival analysis.

The decisive quantity for the ordered policies is an effective offspring
mean: the raw mean m curtailed by the fraction of claims a policy can fund
in the long run.  Serving small claims first funds claims below a cutoff T
solving  E[X; X <= T] = r/m,  so the effective mean is m * F(T).  Serving
large claims first funds claims above a cutoff solving  E[X; X >= T] = r/m,
giving m * (1 - F(T)).  Service in arrival order is blind to claim size and
survives precisely when the resource mean r beats the claim mean.

Every cutoff, effective mean and critical resource mean is a closed form:
square roots for uniform claims, in exact rational arithmetic; the inverse
incomplete beta for scaled beta claims, whose partial moments are incomplete
betas with the first parameter raised by one; the inverse incomplete gamma
of shape 2 for exponential claims, since E[X; X <= t] = P(2, rate t)/rate.
``scipy.special`` is imported on first use, so uniform claims never load it.

When r >= m * E[X] the demand of all prospective children is covered on
average and the curtailment factor is taken as 1 (the cutoffs leave the
support), so both effective means reduce to m.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .distributions import (
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
    """A closed form's root or value is not good in double precision."""


EXTINCTION = "almost_sure_extinction"
SURVIVAL = "positive_survival"
CRITICAL = "critical"
INAPPLICABLE = "inapplicable"

#: half-width of the band around 1 in which the decisive quantity is
#: reported as critical rather than rounded to one side
CRITICAL_BAND = 1e-9


@dataclass(frozen=True)
class Classification:
    verdict: str
    basis: str


def _check_rm(r: float, m: float) -> None:
    if not (r > 0.0 and math.isfinite(r)):
        raise DomainError(f"resource mean must be positive and finite, got {r}")
    if not (m > 1.0 and math.isfinite(m)):
        raise DomainError(f"offspring mean must be in (1, inf), got {m}")


def _root(inverse, forward, shape: tuple, p: float, what: str) -> tuple[float, float]:
    """(x, forward(*shape, x)) for the x that ``inverse`` gives for
    forward(*shape, x) = p.  Raises ConvergenceError where x is NaN, clamped
    or below the normal doubles."""
    x = float(inverse(*shape, p))
    tail = float(forward(*shape, x))
    # a NaN or clamped root leaves a large residual
    if not (x >= sys.float_info.min and abs(tail - p) <= 1e-8 * p):
        raise ConvergenceError(f"no {what} in double precision: {inverse.__name__} gave a root of {x:g}")
    return x, tail


def _sqrt(q: Fraction) -> Fraction:
    """The square root of q to 2**-120 relative, from an integer square root."""
    n, d = q.numerator, q.denominator
    return Fraction(math.isqrt(n * d << 240), d << 120)


def _cutoff(side: str, claim, r: float, m: float) -> tuple[Optional[float], float]:
    """(T, effective mean) of smallest-first ('wf') or largest-first ('sf')
    service.  Once the funded share p = r / (m * E[X]) reaches 1 every claim
    is served: the effective mean is m, and T is the edge of the support at
    p = 1 with bounded claims and None otherwise."""
    _check_rm(r, m)
    if side == "sf" and not claim.is_bounded:
        raise UnboundedClaimError("largest-first criteria need a bounded claim law")
    if not claim.is_continuous:
        raise UnsupportedKindError("cutoffs and effective means need a continuous claim law")
    p = r / (m * claim.mean())
    if p >= 1.0:
        edge = claim.support_upper if side == "wf" else claim.support_lower
        return (float(edge) if p == 1.0 and claim.is_bounded else None), float(m)

    if isinstance(claim, Uniform):
        # the squares of the served claims span 2r(hi - lo)/m; exact
        # rationals round the cutoff and the effective mean once each
        lo, hi = Fraction(claim.lo), Fraction(claim.hi)
        span = 2 * Fraction(r) * (hi - lo) / Fraction(m)
        if side == "wf":
            cut = _sqrt(lo * lo + span)
            return float(cut), float(2 * Fraction(r) / (cut + lo))
        cut = _sqrt(hi * hi - span)
        return float(cut), float(2 * Fraction(r) / (hi + cut))

    special = _scipy_special()
    what = f"{side} cutoff for {claim.kind} claims at r={r:g}, m={m:g}"
    if isinstance(claim, ScaledBeta):
        a, b, s = claim.a, claim.b, claim.scale
        # E[X; X <= t] = E[X] I_{t/s}(a + 1, b) smallest-first; largest-first
        # serves the lower tail of 1 - X/s, a beta(b, a) variable, whose
        # moment there is E[X] I_y(b, a + 1)
        shape, served_shape = ((a + 1.0, b), (a, b)) if side == "wf" else ((b, a + 1.0), (b, a))
        u, moment = _root(special.betaincinv, special.betainc, shape, p, what)
        unit_cut = u if side == "wf" else 1.0 - u
        # betaincinv's root can be 1e-14 off for large shapes, and a steep
        # served fraction multiplies that by up to a.  One Newton step on
        # the moment mends the cutoff, and the served fraction takes the
        # same step to first order: dF = E[X] dG / T = a dG / ((a + b) T/s)
        miss = p - moment
        log_density = special.xlogy(shape[0] - 1.0, u) + special.xlog1py(shape[1] - 1.0, -u) - special.betaln(*shape)
        step = miss / math.exp(log_density)
        served = float(special.betainc(*served_shape, u)) + miss * a / ((a + b) * unit_cut)
        return s * (unit_cut + step if side == "wf" else unit_cut - step), m * served
    if isinstance(claim, Exponential):
        z, _ = _root(special.gammaincinv, special.gammainc, (2.0,), claim.rate * r / m, what)
        return z / claim.rate, m * -math.expm1(-z)
    raise UnsupportedKindError(f"no closed forms for claim law {type(claim).__name__}")


def _threshold(side: str, claim, r: float, m: float) -> float:
    cut, _ = _cutoff(side, claim, r, m)
    if cut is None:
        raise DomainError(f"no cutoff: r = {r:g} is not below m * claim mean = {m * claim.mean():g}")
    return cut


def solve_wf_threshold(claim, r: float, m: float) -> float:
    """Cutoff T with E[X; X <= T] = r/m, for smallest-first service.

    The support's top at r = m * E[X] with bounded claims.  Raises
    DomainError when r > m * E[X] (no cutoff exists) and when the cutoff
    would diverge (r = m * E[X] with unbounded claims).  An r so near
    m * E[X] that r / (m * E[X]) rounds to 1 counts as equal.
    """
    return _threshold("wf", claim, r, m)


def solve_sf_threshold(claim, r: float, m: float) -> float:
    """Cutoff T with E[X; X >= T] = r/m, for largest-first service.

    Requires a bounded claim law; the support's bottom at r = m * E[X].
    """
    return _threshold("sf", claim, r, m)


def effective_mean_wf(claim, r: float, m: float) -> float:
    """m * F(T) with T the smallest-first cutoff; m itself once r >= m * E[X]."""
    return _cutoff("wf", claim, r, m)[1]


def effective_mean_sf(claim, r: float, m: float) -> float:
    """m * (1 - F(T)) with T the largest-first cutoff; m once r >= m * E[X]."""
    return _cutoff("sf", claim, r, m)[1]


_PROCESS_KINDS = ("wf", "sf", "fcfs")


def classify(process_kind: str, triple: LawTriple) -> Classification:
    """Almost-sure extinction versus positive survival for one policy kind.

    The verdict is 'critical' only when the decisive quantity sits within
    CRITICAL_BAND of 1.  Preconditions that the theory needs (supercritical
    offspring, reachable extinction and growth, moment bounds; bounded
    claims for 'sf') produce an 'inapplicable' verdict instead of a guess.
    """
    if process_kind not in _PROCESS_KINDS:
        raise UnsupportedKindError(f"process kind must be one of {_PROCESS_KINDS}, got {process_kind!r}")
    inapplicable = _inapplicable(process_kind, triple)
    if inapplicable is not None:
        return inapplicable

    m = triple.offspring.mean()
    mu = triple.claim.mean()
    r = triple.resource.mean()

    if process_kind == "fcfs":
        decisive = r / mu
        basis = f"resource mean {r:g} vs claim mean {mu:g} (arrival-order criterion)"
    else:
        eff = effective_mean_wf if process_kind == "wf" else effective_mean_sf
        decisive = eff(triple.claim, r, m)
        if r > m * mu:
            basis = f"r = {r:g} exceeds total demand m*mu = {m * mu:g}; effective mean equals m = {m:g}"
        else:
            basis = f"effective offspring mean {decisive:.12g} (cutoff criterion)"

    if abs(decisive - 1.0) <= CRITICAL_BAND:
        return Classification(CRITICAL, basis)
    if decisive < 1.0:
        return Classification(EXTINCTION, basis)
    return Classification(SURVIVAL, basis)


def _inapplicable(process_kind: str, triple: LawTriple) -> Optional[Classification]:
    """The 'inapplicable' verdict where a precondition of the theory fails
    for this policy kind, else None."""
    reg = validate_regularity(triple)
    # only the offspring-shape assumptions are preconditions here; the
    # reachability proxy and moment flags stay informational in the report
    if not (reg.supercritical_offspring and reg.extinction_reachable and reg.growth_reachable):
        return Classification(INAPPLICABLE, "; ".join(reg.messages) or "regularity conditions fail")
    if process_kind == "sf" and not reg.bounded_claims:
        return Classification(INAPPLICABLE, "claim law is unbounded; largest-first criteria need a bounded claim")
    if process_kind != "fcfs" and not triple.claim.is_continuous:
        return Classification(INAPPLICABLE, "claim law has atoms; the cutoff criteria need a continuous claim law")
    return None


def moment_shortcut(process_kind: str, triple: LawTriple) -> Optional[Classification]:
    """Verdicts obtainable from means and variances alone, without solving.

    Returns None when no shortcut clause applies, and wherever ``classify``
    calls the triple inapplicable.  The clauses are one-sided sufficient
    conditions, so a None here says nothing about the verdict.
    """
    if process_kind not in ("wf", "sf"):
        raise UnsupportedKindError("moment shortcuts exist for 'wf' and 'sf' only")
    if _inapplicable(process_kind, triple) is not None:
        return None
    m = triple.offspring.mean()
    mu = triple.claim.mean()
    r = triple.resource.mean()
    var = triple.claim.variance()
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


def critical_resource_mean(process_kind: str, claim, m: float) -> float:
    """Resource mean at which the policy's decisive quantity crosses 1.

    'fcfs': the claim mean, for every claim law.  The ordered policies
    cross where the served tail holds mass 1/m, at r = m * E[X; tail]:
    Uniform(lo, hi) gives lo + (hi - lo)/(2m) smallest-first and
    hi - (hi - lo)/(2m) largest-first; Exponential(rate) gives
    m P(2, -log(1 - 1/m))/rate smallest-first and no largest-first value.
    Scaled beta uses ``scipy.special``'s regularized incomplete beta and its
    inverse, and raises ConvergenceError where the value leaves double
    precision.
    """
    if process_kind not in _PROCESS_KINDS:
        raise UnsupportedKindError(f"process kind must be one of {_PROCESS_KINDS}, got {process_kind!r}")
    if not (m > 1.0 and math.isfinite(m)):
        raise DomainError(f"offspring mean must be in (1, inf), got {m}")
    if process_kind == "fcfs":
        return float(claim.mean())
    if process_kind == "sf" and not claim.is_bounded:
        raise UnboundedClaimError("no critical resource mean for largest-first with unbounded claims")
    if not claim.is_continuous:
        raise UnsupportedKindError("critical resource means need a continuous claim law")

    if isinstance(claim, Uniform):
        lo, hi = Fraction(claim.lo), Fraction(claim.hi)
        half_width = (hi - lo) / (2 * Fraction(m))
        return float(lo + half_width if process_kind == "wf" else hi - half_width)

    special = _scipy_special()
    if isinstance(claim, ScaledBeta):
        a, b, s = claim.a, claim.b, claim.scale
        what = f"{process_kind} closed form for beta(a={a:g}, b={b:g}) claims at m={m:g}"
        # the cutoff leaves mass 1/m in the served tail: s*x with I_x(a, b) = 1/m
        # smallest-first, s*(1 - y) with I_y(b, a) = 1/m largest-first
        if process_kind == "wf":
            x, tail = _root(special.betaincinv, special.betainc, (a, b), 1.0 / m, what)
            cut, moment = x, special.betainc(a + 1.0, b, x)
        else:
            y, tail = _root(special.betaincinv, special.betainc, (b, a), 1.0 / m, what)
            cut, moment = 1.0 - y, special.betainc(b, a + 1.0, y)
        # r = m E[X; tail] + cut * (1 - m P(tail)) is m E[X; tail] at the root
        # and stationary in the cutoff there, so betaincinv's error enters
        # squared instead of times the slope of the partial moment
        residual = 1.0 - m * tail
        # a moment below the normal doubles has lost its digits
        if not moment >= sys.float_info.min:
            raise ConvergenceError(f"no {what} in double precision: the served moment is {moment:g}")
        # r < s (largest-first: m E[X; X >= T] < m s P(X >= T) = s), but
        # rounding can pass s by a few ulp where r nears it at large m
        return min(float(s * (m * a / (a + b) * moment + cut * residual)), s)
    if isinstance(claim, Exponential):
        # the cutoff rate * T = -log(1 - 1/m) leaves mass 1/m below it
        return m * float(special.gammainc(2.0, -math.log1p(-1.0 / m))) / claim.rate
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


def critical_curve(claim, m_grid) -> list[tuple[float, float, float, float]]:
    """Rows (m, r_wc, r_uc, r_sc): critical resource means per policy over a
    grid of offspring means.  Errors propagate per row."""
    grid = [float(m) for m in m_grid]
    if not grid:
        raise DomainError("m_grid must be non-empty")
    if any(not (m > 1.0 and math.isfinite(m)) for m in grid):
        raise DomainError("every m in the grid must be in (1, inf)")
    return [(m, *(critical_resource_mean(kind, claim, m) for kind in ("wf", "fcfs", "sf"))) for m in grid]


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


def critical_report(triple: LawTriple) -> CriticalReport:
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
        wf_cutoff=attempt(lambda: solve_wf_threshold(triple.claim, r, m)),
        sf_cutoff=attempt(lambda: solve_sf_threshold(triple.claim, r, m)),
        effective_mean_wf=attempt(lambda: effective_mean_wf(triple.claim, r, m)),
        effective_mean_sf=attempt(lambda: effective_mean_sf(triple.claim, r, m)),
        critical_resource_wf=attempt(lambda: critical_resource_mean("wf", triple.claim, m)),
        critical_resource_fcfs=attempt(lambda: critical_resource_mean("fcfs", triple.claim, m)),
        critical_resource_sf=attempt(lambda: critical_resource_mean("sf", triple.claim, m)),
        classifications={kind: classify(kind, triple) for kind in _PROCESS_KINDS},
        regularity=validate_regularity(triple),
    )
