"""Reference reads of the universe, reference policies and a reference
engine, for tests only.

The scalar readers hash one cell at a time with the pure-Python ``_mix``,
independently of the vectorised kernel, so a wrong shift or constant in the
kernel shows up as a disagreement.  ``units`` turns words into units as the
kernel does.  The ``*_row`` readers materialise whole rows through the
kernel, ``quantile`` turns offspring units into counts, and ``quanta`` puts
claim and resource values on the triple's lattice; the engine itself only
ever reads their sums.  ``distinct_words`` makes rows of aux words for
coinflip, distinct within each row as the kernel's are.
``reference_count`` and ``ReferencePolicy`` count the served prefix of
each built-in policy from stable argsorts (of the aux words, for coinflip)
and the full running totals, against which the policies' counts are
checked.  ``step``, ``simulate`` and
``simulate_coupled`` run one replicate from those rows and counts alone,
against which the engine's one batched pass is checked.  ``count`` is the
served count of one int64 claim row through a policy's ``count_rows``,
and ``on_lattice`` puts float test claims on a lattice.
``size_at``, ``outcome_kinds``, ``excess_generations`` and ``late_ratios``
read one replicate's trajectories at a time, against which the Monte Carlo
checks' reductions of the size table are checked.  ``cumulative`` and
``pdf`` are the laws' CDF grid and densities.  ``bisected_cutoff``,
``bisected_effective_mean`` and ``bisected_critical_resource`` find the
cutoffs, effective means and critical resource means by bisection on the
laws' partial moments, against which the closed forms of ``rdbp.criteria``
are checked.
"""

import math

import numpy as np

from rdbp.criteria import ConvergenceError
from rdbp.engine import EngineError, Outcome, Trajectory
from rdbp.policies import CustomPolicy, PriorityPolicy
from rdbp.universe import (
    _GOLDEN,
    _MASK64,
    _TAG_AUX,
    _TAG_CLAIM,
    _TAG_OFFSPRING,
    _TAG_RESOURCE,
    INDEX_CAP,
    _mix,
    _mix_in_place,
)

FIRST_ROW = np.zeros(1, dtype=np.intp)


def row_key(universe, tag, n):
    if not 0 <= n <= INDEX_CAP:
        raise ValueError(f"generation index {n} outside [0, {INDEX_CAP}]")
    h = _mix(universe.seed.value + _GOLDEN * tag)
    h = _mix(h + _GOLDEN * (universe.replicate_id + 1))
    return _mix(h + _GOLDEN * n)


def word_at_key(key, k):
    """Word of the cell at position k of the row with this key."""
    return _mix(((k * _GOLDEN) & _MASK64) ^ key)


def word_unit(key, k):
    """Unit of the cell at position k of the row with this key."""
    return ((word_at_key(key, k) >> 11) | 1) * 2.0 ** -53


def units(words):
    """The unit of each word: its top 52 bits centred in their interval of
    width 2**-52, exact in float64."""
    words = np.asarray(words, dtype=np.uint64)
    return ((words >> np.uint64(11)) | np.uint64(1)).astype(np.float64) * 2.0 ** -53


def unit_at(universe, tag, n, k):
    if not 1 <= k <= INDEX_CAP:
        raise ValueError(f"position {k} outside [1, {INDEX_CAP}]")
    return word_unit(row_key(universe, tag, n), k)


def word_row(universe, tag, n, count):
    key = row_key(universe, tag, n)
    return np.array([word_at_key(key, k) for k in range(1, count + 1)], dtype=np.uint64)


def unit_row(universe, tag, n, count):
    return units(word_row(universe, tag, n, count))


def cumulative(law):
    """CDF grid of an offspring law.  Every entry from ``max_offspring`` on
    is forced to 1.0, so a deviate arbitrarily close to 1 still maps to a
    count with positive mass."""
    cdf = np.cumsum(np.asarray(law.probabilities, dtype=np.float64))
    cdf[law.max_offspring:] = 1.0
    return cdf


def pdf(law, x):
    """Density of a continuous claim or resource law at x."""
    x = np.asarray(x, dtype=np.float64)
    if law.kind == "uniform":
        return np.where((x >= law.lo) & (x <= law.hi), 1.0 / (law.hi - law.lo), 0.0)
    if law.kind == "exponential":
        return np.where(x >= 0.0, law.rate * np.exp(-law.rate * x), 0.0)
    assert law.kind == "scaled_beta", law.kind
    y = x / law.scale
    ln_b = math.lgamma(law.a) + math.lgamma(law.b) - math.lgamma(law.a + law.b)
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_f = (law.a - 1.0) * np.log(y) + (law.b - 1.0) * np.log1p(-y) - ln_b
        out = np.exp(ln_f) / law.scale
    return np.where((y > 0.0) & (y < 1.0), out, 0.0)


def quantile(law, u):
    """Offspring count of each deviate u of an offspring law: the smallest
    j with CDF(j) >= u."""
    return np.searchsorted(cumulative(law), u, side="left").astype(np.int64)


def row_totals(law, u):
    """``quantile(law, u).sum(axis=-1)`` without building the counts.

    ``quantile`` counts the CDF entries strictly below u, so a row's total
    is, over each distinct cut c, the number of entries equal to c times
    the number of deviates above c.
    """
    u = np.asarray(u, dtype=np.float64)
    totals = np.zeros(u.shape[:-1], dtype=np.int64)
    for cut, times in cuts(law):
        totals += times * np.count_nonzero(u > cut, axis=-1)
    return totals


def cuts(law):
    """(c, times) for each distinct entry c below 1 of an offspring law's
    CDF, with its number of entries; a deviate never exceeds 1, so only
    these cuts can count."""
    cdf = cumulative(law)
    values, times = np.unique(cdf[cdf < 1.0], return_counts=True)
    return list(zip(values.tolist(), times.tolist()))


def offspring_at(universe, n, k):
    return int(quantile(universe.laws.offspring, [unit_at(universe, _TAG_OFFSPRING, n, k)])[0])


def quanta(laws, values):
    """Claim or resource values in int64 quanta of the triple's lattice,
    truncated toward zero."""
    return (np.asarray(values, dtype=np.float64) * 2.0 ** laws.lattice_bits).astype(np.int64)


def claim_at(universe, n, k):
    return int(quanta(universe.laws, universe.laws.claim.icdf(np.array([unit_at(universe, _TAG_CLAIM, n, k)])))[0])


def resource_at(universe, n, k):
    laws = universe.laws
    return int(quanta(laws, laws.resource.icdf(np.array([unit_at(universe, _TAG_RESOURCE, n, k)])))[0])


def kernel_words(universe, tag, n, count):
    """Words of k = 1..count of one row, through the vectorised kernel."""
    return universe.generation(n)._fill(tag, FIRST_ROW, count)[0]


def kernel_units(universe, tag, n, count):
    """Units of k = 1..count of one row, from the kernel's words."""
    return units(kernel_words(universe, tag, n, count))


def offspring_row(universe, n, count):
    return quantile(universe.laws.offspring, kernel_units(universe, _TAG_OFFSPRING, n, count))


def claim_row(universe, n, count):
    """Claims of one row in quanta, from the law of the kernel's units."""
    laws = universe.laws
    return quanta(laws, laws.claim.icdf(kernel_units(universe, _TAG_CLAIM, n, count)))


def resource_row(universe, n, count):
    laws = universe.laws
    return quanta(laws, laws.resource.icdf(kernel_units(universe, _TAG_RESOURCE, n, count)))


def aux_row(universe, n, count):
    """Aux words of one row, as ``ReplicateRows.aux`` reads them."""
    return kernel_words(universe, _TAG_AUX, n, count)


def distinct_words(rng, shape):
    """Random uint64 words of ``shape``, distinct along its last axis: the
    mixed words of positions 1, 2, ... of a random key per row, as the
    kernel builds a row."""
    keys = rng.integers(0, 2 ** 64, size=(*shape[:-1], 1), dtype=np.uint64)
    words = (np.arange(1, shape[-1] + 1, dtype=np.uint64) * np.uint64(_GOLDEN)) ^ keys
    return _mix_in_place(words, np.empty_like(words))


def reference_order(token, claims, aux=None):
    """The claims in the service order of the built-in policy ``token``."""
    claims = np.asarray(claims)
    if token == "fcfs":
        return claims.copy()
    if token == "wf":
        return claims[np.argsort(claims, kind="stable")]
    if token == "coinflip":
        return claims[np.argsort(aux, kind="stable")]
    descending = claims[np.argsort(-claims, kind="stable")]
    if token == "counterexample" and descending.size >= 3:
        # the third largest, then the largest two, then the rest
        return np.concatenate((descending[2:3], descending[:2], descending[3:]))
    return descending


def reference_count(token, claims, budget, aux=None):
    """Served count of ``token`` from the full sequential running totals."""
    return int((np.cumsum(reference_order(token, claims, aux)) <= budget).sum())


class ReferencePolicy(PriorityPolicy):
    """The built-in policy ``token``, every row counted by reference_count."""

    def __init__(self, token):
        self.token = token
        self.name = f"reference-{token}"
        self.needs_aux = token == "coinflip"

    def count_rows(self, claims, budgets, aux=None, quantum=1.0):
        return np.array([reference_count(self.token, row, budget, None if aux is None else aux[i])
                         for i, (row, budget) in enumerate(zip(claims, budgets))], dtype=np.int64)


def on_lattice(values, bits=30):
    """Float values in int64 quanta of 2**-bits, truncated toward zero."""
    return (np.asarray(values, dtype=np.float64) * 2.0 ** bits).astype(np.int64)


def count(policy, claims, budget, aux=None):
    """Served count of one row of int64 claims against an int64 budget:
    ``policy.count_rows`` on a one-row block."""
    claims = np.asarray(claims, dtype=np.int64)[None]
    aux = None if aux is None else np.asarray(aux)[None]
    return int(policy.count_rows(claims, np.array([budget], dtype=np.int64), aux)[0])


def reference_served(policy, claims, budget, aux=None, quantum=1.0):
    """Served count of one claim row from the full sequential running
    totals: in a ``CustomPolicy``'s permutation of the claim values, or in
    the order of the built-in (or reference) policy of that token."""
    if isinstance(policy, CustomPolicy):
        return int((np.cumsum(claims[policy.permutation(claims * quantum, aux)]) <= budget).sum())
    return reference_count(getattr(policy, "token", policy.name), claims, budget, aux)


def step(current_size, universe, n, policy):
    """The next size of one replicate, from its generation's rows read one
    at a time and counted by ``reference_served``."""
    if current_size < 0:
        raise EngineError("negative population size")
    if current_size == 0:
        return 0
    total = int(offspring_row(universe, n, current_size).sum())
    if total == 0:
        return 0
    budget = resource_row(universe, n, current_size).sum()
    aux = aux_row(universe, n, total) if policy.needs_aux else None
    return reference_served(policy, claim_row(universe, n, total), budget, aux, universe.laws.quantum)


def simulate(spec, universe):
    """One replicate's trajectory, stepped by ``step`` until extinction, the
    explosion cap, or the horizon."""
    sizes = [spec.initial_size]
    outcome = Outcome("alive_at_horizon")
    for n in range(spec.horizon):
        sizes.append(step(sizes[-1], universe, n, spec.policy))
        if sizes[-1] == 0:
            outcome = Outcome("extinct", n + 1)
            break
        if sizes[-1] >= spec.explosion_cap:
            outcome = Outcome("exploded", n + 1)
            break
    return Trajectory(sizes, outcome)


def simulate_coupled(specs, universe):
    """``simulate`` of several specs on one universe; reads are addressed,
    so every run sees the same offspring, claim and resource cells."""
    return [simulate(spec, universe) for spec in specs]


def size_at(traj, n):
    """Size at generation n; an extinct trajectory stays 0 forever.

    Raises for generations beyond the record of a run that did not die out,
    where the size is unknown.
    """
    if n < 0:
        raise IndexError("generation must be >= 0")
    if n < len(traj.sizes):
        return traj.sizes[n]
    if traj.outcome.kind == "extinct":
        return 0
    raise IndexError(f"generation {n} beyond recorded horizon of a non-extinct run")


def outcome_kinds(*trajectories):
    return tuple(traj.outcome.kind for traj in trajectories)


def excess_generations(got, ref):
    """Generations where both sizes are known and ``got`` is the larger."""
    excess = 0
    for n in range(max(len(got.sizes), len(ref.sizes))):
        try:
            excess += size_at(got, n) > size_at(ref, n)
        except IndexError:  # a size unknown at n stays unknown afterwards
            break
    return excess


def late_ratios(traj, min_size):
    """Growth ratios out of the generations of at least ``min_size`` members."""
    sizes = traj.sizes
    return [sizes[n + 1] / sizes[n] for n in range(len(sizes) - 1) if sizes[n] >= min_size]


def bisect(residual, lo, hi, tol, max_iter=200, width=0.0):
    """Midpoint of [lo, hi] where the non-decreasing ``residual`` is within
    ``tol`` of 0, or where the bracket has shrunk below ``width``."""
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        val = residual(mid)
        if abs(val) <= tol or hi - lo < width:
            return mid
        if val < 0.0:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(f"residual above {tol:g} after {max_iter} bisections")


def bisected_cutoff(side, claim, r, m, tol=1e-12):
    """The cutoff T with E[X; X <= T] = r/m smallest-first ('wf') or
    E[X; X >= T] = r/m largest-first ('sf'), for 0 < r < m * E[X]."""
    target = r / m
    if side == "sf":
        # the upper partial moment falls as t grows, so its negation is bisected
        return bisect(lambda t: target - claim.upper_partial_moment(t), 0.0, claim.support_upper, tol)
    hi = claim.support_upper
    if not math.isfinite(hi):
        hi = max(claim.mean(), 1.0)
        while claim.lower_partial_moment(hi) < target:
            hi *= 2.0
    return bisect(lambda t: claim.lower_partial_moment(t) - target, 0.0, hi, tol)


def bisected_effective_mean(side, claim, r, m, tol=1e-12):
    """m F(T) smallest-first, m (1 - F(T)) largest-first; m once r >= m * E[X]."""
    if r >= m * claim.mean():
        return float(m)
    served = float(claim.cdf(bisected_cutoff(side, claim, r, m, tol)))
    return m * (served if side == "wf" else 1.0 - served)


def bisected_critical_resource(side, claim, m):
    """The r at which the effective mean crosses 1, by an outer bisection
    over r around bisected cutoffs; good to about 1e-10."""
    hi = m * claim.mean()
    return bisect(lambda r: bisected_effective_mean(side, claim, r, m) - 1.0, hi * 1e-12, hi, 1e-10,
                  width=1e-13 * hi)
