"""Reference reads of the universe, reference policies and a reference
engine, for tests only.

The scalar readers hash one cell at a time with the pure-Python ``_mix``,
independently of the vectorised kernel, so a wrong shift or constant in the
kernel shows up as a disagreement.  The ``*_row`` readers materialise whole
rows through the kernel, and ``quantile`` turns offspring units into counts;
the engine itself only ever reads their sums.  ``StableCoinFlipPolicy``
ranks the aux deviates with the plain stable argsort, against which the
policy's fast exact order is checked.  ``reference_count`` and
``ReferencePolicy`` count the served prefix of each built-in policy from
stable argsorts and the full sequential running totals, against which the
certified long-row counts are checked.  ``step``, ``simulate`` and
``simulate_coupled`` run one replicate from those rows and counts alone,
against which the engine's one batched pass is checked.  ``count`` is the
served count of one claim row through a policy's ``count_rows``.
"""

import numpy as np

from rdbp.engine import EngineError, Outcome, Trajectory
from rdbp.policies import CoinFlipPolicy, CustomPolicy, PriorityPolicy
from rdbp.universe import (
    _GOLDEN,
    _MASK64,
    _TAG_AUX,
    _TAG_CLAIM,
    _TAG_OFFSPRING,
    _TAG_RESOURCE,
    INDEX_CAP,
    _mix,
)

FIRST_ROW = np.zeros(1, dtype=np.intp)


def row_key(universe, tag, n):
    if not 0 <= n <= INDEX_CAP:
        raise ValueError(f"generation index {n} outside [0, {INDEX_CAP}]")
    h = _mix(universe.seed.value + _GOLDEN * tag)
    h = _mix(h + _GOLDEN * (universe.replicate_id + 1))
    return _mix(h + _GOLDEN * n)


def word_unit(key, k):
    """Unit of the cell at position k of the row with this key."""
    word = _mix(((k * _GOLDEN) & _MASK64) ^ key)
    return ((word >> 11) + 0.5) * 2.0 ** -53


def unit_at(universe, tag, n, k):
    if not 1 <= k <= INDEX_CAP:
        raise ValueError(f"position {k} outside [1, {INDEX_CAP}]")
    return word_unit(row_key(universe, tag, n), k)


def unit_row(universe, tag, n, count):
    key = row_key(universe, tag, n)
    return np.array([word_unit(key, k) for k in range(1, count + 1)], dtype=np.float64)


def quantile(law, u):
    """Offspring count of each deviate u of an offspring law: the smallest
    j with CDF(j) >= u."""
    return np.searchsorted(law.cumulative(), u, side="left").astype(np.int64)


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
    cdf = law.cumulative()
    values, times = np.unique(cdf[cdf < 1.0], return_counts=True)
    return list(zip(values.tolist(), times.tolist()))


def offspring_at(universe, n, k):
    return int(quantile(universe.laws.offspring, [unit_at(universe, _TAG_OFFSPRING, n, k)])[0])


def claim_at(universe, n, k):
    return float(universe.laws.claim.icdf(np.array([unit_at(universe, _TAG_CLAIM, n, k)]))[0])


def resource_at(universe, n, k):
    return float(universe.laws.resource.icdf(np.array([unit_at(universe, _TAG_RESOURCE, n, k)]))[0])


def kernel_units(universe, tag, n, count):
    """Units of k = 1..count of one row, through the vectorised kernel."""
    return universe.generation(n)._fill(tag, FIRST_ROW, count)[0]


def offspring_row(universe, n, count):
    return quantile(universe.laws.offspring, kernel_units(universe, _TAG_OFFSPRING, n, count))


def claim_row(universe, n, count):
    return np.asarray(universe.laws.claim.icdf(kernel_units(universe, _TAG_CLAIM, n, count)))


def resource_row(universe, n, count):
    return np.asarray(universe.laws.resource.icdf(kernel_units(universe, _TAG_RESOURCE, n, count)))


def aux_row(universe, n, count):
    return kernel_units(universe, _TAG_AUX, n, count)


class StableCoinFlipPolicy(CoinFlipPolicy):
    """``coinflip`` through ``np.argsort(aux, kind="stable")`` alone, with
    blocks counted row by row."""

    def permutation(self, claims, aux=None):
        return np.argsort(np.asarray(aux, dtype=np.float64), kind="stable")

    count_rows = PriorityPolicy.count_rows


def reference_order(token, claims, aux=None):
    """The claims in the service order of the built-in policy ``token``."""
    claims = np.asarray(claims, dtype=np.float64)
    if token == "fcfs":
        return claims.copy()
    if token == "wf":
        return claims[np.argsort(claims, kind="stable")]
    if token == "coinflip":
        return claims[np.argsort(np.asarray(aux, dtype=np.float64), kind="stable")]
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

    def count_rows(self, claims, budgets, aux=None):
        return np.array([reference_count(self.token, row, budget, None if aux is None else aux[i])
                         for i, (row, budget) in enumerate(zip(claims, budgets))], dtype=np.int64)


def count(policy, claims, budget, aux=None):
    """Served count of one claim row: ``policy.count_rows`` on a one-row block."""
    claims = np.asarray(claims, dtype=np.float64)[None]
    aux = None if aux is None else np.asarray(aux, dtype=np.float64)[None]
    return int(policy.count_rows(claims, np.array([budget], dtype=np.float64), aux)[0])


def reference_served(policy, claims, budget, aux=None):
    """Served count of one claim row from the full sequential running
    totals: in a ``CustomPolicy``'s permutation, or in the order of the
    built-in (or reference) policy of that token."""
    if isinstance(policy, CustomPolicy):
        return int((np.cumsum(claims[policy.permutation(claims, aux)]) <= budget).sum())
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
    budget = np.sum(resource_row(universe, n, current_size))
    aux = aux_row(universe, n, total) if policy.needs_aux else None
    return reference_served(policy, claim_row(universe, n, total), budget, aux)


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
