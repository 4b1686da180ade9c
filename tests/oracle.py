"""Reference reads of the universe and a reference policy, for tests only.

The scalar readers hash one cell at a time with the pure-Python ``_mix``,
independently of the vectorised kernel, so a wrong shift or constant in the
kernel shows up as a disagreement.  The ``*_row`` readers materialise whole
rows through the kernel; the engine itself only ever reads their sums.
``StableCoinFlipPolicy`` ranks the aux deviates with the plain stable
argsort, against which the policy's fast exact order is checked.
``reference_count`` and ``ReferencePolicy`` count the served prefix of each
built-in policy from stable argsorts and the full sequential running totals,
against which the certified long-row counts are checked.
"""

import numpy as np

from rdbp.policies import CoinFlipPolicy, PriorityPolicy
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


def offspring_at(universe, n, k):
    return int(universe.laws.offspring.quantile([unit_at(universe, _TAG_OFFSPRING, n, k)])[0])


def claim_at(universe, n, k):
    return float(universe.laws.claim.icdf(np.array([unit_at(universe, _TAG_CLAIM, n, k)]))[0])


def resource_at(universe, n, k):
    return float(universe.laws.resource.icdf(np.array([unit_at(universe, _TAG_RESOURCE, n, k)]))[0])


def kernel_units(universe, tag, n, count):
    """Units of k = 1..count of one row, through the vectorised kernel."""
    return universe.generation(n)._fill(tag, FIRST_ROW, count)[0]


def offspring_row(universe, n, count):
    return universe.laws.offspring.quantile(kernel_units(universe, _TAG_OFFSPRING, n, count))


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

    def count(self, claims, budget, aux=None):
        return reference_count(self.token, claims, budget, aux)
