"""Service policies: who gets served first, and how many fit the budget.

A policy ranks the claims of one replicate's prospective children in a
generation; the children are then admitted in rank order while the running
claim total stays within that generation's resource budget.  ``count_rows``
counts the admitted children of every row of a 2-D claim block, one
replicate per row, in one pass.  Ties rank by arrival order (the orders are
those of stable sorts; coinflip reaches its own through the faster default
sort and a tie check), and the admitted count is zero whenever the
first-ranked claim already exceeds the budget.  A ``CustomPolicy`` gives its
order as a permutation of each row.

The admitted count is defined by the sequential running totals (``cumsum``)
of the ranked claims.  Rows of at least ``_SELECT_MIN_CLAIMS`` claims reach
it without a full ``cumsum`` (``_served_prefix``: pairwise block sums, and a
local ``cumsum`` in the block where the budget is crossed) and, for wf and
sf, without a full sort (``_selected_count``: two partitions cut a window
around the estimated crossing, and only the window is sorted).  A rounding
bound proves each such count equal to the sequential one; where it cannot,
and for non-finite values, the row falls back to the sort and the full
``cumsum``.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

__all__ = [
    "PriorityPolicy",
    "FcfsPolicy",
    "WeakestFirstPolicy",
    "StrongestFirstPolicy",
    "CoinFlipPolicy",
    "ThirdLargestFirstPolicy",
    "CustomPolicy",
    "count_sf",
    "policy_from_token",
    "POLICY_TOKENS",
]


def _cumsum_count(ordered_claims: np.ndarray, budget: float, in_place: bool = False) -> int:
    """Largest prefix of the ordered claims whose sequential sum is at most
    the budget: the exact count, which every faster count must equal.

    With ``in_place`` the running totals overwrite the claims, which spares
    a fresh array; policies pass it only for an ordered copy they own.
    """
    # no total is at most a NaN budget, as in _cumsum_count_rows (searchsorted
    # would rank the NaN above every total and serve everyone)
    if ordered_claims.size == 0 or np.isnan(budget):
        return 0
    cum = np.cumsum(ordered_claims, out=ordered_claims if in_place else None)
    # claims are non-negative, so the running totals are non-decreasing
    return int(np.searchsorted(cum, budget, side="right"))


def _cumsum_count_rows(
    ordered: np.ndarray, budgets: np.ndarray, in_place: bool = False
) -> np.ndarray:
    """_cumsum_count of every row of a 2-D block, with one budget per row.

    ``cumsum`` runs along each row in order, exactly as on the row alone,
    and non-negative claims keep the totals sorted, so counting the totals
    within budget finds the same prefix as ``searchsorted``.
    """
    cum = np.cumsum(ordered, axis=1, out=ordered if in_place else None)
    return (cum <= budgets[:, None]).sum(axis=1)


#: shortest rows counted by _served_prefix and, for wf and sf, by selection
#: instead of a full sort.  In ns per claim against the sort-and-cumsum path
#: (blocks of 2**20 U(0, 2) claims, 2-vCPU x86 VM), wf / sf / fcfs took
#: 13.3 / 17.4 / 5.4 against 11.9 / 11.9 / 5.5 at 4096 claims, 10.6 / 13.8 /
#: 3.6 against 11.7 / 12.2 / 4.5 at 6000, 9.0 / 11.7 / 2.8 against 12.0 /
#: 12.8 / 5.1 at 8192, and 6.8 / 8.7 / 1.6 against 12.2 / 13.1 / 5.1 at 16384
_SELECT_MIN_CLAIMS = 8192
#: most claims a certified count may add: engine.CLAIM_CAP, which keeps
#: t * u <= 2**-26 for the rounding bound of _served_prefix
_CERTIFIED_MAX_CLAIMS = 1 << 27
#: claims per block whose pairwise sums _served_prefix accumulates
_PREFIX_BLOCK = 1024
#: sampled claims from which _selected_count estimates the crossing rank
_SAMPLE = 512
_EPS = float(np.finfo(np.float64).eps)


def _served_prefix(ordered: np.ndarray, budget: float, start: float = 0.0, terms: int = 0) -> int:
    """Served count of the ordered claims, certified equal to the sequential
    count, or -1 where rounding could decide it.

    ``start`` is the total of the claims served ahead of these, and
    ``terms`` the number of claims in that total and these together (their
    number alone by default).  Blocks of ``_PREFIX_BLOCK`` claims are summed
    pairwise, a ``cumsum`` runs over the block sums, and one local
    ``cumsum`` runs inside the block where the running total crosses the
    budget.

    Why the count is exact: claims are >= 0, so the sequential totals S_j of
    the exact path never decrease, and its count is k whenever
    S_k <= B < S_{k+1}.  S_j and the fast total A_j are both computed sums
    of the same j claims, so both lie within gamma_j * T_j of their real sum
    T_j, where gamma_j = j*u / (1 - j*u) and u = 2**-53 (Higham, Accuracy
    and Stability of Numerical Algorithms, sec. 4.2; an addition is exact
    where it underflows).  With t = ``terms`` <= 2**27, t*u <= 2**-26 and
    |S_j - A_j| < 2.1 * t*u * A_j.  k is accepted only if A_k + E <= B and
    A_{k+1} - E > B, with E = 4*t*eps*max(A, B) = 8*t*u*max(A, B), which
    covers that gap and the rounding of both comparisons.  A non-finite
    value, a crossing past the end of the summed block, or a margin under E
    leaves the count to the exact path.
    """
    if not math.isfinite(budget):
        return -1
    n = ordered.size
    size = _PREFIX_BLOCK
    whole = n // size
    # running totals at the end of each whole block; the crossing block is
    # the first one past the budget, or the tail after the whole blocks
    totals = np.add.reduce(ordered[:whole * size].reshape(whole, size), axis=1).cumsum()
    totals += start
    cross = int(totals.searchsorted(budget, "right"))
    ahead = float(totals[cross - 1]) if cross else start
    local = ordered[cross * size:(cross + 1) * size].cumsum()
    local += ahead
    fit = int(local.searchsorted(budget, "right"))
    count = cross * size + fit
    tol = 4.0 * (terms or n) * _EPS
    # a NaN or inf total fails these comparisons
    below = float(local[fit - 1]) if fit else ahead
    if not below + tol * max(below, budget) <= budget:
        return -1
    if count == n:
        return count
    if fit == local.size:  # served to the block's end, but not to the row's
        return -1
    above = float(local[fit])
    return count if above - tol * max(above, budget) > budget else -1


def _is_long(claims: int) -> bool:
    """Whether a row of this many claims is counted by certified sums."""
    return _SELECT_MIN_CLAIMS <= claims <= _CERTIFIED_MAX_CLAIMS


def _prefix_count(ordered_claims: np.ndarray, budget: float, in_place: bool = False) -> int:
    """Largest prefix of the ordered claims whose sequential sum is at most
    the budget: certified by _served_prefix for a long row, and from the
    full ``cumsum`` where that cannot decide and for short rows."""
    if _is_long(ordered_claims.size):
        count = _served_prefix(ordered_claims, budget)
        if count >= 0:
            return count
    return _cumsum_count(ordered_claims, budget, in_place)


def _prefix_count_rows(
    ordered: np.ndarray, budgets: np.ndarray, in_place: bool = False
) -> np.ndarray:
    """_prefix_count of every row of a 2-D block, with one budget per row."""
    if not _is_long(ordered.shape[1]):
        return _cumsum_count_rows(ordered, budgets, in_place)
    return np.array([_prefix_count(row, b, in_place) for row, b in zip(ordered, budgets)],
                    dtype=np.int64)


def _selected_count(row: np.ndarray, budget: float, descending: bool = False) -> int:
    """Served count of one long row in ascending (weakest-first) or
    descending (strongest-first) claim order without sorting the row, or -1
    where it cannot be certified.

    A sorted strided sample estimates the crossing rank and its spread, and
    _window_count counts in a window around that rank.  A window that
    misses the crossing is widened once.
    """
    t = row.size
    sample = np.sort(row[::max(t // _SAMPLE, 1)])
    if descending:
        sample = sample[::-1]
    m = sample.size
    scale = t / m  # claims of the row that each sampled claim stands for
    est = sample.cumsum()
    j = int(est.searchsorted(budget / scale, "right"))
    # the estimated total of the first ranks has standard deviation
    # t * sd(Y) / sqrt(m), Y a sampled claim if it is among them and 0 if
    # not; dividing by the claim at the crossing turns it into ranks
    mean = float(est[j - 1]) / m if j else 0.0
    var = float(np.dot(sample[:j], sample[:j])) / m - mean * mean
    crossing = float(sample[min(j, m - 1)])
    if not (math.isfinite(budget) and math.isfinite(var) and 0.0 < crossing < math.inf):
        return -1
    spread = 3.0 * scale * math.sqrt(m * max(var, 0.0)) / crossing + 2.0 * scale
    rank = round(j * scale)
    for half in (int(spread) + 1, 4 * int(spread) + 4):
        count = _window_count(row, budget, max(rank - half, 0), min(rank + half, t), descending)
        if count is not None:
            return count
    return -1


def _window_count(row: np.ndarray, budget: float, lo: int, hi: int, descending: bool) -> Optional[int]:
    """Certified served count of a row whose crossing lies among its ranks
    lo..hi (from the top if ``descending``), -1 where rounding could decide
    it, or None if the crossing lies outside them.

    One partition cuts off the claims ranked ahead of the window, whose
    pairwise sum starts _served_prefix; a second one cuts the window from
    the rest, and only the window is sorted.
    """
    t = row.size
    if descending:  # the lo largest claims, then the next hi - lo
        part = np.partition(row, t - lo - 1)
        start = part[t - lo:].sum()
        rest = part[:t - lo]
        if hi < t:
            rest.partition(t - hi)
        window = rest[t - hi:]
        window.sort()
        window = window[::-1]
    else:
        part = np.partition(row, lo)
        start = part[:lo].sum()
        rest = part[lo:]
        if hi < t:
            rest.partition(hi - lo - 1)
        window = rest[:hi - lo]
        window.sort()
    if not start <= budget:  # the crossing lies below the window
        return None
    count = _served_prefix(window, budget, start, t)
    if count == hi - lo and hi < t:  # served through the window's top
        return None
    return count if count < 0 else lo + count


def _sorted_count(row: np.ndarray, budget: float, descending: bool = False) -> int:
    """Served count of one row in ascending or descending claim order: by
    selection for a long row, by a sort and a full ``cumsum`` otherwise and
    wherever the selection cannot certify its count."""
    if _is_long(row.size):
        count = _selected_count(row, budget, descending)
        if count >= 0:
            return count
    ordered = np.sort(row)
    return _cumsum_count(ordered[::-1] if descending else ordered, budget, in_place=True)


def _sorted_count_rows(claims: np.ndarray, budgets: np.ndarray, descending: bool) -> np.ndarray:
    """Served counts of the rows of a claim block in ascending or descending
    claim order: selection for long rows, a sort of the block otherwise."""
    if _is_long(claims.shape[1]):
        return np.array([_sorted_count(row, b, descending) for row, b in zip(claims, budgets)],
                        dtype=np.int64)
    ordered = np.sort(claims, axis=1)
    return _cumsum_count_rows(ordered[:, ::-1] if descending else ordered, budgets, in_place=True)


#: smallest rows and blocks that _stable_order gives to the default argsort:
#: below them the stable sort costs no more than the default sort plus its
#: tie check (measured on rows of 2-12 deviates, and blocks under 1024 cells
#: spend most of their time in call overhead)
_FAST_ORDER_MIN_ROW = 16
_FAST_ORDER_MIN_CELLS = 1024


def _flat_positions(order: np.ndarray) -> np.ndarray:
    """The positions in each row of an (m, t) block turned, in place, into
    positions in the flattened block; a single row needs no change.

    Indexing the flattened block with them gathers exactly what
    ``np.take_along_axis(block, order, axis=1)`` does, in half the time or
    less with the offsets added: 1.6 against 3.4 ms on a (1, 450000) block,
    0.5 against 1.0 ms on (64, 4096) and 0.35 against 0.7 ms on (1000, 200)
    (float64 cells, 2-vCPU x86 VM).
    """
    m, t = order.shape
    if m > 1:
        order += (np.arange(m, dtype=order.dtype) * t)[:, None]
    return order


def _stable_order(aux: np.ndarray) -> np.ndarray:
    """Exactly ``np.argsort(aux, axis=1, kind="stable")`` of an (m, t)
    block, as positions in the flattened block (``_flat_positions``),
    mostly from the vectorised default argsort.

    A row whose ranked deviates strictly increase has only one sorting
    order, so the default sort found the stable one.  Equal deviates
    (``0.0`` and ``-0.0`` included) may come out in either order, and a NaN
    compares false, so only rows holding such a pair are sorted again stably.
    """
    t = aux.shape[1]
    if t < _FAST_ORDER_MIN_ROW or aux.size < _FAST_ORDER_MIN_CELLS:
        return _flat_positions(np.argsort(aux, axis=1, kind="stable"))
    order = _flat_positions(np.argsort(aux, axis=1))
    ranked = aux.reshape(-1)[order]
    unsure = ~(ranked[:, 1:] > ranked[:, :-1]).all(axis=1)
    if unsure.any():
        again = np.argsort(aux[unsure], axis=1, kind="stable")
        again += (np.flatnonzero(unsure) * t)[:, None]
        order[unsure] = again
    return order


def _third_largest_first(descending: np.ndarray) -> np.ndarray:
    """Moves the third claim of each descending row to the front, in place:
    the counterexample policy's order."""
    if descending.shape[-1] >= 3:
        descending[..., [0, 1, 2]] = descending[..., [2, 0, 1]]
    return descending


class PriorityPolicy:
    """Base class.  A subclass gives each row's service order by
    ``permutation``, or counts whole blocks by its own ``count_rows``."""

    name: str = "?"
    needs_aux: bool = False

    def permutation(self, claims: np.ndarray, aux: Optional[np.ndarray] = None) -> np.ndarray:
        raise NotImplementedError

    def count_rows(
        self, claims: np.ndarray, budgets: np.ndarray, aux: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Served count of each row of an (m, t) claim block against its
        budget.

        The default serves each row in the order of ``permutation``, row by
        row; the built-in policies replace it with one 2-D pass.
        """
        counts = np.empty(len(claims), dtype=np.int64)
        for i, row in enumerate(claims):
            perm = self.permutation(row, None if aux is None else aux[i])
            counts[i] = _prefix_count(row[perm], budgets[i], in_place=True)
        return counts


class FcfsPolicy(PriorityPolicy):
    """Service in arrival order."""

    name = "fcfs"

    def count_rows(self, claims, budgets, aux=None):
        return _prefix_count_rows(claims, budgets)


class WeakestFirstPolicy(PriorityPolicy):
    """Smallest claims first; admits the maximal number any policy can.

    That is the largest size of any claim subset fitting the budget, since
    the k cheapest claims minimise every k-subset sum.
    """

    name = "wf"

    def count_rows(self, claims, budgets, aux=None):
        return _sorted_count_rows(claims, budgets, descending=False)


class StrongestFirstPolicy(PriorityPolicy):
    """Largest claims first; admits the fewest of the three canonical orders."""

    name = "sf"

    def count_rows(self, claims, budgets, aux=None):
        return _sorted_count_rows(claims, budgets, descending=True)


class CoinFlipPolicy(PriorityPolicy):
    """Uniformly random service order, drawn from the universe's auxiliary
    stream so it is independent of the claims themselves."""

    name = "coinflip"
    needs_aux = True

    def count_rows(self, claims, budgets, aux=None):
        if aux is None or aux.shape != claims.shape:
            raise ValueError("coinflip policy needs auxiliary deviates (one per claim)")
        ordered = claims.reshape(-1)[_stable_order(aux)]
        return _prefix_count_rows(ordered, budgets, in_place=True)


class ThirdLargestFirstPolicy(PriorityPolicy):
    """Serves the third-largest claim first, then the largest, then the
    second-largest, then the rest in descending order.  With fewer than three
    claims it reduces to strongest-first.

    Deliberately pathological: burning budget on the two largest claims right
    after a guaranteed small one lets a run of oversized claims block service
    entirely, which is how one shows that strongest-first is not a lower
    bound for every policy.
    """

    name = "counterexample"

    def count_rows(self, claims, budgets, aux=None):
        # a stable descending argsort puts tied claims in some order, but
        # the served prefix only sees their values, which a sort reproduces
        ordered = _third_largest_first(np.sort(claims, axis=1)[:, ::-1])
        return _prefix_count_rows(ordered, budgets, in_place=True)


class CustomPolicy(PriorityPolicy):
    """Wraps a deterministic claims -> permutation map; validates bijectivity."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], name: str = "custom"):
        self._fn = fn
        self.name = name

    def permutation(self, claims, aux=None):
        perm = np.asarray(self._fn(np.asarray(claims, dtype=np.float64)), dtype=np.int64)
        if perm.shape != (len(claims),) or not np.array_equal(np.sort(perm), np.arange(len(claims))):
            raise ValueError(f"custom policy {self.name!r} returned a non-permutation")
        return perm


def count_sf(claims: np.ndarray, budget: float) -> int:
    """Admitted count with largest claims first."""
    return _sorted_count(np.asarray(claims, dtype=np.float64), budget, descending=True)


POLICY_TOKENS = ("fcfs", "wf", "sf", "coinflip", "counterexample")


def policy_from_token(token: str) -> PriorityPolicy:
    """CLI token to policy instance."""
    table = {
        "fcfs": FcfsPolicy,
        "wf": WeakestFirstPolicy,
        "sf": StrongestFirstPolicy,
        "coinflip": CoinFlipPolicy,
        "counterexample": ThirdLargestFirstPolicy,
    }
    try:
        return table[token]()
    except KeyError:
        raise ValueError(f"unknown policy token {token!r}; expected one of {', '.join(POLICY_TOKENS)}") from None
