"""Service policies: who gets served first, and how many fit the budget.

A policy ranks the claims of one replicate's prospective children in a
generation; the children are then admitted in rank order while the running
claim total stays within that generation's resource budget.  Claims and
budgets are int64 multiples of the law triple's quantum
(``LawTriple.quantum``), so every total is exact, whatever order it is
summed in.  ``count_rows`` counts the admitted children of every row of a
2-D claim block, one replicate per row, in one pass.  Tied claims rank by
arrival order (the orders are those of stable sorts); coinflip ranks aux
words, which never tie within a row.  The admitted count is zero whenever
the first-ranked claim already exceeds the budget.  A
``CustomPolicy`` gives its order as a permutation of each row's claim
values.

Arrival-order, counterexample and custom rows are counted by one
``cumsum`` of the ordered claims.  The engine never hands an arrival-order
row of ``_SELECT_MIN_CLAIMS`` claims or more to a policy: it counts such a
row as it reads it (``ReplicateRows.served_in_arrival_order``).  wf, sf
and coinflip rows of that length are not sorted.  For wf and sf, two
partitions cut a window of ranks around the estimated crossing, and only
the window is sorted (``_selected_count``).  For coinflip, probes at
sampled aux words bracket the crossing, each with one compare and one
masked sum, and only the words between the two bracketing thresholds are
ranked (``_ranked_count``).  Every total is exact, so none of these counts
needs a fallback.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .distributions import _lattice_bits

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


def _cumsum_count_rows(ordered: np.ndarray, budgets: np.ndarray, in_place: bool = False) -> np.ndarray:
    """Largest prefix of each row of a 2-D block of ordered claims whose
    total is at most the row's budget: the simple count, which every faster
    count must equal.

    Claims are >= 0, so the running totals are sorted, and counting the
    totals within budget finds the prefix.  With ``in_place`` the running
    totals overwrite the claims, which spares a fresh array; policies pass
    it only for an ordered copy they own.
    """
    cum = np.cumsum(ordered, axis=1, out=ordered if in_place else None)
    return (cum <= budgets[:, None]).sum(axis=1)


#: shortest rows counted, for wf and sf, by _selected_count and, for
#: coinflip, by _ranked_count instead of a full sort, and shortest
#: arrival-order rows the engine streams.  At 8192 int64 claims (timed as
#: the count_rows section of scripts/bench_layers.py does, 2-vCPU x86 VM)
#: wf and coinflip took 5.9 and 10.4 ns per claim, against 10.0 and 23.3
#: for blocks of 1000-claim rows counted whole
_SELECT_MIN_CLAIMS = 8192
#: sampled claims from which _selected_count estimates the crossing rank;
#: _ranked_count samples four times as many aux words
_SAMPLE = 512
#: _ranked_count stops probing once the bracket spans at most this share
#: of its sample (1/32: about 2 probes and a window of 3 % of the row), or
#: after _RANK_PROBES probes
_RANK_WINDOW = 32
_RANK_PROBES = 12


def _long_rows(count_one: Callable, short: Callable, claims: np.ndarray, budgets: np.ndarray,
               *more: np.ndarray) -> np.ndarray:
    """Served counts of a claim block: ``short(claims, budgets, *more)`` for
    rows under _SELECT_MIN_CLAIMS claims, else ``count_one(row, budget,
    *that row of more)`` row by row."""
    if claims.shape[1] < _SELECT_MIN_CLAIMS:
        return short(claims, budgets, *more)
    return np.array([count_one(*row) for row in zip(claims, budgets, *more)], dtype=np.int64)


def _selected_count(row: np.ndarray, budget: int, descending: bool = False) -> int:
    """Served count of one long row in ascending (weakest-first) or
    descending (strongest-first) claim order without sorting the row.

    The keys are the claims, negated for descending order.  A sorted
    strided sample of them estimates the crossing rank and its spread, and
    _window_count counts in a window of ranks around it.  A window that
    misses the crossing is widened fourfold until it holds it; the whole
    row always does.
    """
    t, budget = row.size, int(budget)
    keys = np.negative(row) if descending else row
    sign = -1 if descending else 1
    sample = np.sort(keys[::max(t // _SAMPLE, 1)]) * sign
    m = sample.size
    scale = t / m  # claims of the row that each sampled claim stands for
    est = sample.cumsum()
    j = int(est.searchsorted(budget / scale, "right"))
    # the estimated total of the first ranks has standard deviation
    # t * sd(Y) / sqrt(m), Y a sampled claim if it is among them and 0 if
    # not; dividing by the claim at the crossing turns it into ranks
    first = sample[:j].astype(np.float64)
    mean = first.sum() / m
    var = max(float(np.dot(first, first)) / m - mean * mean, 0.0)
    crossing = max(float(sample[min(j, m - 1)]), 1.0)
    half = int(3.0 * scale * math.sqrt(m * var) / crossing + 2.0 * scale) + 1
    rank = round(j * scale)
    while True:
        count = _window_count(keys, sign, budget, max(rank - half, 0), min(rank + half, t))
        if count is not None:
            return count
        half *= 4


def _window_count(keys: np.ndarray, sign: int, budget: int, lo: int, hi: int) -> Optional[int]:
    """Served count of a row of claims ``sign * keys``, in ascending key
    order, whose crossing lies among its ranks lo..hi, or None if it lies
    outside them.

    One partition cuts off the claims ranked ahead of the window, whose sum
    starts the count; a second one cuts the window from the rest, and only
    the window is sorted.
    """
    t = keys.size
    part = np.partition(keys, lo)
    start = sign * int(part[:lo].sum())
    rest = part[lo:]
    if hi < t:
        rest.partition(hi - lo - 1)
    window = np.sort(rest[:hi - lo]) * sign
    if not start <= budget:  # the crossing lies below the window
        return None
    count = int(window.cumsum().searchsorted(budget - start, "right"))
    if count == hi - lo and hi < t:  # served through the window's top
        return None
    return lo + count


def _sorted_count_rows(claims: np.ndarray, budgets: np.ndarray, descending: bool) -> np.ndarray:
    """Served counts of the rows of a claim block in ascending or descending
    claim order: selection for long rows, a sort of the block otherwise."""
    def short(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
        ordered = np.sort(rows, axis=1)
        return _cumsum_count_rows(ordered[:, ::-1] if descending else ordered, b, in_place=True)

    return _long_rows(lambda row, budget: _selected_count(row, budget, descending), short, claims, budgets)


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


def _ranked_count(claims: np.ndarray, budget: int, aux: np.ndarray) -> int:
    """Served count of one long row in the ascending order of its aux words
    without sorting the row.

    The claims ranked ahead of a threshold word are exactly those whose
    word lies below it, so one compare and one masked sum give the total
    of a prefix of the order.  The sum is an ``einsum`` of the claims and
    the mask, which casts the mask in small buffers and, unlike ``np.dot``,
    wakes no BLAS threads.  Thresholds come from a sorted strided sample of
    the words.  Each probe lands two standard deviations of the sample's
    order statistics from the interpolated crossing, toward the farther end
    of the bracket, so the first two usually close it.  Then only the
    words between the two bracketing thresholds are ranked, and their
    claims' running totals are counted against what the claims below left
    of the budget.
    """
    t, budget = claims.size, int(budget)
    total = int(claims.sum())
    if total <= budget:  # every claim fits, in any order
        return t
    sample = np.sort(aux[::max(t // (4 * _SAMPLE), 1)])
    # thresholds sample[lo] < sample[hi] have prefix totals s_lo <= budget <
    # s_hi; lo = -1 stands for no claim, hi = sample.size for every claim
    lo, hi, s_lo, s_hi = -1, sample.size, 0, total
    below_lo = below_hi = None
    for _ in range(_RANK_PROBES):
        if hi - lo <= max(sample.size // _RANK_WINDOW, 1):
            break
        guess = lo + (hi - lo) * (budget - s_lo) / (s_hi - s_lo)
        sd = math.sqrt((guess - lo) * (hi - guess) / (hi - lo)) + 1.0
        # at most halfway to the farther end: a probe that lands on the
        # predicted side cuts a quarter of the bracket or more, one on the
        # other side may cut only a few positions, and _RANK_PROBES bounds
        # the probes a poor interpolation costs
        if guess - lo > hi - guess:
            j = round(guess - min(2.0 * sd, 0.5 * (guess - lo)))
        else:
            j = round(guess + min(2.0 * sd, 0.5 * (hi - guess)))
        j = min(max(j, lo + 1), hi - 1)
        below = aux < sample[j]
        s = int(np.einsum("i,i", claims, below))
        if s <= budget:
            lo, s_lo, below_lo = j, s, below
        else:
            hi, s_hi, below_hi = j, s, below
    inside = np.ones(t, dtype=bool) if below_lo is None else ~below_lo
    if below_hi is not None:
        inside &= below_hi
    at = np.flatnonzero(inside)
    window = claims[at[np.argsort(aux[at])]]
    ahead = 0 if below_lo is None else int(np.count_nonzero(below_lo))
    return ahead + int(window.cumsum().searchsorted(budget - s_lo, "right"))


def _word_counts(claims: np.ndarray, budgets: np.ndarray, aux: np.ndarray) -> np.ndarray:
    """Served counts of a claim block in the ascending order of its aux
    words: the whole block ranked, then counted by _cumsum_count_rows.
    Words never tie within a row, so every sort kind gives that order."""
    order = np.argsort(aux, axis=1)
    return _cumsum_count_rows(claims.reshape(-1)[_flat_positions(order)], budgets, in_place=True)


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
    #: whether the policy serves every row in arrival order, so that the
    #: engine may count a long row as it reads it
    in_arrival_order: bool = False

    def permutation(self, claims: np.ndarray, aux: Optional[np.ndarray] = None) -> np.ndarray:
        raise NotImplementedError

    def count_rows(
        self, claims: np.ndarray, budgets: np.ndarray, aux: Optional[np.ndarray] = None, quantum: float = 1.0
    ) -> np.ndarray:
        """Served count of each row of an (m, t) int64 claim block against
        its int64 budget; ``quantum`` is the value of one lattice step.

        The default serves each row in the order of ``permutation``, which
        sees the claim values ``claims * quantum``, row by row; the built-in
        policies replace it with one 2-D pass.
        """
        counts = np.empty(len(claims), dtype=np.int64)
        for i, row in enumerate(claims):
            perm = self.permutation(row * quantum, None if aux is None else aux[i])
            counts[i] = _cumsum_count_rows(row[perm][None], budgets[i:i + 1], in_place=True)[0]
        return counts


class FcfsPolicy(PriorityPolicy):
    """Service in arrival order."""

    name = "fcfs"
    in_arrival_order = True

    def count_rows(self, claims, budgets, aux=None, quantum=1.0):
        return _cumsum_count_rows(claims, budgets)


class WeakestFirstPolicy(PriorityPolicy):
    """Smallest claims first; admits the maximal number any policy can.

    That is the largest size of any claim subset fitting the budget, since
    the k cheapest claims minimise every k-subset sum.
    """

    name = "wf"

    def count_rows(self, claims, budgets, aux=None, quantum=1.0):
        return _sorted_count_rows(claims, budgets, descending=False)


class StrongestFirstPolicy(PriorityPolicy):
    """Largest claims first; admits the fewest of the three canonical orders."""

    name = "sf"

    def count_rows(self, claims, budgets, aux=None, quantum=1.0):
        return _sorted_count_rows(claims, budgets, descending=True)


class CoinFlipPolicy(PriorityPolicy):
    """Uniformly random service order, drawn from the universe's auxiliary
    stream so it is independent of the claims themselves.

    Claims are served in ascending order of their aux words.  A long row is
    counted by ``_ranked_count``, which ranks only the words around the
    crossing; every short block is ranked whole by ``_word_counts``.
    """

    name = "coinflip"
    needs_aux = True

    def count_rows(self, claims, budgets, aux=None, quantum=1.0):
        """Served counts in the order of ``aux``, uint64 words distinct
        within each row, as ``ReplicateRows.aux`` reads them; float units
        could tie, and a tie has no defined rank, so they are refused."""
        if aux is None or aux.shape != claims.shape or aux.dtype.type is not np.uint64:
            raise ValueError("coinflip policy needs one uint64 auxiliary word per claim")
        return _long_rows(_ranked_count, _word_counts, claims, budgets, aux)


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

    def count_rows(self, claims, budgets, aux=None, quantum=1.0):
        # a stable descending argsort puts tied claims in some order, but
        # the served prefix only sees their values, which a sort reproduces
        ordered = _third_largest_first(np.sort(claims, axis=1)[:, ::-1])
        return _cumsum_count_rows(ordered, budgets, in_place=True)


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
    """Admitted count with largest claims first, of float claims and a float
    budget put on the lattice of the largest claim."""
    claims = np.asarray(claims, dtype=np.float64)
    scale = 2.0 ** _lattice_bits(float(claims.max(initial=0.0)))
    # twice the claims' total serves them all, and stays within int64
    budgets = np.array([min(budget, 2.0 * float(claims.sum())) * scale]).astype(np.int64)
    return int(_sorted_count_rows((claims[None] * scale).astype(np.int64), budgets, descending=True)[0])


#: one stateless instance per token, so specs built from one token are equal
_BY_TOKEN = {policy.name: policy for policy in (FcfsPolicy(), WeakestFirstPolicy(), StrongestFirstPolicy(),
                                                CoinFlipPolicy(), ThirdLargestFirstPolicy())}
POLICY_TOKENS = tuple(_BY_TOKEN)


def policy_from_token(token: str) -> PriorityPolicy:
    """CLI token to its shared policy instance."""
    try:
        return _BY_TOKEN[token]
    except KeyError:
        raise ValueError(f"unknown policy token {token!r}; expected one of {', '.join(POLICY_TOKENS)}") from None
