"""Service policies: who gets served first, and how many fit the budget.

A policy ranks the claims of one generation's prospective children; the
children are then admitted in rank order while the running claim total stays
within the generation's resource budget.  Ties rank by arrival order (stable
sorts everywhere), and the admitted count is zero whenever the first-ranked
claim already exceeds the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ServedSet",
    "PriorityPolicy",
    "FcfsPolicy",
    "WeakestFirstPolicy",
    "StrongestFirstPolicy",
    "CoinFlipPolicy",
    "ThirdLargestFirstPolicy",
    "CustomPolicy",
    "apply_policy",
    "count_fcfs",
    "count_wf",
    "count_sf",
    "policy_from_token",
    "POLICY_TOKENS",
]


def _prefix_count(ordered_claims: np.ndarray, budget: float) -> int:
    """Largest prefix of the ordered claims whose sum is at most the budget."""
    if ordered_claims.size == 0:
        return 0
    cum = np.cumsum(ordered_claims)
    # claims are non-negative, so the running totals are non-decreasing
    return int(np.searchsorted(cum, budget, side="right"))


def _prefix_count_rows(ordered: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """_prefix_count of every row of a 2-D block, with one budget per row.

    ``cumsum`` runs along each row in order, exactly as on the row alone,
    and non-negative claims keep the totals sorted, so counting the totals
    within budget finds the same prefix as ``searchsorted``.
    """
    return (np.cumsum(ordered, axis=1) <= budgets[:, None]).sum(axis=1)


@dataclass(frozen=True)
class ServedSet:
    """Outcome of applying one policy to one generation's claims."""

    count: int
    served_indices: tuple[int, ...]  # arrival positions (0-based), in service order
    consumed: float


class PriorityPolicy:
    """Base class.  Subclasses provide the priority permutation."""

    name: str = "?"
    needs_aux: bool = False

    def permutation(self, claims: np.ndarray, aux: Optional[np.ndarray] = None) -> np.ndarray:
        raise NotImplementedError

    def count(self, claims: np.ndarray, budget: float, aux: Optional[np.ndarray] = None) -> int:
        perm = self.permutation(claims, aux)
        return _prefix_count(np.asarray(claims, dtype=np.float64)[perm], budget)

    def count_rows(
        self, claims: np.ndarray, budgets: np.ndarray, aux: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``count`` of each row of an (m, t) claim block against its budget.

        Subclasses replace this with one 2-D pass that returns the same
        counts; the default calls ``count`` row by row.
        """
        return np.array(
            [self.count(claims[i], budgets[i], None if aux is None else aux[i])
             for i in range(len(claims))],
            dtype=np.int64,
        )


class FcfsPolicy(PriorityPolicy):
    """Service in arrival order."""

    name = "fcfs"

    def permutation(self, claims, aux=None):
        return np.arange(len(claims), dtype=np.int64)

    def count(self, claims, budget, aux=None):
        return count_fcfs(claims, budget)

    def count_rows(self, claims, budgets, aux=None):
        return _prefix_count_rows(claims, budgets)


class WeakestFirstPolicy(PriorityPolicy):
    """Smallest claims first; admits the maximal number any policy can."""

    name = "wf"

    def permutation(self, claims, aux=None):
        return np.argsort(np.asarray(claims, dtype=np.float64), kind="stable")

    def count(self, claims, budget, aux=None):
        return count_wf(claims, budget)

    def count_rows(self, claims, budgets, aux=None):
        return _prefix_count_rows(np.sort(claims, axis=1), budgets)


class StrongestFirstPolicy(PriorityPolicy):
    """Largest claims first; admits the fewest of the three canonical orders."""

    name = "sf"

    def permutation(self, claims, aux=None):
        return np.argsort(-np.asarray(claims, dtype=np.float64), kind="stable")

    def count(self, claims, budget, aux=None):
        return count_sf(claims, budget)

    def count_rows(self, claims, budgets, aux=None):
        return _prefix_count_rows(np.sort(claims, axis=1)[:, ::-1], budgets)


class CoinFlipPolicy(PriorityPolicy):
    """Uniformly random service order, drawn from the universe's auxiliary
    stream so it is independent of the claims themselves."""

    name = "coinflip"
    needs_aux = True

    def permutation(self, claims, aux=None):
        if aux is None:
            raise ValueError("coinflip policy needs auxiliary deviates (one per claim)")
        aux = np.asarray(aux, dtype=np.float64)
        if aux.shape != (len(claims),):
            raise ValueError("auxiliary deviates must match the claim count")
        return np.argsort(aux, kind="stable")

    def count_rows(self, claims, budgets, aux=None):
        if aux is None or aux.shape != claims.shape:
            raise ValueError("coinflip policy needs auxiliary deviates (one per claim)")
        order = np.argsort(aux, axis=1, kind="stable")
        return _prefix_count_rows(np.take_along_axis(claims, order, axis=1), budgets)


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

    def permutation(self, claims, aux=None):
        desc = np.argsort(-np.asarray(claims, dtype=np.float64), kind="stable")
        if len(desc) < 3:
            return desc
        perm = desc.copy()
        perm[[0, 1, 2]] = desc[[2, 0, 1]]
        return perm

    def count_rows(self, claims, budgets, aux=None):
        # a stable descending argsort puts tied claims in some order, but
        # the served prefix only sees their values, which a sort reproduces
        ordered = np.sort(claims, axis=1)[:, ::-1]
        if ordered.shape[1] >= 3:
            ordered = ordered.copy()
            ordered[:, [0, 1, 2]] = ordered[:, [2, 0, 1]]
        return _prefix_count_rows(ordered, budgets)


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


def apply_policy(
    policy: PriorityPolicy,
    claims: np.ndarray,
    budget: float,
    aux: Optional[np.ndarray] = None,
) -> ServedSet:
    """Admit children greedily in the policy's priority order.

    Service stops at the first claim that would push the running total past
    the budget; later claims are not revisited.
    """
    claims = np.asarray(claims, dtype=np.float64)
    if claims.size and claims.min() < 0.0:
        raise ValueError("claims must be non-negative")
    if budget < 0.0:
        raise ValueError("budget must be non-negative")
    perm = policy.permutation(claims, aux)
    ordered = claims[perm]
    count = _prefix_count(ordered, budget)
    consumed = float(np.sum(ordered[:count])) if count else 0.0
    return ServedSet(count=count, served_indices=tuple(int(i) for i in perm[:count]), consumed=consumed)


def count_fcfs(claims: np.ndarray, budget: float) -> int:
    """Admitted count under arrival order."""
    return _prefix_count(np.asarray(claims, dtype=np.float64), budget)


def count_wf(claims: np.ndarray, budget: float) -> int:
    """Admitted count with smallest claims first.

    Equals the largest size of any claim subset fitting the budget, since the
    k cheapest claims minimise every k-subset sum.
    """
    return _prefix_count(np.sort(np.asarray(claims, dtype=np.float64)), budget)


def count_sf(claims: np.ndarray, budget: float) -> int:
    """Admitted count with largest claims first."""
    return _prefix_count(np.sort(np.asarray(claims, dtype=np.float64))[::-1], budget)


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
