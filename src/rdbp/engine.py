"""One-generation dynamics and whole-trajectory simulation.

Generation n of size G produces t = sum of G offspring draws prospective
children and a resource budget equal to the sum of G resource draws.  The
policy then admits children against that budget, and the admitted count is
the next generation size.  All randomness is read from a universe, so
trajectories are reproducible and couplable by construction.

``step`` and ``simulate`` advance one replicate at a time and are the
reference.  ``step_replicates`` and ``simulate_replicates`` advance every
live replicate of a generation together and return the same sizes and
outcomes bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .distributions import LawTriple
from .policies import PriorityPolicy
from .universe import INDEX_CAP, ReplicateRows, Universe

__all__ = [
    "EngineError",
    "ProcessSpec",
    "Outcome",
    "Trajectory",
    "step",
    "simulate",
    "simulate_coupled",
    "step_replicates",
    "simulate_replicates",
    "trajectory_to_csv",
    "trajectory_to_json",
    "HORIZON_DEFAULT",
    "EXPLOSION_CAP_DEFAULT",
]

HORIZON_DEFAULT = 200
EXPLOSION_CAP_DEFAULT = 10 ** 6
#: largest block of cells the batched engine reads at once; a longer run of
#: equal-length rows is read in pieces, and a single longer row on its own
BLOCK_CELLS = 1 << 20


class EngineError(RuntimeError):
    """Configuration or runtime failure inside the simulation engine."""


@dataclass(frozen=True)
class ProcessSpec:
    """Everything needed to run one process: laws, policy, and run limits."""

    laws: LawTriple
    policy: PriorityPolicy
    initial_size: int = 1
    horizon: int = HORIZON_DEFAULT
    explosion_cap: int = EXPLOSION_CAP_DEFAULT

    def __post_init__(self) -> None:
        if self.initial_size < 1:
            raise ValueError("initial_size must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.explosion_cap <= self.initial_size:
            raise ValueError("explosion_cap must exceed initial_size")


@dataclass(frozen=True)
class Outcome:
    """How a run ended: 'extinct' or 'exploded' at a generation, or
    'alive_at_horizon' with generation None."""

    kind: str
    generation: Optional[int] = None


@dataclass
class Trajectory:
    sizes: list[int]
    outcome: Outcome
    growth_ratios: list[float] = field(default_factory=list)

    def size_at(self, n: int) -> int:
        """Size at generation n; extinct trajectories stay 0 forever.

        Raises for generations beyond the record of a truncated run, where
        the size is genuinely unknown.
        """
        if n < 0:
            raise IndexError("generation must be >= 0")
        if n < len(self.sizes):
            return self.sizes[n]
        if self.outcome.kind == "extinct":
            return 0
        raise IndexError(f"generation {n} beyond recorded horizon of a non-extinct run")


def step(current_size: int, universe: Universe, n: int, policy: PriorityPolicy) -> int:
    """Next generation size given the current one.  Zero is absorbing."""
    if current_size < 0:
        raise EngineError("negative population size")
    if current_size == 0:
        return 0
    offspring = universe.offspring_row(n, current_size)
    total = int(offspring.sum())
    if total > INDEX_CAP:
        raise EngineError(
            f"{total} prospective children in generation {n} exceed the index cap {INDEX_CAP}"
        )
    budget = float(universe.resource_row(n, current_size).sum())
    if total == 0:
        return 0
    claims = universe.claim_row(n, total)
    aux = universe.aux_row(n, total) if policy.needs_aux else None
    return policy.count(claims, budget, aux)


def simulate(spec: ProcessSpec, universe: Universe) -> Trajectory:
    """Run from the initial size until extinction, the explosion cap, or the
    horizon, whichever comes first."""
    if spec.laws != universe.laws:
        raise EngineError("spec and universe disagree on the law triple")
    sizes = [spec.initial_size]
    outcome = Outcome("alive_at_horizon")
    for n in range(spec.horizon):
        nxt = step(sizes[-1], universe, n, spec.policy)
        sizes.append(nxt)
        if nxt == 0:
            outcome = Outcome("extinct", n + 1)
            break
        if nxt >= spec.explosion_cap:
            outcome = Outcome("exploded", n + 1)
            break
    return _trajectory(sizes, outcome)


def _trajectory(sizes: list[int], outcome: Outcome) -> Trajectory:
    ratios = [sizes[i + 1] / sizes[i] for i in range(len(sizes) - 1) if sizes[i] > 0]
    return Trajectory(sizes=sizes, outcome=outcome, growth_ratios=ratios)


def simulate_coupled(specs: Sequence[ProcessSpec], universe: Universe) -> list[Trajectory]:
    """Run several specs against one universe.

    The specs must agree on everything except the policy, so differences
    between the resulting trajectories are attributable to the policies
    alone.  Because universe reads are addressed rather than consumed, the
    runs see identical offspring, claim, and resource arrays even where
    their population sizes differ.
    """
    if not specs:
        raise EngineError("simulate_coupled needs at least one spec")
    first = specs[0]
    for other in specs[1:]:
        same = (
            other.laws == first.laws
            and other.initial_size == first.initial_size
            and other.horizon == first.horizon
            and other.explosion_cap == first.explosion_cap
        )
        if not same:
            raise EngineError("coupled specs may differ only in their policy")
    return [simulate(spec, universe) for spec in specs]


def _equal_length_blocks(lengths: np.ndarray) -> Iterator[tuple[np.ndarray, int]]:
    """(positions, length) for each group of equal lengths, at most
    BLOCK_CELLS cells per group unless one row alone is longer."""
    if not lengths.size:
        return
    order = np.argsort(lengths, kind="stable")
    for run in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        length = int(lengths[run[0]])
        per_block = max(1, BLOCK_CELLS // max(length, 1))
        for lo in range(0, len(run), per_block):
            yield run[lo:lo + per_block], length


def step_replicates(
    sizes: np.ndarray, base: Universe, ids: np.ndarray, n: int, policy: PriorityPolicy
) -> np.ndarray:
    """Next sizes of many replicates of ``base`` from ``sizes``, in one pass.

    Entry i equals ``step(sizes[i], base.derive_replicate(ids[i]), n, policy)``.
    Rows of equal length are read as one C-contiguous block, which keeps
    every budget sum and claim prefix sum bit-identical to ``step``.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if np.any(sizes < 0):
        raise EngineError("negative population size")
    rows = ReplicateRows(base, np.asarray(ids), n)
    totals = np.zeros(len(sizes), dtype=np.int64)
    budgets = np.zeros(len(sizes), dtype=np.float64)
    for block, size in _equal_length_blocks(sizes):
        if size:
            totals[block] = rows.offspring(block, size).sum(axis=1)
            budgets[block] = rows.resources(block, size).sum(axis=1)
    if totals.size and totals.max() > INDEX_CAP:
        raise EngineError(
            f"{totals.max()} prospective children in generation {n} exceed the index cap {INDEX_CAP}"
        )
    served = np.zeros(len(sizes), dtype=np.int64)
    born = np.flatnonzero(totals)
    for block, total in _equal_length_blocks(totals[born]):
        block = born[block]
        aux = rows.aux(block, total) if policy.needs_aux else None
        served[block] = policy.count_rows(rows.claims(block, total), budgets[block], aux)
    return served


def simulate_replicates(spec: ProcessSpec, base: Universe, ids: Sequence[int]) -> list[Trajectory]:
    """``[simulate(spec, base.derive_replicate(i)) for i in ids]``, with all
    live replicates of a generation advanced together by ``step_replicates``."""
    if spec.laws != base.laws:
        raise EngineError("spec and universe disagree on the law triple")
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    records = [[spec.initial_size] for _ in range(len(ids))]
    outcomes = [Outcome("alive_at_horizon")] * len(ids)
    live = np.arange(len(ids))
    current = np.full(len(ids), spec.initial_size, dtype=np.int64)
    for n in range(spec.horizon):
        if not live.size:
            break
        current = step_replicates(current, base, ids[live], n, spec.policy)
        for j, size in zip(live.tolist(), current.tolist()):
            records[j].append(size)
        extinct = current == 0
        exploded = current >= spec.explosion_cap
        for j in live[extinct].tolist():
            outcomes[j] = Outcome("extinct", n + 1)
        for j in live[exploded].tolist():
            outcomes[j] = Outcome("exploded", n + 1)
        going = ~(extinct | exploded)
        live, current = live[going], current[going]
    return [_trajectory(sizes, outcome) for sizes, outcome in zip(records, outcomes)]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def trajectory_to_csv(traj: Trajectory) -> str:
    lines = ["generation,size"]
    lines.extend(f"{n},{s}" for n, s in enumerate(traj.sizes))
    gen = "" if traj.outcome.generation is None else str(traj.outcome.generation)
    lines.append(f"# outcome,{traj.outcome.kind},{gen}")
    return "\n".join(lines) + "\n"


def trajectory_to_json(traj: Trajectory) -> dict:
    return {
        "sizes": list(traj.sizes),
        "outcome": {"kind": traj.outcome.kind, "generation": traj.outcome.generation},
        "growth_ratios": [float(r) for r in traj.growth_ratios],
    }


def trajectory_json_text(traj: Trajectory) -> str:
    return json.dumps(trajectory_to_json(traj), indent=2) + "\n"
