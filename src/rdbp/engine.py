"""One-generation dynamics and whole-trajectory simulation.

Generation n of size G produces t = sum of G offspring draws prospective
children and a resource budget equal to the sum of G resource draws.  The
policy then admits children against that budget, and the admitted count is
the next generation size.  All randomness is read from a universe, so
trajectories are reproducible and couplable by construction.

``step`` and ``simulate`` advance one replicate at a time and are the
reference.  ``step_replicates`` and ``simulate_replicates`` advance every
live replicate of a generation together and return the same sizes and
outcomes bit for bit; ``simulate_coupled_replicates`` also steps several
coupled specs on the same ids in that one pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .distributions import LawTriple
from .policies import PriorityPolicy
from .universe import ReplicateRows, Universe

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
    "simulate_coupled_replicates",
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
#: most prospective children one replicate may have in a generation.  Their
#: claims (8 bytes each) and a policy's sorted copy are the only blocks that
#: grow with the population: 2**27 claims take 1 GiB.  The cap is far below
#: INDEX_CAP, so every claim it admits has an address
CLAIM_CAP = 1 << 27


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

    @property
    def growth_ratios(self) -> list[float]:
        """Size ratios of consecutive generations, out of every non-empty one."""
        sizes = self.sizes
        return [sizes[i + 1] / sizes[i] for i in range(len(sizes) - 1) if sizes[i] > 0]

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
    rows = universe.generation(n)
    total = int(rows.offspring_totals(_ONE_ROW, current_size)[0])
    if total == 0:
        return 0
    _check_claims(total, n)
    budget = float(rows.budgets(_ONE_ROW, current_size)[0])
    claims = rows.claims(_ONE_ROW, total)[0]
    aux = rows.aux(_ONE_ROW, total)[0] if policy.needs_aux else None
    return policy.count(claims, budget, aux)


_ONE_ROW = np.zeros(1, dtype=np.intp)


def _check_claims(total: int, n: int) -> None:
    """Refuse a generation whose claims would exceed the claim cap before
    they are allocated."""
    if total > CLAIM_CAP:
        raise EngineError(
            f"{total} prospective children in generation {n} exceed the claim cap {CLAIM_CAP}"
        )


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
    return Trajectory(sizes, outcome)


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
    owners = np.zeros(len(sizes), dtype=np.intp)
    return _step_rows(sizes, ReplicateRows(base, np.asarray(ids), n), n, (policy,), owners)


def _step_rows(
    sizes: np.ndarray, rows: ReplicateRows, n: int, policies: Sequence[PriorityPolicy], owners: np.ndarray
) -> np.ndarray:
    """``step_replicates`` of rows that each serve under ``policies[owners[i]]``.

    A block of equal-length rows keeps their order, so each run of rows with
    one owner is a C-contiguous slice of it, which that policy counts.
    """
    if np.any(sizes < 0):
        raise EngineError("negative population size")
    totals = np.zeros(len(sizes), dtype=np.int64)
    budgets = np.zeros(len(sizes), dtype=np.float64)
    parents = []
    for block, size in _equal_length_blocks(sizes):
        if size:
            totals[block] = block_totals = rows.offspring_totals(block, size)
            parents.append((block[block_totals > 0], size))
    if totals.size:
        _check_claims(int(totals.max()), n)
    # a budget is only ever compared with claims, so rows without children
    # need none, and none is read before every row's claims are known to fit
    for block, size in parents:
        budgets[block] = rows.budgets(block, size)
    served = np.zeros(len(sizes), dtype=np.int64)
    born = np.flatnonzero(totals)
    for block, total in _equal_length_blocks(totals[born]):
        block = born[block]
        claims = rows.claims(block, total)
        changes = (np.flatnonzero(np.diff(owners[block])) + 1).tolist() if len(policies) > 1 else []
        edges = [0, *changes, len(block)]
        for lo, hi in zip(edges, edges[1:]):
            mine = block[lo:hi]
            policy = policies[owners[mine[0]]]
            aux = rows.aux(mine, total) if policy.needs_aux else None
            served[mine] = policy.count_rows(claims[lo:hi], budgets[mine], aux)
    return served


def _replicate_generations(
    specs: Sequence[ProcessSpec], base: Universe, ids: np.ndarray, records: list[list[int]]
) -> Iterator[int]:
    """Steps coupled specs on the same replicate ids, one generation at a time.

    Each (spec, id) pair is one row, and every live row of a generation is
    advanced in one ``_step_rows`` pass, whichever spec it belongs to.
    ``records`` holds each row's sizes so far, spec by spec, and the run
    extends it in place; if empty, every row starts from its spec's initial
    size.  A row is live while its last size is positive and under the
    cap, which holds only for rows of the latest generation reached.  Before
    each generation the run yields the members it is about to step, so a
    caller may stop it there and later resume it from ``records``.
    """
    if not specs:
        raise EngineError("coupled runs need at least one spec")
    for spec in specs:
        if spec.laws != base.laws:
            raise EngineError("spec and universe disagree on the law triple")
        if (spec.horizon, spec.explosion_cap) != (specs[0].horizon, specs[0].explosion_cap):
            raise EngineError("coupled specs may differ only in their initial size and policy")
    m = len(ids)
    # specs that share a policy object share its owner, so their rows of
    # one length are counted in one call
    policies: list[PriorityPolicy] = []
    for spec in specs:
        if spec.policy not in policies:
            policies.append(spec.policy)
    owners = np.repeat([policies.index(spec.policy) for spec in specs], m)
    position = np.tile(np.arange(m), len(specs))
    cap = specs[0].explosion_cap
    if records:
        start = max(map(len, records)) - 1
        live = np.array([j for j, sizes in enumerate(records) if 0 < sizes[-1] < cap], dtype=np.intp)
        current = np.array([records[j][-1] for j in live.tolist()], dtype=np.int64)
    else:
        start = 0
        current = np.repeat([spec.initial_size for spec in specs], m).astype(np.int64)
        records.extend([size] for size in current.tolist())
        live = np.arange(len(records))
    for n in range(start, specs[0].horizon):
        if not live.size:
            break
        yield int(current.sum())
        rows = ReplicateRows(base, ids[position[live]], n)
        current = _step_rows(current, rows, n, policies, owners[live])
        for j, size in zip(live.tolist(), current.tolist()):
            records[j].append(size)
        going = (current > 0) & (current < cap)
        live, current = live[going], current[going]


def _trajectories(specs: Sequence[ProcessSpec], records: list[list[int]]) -> list[list[Trajectory]]:
    """Each spec's trajectories out of finished ``records``.

    How a row ended follows from its last size alone, since every spec
    starts from one or more members and under its cap.
    """
    cap = specs[0].explosion_cap
    # an outcome is frozen, so one object serves every row that ends alike
    outcomes: dict = {}
    runs = []
    for sizes in records:
        last = sizes[-1]
        if 0 < last < cap:
            key = ("alive_at_horizon", None)
        else:
            key = ("extinct" if last == 0 else "exploded", len(sizes) - 1)
        if key not in outcomes:
            outcomes[key] = Outcome(*key)
        runs.append(Trajectory(sizes, outcomes[key]))
    m = len(records) // len(specs)
    return [runs[s * m:(s + 1) * m] for s in range(len(specs))]


def simulate_replicates(spec: ProcessSpec, base: Universe, ids: Sequence[int]) -> list[Trajectory]:
    """``[simulate(spec, base.derive_replicate(i)) for i in ids]``, with all
    live replicates of a generation advanced together."""
    return simulate_coupled_replicates([spec], base, ids)[0]


def simulate_coupled_replicates(
    specs: Sequence[ProcessSpec], base: Universe, ids: Sequence[int]
) -> list[list[Trajectory]]:
    """``simulate_replicates`` of each coupled spec, all stepped in one pass.

    The specs may differ only in their initial size and policy.  Every live
    (spec, id) row of a generation is advanced together, so rows of equal
    length share one block whichever spec they belong to.
    """
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    records: list[list[int]] = []
    for _ in _replicate_generations(specs, base, ids, records):
        pass
    return _trajectories(specs, records)


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
