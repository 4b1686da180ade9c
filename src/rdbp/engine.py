"""One-generation dynamics and whole-trajectory simulation.

Generation n of size G produces t = sum of G offspring draws prospective
children and a resource budget equal to the sum of G resource draws.  The
policy then admits children against that budget, and the admitted count is
the next generation size.  All randomness is read from a universe, so
trajectories are reproducible and couplable by construction.

One pass, ``_step_rows``, steps every generation.  ``step`` hands it the
one row of a replicate, and ``simulate`` runs one replicate by calling
``step`` generation after generation.  ``step_replicates`` and
``simulate_replicates`` advance every live replicate of a generation
together; ``simulate_coupled_replicates`` also steps several coupled specs
on the same ids in that one pass.  A generation's live rows are read back
to back in length order, so rows of every length share the universe
kernel's pieces, and each run of rows of one length is a C-contiguous block
that the policies count.  A replicate therefore reaches the same sizes
alone or among others.  A batched run records them in one int64 size
table of shape (specs, ids, generations reached + 1), in which an extinct
row reads 0 from its extinction on and an exploded one -1 (unknown) after
it explodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import policies as _policies
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
#: most claim or resource cells the batched engine reads at once, as whole
#: rows; a longer row is read on its own.  A batch of short rows is always
#: nearly full, and a policy's sorted copy of it doubles it, so it is kept
#: at 2 MiB: against 2**20 cells this cut deep-growth verify's peak from 43
#: to 35 MB (the parent's 37) and left its time level (8 in-process pairs)
BLOCK_CELLS = 1 << 18
#: most prospective children one replicate may have in a generation, and
#: most founders.  Their claims (8 bytes of int64 quanta each) and what a
#: policy counts them with are the only blocks that grow with the
#: population: 2**27 claims take 1 GiB.  Every value a unit gives lies
#: below 2**36 quanta of its triple's lattice (distributions._VALUE_BITS),
#: so no claim or budget total of 2**27 members reaches 2**63.  wf
#: partitions a copy (8 bytes a claim), and sf, which also counts the
#: counterexample's rows, a copy of its negated claims (16 bytes).
#: coinflip holds its aux block (8 bytes) and, on a long row, up to four
#: boolean masks (5 bytes, measured).  So a row at the cap takes at most 24
#: bytes a claim (3 GiB).  A streamed fcfs row (one of policies._SELECT_MIN_CLAIMS
#: claims or more) holds no claim block, only one piece of the kernel at a
#: time, but the cap applies to it all the same.  The cap is far below
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
        if self.initial_size > CLAIM_CAP:
            raise ValueError(f"initial_size {self.initial_size} exceeds the claim cap {CLAIM_CAP}")
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


def step(current_size: int, universe: Universe, n: int, policy: PriorityPolicy) -> int:
    """Next generation size given the current one.  Zero is absorbing.

    The replicate is the one row of a ``_step_rows`` pass, so it steps
    exactly as it does among others in ``step_replicates``.
    """
    sizes = np.array([current_size], dtype=np.int64)
    owners = np.zeros(1, dtype=np.intp)
    return int(_step_rows(sizes, universe.generation(n), n, (policy,), owners)[0])


def _check_cap(total: int, what: str, n: int) -> None:
    """Refuse a generation whose members or claims would exceed the claim
    cap before they are read."""
    if total > CLAIM_CAP:
        raise EngineError(f"{total} {what} in generation {n} exceed the claim cap {CLAIM_CAP}")


def simulate(spec: ProcessSpec, universe: Universe) -> Trajectory:
    """Run from the initial size until extinction, the explosion cap, or the
    horizon, whichever comes first."""
    if spec.laws != universe.laws:
        raise EngineError("spec and universe disagree on the law triple")
    sizes = [spec.initial_size]
    while len(sizes) <= spec.horizon and 0 < sizes[-1] < spec.explosion_cap:
        sizes.append(step(sizes[-1], universe, len(sizes) - 1, spec.policy))
    return _trajectories(np.array([[sizes]]), spec.explosion_cap)[0][0]


def _batches(lengths: np.ndarray) -> Iterator[tuple[int, int]]:
    """(lo, hi) for consecutive runs of rows, of at most BLOCK_CELLS cells
    each unless one row alone is longer."""
    ends = lengths.cumsum()
    if ends.size and ends[-1] <= BLOCK_CELLS:  # one batch holds them all
        yield 0, ends.size
        return
    lo = 0
    while lo < len(lengths):
        before = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(ends.searchsorted(before + BLOCK_CELLS, side="right")))
        yield lo, hi
        lo = hi


def _row_runs(counts: np.ndarray, groups: np.ndarray) -> list[tuple[int, int, int, int]]:
    """``(lo, hi, start, count)`` for each longest run of rows lo..hi-1 of
    equal counts and equal ``groups``, whose cells are laid back to back
    from cell ``start``: the run is the C-contiguous block
    ``cells[start:start + (hi - lo) * count].reshape(hi - lo, count)``."""
    change = (counts[1:] != counts[:-1]) | (groups[1:] != groups[:-1])
    edges = [0, *(change.nonzero()[0] + 1).tolist(), len(counts)]
    runs = []
    start = 0
    for lo, hi, count in zip(edges, edges[1:], counts[edges[:-1]].tolist()):
        runs.append((lo, hi, start, count))
        start += (hi - lo) * count
    return runs


def step_replicates(
    sizes: np.ndarray, base: Universe, ids: np.ndarray, n: int, policy: PriorityPolicy
) -> np.ndarray:
    """Next sizes of many replicates of ``base`` from ``sizes``, in one pass.

    Entry i equals ``step(sizes[i], base.derive_replicate(ids[i]), n, policy)``:
    every budget and claim total is an exact int64 sum, so a row's count
    does not depend on the rows read with it.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    owners = np.zeros(len(sizes), dtype=np.intp)
    return _step_rows(sizes, ReplicateRows(base, np.asarray(ids), n), n, (policy,), owners)


def _step_rows(
    sizes: np.ndarray, rows: ReplicateRows, n: int, policies: Sequence[PriorityPolicy], owners: np.ndarray
) -> np.ndarray:
    """``step_replicates`` of rows that each serve under ``policies[owners[i]]``.

    The live rows are read back to back in length order, members for the
    offspring totals and budgets and prospective children for the claims,
    at most BLOCK_CELLS claim or resource cells at a time.  No row may have
    more members or children than CLAIM_CAP, which keeps its totals within
    int64.  Rows of one length keep their order, so each run of them with
    one owner is a C-contiguous block of the claims read, which that policy
    counts.  A row of at least ``policies._SELECT_MIN_CLAIMS`` children
    whose policy serves in arrival order builds no block, in whatever batch
    it would fall: ``ReplicateRows.served_in_arrival_order`` counts it as it
    reads.
    """
    order = sizes.argsort(kind="stable")
    members = sizes[order]
    if members.size and members[0] < 0:
        raise EngineError("negative population size")
    if members.size:
        _check_cap(int(members[-1]), "members", n)
    empty = members.searchsorted(0, side="right")
    order, members = order[empty:], members[empty:]
    totals = np.zeros(len(sizes), dtype=np.int64)
    totals[order] = ordered_totals = rows.offspring_totals(order, members)
    if totals.size:
        _check_cap(int(totals.max()), "prospective children", n)
    # a budget is only ever compared with claims, so rows without children
    # need none, and none is read before every row's claims are known to fit
    fertile = ordered_totals > 0
    parents, members = order[fertile], members[fertile]
    budgets = np.zeros(len(sizes), dtype=np.int64)
    for lo, hi in _batches(members):
        budgets[parents[lo:hi]] = rows.budgets(parents[lo:hi], members[lo:hi])
    served = np.zeros(len(sizes), dtype=np.int64)
    born = totals.nonzero()[0]
    born = born[totals[born].argsort(kind="stable")]
    # a long row served in arrival order builds no block, whatever batch it
    # would fall in: its claims stream through the kernel's pieces up to the
    # one the budget runs out in.  The threshold is read where policies
    # keeps it, so that lowering it there lowers it here too
    threshold = _policies._SELECT_MIN_CLAIMS
    arrival = [policy.in_arrival_order for policy in policies]
    if any(arrival) and born.size and totals[born[-1]] >= threshold:
        streams = np.array(arrival)[owners[born]] & (totals[born] >= threshold)
        for row in born[streams].tolist():
            served[row] = rows.served_in_arrival_order(row, int(totals[row]), budgets[row])
        born = born[~streams]
    children = totals[born]
    needs_aux = [policy.needs_aux for policy in policies]
    with_aux = np.array(needs_aux) if any(needs_aux) else None
    for lo, hi in _batches(children):
        block, lengths = born[lo:hi], children[lo:hi]
        mine = owners[block]
        claims = rows.claims(block, lengths)
        aux = None
        if with_aux is not None:
            # the aux words of the rows that need them, back to back in the
            # order of their runs
            aux_rows = with_aux[mine]
            aux = rows.aux(block[aux_rows], lengths[aux_rows])
        aux_start = 0
        for a, b, start, total in _row_runs(lengths, mine):
            policy = policies[mine[a]]
            shape, cells = (b - a, total), (b - a) * total
            run_aux = None
            if policy.needs_aux:
                run_aux = aux[aux_start:aux_start + cells].reshape(shape)
                aux_start += cells
            run = block[a:b]
            served[run] = policy.count_rows(claims[start:start + cells].reshape(shape), budgets[run], run_aux,
                                            rows.quantum)
        # one batch of cells at a time: free this one before the next is read
        del claims, aux
    return served


def _replicate_generations(
    specs: Sequence[ProcessSpec], base: Universe, ids: np.ndarray, columns: list[np.ndarray]
) -> Iterator[int]:
    """Steps coupled specs on the same replicate ids, one generation at a time.

    Each (spec, id) pair is one row, and every live row of a generation is
    advanced in one ``_step_rows`` pass, whichever spec it belongs to.
    ``columns`` holds one int64 array of every row's sizes, spec by spec,
    per generation reached, and the run appends to it; if empty, every row
    starts from its spec's initial size.  A row is live while its size is
    positive and under the cap.  An extinct row reads 0 from then on, and
    an exploded one -1 (unknown) after the generation it exploded in.
    Before each generation the run yields the members it is about to step,
    so a caller may stop it there and later resume it from ``columns``.
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
    if not columns:
        columns.append(np.repeat([spec.initial_size for spec in specs], m).astype(np.int64))
    live = np.flatnonzero((columns[-1] > 0) & (columns[-1] < cap))
    current = columns[-1][live]
    for n in range(len(columns) - 1, specs[0].horizon):
        if not live.size:
            break
        yield int(current.sum())
        rows = ReplicateRows(base, ids[position[live]], n)
        current = _step_rows(current, rows, n, policies, owners[live])
        sizes = np.where(columns[-1] == 0, 0, -1)
        sizes[live] = current
        columns.append(sizes)
        going = (current > 0) & (current < cap)
        live, current = live[going], current[going]


def _size_table(n_specs: int, columns: list[np.ndarray]) -> np.ndarray:
    """``columns`` of a run as one C-order (specs, ids, generations + 1) table."""
    return np.stack(columns, axis=-1).reshape(n_specs, -1, len(columns))


def _run_table(specs: Sequence[ProcessSpec], base: Universe, ids: np.ndarray) -> np.ndarray:
    """The size table of a finished run of ``_replicate_generations``."""
    columns: list[np.ndarray] = []
    for _ in _replicate_generations(specs, base, ids, columns):
        pass
    return _size_table(len(specs), columns)


def _trajectories(table: np.ndarray, cap: int) -> list[list[Trajectory]]:
    """Each spec's trajectories out of a finished size table.

    A row's record ends at its first size of 0 or at least ``cap``, or at
    the horizon if it has none, since every spec starts from one or more
    members and under its cap.
    """
    ended = (table <= 0) | (table >= cap)
    last = np.where(ended.any(axis=-1), ended.argmax(axis=-1), table.shape[-1] - 1)
    return [
        [Trajectory(row[:end + 1], Outcome("alive_at_horizon") if 0 < row[end] < cap
                    else Outcome("exploded" if row[end] else "extinct", end))
         for row, end in zip(rows, ends)]
        for rows, ends in zip(table.tolist(), last.tolist())
    ]


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
    return _trajectories(_run_table(specs, base, ids), specs[0].explosion_cap)


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
