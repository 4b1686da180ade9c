"""Monte Carlo estimation and verification harness.

Replicate i always runs on ``base_universe.derive_replicate(i)``, so every
estimate is a pure function of (spec, config) and is bit-identical across
runs and across worker counts.  Each coupled check is a ``_Check``: its
specs (founder counts, or a policy and smallest-first, on the same ids), a
reduction of their rows of each slice's int64 size table, (specs, ids,
generations reached + 1), and a ``finish`` that builds its result from the
reductions (outcome counts, generations where a policy beats
smallest-first, late growth ratios).  Any list of checks runs through one
``_per_replicate`` pass that steps each distinct spec once; ``run_coupled``
runs ``dominance``, ``safe_haven`` and ``envelope`` that way, and each
check function runs its own check alone.  ``_per_replicate`` is the one
loop over a pass's slices of ids, each run by ``engine._run_table``.
Several workers are used only for a pass that steps more than
FANOUT_MEMBERS members: the pass starts in this process, and past that
budget the ids it has not finished are split into one contiguous range per
worker, each running ``_per_replicate`` with one worker from its rows of
the table the pass had reached.  Replicates that are still alive at the
horizon are reported as their own category, never folded into either side
of an extinction estimate.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import partial
from statistics import NormalDist
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .criteria import effective_mean_sf, effective_mean_wf
from .distributions import LawTriple, OffspringLaw, Uniform
from .engine import EXPLOSION_CAP_DEFAULT, HORIZON_DEFAULT, ProcessSpec, step_replicates
from .engine import _run_table, _trajectories
from .policies import StrongestFirstPolicy, ThirdLargestFirstPolicy, policy_from_token
from .policies import count_sf  # noqa: F401  the benchmark's span tests reach it by this name
from .universe import Seed, Universe

__all__ = [
    "McConfig",
    "COUNTEREXAMPLE_TRIPLE",
    "ExtinctionEstimate",
    "GrowthEstimate",
    "SafeHavenReport",
    "SuperadditivityReport",
    "CounterexampleSearchResult",
    "CounterexampleWitness",
    "SfProbeReport",
    "InsufficientSurvivors",
    "wilson_interval",
    "estimate_extinction",
    "safe_haven_check",
    "dominance_check",
    "envelope_check",
    "run_coupled",
    "superadditivity_check",
    "counterexample_search",
    "sf_monotonicity_probe",
]


#: replicate ids simulated together; bounds the sizes held at once
REPLICATE_CHUNK = 1 << 12
#: replicate ids ``counterexample_search`` screens in one strongest-first step.
#: The first hit in id order is reported whatever the chunk; on the
#: short-lived counterexample config 2**15 peaks at 4.9 MiB of traced
#: memory against 9.3 MiB at 2**16, in about the same time
COUNTEREXAMPLE_CHUNK = 1 << 15
#: members a check with several workers steps in this process before it
#: splits the ids it has not finished among them; a check that steps fewer
#: starts no pool.  The split keeps every generation already stepped, so
#: staying in-process costs the idle workers' share of each further member,
#: while fanning out costs a fixed price.  On a 2-vCPU x86 VM a pool of one
#: forked worker took 6-8 ms to start and stop, and short-lived's safe_haven
#: (1.15e5 members) took 67 ms split in two from the start against 56 ms in
#: one process (medians of 8 interleaved runs): ~40 ms beyond the half of
#: the work it shared.  With two workers, half of each ms stepped here is
#: the rent, so the rent reaches that price (a ski-rental rule) after ~80 ms
#: of work.  The first members of a check, in short rows, took 200-550 ns
#: each when this was set; since they share the universe kernel's pieces
#: they take 170-330 ns (deep-growth safe_haven's first 2e5 members and
#: short-lived's whole safe_haven, in-process medians of 9), which puts the
#: price at 2.4e5-4.7e5 members.  Twice this value gave deep-growth the
#: same --threads 2 to --threads 1 time ratio (0.66, against 0.64-0.68 at
#: this value; scripts/threads_ab.py, 4 pairs each), so it stays.  It is
#: 1.7 times short-lived's largest check and 1/200 of deep-growth's
#: safe_haven (4.3e7)
FANOUT_MEMBERS = 2 * 10 ** 5
#: most (t, v) cells ``sf_monotonicity_probe`` reports, over every t value
#: and every count v.  A cell took about 1.7 KB of peak RSS and 170 bytes of
#: verify.json (2e5 cells: 341 MB and 34 MB; 2e6 cells: 3.0 GB and 348 MB),
#: so the bound keeps a report near 170 MB and 17 MB
SF_PROBE_CELLS = 10 ** 5


class InsufficientSurvivors(RuntimeError):
    """No trajectory reached the size threshold the check conditions on."""


@dataclass(frozen=True)
class McConfig:
    replicates: int = 2000
    horizon: int = HORIZON_DEFAULT
    explosion_cap: int = EXPLOSION_CAP_DEFAULT
    base_seed: Seed = Seed(0)
    confidence: float = 0.99

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.explosion_cap < 2:
            raise ValueError("explosion_cap must be >= 2")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")


def wilson_interval(successes: int, trials: int, confidence: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials with trials >= 1")
    z = NormalDist().inv_cdf(0.5 * (1.0 + confidence))
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    # centre and half agree analytically at the boundary counts; pin the
    # endpoints so rounding in sqrt cannot leave a stray 1e-18 residue
    lo = 0.0 if successes == 0 else max(0.0, centre - half)
    hi = 1.0 if successes == trials else min(1.0, centre + half)
    return lo, hi


@dataclass(frozen=True)
class ExtinctionEstimate:
    replicates: int
    n_extinct: int
    n_exploded: int
    n_alive_at_horizon: int
    p_extinct: float
    ci_low: float
    ci_high: float
    confidence: float


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _start_pool(workers: int):
    """A pool of ``workers`` worker processes.

    concurrent.futures is imported here, by the first check that fans out:
    its process pool and the multiprocessing modules under it took about
    20 ms of the 210-240 ms that ``import rdbp, rdbp.cli`` took, which
    every run paid and small runs never used.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _per_replicate(
    fn: Callable[[np.ndarray], Any],
    specs: Sequence[ProcessSpec],
    mc: McConfig,
    workers: int = 1,
    start: int = 0,
    count: Optional[int] = None,
    sizes: Optional[np.ndarray] = None,
) -> list:
    """``fn(table)`` for each slice of the replicate ids from ``start`` to
    ``start + count - 1``, in id order, where ``table`` holds the slice's
    sizes under each spec (see ``engine._run_table``).

    ``count`` defaults to ``mc.replicates``.  ``sizes`` resumes the first
    slice, of ``sizes.shape[1]`` ids, from the table a cut run left it.  The
    coupled specs step together, in one pass, and only one slice of sizes
    is held at a time, however many replicates the check asks for.  With
    several workers, the pass still starts in this process, and only once
    it would step more than FANOUT_MEMBERS members does it split the ids it
    has not finished into one contiguous range per worker.  Each range runs
    this function with one worker, going on from where this process left
    its rows: the first here and the others in a pool whose workers send
    back only what ``fn`` returns.  Where the slices are cut depends on
    where the ids ran, so callers combine the results in ways that do not:
    sums, or concatenations in id order of what ``fn`` reads per replicate.
    """
    stop = start + (mc.replicates if count is None else count)
    workers = max(1, min(workers, stop - start, _usable_cpus()))
    budget = FANOUT_MEMBERS if workers > 1 else math.inf
    base = Universe(mc.base_seed, specs[0].laws, 0)
    results: list = []
    members = 0
    lo = start
    while lo < stop:
        # the first slice goes on from ``sizes``, if it holds any ids
        resume = sizes if sizes is not None and sizes.size else None
        hi = min(stop, lo + REPLICATE_CHUNK) if resume is None else lo + resume.shape[1]
        sizes = None
        table, stepped = _run_table(specs, base, np.arange(lo, hi), resume, budget - members)
        members += stepped
        if members > budget:
            break
        results.append(fn(table))
        lo = hi
    if lo == stop:
        return results
    # every range is non-empty, and this process runs one of them; each
    # takes its ids' rows of the cut slice, if it has any
    workers = min(workers, stop - lo)
    edges = [lo + (stop - lo) * w // workers for w in range(workers + 1)]
    shares = [(fn, specs, mc, 1, a, b - a, table[:, a - lo:b - lo]) for a, b in zip(edges, edges[1:])]
    if workers == 1:
        return results + _per_replicate(*shares[0])
    with _start_pool(workers - 1) as pool:
        futures = [pool.submit(_per_replicate, *share) for share in shares[1:]]
        results.extend(_per_replicate(*shares[0]))
        for fut in futures:
            results.extend(fut.result())
    return results


@dataclass(frozen=True)
class _Check:
    """A coupled check: its specs, the reduction of their rows of a slice's
    size table (workers run it, so it pickles), and ``finish``, which builds
    the result from the reductions of every slice in id order."""

    specs: tuple[ProcessSpec, ...]
    reduce: Callable[[np.ndarray], Any]
    finish: Callable[[list], Any]


def _spec(triple: LawTriple, policy, initial_size: int, mc: McConfig) -> ProcessSpec:
    """A spec run to ``mc``'s horizon and explosion cap."""
    return ProcessSpec(laws=triple, policy=policy, initial_size=initial_size, horizon=mc.horizon,
                       explosion_cap=mc.explosion_cap)


def _reduce_rows(reductions: Sequence[tuple[Callable, Any]], table: np.ndarray) -> list:
    """Each (reduce, rows) pair's reduction of its rows of a size table."""
    return [reduce(table[rows]) for reduce, rows in reductions]


def _run_checks(checks: Sequence[_Check], mc: McConfig, workers: int = 1) -> list[Callable[[], Any]]:
    """Each check's ``finish`` of the reductions of every slice of its rows,
    as a function to call, from one pass that steps each distinct spec of
    the checks once."""
    specs = list(dict.fromkeys(spec for check in checks for spec in check.specs))
    reductions = []
    for check in checks:
        at = [specs.index(spec) for spec in check.specs]
        # consecutive rows are read as a view of the table, not a copy
        rows = slice(at[0], at[-1] + 1) if at == list(range(at[0], at[-1] + 1)) else at
        reductions.append((check.reduce, rows))
    slices = _per_replicate(partial(_reduce_rows, reductions), specs, mc, workers)
    return [partial(check.finish, [part[i] for part in slices]) for i, check in enumerate(checks)]


def _outcome_counts(sizes: np.ndarray, cap: int) -> np.ndarray:
    """Extinct and exploded rows of each spec of a size table, as (specs, 2)."""
    last = sizes[..., -1]
    return np.stack([(last == 0).sum(axis=-1), ((last < 0) | (last >= cap)).sum(axis=-1)], axis=-1)


def estimate_extinction(spec: ProcessSpec, mc: McConfig, workers: int = 1) -> ExtinctionEstimate:
    """Extinction frequency over mc.replicates coupled-free replicates.

    The Monte Carlo horizon and explosion cap in ``mc`` govern the runs;
    worker count only partitions the replicate ids, never the outcome.
    """
    eff = replace(spec, horizon=mc.horizon, explosion_cap=mc.explosion_cap)
    check = _Check((eff,), partial(_outcome_counts, cap=mc.explosion_cap), lambda parts: _estimates(parts, mc)[0])
    return _run_checks([check], mc, workers)[0]()


def _estimates(parts: list, mc: McConfig) -> list[ExtinctionEstimate]:
    """Each spec's estimate from the ``_outcome_counts`` of every slice."""
    return [_extinction_estimate(extinct, exploded, mc) for extinct, exploded in np.sum(parts, axis=0).tolist()]


def _extinction_estimate(extinct: int, exploded: int, mc: McConfig) -> ExtinctionEstimate:
    alive = mc.replicates - extinct - exploded
    lo, hi = wilson_interval(extinct, mc.replicates, mc.confidence)
    return ExtinctionEstimate(
        replicates=mc.replicates,
        n_extinct=extinct,
        n_exploded=exploded,
        n_alive_at_horizon=alive,
        p_extinct=extinct / mc.replicates,
        ci_low=lo,
        ci_high=hi,
        confidence=mc.confidence,
    )


@dataclass(frozen=True)
class SafeHavenRow:
    initial_size: int
    estimate: ExtinctionEstimate
    power_bound: float
    within_bound: bool


@dataclass(frozen=True)
class SafeHavenReport:
    rows: tuple[SafeHavenRow, ...]
    monotone_nonincreasing: bool
    baseline: ExtinctionEstimate


def safe_haven_check(
    triple: LawTriple, initial_sizes: Sequence[int], mc: McConfig, workers: int = 1
) -> SafeHavenReport:
    """Smallest-first extinction versus founding size.

    Checks that the estimated extinction probability from L founders never
    significantly exceeds the L-th power of the single-founder estimate
    (lower confidence limit against the powered upper limit), and that the
    point estimates are non-increasing in L.
    """
    return _run_checks([_safe_haven(triple, initial_sizes, mc)], mc, workers)[0]()


def _increasing(values: Sequence[int], what: str) -> None:
    """Refuses ``values`` unless each exceeds the one before it: a check
    compares each value's result with the one before it."""
    for a, b in zip(values, values[1:]):
        if b <= a:
            raise ValueError(f"{what} must increase, but {b} follows {a}")


def _safe_haven(triple: LawTriple, initial_sizes: Sequence[int], mc: McConfig) -> _Check:
    _increasing(initial_sizes, "initial sizes")
    # a population founded at the explosion cap has exploded before its first
    # generation, so those founder counts are tallied without simulating
    founders = sorted(f for f in {1, *initial_sizes} if f < mc.explosion_cap)

    def finish(parts: list) -> SafeHavenReport:
        # every founder count runs on the same replicate ids: the coupling
        # that makes the estimates monotone in the founder count
        estimates = dict(zip(founders, _estimates(parts, mc)))
        exploded = _extinction_estimate(0, mc.replicates, mc)
        baseline = estimates[1]
        rows = []
        for initial in initial_sizes:
            est = estimates.get(initial, exploded)
            bound = baseline.ci_high ** initial
            rows.append(SafeHavenRow(initial_size=int(initial), estimate=est, power_bound=bound,
                                     within_bound=est.ci_low <= bound))
        mono = all(b.estimate.p_extinct <= a.estimate.p_extinct for a, b in zip(rows, rows[1:]))
        return SafeHavenReport(rows=tuple(rows), monotone_nonincreasing=mono, baseline=baseline)

    # the shared smallest-first policy: each block of equal-length rows is
    # counted in one call whatever founder counts its rows start from
    specs = tuple(_spec(triple, policy_from_token("wf"), initial, mc) for initial in founders)
    return _Check(specs, partial(_outcome_counts, cap=mc.explosion_cap), finish)


def _excess_generations(sizes: np.ndarray) -> int:
    """Generations where both sizes are known and the first spec's is the
    larger; an unknown size reads -1, and an extinct one 0."""
    got, ref = sizes
    return int(((got > ref) & (ref >= 0)).sum())


def dominance_check(
    policy, triple: LawTriple, mc: McConfig, initial_size: int = 1, workers: int = 1
) -> int:
    """Generation-by-generation count of policy sizes exceeding the coupled
    smallest-first sizes.  The theory says the count is exactly zero."""
    return _run_checks([_dominance(policy, triple, mc, initial_size)], mc, workers)[0]()


def _dominance(policy, triple: LawTriple, mc: McConfig, initial_size: int) -> _Check:
    specs = (_spec(triple, policy, initial_size, mc), _spec(triple, policy_from_token("wf"), initial_size, mc))
    return _Check(specs, _excess_generations, sum)


def _late_ratios(sizes: np.ndarray, min_size: int) -> tuple[np.ndarray, int]:
    """Growth ratios out of the generations of at least ``min_size`` members,
    replicate by replicate, and the number of replicates they come from."""
    before, after = sizes[..., :-1], sizes[..., 1:]
    # an exploded row's next size is unknown, and an extinct one never
    # grows again
    picked = (before >= max(min_size, 1)) & (after >= 0)
    return after[picked] / before[picked], int(picked.any(axis=-1).sum())


@dataclass(frozen=True)
class GrowthEstimate:
    mean_ratio: float
    dispersion: float
    n_ratios: int
    n_trajectories: int
    band_low: float
    band_high: float
    fraction_in_band: float
    slack: float


def envelope_check(policy, triple: LawTriple, mc: McConfig, *, workers: int = 1, **params) -> GrowthEstimate:
    """Late growth ratios against the effective-mean envelope.

    Collects size ratios from generations at or above ``min_size`` and
    reports how they sit inside [largest-first effective mean - slack,
    smallest-first effective mean + slack].  Raises InsufficientSurvivors
    when no replicate grows that large.  ``params`` are ``min_size``,
    ``slack`` and ``initial_size``, by name, with ``_envelope``'s defaults,
    which ``run_coupled`` reads too.
    """
    return _run_checks([_envelope(policy, triple, mc, **params)], mc, workers)[0]()


def _envelope(policy, triple: LawTriple, mc: McConfig, min_size: int = 10 ** 4, slack: float = 0.05,
              initial_size: int = 1) -> _Check:
    m = triple.offspring.mean()
    r = triple.resource.mean()
    band_low = effective_mean_sf(triple.claim, r, m)
    band_high = effective_mean_wf(triple.claim, r, m)

    def finish(parts: list) -> GrowthEstimate:
        # slices and their rows in id order: the order of the ratios fixes
        # the rounding of their mean
        arr = np.concatenate([ratios for ratios, _ in parts])
        if not arr.size:
            raise InsufficientSurvivors(f"no replicate reached size {min_size}")
        inside = (arr >= band_low - slack) & (arr <= band_high + slack)
        return GrowthEstimate(
            mean_ratio=float(arr.mean()),
            dispersion=float(arr.std()),
            n_ratios=int(arr.size),
            n_trajectories=sum(contributing for _, contributing in parts),
            band_low=band_low,
            band_high=band_high,
            fraction_in_band=float(inside.mean()),
            slack=slack,
        )

    return _Check((_spec(triple, policy, initial_size, mc),), partial(_late_ratios, min_size=min_size), finish)


#: the checks ``run_coupled`` runs together, by name
_COUPLED = {"dominance": _dominance, "safe_haven": _safe_haven, "envelope": _envelope}


def run_coupled(calls: dict[str, dict], mc: McConfig, workers: int = 1) -> dict[str, Callable[[], Any]]:
    """The calls of ``dominance``, ``safe_haven`` and ``envelope`` among
    ``calls`` (each check's arguments but ``mc`` and ``workers``, by name)
    run in one pass that steps each distinct spec once.  Returns, by name,
    a function for each that returns (or raises) what its function would."""
    coupled = [name for name in calls if name in _COUPLED]
    if not coupled:
        return {}
    return dict(zip(coupled, _run_checks([_COUPLED[name](mc=mc, **calls[name]) for name in coupled], mc, workers)))


@dataclass(frozen=True)
class SuperadditivityReport:
    generation: int
    initial_size: int
    d_plus: float
    d_plus_threshold: float
    fosd_ok: bool
    p_zero_joint: float
    p_zero_joint_ci_low: float
    p_zero_single_powered: float
    zero_column_ok: bool
    alpha: float

    @property
    def ok(self) -> bool:
        return self.fosd_ok and self.zero_column_ok


def _sizes_at(sizes: np.ndarray, n: int) -> np.ndarray:
    """Each row's size at generation ``n`` of a finished size table: 0 once
    extinct, -1 where unknown."""
    if n < sizes.shape[-1]:
        return sizes[..., n]
    return np.where(sizes[..., -1] == 0, 0, -1)


def superadditivity_check(
    triple: LawTriple,
    initial_size: int,
    n_gens: int,
    mc: McConfig,
    alpha: float = 1e-3,
    workers: int = 1,
) -> SuperadditivityReport:
    """Smallest-first from L founders versus the sum of L single-founder copies.

    The joint process should be stochastically at least as large as the
    independent sum; empirically its CDF must not sit above the sum's CDF by
    more than a one-sided two-sample bound at level alpha.  The mass at zero
    is compared against the powered single-founder estimate directly.
    """
    if initial_size < 1:
        raise ValueError("initial_size must be >= 1")
    runs = replace(mc, horizon=n_gens, explosion_cap=max(mc.explosion_cap, 10 ** 9))
    joint_spec = _spec(triple, policy_from_token("wf"), initial_size, runs)
    single_spec = _spec(triple, policy_from_token("wf"), 1, runs)
    n_rep = mc.replicates

    # the cap lies above CLAIM_CAP, which bounds every size, so no row
    # explodes and every size at n_gens is known
    final_size = partial(_sizes_at, n=n_gens)
    joint_vals = np.concatenate(_per_replicate(final_size, [joint_spec], mc, workers), axis=-1)[0]
    # the independent copies run on the replicate ids after the joint ones
    copies = _per_replicate(final_size, [single_spec], mc, workers, start=n_rep, count=n_rep * initial_size)
    copy_vals = np.concatenate(copies, axis=-1)[0]
    sum_vals = copy_vals.reshape(n_rep, initial_size).sum(axis=1)

    joint_sorted = np.sort(joint_vals)
    sum_sorted = np.sort(sum_vals)
    grid = np.unique(np.concatenate([joint_sorted, sum_sorted]))
    cdf_joint = np.searchsorted(joint_sorted, grid, side="right") / n_rep
    cdf_sum = np.searchsorted(sum_sorted, grid, side="right") / n_rep
    d_plus = float(np.max(cdf_joint - cdf_sum))
    threshold = math.sqrt(math.log(1.0 / alpha) / 2.0) * math.sqrt(2.0 / n_rep)

    zeros_joint = int(np.sum(joint_vals == 0))
    zeros_copies = int(np.sum(copy_vals == 0))
    joint_lo, _ = wilson_interval(zeros_joint, n_rep, mc.confidence)
    _, copy_hi = wilson_interval(zeros_copies, n_rep * initial_size, mc.confidence)
    powered = copy_hi ** initial_size

    return SuperadditivityReport(
        generation=n_gens,
        initial_size=initial_size,
        d_plus=d_plus,
        d_plus_threshold=threshold,
        fosd_ok=d_plus <= threshold,
        p_zero_joint=zeros_joint / n_rep,
        p_zero_joint_ci_low=joint_lo,
        p_zero_single_powered=powered,
        zero_column_ok=joint_lo <= powered,
        alpha=alpha,
    )


# Reference laws for the search below: half the time three children arrive,
# their claims can dwarf a resource unit, and three light claims still fit
# one.  Witnesses are rare and the seed decides where the first one lands:
# replicate 118357 from base seed 0, and replicate 1209997, past the default
# budget of 10**6, from seed 3.
COUNTEREXAMPLE_TRIPLE = LawTriple(
    offspring=OffspringLaw((0.5, 0.0, 0.0, 0.5)),
    claim=Uniform(0.0, 2.0),
    resource=Uniform(0.0, 1.0),
)


@dataclass(frozen=True)
class CounterexampleWitness:
    replicate_id: int
    seed_value: int
    policy_sizes: tuple[int, ...]
    sf_sizes: tuple[int, ...]


@dataclass(frozen=True)
class CounterexampleSearchResult:
    found: bool
    scanned: int
    witness: Optional[CounterexampleWitness] = None


def _counterexample_feasibility(triple: LawTriple) -> None:
    probs = triple.offspring.probabilities
    p3 = probs[3] if len(probs) > 3 else 0.0
    if p3 <= 0.0:
        raise ValueError("counterexample search needs P[offspring = 3] > 0")
    if not triple.claim.is_continuous:
        raise ValueError("counterexample search needs a continuous claim law")
    if not (triple.claim.support_upper > 2.0 * triple.resource.support_lower):
        raise ValueError(
            "counterexample search needs claims able to exceed two resource units "
            f"(claim upper {triple.claim.support_upper:g} vs 2 * resource lower "
            f"{2.0 * triple.resource.support_lower:g})"
        )
    if not (3.0 * triple.claim.support_lower < triple.resource.support_upper):
        raise ValueError("counterexample search needs three small claims to fit one resource unit")


def counterexample_search(
    triple: LawTriple,
    mc: McConfig,
    budget: int = 10 ** 6,
) -> CounterexampleSearchResult:
    """Scan replicates for a universe where the third-largest-first policy
    dies by generation 2 while coupled strongest-first is still alive.

    One strongest-first step of every replicate from one founder discards
    those whose strongest-first line is already dead after one generation
    (a necessary condition for any witness); survivors get a full coupled
    two-generation run through the engine, and the first hit in replicate
    order is reported.
    """
    _counterexample_feasibility(triple)
    base = Universe(mc.base_seed, triple, 0)
    policy_spec = ProcessSpec(
        laws=triple, policy=ThirdLargestFirstPolicy(), initial_size=1, horizon=2
    )
    sf_spec = ProcessSpec(laws=triple, policy=StrongestFirstPolicy(), initial_size=1, horizon=2)

    scanned = 0
    for start in range(0, budget, COUNTEREXAMPLE_CHUNK):
        ids = np.arange(start, min(budget, start + COUNTEREXAMPLE_CHUNK), dtype=np.int64)
        scanned = int(ids[-1]) + 1
        candidates = ids[step_replicates(np.ones(len(ids), dtype=np.int64), base, ids, 0, sf_spec.policy) > 0]
        table = _run_table([policy_spec, sf_spec], base, candidates)[0]
        got, ref = _sizes_at(table, 2)
        hits = np.flatnonzero((got == 0) & (ref > 0))
        if hits.size:
            i = int(candidates[hits[0]])
            (got_run,), (ref_run,) = _trajectories(table[:, hits[:1]], policy_spec.explosion_cap)
            return CounterexampleSearchResult(
                found=True,
                scanned=i + 1,
                witness=CounterexampleWitness(
                    replicate_id=i,
                    seed_value=mc.base_seed.value,
                    policy_sizes=tuple(got_run.sizes),
                    sf_sizes=tuple(ref_run.sizes),
                ),
            )
    return CounterexampleSearchResult(found=False, scanned=scanned)


@dataclass(frozen=True)
class SfProbeCell:
    t: int
    v: int
    rate: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class SfProbeReport:
    """Exploratory only: no verdict is drawn from this probe."""

    t_values: tuple[int, ...]
    v_values: tuple[int, ...]
    cells: tuple[SfProbeCell, ...]
    violations: tuple[tuple[int, int, int], ...]  # (t_from, t_to, v) significant decreases
    exploratory: bool = True


def _probe_cells(t_count: int, top: int, what: str) -> None:
    """Refuses a probe of more than SF_PROBE_CELLS cells before any is built."""
    if t_count * top > SF_PROBE_CELLS:
        raise ValueError(f"{what} over {t_count} t values makes {t_count * top} cells, "
                         f"more than SF_PROBE_CELLS = {SF_PROBE_CELLS}; lower v_max or the t values")


def sf_monotonicity_probe(
    triple: LawTriple,
    t_values: Sequence[int],
    mc: McConfig,
    v_max: Optional[int] = None,
) -> SfProbeReport:
    """Estimates P[largest-first count >= v] as the parent count t grows.

    Whether these survival rates increase with t is an open structural
    question, so the report only flags statistically significant decreases
    and never turns them into a pass or fail.
    """
    t_values = tuple(int(t) for t in t_values)
    if any(t < 1 for t in t_values):
        raise ValueError("t values must be >= 1")
    _increasing(t_values, "t values")
    if v_max is not None:
        _probe_cells(len(t_values), v_max, f"v_max {v_max}")
    base = Universe(mc.base_seed, triple, 0)
    # how many replicates serve each count, per t, summed over slices of
    # REPLICATE_CHUNK ids, so that no size outlives its slice
    tallies = {t: np.zeros(1, dtype=np.int64) for t in t_values}
    for lo in range(0, mc.replicates, REPLICATE_CHUNK):
        ids = np.arange(lo, min(mc.replicates, lo + REPLICATE_CHUNK))
        for t in t_values:
            # generation row t keeps the draws for different t disjoint
            served = step_replicates(np.full(len(ids), t), base, ids, t, StrongestFirstPolicy())
            tally = np.bincount(served, minlength=tallies[t].size)
            tally[:tallies[t].size] += tallies[t]
            tallies[t] = tally

    if v_max is None:
        v_max = max([1, *(tally.size - 1 for tally in tallies.values())])
        _probe_cells(len(t_values), v_max, f"the largest count served, {v_max},")
    v_values = tuple(range(1, v_max + 1))

    cells: dict[tuple[int, int], SfProbeCell] = {}
    for t in t_values:
        for v in v_values:
            hits = int(tallies[t][v:].sum())
            lo, hi = wilson_interval(hits, mc.replicates, mc.confidence)
            cells[t, v] = SfProbeCell(t=t, v=v, rate=hits / mc.replicates, ci_low=lo, ci_high=hi)
    violations = tuple((a, b, v) for a, b in zip(t_values, t_values[1:]) for v in v_values
                       if cells[b, v].ci_high < cells[a, v].ci_low)
    return SfProbeReport(t_values=t_values, v_values=v_values, cells=tuple(cells.values()), violations=violations)
