"""Batched engine against the per-replicate reference.

``simulate_replicates``, ``simulate_coupled_replicates`` and
``step_replicates`` must reproduce the reference ``simulate`` and ``step``
of tests/oracle.py bit for bit: the same sizes, outcomes and growth ratios
for every replicate, whatever the policy or law kinds.  Founder counts of 9 and
130 give rows of many lengths, read together in one pass.
"""

import dataclasses
import json
import math
import os
from concurrent.futures import Future
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdbp.cli
import rdbp.config
import rdbp.engine
import rdbp.montecarlo
import rdbp.policies
from rdbp import (
    COUNTEREXAMPLE_TRIPLE,
    POLICY_TOKENS,
    CoinFlipPolicy,
    Constant,
    CustomPolicy,
    EngineError,
    Exponential,
    LawTriple,
    McConfig,
    OffspringLaw,
    ProcessSpec,
    ScaledBeta,
    Seed,
    Uniform,
    Universe,
    dominance_check,
    envelope_check,
    estimate_extinction,
    policy_from_token,
    safe_haven_check,
    simulate,
    simulate_coupled_replicates,
    simulate_replicates,
    step_replicates,
    superadditivity_check,
)
from rdbp.policies import StrongestFirstPolicy, WeakestFirstPolicy

import oracle
from oracle import ReferencePolicy

TRIPLES = {
    # a zero inside the offspring law
    "uniform-constant": LawTriple(OffspringLaw((0.25, 0.0, 0.75)), Uniform(0.0, 2.0), Constant(1.2)),
    # a zero at the end of the offspring law
    "beta-uniform": LawTriple(
        OffspringLaw((0.3, 0.3, 0.4, 0.0)), ScaledBeta(2.0, 2.0, 2.0), Uniform(0.0, 1.5)
    ),
    "exponential-uniform": LawTriple(
        OffspringLaw((0.5, 0.0, 0.0, 0.5)), Exponential(1.5), Uniform(0.2, 1.0)
    ),
    # equal claims: every order ties
    "constant-constant": LawTriple(OffspringLaw((0.2, 0.3, 0.5)), Constant(0.5), Constant(0.9)),
}

POLICIES = [policy_from_token(token) for token in POLICY_TOKENS] + [
    CustomPolicy(lambda claims: np.arange(len(claims))[::-1], name="reverse-arrival")
]


def _reference(spec, base, ids):
    return [oracle.simulate(spec, base.derive_replicate(int(i))) for i in ids]


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
@pytest.mark.parametrize("triple", TRIPLES.values(), ids=TRIPLES.keys())
@pytest.mark.parametrize("initial_size", [1, 9, 130])
def test_simulate_replicates_matches_simulate(triple, policy, initial_size):
    spec = ProcessSpec(laws=triple, policy=policy, initial_size=initial_size,
                       horizon=8, explosion_cap=400)
    base = Universe(Seed(31), triple)
    ids = range(3, 3 + (40 if initial_size == 1 else 12))
    assert simulate_replicates(spec, base, ids) == _reference(spec, base, ids)


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
def test_step_replicates_matches_step(policy):
    triple = TRIPLES["beta-uniform"]
    base = Universe(Seed(5), triple)
    sizes = np.array([0, 1, 7, 8, 9, 127, 128, 129, 300, 9, 8, 1, 0, 300])
    ids = np.arange(100, 100 + len(sizes))
    for n in (0, 3):
        want = [oracle.step(int(s), base.derive_replicate(int(i)), n, policy) for s, i in zip(sizes, ids)]
        assert step_replicates(sizes, base, ids, n, policy).tolist() == want


@pytest.mark.parametrize("initial_size", [1, 130, 30000])
def test_coinflip_runs_like_the_reference(initial_size):
    # the short-lived laws; from 30000 founders every generation ranks
    # thousands of aux words through the default argsort
    fast, ref = (
        ProcessSpec(laws=COUNTEREXAMPLE_TRIPLE, policy=policy, initial_size=initial_size,
                    explosion_cap=10 ** 6)
        for policy in (CoinFlipPolicy(), ReferencePolicy("coinflip"))
    )
    base = Universe(Seed(101), COUNTEREXAMPLE_TRIPLE)
    ids = range(60) if initial_size == 1 else range(4)
    assert simulate(fast, base) == simulate(ref, base)
    assert simulate_replicates(fast, base, ids) == simulate_replicates(ref, base, ids)


@pytest.mark.parametrize("token", POLICY_TOKENS)
@pytest.mark.parametrize("name", ["uniform-constant", "beta-uniform", "exponential-uniform"])
def test_long_row_counts_run_like_the_reference(monkeypatch, name, token):
    # rows of 16 claims or more take the long-row counts, from samples of
    # 8, and fcfs streams them; every trajectory equals the one counted
    # through the full sort and cumsum
    monkeypatch.setattr(rdbp.policies, "_SELECT_MIN_CLAIMS", 16)
    monkeypatch.setattr(rdbp.policies, "_SAMPLE", 8)
    triple = TRIPLES[name]
    fast, ref = (
        ProcessSpec(laws=triple, policy=policy, initial_size=40, horizon=10, explosion_cap=3000)
        for policy in (policy_from_token(token), ReferencePolicy(token))
    )
    base = Universe(Seed(17), triple)
    ids = range(12)
    want = simulate_replicates(ref, base, ids)
    assert max(max(traj.sizes) for traj in want) >= 40  # rows of 40+ claims
    assert simulate_replicates(fast, base, ids) == want
    assert [simulate(fast, base.derive_replicate(i)) for i in ids] == want


def test_wf_windows_on_deep_growth_are_pinned(monkeypatch):
    # the deep-growth laws from 6000 founders, at the real thresholds: every
    # wf row holds 8192 claims or more.  A weaker estimate shows up as a
    # wider window, or as more windows than rows
    rows, windows = [], []
    selected, window = rdbp.policies._selected_count, rdbp.policies._window_count

    def counted_selection(row, *args):
        rows.append(row.size)
        return selected(row, *args)

    def counted_window(keys, sign, budget, lo, hi):
        windows.append((hi - lo) / keys.size)
        return window(keys, sign, budget, lo, hi)

    monkeypatch.setattr(rdbp.policies, "_selected_count", counted_selection)
    monkeypatch.setattr(rdbp.policies, "_window_count", counted_window)
    triple = TRIPLES["uniform-constant"]
    base = Universe(Seed(1), triple)
    fast, ref = (ProcessSpec(laws=triple, policy=policy, initial_size=6000, horizon=6, explosion_cap=10 ** 5)
                 for policy in (WeakestFirstPolicy(), ReferencePolicy("wf")))
    assert simulate_replicates(fast, base, range(20)) == simulate_replicates(ref, base, range(20))
    assert len(rows) == len(windows) == 120 and min(rows) >= 8192
    assert max(windows) < 0.1


def test_small_blocks_split_without_changing_results(monkeypatch):
    # rows longer than the block limit are read alone, shorter runs in pieces
    monkeypatch.setattr(rdbp.engine, "BLOCK_CELLS", 16)
    triple = TRIPLES["uniform-constant"]
    spec = ProcessSpec(laws=triple, policy=WeakestFirstPolicy(), initial_size=5,
                       horizon=10, explosion_cap=300)
    base = Universe(Seed(8), triple)
    ids = range(50)
    assert simulate_replicates(spec, base, ids) == _reference(spec, base, ids)


def test_replicate_ids_need_not_be_contiguous():
    triple = TRIPLES["exponential-uniform"]
    spec = ProcessSpec(laws=triple, policy=StrongestFirstPolicy(), horizon=6)
    base = Universe(Seed(2), triple)
    ids = np.array([900, 4, 4, 77])
    assert simulate_replicates(spec, base, ids) == _reference(spec, base, ids)


def test_empty_id_list():
    triple = TRIPLES["uniform-constant"]
    spec = ProcessSpec(laws=triple, policy=WeakestFirstPolicy())
    assert simulate_replicates(spec, Universe(Seed(0), triple), []) == []


def test_law_mismatch_rejected():
    spec = ProcessSpec(laws=TRIPLES["uniform-constant"], policy=WeakestFirstPolicy())
    with pytest.raises(EngineError):
        simulate_replicates(spec, Universe(Seed(0), TRIPLES["beta-uniform"]), [0])


def test_negative_size_rejected():
    base = Universe(Seed(0), TRIPLES["uniform-constant"])
    with pytest.raises(EngineError):
        step_replicates(np.array([1, -1]), base, np.arange(2), 0, WeakestFirstPolicy())


def test_replicate_chunks_are_invisible(monkeypatch):
    triple = TRIPLES["uniform-constant"]
    mc = McConfig(replicates=45, horizon=20, explosion_cap=800, base_seed=Seed(13))
    whole = safe_haven_check(triple, (1, 3), mc), dominance_check(StrongestFirstPolicy(), triple, mc)
    monkeypatch.setattr(rdbp.montecarlo, "REPLICATE_CHUNK", 7)
    assert (safe_haven_check(triple, (1, 3), mc),
            dominance_check(StrongestFirstPolicy(), triple, mc)) == whole


def _runs(specs, mc, workers=1, **kwargs):
    """Each spec's trajectories, read out of every slice's size table that
    ``_per_replicate`` hands its function."""
    to_runs = partial(rdbp.engine._trajectories, cap=specs[0].explosion_cap)
    parts = rdbp.montecarlo._per_replicate(to_runs, specs, mc, workers, **kwargs)
    return [sum((part[s] for part in parts), []) for s in range(len(specs))]


@settings(max_examples=40, deadline=None)
@given(
    triple=st.sampled_from(sorted(TRIPLES)),
    coupled=st.lists(
        st.tuples(st.integers(1, 130), st.sampled_from(POLICIES)), min_size=1, max_size=4
    ),
    seed=st.integers(0, 2 ** 64 - 1),
    first=st.integers(0, 10 ** 6),
    count=st.integers(0, 9),
    small=st.booleans(),
)
def test_coupled_specs_step_together_as_if_alone(triple, coupled, seed, first, count, small):
    # specs that share a policy object, or put one policy between two runs
    # of another, all step in the same pass
    laws = TRIPLES[triple]
    specs = [ProcessSpec(laws=laws, policy=policy, initial_size=initial, horizon=6, explosion_cap=400)
             for initial, policy in coupled]
    base = Universe(Seed(seed), laws)
    ids = range(first, first + count)
    want = [_reference(spec, base, ids) for spec in specs]
    mc = McConfig(horizon=6, explosion_cap=400, base_seed=Seed(seed))
    # small: batches of 16 cells, fcfs rows of 16 claims or more streamed,
    # and slices of 3 ids
    with mock.patch.object(rdbp.engine, "BLOCK_CELLS", 16 if small else rdbp.engine.BLOCK_CELLS), \
            mock.patch.object(rdbp.policies, "_SELECT_MIN_CLAIMS", 16 if small else rdbp.policies._SELECT_MIN_CLAIMS), \
            mock.patch.object(rdbp.montecarlo, "REPLICATE_CHUNK", 3 if small else rdbp.montecarlo.REPLICATE_CHUNK):
        assert simulate_coupled_replicates(specs, base, ids) == want
        assert _runs(specs, mc, start=first, count=count) == want


def test_coupled_specs_must_share_horizon_and_cap():
    triple = TRIPLES["uniform-constant"]
    base = Universe(Seed(0), triple)
    spec = ProcessSpec(laws=triple, policy=WeakestFirstPolicy(), horizon=5)
    for other in (ProcessSpec(laws=triple, policy=WeakestFirstPolicy(), horizon=6),
                  ProcessSpec(laws=triple, policy=WeakestFirstPolicy(), horizon=5, explosion_cap=99)):
        with pytest.raises(EngineError):
            simulate_coupled_replicates([spec, other], base, [0])
    with pytest.raises(EngineError):
        simulate_coupled_replicates([], base, [0])


class TestWorkerSplitIsInvisible:
    triple = TRIPLES["uniform-constant"]
    mc = McConfig(replicates=45, horizon=20, explosion_cap=800, base_seed=Seed(13))

    @pytest.fixture(autouse=True)
    def fan_out_at_once(self, monkeypatch):
        # these checks are far too small to start a pool by themselves
        monkeypatch.setattr(rdbp.montecarlo, "FANOUT_MEMBERS", 0)

    def test_dominance(self):
        policy = StrongestFirstPolicy()
        serial = dominance_check(policy, self.triple, self.mc, workers=1)
        assert serial == dominance_check(policy, self.triple, self.mc, workers=2)

    def test_safe_haven(self):
        serial = safe_haven_check(self.triple, (1, 3), self.mc, workers=1)
        assert serial == safe_haven_check(self.triple, (1, 3), self.mc, workers=2)

    def test_estimate_extinction_more_workers_than_replicates(self):
        spec = ProcessSpec(laws=self.triple, policy=WeakestFirstPolicy())
        mc = McConfig(replicates=3, horizon=20, explosion_cap=800, base_seed=Seed(13))
        assert estimate_extinction(spec, mc, workers=1) == estimate_extinction(spec, mc, workers=5)

    def test_envelope_and_superadditivity(self):
        def checks(workers):
            return (envelope_check(WeakestFirstPolicy(), self.triple, self.mc, min_size=1, workers=workers),
                    superadditivity_check(self.triple, 2, 4, self.mc, workers=workers))
        serial = checks(1)
        assert checks(2) == serial
        assert checks(5) == serial


class _InlinePool:
    """Stands in for the worker pool that ``_start_pool`` starts: records the
    pool size asked for and the id range of every submitted call, and runs
    each in this process."""

    sizes: list = []
    ranges: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        start, count = args[4:6]
        self.ranges.append((start, start + count))
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(_InlinePool, "ranges", [])
    monkeypatch.setattr(rdbp.montecarlo, "_start_pool", _InlinePool)
    return _InlinePool


@pytest.mark.parametrize("workers, replicates, pools", [(64, 3, [2]), (2, 3, [1]), (3, 7, [2]), (8, 1, [])])
def test_pool_size_is_the_number_of_nonempty_ranges(monkeypatch, inline_pool, workers, replicates, pools):
    triple = TRIPLES["uniform-constant"]
    spec = ProcessSpec(laws=triple, policy=WeakestFirstPolicy())
    mc = McConfig(replicates=replicates, horizon=20, explosion_cap=800, base_seed=Seed(13))
    serial = estimate_extinction(spec, mc, workers=1)
    # every id goes out at once, and enough CPUs that only the ids bound the
    # pool, on any machine
    monkeypatch.setattr(rdbp.montecarlo, "FANOUT_MEMBERS", 0)
    monkeypatch.setattr(rdbp.montecarlo, "_usable_cpus", lambda: 64)
    assert estimate_extinction(spec, mc, workers=workers) == serial
    # this process runs the first non-empty range and the pool the others
    assert inline_pool.sizes == pools
    n = min(workers, replicates)
    edges = [replicates * w // n for w in range(n + 1)]
    assert inline_pool.ranges == (list(zip(edges, edges[1:]))[1:] if pools else [])


@pytest.mark.parametrize("cpus", [1, 3, None])
def test_pool_never_outgrows_the_usable_cpus(monkeypatch, inline_pool, cpus):
    # 5000 workers asked for; the stub runs them all in this process
    spec = ProcessSpec(laws=TRIPLES["uniform-constant"], policy=WeakestFirstPolicy())
    mc = McConfig(replicates=40, horizon=20, explosion_cap=800, base_seed=Seed(14))
    serial = estimate_extinction(spec, mc, workers=1)
    monkeypatch.setattr(rdbp.montecarlo, "FANOUT_MEMBERS", 0)
    if cpus is None:  # this machine's own count
        usable = rdbp.montecarlo._usable_cpus()
        assert 1 <= usable <= (os.cpu_count() or 1)
    else:
        usable = cpus
        monkeypatch.setattr(rdbp.montecarlo, "_usable_cpus", lambda: cpus)
    assert estimate_extinction(spec, mc, workers=5000) == serial
    # the pool and this process together run on no more than the usable CPUs
    assert inline_pool.sizes == ([] if usable == 1 else [min(usable, 40) - 1])


class TestFanOut:
    triple = TRIPLES["uniform-constant"]
    mc = McConfig(replicates=45, horizon=20, explosion_cap=800, base_seed=Seed(13))

    def specs(self):
        return [ProcessSpec(laws=self.triple, policy=policy, initial_size=initial, horizon=20,
                            explosion_cap=800)
                for initial, policy in ((1, WeakestFirstPolicy()), (3, StrongestFirstPolicy()))]

    def run(self, workers):
        return _runs(self.specs(), self.mc, workers)

    @pytest.mark.parametrize("cpus", [2, 3, 64])
    # the slices of 7 ids step 79, 2895, 1624, 84, 1233, 303 and 37 members:
    # the budget cuts the first, first, second and last of them
    @pytest.mark.parametrize("fanout, cut", [(0, 0), (40, 0), (500, 7), (6230, 42)])
    def test_ranges_after_the_budget_match_the_serial_run(self, monkeypatch, inline_pool, fanout, cut, cpus):
        serial = self.run(1)
        monkeypatch.setattr(rdbp.montecarlo, "REPLICATE_CHUNK", 7)
        monkeypatch.setattr(rdbp.montecarlo, "FANOUT_MEMBERS", fanout)
        monkeypatch.setattr(rdbp.montecarlo, "_usable_cpus", lambda: cpus)
        assert self.run(8) == serial
        # the ids from the cut slice on go out as one contiguous range per
        # worker, and this process keeps the first
        workers = min(8, cpus, 45 - cut)
        edges = [cut + (45 - cut) * w // workers for w in range(workers + 1)]
        assert inline_pool.ranges == list(zip(edges, edges[1:]))[1:]
        assert inline_pool.sizes == [workers - 1]

    @pytest.mark.parametrize("fanout", [0, 40, 500, 6230])
    def test_no_generation_is_stepped_twice(self, monkeypatch, inline_pool, fanout):
        stepped = []
        step_rows = rdbp.engine._step_rows

        def counting(sizes, *args):
            stepped.append(int(sizes.sum()))
            return step_rows(sizes, *args)

        monkeypatch.setattr(rdbp.engine, "_step_rows", counting)
        monkeypatch.setattr(rdbp.montecarlo, "REPLICATE_CHUNK", 7)
        serial = self.run(1)
        alone = sum(stepped)
        stepped.clear()
        monkeypatch.setattr(rdbp.montecarlo, "FANOUT_MEMBERS", fanout)
        monkeypatch.setattr(rdbp.montecarlo, "_usable_cpus", lambda: 3)
        assert self.run(3) == serial
        # the ranges go on from where the cut left their rows
        assert inline_pool.sizes == [2]
        assert sum(stepped) == alone

    def test_the_last_id_left_stays_in_this_process(self, monkeypatch, inline_pool):
        # the 45 ids step 6255 members, so the budget cuts the last generation
        # of the final slice, of one id: no range is left to share
        monkeypatch.setattr(rdbp.montecarlo, "REPLICATE_CHUNK", 1)
        serial = self.run(1)
        monkeypatch.setattr(rdbp.montecarlo, "FANOUT_MEMBERS", 6254)
        assert self.run(2) == serial
        assert inline_pool.sizes == []

    @pytest.mark.parametrize("workers", [1, 2, 5, 5000])
    def test_a_check_under_the_budget_starts_no_pool(self, inline_pool, workers):
        serial = self.run(1)
        assert self.run(workers) == serial
        assert inline_pool.sizes == []


def _live_members(table, cap, generations):
    """Members of the rows live in each of the first ``generations``
    generations of a size table: those a run steps there."""
    first = table[..., :generations]
    return int(first[(first > 0) & (first < cap)].sum())


def test_a_cut_run_resumes_in_any_split():
    triple = TRIPLES["uniform-constant"]
    specs = [ProcessSpec(laws=triple, policy=policy, initial_size=initial, horizon=12, explosion_cap=600)
             for initial, policy in ((1, WeakestFirstPolicy()), (4, CoinFlipPolicy()))]
    base = Universe(Seed(21), triple)
    ids = np.arange(10, 30)
    want = simulate_coupled_replicates(specs, base, ids)
    budget = _live_members(rdbp.engine._run_table(specs, base, ids)[0], 600, 4)
    table, members = rdbp.engine._run_table(specs, base, ids, budget=budget)
    assert members > budget
    # four generations stepped: one column of the 40 rows' sizes each, after
    # the founders'
    assert table.shape == (2, 20, 5) and table.dtype == np.int64
    # resume the rows in two pieces of ids
    for a, b in ((0, 7), (7, 20)):
        piece = rdbp.engine._run_table(specs, base, ids[a:b], table[:, a:b])[0]
        got = rdbp.engine._trajectories(piece, 600)
        assert got == [runs[a:b] for runs in want]


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_a_budget_of_k_generations_steps_k_and_no_more(k):
    # the cut is members > budget, not >=: FANOUT_MEMBERS and TestFanOut's
    # cut points rest on it
    triple = TRIPLES["uniform-constant"]
    specs = [ProcessSpec(laws=triple, policy=policy, initial_size=initial, horizon=12, explosion_cap=600)
             for initial, policy in ((1, WeakestFirstPolicy()), (4, StrongestFirstPolicy()))]
    base = Universe(Seed(21), triple)
    ids = np.arange(10, 30)
    whole, total = rdbp.engine._run_table(specs, base, ids)
    # the last column is never stepped: the horizon, or no row left live
    assert whole.shape[-1] > 7 and total == _live_members(whole, 600, whole.shape[-1] - 1)
    budget = _live_members(whole, 600, k)
    table, members = rdbp.engine._run_table(specs, base, ids, budget=budget)
    assert table.shape[-1] == k + 1 and members > budget
    assert (table == whole[..., :k + 1]).all()
    table, members = rdbp.engine._run_table(specs, base, ids, budget=budget - 1)
    assert table.shape[-1] == k and members > budget - 1
    # a finished run steps no more than its budget
    for budget in (total, total + 1, math.inf):
        table, members = rdbp.engine._run_table(specs, base, ids, budget=budget)
        assert members == total <= budget and (table == whole).all()


def _shape(sizes, cap):
    """A slice table's shape, and the longest record among its rows."""
    runs = rdbp.engine._trajectories(sizes, cap)
    return sizes.shape, max(len(traj.sizes) for spec_runs in runs for traj in spec_runs)


def _known_size(traj, n):
    """``oracle.size_at``, or -1 where the size is unknown."""
    try:
        return oracle.size_at(traj, n)
    except IndexError:
        return -1


@settings(max_examples=40, deadline=None)
@given(
    triple=st.sampled_from(sorted(TRIPLES)),
    policy=st.sampled_from(POLICIES),
    initial=st.integers(1, 6),
    headroom=st.integers(1, 12),
    horizon=st.integers(1, 8),
    seed=st.integers(0, 2 ** 64 - 1),
    replicates=st.integers(1, 12),
    chunk=st.sampled_from([3, 7, rdbp.montecarlo.REPLICATE_CHUNK]),
    # at once, mid-run, or never
    fanout=st.sampled_from([0, 20, 120, rdbp.montecarlo.FANOUT_MEMBERS]),
    workers=st.sampled_from([1, 2, 5]),
    min_size=st.integers(1, 12),
)
def test_reductions_match_the_per_replicate_reference(
    triple, policy, initial, headroom, horizon, seed, replicates, chunk, fanout, workers, min_size
):
    # caps just above the founders make rows explode, and a small fan-out
    # budget cuts the slices and resumes them in the inline pool's ranges
    laws = TRIPLES[triple]
    cap = initial + headroom
    specs = [ProcessSpec(laws=laws, policy=p, initial_size=initial, horizon=horizon, explosion_cap=cap)
             for p in (policy, WeakestFirstPolicy())]
    base = Universe(Seed(seed), laws)
    want = [_reference(spec, base, range(replicates)) for spec in specs]
    mc = McConfig(replicates=replicates, horizon=horizon, explosion_cap=cap, base_seed=Seed(seed))
    with mock.patch.object(rdbp.montecarlo, "REPLICATE_CHUNK", chunk), \
            mock.patch.object(rdbp.montecarlo, "FANOUT_MEMBERS", fanout), \
            mock.patch.object(rdbp.montecarlo, "_usable_cpus", lambda: 64), \
            mock.patch.object(rdbp.montecarlo, "_start_pool", _InlinePool), \
            mock.patch.object(_InlinePool, "sizes", []), mock.patch.object(_InlinePool, "ranges", []):
        def run(fn, coupled=specs):
            return rdbp.montecarlo._per_replicate(fn, coupled, mc, workers)

        counts = np.sum(run(partial(rdbp.montecarlo._outcome_counts, cap=cap)), axis=0)
        kinds = list(zip(*(oracle.outcome_kinds(*runs) for runs in zip(*want))))
        assert counts.tolist() == [[k.count("extinct"), k.count("exploded")] for k in kinds]
        assert sum(run(rdbp.montecarlo._excess_generations)) == sum(
            oracle.excess_generations(got, ref) for got, ref in zip(*want))

        parts = run(partial(rdbp.montecarlo._late_ratios, min_size=min_size), specs[:1])
        ratios = [oracle.late_ratios(traj, min_size) for traj in want[0]]
        got = np.concatenate([part for part, _ in parts])
        # the same ratios in the same order, so every mean rounds alike
        assert got.tobytes() == np.asarray([r for picked in ratios for r in picked], dtype=np.float64).tobytes()
        assert sum(n for _, n in parts) == sum(map(bool, ratios))

        for n in range(horizon + 1):
            sizes = np.concatenate(run(partial(rdbp.montecarlo._sizes_at, n=n)), axis=-1)
            assert sizes.tolist() == [[_known_size(traj, n) for traj in runs] for runs in want]

        # each slice holds at most a chunk of ids, and only the generations
        # its rows reached; a range of a cut slice keeps the slice's
        shapes = run(partial(_shape, cap=cap))
        assert sum(ids for (_, ids, _), _ in shapes) == replicates
        for (n_specs, ids, generations), longest in shapes:
            assert n_specs == 2 and 1 <= ids <= chunk
            assert longest <= generations <= horizon + 1
            assert generations == longest or workers > 1


def test_threads_reach_every_check(monkeypatch, inline_pool, tmp_path):
    monkeypatch.setattr(rdbp.montecarlo, "FANOUT_MEMBERS", 0)
    monkeypatch.setattr(rdbp.montecarlo, "_usable_cpus", lambda: 64)
    config = {
        "seed": 3,
        "laws": {
            "offspring": {"probabilities": [0.25, 0.0, 0.75]},
            "claim": {"kind": "uniform", "params": {"d": 2.0}},
            "resource": {"kind": "constant", "params": {"value": 1.2}},
        },
        "policy": "fcfs",
        "mc": {"replicates": 20, "horizon": 10, "explosion_cap": 200},
        "checks": ["dominance", "safe_haven", "envelope", "superadditivity"],
        "check_params": {"envelope": {"min_size": 1}, "superadditivity": {"n_gens": 3}},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    argv = ["verify", "--config", str(path), "--threads", "3", "--out", str(tmp_path)]
    assert rdbp.cli.main(argv) == 0
    # dominance, safe_haven and envelope share one pass, and superadditivity
    # runs its joint founders and their single copies apart; this process
    # runs one range of each pass, and a pool of two workers the others
    assert inline_pool.sizes == [2] * 3


def _coupled_config(tmp_path, policy, envelope_policy=None):
    """A verify config that runs the three checks sharing one pass."""
    envelope = {"min_size": 8} if envelope_policy is None else {"min_size": 8, "policy": envelope_policy}
    config = {
        "seed": 4,
        "laws": {
            "offspring": {"probabilities": [0.25, 0.0, 0.75]},
            "claim": {"kind": "uniform", "params": {"d": 2.0}},
            "resource": {"kind": "constant", "params": {"value": 1.8}},
        },
        "policy": policy,
        "mc": {"replicates": 24, "horizon": 16, "explosion_cap": 300},
        "checks": ["dominance", "safe_haven", "envelope"],
        "check_params": {"envelope": envelope, "safe_haven": {"initial_sizes": [1, 3]}},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    return path, rdbp.config.parse_run_config(config)


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("token", POLICY_TOKENS)
def test_shared_pass_matches_each_check_run_alone(monkeypatch, inline_pool, tmp_path, token, threads):
    path, cfg = _coupled_config(tmp_path, token)
    triple, mc = cfg.triple(), cfg.mc
    policy = rdbp.policies.policy_from_token(token)
    alone = {
        "dominance": {"policy": token, "violations": rdbp.montecarlo.dominance_check(policy, triple, mc)},
        "safe_haven": dataclasses.asdict(rdbp.montecarlo.safe_haven_check(triple, (1, 3), mc)),
        "envelope": dict(dataclasses.asdict(rdbp.montecarlo.envelope_check(policy, triple, mc, min_size=8)),
                         policy=token),
    }
    monkeypatch.setattr(rdbp.montecarlo, "FANOUT_MEMBERS", 0)
    monkeypatch.setattr(rdbp.montecarlo, "_usable_cpus", lambda: 64)
    argv = ["verify", "--config", str(path), "--threads", str(threads), "--out", str(tmp_path / "o")]
    assert rdbp.cli.main(argv) == 0
    checks = json.loads((tmp_path / "o" / "verify.json").read_text())["checks"]
    assert {name: entry["result"] for name, entry in checks.items()} == json.loads(json.dumps(alone))
    # one pass for the three checks, whose ids a pool shares out
    assert inline_pool.sizes == ([2] if threads > 1 else [])


def test_shared_pass_steps_each_spec_once(monkeypatch, tmp_path):
    passes = []

    def recorded(specs, *args):
        passes.append([(spec.policy.name, spec.initial_size) for spec in specs])
        return run_table(specs, *args)

    run_table = rdbp.montecarlo._run_table
    monkeypatch.setattr(rdbp.montecarlo, "_run_table", recorded)
    path, _ = _coupled_config(tmp_path, "fcfs", envelope_policy="wf")
    assert rdbp.cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    # dominance steps fcfs and wf from one founder, safe_haven wf from one
    # and three, and envelope wf from one: wf from one founder is stepped once
    assert passes == [[("fcfs", 1), ("wf", 1), ("wf", 3)]]


def test_failing_pass_reruns_each_check_alone(monkeypatch, tmp_path, capsys):
    path, _ = _coupled_config(tmp_path, "fcfs", envelope_policy="wf")
    argv = ["verify", "--config", str(path), "--out", str(tmp_path / "clean")]
    assert rdbp.cli.main(argv) == 0
    clean = json.loads((tmp_path / "clean" / "verify.json").read_text())["checks"]

    def broken(self, claims, budgets, aux=None, quantum=1.0):
        raise EngineError("fcfs count failed")

    # only dominance steps fcfs rows, so the shared pass fails there
    monkeypatch.setattr(rdbp.policies.FcfsPolicy, "count_rows", broken)
    argv = ["verify", "--config", str(path), "--out", str(tmp_path / "o")]
    assert rdbp.cli.main(argv) == 3
    assert "error: check dominance: fcfs count failed" in capsys.readouterr().err
    checks = json.loads((tmp_path / "o" / "verify.json").read_text())["checks"]
    assert checks["dominance"] == {"ok": False, "error": "fcfs count failed"}
    assert checks["safe_haven"] == clean["safe_haven"] and checks["envelope"] == clean["envelope"]


class TestWorkerSplitIsInvisibleOnBetaClaims(TestWorkerSplitIsInvisible):
    # the workers receive a pickled ScaledBeta and evaluate it themselves
    triple = TRIPLES["beta-uniform"]
