"""Batched engine against the per-replicate reference.

``simulate_replicates``, ``simulate_coupled_replicates`` and
``step_replicates`` must reproduce the reference ``simulate`` and ``step``
of tests/oracle.py bit for bit: the same sizes, outcomes and growth ratios
for every replicate, whatever the policy or law kinds.  Founder counts of 9 and
130 make rows cross 8 and 128 members, the block edges of numpy's pairwise
summation, so a budget summed over a differently shaped row would show.
"""

import json
import os
from concurrent.futures import Future
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdbp.cli
import rdbp.engine
import rdbp.montecarlo
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
from rdbp.montecarlo import _outcome_kinds
from rdbp.policies import StrongestFirstPolicy, WeakestFirstPolicy

import oracle
from oracle import ReferencePolicy, StableCoinFlipPolicy

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
def test_fast_coinflip_order_matches_the_stable_argsort(initial_size):
    # the short-lived laws; from 30000 founders every generation ranks
    # thousands of aux deviates through the default argsort and tie check
    fast, stable = (
        ProcessSpec(laws=COUNTEREXAMPLE_TRIPLE, policy=policy, initial_size=initial_size,
                    explosion_cap=10 ** 6)
        for policy in (CoinFlipPolicy(), StableCoinFlipPolicy())
    )
    base = Universe(Seed(101), COUNTEREXAMPLE_TRIPLE)
    ids = range(60) if initial_size == 1 else range(4)
    assert simulate(fast, base) == simulate(stable, base)
    assert simulate_replicates(fast, base, ids) == simulate_replicates(stable, base, ids)


@pytest.mark.parametrize("token", POLICY_TOKENS)
@pytest.mark.parametrize("name", ["uniform-constant", "beta-uniform", "exponential-uniform"])
def test_certified_counts_run_like_the_reference(monkeypatch, name, token):
    # rows of 16 claims or more take the certified counts, in blocks of 32
    # claims and from samples of 8, and every trajectory equals the one
    # counted through the full sort and cumsum
    monkeypatch.setattr(rdbp.policies, "_SELECT_MIN_CLAIMS", 16)
    monkeypatch.setattr(rdbp.policies, "_PREFIX_BLOCK", 32)
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


def test_wf_windows_and_fallbacks_on_deep_growth_are_pinned(monkeypatch):
    # the deep-growth laws from 6000 founders, at the real thresholds: every
    # wf row holds 8192 claims or more.  A narrower window shows up as more
    # windows, and a weaker estimate or bound as fallbacks
    tally = {"rows": 0, "windows": 0, "fallbacks": 0}
    selected, window = rdbp.policies._selected_count, rdbp.policies._window_count

    def counted_selection(*args):
        count = selected(*args)
        tally["rows"] += 1
        tally["fallbacks"] += count < 0
        return count

    def counted_window(*args):
        tally["windows"] += 1
        return window(*args)

    monkeypatch.setattr(rdbp.policies, "_selected_count", counted_selection)
    monkeypatch.setattr(rdbp.policies, "_window_count", counted_window)
    triple = TRIPLES["uniform-constant"]
    spec = ProcessSpec(laws=triple, policy=WeakestFirstPolicy(), initial_size=6000,
                       horizon=6, explosion_cap=10 ** 5)
    simulate_replicates(spec, Universe(Seed(1), triple), range(20))
    assert tally == {"rows": 120, "windows": 120, "fallbacks": 0}


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


def _collect(*trajectories):
    return trajectories


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
    with mock.patch.object(rdbp.engine, "BLOCK_CELLS", 16 if small else rdbp.engine.BLOCK_CELLS), \
            mock.patch.object(rdbp.montecarlo, "REPLICATE_CHUNK", 3 if small else rdbp.montecarlo.REPLICATE_CHUNK):
        assert simulate_coupled_replicates(specs, base, ids) == want
        by_id = rdbp.montecarlo._per_replicate(_collect, specs, mc, start=first, count=count)
    assert [list(runs) for runs in zip(*by_id)] == (want if count else [])


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
        self.ranges.append(args[3:5])
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
        return rdbp.montecarlo._per_replicate(_outcome_kinds, self.specs(), self.mc, workers)

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


def test_a_cut_run_resumes_in_any_split():
    triple = TRIPLES["uniform-constant"]
    specs = [ProcessSpec(laws=triple, policy=policy, initial_size=initial, horizon=12, explosion_cap=600)
             for initial, policy in ((1, WeakestFirstPolicy()), (4, CoinFlipPolicy()))]
    base = Universe(Seed(21), triple)
    ids = np.arange(10, 30)
    want = simulate_coupled_replicates(specs, base, ids)
    records = []
    run = rdbp.engine._replicate_generations(specs, base, ids, records)
    for _ in range(5):
        next(run)
    run.close()
    # the rows lie spec by spec, 20 ids each; resume them in two pieces
    for a, b in ((0, 7), (7, 20)):
        piece = [list(records[s * 20 + i]) for s in range(2) for i in range(a, b)]
        for _ in rdbp.engine._replicate_generations(specs, base, ids[a:b], piece):
            pass
        got = rdbp.engine._trajectories(specs, piece)
        assert got == [runs[a:b] for runs in want]


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
    # superadditivity runs its joint founders and their single copies apart
    # this process runs one range of each, and a pool of two workers the others
    assert inline_pool.sizes == [2] * 5


class TestWorkerSplitIsInvisibleOnBetaClaims(TestWorkerSplitIsInvisible):
    # the workers receive a pickled ScaledBeta and evaluate it themselves
    triple = TRIPLES["beta-uniform"]
