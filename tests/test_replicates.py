"""Batched engine against the per-replicate reference.

``simulate_replicates`` and ``step_replicates`` must reproduce ``simulate``
and ``step`` bit for bit: the same sizes, outcomes and growth ratios for
every replicate, whatever the policy or law kinds.  Founder counts of 9 and
130 make rows cross 8 and 128 members, the block edges of numpy's pairwise
summation, so a budget summed over a differently shaped row would show.
"""

import numpy as np
import pytest

import rdbp.engine
import rdbp.montecarlo
from rdbp import (
    POLICY_TOKENS,
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
    estimate_extinction,
    policy_from_token,
    safe_haven_check,
    simulate,
    simulate_replicates,
    step,
    step_replicates,
)
from rdbp.policies import StrongestFirstPolicy, WeakestFirstPolicy

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
    return [simulate(spec, base.derive_replicate(int(i))) for i in ids]


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
        want = [step(int(s), base.derive_replicate(int(i)), n, policy) for s, i in zip(sizes, ids)]
        assert step_replicates(sizes, base, ids, n, policy).tolist() == want


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


class TestWorkerSplitIsInvisible:
    triple = TRIPLES["uniform-constant"]
    mc = McConfig(replicates=45, horizon=20, explosion_cap=800, base_seed=Seed(13))

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
