import dataclasses
import json

import numpy as np
import pytest
import oracle
from oracle import offspring_row, quanta, quantile, reference_count, unit_row

import rdbp.engine
from rdbp import (
    POLICY_TOKENS,
    Constant,
    CustomPolicy,
    EngineError,
    FcfsPolicy,
    LawTriple,
    OffspringLaw,
    ProcessSpec,
    Seed,
    StrongestFirstPolicy,
    Uniform,
    Universe,
    WeakestFirstPolicy,
    policy_from_token,
    simulate,
    simulate_coupled_replicates,
    step,
    trajectory_to_csv,
    trajectory_to_json,
)
from rdbp.engine import Outcome, Trajectory, step_replicates
from rdbp.universe import _TAG_CLAIM, _TAG_OFFSPRING, _TAG_RESOURCE, ReplicateRows


POLICIES = [policy_from_token(token) for token in POLICY_TOKENS] + [
    CustomPolicy(lambda claims: np.arange(len(claims))[::-1], name="reverse-arrival")
]


class TestStep:
    def test_zero_is_absorbing(self, universe):
        assert step(0, universe, 0, WeakestFirstPolicy()) == 0

    def test_matches_hand_composition(self, universe):
        """Recompose a step from cells hashed one at a time and the bare count."""
        laws = universe.laws
        for size in (5, 9, 130):
            for n in range(4):
                total = int(quantile(laws.offspring, unit_row(universe, _TAG_OFFSPRING, n, size)).sum())
                budget = quanta(laws, laws.resource.icdf(unit_row(universe, _TAG_RESOURCE, n, size))).sum()
                claims = quanta(laws, laws.claim.icdf(unit_row(universe, _TAG_CLAIM, n, total)))
                expected = reference_count("wf", claims, budget) if total else 0
                assert step(size, universe, n, WeakestFirstPolicy()) == expected

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
    def test_matches_the_reference_step(self, universe, policy):
        # rows of none to 130 members, short and long budgets alike
        for size in (0, 1, 5, 9, 130):
            for n in range(4):
                got = step(size, universe, n, policy)
                assert type(got) is int
                assert got == oracle.step(size, universe, n, policy)

    def test_never_exceeds_children(self, universe):
        for n in range(10):
            for size in (1, 3, 17):
                total = int(offspring_row(universe, n, size).sum())
                assert step(size, universe, n, WeakestFirstPolicy()) <= total

    def test_no_children_means_extinction(self):
        triple = LawTriple(OffspringLaw((1.0,)), Uniform(0.0, 2.0), Constant(1.0))
        u = Universe(Seed(3), triple)
        assert step(10, u, 0, FcfsPolicy()) == 0

    def test_negative_size_rejected(self, universe):
        with pytest.raises(EngineError, match="negative population size"):
            step(-1, universe, 0, FcfsPolicy())

    def test_claims_over_the_cap_are_refused_before_anything_is_read(self, universe, monkeypatch):
        total = int(offspring_row(universe, 0, 20).sum())
        claims, budgets = ReplicateRows.claims, ReplicateRows.budgets
        monkeypatch.setattr(rdbp.engine, "CLAIM_CAP", total - 1)
        monkeypatch.setattr(ReplicateRows, "claims", _unread)
        monkeypatch.setattr(ReplicateRows, "budgets", _unread)
        with pytest.raises(EngineError, match=f"{total} prospective children in generation 0 exceed the claim cap"):
            step(20, universe, 0, WeakestFirstPolicy())
        with pytest.raises(EngineError, match="claim cap"):
            step_replicates(np.array([1, 20]), universe, np.array([0, 0]), 0, WeakestFirstPolicy())
        # a generation exactly at the cap still runs
        monkeypatch.setattr(ReplicateRows, "claims", claims)
        monkeypatch.setattr(ReplicateRows, "budgets", budgets)
        monkeypatch.setattr(rdbp.engine, "CLAIM_CAP", total)
        assert step(20, universe, 0, WeakestFirstPolicy()) <= total


def _unread(*args):
    raise AssertionError("a generation past the claim cap was read")


class TestSimulate:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
    @pytest.mark.parametrize("initial_size", [1, 9, 130])
    def test_matches_the_reference_simulate(self, basic_triple, policy, initial_size):
        spec = ProcessSpec(laws=basic_triple, policy=policy, initial_size=initial_size,
                           horizon=12, explosion_cap=600)
        for i in range(3):
            u = Universe(Seed(5), basic_triple, i)
            assert simulate(spec, u) == oracle.simulate(spec, u)

    def test_deterministic(self, basic_triple):
        spec = ProcessSpec(laws=basic_triple, policy=WeakestFirstPolicy(), horizon=50)
        u = Universe(Seed(5), basic_triple)
        a = simulate(spec, u)
        b = simulate(spec, u)
        assert a.sizes == b.sizes and a.outcome == b.outcome

    def test_replicates_decouple(self, basic_triple):
        spec = ProcessSpec(laws=basic_triple, policy=WeakestFirstPolicy(), horizon=50)
        u = Universe(Seed(5), basic_triple)
        runs = {tuple(simulate(spec, u.derive_replicate(i)).sizes) for i in range(8)}
        assert len(runs) > 1

    def test_extinction_recorded(self):
        triple = LawTriple(OffspringLaw((1.0,)), Uniform(0.0, 2.0), Constant(1.0))
        spec = ProcessSpec(laws=triple, policy=FcfsPolicy(), initial_size=4, horizon=10)
        traj = simulate(spec, Universe(Seed(0), triple))
        assert traj.sizes == [4, 0]
        assert traj.outcome.kind == "extinct"
        assert traj.outcome.generation == 1

    def test_explosion_cap(self):
        # two children each, resources cover everyone: doubles every step
        triple = LawTriple(OffspringLaw((0.0, 0.0, 1.0)), Uniform(0.0, 1.0), Constant(10.0))
        spec = ProcessSpec(laws=triple, policy=WeakestFirstPolicy(), horizon=100, explosion_cap=64)
        traj = simulate(spec, Universe(Seed(1), triple))
        assert traj.outcome.kind == "exploded"
        assert traj.sizes[-1] >= 64
        assert traj.outcome.generation == len(traj.sizes) - 1

    def test_alive_at_horizon(self):
        triple = LawTriple(OffspringLaw((0.0, 1.0)), Uniform(0.0, 1.0), Constant(10.0))
        spec = ProcessSpec(laws=triple, policy=FcfsPolicy(), horizon=7)
        traj = simulate(spec, Universe(Seed(2), triple))
        assert traj.outcome.kind == "alive_at_horizon"
        assert traj.outcome.generation is None
        assert len(traj.sizes) == 8

    def test_growth_ratios(self):
        triple = LawTriple(OffspringLaw((0.0, 0.0, 1.0)), Uniform(0.0, 1.0), Constant(10.0))
        spec = ProcessSpec(laws=triple, policy=WeakestFirstPolicy(), horizon=5, explosion_cap=10 ** 6)
        traj = simulate(spec, Universe(Seed(1), triple))
        assert traj.growth_ratios == [2.0] * (len(traj.sizes) - 1)

    def test_growth_ratios_are_read_from_the_sizes(self):
        # not stored: a trajectory holds its sizes and outcome only
        assert [f.name for f in dataclasses.fields(Trajectory)] == ["sizes", "outcome"]
        traj = Trajectory([4, 6, 3, 0], Outcome("extinct", 3))
        assert traj.growth_ratios == [1.5, 0.5, 0.0]
        assert traj == Trajectory([4, 6, 3, 0], Outcome("extinct", 3))

    def test_law_mismatch_rejected(self, basic_triple, universe):
        other = LawTriple(basic_triple.offspring, basic_triple.claim, Constant(9.9))
        spec = ProcessSpec(laws=other, policy=FcfsPolicy())
        with pytest.raises(EngineError):
            simulate(spec, universe)

    def test_size_at_semantics(self):
        triple = LawTriple(OffspringLaw((1.0,)), Uniform(0.0, 2.0), Constant(1.0))
        spec = ProcessSpec(laws=triple, policy=FcfsPolicy(), horizon=10)
        extinct = simulate(spec, Universe(Seed(0), triple))
        assert oracle.size_at(extinct, 0) == 1
        assert oracle.size_at(extinct, 7) == 0  # stays extinct forever

        alive_triple = LawTriple(OffspringLaw((0.0, 1.0)), Uniform(0.0, 1.0), Constant(10.0))
        spec = ProcessSpec(laws=alive_triple, policy=FcfsPolicy(), horizon=5)
        alive = simulate(spec, Universe(Seed(2), alive_triple))
        assert oracle.size_at(alive, 5) == 1
        with pytest.raises(IndexError):
            oracle.size_at(alive, 6)

    def test_founders_over_the_claim_cap_are_refused(self, basic_triple, universe, monkeypatch):
        # the cap is lowered, so no row of the cap's size is ever built
        monkeypatch.setattr(rdbp.engine, "CLAIM_CAP", 50)
        with pytest.raises(ValueError, match="initial_size 51 exceeds the claim cap 50"):
            ProcessSpec(laws=basic_triple, policy=FcfsPolicy(), initial_size=51)
        assert ProcessSpec(laws=basic_triple, policy=FcfsPolicy(), initial_size=50).initial_size == 50
        # a generation stepped from more members than the cap is refused
        # before anything is read
        monkeypatch.setattr(ReplicateRows, "offspring_totals", _unread)
        with pytest.raises(EngineError, match="51 members in generation 3 exceed the claim cap 50"):
            step(51, universe, 3, FcfsPolicy())

    def test_spec_validation(self, basic_triple):
        with pytest.raises(ValueError):
            ProcessSpec(laws=basic_triple, policy=FcfsPolicy(), initial_size=0)
        with pytest.raises(ValueError):
            ProcessSpec(laws=basic_triple, policy=FcfsPolicy(), horizon=0)
        with pytest.raises(ValueError):
            ProcessSpec(laws=basic_triple, policy=FcfsPolicy(), initial_size=5, explosion_cap=5)


class TestCoupling:
    def test_weakest_first_dominates_generationwise(self, basic_triple):
        policies = [StrongestFirstPolicy(), FcfsPolicy(), WeakestFirstPolicy()]
        for seed in range(20):
            u = Universe(Seed(seed), basic_triple)
            specs = [
                ProcessSpec(laws=basic_triple, policy=p, initial_size=3, horizon=30)
                for p in policies
            ]
            sf, fcfs, wf = (runs[0] for runs in simulate_coupled_replicates(specs, u, [0]))
            assert [sf, fcfs, wf] == oracle.simulate_coupled(specs, u)
            for traj in (sf, fcfs):
                for n in range(len(traj.sizes)):
                    if n < len(wf.sizes):
                        assert traj.sizes[n] <= wf.sizes[n]


class TestSerialisation:
    def make_traj(self):
        triple = LawTriple(OffspringLaw((1.0,)), Uniform(0.0, 2.0), Constant(1.0))
        spec = ProcessSpec(laws=triple, policy=FcfsPolicy(), initial_size=2, horizon=10)
        return simulate(spec, Universe(Seed(0), triple))

    def test_csv_layout(self):
        text = trajectory_to_csv(self.make_traj())
        lines = text.splitlines()
        assert lines[0] == "generation,size"
        assert lines[1] == "0,2"
        assert lines[2] == "1,0"
        assert lines[3] == "# outcome,extinct,1"
        assert text.endswith("\n")

    def test_json_layout(self):
        payload = trajectory_to_json(self.make_traj())
        assert payload["sizes"] == [2, 0]
        assert payload["outcome"] == {"kind": "extinct", "generation": 1}
        assert payload["growth_ratios"] == [0.0]
        json.dumps(payload)  # must be serialisable as-is
