"""The theory's invariants hold exactly, not only up to rounding.

Claims and resources are int64 multiples of one quantum, so every sum is
exact in any order.  Two consequences of the Envelopment Theorem must then
hold replicate by replicate, on the block path and on the streamed fcfs
path alike:

* smallest-first dominance: no policy, built-in or a random ``CustomPolicy``
  order, ever has more members than the coupled smallest-first process;
* the coupling across founder counts: fcfs and smallest-first sizes never
  fall as the founder count grows, at any generation.  Largest-first is
  left out: more founders bring more claims, and a larger one served first
  can leave fewer children served (exponential claims and uniform
  resources give such a pair within a few examples).

The lattice itself keeps every value below 2**36 quanta, so the claims of
``engine.CLAIM_CAP`` = 2**27 members sum below 2**63.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdbp.engine
import rdbp.policies
import rdbp.universe
from rdbp import (
    POLICY_TOKENS,
    Constant,
    CustomPolicy,
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
    policy_from_token,
    simulate_coupled_replicates,
)

#: resources and claims of comparable size, so budgets bind in every
#: generation; ScaledBeta(0.05, 1) resources are mostly tiny with rare large
#: ones, whose float sums over G + 1 members could fall below those over G
TRIPLES = {
    "beta-0.05-resources": LawTriple(OffspringLaw((0.25, 0.0, 0.75)), Uniform(0.0, 0.1), ScaledBeta(0.05, 1.0)),
    "beta-0.02-resources": LawTriple(OffspringLaw((0.2, 0.2, 0.6)), ScaledBeta(2.0, 2.0, 0.06),
                                     ScaledBeta(0.02, 1.0)),
    "uniform-constant": LawTriple(OffspringLaw((0.25, 0.0, 0.75)), Uniform(0.0, 2.0), Constant(1.2)),
    "exponential-uniform": LawTriple(OffspringLaw((0.5, 0.0, 0.0, 0.5)), Exponential(1.5), Uniform(0.2, 1.0)),
    "constant-constant": LawTriple(OffspringLaw((0.2, 0.3, 0.5)), Constant(0.1), Constant(0.15)),
}


def _random_order(seed):
    """A CustomPolicy serving each row in a random order fixed by its length."""
    return CustomPolicy(lambda claims: np.random.default_rng([seed, len(claims)]).permutation(len(claims)),
                        name=f"random-{seed}")


def _streaming(patch, streamed):
    """Every fcfs row of 24 claims or more streamed through 8-cell pieces,
    and the other rows read in batches of at most 24 cells."""
    if streamed:
        patch.setattr(rdbp.engine, "BLOCK_CELLS", 24)
        patch.setattr(rdbp.policies, "_SELECT_MIN_CLAIMS", 24)
        patch.setattr(rdbp.universe, "CHUNK_CELLS", 8)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    triple=st.sampled_from(sorted(TRIPLES)),
    policy=st.one_of(st.sampled_from(POLICY_TOKENS), st.integers(0, 2 ** 32 - 1)),
    seed=st.integers(0, 2 ** 32 - 1),
    initial_size=st.integers(1, 300),
    streamed=st.booleans(),
)
def test_no_policy_ever_beats_smallest_first(triple, policy, seed, initial_size, streamed):
    policy = policy_from_token(policy) if isinstance(policy, str) else _random_order(policy)
    mc = McConfig(replicates=6, horizon=8, explosion_cap=3000, base_seed=Seed(seed))
    with pytest.MonkeyPatch.context() as patch:
        _streaming(patch, streamed)
        assert dominance_check(policy, TRIPLES[triple], mc, initial_size=initial_size) == 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    triple=st.sampled_from(sorted(TRIPLES)),
    token=st.sampled_from(["fcfs", "wf"]),
    seed=st.integers(0, 2 ** 32 - 1),
    first=st.integers(1, 1500),
    gap=st.integers(1, 3),
    streamed=st.booleans(),
)
def test_coupled_sizes_never_fall_as_the_founder_count_grows(triple, token, seed, first, gap, streamed):
    laws = TRIPLES[triple]
    specs = [ProcessSpec(laws=laws, policy=policy_from_token(token), initial_size=first + j * gap, horizon=6,
                         explosion_cap=20000) for j in range(4)]
    with pytest.MonkeyPatch.context() as patch:
        _streaming(patch, streamed)
        runs = simulate_coupled_replicates(specs, Universe(Seed(seed), laws), range(4))
    for fewer, more in zip(runs, runs[1:]):
        for a, b in zip(fewer, more):
            # a run's sizes are known up to its end; an extinct one stays 0
            for n in range(1, min(len(a.sizes), len(b.sizes))):
                assert a.sizes[n] <= b.sizes[n], (n, a.sizes, b.sizes)
            if len(b.sizes) < len(a.sizes):
                assert b.outcome.kind == "exploded"


LATTICE_LAWS = [Uniform(0.0, 2.0), Uniform(0.5, 1.5), Exponential(0.1), Exponential(40.0), ScaledBeta(2.0, 3.0, 7.0),
                ScaledBeta(0.05, 1.0), Constant(1e-3), Constant(0.0), Constant(3.0)]


@pytest.mark.parametrize("claim", LATTICE_LAWS, ids=repr)
@pytest.mark.parametrize("resource", [Constant(1.2), Uniform(0.0, 300.0)], ids=repr)
def test_every_value_lies_below_two_to_the_36_quanta(claim, resource):
    laws = LawTriple(OffspringLaw((0.5, 0.5)), claim, resource)
    scale = 2.0 ** laws.lattice_bits
    units = np.array([2.0 ** -53, 0.5, 1.0 - 2.0 ** -53])
    tops = [law.icdf(units)[-1] * scale for law in (claim, resource)]
    # every value lies below 2**36 quanta, on a lattice at most one power of
    # two coarser than the finest that keeps it there (the largest draw of
    # a bounded law lies just below the end of its support)
    assert max(tops) < 2 ** 36 and (max(tops) >= 2 ** 34 or max(tops) == 0)
    assert rdbp.engine.CLAIM_CAP * 2 ** 36 <= 2 ** 63
    # the lattice follows from the laws alone, and the values shown are
    # exactly their quanta times the quantum
    assert LawTriple(OffspringLaw((0.2, 0.8)), claim, resource).lattice_bits == laws.lattice_bits
    universe = Universe(Seed(3), laws)
    quanta = universe.generation(1).claims(np.zeros(1, dtype=np.intp), 500)[0]
    assert (universe.claim_row(1, 500) * scale == quanta).all()
