"""Ragged reads and the batched engine against the references, with the
kernel's pieces and the engine's batches made small.

A reader lays rows of any lengths back to back and hashes them in pieces
of at most ``CHUNK_CELLS`` cells; the engine reads claims and resources in
batches of at most ``BLOCK_CELLS`` cells.  With both patched small, mixes
of row lengths around the piece size (0, 1, a piece and one either side,
rows spanning several pieces, many equal rows) cut a layout every way it
can be cut.  Every tag must match the scalar oracle bit for bit, every
budget must equal ``np.sum`` of its row alone, and the engine must
reproduce the reference ``simulate`` for every policy.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rdbp.engine
import rdbp.universe
import oracle
from oracle import quantile, unit_row
from rdbp import (
    POLICY_TOKENS,
    Constant,
    Exponential,
    LawTriple,
    OffspringLaw,
    ProcessSpec,
    ScaledBeta,
    Seed,
    Uniform,
    Universe,
    policy_from_token,
    simulate,
    simulate_coupled_replicates,
    simulate_replicates,
)
from rdbp.universe import _TAG_AUX, _TAG_CLAIM, _TAG_OFFSPRING, _TAG_RESOURCE, ReplicateRows

PIECE = 8
LENGTHS = [0, 1, PIECE - 1, PIECE, PIECE + 1, 3 * PIECE + 2]

READ_TRIPLES = {
    # several offspring cuts, one of them repeated; hashed claims and resources
    "exponential-uniform": LawTriple(
        OffspringLaw((0.3, 0.0, 0.3, 0.4)), Exponential(1.5), Uniform(0.2, 1.0)
    ),
    # the constant resource law is summed without hashing
    "beta-constant": LawTriple(OffspringLaw((0.25, 0.0, 0.75)), ScaledBeta(2.0, 3.0, 2.0), Constant(0.9)),
}

layouts = st.one_of(
    st.lists(st.sampled_from(LENGTHS), max_size=10),
    st.tuples(st.sampled_from(LENGTHS[1:]), st.integers(2, 30)).map(lambda run: [run[0]] * run[1]),
)


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("triple", READ_TRIPLES.values(), ids=READ_TRIPLES.keys())
@settings(max_examples=40, deadline=None)
@given(
    lengths=layouts,
    in_order=st.booleans(),
    seed=st.integers(0, 2 ** 64 - 1),
    n=st.integers(0, 40),
    first=st.integers(0, 10 ** 6),
)
# a piece whose first and last rows agree in length but not with a row between
@example(lengths=[1, 0, 1, PIECE - 1, 1, PIECE - 1], in_order=False, seed=1, n=2, first=5)
@example(lengths=[PIECE + 1, 1, 2, 1, 0, 3 * PIECE + 2, 1], in_order=False, seed=2, n=0, first=0)
def test_every_tag_matches_the_scalar_oracle(triple, lengths, in_order, seed, n, first):
    counts = np.array(sorted(lengths) if in_order else lengths, dtype=np.int64)
    base = Universe(Seed(seed), triple)
    ids = first + np.arange(2 * len(counts))
    rows = np.arange(len(counts))[::-1] * 2  # any positions of the ids, in any order
    with mock.patch.object(rdbp.universe, "CHUNK_CELLS", PIECE):
        reader = ReplicateRows(base, ids, n)
        claims, aux = reader.claims(rows, counts), reader.aux(rows, counts)
        totals, budgets = reader.offspring_totals(rows, counts), reader.budgets(rows, counts)

    def units(tag):
        return [unit_row(base.derive_replicate(int(ids[r])), tag, n, int(c)) for r, c in zip(rows, counts)]

    assert _bits(claims) == _bits(np.concatenate([[], *(triple.claim.icdf(u) for u in units(_TAG_CLAIM))]))
    assert _bits(aux) == _bits(np.concatenate([[], *units(_TAG_AUX)]))
    assert totals.tolist() == [int(quantile(triple.offspring, u).sum()) for u in units(_TAG_OFFSPRING)]
    want = [np.sum(np.asarray(triple.resource.icdf(u), dtype=np.float64)) for u in units(_TAG_RESOURCE)]
    assert _bits(budgets) == _bits(want)


def test_budgets_are_each_rows_own_pairwise_sum():
    # lengths on both sides of 8 and 128, the block edges of numpy's pairwise
    # summation, at shifting offsets in the flat array of cells
    rng = np.random.default_rng(11)
    lengths = [1, 7, 8, 9, 127, 128, 129, 130, 300, 1000, 1000, 1031, 4099, 5000]
    triple = READ_TRIPLES["exponential-uniform"]
    base = Universe(Seed(9), triple)
    for counts in (np.array(lengths), rng.permutation(np.repeat(lengths, 2))):
        ids = rng.permutation(10 ** 4)[:len(counts)]
        got = ReplicateRows(base, ids, 5).budgets(np.arange(len(counts)), counts)
        want = [np.sum(triple.resource.icdf(unit_row(base.derive_replicate(int(i)), _TAG_RESOURCE, 5, int(c))))
                for i, c in zip(ids, counts)]
        assert _bits(got) == _bits(want)


ENGINE_TRIPLES = {
    "uniform-constant": LawTriple(OffspringLaw((0.25, 0.0, 0.75)), Uniform(0.0, 2.0), Constant(1.2)),
    "beta-uniform": LawTriple(OffspringLaw((0.3, 0.3, 0.4, 0.0)), ScaledBeta(2.0, 2.0, 2.0), Uniform(0.0, 1.5)),
    "exponential-uniform": LawTriple(OffspringLaw((0.5, 0.0, 0.0, 0.5)), Exponential(1.5), Uniform(0.2, 1.0)),
    "constant-constant": LawTriple(OffspringLaw((0.2, 0.3, 0.5)), Constant(0.5), Constant(0.9)),
}


@pytest.mark.parametrize("token", POLICY_TOKENS)
@pytest.mark.parametrize("triple", ENGINE_TRIPLES.values(), ids=ENGINE_TRIPLES.keys())
def test_batched_runs_match_simulate_with_small_pieces(monkeypatch, triple, token):
    # founders of 1, 9 and 70 put rows under, across and over a piece of 64
    policy = policy_from_token(token)
    specs = [ProcessSpec(laws=triple, policy=p, initial_size=initial, horizon=6, explosion_cap=300)
             for initial, p in ((1, policy), (9, policy), (70, policy), (9, policy_from_token("wf")))]
    base = Universe(Seed(4), triple)
    ids = range(3, 15)
    want = [[oracle.simulate(spec, base.derive_replicate(i)) for i in ids] for spec in specs]
    monkeypatch.setattr(rdbp.universe, "CHUNK_CELLS", 64)
    monkeypatch.setattr(rdbp.engine, "BLOCK_CELLS", 200)
    assert simulate_replicates(specs[0], base, ids) == want[0]
    assert [simulate(specs[0], base.derive_replicate(i)) for i in ids] == want[0]
    assert simulate_coupled_replicates(specs, base, ids) == want
