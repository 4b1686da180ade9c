"""Rows that are reduced without being built, against the rows built whole.

``ReplicateRows.served_in_arrival_order`` counts a row served in arrival
order piece by piece from exact piece sums of its int64 claims, and stops
hashing at the piece where its running total crosses the budget.  The
engine gives it every fcfs row of at least ``policies._SELECT_MIN_CLAIMS``
claims, in whatever batch.  A constant resource law's budget is the member
count times the constant's quanta, and builds no row.  With the kernel's
pieces and that threshold patched small, each must give exactly what the
materialised row gives.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rdbp.policies
import rdbp.universe
import oracle
from rdbp import (
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
    simulate_coupled_replicates,
    step,
    step_replicates,
)
from rdbp.policies import _cumsum_count_rows
from rdbp.universe import ReplicateRows

PIECE = 8
#: a row of six whole pieces and a partial one
COUNT = 6 * PIECE + 3


def _laws(claim):
    return LawTriple(OffspringLaw((0.25, 0.0, 0.75)), claim, Constant(1.2))


def _count_passes(monkeypatch, piece=PIECE):
    """Pieces of ``piece`` cells, and the claim cells of each piece the
    kernel hashes, as one list per pass over a row."""
    seen = []
    real = rdbp.universe._word_chunks

    def counted(keys, counts):
        seen.append([])
        for chunk in real(keys, counts):
            seen[-1].append(len(chunk[3]))
            yield chunk

    monkeypatch.setattr(rdbp.universe, "CHUNK_CELLS", piece)
    monkeypatch.setattr(rdbp.universe, "_word_chunks", counted)
    return seen


@pytest.fixture
def passes(monkeypatch):
    return _count_passes(monkeypatch)


def _row(claim, seed=5, n=3):
    reader = ReplicateRows(Universe(Seed(seed), _laws(claim)), np.array([17, 40]), n)
    return reader, reader.claims(np.array([1]), COUNT)[0]


def _budgets(cum):
    """Budgets that cross the row at every kind of place: nowhere, at 0, in
    the first piece, at a piece's last total or one quantum from it, and in
    the last piece."""
    return {
        "zero": 0,
        "beyond": int(cum[-1]) + 10 ** 6,
        "first piece": (int(cum[2]) + int(cum[3])) // 2,
        "a piece's last total": int(cum[3 * PIECE - 1]),
        "a quantum below a piece's last total": int(cum[2 * PIECE - 1]) - 1,
        "a quantum above a piece's last total": int(cum[2 * PIECE - 1]) + 1,
        "the first piece's last total": int(cum[PIECE - 1]),
        "last piece": int(cum[-2]),
        "the row's total": int(cum[-1]),
    }


def _crossing_pieces(cum, budget, piece=PIECE):
    """The pieces read up to the first running total above the budget."""
    over = np.flatnonzero(cum > budget)
    return over[0] // piece + 1 if over.size else -(-cum.size // piece)


def _hashed_up_to_the_crossing(passes, cum, budget, piece=PIECE):
    """The row was read in one pass of whole pieces up to the crossing."""
    crossing = _crossing_pieces(cum, budget, piece)
    assert len(passes) == 1
    hashed = passes[0]
    return len(hashed) == crossing and hashed[:-1] == [piece] * (len(hashed) - 1)


@pytest.mark.parametrize("claim", [Uniform(0.0, 2.0), Constant(0.3)], ids=["uniform", "constant"])
@pytest.mark.parametrize("seed", [5, 6, 7])
def test_the_streamed_count_is_the_count_of_the_whole_row(passes, claim, seed):
    reader, row = _row(claim, seed)
    cum = np.cumsum(row)
    for where, budget in _budgets(cum).items():
        del passes[:]
        got = reader.served_in_arrival_order(1, COUNT, np.int64(budget))
        want = int(_cumsum_count_rows(row[None].copy(), np.array([budget]))[0])
        assert got == want == oracle.reference_count("fcfs", row, budget), where
        # no claim past the crossing is hashed, and no row is read twice
        assert _hashed_up_to_the_crossing(passes, cum, budget), where


def test_the_crossing_pieces_are_the_expected_ones(passes):
    reader, row = _row(Uniform(0.0, 2.0))
    cum = np.cumsum(row)
    budgets = _budgets(cum)
    assert _crossing_pieces(cum, budgets["first piece"]) == 1
    # a budget equal to a piece's last total is not crossed in that piece
    assert _crossing_pieces(cum, budgets["a piece's last total"]) == 4
    assert _crossing_pieces(cum, budgets["last piece"]) == 7 == _crossing_pieces(cum, budgets["beyond"])
    assert _crossing_pieces(cum, 0) == 1
    assert reader.served_in_arrival_order(1, COUNT, budgets["a piece's last total"]) == 3 * PIECE


def test_an_empty_row_serves_nobody(passes):
    reader, _ = _row(Uniform(0.0, 2.0))
    del passes[:]
    assert reader.served_in_arrival_order(0, 0, 1) == 0
    assert passes == [[]]


STREAMED_CLAIMS = {
    "uniform": Uniform(0.0, 2.0),
    # every claim of a constant law is the same number of quanta, so many
    # budgets land on prefix totals
    "lattice-0.25": Constant(0.25),
    "lattice-0.3": Constant(0.3),
    "exponential": Exponential(1.0),
    "beta": ScaledBeta(2.0, 3.0, 2.0),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    law=st.sampled_from(sorted(STREAMED_CLAIMS)),
    seed=st.integers(0, 2**32),
    piece=st.sampled_from([3, 8, 40]),
    count=st.integers(1, 240),
    budget=st.one_of(st.sampled_from(["zero", "beyond", "between"]),
                     st.tuples(st.integers(0, 10**6), st.sampled_from([-1, 0, 1]))),
    share=st.floats(0.0, 1.0),
)
@example(law="uniform", seed=1, piece=8, count=80, budget=(15, -1), share=0.0)
@example(law="lattice-0.25", seed=1, piece=8, count=80, budget=(23, 0), share=0.0)
def test_the_streamed_count_is_the_simple_one(law, seed, piece, count, budget, share):
    with pytest.MonkeyPatch.context() as patch:
        passes = _count_passes(patch, piece)
        reader = ReplicateRows(Universe(Seed(seed), _laws(STREAMED_CLAIMS[law])), np.array([17, 40]), 3)
        row = reader.claims(np.array([1]), count)[0]
        cum = np.cumsum(row)
        if isinstance(budget, tuple):  # at a prefix total, or a quantum either side of it
            at, side = budget
            budget = max(int(cum[at % count]) + side, 0)
        else:
            budget = {"zero": 0, "beyond": int(cum[-1]) + 1, "between": int(share * int(cum[-1]))}[budget]
        del passes[:]
        got = reader.served_in_arrival_order(1, count, np.int64(budget))
        assert got == _cumsum_count_rows(row[None].copy(), np.array([budget]))[0]
        assert got == oracle.reference_count("fcfs", row, budget)
        assert _hashed_up_to_the_crossing(passes, cum, budget, piece)


LONG_ROW_TRIPLES = {
    # budgets of 0.1 to 2 per member against claims of mean 1 and 1.5
    # children per member: the crossing falls in every piece, or nowhere
    f"constant-{c}": LawTriple(OffspringLaw((0.25, 0.0, 0.75)), Uniform(0.0, 2.0), Constant(c))
    for c in (0.1, 0.7, 1.4, 2.0)
} | {
    "uniform-resources": LawTriple(OffspringLaw((0.3, 0.3, 0.4)), Uniform(0.0, 2.0), Uniform(0.0, 2.4)),
}


#: the streaming threshold the ``streamed`` fixture sets
THRESHOLD = 20


@pytest.fixture
def streamed(monkeypatch):
    """The count of every row the engine streams, with the kernel's pieces
    and the streaming threshold made small."""
    counts = []
    real = ReplicateRows.served_in_arrival_order

    def spy(self, row, count, budget):
        counts.append(count)
        return real(self, row, count, budget)

    monkeypatch.setattr(rdbp.universe, "CHUNK_CELLS", PIECE)
    monkeypatch.setattr(rdbp.policies, "_SELECT_MIN_CLAIMS", THRESHOLD)
    monkeypatch.setattr(ReplicateRows, "served_in_arrival_order", spy)
    return counts


@pytest.mark.parametrize("triple", LONG_ROW_TRIPLES.values(), ids=LONG_ROW_TRIPLES.keys())
def test_the_engine_streams_long_fcfs_rows_and_matches_the_oracle(streamed, triple):
    fcfs = policy_from_token("fcfs")
    base = Universe(Seed(8), triple)
    sizes = np.array([0, 1, 3, 12, 20, 30, 45, 60, 30])
    ids = np.arange(len(sizes)) + 100
    for n in range(4):
        want = [oracle.step(int(s), base.derive_replicate(int(i)), n, fcfs) for s, i in zip(sizes, ids)]
        assert step_replicates(sizes, base, ids, n, fcfs).tolist() == want
        assert [step(int(s), base.derive_replicate(int(i)), n, fcfs) for s, i in zip(sizes, ids)] == want
    assert streamed and min(streamed) >= THRESHOLD


@pytest.mark.parametrize("triple", LONG_ROW_TRIPLES.values(), ids=LONG_ROW_TRIPLES.keys())
def test_a_coupled_pass_streams_only_its_long_fcfs_rows(streamed, triple):
    specs = [ProcessSpec(laws=triple, policy=policy_from_token(token), initial_size=initial, horizon=5,
                         explosion_cap=400)
             for token in ("fcfs", "wf", "coinflip") for initial in (2, 40)]
    base = Universe(Seed(3), triple)
    ids = range(6)
    want = [[oracle.simulate(spec, base.derive_replicate(i)) for i in ids] for spec in specs]
    assert simulate_coupled_replicates(specs, base, ids) == want
    # every fcfs generation of THRESHOLD children or more streamed, and no
    # wf or coinflip one did
    long_rows = [int(oracle.offspring_row(base.derive_replicate(i), n, size).sum())
                 for trajectories in want[:2] for i, traj in zip(ids, trajectories)
                 for n, size in enumerate(traj.sizes[:-1])]
    assert sorted(streamed) == sorted(c for c in long_rows if c >= THRESHOLD)
    assert streamed


def test_fcfs_rows_stream_from_the_threshold_on_in_a_shared_batch(streamed):
    # one child per member, so the first generation holds fcfs rows of
    # exactly THRESHOLD - 1, THRESHOLD and THRESHOLD + 1 claims, read in one
    # batch with wf and coinflip rows of those lengths and with short rows
    triple = LawTriple(OffspringLaw((0.0, 1.0)), Uniform(0.0, 2.0), Uniform(0.0, 2.4))
    specs = [ProcessSpec(laws=triple, policy=policy_from_token(token), initial_size=initial, horizon=4,
                         explosion_cap=400)
             for token in ("fcfs", "wf", "coinflip") for initial in (3, THRESHOLD - 1, THRESHOLD, THRESHOLD + 1)]
    base = Universe(Seed(4), triple)
    ids = range(5)
    want = [[oracle.simulate(spec, base.derive_replicate(i)) for i in ids] for spec in specs]
    assert simulate_coupled_replicates(specs, base, ids) == want
    # a row's claims are its members; exactly the fcfs rows at or above the
    # threshold streamed, the first generation's among them
    fcfs_rows = [size for trajectories in want[:4] for traj in trajectories for size in traj.sizes[:-1]]
    assert sorted(streamed) == sorted(c for c in fcfs_rows if c >= THRESHOLD)
    assert streamed.count(THRESHOLD) >= len(ids) and streamed.count(THRESHOLD + 1) >= len(ids)


CONSTANTS = (1.2, 0.1, 1 / 3, 2.7, 1e-7)


def test_constant_budgets_are_the_count_times_the_constant():
    rng = np.random.default_rng(19)
    counts = np.concatenate([np.arange(301), rng.integers(0, 3 * 10 ** 6, 200)])
    rows = rng.permutation(counts.size)
    for c in CONSTANTS:
        laws = LawTriple(OffspringLaw((0.5, 0.5)), Uniform(0.0, 1.0), Constant(c))
        got = ReplicateRows(Universe(Seed(1), laws), np.arange(counts.size), 0).budgets(rows, counts)
        assert got.dtype == np.int64
        assert got.tolist() == (counts * int(oracle.quanta(laws, c))).tolist(), c


def test_a_constant_budget_builds_no_row_of_its_members():
    laws = LawTriple(OffspringLaw((0.5, 0.5)), Uniform(0.0, 1.0), Constant(1.2))
    tracemalloc.start()
    try:
        # 10**8 members, under the claim cap: their budget stays within int64
        budget = ReplicateRows(Universe(Seed(1), laws), np.arange(1), 0).budgets(np.arange(1), 10 ** 8)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the row would take 800 MB
    assert peak < 1 << 20
    assert budget == 10 ** 8 * int(oracle.quanta(laws, 1.2))
    assert budget * laws.quantum == pytest.approx(1.2e8, rel=1e-9)
