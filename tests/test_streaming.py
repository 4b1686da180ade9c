"""Rows that are reduced without being built, against the rows built whole.

``ReplicateRows.served_in_arrival_order`` counts a row served in arrival
order piece by piece and stops hashing at the piece where its running
total crosses the budget; the engine gives it every row longer than
``BLOCK_CELLS`` that fcfs serves.  A constant resource law's budget
follows ``np.sum``'s pairwise tree without a row as long as the row it
sums.  With the kernel's pieces and the engine's batches patched small,
each must give exactly what the materialised row gives.
"""

import math
import tracemalloc

import numpy as np
import pytest

import rdbp.engine
import rdbp.universe
import oracle
from rdbp import (
    Constant,
    LawTriple,
    OffspringLaw,
    ProcessSpec,
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


class _Spiked(Uniform):
    """U(0, 2) claims with ``spike`` wherever the unit is below 0.1."""

    spike = math.nan

    def icdf(self, u):
        claims = super().icdf(u)
        claims[np.asarray(u) < 0.1] = self.spike
        return claims


class _Infinite(_Spiked):
    spike = math.inf


def _laws(claim):
    return LawTriple(OffspringLaw((0.25, 0.0, 0.75)), claim, Constant(1.2))


@pytest.fixture
def pieces(monkeypatch):
    """The claim cells of each piece the kernel hashes, with pieces of PIECE
    cells."""
    seen = []
    real = rdbp.universe._word_chunks

    def counted(keys, counts):
        for piece in real(keys, counts):
            seen.append(len(piece[3]))
            yield piece

    monkeypatch.setattr(rdbp.universe, "CHUNK_CELLS", PIECE)
    monkeypatch.setattr(rdbp.universe, "_word_chunks", counted)
    return seen


def _row(claim, seed=5, n=3):
    reader = ReplicateRows(Universe(Seed(seed), _laws(claim)), np.array([17, 40]), n)
    return reader, reader.claims(np.array([1]), COUNT)[0]


def _budgets(cum):
    """Budgets that cross the row at every kind of place: nowhere, at 0, at a
    NaN, in the first piece, at a piece's last total, and in the last piece."""
    return {
        "zero": 0.0,
        "nan": math.nan,
        "inf": math.inf,
        "first piece": (cum[2] + cum[3]) / 2,
        "a piece's last total": cum[3 * PIECE - 1],
        "the first piece's last total": cum[PIECE - 1],
        "last piece": cum[-2],
        "the row's total": cum[-1],
    }


def _crossing_pieces(cum, budget):
    """The pieces read up to the first running total not within the budget."""
    over = np.flatnonzero(~(cum <= budget))
    return over[0] // PIECE + 1 if over.size else -(-cum.size // PIECE)


@pytest.mark.parametrize("claim", [Uniform(0.0, 2.0), Constant(0.3), _Spiked(0.0, 2.0), _Infinite(0.0, 2.0)],
                         ids=["uniform", "constant", "nan claims", "inf claims"])
@pytest.mark.parametrize("seed", [5, 6, 7])
def test_the_streamed_count_is_the_count_of_the_whole_row(pieces, claim, seed):
    reader, row = _row(claim, seed)
    cum = np.cumsum(row)
    # the spiked laws do spike this row
    assert np.isfinite(cum).all() != isinstance(claim, _Spiked)
    for where, budget in _budgets(cum).items():
        del pieces[:]
        got = reader.served_in_arrival_order(1, COUNT, np.float64(budget))
        want = int(_cumsum_count_rows(row[None].copy(), np.array([budget]))[0])
        assert got == want == oracle.reference_count("fcfs", row, budget), where
        # no claim past the crossing is hashed
        assert len(pieces) == _crossing_pieces(cum, budget), where
        assert pieces[:-1] == [PIECE] * (len(pieces) - 1)


def test_the_crossing_pieces_are_the_expected_ones(pieces):
    reader, row = _row(Uniform(0.0, 2.0))
    cum = np.cumsum(row)
    budgets = _budgets(cum)
    assert _crossing_pieces(cum, budgets["first piece"]) == 1
    # a budget equal to a piece's last total is not crossed in that piece
    assert _crossing_pieces(cum, budgets["a piece's last total"]) == 4
    assert _crossing_pieces(cum, budgets["last piece"]) == 7 == _crossing_pieces(cum, math.inf)
    assert _crossing_pieces(cum, 0.0) == _crossing_pieces(cum, math.nan) == 1
    assert reader.served_in_arrival_order(1, COUNT, budgets["a piece's last total"]) == 3 * PIECE


def test_an_empty_row_serves_nobody(pieces):
    reader, _ = _row(Uniform(0.0, 2.0))
    del pieces[:]
    assert reader.served_in_arrival_order(0, 0, 1.0) == 0
    assert pieces == []


LONG_ROW_TRIPLES = {
    # budgets of 0.1 to 2 per member against claims of mean 1 and 1.5
    # children per member: the crossing falls in every piece, or nowhere
    f"constant-{c}": LawTriple(OffspringLaw((0.25, 0.0, 0.75)), Uniform(0.0, 2.0), Constant(c))
    for c in (0.1, 0.7, 1.4, 2.0)
} | {
    "uniform-resources": LawTriple(OffspringLaw((0.3, 0.3, 0.4)), Uniform(0.0, 2.0), Uniform(0.0, 2.4)),
}


@pytest.fixture
def streamed(monkeypatch):
    """The count of every row the engine streams, with the kernel's pieces
    and the engine's batches made small."""
    counts = []
    real = ReplicateRows.served_in_arrival_order

    def spy(self, row, count, budget):
        counts.append(count)
        return real(self, row, count, budget)

    monkeypatch.setattr(rdbp.universe, "CHUNK_CELLS", PIECE)
    monkeypatch.setattr(rdbp.engine, "BLOCK_CELLS", 20)
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
    assert streamed and min(streamed) > 20


@pytest.mark.parametrize("triple", LONG_ROW_TRIPLES.values(), ids=LONG_ROW_TRIPLES.keys())
def test_a_coupled_pass_streams_only_its_long_fcfs_rows(streamed, triple):
    specs = [ProcessSpec(laws=triple, policy=policy_from_token(token), initial_size=initial, horizon=5,
                         explosion_cap=400)
             for token in ("fcfs", "wf", "coinflip") for initial in (2, 40)]
    base = Universe(Seed(3), triple)
    ids = range(6)
    want = [[oracle.simulate(spec, base.derive_replicate(i)) for i in ids] for spec in specs]
    assert simulate_coupled_replicates(specs, base, ids) == want
    # every fcfs generation of more than BLOCK_CELLS children streamed, and
    # no wf or coinflip one did
    long_rows = [int(oracle.offspring_row(base.derive_replicate(i), n, size).sum())
                 for trajectories in want[:2] for i, traj in zip(ids, trajectories)
                 for n, size in enumerate(traj.sizes[:-1])]
    assert sorted(streamed) == sorted(c for c in long_rows if c > 20)
    assert streamed


CONSTANTS = (1.2, 0.1, 1 / 3, 2.7, 1e-7)


@pytest.fixture(scope="module")
def constant_sums():
    """Counts around numpy's pairwise block edges (8 and 128) and long random
    ones, with ``np.full(n, c).sum()`` of each for every constant c."""
    rng = np.random.default_rng(19)
    around = [k + d for step_ in (8, 128) for k in range(step_, 2 ** 15 + 1, step_) for d in (0, 1)]
    counts = np.unique(np.concatenate([np.arange(301), around, rng.integers(0, 3 * 10 ** 6, 200)]))
    return counts, {c: np.array([np.full(int(n), c).sum() for n in counts]) for c in CONSTANTS}


# the default row, and the shortest numpy's tree allows, under small pieces
@pytest.mark.parametrize("chunk, row", [(rdbp.universe.CHUNK_CELLS, rdbp.universe._CONSTANT_ROW), (10, 128)])
def test_constant_budgets_are_the_pairwise_sum_of_the_full_row(monkeypatch, constant_sums, chunk, row):
    monkeypatch.setattr(rdbp.universe, "CHUNK_CELLS", chunk)
    monkeypatch.setattr(rdbp.universe, "_CONSTANT_ROW", row)
    counts, sums = constant_sums
    # in an order other than their own, with each count read twice
    rows = np.random.default_rng(2).permutation(2 * counts.size)
    for c in CONSTANTS:
        base = Universe(Seed(1), LawTriple(OffspringLaw((0.5, 0.5)), Uniform(0.0, 1.0), Constant(c)))
        got = ReplicateRows(base, np.arange(2 * counts.size), 0).budgets(rows, np.tile(counts, 2))
        assert np.tile(sums[c], 2).tobytes() == got.tobytes(), c


def test_a_constant_budget_builds_no_row_of_its_members():
    base = Universe(Seed(1), LawTriple(OffspringLaw((0.5, 0.5)), Uniform(0.0, 1.0), Constant(1.2)))
    tracemalloc.start()
    try:
        budget = ReplicateRows(base, np.arange(1), 0).budgets(np.arange(1), 10 ** 9)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the row would take 8 GB; the longest one built takes 512 KiB
    assert peak < 1 << 20
    assert budget == pytest.approx(1.2e9, rel=1e-12)
