"""Rows that are reduced without being built, against the rows built whole.

``ReplicateRows.served_in_arrival_order`` counts a row served in arrival
order piece by piece from certified pairwise piece sums and stops hashing
at the piece where its running total crosses the budget; a row it cannot
certify is read once more with ``np.cumsum``.  The engine gives it every
row longer than ``BLOCK_CELLS`` that fcfs serves.  A constant resource
law's budget follows ``np.sum``'s pairwise tree without a row as long as
the row it sums.  With the kernel's pieces and the engine's batches patched
small, each must give exactly what the materialised row gives.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rdbp.engine
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


class _Spiked(Uniform):
    """U(0, 2) claims with ``spike`` wherever the unit is below 0.1."""

    spike = math.nan

    def icdf(self, u, out=None):
        # the mask is taken before the claims may overwrite the units
        spiked = np.asarray(u) < 0.1
        claims = super().icdf(u, out=out)
        claims[spiked] = self.spike
        return claims


class _Infinite(_Spiked):
    spike = math.inf


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


#: budgets that sit on a sequential prefix total, or an ulp from one: the
#: pairwise total cannot tell on which side of them the row crosses, so the
#: row may be read a second time, by ``np.cumsum``
ON_A_TOTAL = ("a piece's last total", "an ulp below a piece's last total", "an ulp above a piece's last total",
              "the first piece's last total", "last piece", "the row's total")


def _budgets(cum):
    """Budgets that cross the row at every kind of place: nowhere, at 0, at a
    NaN, in the first piece, at a piece's last total or an ulp from it, and
    in the last piece."""
    return {
        "zero": 0.0,
        "nan": math.nan,
        "inf": math.inf,
        "first piece": (cum[2] + cum[3]) / 2,
        "a piece's last total": cum[3 * PIECE - 1],
        "an ulp below a piece's last total": np.nextafter(cum[2 * PIECE - 1], -math.inf),
        "an ulp above a piece's last total": np.nextafter(cum[2 * PIECE - 1], math.inf),
        "the first piece's last total": cum[PIECE - 1],
        "last piece": cum[-2],
        "the row's total": cum[-1],
    }


def _crossing_pieces(cum, budget, piece=PIECE):
    """The pieces read up to the first running total not within the budget."""
    over = np.flatnonzero(~(cum <= budget))
    return over[0] // piece + 1 if over.size else -(-cum.size // piece)


def _hashed_no_piece_past_the_crossing(passes, cum, budget, piece=PIECE):
    """Each pass hashed whole pieces up to the crossing at most, and the
    last pass, which decided the count, up to the crossing."""
    crossing = _crossing_pieces(cum, budget, piece)
    assert 1 <= len(passes) <= 2
    assert all(len(hashed) <= crossing and hashed[:-1] == [piece] * (len(hashed) - 1) for hashed in passes)
    return len(passes[-1]) == crossing


@pytest.mark.parametrize("claim", [Uniform(0.0, 2.0), Constant(0.3), _Spiked(0.0, 2.0), _Infinite(0.0, 2.0)],
                         ids=["uniform", "constant", "nan claims", "inf claims"])
@pytest.mark.parametrize("seed", [5, 6, 7])
def test_the_streamed_count_is_the_count_of_the_whole_row(passes, claim, seed):
    reader, row = _row(claim, seed)
    cum = np.cumsum(row)
    # the spiked laws do spike this row
    assert np.isfinite(cum).all() != isinstance(claim, _Spiked)
    for where, budget in _budgets(cum).items():
        del passes[:]
        got = reader.served_in_arrival_order(1, COUNT, np.float64(budget))
        want = int(_cumsum_count_rows(row[None].copy(), np.array([budget]))[0])
        assert got == want == oracle.reference_count("fcfs", row, budget), where
        # no claim past the crossing is hashed, and only a budget on a
        # prefix total reads the row twice
        assert _hashed_no_piece_past_the_crossing(passes, cum, budget), where
        assert len(passes) == 1 or where in ON_A_TOTAL, where


def test_the_crossing_pieces_are_the_expected_ones(passes):
    reader, row = _row(Uniform(0.0, 2.0))
    cum = np.cumsum(row)
    budgets = _budgets(cum)
    assert _crossing_pieces(cum, budgets["first piece"]) == 1
    # a budget equal to a piece's last total is not crossed in that piece
    assert _crossing_pieces(cum, budgets["a piece's last total"]) == 4
    assert _crossing_pieces(cum, budgets["last piece"]) == 7 == _crossing_pieces(cum, math.inf)
    assert _crossing_pieces(cum, 0.0) == _crossing_pieces(cum, math.nan) == 1
    assert reader.served_in_arrival_order(1, COUNT, budgets["a piece's last total"]) == 3 * PIECE


def test_an_empty_row_serves_nobody(passes):
    reader, _ = _row(Uniform(0.0, 2.0))
    del passes[:]
    assert reader.served_in_arrival_order(0, 0, 1.0) == 0
    assert passes == [[]]


STREAMED_CLAIMS = {
    "uniform": Uniform(0.0, 2.0),
    # every prefix total of a dyadic constant is exact, so budgets land on them
    "lattice-0.25": Constant(0.25),
    "lattice-0.3": Constant(0.3),
    "nan-spiked": _Spiked(0.0, 2.0),
    "inf-spiked": _Infinite(0.0, 2.0),
    "exponential": Exponential(1.0),
    "beta": ScaledBeta(2.0, 3.0, 2.0),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    law=st.sampled_from(sorted(STREAMED_CLAIMS)),
    seed=st.integers(0, 2**32),
    piece=st.sampled_from([3, 8, 40]),
    block=st.sampled_from([4, 1024]),
    count=st.integers(1, 240),
    budget=st.one_of(st.sampled_from(["zero", "nan", "inf", "between"]), st.tuples(st.integers(0, 10**6),
                                                                                  st.sampled_from([-1, 0, 1]))),
    share=st.floats(0.0, 1.0),
)
@example(law="uniform", seed=1, piece=8, block=4, count=80, budget=(15, -1), share=0.0)
@example(law="lattice-0.25", seed=1, piece=8, block=1024, count=80, budget=(23, 0), share=0.0)
def test_the_certified_count_is_the_sequential_one(law, seed, piece, block, count, budget, share):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rdbp.policies, "_PREFIX_BLOCK", block)
        passes = _count_passes(patch, piece)
        reader = ReplicateRows(Universe(Seed(seed), _laws(STREAMED_CLAIMS[law])), np.array([17, 40]), 3)
        row = reader.claims(np.array([1]), count)[0]
        cum = np.cumsum(row)
        if isinstance(budget, tuple):  # at a prefix total, or an ulp either side of it
            at, side = budget
            budget = cum[at % count] if side == 0 else np.nextafter(cum[at % count], side * math.inf)
        else:
            finite = cum[np.isfinite(cum)]
            budget = {"zero": 0.0, "nan": math.nan, "inf": math.inf,
                      "between": share * finite[-1] if finite.size else share}[budget]
        del passes[:]
        got = reader.served_in_arrival_order(1, count, np.float64(budget))
        assert got == _cumsum_count_rows(row[None].copy(), np.array([budget]))[0]
        assert got == oracle.reference_count("fcfs", row, budget)
        _hashed_no_piece_past_the_crossing(passes, cum, budget, piece)


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
