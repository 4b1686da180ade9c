"""The chunked hashing kernel and its reduced readers against the references.

Units come from the pure-Python oracle, hashed one cell at a time; offspring
totals are checked against ``quantile(u).sum()``, budgets against the summed
materialised row and claims against ``icdf`` of a whole row at once.  Counts
sit on either side of the kernel's piece size, so every way of cutting a
block (one piece, runs of whole rows, pieces of one row) is compared.  The
word thresholds from which offspring are counted must classify every word
as the float comparison of its unit does.
"""

import numpy as np
import pytest
from oracle import cuts, kernel_units, quantile, resource_row, row_totals, unit_row, word_unit

import rdbp.universe
from rdbp import (
    INDEX_CAP,
    Constant,
    Exponential,
    LawTriple,
    OffspringLaw,
    ScaledBeta,
    Seed,
    Uniform,
    Universe,
)
from rdbp.distributions import _first_word_above
from rdbp.universe import (
    _GOLDEN,
    _MASK64,
    _TAG_AUX,
    _TAG_CLAIM,
    _TAG_OFFSPRING,
    _TAG_RESOURCE,
    CHUNK_CELLS,
    ReplicateRows,
    _units,
    _word_chunks,
)

CHUNK = CHUNK_CELLS
TRIPLE = LawTriple(OffspringLaw((0.25, 0.0, 0.75)), Uniform(0.0, 2.0), Uniform(0.5, 1.5))


def _kernel_block(keys, count):
    """The units of every piece of ``_word_chunks`` copied into one block."""
    cells = np.full(len(keys) * count, np.nan)
    for start, _, _, words, _ in _word_chunks(np.asarray(keys, dtype=np.uint64), np.full(len(keys), count)):
        _units(words, cells[start:start + len(words)])
    return cells.reshape(len(keys), count)


def _oracle_block(keys, count):
    return np.array([[word_unit(int(key), k) for k in range(1, count + 1)] for key in keys])


@pytest.mark.parametrize("count", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_one_row_matches_the_scalar_hash(count):
    u = Universe(Seed(77), TRIPLE, 12)
    for tag in (_TAG_OFFSPRING, _TAG_CLAIM):
        np.testing.assert_array_equal(kernel_units(u, tag, 9, count), unit_row(u, tag, 9, count))


@pytest.mark.parametrize("count", [1, 3, 7, 100, CHUNK // 3 + 1])
def test_short_rows_across_a_piece_boundary(count):
    # enough rows that the block is cut between two runs of whole rows
    ids = np.arange(40, 40 + 3 * CHUNK // count + 2)
    rows = ReplicateRows(Universe(Seed(3), TRIPLE), ids, 4)
    block = rows.aux(np.arange(len(ids)), count)
    assert block.shape[0] * count > CHUNK
    for i in (0, len(ids) // 2, len(ids) - 1, *range(CHUNK // count - 1, CHUNK // count + 2)):
        want = unit_row(Universe(Seed(3), TRIPLE, int(ids[i])), _TAG_AUX, 4, count)
        np.testing.assert_array_equal(block[i], want)


def test_every_cut_of_a_block_with_tiny_pieces(monkeypatch):
    monkeypatch.setattr(rdbp.universe, "CHUNK_CELLS", 10)
    keys = [0, 1, 5, 2**63, _MASK64 - 1, _MASK64]
    for m in range(1, len(keys) + 1):
        for count in (1, 2, 3, 9, 10, 11, 21, 95):
            np.testing.assert_array_equal(_kernel_block(keys[:m], count), _oracle_block(keys[:m], count))


def test_keys_near_two_to_the_64():
    keys = [_MASK64, _MASK64 - 1, _MASK64 - _GOLDEN, 2**63, 2**63 - 1, 0]
    np.testing.assert_array_equal(_kernel_block(keys, 40), _oracle_block(keys, 40))


def test_positions_near_the_index_cap():
    # the kernel always starts at k = 1; position K of key h hashes the word
    # (K * G) ^ h, which is position 1 of key (K * G) ^ h ^ G
    key = 0xD1B54A32D192ED03
    positions = range(INDEX_CAP - 4, INDEX_CAP + 1)
    shifted = [((k * _GOLDEN) & _MASK64) ^ key ^ _GOLDEN for k in positions]
    got = _kernel_block(shifted, 1)[:, 0]
    np.testing.assert_array_equal(got, [word_unit(key, k) for k in positions])


def test_unit_one_is_reachable_and_counted_like_quantile():
    # the largest word maps to exactly 1.0 after rounding: the interval is
    # open only below
    assert ((2**53 - 1) + 0.5) * 2.0**-53 == 1.0
    law = OffspringLaw((0.5, 0.0, 0.0, 0.5))
    u = np.array([[1.0, 0.5, np.nextafter(0.5, 1.0)]])
    assert row_totals(law, u).tolist() == [quantile(law, u).sum()] == [6]


OFFSPRING_LAWS = {
    "zero-inside": OffspringLaw((0.25, 0.0, 0.75)),
    "trailing-zeros": OffspringLaw((0.3, 0.3, 0.4, 0.0, 0.0)),
    "repeated-cuts": OffspringLaw((0.5, 0.0, 0.0, 0.5)),
    "one-atom": OffspringLaw((1.0,)),
    "ten-values": OffspringLaw((0.1,) * 10),
    "mass-short-of-one": OffspringLaw((0.5, 0.4999999999999, 0.0)),
}


@pytest.mark.parametrize("law", OFFSPRING_LAWS.values(), ids=OFFSPRING_LAWS.keys())
def test_row_totals_at_the_cuts(law):
    cdf = law.cumulative()
    edges = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0), [1e-300, 1.0]])
    u = np.clip(edges, 1e-300, 1.0).reshape(1, -1)
    assert row_totals(law, u).tolist() == quantile(law, u).sum(axis=1).tolist()
    # one deviate per row, and rows of several
    assert row_totals(law, u.T).tolist() == quantile(law, u.T)[:, 0].tolist()


@pytest.mark.parametrize("law", OFFSPRING_LAWS.values(), ids=OFFSPRING_LAWS.keys())
@pytest.mark.parametrize("count", [1, 9, 130, CHUNK + 1, 2 * CHUNK + 3])
def test_offspring_totals_match_summed_quantiles(law, count):
    triple = LawTriple(law, Uniform(0.0, 2.0), Constant(1.0))
    base = Universe(Seed(21), triple)
    ids = np.array([5, 0, 17])
    got = ReplicateRows(base, ids, 2).offspring_totals(np.arange(3), count)
    want = [quantile(law, kernel_units(base.derive_replicate(int(i)), _TAG_OFFSPRING, 2, count)).sum()
            for i in ids]
    assert got.tolist() == want


@pytest.mark.parametrize("counts", [range(1, 301), [10**5 + 7]], ids=["1-300", "100007"])
def test_constant_budgets_match_the_summed_row(counts):
    triple = LawTriple(OffspringLaw((0.5, 0.5)), Uniform(0.0, 1.0), Constant(0.3))
    base = Universe(Seed(4), triple)
    rows = ReplicateRows(base, np.arange(3), 1)
    for count in counts:
        got = rows.budgets(np.array([2, 0]), count)
        row = resource_row(base, 1, count)
        assert np.all(row == 0.3)
        assert got.tolist() == [row.sum()] * 2 == np.full((2, count), 0.3).sum(axis=1).tolist()


@pytest.mark.parametrize("count", [1, 9, 130, CHUNK + 1, 2 * CHUNK + 3])
def test_budgets_match_the_summed_row(count):
    base = Universe(Seed(4), TRIPLE)
    ids = np.array([8, 1])
    got = ReplicateRows(base, ids, 3).budgets(np.array([1, 0]), count)
    want = [resource_row(base.derive_replicate(int(i)), 3, count).sum() for i in ids[::-1]]
    assert got.tolist() == want


@pytest.mark.parametrize(
    "claim",
    [ScaledBeta(2.0, 3.0, 2.0), ScaledBeta(2.0, 2.0, 2.0), ScaledBeta(5.0, 0.5, 2.0), Exponential(1.5)],
    ids=["beta", "beta-2-2", "beta-5-0.5", "exp"],
)
def test_chunked_claims_match_one_whole_row_icdf(claim):
    count = 3 * CHUNK + 5
    base = Universe(Seed(6), LawTriple(OffspringLaw((0.5, 0.5)), claim, Constant(1.0)), 2)
    want = claim.icdf(unit_row(base, _TAG_CLAIM, 7, count))
    np.testing.assert_array_equal(base.claim_row(7, count), want)


def test_resource_units_are_hashed_like_the_oracle():
    base = Universe(Seed(10), TRIPLE, 3)
    np.testing.assert_array_equal(kernel_units(base, _TAG_RESOURCE, 0, 50), unit_row(base, _TAG_RESOURCE, 0, 50))


#: the offspring laws of the benchmark workloads
WORKLOAD_LAWS = [OffspringLaw((0.25, 0.0, 0.75)), OffspringLaw((0.5, 0.0, 0.0, 0.5))]
WORD_CUTS = sorted({0.25, 1 / 3, 0.5, 1 - 2.0**-53, 1e-300,
                    *(cut for law in (*OFFSPRING_LAWS.values(), *WORKLOAD_LAWS) for cut, _ in cuts(law))})


def _unit_of(words):
    return _units(np.array(words, dtype=np.uint64), np.empty(len(words)))


@pytest.mark.parametrize("cut", WORD_CUTS)
def test_word_threshold_classifies_like_the_unit(cut):
    first = _first_word_above(cut)
    words = [0, first, _MASK64] + ([first - 1] if first else [])
    # first is above the cut and the word before it is not, as the units say
    above = [w >= first for w in words]
    assert above == (_unit_of(words) > cut).tolist()
    # the same expression in Python floats, as the oracle computes units
    assert above == [((w >> 11) + 0.5) * 2.0**-53 > cut for w in words]


def test_word_thresholds_at_the_extremes():
    # the largest unit below 1 is 1 - 2**-52; only the top 53-bit value rounds to 1.0
    assert _first_word_above(1 - 2.0**-53) == (2**53 - 1) << 11
    assert _first_word_above(1e-300) == 0
    assert _first_word_above(1.0) == 2**64


@pytest.mark.parametrize("law", [*OFFSPRING_LAWS.values(), *WORKLOAD_LAWS],
                         ids=[*OFFSPRING_LAWS.keys(), "workload-binary", "workload-three"])
def test_word_totals_match_row_totals_of_the_units(law):
    rng = np.random.default_rng(5)
    edges = [w for cut, _ in cuts(law) for w in (_first_word_above(cut), _first_word_above(cut) - 1) if w >= 0]
    words = np.concatenate([rng.integers(0, _MASK64, 600, dtype=np.uint64, endpoint=True),
                            np.array(edges + [0, _MASK64], dtype=np.uint64)])
    rng.shuffle(words)
    units = _unit_of(words)
    n = len(words)
    for cells in ([n], [1] * n, [1, 2, 3, 40, 1, 7, n - 54]):
        starts = np.cumsum(cells) - cells
        want = [int(row_totals(law, units[s:s + c].reshape(1, -1))[0]) for s, c in zip(starts, cells)]
        assert law.word_totals(words, np.array(cells)).tolist() == want
