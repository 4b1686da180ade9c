"""The chunked hashing kernel and its reduced readers against the references.

Units come from the pure-Python oracle, hashed one cell at a time; offspring
totals are checked against ``quantile(u).sum()``, budgets against the summed
materialised row and claims against the quanta of ``icdf`` of a whole row
at once.  Counts
sit on either side of the kernel's piece size, so every way of cutting a
block (one piece, runs of whole rows, pieces of one row) is compared.  The
word thresholds from which offspring are counted must classify every word
as the float comparison of its unit does.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import (
    cumulative,
    cuts,
    kernel_units,
    quanta,
    quantile,
    resource_row,
    row_key,
    row_totals,
    unit_row,
    units,
    word_at_key,
    word_row,
    word_unit,
)

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
        want = word_row(Universe(Seed(3), TRIPLE, int(ids[i])), _TAG_AUX, 4, count)
        np.testing.assert_array_equal(block[i], want)


@settings(max_examples=80, deadline=None)
@given(
    layout=st.sampled_from(["equal-counts", "ragged", "sliced-row"]),
    seed=st.integers(0, 2 ** 64 - 1),
    n=st.integers(0, INDEX_CAP),
    first=st.integers(0, 10 ** 9),
    data=st.data(),
)
@example(layout="equal-counts", seed=0, n=0, first=0, data=None)
@example(layout="ragged", seed=0, n=0, first=0, data=None)
@example(layout="sliced-row", seed=0, n=0, first=0, data=None)
def test_aux_words_are_distinct_within_every_row(layout, seed, n, first, data):
    """Every row of ``ReplicateRows.aux`` holds pairwise distinct words, each
    the scalar oracle's word of its position, in pieces of 8 cells: a block
    of rows of one count, ragged rows, and one row longer than a piece."""
    def draw(strategy, fixed):
        return fixed if data is None else data.draw(strategy)

    if layout == "equal-counts":
        m, counts = draw(st.integers(1, 6), 3), draw(st.integers(1, 8), 5)
    elif layout == "ragged":
        counts = np.array(draw(st.lists(st.integers(0, 7), min_size=2, max_size=8), [3, 1, 0, 7, 2]))
        m = len(counts)
    else:
        m, counts = 1, np.array([draw(st.integers(9, 60), 30)])
    base = Universe(Seed(seed), TRIPLE)
    ids = first + np.arange(m)
    with mock.patch.object(rdbp.universe, "CHUNK_CELLS", 8):
        got = ReplicateRows(base, ids, n).aux(np.arange(m), counts)
    assert got.dtype == np.uint64
    flat = np.broadcast_to(counts, (m,))
    rows = got if np.ndim(counts) == 0 else np.split(got, np.cumsum(flat)[:-1])
    for i, (row, count) in enumerate(zip(rows, flat.tolist())):
        assert np.unique(row).size == row.size == count
        key = row_key(base.derive_replicate(int(ids[i])), _TAG_AUX, n)
        assert row.tolist() == [word_at_key(key, k) for k in range(1, count + 1)]


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


def test_the_largest_word_gives_a_unit_below_one_and_a_finite_draw():
    # units lie strictly inside (0, 1): 2**-53 at the bottom, 1 - 2**-53 at the top
    low, top = _unit_of([0, _MASK64])
    assert low == 2.0**-53 and top == 1.0 - 2.0**-53
    draw = float(Exponential(1.5).icdf(np.array([top]))[0])
    assert math.isfinite(draw) and draw == pytest.approx(53 * math.log(2.0) / 1.5, rel=1e-12)
    # and it is counted like quantile, as the largest litter
    law = OffspringLaw((0.5, 0.0, 0.0, 0.5))
    u = np.array([[top, 0.5, np.nextafter(0.5, 1.0)]])
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
    cdf = cumulative(law)
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
    step = int(quanta(triple, 0.3))
    for count in counts:
        got = rows.budgets(np.array([2, 0]), count)
        row = resource_row(base, 1, count)
        assert np.all(row == step)
        assert got.tolist() == [row.sum()] * 2 == [count * step] * 2


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
    want = quanta(base.laws, claim.icdf(unit_row(base, _TAG_CLAIM, 7, count)))
    np.testing.assert_array_equal(base.generation(7).claims(np.zeros(1, dtype=np.intp), count)[0], want)
    np.testing.assert_array_equal(base.claim_row(7, count), want * base.laws.quantum)


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
    # 2**64 (no unit exceeds the cut) is no word
    words = [0, _MASK64] + [w for w in (first - 1, first) if 0 <= w <= _MASK64]
    # first is above the cut and the word before it is not, as the units say
    above = [w >= first for w in words]
    assert above == (_unit_of(words) > cut).tolist()
    # the same expression in Python floats, as the oracle computes units
    assert above == [((w >> 11) | 1) * 2.0**-53 > cut for w in words]


def test_word_thresholds_at_the_extremes():
    # no unit exceeds the largest, 1 - 2**-53, which the top two 53-bit
    # values give; the next unit down is 1 - 3 * 2**-53
    assert _first_word_above(1 - 2.0**-53) == 2**64
    assert _first_word_above(1 - 3 * 2.0**-53) == (2**53 - 2) << 11
    # every unit exceeds 1e-300, and all but the smallest, 2**-53, exceed it
    assert _first_word_above(1e-300) == 0
    assert _first_word_above(2.0**-53) == 2 << 11
    assert _first_word_above(1.0) == 2**64


def test_a_cut_no_unit_exceeds_counts_nothing():
    law = OffspringLaw((1.0 - 2.0**-53, 2.0**-53))
    assert law.word_totals(np.array([_MASK64, 0], dtype=np.uint64), np.array([1, 1])).tolist() == [0, 0]


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


#: words at the ends of the unit's range: the smallest unit 2**-53 (0 and
#: 2**12 - 1), one just above 1/2, and the largest unit 1 - 2**-53
#: (2**64 - 2**12 and 2**64 - 1)
EXTREME_WORDS = [0, 2**12 - 1, 2**63, 2**64 - 2**12, 2**64 - 1]


def _unmix(z):
    """The word whose ``_mix`` is z: each xorshift and odd product undone."""
    def unshift(z, s):
        x = z
        for _ in range(64 // s + 1):
            x = z ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = unshift((z * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK64, 27)
    return unshift((z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK64, 30)


def test_unmix_inverts_the_mix():
    assert [rdbp.universe._mix(_unmix(w)) for w in EXTREME_WORDS] == EXTREME_WORDS


IN_PLACE_LAWS = {
    "uniform": Uniform(0.0, 2.0),
    "uniform-lo": Uniform(0.5, 1.5),
    "exponential": Exponential(1.5),
    "constant": Constant(0.3),
    "beta-table": ScaledBeta(2.0, 3.0, 2.0),
    "beta-betaincinv": ScaledBeta(0.5, 2.0, 1.0),
}


@pytest.mark.parametrize("law", IN_PLACE_LAWS.values(), ids=IN_PLACE_LAWS.keys())
def test_laws_write_in_place_what_they_return(law):
    u = np.concatenate([_unit_of(EXTREME_WORDS), np.random.default_rng(3).random(3000)])
    with np.errstate(divide="ignore"):
        want = law.icdf(u)
        got = u.copy()
        assert law.icdf(got, out=got) is got
        fresh = np.full_like(u, np.nan)
        assert law.icdf(u, out=fresh) is fresh
        one = law.icdf(u[3])
    assert got.tobytes() == fresh.tobytes() == np.asarray(want).tobytes()
    assert np.asarray(one).tobytes() == want[3:4].tobytes()


@pytest.mark.parametrize("law", IN_PLACE_LAWS.values(), ids=IN_PLACE_LAWS.keys())
def test_readers_match_the_laws_on_units_built_whole(monkeypatch, law):
    """Claims, aux words and budgets read piece by piece, each piece's
    values written over its units and then in quanta into the block,
    against the quanta of ``law.icdf`` of whole rows of units hashed one
    cell at a time.  The first cell of each row has one of
    EXTREME_WORDS, and the rows cross the lowered pieces."""
    monkeypatch.setattr(rdbp.universe, "CHUNK_CELLS", 7)
    keys = np.array([_unmix(w) ^ _GOLDEN for w in EXTREME_WORDS], dtype=np.uint64)
    monkeypatch.setattr(rdbp.universe, "_row_keys", lambda base, tag, ids, n: keys[ids])
    counts = np.array([1, 5, 9, 20, 3])
    rows = np.arange(len(keys))
    words = [np.array([word_at_key(int(key), k) for k in range(1, c + 1)], dtype=np.uint64)
             for key, c in zip(keys, counts)]
    assert [int(w[0]) for w in words] == EXTREME_WORDS
    rows_units = [units(w) for w in words]
    assert [u[0] for u in rows_units] == _unit_of(EXTREME_WORDS).tolist()
    assert [u[1] for u in rows_units[1:]] == [word_unit(int(key), 2) for key in keys[1:]]
    triple = LawTriple(OffspringLaw((0.5, 0.5)), law, law)
    reader = ReplicateRows(Universe(Seed(1), triple), rows, 0)
    want = [quanta(triple, law.icdf(u)) for u in rows_units]
    assert reader.claims(rows, counts).tobytes() == np.concatenate(want).tobytes()
    # one count for all rows: the (rows, count) block
    assert reader.claims(rows[1:], 3).tobytes() == np.concatenate([row[:3] for row in want[1:]]).tobytes()
    assert reader.aux(rows, counts).tobytes() == np.concatenate(words).tobytes()
    assert reader.budgets(rows, counts).tobytes() == np.array([row.sum() for row in want]).tobytes()
