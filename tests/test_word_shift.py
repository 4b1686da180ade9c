"""The shift path of uniform laws of power-of-two width, against the float path.

A ``Uniform(0, 2**E)`` law on the lattice 2**-s gives the quanta of a
hashed word w as ``w >> (64 - E - s)`` (``Uniform.word_shift``), and the
reader writes those straight into its block, building no unit and no value.
Word for word, that must equal what the float path gives: the unit
``((w >> 11) | 1) * 2**-53``, ``icdf``, the scaling by 2**s and the
truncation.  A shift of 64 or more must give zeros, as the float path does.
Laws with no exact shift must keep the float path.  The readers' claims,
budgets and streamed arrival-order counts are checked against
``tests/oracle.py``, whose reference applies ``icdf`` to the kernel's units.
"""

import numpy as np
import pytest

import oracle
import rdbp.universe
from rdbp import Constant, Exponential, LawTriple, OffspringLaw, ScaledBeta, Seed, Uniform, Universe
from rdbp.universe import ReplicateRows, _quanta

#: the smallest unit (0 and 2**11 - 1), the two words on either side of the
#: first quantum of a shift of 29, one just above 1/2 and the largest unit
EDGE_WORDS = [0, 2**11 - 1, 2**29 - 1, 2**29, 2**63, 2**64 - 1]
OFFSPRING = OffspringLaw((0.25, 0.0, 0.75))


def _words(seed=11, size=3000):
    rng = np.random.default_rng(seed)
    random = rng.integers(0, 2**64, size, dtype=np.uint64, endpoint=False)
    return np.concatenate([np.array(EDGE_WORDS, dtype=np.uint64), random])


def _float_quanta(law, words, bits):
    """The float path, outside the kernel: ``icdf`` of the units, times
    2**bits, truncated toward zero."""
    return (law.icdf(oracle.units(words)) * 2.0**bits).astype(np.int64)


def _kernel_quanta(law, shift, words, bits):
    out = np.full(len(words), -1, dtype=np.int64)  # every cell must be written
    return _quanta(law, shift, words.copy(), np.empty(len(words)), 2.0**bits, out)


@pytest.mark.parametrize("exponent", range(-3, 4))
@pytest.mark.parametrize("offset", [-70, -64, -1, 0, 20, 35, 52])
def test_the_shift_gives_the_quanta_of_the_float_path(exponent, offset):
    """U(0, 2**E) on lattices 2**-s with E + s = offset: the workloads'
    own lattice (E + s = 35), the largest exact one (52), coarser ones, and
    ones where every value lies below one quantum (shifts of 64 to 134)."""
    law, bits, words = Uniform(0.0, 2.0**exponent), offset - exponent, _words(exponent + 3)
    shift = law.word_shift(bits)
    assert shift == 64 - offset
    want = _float_quanta(law, words, bits)
    assert _kernel_quanta(law, shift, words, bits).tobytes() == want.tobytes()
    assert _kernel_quanta(law, None, words, bits).tobytes() == want.tobytes()
    if shift >= 64:
        assert not want.any()


@pytest.mark.parametrize("exponent", range(-3, 4))
def test_no_shift_where_truncation_would_keep_the_one_bit(exponent):
    """At E + s = 53 the truncated quanta are (w >> 11) | 1, which no shift
    gives: the word 0 reads one quantum."""
    law = Uniform(0.0, 2.0**exponent)
    assert law.word_shift(53 - exponent) is None
    assert _float_quanta(law, np.zeros(1, dtype=np.uint64), 53 - exponent).tolist() == [1]


@pytest.mark.parametrize("law", [Uniform(0.0, 3.0), Uniform(0.5, 1.5), Uniform(0.2, 1.0),
                                 Uniform(0.0, 2.0**-1022), Uniform(0.0, 2.0**-1040)],
                         ids=["width-3", "lo-0.5", "lo-0.2", "hi-2^-1022", "hi-2^-1040"])
def test_laws_with_no_exact_shift_have_none(law):
    """A width that is no power of two, a lower end above 0, and an upper
    end below 2**-1021, where ``u * hi`` is rounded, take the float path."""
    for bits in (0, 20, 35, 1023):
        assert law.word_shift(bits) is None
    assert LawTriple(OFFSPRING, law, law).word_shifts == (None, None)


def test_the_rounded_subnormal_product_differs_from_the_shift():
    """Below 2**-1021, the product ``u * hi`` is rounded: on the lattice
    2**-1023, U(0, 2**-1022) reads one quantum for a word whose shift by 63
    reads none."""
    law, word = Uniform(0.0, 2.0**-1022), np.array([(2**52 - 1) << 11], dtype=np.uint64)
    assert _float_quanta(law, word, 1023).tolist() == [1]
    assert (word >> np.uint64(63)).tolist() == [0]


@pytest.mark.parametrize("claim,resource,shifts", [
    (Uniform(0.0, 2.0), Constant(1.2), (29, None)),
    (Uniform(0.0, 2.0), Uniform(0.0, 1.0), (29, 30)),
    (Uniform(0.0, 0.5), Uniform(0.0, 8.0), (33, 29)),
    (ScaledBeta(2.0, 2.0, 2.0), Exponential(1.5), (None, None)),
    (Uniform(0.0, 2.0**-35), Uniform(0.0, 1.0), (64, 29)),
    (Uniform(0.0, 2.0**-40), Uniform(0.0, 1.0), (69, 29)),
])
def test_each_law_gets_its_shift_on_the_triples_lattice(claim, resource, shifts):
    assert LawTriple(OFFSPRING, claim, resource).word_shifts == shifts


@pytest.mark.parametrize("claim,uses_units", [(Uniform(0.0, 2.0), False), (Uniform(0.0, 3.0), True),
                                               (Uniform(0.5, 1.5), True), (Uniform(0.2, 1.0), True)],
                         ids=["dyadic", "width-3", "lo-0.5", "lo-0.2"])
def test_only_laws_with_a_shift_skip_the_units(monkeypatch, claim, uses_units):
    laws = LawTriple(OFFSPRING, claim, Constant(1.2))
    universe = Universe(Seed(4), laws, 9)
    want = oracle.claim_row(universe, 2, 500)
    units, shifts = [], []
    real_units, icdf = rdbp.universe._units, Uniform.icdf
    monkeypatch.setattr(rdbp.universe, "_units", lambda words, out: units.append(len(words)) or real_units(words, out))
    monkeypatch.setattr(Uniform, "icdf", lambda self, u, out=None, *, shift=None:
                        shifts.append(shift) or icdf(self, u, out=out, shift=shift))
    got = universe.generation(2).claims(np.zeros(1, dtype=np.intp), 500)[0]
    assert got.tobytes() == want.tobytes()
    assert bool(units) is uses_units
    # both paths read the law through icdf; only the float path gives it units
    assert shifts and all((s is None) is uses_units for s in shifts)


#: claim and resource laws of the readers' tests: both with a shift (the
#: short-lived laws, and a narrow claim law beside a wide resource law), a
#: shifted claim law beside a float resource law and the reverse, and a
#: claim law whose shift reaches 64 and 69, whose claims are all zero
READER_LAWS = {
    "short-lived": (Uniform(0.0, 2.0), Uniform(0.0, 1.0)),
    "narrow-claims": (Uniform(0.0, 0.5), Uniform(0.0, 8.0)),
    "float-resource": (Uniform(0.0, 2.0), Exponential(1.5)),
    "float-claims": (Uniform(0.5, 1.5), Uniform(0.0, 4.0)),
    "shift-64": (Uniform(0.0, 2.0**-35), Uniform(0.0, 1.0)),
    "shift-69": (Uniform(0.0, 2.0**-40), Uniform(0.0, 1.0)),
}
IDS = [3, 11, 40, 41]
COUNTS = np.array([1, 9, 30, 17])


@pytest.fixture
def small_pieces(monkeypatch):
    """Pieces of 7 cells, so rows share pieces and span several."""
    monkeypatch.setattr(rdbp.universe, "CHUNK_CELLS", 7)


def _reader(claim, resource):
    base = Universe(Seed(21), LawTriple(OFFSPRING, claim, resource))
    return base, ReplicateRows(base, np.array(IDS), 4)


@pytest.mark.parametrize("laws", READER_LAWS.values(), ids=READER_LAWS.keys())
def test_claims_and_budgets_match_the_oracle(small_pieces, laws):
    base, reader = _reader(*laws)
    rows = np.arange(len(IDS))
    claims = [oracle.claim_row(base.derive_replicate(i), 4, int(c)) for i, c in zip(IDS, COUNTS)]
    resources = [oracle.resource_row(base.derive_replicate(i), 4, int(c)) for i, c in zip(IDS, COUNTS)]
    assert reader.claims(rows, COUNTS).tobytes() == np.concatenate(claims).tobytes()
    assert reader.claims(rows, 5).tobytes() == np.concatenate([
        oracle.claim_row(base.derive_replicate(i), 4, 5) for i in IDS]).tobytes()
    assert reader.budgets(rows, COUNTS).tolist() == [int(r.sum()) for r in resources]
    if base.laws.word_shifts[0] is not None and base.laws.word_shifts[0] >= 64:
        assert not np.concatenate(claims).any()


@pytest.mark.parametrize("laws", READER_LAWS.values(), ids=READER_LAWS.keys())
def test_arrival_order_counts_match_the_oracle(small_pieces, laws):
    base, reader = _reader(*laws)
    for row, replicate in enumerate(IDS):
        claims = oracle.claim_row(base.derive_replicate(replicate), 4, 30)
        cum = np.cumsum(claims)
        budgets = {0, int(cum[-1]), int(cum[-1]) + 1, 2**62, *map(int, cum[[0, 6, 7, 13, 20]]),
                   *(max(int(c) - 1, 0) for c in cum[[0, 6, 7, 13, 20]])}
        for budget in sorted(budgets):
            assert reader.served_in_arrival_order(row, 30, budget) == oracle.reference_count("fcfs", claims, budget)
