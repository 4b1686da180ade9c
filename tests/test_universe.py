import math

import numpy as np
import pytest
from scipy import stats

from oracle import aux_row, claim_at, claim_row, offspring_at, offspring_row, resource_at, resource_row, units

from rdbp import INDEX_CAP, Constant, LawTriple, OffspringLaw, Seed, Uniform, Universe
from rdbp.universe import ReplicateRows


@pytest.fixture
def triple():
    return LawTriple(OffspringLaw((0.25, 0.0, 0.75)), Uniform(0.0, 2.0), Uniform(0.5, 1.5))


@pytest.fixture
def u(triple):
    return Universe(Seed(99), triple)


class TestSeed:
    def test_parse_decimal(self):
        assert Seed.parse("42").value == 42

    def test_parse_hex(self):
        assert Seed.parse("0x2A").value == 42
        assert Seed.parse("0xdeadbeef").value == 0xDEADBEEF

    def test_parse_rejects_garbage(self):
        for bad in ["", "forty", "-3", "0x", "1.5"]:
            with pytest.raises(ValueError):
                Seed.parse(bad)

    def test_range(self):
        Seed(0)
        Seed(2 ** 64 - 1)
        with pytest.raises(ValueError):
            Seed(2 ** 64)
        with pytest.raises(ValueError):
            Seed(-1)


class TestAddressing:
    def test_rows_are_pure(self, u):
        a = u.claim_row(3, 10)
        b = u.claim_row(3, 10)
        np.testing.assert_array_equal(a, b)

    def test_prefix_consistency(self, u):
        """Values depend on their index, never on how much was asked for."""
        long = u.claim_row(5, 64)
        short = u.claim_row(5, 7)
        np.testing.assert_array_equal(long[:7], short)

    def test_scalar_equals_row_entry(self, u):
        row = claim_row(u, 2, 20)
        for k in (1, 7, 20):
            assert claim_at(u, 2, k) == row[k - 1]
        # the claim values shown are the quanta times the quantum
        assert (u.claim_row(2, 20) == row * u.laws.quantum).all()
        orow = offspring_row(u, 2, 20)
        for k in (1, 20):
            assert offspring_at(u, 2, k) == orow[k - 1]
        rrow = resource_row(u, 4, 5)
        assert resource_at(u, 4, 5) == rrow[4]

    def test_streams_differ_by_tag(self, u):
        a = u.claim_row(0, 50)
        b = aux_row(u, 0, 50)
        assert not np.array_equal(a, b)

    def test_rows_differ_by_generation(self, u):
        assert not np.array_equal(u.claim_row(0, 50), u.claim_row(1, 50))

    def test_replicates_differ_and_are_stable(self, u):
        r1 = u.derive_replicate(1)
        r1_again = u.derive_replicate(1)
        assert not np.array_equal(u.claim_row(0, 50), r1.claim_row(0, 50))
        np.testing.assert_array_equal(r1.claim_row(0, 50), r1_again.claim_row(0, 50))

    def test_seed_changes_everything(self, u, triple):
        other = Universe(Seed(100), triple)
        assert not np.array_equal(u.claim_row(0, 50), other.claim_row(0, 50))

    def test_index_bounds(self, u):
        claim_at(u, 0, INDEX_CAP)  # the last addressable slot works
        with pytest.raises(ValueError):
            claim_at(u, 0, INDEX_CAP + 1)
        with pytest.raises(ValueError):
            claim_at(u, 0, 0)
        # refused before anything is allocated
        with pytest.raises(ValueError):
            u.claim_row(0, INDEX_CAP + 1)
        with pytest.raises(ValueError):
            u.claim_row(0, -1)
        with pytest.raises(ValueError):
            u.claim_row(-1, 5)
        with pytest.raises(ValueError):
            u.claim_row(INDEX_CAP + 1, 5)
        with pytest.raises(ValueError):
            u.derive_replicate(-1)

    @pytest.mark.parametrize("counts, bad", [
        (np.array([-1, 5]), -1),
        (np.array([3, INDEX_CAP + 1, 2]), INDEX_CAP + 1),
        (np.array([INDEX_CAP + 1, -4]), -4),  # the furthest out, read as unsigned
        (-3, -3),  # one count for every row
    ])
    def test_a_bad_count_is_named(self, u, counts, bad):
        rows = ReplicateRows(u, np.arange(3), 0)
        picked = np.arange(np.size(counts) if np.ndim(counts) else 2)
        with pytest.raises(ValueError, match=rf"^count {bad} outside \[0, {INDEX_CAP}\]"):
            rows.claims(picked, counts)

    def test_across_replicates_matches_loop(self, u):
        ids = np.array([0, 1, 5, 17, 100000])
        rows = ReplicateRows(u, ids, 1)
        picked = np.array([4, 0, 2])  # any subset of the ids, in any order
        for block, row_of in [
            (rows.claims(picked, 3), lambda v: claim_row(v, 1, 3)),
            (rows.budgets(picked, 3), lambda v: resource_row(v, 1, 3).sum()),
            (rows.offspring_totals(picked, 3), lambda v: offspring_row(v, 1, 3).sum()),
            (rows.aux(picked, 3), lambda v: aux_row(v, 1, 3)),
        ]:
            loop = np.array([row_of(u.derive_replicate(int(i))) for i in ids[picked]])
            np.testing.assert_array_equal(block, loop)


class TestLawFidelity:
    N = 100_000

    def _units(self, u):
        return units(aux_row(u, 0, self.N))

    def test_unit_uniformity_ks(self, u):
        d, p = stats.kstest(self._units(u), "uniform")
        assert p > 1e-3, f"KS d={d}, p={p}"

    def test_unit_range_open(self, u):
        x = self._units(u)
        assert x.min() > 0.0
        assert x.max() < 1.0

    def test_pairwise_independence_chi2(self, u):
        x = self._units(u)
        bins = np.minimum((x * 8).astype(int), 7)
        pairs = bins[:-1] * 8 + bins[1:]
        observed = np.bincount(pairs, minlength=64)
        expected = len(pairs) / 64
        chi2 = ((observed - expected) ** 2 / expected).sum()
        # df = 63; reject only far out in the tail
        assert stats.chi2.sf(chi2, 63) > 1e-4, f"chi2={chi2}"

    def test_replicates_uncorrelated(self, u):
        a = units(aux_row(u.derive_replicate(0), 0, 10_000))
        b = units(aux_row(u.derive_replicate(1), 0, 10_000))
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.05

    def test_offspring_law(self, u):
        x = offspring_row(u, 0, self.N)
        assert set(np.unique(x)) <= {0, 2}
        law = u.laws.offspring
        band = 3 * math.sqrt(law.variance() / self.N)
        assert abs(x.mean() - law.mean()) < band

    def test_claim_law_ks(self, u):
        x = u.claim_row(0, self.N)
        d, p = stats.kstest(x, lambda t: u.laws.claim.cdf(t))
        assert p > 1e-3, f"KS d={d}, p={p}"

    def test_resource_law_bounds_and_mean(self, u):
        x = resource_row(u, 0, self.N) * u.laws.quantum
        assert x.min() >= 0.5 and x.max() <= 1.5
        band = 3 * math.sqrt(u.laws.resource.variance() / self.N)
        assert abs(x.mean() - u.laws.resource.mean()) < band

    def test_constant_resource_is_exact(self):
        triple = LawTriple(OffspringLaw((0.5, 0.5)), Uniform(0.0, 1.0), Constant(0.75))
        v = Universe(Seed(1), triple)
        # 0.75 lies on the lattice, so its quanta give it back exactly
        assert np.all(resource_row(v, 0, 100) * v.laws.quantum == 0.75)
        assert v.generation(0).budgets(np.arange(1), 100)[0] * v.laws.quantum == 75.0
