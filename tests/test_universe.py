import math

import numpy as np
import pytest
from scipy import stats

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
        row = u.claim_row(2, 20)
        for k in (1, 7, 20):
            assert u.claim_at(2, k) == row[k - 1]
        orow = u.offspring_row(2, 20)
        for k in (1, 20):
            assert u.offspring_at(2, k) == orow[k - 1]
        rrow = u.resource_row(4, 5)
        assert u.resource_at(4, 5) == rrow[4]

    def test_streams_differ_by_tag(self, u):
        a = u.claim_row(0, 50)
        b = u.aux_row(0, 50)
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
        u.claim_at(0, INDEX_CAP)  # the last addressable slot works
        with pytest.raises(ValueError):
            u.claim_at(0, INDEX_CAP + 1)
        with pytest.raises(ValueError):
            u.claim_at(0, 0)
        with pytest.raises(ValueError):
            u.claim_row(-1, 5)
        with pytest.raises(ValueError):
            u.derive_replicate(-1)

    def test_across_replicates_matches_loop(self, u):
        ids = np.array([0, 1, 5, 17, 100000])
        rows = ReplicateRows(u, ids, 1)
        picked = np.array([4, 0, 2])  # any subset of the ids, in any order
        for block, row_of in [
            (rows.claims(picked, 3), lambda v: v.claim_row(1, 3)),
            (rows.resources(picked, 3), lambda v: v.resource_row(1, 3)),
            (rows.offspring(picked, 3), lambda v: v.offspring_row(1, 3)),
            (rows.aux(picked, 3), lambda v: v.aux_row(1, 3)),
        ]:
            loop = np.array([row_of(u.derive_replicate(int(i))) for i in ids[picked]])
            np.testing.assert_array_equal(block, loop)


class TestLawFidelity:
    N = 100_000

    def _units(self, u):
        return u.aux_row(0, self.N)

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
        a = u.derive_replicate(0).aux_row(0, 10_000)
        b = u.derive_replicate(1).aux_row(0, 10_000)
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.05

    def test_offspring_law(self, u):
        x = u.offspring_row(0, self.N)
        assert set(np.unique(x)) <= {0, 2}
        law = u.laws.offspring
        band = 3 * math.sqrt(law.variance() / self.N)
        assert abs(x.mean() - law.mean()) < band

    def test_claim_law_ks(self, u):
        x = u.claim_row(0, self.N)
        d, p = stats.kstest(x, lambda t: u.laws.claim.cdf(t))
        assert p > 1e-3, f"KS d={d}, p={p}"

    def test_resource_law_bounds_and_mean(self, u):
        x = u.resource_row(0, self.N)
        assert x.min() >= 0.5 and x.max() <= 1.5
        band = 3 * math.sqrt(u.laws.resource.variance() / self.N)
        assert abs(x.mean() - u.laws.resource.mean()) < band

    def test_constant_resource_is_exact(self):
        triple = LawTriple(OffspringLaw((0.5, 0.5)), Uniform(0.0, 1.0), Constant(0.75))
        v = Universe(Seed(1), triple)
        assert np.all(v.resource_row(0, 100) == 0.75)
