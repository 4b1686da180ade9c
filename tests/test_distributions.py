import math

import numpy as np
import pytest
from scipy import integrate

from rdbp import (
    Constant,
    Exponential,
    LawTriple,
    OffspringLaw,
    ScaledBeta,
    Uniform,
    validate_regularity,
)

CONTINUOUS_LAWS = [
    Uniform(0.0, 2.0),
    Uniform(0.5, 1.5),
    ScaledBeta(2.0, 3.0, 1.0),
    ScaledBeta(0.5, 0.5, 2.0),
    Exponential(1.0),
    Exponential(0.25),
]


class TestOffspringLaw:
    def test_validation(self):
        with pytest.raises(ValueError):
            OffspringLaw(())
        with pytest.raises(ValueError):
            OffspringLaw((0.5, 0.6))
        with pytest.raises(ValueError):
            OffspringLaw((1.1, -0.1))

    def test_moments(self):
        law = OffspringLaw((0.25, 0.0, 0.75))
        assert law.mean() == pytest.approx(1.5)
        assert law.variance() == pytest.approx(0.75)
        assert law.max_offspring == 2

    def test_trailing_zeros_do_not_change_support(self):
        law = OffspringLaw((0.5, 0.5, 0.0, 0.0))
        assert law.max_offspring == 1

    def test_cumulative_ends_at_one(self):
        # probabilities that do not sum to 1.0 in floating point
        p = (0.1,) * 10
        law = OffspringLaw(p)
        assert law.cumulative()[-1] == 1.0

    def test_trailing_zero_mass_is_never_drawn(self):
        # the masses sum to just under 1, so a deviate near 1 lands above
        # the running total of every count with positive mass
        law = OffspringLaw((0.5, 0.4999999999999, 0.0))
        assert law.max_offspring == 1
        np.testing.assert_array_equal(law.quantile([1 - 1e-14, 1 - 2.0**-54]), [1, 1])
        np.testing.assert_array_equal(law.cumulative(), [0.5, 1.0, 1.0])

    def test_cached_grid_stays_out_of_equality(self):
        law = OffspringLaw((0.5, 0.5, 0.0))
        same = OffspringLaw((0.5, 0.5, 0.0))
        assert law == same and hash(law) == hash(same)
        assert repr(law) == "OffspringLaw(probabilities=(0.5, 0.5, 0.0))"
        with pytest.raises(ValueError):
            law.cumulative()[0] = 0.0

    def test_quantile(self):
        law = OffspringLaw((0.25, 0.0, 0.75))
        assert law.quantile(0.1) == 0
        assert law.quantile(0.25) == 0
        assert law.quantile(0.2500001) == 2  # zero-mass value skipped
        assert law.quantile(0.999999) == 2

    def test_quantile_vectorised(self):
        law = OffspringLaw((0.5, 0.3, 0.2))
        u = np.array([0.1, 0.5, 0.79, 0.81, 0.999])
        np.testing.assert_array_equal(law.quantile(u), [0, 0, 1, 2, 2])


class TestScalarLaws:
    @pytest.mark.parametrize("law", CONTINUOUS_LAWS, ids=lambda l: f"{l.kind}")
    def test_mean_matches_quadrature(self, law):
        hi = law.support_upper if law.is_bounded else law.icdf(1 - 1e-14)
        val, err = integrate.quad(lambda x: x * law.pdf(x), law.support_lower, hi, limit=200)
        assert law.mean() == pytest.approx(val, abs=max(1e-9, 10 * err))

    @pytest.mark.parametrize("law", CONTINUOUS_LAWS, ids=lambda l: f"{l.kind}")
    def test_icdf_cdf_roundtrip(self, law):
        for u in (1e-9, 0.1, 0.5, 0.9, 1 - 1e-9):
            assert law.cdf(law.icdf(u)) == pytest.approx(u, abs=1e-9)

    @pytest.mark.parametrize("law", CONTINUOUS_LAWS, ids=lambda l: f"{l.kind}")
    def test_lower_partial_moment_matches_quadrature(self, law):
        lo = law.support_lower
        for q in (0.05, 0.3, 0.5, 0.8, 0.99):
            t = law.icdf(q)
            val, err = integrate.quad(lambda x: x * law.pdf(x), lo, t, limit=200)
            assert law.lower_partial_moment(t) == pytest.approx(val, abs=max(1e-9, 10 * err))

    @pytest.mark.parametrize("law", CONTINUOUS_LAWS, ids=lambda l: f"{l.kind}")
    def test_partial_moments_are_complementary(self, law):
        for q in (0.1, 0.5, 0.9):
            t = law.icdf(q)
            total = law.lower_partial_moment(t) + law.upper_partial_moment(t)
            assert total == pytest.approx(law.mean(), rel=1e-12)

    @pytest.mark.parametrize("law", CONTINUOUS_LAWS, ids=lambda l: f"{l.kind}")
    def test_partial_moment_edges(self, law):
        assert law.lower_partial_moment(law.support_lower) == pytest.approx(0.0, abs=1e-15)
        if law.is_bounded:
            assert law.lower_partial_moment(law.support_upper) == pytest.approx(law.mean())
        assert law.upper_partial_moment(0.0) == pytest.approx(law.mean())

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            Uniform(2.0, 1.0)
        with pytest.raises(ValueError):
            Uniform(-0.5, 1.0)
        with pytest.raises(ValueError):
            Uniform(1.0, math.inf)

    def test_uniform_closed_forms(self):
        law = Uniform(0.0, 2.0)
        assert law.mean() == 1.0
        assert law.variance() == pytest.approx(4 / 12)
        assert law.cdf(0.5) == 0.25
        assert law.icdf(0.25) == 0.5
        assert law.lower_partial_moment(1.0) == pytest.approx(0.25)

    def test_scaled_beta_closed_forms(self):
        law = ScaledBeta(2.0, 3.0, 2.0)
        assert law.mean() == pytest.approx(2 * 2 / 5)
        ab = 2.0 * 3.0 / (5.0 ** 2 * 6.0)
        assert law.variance() == pytest.approx(4 * ab)
        assert law.support_upper == 2.0

    def test_exponential_tail(self):
        law = Exponential(0.5)
        assert not law.is_bounded
        assert law.mean() == 2.0
        assert law.cdf(2.0) == pytest.approx(1 - math.exp(-1))
        # closed-form restricted mean
        t = 3.0
        expected = 2.0 - (t + 2.0) * math.exp(-0.5 * t)
        assert law.lower_partial_moment(t) == pytest.approx(expected, rel=1e-12)

    def test_constant_atom_belongs_to_lower_side(self):
        law = Constant(1.0)
        assert law.lower_partial_moment(1.0) == 1.0
        assert law.upper_partial_moment(1.0) == 0.0
        assert law.lower_partial_moment(0.999) == 0.0
        assert law.mean() == 1.0
        assert law.variance() == 0.0
        assert law.cdf(1.0) == 1.0
        assert law.cdf(0.999) == 0.0


class TestRegularity:
    def make(self, offspring=(0.25, 0.0, 0.75), claim=None, resource=None):
        return LawTriple(
            OffspringLaw(offspring),
            claim if claim is not None else Uniform(0.0, 2.0),
            resource if resource is not None else Constant(1.0),
        )

    def test_benchmark_triple_is_regular(self):
        rep = validate_regularity(self.make())
        assert rep.ok
        assert rep.supercritical_offspring
        assert rep.extinction_reachable
        assert rep.growth_reachable
        assert rep.small_claims_reachable
        assert rep.finite_moments
        assert rep.bounded_claims

    def test_subcritical_offspring_flagged(self):
        rep = validate_regularity(self.make(offspring=(0.5, 0.5)))
        assert not rep.supercritical_offspring
        assert not rep.ok
        assert any("mean" in msg for msg in rep.messages)

    def test_no_extinction_chance_flagged(self):
        rep = validate_regularity(self.make(offspring=(0.0, 0.0, 1.0)))
        assert not rep.extinction_reachable
        assert not rep.ok

    def test_claims_always_exceed_budget_flagged(self):
        rep = validate_regularity(self.make(claim=Uniform(5.0, 6.0), resource=Constant(1.0)))
        assert not rep.small_claims_reachable
        assert not rep.ok

    def test_unbounded_claims_only_warn(self):
        rep = validate_regularity(self.make(claim=Exponential(1.0)))
        assert rep.ok
        assert not rep.bounded_claims
