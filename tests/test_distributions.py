import math
import pickle
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from mp_beta import beta_root
from oracle import cumulative, pdf, quantile

from rdbp import (
    Constant,
    Exponential,
    LawTriple,
    OffspringLaw,
    ScaledBeta,
    Uniform,
    validate_regularity,
)
from rdbp import distributions
from rdbp.distributions import _INVERSE_CELLS
from rdbp.universe import Seed, Universe

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
        assert cumulative(law)[-1] == 1.0

    def test_trailing_zero_mass_is_never_drawn(self):
        # the masses sum to just under 1, so a deviate near 1 lands above
        # the running total of every count with positive mass
        law = OffspringLaw((0.5, 0.4999999999999, 0.0))
        assert law.max_offspring == 1
        np.testing.assert_array_equal(quantile(law, [1 - 1e-14, 1 - 2.0**-54]), [1, 1])
        np.testing.assert_array_equal(cumulative(law), [0.5, 1.0, 1.0])

    def test_cached_grid_stays_out_of_equality(self):
        # the word thresholds of the CDF cuts are cached on the law
        law = OffspringLaw((0.5, 0.5, 0.0))
        same = OffspringLaw((0.5, 0.5, 0.0))
        assert law._word_cuts == same._word_cuts
        assert law == same and hash(law) == hash(same)
        assert repr(law) == "OffspringLaw(probabilities=(0.5, 0.5, 0.0))"

    def test_quantile(self):
        law = OffspringLaw((0.25, 0.0, 0.75))
        assert quantile(law, 0.1) == 0
        assert quantile(law, 0.25) == 0
        assert quantile(law, 0.2500001) == 2  # zero-mass value skipped
        assert quantile(law, 0.999999) == 2

    def test_quantile_vectorised(self):
        law = OffspringLaw((0.5, 0.3, 0.2))
        u = np.array([0.1, 0.5, 0.79, 0.81, 0.999])
        np.testing.assert_array_equal(quantile(law, u), [0, 0, 1, 2, 2])


class TestScalarLaws:
    @pytest.mark.parametrize("law", CONTINUOUS_LAWS, ids=lambda l: f"{l.kind}")
    def test_mean_matches_quadrature(self, law):
        hi = law.support_upper if law.is_bounded else law.icdf(1 - 1e-14)
        val, err = integrate.quad(lambda x: x * pdf(law, x), law.support_lower, hi, limit=200)
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
            val, err = integrate.quad(lambda x: x * pdf(law, x), lo, t, limit=200)
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

    def test_exponential_rate_whose_largest_draw_overflows_is_refused(self):
        # 36.7 / 2e-307 is past the largest double, and its lattice used to
        # turn every claim into -2**63 quanta
        with pytest.raises(ValueError, match="largest draw is finite"):
            Exponential(2.0e-307)
        triple = LawTriple(OffspringLaw((0.25, 0.0, 0.75)), Exponential(2.05e-307), Constant(1.2))
        assert triple.lattice_bits == -988
        assert (Universe(Seed(0), triple).claim_row(0, 5) >= 0).all()

    def test_constant_atom_belongs_to_lower_side(self):
        law = Constant(1.0)
        assert law.lower_partial_moment(1.0) == 1.0
        assert law.upper_partial_moment(1.0) == 0.0
        assert law.lower_partial_moment(0.999) == 0.0
        assert law.mean() == 1.0
        assert law.variance() == 0.0
        assert law.cdf(1.0) == 1.0
        assert law.cdf(0.999) == 0.0


class TestPickling:
    """Laws cross to worker processes by pickle, so a copy must be the same
    law: equal, with the same hash, drawing the same samples."""

    U = np.array([1e-12, 0.1, 0.5, 0.9, 1 - 1e-12])

    @pytest.mark.parametrize(
        "law",
        [Uniform(0.0, 2.0), ScaledBeta(2.0, 2.0, 2.0), Exponential(1.5), Constant(1.2)],
        ids=lambda l: l.kind,
    )
    def test_scalar_law_round_trip(self, law):
        copy = pickle.loads(pickle.dumps(law))
        assert copy == law and hash(copy) == hash(law) and repr(copy) == repr(law)
        assert copy.icdf(self.U).tobytes() == law.icdf(self.U).tobytes()

    def test_scaled_beta_pickles_the_same_before_and_after_its_tables(self):
        law = ScaledBeta(5.0, 2.0, 2.0)
        before = pickle.dumps(law)
        drawn = law.icdf(self.U)  # builds the inverse tables
        after = pickle.dumps(law)
        assert after == before
        for copy in (pickle.loads(before), pickle.loads(after)):
            assert copy == law and hash(copy) == hash(law) and repr(copy) == repr(law)
            assert copy.icdf(self.U).tobytes() == drawn.tobytes()

    def test_offspring_law_and_triple_round_trip(self):
        triple = LawTriple(OffspringLaw((0.3, 0.3, 0.4, 0.0)), ScaledBeta(2.0, 2.0, 2.0),
                           Uniform(0.0, 1.5))
        copy = pickle.loads(pickle.dumps(triple))
        assert copy == triple and hash(copy) == hash(triple)
        assert quantile(copy.offspring, self.U).tolist() == quantile(triple.offspring, self.U).tolist()
        assert copy.claim.icdf(self.U).tobytes() == triple.claim.icdf(self.U).tobytes()


BETA_GRID = (0.5, 1.0, 2.0, 5.0)
BETA_SHAPES = [(a, b) for a in BETA_GRID for b in BETA_GRID]
#: the grid shapes that ``ScaledBeta.icdf`` solves by table-seeded steps
TABLE_SHAPES = [(a, b) for a, b in BETA_SHAPES if a > 1.0 and b != 1.0]
#: both far tails (the kernel's smallest unit, far below it, the largest
#: unit below 1 and 1 itself, which the kernel can emit), the middle, and
#: points on both sides of every shape's median
BETA_UNITS = (0.5 * 2.0 ** -53, 1e-300, 1e-9, 1e-4, 0.03, 0.2, 0.45, 0.5, 0.55, 0.7, 0.9, 0.99,
              1 - 1e-6, 1 - 2.0 ** -53, 1.0)


def _ulps(x, root) -> float:
    """|x - root| in units of the spacing of doubles at the root; NaN is infinitely far."""
    if not math.isfinite(x):
        return math.inf
    return float(abs(root - x)) / float(np.spacing(float(root)))


class TestBetaInverse:
    """``ScaledBeta.icdf``: table-seeded Halley steps, with ``betaincinv``
    for the far tails and the closed-form shapes."""

    @pytest.mark.parametrize("a,b", BETA_SHAPES)
    def test_within_8_ulp_of_the_root_or_no_further_than_betaincinv(self, a, b):
        u = np.array(BETA_UNITS)
        # the scale is a power of two, so dividing it out is exact
        got = ScaledBeta(a, b, 2.0).icdf(u) / 2.0
        ref = special.betaincinv(a, b, u)
        for unit, x, x_ref in zip(u, got, ref):
            root = beta_root(a, b, unit, x if math.isfinite(x) else x_ref)
            ulps, ulps_ref = _ulps(x, root), _ulps(x_ref, root)
            # a non-finite value fails even where betaincinv's is one too
            assert math.isfinite(x) and (ulps <= 8.0 or ulps <= ulps_ref), (unit, ulps, ulps_ref)

    @pytest.mark.parametrize("a,b", [(2.0, 5.0), (5.0, 2.0), (3.0, 30.0), (0.5, 2.0)])
    def test_where_betaincinv_fails_far_in_the_lower_tail_the_leading_root_serves(self, a, b):
        # betaincinv returns NaN, or 2.2e-308 for roots below it; the
        # leading-order root is within a few ulp there, or 0.0 where the
        # root is below every double
        u = 10.0 ** -np.arange(150.0, 310.0, 10.0)
        fails = ~(special.betaincinv(a, b, u) > np.finfo(np.float64).tiny)
        assert fails.sum() >= 3
        got = ScaledBeta(a, b, 2.0).icdf(u[fails]) / 2.0
        for unit, x in zip(u[fails], got):
            assert math.isfinite(x) and _ulps(x, beta_root(a, b, unit, x)) <= 4.0, unit

    @pytest.mark.parametrize("a,b", BETA_SHAPES)
    def test_unit_endpoints_map_to_the_support_ends(self, a, b):
        law = ScaledBeta(a, b, 2.0)
        assert law.icdf(0.0) == 0.0
        assert law.icdf(1.0) == 2.0

    @pytest.mark.parametrize("a,b", BETA_SHAPES)
    def test_non_decreasing_over_sorted_units(self, a, b):
        law = ScaledBeta(a, b, 2.0)
        u = np.sort(np.random.default_rng(11).random(10 ** 6))
        x = np.concatenate([law.icdf(piece) for piece in np.array_split(u, 16)])
        assert np.all(np.diff(x) >= 0.0)

    @pytest.mark.parametrize("a,b", BETA_SHAPES)
    def test_each_unit_alone_matches_the_whole_array(self, a, b):
        law = ScaledBeta(a, b, 2.0)
        u = np.concatenate([np.random.default_rng(12).random(300), BETA_UNITS])
        alone = np.concatenate([law.icdf(u[i:i + 1]) for i in range(len(u))])
        assert law.icdf(u).tobytes() == alone.tobytes()
        block = np.resize(u, (21, 20))[:, 3:17]
        assert law.icdf(block).tobytes() == law.icdf(block.copy()).tobytes()

    def test_steps_too_large_to_trust_fall_back_to_betaincinv(self, monkeypatch):
        law = ScaledBeta(2.0, 5.0, 2.0)
        u = np.random.default_rng(13).random(500)
        want = 2.0 * special.betaincinv(2.0, 5.0, u)
        assert law.icdf(u).tobytes() != want.tobytes()
        monkeypatch.setattr(law._inverse, "_tol", -1.0)
        assert law.icdf(u).tobytes() == want.tobytes()

    def test_the_first_table_cell_falls_back_to_betaincinv(self, monkeypatch):
        # I_x(2, 5) = 1e-12 and 1e-10 lie below the first node, 0.5 / 4096**2;
        # they fall back even when every step is trusted
        law = ScaledBeta(2.0, 5.0, 2.0)
        monkeypatch.setattr(law._inverse, "_tol", math.inf)
        u = np.array([1e-12, 1e-10, 1 - 1e-12])
        want = 2.0 * special.betaincinv(2.0, 5.0, u)
        assert law.icdf(u)[:2].tobytes() == want[:2].tobytes()

    def test_shapes_with_a_at_most_1_or_b_equal_1_stay_on_betaincinv(self):
        u = np.random.default_rng(14).random(200)
        for a, b in ((1.0, 2.0), (5.0, 1.0), (0.5, 0.5), (0.5, 2.0), (0.3, 5.0)):
            assert ScaledBeta(a, b, 2.0).icdf(u).tobytes() == (2.0 * special.betaincinv(a, b, u)).tobytes()

    @pytest.mark.parametrize("b", [0.0005, 0.0009])
    def test_a_b_whose_upper_cut_underflows_stays_on_betaincinv(self, b):
        # 0.5**(1/b) is 0 below b of about 9.3e-4, and the upper half's
        # table divided by it
        u = np.random.default_rng(16).random(200)
        want = distributions._betaincinv(2.0, b, u) * 2.0
        assert ScaledBeta(2.0, b, 2.0).icdf(u).tobytes() == want.tobytes()

    def test_a_b_just_above_the_cut_builds_its_table_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = ScaledBeta(2.0, 0.005, 2.0).icdf(np.random.default_rng(17).random(200))
        assert np.all((x >= 0.0) & (x <= 2.0))

    @pytest.mark.parametrize("a,b", TABLE_SHAPES + [(2.0, 12.0)])
    def test_random_units_and_edge_cells_within_8_ulp_and_1_ulp_in_the_median(self, a, b, monkeypatch):
        # 100 random units in each half, and three in each of cells 1, 2, 3,
        # 63, 64, 256 and the last cell of each half's table, whose cell k
        # holds p = 0.5 * (t / cells)**alpha for t in [k, k + 1).  (2, 12)
        # adds an upper half reaching down to x = 0.12, where the rounding of
        # 1 - x is worth up to 2 ulp of x
        rng = np.random.default_rng(15)
        cells = _INVERSE_CELLS
        t = np.repeat([1.0, 2.0, 3.0, 63.0, 64.0, 256.0, cells - 1.0], 3) + rng.random(21)
        u = np.concatenate([0.5 * rng.random(100), 0.5 + 0.5 * rng.random(100),
                            0.5 * (t / cells) ** a, 1.0 - 0.5 * (t / cells) ** b])
        # every unit from cell 128 on takes the table's step; below, the
        # rounding of the cell check can send a cell to betaincinv
        p = np.minimum(u, 1.0 - u)
        cell = np.floor(cells * (2.0 * p) ** np.where(u > 0.5, 1.0 / b, 1.0 / a))
        fell = []
        fallback = distributions._betaincinv
        monkeypatch.setattr(distributions, "_betaincinv", lambda a, b, u: fell.extend(u) or fallback(a, b, u))
        got = ScaledBeta(a, b, 2.0).icdf(u) / 2.0
        assert set(fell) <= set(u[cell < 128])
        ref = special.betaincinv(a, b, u)
        ulps = []
        for unit, x, x_ref in zip(u, got, ref):
            root = beta_root(a, b, unit, x if 0.0 < x < 1.0 else x_ref)
            ulps.append(_ulps(x, root))
            assert math.isfinite(x) and (ulps[-1] <= 8.0 or ulps[-1] <= _ulps(x_ref, root)), (unit, ulps[-1])
        assert np.median(ulps) <= 1.0

    def test_upper_half_below_one_half_corrects_the_rounding_of_1_minus_x(self):
        # u > 1/2 but x < 1/2: I_{1-x}(b, a) is read at 1 - x rounded, which
        # alone would cost about 0.75 ulp in the median here
        a, b = 2.0, 5.0
        u = np.linspace(0.5, float(special.betainc(a, b, 0.5)), 42)[1:-1]
        got = ScaledBeta(a, b, 1.0).icdf(u)
        ulps = [_ulps(x, beta_root(a, b, unit, x)) for unit, x in zip(u, got)]
        assert np.median(ulps) <= 0.5 and max(ulps) <= 2.0


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
