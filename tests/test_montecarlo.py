"""Monte Carlo layer: interval math, estimators, and the coupled checks.

Runtime knobs (replicates, horizons, caps) are tuned so the whole module
stays in the low seconds while every check still exercises its real code
path.  Nothing here is statistically marginal: fixtures are chosen so the
expected effect dwarfs the sampling noise at the configured replicate
counts, and the fixed base seeds make each assertion reproducible.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdbp import (
    COUNTEREXAMPLE_TRIPLE,
    Constant,
    CounterexampleSearchResult,
    ExtinctionEstimate,
    GrowthEstimate,
    InsufficientSurvivors,
    LawTriple,
    McConfig,
    OffspringLaw,
    ProcessSpec,
    Seed,
    SolverConfig,
    StrongestFirstPolicy,
    ThirdLargestFirstPolicy,
    Uniform,
    Universe,
    WeakestFirstPolicy,
    counterexample_search,
    dominance_check,
    effective_mean_sf,
    effective_mean_wf,
    envelope_check,
    estimate_extinction,
    safe_haven_check,
    sf_monotonicity_probe,
    simulate,
    superadditivity_check,
    wilson_interval,
)
from rdbp.policies import CoinFlipPolicy, FcfsPolicy


# ---------------------------------------------------------------------------
# Wilson intervals


class TestWilsonInterval:
    def test_textbook_example(self):
        # 8 successes in 10 trials at 95%: the standard worked example,
        # (0.4902, 0.9433) to four decimals.
        lo, hi = wilson_interval(8, 10, 0.95)
        assert lo == pytest.approx(0.4902, abs=5e-5)
        assert hi == pytest.approx(0.9433, abs=5e-5)

    def test_matches_score_formula(self):
        # Recompute from the score formula with the tabulated z for 95%.
        z = 1.959963984540054
        for k, n in [(1, 7), (8, 10), (13, 40), (250, 1000)]:
            p = k / n
            denom = 1.0 + z * z / n
            centre = (p + z * z / (2 * n)) / denom
            half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
            lo, hi = wilson_interval(k, n, 0.95)
            assert lo == pytest.approx(centre - half, abs=1e-12)
            assert hi == pytest.approx(centre + half, abs=1e-12)

    def test_zero_successes_pins_lower_end(self):
        lo, hi = wilson_interval(0, 50, 0.95)
        assert lo == 0.0
        z = 1.959963984540054
        assert hi == pytest.approx(z * z / (50 + z * z), abs=1e-12)

    def test_full_successes_pins_upper_end(self):
        lo, hi = wilson_interval(50, 50, 0.95)
        assert hi == 1.0
        assert 0.0 < lo < 1.0

    def test_complement_symmetry(self):
        for k, n in [(0, 9), (3, 9), (5, 11), (11, 11)]:
            lo, hi = wilson_interval(k, n, 0.9)
            lo_c, hi_c = wilson_interval(n - k, n, 0.9)
            assert lo == pytest.approx(1.0 - hi_c, abs=1e-12)
            assert hi == pytest.approx(1.0 - lo_c, abs=1e-12)

    def test_widens_with_confidence(self):
        lo90, hi90 = wilson_interval(6, 20, 0.90)
        lo99, hi99 = wilson_interval(6, 20, 0.99)
        assert lo99 < lo90
        assert hi99 > hi90

    @given(n=st.integers(1, 500), frac=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_contains_point_estimate(self, n, frac):
        k = int(round(frac * n))
        lo, hi = wilson_interval(k, n, 0.99)
        assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0, 0.95)
        with pytest.raises(ValueError):
            wilson_interval(-1, 10, 0.95)
        with pytest.raises(ValueError):
            wilson_interval(11, 10, 0.95)


# ---------------------------------------------------------------------------
# Extinction estimates


def _spec(triple, policy=None, initial_size=1):
    return ProcessSpec(
        laws=triple,
        policy=policy if policy is not None else WeakestFirstPolicy(),
        initial_size=initial_size,
    )


class TestEstimateExtinction:
    def test_subcritical_offspring_always_dies(self):
        triple = LawTriple(
            OffspringLaw((0.5, 0.5)), Uniform(0.0, 1.0), Constant(5.0)
        )
        mc = McConfig(replicates=200, horizon=100, base_seed=Seed(7))
        est = estimate_extinction(_spec(triple), mc)
        assert est.n_extinct == 200
        assert est.p_extinct == 1.0
        assert est.n_exploded == 0 and est.n_alive_at_horizon == 0

    def test_pure_doubling_always_explodes(self):
        # Two children each, free claims, ample budget: the size doubles
        # every generation until the cap trips.
        triple = LawTriple(
            OffspringLaw((0.0, 0.0, 1.0)), Uniform(0.0, 0.1), Constant(10.0)
        )
        mc = McConfig(replicates=50, horizon=60, explosion_cap=1000, base_seed=Seed(7))
        est = estimate_extinction(_spec(triple), mc)
        assert est.n_exploded == 50
        assert est.p_extinct == 0.0

    def test_counts_partition_and_interval_brackets(self, basic_triple):
        mc = McConfig(replicates=300, horizon=40, explosion_cap=5000, base_seed=Seed(11))
        est = estimate_extinction(_spec(basic_triple), mc)
        assert est.replicates == 300
        assert est.n_extinct + est.n_exploded + est.n_alive_at_horizon == 300
        # survival and extinction both happen for this triple
        assert 0 < est.n_extinct < 300
        assert est.p_extinct == est.n_extinct / 300
        assert est.ci_low < est.p_extinct < est.ci_high
        assert est.confidence == mc.confidence

    def test_deterministic_given_seed(self, basic_triple):
        mc = McConfig(replicates=120, horizon=30, explosion_cap=2000, base_seed=Seed(3))
        a = estimate_extinction(_spec(basic_triple), mc)
        b = estimate_extinction(_spec(basic_triple), mc)
        assert a == b

    def test_workers_split_is_invisible(self, basic_triple):
        mc = McConfig(replicates=64, horizon=25, explosion_cap=2000, base_seed=Seed(3))
        serial = estimate_extinction(_spec(basic_triple), mc, workers=1)
        parallel = estimate_extinction(_spec(basic_triple), mc, workers=2)
        assert serial == parallel

    def test_mc_horizon_overrides_spec(self, basic_triple):
        # The process spec carries its own horizon; the Monte Carlo config wins.
        spec = ProcessSpec(laws=basic_triple, policy=WeakestFirstPolicy(), horizon=1)
        mc = McConfig(replicates=80, horizon=50, explosion_cap=500, base_seed=Seed(5))
        est = estimate_extinction(spec, mc)
        # a horizon of 1 could never tell extinction from explosion this often
        assert est.n_extinct + est.n_exploded > 0
        long_mc = McConfig(replicates=80, horizon=1, explosion_cap=500, base_seed=Seed(5))
        short = estimate_extinction(spec, long_mc)
        assert short.n_alive_at_horizon >= est.n_alive_at_horizon


# ---------------------------------------------------------------------------
# Dominance of the smallest-claims-first policy


class TestDominanceCheck:
    @pytest.fixture
    def lean_triple(self, binary_offspring, uniform_claim):
        # Budget 0.9 per head keeps populations small and the check fast.
        return LawTriple(binary_offspring, uniform_claim, Constant(0.9))

    @pytest.mark.parametrize(
        "policy",
        [
            StrongestFirstPolicy(),
            FcfsPolicy(),
            CoinFlipPolicy(),
            ThirdLargestFirstPolicy(),
        ],
        ids=lambda p: p.name,
    )
    def test_no_policy_ever_beats_it(self, lean_triple, policy):
        mc = McConfig(replicates=120, horizon=25, explosion_cap=5000, base_seed=Seed(42))
        assert dominance_check(policy, lean_triple, mc) == 0

    def test_self_comparison_is_clean(self, lean_triple):
        mc = McConfig(replicates=60, horizon=20, explosion_cap=5000, base_seed=Seed(42))
        assert dominance_check(WeakestFirstPolicy(), lean_triple, mc) == 0


# ---------------------------------------------------------------------------
# Safe haven: founding size versus extinction


class TestSafeHavenCheck:
    @pytest.fixture
    def report(self, basic_triple):
        mc = McConfig(replicates=250, horizon=30, explosion_cap=3000, base_seed=Seed(9))
        return safe_haven_check(basic_triple, (1, 2, 5, 10), mc)

    def test_rows_cover_requested_sizes(self, report):
        assert tuple(row.initial_size for row in report.rows) == (1, 2, 5, 10)

    def test_monotone_under_coupling(self, report):
        # Shared replicate ids couple the runs, so the point estimates are
        # non-increasing in the founding size exactly, not just on average.
        assert report.monotone_nonincreasing
        ps = [row.estimate.p_extinct for row in report.rows]
        assert ps == sorted(ps, reverse=True)

    def test_power_bound_holds(self, report):
        for row in report.rows:
            assert row.power_bound == pytest.approx(
                report.baseline.ci_high ** row.initial_size
            )
            assert row.within_bound

    def test_baseline_row_reused(self, report):
        assert report.rows[0].estimate == report.baseline

    def test_large_founding_size_rarely_dies(self, report):
        assert report.rows[0].estimate.p_extinct > 0.2
        assert report.rows[-1].estimate.p_extinct < 0.05

    def test_founders_at_the_cap_count_as_exploded(self, basic_triple):
        mc = McConfig(replicates=60, horizon=30, explosion_cap=10, base_seed=Seed(9))
        report = safe_haven_check(basic_triple, (1, 2, 10, 12), mc)
        below = safe_haven_check(basic_triple, (1, 2), mc)
        assert report.rows[:2] == below.rows and report.baseline == below.baseline
        for row in report.rows[2:]:
            assert row.estimate.n_exploded == mc.replicates
            assert row.estimate.p_extinct == 0.0 and row.within_bound
        assert report.monotone_nonincreasing


# ---------------------------------------------------------------------------
# Growth envelope


class TestEnvelopeCheck:
    def test_band_endpoints_are_the_effective_means(self, basic_triple):
        mc = McConfig(replicates=40, horizon=60, explosion_cap=20000, base_seed=Seed(12))
        est = envelope_check(WeakestFirstPolicy(), basic_triple, mc, min_size=500, slack=0.1)
        cfg = SolverConfig()
        lo = effective_mean_sf(basic_triple.claim, 1.2, 1.5, cfg)
        hi = effective_mean_wf(basic_triple.claim, 1.2, 1.5, cfg)
        assert est.band_low == pytest.approx(lo, abs=1e-12)
        assert est.band_high == pytest.approx(hi, abs=1e-12)
        # closed forms for uniform claims on (0, 2) at r = 1.2, m = 1.5
        assert est.band_high == pytest.approx(1.5 * math.sqrt(3.2) / 2.0, abs=1e-9)
        assert est.band_low == pytest.approx(1.5 * (1.0 - math.sqrt(0.8) / 2.0), abs=1e-9)

    def test_smallest_first_growth_tracks_upper_edge(self, basic_triple):
        mc = McConfig(replicates=40, horizon=60, explosion_cap=20000, base_seed=Seed(12))
        est = envelope_check(WeakestFirstPolicy(), basic_triple, mc, min_size=500, slack=0.1)
        assert isinstance(est, GrowthEstimate)
        assert est.n_trajectories > 0
        assert est.n_ratios >= est.n_trajectories
        # once thousands of members share the budget the ratio concentrates
        assert est.mean_ratio == pytest.approx(est.band_high, abs=0.05)
        assert est.fraction_in_band > 0.9
        assert est.dispersion >= 0.0
        assert est.slack == 0.1

    def test_no_survivors_is_an_error(self, basic_triple):
        mc = McConfig(replicates=20, horizon=30, explosion_cap=1000, base_seed=Seed(12))
        with pytest.raises(InsufficientSurvivors):
            envelope_check(WeakestFirstPolicy(), basic_triple, mc, min_size=10**6)

    def test_doomed_policy_never_reaches_threshold(self, basic_triple):
        # largest-claims-first has effective mean below one here, so no
        # replicate can grow to the threshold
        mc = McConfig(replicates=30, horizon=40, explosion_cap=5000, base_seed=Seed(12))
        with pytest.raises(InsufficientSurvivors):
            envelope_check(StrongestFirstPolicy(), basic_triple, mc, min_size=2000)


# ---------------------------------------------------------------------------
# Superadditivity of survival in the founding size


class TestSuperadditivityCheck:
    @pytest.fixture
    def mc(self):
        return McConfig(replicates=400, horizon=10, explosion_cap=10**6, base_seed=Seed(21))

    def test_two_founders_dominate_independent_pair(self, basic_triple, mc):
        rep = superadditivity_check(basic_triple, initial_size=2, n_gens=3, mc=mc)
        assert rep.generation == 3
        assert rep.initial_size == 2
        assert rep.fosd_ok
        assert rep.d_plus <= rep.d_plus_threshold
        assert rep.zero_column_ok
        assert rep.p_zero_joint_ci_low <= rep.p_zero_joint
        assert rep.p_zero_joint <= rep.p_zero_single_powered
        assert rep.alpha == 1e-3

    def test_threshold_formula(self, basic_triple, mc):
        rep = superadditivity_check(basic_triple, initial_size=2, n_gens=2, mc=mc, alpha=1e-4)
        want = math.sqrt(math.log(1e4) / 2.0) * math.sqrt(2.0 / 400)
        assert rep.d_plus_threshold == pytest.approx(want, rel=1e-12)
        assert rep.alpha == 1e-4

    def test_single_founder_is_a_null_comparison(self, basic_triple, mc):
        # joint and copies then follow the same law from disjoint replicate
        # ids, so the distance should sit inside the bound comfortably
        rep = superadditivity_check(basic_triple, initial_size=1, n_gens=3, mc=mc)
        assert rep.fosd_ok
        assert rep.zero_column_ok

    def test_deterministic(self, basic_triple, mc):
        a = superadditivity_check(basic_triple, initial_size=2, n_gens=3, mc=mc)
        b = superadditivity_check(basic_triple, initial_size=2, n_gens=3, mc=mc)
        assert a == b

    def test_rejects_empty_start(self, basic_triple, mc):
        with pytest.raises(ValueError):
            superadditivity_check(basic_triple, initial_size=0, n_gens=3, mc=mc)


# ---------------------------------------------------------------------------
# Search for a policy that loses to largest-claims-first


CX_TRIPLE = COUNTEREXAMPLE_TRIPLE


class TestCounterexampleSearch:
    def test_needs_three_children_sometimes(self):
        triple = LawTriple(OffspringLaw((0.5, 0.0, 0.5)), Uniform(0.0, 2.0), Uniform(0.0, 1.0))
        with pytest.raises(ValueError, match="offspring"):
            counterexample_search(triple, McConfig(base_seed=Seed(0)), budget=10)

    def test_needs_continuous_claims(self):
        triple = LawTriple(OffspringLaw((0.5, 0.0, 0.0, 0.5)), Constant(1.0), Uniform(0.0, 1.0))
        with pytest.raises(ValueError, match="continuous"):
            counterexample_search(triple, McConfig(base_seed=Seed(0)), budget=10)

    def test_needs_claims_that_can_crowd_out(self):
        # claims never exceed two resource units: the third-largest pick can
        # never block the strongest pair
        triple = LawTriple(OffspringLaw((0.5, 0.0, 0.0, 0.5)), Uniform(0.0, 1.0), Constant(1.0))
        with pytest.raises(ValueError, match="two resource units"):
            counterexample_search(triple, McConfig(base_seed=Seed(0)), budget=10)

    def test_needs_small_claims_that_fit(self):
        triple = LawTriple(OffspringLaw((0.5, 0.0, 0.0, 0.5)), Uniform(2.0, 3.0), Uniform(0.0, 1.0))
        with pytest.raises(ValueError, match="three small claims"):
            counterexample_search(triple, McConfig(base_seed=Seed(0)), budget=10)

    def test_finds_a_witness(self):
        mc = McConfig(base_seed=Seed(0))
        result = counterexample_search(CX_TRIPLE, mc, budget=150_000)
        assert result.found
        w = result.witness
        assert w is not None
        assert result.scanned == w.replicate_id + 1
        assert w.seed_value == 0
        # the deviant policy is dead at generation two, the reference alive
        assert w.policy_sizes[0] == w.sf_sizes[0] == 1
        assert w.policy_sizes[-1] == 0
        assert w.sf_sizes[-1] > 0

    def test_witness_replays_through_the_engine(self):
        mc = McConfig(base_seed=Seed(0))
        result = counterexample_search(CX_TRIPLE, mc, budget=150_000)
        w = result.witness
        u = Universe(Seed(w.seed_value), CX_TRIPLE, 0).derive_replicate(w.replicate_id)
        got, ref = (simulate(ProcessSpec(laws=CX_TRIPLE, policy=policy, horizon=2), u)
                    for policy in (ThirdLargestFirstPolicy(), StrongestFirstPolicy()))
        assert tuple(got.sizes) == w.policy_sizes
        assert tuple(ref.sizes) == w.sf_sizes

    def test_exhausted_budget_reports_honestly(self):
        mc = McConfig(base_seed=Seed(0))
        result = counterexample_search(CX_TRIPLE, mc, budget=2_000)
        assert result == CounterexampleSearchResult(found=False, scanned=2_000, witness=None)

    def test_budget_smaller_than_one_chunk(self):
        mc = McConfig(base_seed=Seed(0))
        result = counterexample_search(CX_TRIPLE, mc, budget=100, chunk_size=1 << 16)
        assert not result.found
        assert result.scanned == 100

    def test_deterministic(self):
        mc = McConfig(base_seed=Seed(0))
        a = counterexample_search(CX_TRIPLE, mc, budget=150_000)
        b = counterexample_search(CX_TRIPLE, mc, budget=150_000)
        assert a == b


# ---------------------------------------------------------------------------
# Largest-first service counts as the crowd grows


class TestSfMonotonicityProbe:
    @pytest.fixture
    def probe_triple(self):
        return LawTriple(OffspringLaw((0.5, 0.0, 0.5)), Uniform(0.0, 2.0), Uniform(0.0, 1.0))

    @pytest.fixture
    def report(self, probe_triple):
        mc = McConfig(replicates=300, base_seed=Seed(17))
        return sf_monotonicity_probe(probe_triple, (1, 2, 3), mc)

    def test_grid_shape(self, report):
        assert report.t_values == (1, 2, 3)
        assert report.v_values[0] == 1
        assert len(report.cells) == len(report.t_values) * len(report.v_values)
        assert report.exploratory

    def test_cells_are_tail_probabilities(self, report):
        by_t = {}
        for cell in report.cells:
            assert 0.0 <= cell.ci_low <= cell.rate <= cell.ci_high <= 1.0
            by_t.setdefault(cell.t, []).append((cell.v, cell.rate))
        for t, pairs in by_t.items():
            rates = [r for _, r in sorted(pairs)]
            # P[count >= v] can only fall as v grows, replicate by replicate
            assert rates == sorted(rates, reverse=True)

    def test_violations_name_adjacent_columns(self, report):
        for t_from, t_to, v in report.violations:
            assert (t_from, t_to) in ((1, 2), (2, 3))
            assert v in report.v_values

    def test_v_max_truncates(self, probe_triple):
        mc = McConfig(replicates=100, base_seed=Seed(17))
        rep = sf_monotonicity_probe(probe_triple, (1, 2), mc, v_max=2)
        assert rep.v_values == (1, 2)
        assert len(rep.cells) == 4

    def test_deterministic(self, probe_triple):
        mc = McConfig(replicates=100, base_seed=Seed(17))
        a = sf_monotonicity_probe(probe_triple, (1, 2), mc)
        b = sf_monotonicity_probe(probe_triple, (1, 2), mc)
        assert a == b

    def test_rejects_empty_crowds(self, probe_triple):
        with pytest.raises(ValueError):
            sf_monotonicity_probe(probe_triple, (0, 1), McConfig(base_seed=Seed(17)))
