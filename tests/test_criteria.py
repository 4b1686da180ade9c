import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdbp import (
    CRITICAL_BAND,
    Constant,
    DomainError,
    Exponential,
    LawTriple,
    OffspringLaw,
    ScaledBeta,
    SolverConfig,
    Uniform,
    UnboundedClaimError,
    UnsupportedKindError,
    beta_asymptotic_critical_resource,
    classify,
    closed_form_critical_resource,
    critical_curve,
    critical_report,
    critical_resource_mean,
    effective_mean_sf,
    effective_mean_wf,
    moment_shortcut,
    solve_sf_threshold,
    solve_wf_threshold,
)
from lambert import lambert_w_minus1

CFG = SolverConfig()

# offspring laws with mean 1.5, 2 and 3, extinction always reachable
OFF_15 = OffspringLaw((0.25, 0.0, 0.75))
OFF_2 = OffspringLaw((1 / 3, 0.0, 0.0, 2 / 3))
OFF_3 = OffspringLaw((0.25, 0.0, 0.0, 0.0, 0.75))


class TestThresholdSolvers:
    def test_uniform_frozen_values(self):
        """Uniform(0, 2), r = 1, m = 3: cutoffs known in closed form."""
        law = Uniform(0.0, 2.0)
        low_cut = solve_wf_threshold(law, 1.0, 3.0, CFG)
        high_cut = solve_sf_threshold(law, 1.0, 3.0, CFG)
        assert low_cut == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-9)      # 1.1547005383792515
        assert high_cut == pytest.approx(2.0 * math.sqrt(2.0 / 3.0), abs=1e-9)  # 1.6329931618554520

    def test_residuals_meet_tolerance(self):
        for law in (Uniform(0.0, 2.0), ScaledBeta(2.0, 3.0, 1.5), Exponential(0.7)):
            m, r = 2.5, 0.4 * law.mean()
            low_cut = solve_wf_threshold(law, r, m, CFG)
            assert abs(law.lower_partial_moment(low_cut) - r / m) <= CFG.abs_tol
            if law.is_bounded:
                high_cut = solve_sf_threshold(law, r, m, CFG)
                assert abs(law.upper_partial_moment(high_cut) - r / m) <= CFG.abs_tol

    def test_rejects_r_above_total_demand(self):
        law = Uniform(0.0, 2.0)
        with pytest.raises(DomainError):
            solve_wf_threshold(law, 3.5, 3.0, CFG)
        with pytest.raises(DomainError):
            solve_sf_threshold(law, 3.5, 3.0, CFG)

    def test_bounded_edge_returns_support_top(self):
        law = Uniform(0.0, 2.0)
        assert solve_wf_threshold(law, 3.0, 3.0, CFG) == 2.0

    def test_unbounded_edge_refused(self):
        # with unbounded claims the cutoff diverges as r approaches m * mu
        with pytest.raises(DomainError):
            solve_wf_threshold(Exponential(1.0), 3.0, 3.0, CFG)

    def test_sf_needs_bounded_claims(self):
        with pytest.raises(UnboundedClaimError):
            solve_sf_threshold(Exponential(1.0), 1.0, 3.0, CFG)

    def test_atomic_claims_refused(self):
        with pytest.raises(UnsupportedKindError):
            solve_wf_threshold(Constant(1.0), 0.5, 3.0, CFG)
        with pytest.raises(UnsupportedKindError):
            solve_sf_threshold(Constant(1.0), 0.5, 3.0, CFG)

    def test_bad_parameters(self):
        law = Uniform(0.0, 2.0)
        for r, m in [(0.0, 2.0), (-1.0, 2.0), (1.0, 1.0), (1.0, 0.5), (math.inf, 2.0)]:
            with pytest.raises(DomainError):
                solve_wf_threshold(law, r, m, CFG)


class TestEffectiveMeans:
    def test_uniform_frozen_values(self):
        law = Uniform(0.0, 2.0)
        assert effective_mean_wf(law, 1.0, 3.0, CFG) == pytest.approx(math.sqrt(3.0), abs=1e-9)
        assert effective_mean_sf(law, 1.0, 3.0, CFG) == pytest.approx(
            3.0 - 1.5 * 2.0 * math.sqrt(2.0 / 3.0), abs=1e-9
        )  # 0.5505102572168221

    def test_ample_resource_convention(self):
        law = Uniform(0.0, 2.0)
        for r in (3.0, 4.0, 100.0):  # r >= m * mu = 3
            assert effective_mean_wf(law, r, 3.0, CFG) == 3.0
            assert effective_mean_sf(law, r, 3.0, CFG) == 3.0

    def test_wf_dominates_sf(self):
        """Funding small claims first always curtails the mean less."""
        for law in (Uniform(0.0, 2.0), ScaledBeta(2.0, 3.0, 1.0), ScaledBeta(0.5, 0.5, 2.0)):
            for frac in (0.1, 0.4, 0.8):
                r = frac * 2.5 * law.mean()
                wf = effective_mean_wf(law, r, 2.5, CFG)
                sf = effective_mean_sf(law, r, 2.5, CFG)
                assert wf + 1e-9 >= sf

    @given(
        st.floats(min_value=0.3, max_value=3.0),
        st.floats(min_value=1.05, max_value=8.0),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_r(self, scale, m, frac):
        law = Uniform(0.0, scale)
        r1 = frac * m * law.mean()
        r2 = min(1.05 * r1, m * law.mean())
        assert effective_mean_wf(law, r2, m, CFG) >= effective_mean_wf(law, r1, m, CFG) - 1e-8
        assert effective_mean_sf(law, r2, m, CFG) >= effective_mean_sf(law, r1, m, CFG) - 1e-8


class TestClassify:
    def test_wf_survival(self):
        triple = LawTriple(OFF_15, Uniform(0.0, 2.0), Constant(1.2))
        assert classify("wf", triple, CFG).verdict == "positive_survival"

    def test_wf_extinction(self):
        # m = 3: the crossing sits at r = 1/3, so r = 0.3 is just below
        triple = LawTriple(OFF_3, Uniform(0.0, 2.0), Constant(0.3))
        assert classify("wf", triple, CFG).verdict == "almost_sure_extinction"

    def test_wf_critical_band(self):
        # m = 2, uniform(0, 2): the crossing sits exactly at r = 0.5
        triple = LawTriple(OFF_2, Uniform(0.0, 2.0), Constant(0.5))
        assert classify("wf", triple, CFG).verdict == "critical"

    def test_sf_extinction_where_wf_survives(self):
        triple = LawTriple(OFF_15, Uniform(0.0, 2.0), Constant(1.2))
        assert classify("sf", triple, CFG).verdict == "almost_sure_extinction"

    def test_sf_survival(self):
        triple = LawTriple(OFF_3, Uniform(0.0, 2.0), Constant(1.9))
        assert classify("sf", triple, CFG).verdict == "positive_survival"

    def test_fcfs_thresholds_on_claim_mean(self):
        claim = Uniform(0.0, 2.0)
        assert classify("fcfs", LawTriple(OFF_2, claim, Constant(1.2)), CFG).verdict == "positive_survival"
        assert classify("fcfs", LawTriple(OFF_2, claim, Constant(0.8)), CFG).verdict == "almost_sure_extinction"
        assert classify("fcfs", LawTriple(OFF_2, claim, Constant(1.0)), CFG).verdict == "critical"

    def test_subcritical_offspring_inapplicable(self):
        triple = LawTriple(OffspringLaw((0.5, 0.5)), Uniform(0.0, 2.0), Constant(1.2))
        assert classify("wf", triple, CFG).verdict == "inapplicable"

    def test_sf_unbounded_inapplicable(self):
        triple = LawTriple(OFF_2, Exponential(1.0), Constant(1.2))
        assert classify("sf", triple, CFG).verdict == "inapplicable"
        assert classify("wf", triple, CFG).verdict != "inapplicable"

    def test_atomic_claims_inapplicable_for_cutoff_kinds(self):
        triple = LawTriple(OFF_2, Constant(1.0), Constant(1.2))
        assert classify("wf", triple, CFG).verdict == "inapplicable"
        assert classify("sf", triple, CFG).verdict == "inapplicable"
        assert classify("fcfs", triple, CFG).verdict == "positive_survival"

    def test_unknown_kind(self):
        triple = LawTriple(OFF_2, Uniform(0.0, 2.0), Constant(1.0))
        with pytest.raises(UnsupportedKindError):
            classify("lifo", triple, CFG)


class TestMomentShortcut:
    def test_wf_survival_clause(self):
        triple = LawTriple(OFF_15, Uniform(0.0, 2.0), Constant(1.2))
        got = moment_shortcut("wf", triple)
        assert got is not None and got.verdict == "positive_survival"
        assert classify("wf", triple, CFG).verdict == got.verdict

    def test_wf_extinction_clause_needs_small_variance(self):
        # narrow claims around 1, scarce resource: the variance clause fires
        claim = Uniform(0.9, 1.1)
        triple = LawTriple(OFF_3, claim, Constant(0.5))
        got = moment_shortcut("wf", triple)
        assert got is not None and got.verdict == "almost_sure_extinction"
        assert classify("wf", triple, CFG).verdict == got.verdict
        # same resource level but wide claims: no clause applies
        wide = LawTriple(OFF_3, Uniform(0.0, 2.0), Constant(0.5))
        assert moment_shortcut("wf", wide) is None

    def test_sf_extinction_clause(self):
        triple = LawTriple(OFF_3, Uniform(0.0, 2.0), Constant(0.8))
        got = moment_shortcut("sf", triple)
        assert got is not None and got.verdict == "almost_sure_extinction"
        assert classify("sf", triple, CFG).verdict == got.verdict

    def test_sf_survival_clause(self):
        claim = Uniform(0.9, 1.1)
        # r >= mu * sqrt(m) = 1.1 * ... with m = 3: need r >= 1.733
        triple = LawTriple(OFF_3, claim, Constant(1.8))
        got = moment_shortcut("sf", triple)
        assert got is not None and got.verdict == "positive_survival"
        assert classify("sf", triple, CFG).verdict == got.verdict

    def test_subcritical_returns_none(self):
        triple = LawTriple(OffspringLaw((0.5, 0.5)), Uniform(0.0, 2.0), Constant(1.2))
        assert moment_shortcut("wf", triple) is None

    def test_fcfs_unsupported(self):
        triple = LawTriple(OFF_2, Uniform(0.0, 2.0), Constant(1.0))
        with pytest.raises(UnsupportedKindError):
            moment_shortcut("fcfs", triple)

    def test_never_contradicts_classify(self):
        """Wherever a shortcut clause fires, the full criterion agrees."""
        claims = [Uniform(0.0, 2.0), Uniform(0.8, 1.2), ScaledBeta(2.0, 2.0, 2.0)]
        for claim in claims:
            for off in (OFF_15, OFF_2, OFF_3):
                for r in (0.2, 0.5, 0.8, 1.1, 1.5, 2.0, 3.0):
                    triple = LawTriple(off, claim, Constant(r))
                    for kind in ("wf", "sf"):
                        got = moment_shortcut(kind, triple)
                        if got is not None:
                            assert classify(kind, triple, CFG).verdict == got.verdict, (
                                claim, off.mean(), r, kind,
                            )


class TestCriticalResource:
    def test_fcfs_is_claim_mean(self):
        assert critical_resource_mean("fcfs", Uniform(0.0, 2.0), 2.0, CFG) == 1.0
        assert critical_resource_mean("fcfs", Exponential(2.0), 5.0, CFG) == 0.5

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0, 10.0])
    def test_uniform_closed_form_vs_bisection(self, m):
        law = Uniform(0.0, 2.0)
        for kind in ("wf", "sf", "fcfs"):
            solved = critical_resource_mean(kind, law, m, CFG)
            closed = closed_form_critical_resource(kind, law, m)
            assert solved == pytest.approx(closed, abs=1e-6)

    @pytest.mark.parametrize("a,b,scale", [(2.0, 3.0, 1.0), (0.5, 0.5, 1.0), (1.0, 2.0, 2.0), (2.0, 1.0, 1.0)])
    @pytest.mark.parametrize("m", [1.5, 3.0, 8.0])
    def test_beta_closed_form_vs_bisection(self, a, b, scale, m):
        law = ScaledBeta(a, b, scale)
        for kind in ("wf", "sf"):
            solved = critical_resource_mean(kind, law, m, CFG)
            closed = closed_form_critical_resource(kind, law, m)
            assert solved == pytest.approx(closed, abs=1e-6)

    def test_beta_unit_matches_uniform(self):
        # beta(1, 1) scaled by d is the uniform law on (0, d)
        for m in (1.5, 2.0, 5.0):
            for kind in ("wf", "sf", "fcfs"):
                via_beta = closed_form_critical_resource(kind, ScaledBeta(1.0, 1.0, 2.0), m)
                via_unif = closed_form_critical_resource(kind, Uniform(0.0, 2.0), m)
                assert via_beta == pytest.approx(via_unif, rel=1e-12)

    def test_exponential_three_routes(self):
        """Closed log form, generic bisection, and the explicit special-
        function inversion of the cutoff equation must all agree."""
        m = 2.0
        law = Exponential(1.0)
        closed = closed_form_critical_resource("wf", law, m)
        assert closed == pytest.approx(1.0 - math.log(2.0), abs=1e-12)

        solved = critical_resource_mean("wf", law, m, CFG)
        assert solved == pytest.approx(closed, abs=1e-8)

        # invert the cutoff equation at the closed-form r: the lower branch
        # of w e^w recovers the criticality cutoff -log(1 - 1/m)
        z = -(1.0 - closed / m) / math.e
        tau_hat = -lambert_w_minus1(z) - 1.0
        assert tau_hat == pytest.approx(-math.log(1.0 - 1.0 / m), abs=1e-8)
        assert m * law.cdf(tau_hat) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("m", [1.5, 2.0, 4.0])
    def test_exponential_closed_form_vs_bisection(self, rate, m):
        law = Exponential(rate)
        solved = critical_resource_mean("wf", law, m, CFG)
        closed = closed_form_critical_resource("wf", law, m)
        assert solved == pytest.approx(closed, abs=1e-6)

    def test_exponential_sf_refused(self):
        with pytest.raises(UnboundedClaimError):
            closed_form_critical_resource("sf", Exponential(1.0), 2.0)
        with pytest.raises(UnboundedClaimError):
            critical_resource_mean("sf", Exponential(1.0), 2.0, CFG)

    def test_shifted_uniform_has_no_closed_form(self):
        with pytest.raises(UnsupportedKindError):
            closed_form_critical_resource("wf", Uniform(0.5, 1.5), 2.0)

    def test_constant_claims_have_no_closed_form(self):
        with pytest.raises(UnsupportedKindError):
            closed_form_critical_resource("wf", Constant(1.0), 2.0)

    def test_crossing_property(self):
        """Just below the critical r the verdict is extinction, just above
        it survival, for both cutoff policies."""
        law = Uniform(0.0, 2.0)
        m = 2.0
        for kind in ("wf", "sf"):
            r_star = critical_resource_mean(kind, law, m, CFG)
            off = OFF_2
            below = classify(kind, LawTriple(off, law, Constant(r_star * 0.99)), CFG)
            above = classify(kind, LawTriple(off, law, Constant(r_star * 1.01)), CFG)
            assert below.verdict == "almost_sure_extinction"
            assert above.verdict == "positive_survival"


class TestBetaAsymptotics:
    @pytest.mark.parametrize("a,b", [(2.0, 3.0), (0.5, 0.5), (1.0, 2.0), (2.0, 1.0)])
    def test_relative_error_shrinks_with_m(self, a, b):
        law = ScaledBeta(a, b, 1.0)
        for kind in ("wf", "sf"):
            errors = []
            for m in (10.0, 100.0, 1000.0, 10000.0):
                exact = closed_form_critical_resource(kind, law, m)
                approx = beta_asymptotic_critical_resource(a, b, kind, m)
                if kind == "wf":
                    errors.append(abs(exact / approx - 1.0))
                else:
                    # compare distances from the endpoint, where the action is
                    errors.append(abs((1.0 - exact) / (1.0 - approx) - 1.0))
            # power-law cases make the expansion exact (pure machine noise);
            # otherwise the error must shrink monotonically along the grid
            if max(errors) > 1e-10:
                assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:])), (kind, errors)
            assert errors[-1] < 1e-2

    def test_unit_beta_is_exact_at_every_m(self):
        # for beta(1, 1) the leading order IS the closed form
        for m in (1.5, 2.0, 10.0, 100.0):
            assert beta_asymptotic_critical_resource(1.0, 1.0, "wf", m) == pytest.approx(
                closed_form_critical_resource("wf", ScaledBeta(1.0, 1.0, 1.0), m), rel=1e-12
            )
            assert beta_asymptotic_critical_resource(1.0, 1.0, "sf", m) == pytest.approx(
                closed_form_critical_resource("sf", ScaledBeta(1.0, 1.0, 1.0), m), rel=1e-12
            )

    def test_right_triangular_second_order(self):
        """beta(2, 1): the exact value (2m/3)(1 - (1 - 1/m)^{3/2}) minus the
        leading order 1 - 1/(4m) must vanish like 1/m^2."""
        for m in (50.0, 200.0, 1000.0):
            exact = (2.0 * m / 3.0) * (1.0 - (1.0 - 1.0 / m) ** 1.5)
            closed = closed_form_critical_resource("sf", ScaledBeta(2.0, 1.0, 1.0), m)
            assert closed == pytest.approx(exact, rel=1e-10)
            approx = beta_asymptotic_critical_resource(2.0, 1.0, "sf", m)
            assert approx == pytest.approx(1.0 - 1.0 / (4.0 * m), rel=1e-12)
            assert abs(closed - approx) < 1.0 / m ** 2

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_asymptotic_critical_resource(0.0, 1.0, "wf", 2.0)
        with pytest.raises(UnsupportedKindError):
            beta_asymptotic_critical_resource(1.0, 1.0, "fcfs", 2.0)


class TestCriticalCurve:
    def test_ordering_and_monotonicity(self):
        rows = critical_curve(Uniform(0.0, 2.0), [1.5, 2.0, 3.0, 5.0], CFG)
        for m, r_wc, r_uc, r_sc in rows:
            assert r_wc < r_uc < r_sc
        wc = [row[1] for row in rows]
        sc = [row[3] for row in rows]
        assert wc == sorted(wc, reverse=True)  # easier with more children
        assert sc == sorted(sc)                # harder when the greedy rule rules

    def test_matches_closed_forms(self):
        rows = critical_curve(Uniform(0.0, 2.0), [2.0], CFG)
        m, r_wc, r_uc, r_sc = rows[0]
        assert r_wc == pytest.approx(0.5, abs=1e-6)
        assert r_uc == pytest.approx(1.0, abs=1e-12)
        assert r_sc == pytest.approx(1.5, abs=1e-6)

    def test_bad_grid(self):
        with pytest.raises(DomainError):
            critical_curve(Uniform(0.0, 2.0), [], CFG)
        with pytest.raises(DomainError):
            critical_curve(Uniform(0.0, 2.0), [1.0], CFG)


class TestCriticalReport:
    def test_bounded_triple_fully_populated(self):
        triple = LawTriple(OFF_15, Uniform(0.0, 2.0), Constant(1.2))
        rep = critical_report(triple, CFG)
        assert rep.offspring_mean == 1.5
        assert rep.wf_cutoff is not None and rep.sf_cutoff is not None
        assert rep.effective_mean_wf == pytest.approx(
            1.5 * Uniform(0.0, 2.0).cdf(rep.wf_cutoff), rel=1e-12
        )
        assert rep.critical_resource_wf < rep.critical_resource_fcfs < rep.critical_resource_sf
        assert set(rep.classifications) == {"wf", "sf", "fcfs"}
        assert rep.regularity.ok

    def test_unbounded_triple_has_gaps(self):
        triple = LawTriple(OFF_2, Exponential(1.0), Constant(0.9))
        rep = critical_report(triple, CFG)
        assert rep.sf_cutoff is None
        assert rep.effective_mean_sf is None
        assert rep.critical_resource_sf is None
        assert rep.wf_cutoff is not None
        assert rep.classifications["sf"].verdict == "inapplicable"
