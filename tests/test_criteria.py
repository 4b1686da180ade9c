import math
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdbp import (
    CRITICAL_BAND,
    Constant,
    ConvergenceError,
    DomainError,
    Exponential,
    LawTriple,
    OffspringLaw,
    ScaledBeta,
    Uniform,
    UnboundedClaimError,
    UnsupportedKindError,
    beta_asymptotic_critical_resource,
    classify,
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
from mp_beta import beta_root
from oracle import bisected_critical_resource, bisected_cutoff, bisected_effective_mean

# offspring laws with mean 1.5, 2 and 3, extinction always reachable
OFF_15 = OffspringLaw((0.25, 0.0, 0.75))
OFF_2 = OffspringLaw((1 / 3, 0.0, 0.0, 2 / 3))
OFF_3 = OffspringLaw((0.25, 0.0, 0.0, 0.0, 0.75))


class TestThresholdSolvers:
    def test_uniform_frozen_values(self):
        """Uniform(0, 2), r = 1, m = 3: cutoffs known in closed form."""
        law = Uniform(0.0, 2.0)
        low_cut = solve_wf_threshold(law, 1.0, 3.0)
        high_cut = solve_sf_threshold(law, 1.0, 3.0)
        assert low_cut == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-9)      # 1.1547005383792515
        assert high_cut == pytest.approx(2.0 * math.sqrt(2.0 / 3.0), abs=1e-9)  # 1.6329931618554520

    def test_residuals_meet_tolerance(self):
        # the partial moments at the cutoffs give r/m back to a few ulp, as
        # far as the moments themselves are good in floating point
        for law in (Uniform(0.0, 2.0), ScaledBeta(2.0, 3.0, 1.5), Exponential(0.7)):
            m, r = 2.5, 0.4 * law.mean()
            low_cut = solve_wf_threshold(law, r, m)
            assert abs(law.lower_partial_moment(low_cut) - r / m) <= 8 * math.ulp(r / m)
            if law.is_bounded:
                high_cut = solve_sf_threshold(law, r, m)
                assert abs(law.upper_partial_moment(high_cut) - r / m) <= 8 * math.ulp(r / m)

    def test_rejects_r_above_total_demand(self):
        law = Uniform(0.0, 2.0)
        with pytest.raises(DomainError):
            solve_wf_threshold(law, 3.5, 3.0)
        with pytest.raises(DomainError):
            solve_sf_threshold(law, 3.5, 3.0)

    def test_bounded_edge_returns_support_top(self):
        law = Uniform(0.0, 2.0)
        assert solve_wf_threshold(law, 3.0, 3.0) == 2.0
        # largest-first serves every claim from the support's bottom up
        assert solve_sf_threshold(law, 3.0, 3.0) == 0.0
        assert solve_wf_threshold(Uniform(0.5, 1.5), 2.0, 2.0) == 1.5
        assert solve_sf_threshold(Uniform(0.5, 1.5), 2.0, 2.0) == 0.5
        assert solve_wf_threshold(ScaledBeta(2.0, 2.0, 2.0), 2.0, 2.0) == 2.0

    @pytest.mark.parametrize("law", [Uniform(0.0, 2.0), Uniform(0.5, 1.5), ScaledBeta(2.0, 5.0, 1.5),
                                     ScaledBeta(0.5, 0.5, 2.0), Exponential(0.7)])
    def test_closed_forms_vs_bisection(self, law):
        for frac in (0.05, 0.4, 0.9):
            m = 2.5
            r = frac * m * law.mean()
            for side in ("wf", "sf") if law.is_bounded else ("wf",):
                solve = solve_wf_threshold if side == "wf" else solve_sf_threshold
                eff = effective_mean_wf if side == "wf" else effective_mean_sf
                assert solve(law, r, m) == pytest.approx(bisected_cutoff(side, law, r, m), abs=1e-9)
                assert eff(law, r, m) == pytest.approx(bisected_effective_mean(side, law, r, m), abs=1e-9)

    def test_nan_root_raises(self):
        # betaincinv(6, 2, 7e-191) is NaN; the cutoff must not hand it on
        with pytest.raises(ConvergenceError, match="wf cutoff for scaled_beta claims at r=1e-190"):
            effective_mean_wf(ScaledBeta(5.0, 2.0), 1e-190, 2.0)

    def test_unbounded_edge_refused(self):
        # with unbounded claims the cutoff diverges as r approaches m * mu
        with pytest.raises(DomainError):
            solve_wf_threshold(Exponential(1.0), 3.0, 3.0)

    def test_sf_needs_bounded_claims(self):
        with pytest.raises(UnboundedClaimError):
            solve_sf_threshold(Exponential(1.0), 1.0, 3.0)

    def test_atomic_claims_refused(self):
        with pytest.raises(UnsupportedKindError):
            solve_wf_threshold(Constant(1.0), 0.5, 3.0)
        with pytest.raises(UnsupportedKindError):
            solve_sf_threshold(Constant(1.0), 0.5, 3.0)

    def test_bad_parameters(self):
        law = Uniform(0.0, 2.0)
        for r, m in [(0.0, 2.0), (-1.0, 2.0), (1.0, 1.0), (1.0, 0.5), (math.inf, 2.0)]:
            with pytest.raises(DomainError):
                solve_wf_threshold(law, r, m)


class TestEffectiveMeans:
    def test_uniform_frozen_values(self):
        law = Uniform(0.0, 2.0)
        assert effective_mean_wf(law, 1.0, 3.0) == pytest.approx(math.sqrt(3.0), abs=1e-9)
        assert effective_mean_sf(law, 1.0, 3.0) == pytest.approx(
            3.0 - 1.5 * 2.0 * math.sqrt(2.0 / 3.0), abs=1e-9
        )  # 0.5505102572168221

    def test_ample_resource_convention(self):
        law = Uniform(0.0, 2.0)
        for r in (3.0, 4.0, 100.0):  # r >= m * mu = 3
            assert effective_mean_wf(law, r, 3.0) == 3.0
            assert effective_mean_sf(law, r, 3.0) == 3.0

    def test_wf_dominates_sf(self):
        """Funding small claims first always curtails the mean less."""
        for law in (Uniform(0.0, 2.0), ScaledBeta(2.0, 3.0, 1.0), ScaledBeta(0.5, 0.5, 2.0)):
            for frac in (0.1, 0.4, 0.8):
                r = frac * 2.5 * law.mean()
                wf = effective_mean_wf(law, r, 2.5)
                sf = effective_mean_sf(law, r, 2.5)
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
        assert effective_mean_wf(law, r2, m) >= effective_mean_wf(law, r1, m) - 1e-8
        assert effective_mean_sf(law, r2, m) >= effective_mean_sf(law, r1, m) - 1e-8


class TestClassify:
    def test_wf_survival(self):
        triple = LawTriple(OFF_15, Uniform(0.0, 2.0), Constant(1.2))
        assert classify("wf", triple).verdict == "positive_survival"

    def test_wf_extinction(self):
        # m = 3: the crossing sits at r = 1/3, so r = 0.3 is just below
        triple = LawTriple(OFF_3, Uniform(0.0, 2.0), Constant(0.3))
        assert classify("wf", triple).verdict == "almost_sure_extinction"

    def test_wf_critical_band(self):
        # m = 2, uniform(0, 2): the crossing sits exactly at r = 0.5
        triple = LawTriple(OFF_2, Uniform(0.0, 2.0), Constant(0.5))
        assert classify("wf", triple).verdict == "critical"

    def test_sf_extinction_where_wf_survives(self):
        triple = LawTriple(OFF_15, Uniform(0.0, 2.0), Constant(1.2))
        assert classify("sf", triple).verdict == "almost_sure_extinction"

    def test_sf_survival(self):
        triple = LawTriple(OFF_3, Uniform(0.0, 2.0), Constant(1.9))
        assert classify("sf", triple).verdict == "positive_survival"

    def test_fcfs_thresholds_on_claim_mean(self):
        claim = Uniform(0.0, 2.0)
        assert classify("fcfs", LawTriple(OFF_2, claim, Constant(1.2))).verdict == "positive_survival"
        assert classify("fcfs", LawTriple(OFF_2, claim, Constant(0.8))).verdict == "almost_sure_extinction"
        assert classify("fcfs", LawTriple(OFF_2, claim, Constant(1.0))).verdict == "critical"

    def test_subcritical_offspring_inapplicable(self):
        triple = LawTriple(OffspringLaw((0.5, 0.5)), Uniform(0.0, 2.0), Constant(1.2))
        assert classify("wf", triple).verdict == "inapplicable"

    def test_sf_unbounded_inapplicable(self):
        triple = LawTriple(OFF_2, Exponential(1.0), Constant(1.2))
        assert classify("sf", triple).verdict == "inapplicable"
        assert classify("wf", triple).verdict != "inapplicable"

    def test_atomic_claims_inapplicable_for_cutoff_kinds(self):
        triple = LawTriple(OFF_2, Constant(1.0), Constant(1.2))
        assert classify("wf", triple).verdict == "inapplicable"
        assert classify("sf", triple).verdict == "inapplicable"
        assert classify("fcfs", triple).verdict == "positive_survival"

    def test_unknown_kind(self):
        triple = LawTriple(OFF_2, Uniform(0.0, 2.0), Constant(1.0))
        with pytest.raises(UnsupportedKindError):
            classify("lifo", triple)


class TestMomentShortcut:
    def test_wf_survival_clause(self):
        triple = LawTriple(OFF_15, Uniform(0.0, 2.0), Constant(1.2))
        got = moment_shortcut("wf", triple)
        assert got is not None and got.verdict == "positive_survival"
        assert classify("wf", triple).verdict == got.verdict

    def test_wf_extinction_clause_needs_small_variance(self):
        # narrow claims around 1, scarce resource: the variance clause fires
        claim = Uniform(0.9, 1.1)
        triple = LawTriple(OFF_3, claim, Constant(0.5))
        got = moment_shortcut("wf", triple)
        assert got is not None and got.verdict == "almost_sure_extinction"
        assert classify("wf", triple).verdict == got.verdict
        # same resource level but wide claims: no clause applies
        wide = LawTriple(OFF_3, Uniform(0.0, 2.0), Constant(0.5))
        assert moment_shortcut("wf", wide) is None

    def test_sf_extinction_clause(self):
        triple = LawTriple(OFF_3, Uniform(0.0, 2.0), Constant(0.8))
        got = moment_shortcut("sf", triple)
        assert got is not None and got.verdict == "almost_sure_extinction"
        assert classify("sf", triple).verdict == got.verdict

    def test_sf_survival_clause(self):
        claim = Uniform(0.9, 1.1)
        # r >= mu * sqrt(m) = 1.1 * ... with m = 3: need r >= 1.733
        triple = LawTriple(OFF_3, claim, Constant(1.8))
        got = moment_shortcut("sf", triple)
        assert got is not None and got.verdict == "positive_survival"
        assert classify("sf", triple).verdict == got.verdict

    def test_subcritical_returns_none(self):
        triple = LawTriple(OffspringLaw((0.5, 0.5)), Uniform(0.0, 2.0), Constant(1.2))
        assert moment_shortcut("wf", triple) is None

    def test_fcfs_unsupported(self):
        triple = LawTriple(OFF_2, Uniform(0.0, 2.0), Constant(1.0))
        with pytest.raises(UnsupportedKindError):
            moment_shortcut("fcfs", triple)

    @pytest.mark.parametrize("kind, triple", [
        # unbounded claims: no largest-first criterion, though r < mu
        ("sf", LawTriple(OffspringLaw((0.25, 0.0, 0.75)), Exponential(1.0), Constant(0.5))),
        # p0 = 0: extinction is unreachable, though mu < r
        ("wf", LawTriple(OffspringLaw((0.0, 0.5, 0.5)), Uniform(0.0, 2.0), Constant(1.5))),
    ])
    def test_no_shortcut_where_classify_is_inapplicable(self, kind, triple):
        assert classify(kind, triple).verdict == "inapplicable"
        assert moment_shortcut(kind, triple) is None

    @given(
        st.floats(min_value=0.01, max_value=0.6),
        st.integers(min_value=2, max_value=6),
        st.sampled_from(["uniform", "beta", "exponential"]),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.05, max_value=3.0),
        st.floats(min_value=0.3, max_value=20.0),
        st.floats(min_value=0.01, max_value=4.0),
    )
    @settings(max_examples=400, deadline=None)
    def test_random_triples_never_contradict_classify(self, p0, top, kind, lo, width, shape, share):
        """A shortcut's verdict is classify's, or classify calls it critical;
        where classify calls the triple inapplicable there is no shortcut."""
        off = OffspringLaw((p0,) + (0.0,) * (top - 1) + (1.0 - p0,))
        claim = {"uniform": Uniform(lo, lo + width), "beta": ScaledBeta(shape, 1.0 + lo * shape, width),
                 "exponential": Exponential(1.0 / width)}[kind]
        triple = LawTriple(off, claim, Constant(share * claim.mean()))
        for process_kind in ("wf", "sf"):
            got = moment_shortcut(process_kind, triple)
            verdict = classify(process_kind, triple).verdict
            if got is not None:
                assert verdict in (got.verdict, "critical"), (process_kind, got)

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
                            assert classify(kind, triple).verdict == got.verdict, (
                                claim, off.mean(), r, kind,
                            )


class TestCriticalResource:
    def test_fcfs_is_claim_mean(self):
        assert critical_resource_mean("fcfs", Uniform(0.0, 2.0), 2.0) == 1.0
        assert critical_resource_mean("fcfs", Exponential(2.0), 5.0) == 0.5

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0, 10.0])
    def test_uniform_closed_form_vs_bisection(self, m):
        law = Uniform(0.0, 2.0)
        for kind in ("wf", "sf"):
            solved = bisected_critical_resource(kind, law, m)
            closed = critical_resource_mean(kind, law, m)
            assert solved == pytest.approx(closed, abs=1e-9)
        assert critical_resource_mean("fcfs", law, m) == law.mean()

    @pytest.mark.parametrize("a,b,scale", [(2.0, 3.0, 1.0), (0.5, 0.5, 1.0), (1.0, 2.0, 2.0), (2.0, 1.0, 1.0)])
    @pytest.mark.parametrize("m", [1.5, 3.0, 8.0])
    def test_beta_closed_form_vs_bisection(self, a, b, scale, m):
        law = ScaledBeta(a, b, scale)
        for kind in ("wf", "sf"):
            solved = bisected_critical_resource(kind, law, m)
            closed = critical_resource_mean(kind, law, m)
            assert solved == pytest.approx(closed, abs=1e-9)

    def test_beta_unit_matches_uniform(self):
        # beta(1, 1) scaled by d is the uniform law on (0, d)
        for m in (1.5, 2.0, 5.0):
            for kind in ("wf", "sf", "fcfs"):
                via_beta = critical_resource_mean(kind, ScaledBeta(1.0, 1.0, 2.0), m)
                via_unif = critical_resource_mean(kind, Uniform(0.0, 2.0), m)
                assert via_beta == pytest.approx(via_unif, rel=1e-12)

    def test_exponential_three_routes(self):
        """Closed form, the oracle's bisection, and the explicit special-
        function inversion of the cutoff equation must all agree."""
        m = 2.0
        law = Exponential(1.0)
        closed = critical_resource_mean("wf", law, m)
        assert closed == pytest.approx(1.0 - math.log(2.0), abs=1e-12)

        solved = bisected_critical_resource("wf", law, m)
        assert solved == pytest.approx(closed, abs=1e-9)

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
        solved = bisected_critical_resource("wf", law, m)
        closed = critical_resource_mean("wf", law, m)
        assert solved == pytest.approx(closed, abs=1e-9)

    def test_exponential_sf_refused(self):
        with pytest.raises(UnboundedClaimError):
            critical_resource_mean("sf", Exponential(1.0), 2.0)
        with pytest.raises(UnboundedClaimError):
            critical_curve(Exponential(1.0), [2.0])

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0, 10.0])
    def test_shifted_uniform_closed_form_vs_bisection(self, m):
        # lo + (hi - lo)/(2m) smallest-first, hi - (hi - lo)/(2m) largest-first
        law = Uniform(0.5, 1.5)
        assert critical_resource_mean("wf", law, m) == pytest.approx(0.5 + 1.0 / (2.0 * m), abs=math.ulp(1.0))
        assert critical_resource_mean("sf", law, m) == pytest.approx(1.5 - 1.0 / (2.0 * m), abs=math.ulp(1.0))
        for kind in ("wf", "sf"):
            assert critical_resource_mean(kind, law, m) == pytest.approx(
                bisected_critical_resource(kind, law, m), abs=1e-9)
        assert critical_resource_mean("fcfs", law, m) == 1.0

    def test_constant_claims_have_no_closed_form(self):
        with pytest.raises(UnsupportedKindError):
            critical_resource_mean("wf", Constant(1.0), 2.0)
        assert critical_resource_mean("fcfs", Constant(1.5), 2.0) == 1.5

    def test_crossing_property(self):
        """Just below the critical r the verdict is extinction, just above
        it survival, for both cutoff policies."""
        law = Uniform(0.0, 2.0)
        m = 2.0
        for kind in ("wf", "sf"):
            r_star = critical_resource_mean(kind, law, m)
            off = OFF_2
            below = classify(kind, LawTriple(off, law, Constant(r_star * 0.99)))
            above = classify(kind, LawTriple(off, law, Constant(r_star * 1.01)))
            assert below.verdict == "almost_sure_extinction"
            assert above.verdict == "positive_survival"


#: shapes with both tails flat, steep, and lopsided, up to near-normal (50, 50)
CLOSED_FORM_SHAPES = [(0.5, 0.5), (2.0, 2.0), (2.0, 5.0), (5.0, 2.0), (0.3, 4.0), (3.0, 30.0),
                      (1.5, 20.0), (50.0, 50.0), (1.0, 3.0), (7.5, 0.8)]
CLOSED_FORM_MS = (1.01, 1.5, 2.0, 10.0, 1e4, 1e7, 1e9, 1e12, 1e15, 1e20, 1e40, 1e70, 1e100)


def _mp_critical_resource(kind, a, b, m):
    """m E[X; tail] for beta(a, b) claims on (0, 1), the tail holding mass
    1/m: the lower tail smallest-first, the upper tail largest-first."""
    with mpmath.workprec(200):
        a, b, m = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(m)
        if kind == "wf":
            moment = mpmath.betainc(a + 1, b, 0, beta_root(a, b, 1 / m), regularized=True)
        else:
            # 1 - X is beta(b, a), and E[X; 1 - X <= y] = a/(a+b) I_y(b, a + 1)
            moment = mpmath.betainc(b, a + 1, 0, beta_root(b, a, 1 / m), regularized=True)
        return m * a / (a + b) * moment


class TestBetaClosedForm:
    @pytest.mark.parametrize("kind", ["wf", "sf"])
    @pytest.mark.parametrize("a,b", CLOSED_FORM_SHAPES)
    def test_matches_mpmath_up_to_m_1e100(self, a, b, kind):
        law = ScaledBeta(a, b, 2.0)
        for m in CLOSED_FORM_MS:
            # the scale is a power of two, so scaling the reference is exact
            want = 2.0 * float(_mp_critical_resource(kind, a, b, m))
            if want < sys.float_info.min:
                # the value itself is below the normal doubles
                with pytest.raises(ConvergenceError):
                    critical_resource_mean(kind, law, m)
                continue
            got = critical_resource_mean(kind, law, m)
            assert got == pytest.approx(want, rel=1e-13), m
            assert got <= 2.0 and type(got) is float

    def test_nan_from_betaincinv_raises(self):
        # betaincinv(5, 2, 1e-160) is NaN; the closed form must not hand it on
        with pytest.raises(ConvergenceError, match=r"a=5, b=2\) claims at m=1e\+160"):
            critical_resource_mean("wf", ScaledBeta(5.0, 2.0), 1e160)

    @pytest.mark.parametrize("a,b", CLOSED_FORM_SHAPES)
    def test_values_stay_inside_the_envelope(self, a, b):
        # every returned value orders wf < fcfs < sf <= scale, and the
        # envelope widens with m (to the 1e-13 the values are good to: sf
        # rounds to the scale at large m, give or take an ulp)
        law = ScaledBeta(a, b, 1.0)
        fcfs = critical_resource_mean("fcfs", law, 2.0)
        last = {"wf": math.inf, "sf": 0.0}
        for m in CLOSED_FORM_MS:
            for kind in ("wf", "sf"):
                try:
                    got = critical_resource_mean(kind, law, m)
                except ConvergenceError:
                    continue
                assert math.isfinite(got) and 0.0 < got <= 1.0, (kind, m, got)
                if kind == "wf":
                    assert got < fcfs and got < last[kind] * (1.0 + 1e-13), (kind, m, got)
                else:
                    assert got > fcfs and got > last[kind] * (1.0 - 1e-13), (kind, m, got)
                last[kind] = got

    @pytest.mark.parametrize("scale", [0.25, 3.0, 7.5])
    def test_scale_multiplies_the_value(self, scale):
        # the closed form is the unit-scale value times the scale, bit for bit
        for a, b in CLOSED_FORM_SHAPES:
            for m in (1.5, 1e4, 1e40):
                for kind in ("wf", "sf"):
                    try:
                        unit = critical_resource_mean(kind, ScaledBeta(a, b, 1.0), m)
                    except ConvergenceError:
                        with pytest.raises(ConvergenceError):
                            critical_resource_mean(kind, ScaledBeta(a, b, scale), m)
                        continue
                    assert critical_resource_mean(kind, ScaledBeta(a, b, scale), m) == scale * unit


#: funded shares p = r / (m E[X]) of the accuracy tests.  As p -> 1 the
#: cutoffs lose digits to the rounding of p itself (largest-first's
#: effective mean too, since its cutoff tends to 0): at p = 1 - 1e-6 they
#: are 1e-12 to 1e-10 off, whatever the inversion
ACCURACY_SHARES = (1e-12, 1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9)


def _mp_cutoff(side, a, b, s, r, m):
    """(T, effective mean) for beta(a, b) claims on (0, s), at 200 bits."""
    with mpmath.workprec(200):
        a, b, s, r, m = (mpmath.mpf(v) for v in (a, b, s, r, m))
        p = r * (a + b) / (m * s * a)
        if side == "wf":
            x = beta_root(a + 1, b, p)
            return s * x, m * mpmath.betainc(a, b, 0, x, regularized=True)
        y = beta_root(b, a + 1, p)
        return s * (1 - y), m * mpmath.betainc(b, a, 0, y, regularized=True)


class TestClosedFormAccuracy:
    @pytest.mark.parametrize("a,b", CLOSED_FORM_SHAPES)
    def test_beta_matches_mpmath(self, a, b):
        law = ScaledBeta(a, b, 2.0)
        for share in ACCURACY_SHARES:
            m = 3.0
            r = share * m * law.mean()
            for side in ("wf", "sf"):
                cut, eff = _mp_cutoff(side, a, b, 2.0, r, m)
                solve = solve_wf_threshold if side == "wf" else solve_sf_threshold
                effective = effective_mean_wf if side == "wf" else effective_mean_sf
                assert solve(law, r, m) == pytest.approx(float(cut), rel=1e-14, abs=0.0), (side, share)
                assert effective(law, r, m) == pytest.approx(float(eff), rel=1e-14, abs=0.0), (side, share)

    @pytest.mark.parametrize("rate", [1.0, 0.5])
    def test_exponential_matches_mpmath(self, rate):
        # rate * r / m = q exactly, from 1e-30 up to 1 - 1e-9; 1 + rate*T is
        # -W_{-1}(-(1 - q)/e), which mpmath evaluates at 200 bits
        law = Exponential(rate)
        for q in [10.0 ** -k for k in range(30, 0, -1)] + [0.5] + [1.0 - 10.0 ** -k for k in range(1, 10)]:
            r = 2.0 * q / rate
            with mpmath.workprec(200):
                z = -mpmath.lambertw(-(1 - mpmath.mpf(q)) / mpmath.e, -1).real - 1
                cut, eff = z / rate, -2 * mpmath.expm1(-z)
            assert solve_wf_threshold(law, r, 2.0) == pytest.approx(float(cut), rel=1e-14, abs=0.0), q
            assert effective_mean_wf(law, r, 2.0) == pytest.approx(float(eff), rel=1e-14, abs=0.0), q

    def test_exponential_critical_resource_matches_mpmath(self):
        # m P(2, -log(1 - 1/m)) / rate; (1 - (m - 1) log(m/(m - 1))) / rate,
        # the same value, cancels to nothing by m = 1e8
        for m in (1.01, 1.5, 2.0, 10.0, 1e4, 1e8, 1e12, 1e16, 1e100):
            with mpmath.workprec(200):
                mp_m = mpmath.mpf(m)
                want = 2 * mp_m * mpmath.gammainc(2, 0, -mpmath.log1p(-1 / mp_m), regularized=True)
            assert critical_resource_mean("wf", Exponential(0.5), m) == pytest.approx(float(want), rel=1e-13), m

    @pytest.mark.parametrize("lo,hi", [(0.0, 2.0), (0.0, 0.3), (0.5, 1.5), (1.75, 9.0), (3.0, 3.125)])
    def test_uniform_is_exact_to_an_ulp(self, lo, hi):
        law = Uniform(lo, hi)
        for m in (1.01, 1.5, 3.0, 1e3):
            for share in ACCURACY_SHARES + (0.99, 1.0 - 1e-9):
                r = share * m * law.mean()
                with mpmath.workprec(200):
                    L, H, R, M = (mpmath.mpf(v) for v in (lo, hi, r, m))
                    low = mpmath.sqrt(L * L + 2 * R * (H - L) / M)
                    high = mpmath.sqrt(H * H - 2 * R * (H - L) / M)
                    want = [low, high, M * (low - L) / (H - L), M * (H - high) / (H - L),
                            L + (H - L) / (2 * M), H - (H - L) / (2 * M)]
                got = [solve_wf_threshold(law, r, m), solve_sf_threshold(law, r, m),
                       effective_mean_wf(law, r, m), effective_mean_sf(law, r, m),
                       critical_resource_mean("wf", law, m), critical_resource_mean("sf", law, m)]
                for g, w in zip(got, want):
                    assert abs(g - w) <= math.ulp(g), (m, share, got, want)


class TestBetaAsymptotics:
    @pytest.mark.parametrize("a,b", [(2.0, 3.0), (0.5, 0.5), (1.0, 2.0), (2.0, 1.0)])
    def test_relative_error_shrinks_with_m(self, a, b):
        law = ScaledBeta(a, b, 1.0)
        for kind in ("wf", "sf"):
            errors = []
            for m in (10.0, 100.0, 1000.0, 10000.0):
                exact = critical_resource_mean(kind, law, m)
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
                critical_resource_mean("wf", ScaledBeta(1.0, 1.0, 1.0), m), rel=1e-12
            )
            assert beta_asymptotic_critical_resource(1.0, 1.0, "sf", m) == pytest.approx(
                critical_resource_mean("sf", ScaledBeta(1.0, 1.0, 1.0), m), rel=1e-12
            )

    def test_right_triangular_second_order(self):
        """beta(2, 1): the exact value (2m/3)(1 - (1 - 1/m)^{3/2}) minus the
        leading order 1 - 1/(4m) must vanish like 1/m^2."""
        for m in (50.0, 200.0, 1000.0):
            exact = (2.0 * m / 3.0) * (1.0 - (1.0 - 1.0 / m) ** 1.5)
            closed = critical_resource_mean("sf", ScaledBeta(2.0, 1.0, 1.0), m)
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
        rows = critical_curve(Uniform(0.0, 2.0), [1.5, 2.0, 3.0, 5.0])
        for m, r_wc, r_uc, r_sc in rows:
            assert r_wc < r_uc < r_sc
        wc = [row[1] for row in rows]
        sc = [row[3] for row in rows]
        assert wc == sorted(wc, reverse=True)  # easier with more children
        assert sc == sorted(sc)                # harder when the greedy rule rules

    def test_matches_closed_forms(self):
        rows = critical_curve(Uniform(0.0, 2.0), [2.0])
        m, r_wc, r_uc, r_sc = rows[0]
        assert r_wc == pytest.approx(0.5, abs=1e-6)
        assert r_uc == pytest.approx(1.0, abs=1e-12)
        assert r_sc == pytest.approx(1.5, abs=1e-6)

    def test_closed_forms_give_exact_values(self):
        # a bisection stops about 1e-10 away: 0.666666666745 here
        [(m, r_wc, r_uc, r_sc)] = critical_curve(Uniform(0.0, 2.0), [1.5])
        assert (r_wc, r_uc) == (2.0 / 3.0, 1.0)
        assert abs(r_sc - 4.0 / 3.0) <= math.ulp(4.0 / 3.0)
        # and 0.62500000000137512 for the benchmark's beta claims at m = 2
        assert critical_curve(ScaledBeta(2.0, 2.0, 2.0), [2.0])[0][1:] == (0.625, 1.0, 1.375)

    def test_shifted_uniform_rows_match_the_oracle(self):
        law = Uniform(0.5, 1.5)
        [(m, r_wc, r_uc, r_sc)] = critical_curve(law, [2.0])
        assert (m, r_wc, r_uc, r_sc) == (2.0, 0.75, 1.0, 1.25)
        assert r_wc == pytest.approx(bisected_critical_resource("wf", law, 2.0), abs=1e-9)
        assert r_sc == pytest.approx(bisected_critical_resource("sf", law, 2.0), abs=1e-9)
        with pytest.raises(UnboundedClaimError):
            critical_curve(Exponential(1.0), [2.0])

    def test_bad_grid(self):
        with pytest.raises(DomainError):
            critical_curve(Uniform(0.0, 2.0), [])
        with pytest.raises(DomainError):
            critical_curve(Uniform(0.0, 2.0), [1.0])


class TestCriticalReport:
    def test_bounded_triple_fully_populated(self):
        triple = LawTriple(OFF_15, Uniform(0.0, 2.0), Constant(1.2))
        rep = critical_report(triple)
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
        rep = critical_report(triple)
        assert rep.sf_cutoff is None
        assert rep.effective_mean_sf is None
        assert rep.critical_resource_sf is None
        assert rep.wf_cutoff is not None
        assert rep.classifications["sf"].verdict == "inapplicable"
