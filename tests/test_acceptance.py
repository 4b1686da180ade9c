"""Acceptance gate: ten end-to-end checks, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  Each
criterion aggregates its sub-checks and prints a single PASS or FAIL
verdict before asserting, so a red run still reports every criterion.

The first four criteria are exact or near-exact numerics.  Criteria five
through nine are statistical: the underlying statements are almost-sure
facts, so fixed seeds plus generous margins turn them into deterministic
regression checks.  Criterion ten replays the structural invariants in
bulk, with randomized cases and exhaustive small strings.
"""

import itertools
import math

import numpy as np

from rdbp import (
    COUNTEREXAMPLE_TRIPLE,
    Constant,
    Exponential,
    LawTriple,
    McConfig,
    OffspringLaw,
    ProcessSpec,
    ScaledBeta,
    Seed,
    Uniform,
    Universe,
    beta_asymptotic_critical_resource,
    counterexample_search,
    critical_resource_mean,
    dominance_check,
    effective_mean_sf,
    effective_mean_wf,
    envelope_check,
    estimate_extinction,
    safe_haven_check,
    solve_sf_threshold,
    solve_wf_threshold,
)
from rdbp.engine import simulate
from rdbp.policies import (
    CoinFlipPolicy,
    CustomPolicy,
    FcfsPolicy,
    StrongestFirstPolicy,
    ThirdLargestFirstPolicy,
    WeakestFirstPolicy,
)

from lambert import lambert_w_minus1
from oracle import bisected_critical_resource, count, reference_order

BINARY_OFFSPRING = OffspringLaw((0.25, 0.0, 0.75))
UNIFORM_CLAIM = Uniform(0.0, 2.0)


def _verdict(num: int, label: str, problems: list) -> None:
    ok = not problems
    line = f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}"
    if problems:
        line += " :: " + "; ".join(str(p) for p in problems)
    print(line, flush=True)
    assert ok, line


def test_criterion_01_worked_example_counts():
    problems = []
    claims = np.array([11.0, 7.0, 15.0, 19.0, 11.0, 18.0, 10.0, 22.0, 17.0, 19.0])
    budget = 100.0

    fcfs = count(FcfsPolicy(), claims, budget)
    consumed = float(np.cumsum(claims)[fcfs - 1])
    if fcfs != 7 or consumed != 91.0:
        problems.append(f"arrival-order count {fcfs} != 7, or consumed {consumed} != 91")

    wf = count(WeakestFirstPolicy(), claims, budget)
    served_wf = reference_order("wf", claims)[:wf].tolist()
    if served_wf != [7.0, 10.0, 11.0, 11.0, 15.0, 17.0, 18.0]:
        problems.append(f"smallest-first served {served_wf}")

    sf = count(StrongestFirstPolicy(), claims, budget)
    served_sf = reference_order("sf", claims)[:sf].tolist()
    if served_sf != [22.0, 19.0, 19.0, 18.0, 17.0]:
        problems.append(f"largest-first served {served_sf}")

    _verdict(1, "worked example counts", problems)


def test_criterion_02_uniform_closed_forms():
    problems = []
    claim = Uniform(0.0, 2.0)
    for m in (1.5, 2.0, 3.0, 5.0):
        r_wc = critical_resource_mean("wf", claim, m)
        r_sc = critical_resource_mean("sf", claim, m)
        r_uc = critical_resource_mean("fcfs", claim, m)
        if abs(r_wc - 1.0 / m) > 1e-12:
            problems.append(f"m={m}: r_wc {r_wc} != 1/m")
        if abs(r_sc - (2.0 - 1.0 / m)) > 1e-12:
            problems.append(f"m={m}: r_sc {r_sc} != 2 - 1/m")
        for kind, closed in (("wf", r_wc), ("sf", r_sc)):
            generic = bisected_critical_resource(kind, claim, m)
            if abs(generic - closed) > 1e-9:
                problems.append(f"m={m} {kind}: bisection {generic} vs closed {closed}")
        if abs((r_uc - r_wc) - (r_sc - r_uc)) > 1e-9:
            problems.append(f"m={m}: arrival-order midpoint identity broken")
    ratio = critical_resource_mean("sf", claim, 3.0) / critical_resource_mean(
        "wf", claim, 3.0
    )
    if abs(ratio - 5.0) > 1e-12:
        problems.append(f"r_sc/r_wc at m=3 is {ratio}, not 5")
    _verdict(2, "uniform closed forms", problems)


def test_criterion_03_exponential_closed_form():
    problems = []
    lam, m = 1.0, 2.0
    target = 1.0 - math.log(2.0)
    claim = Exponential(lam)

    closed = critical_resource_mean("wf", claim, m)
    if abs(closed - target) > 1e-12:
        problems.append(f"closed form {closed} vs {target}")

    # second route: the growth factor expressed through the W branch,
    # m * (1 - exp(W(z(r)) + 1)) with z(r) = -(lam/e) * (1/lam - r/m),
    # crosses 1 exactly at the critical resource mean
    def crossing(r: float) -> float:
        z = -(lam / math.e) * (1.0 / lam - r / m)
        return m * (1.0 - math.exp(lambert_w_minus1(z) + 1.0)) - 1.0

    lo, hi = 1e-9, m / lam * (1.0 - 1e-12)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if crossing(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    r_lambert = 0.5 * (lo + hi)
    if abs(r_lambert - target) > 1e-8:
        problems.append(f"W-branch route {r_lambert} vs {target}")

    generic = bisected_critical_resource("wf", claim, m)
    if abs(generic - target) > 1e-9:
        problems.append(f"bisection route {generic} vs {target}")
    _verdict(3, "exponential critical value", problems)


def test_criterion_04_beta_closed_forms_and_asymptotics():
    problems = []
    for a, b in ((2.0, 10.0), (14.0, 14.0), (10.0, 2.0)):
        claim = ScaledBeta(a, b, 1.0)
        for m in (2.0, 3.0, 5.0, 10.0):
            for kind in ("wf", "sf"):
                closed = critical_resource_mean(kind, claim, m)
                generic = bisected_critical_resource(kind, claim, m)
                if abs(closed - generic) > 1e-9:
                    problems.append(
                        f"beta({a:g},{b:g}) m={m:g} {kind}: closed {closed} vs bisection {generic}"
                    )
        for kind in ("wf", "sf"):
            errs = []
            for m in (10.0, 100.0, 1000.0):
                closed = critical_resource_mean(kind, claim, m)
                asym = beta_asymptotic_critical_resource(a, b, kind, m)
                scale = abs(closed) if kind == "wf" else abs(1.0 - closed)
                errs.append(abs(asym - closed) / scale)
            if not (errs[0] > errs[1] > errs[2]):
                problems.append(f"beta({a:g},{b:g}) {kind}: errors {errs} not decreasing")
    _verdict(4, "beta closed forms and asymptotics", problems)


def test_criterion_05_dominance_hard_invariant():
    problems = []
    triple = LawTriple(BINARY_OFFSPRING, UNIFORM_CLAIM, Constant(0.9))
    mc = McConfig(replicates=1000, horizon=50, explosion_cap=10**5, base_seed=Seed(1001))
    for policy in (
        FcfsPolicy(),
        StrongestFirstPolicy(),
        CoinFlipPolicy(),
        ThirdLargestFirstPolicy(),
    ):
        violations = dominance_check(policy, triple, mc)
        if violations:
            problems.append(f"{policy.name}: {violations} generations above the reference")
    _verdict(5, "smallest-first dominance, 1000 coupled replicates", problems)


def test_criterion_06_extinction_criteria_statistically():
    problems = []
    mc = McConfig(replicates=2000, horizon=200, explosion_cap=10**4, base_seed=Seed(601))

    def run(policy, r):
        triple = LawTriple(BINARY_OFFSPRING, UNIFORM_CLAIM, Constant(r))
        spec = ProcessSpec(laws=triple, policy=policy, initial_size=1)
        return estimate_extinction(spec, mc)

    est = run(WeakestFirstPolicy(), 0.4)
    if est.p_extinct < 0.99:
        problems.append(f"smallest-first r=0.4: extinction {est.p_extinct} < 0.99")

    est = run(WeakestFirstPolicy(), 1.2)
    explosion = est.n_exploded / est.replicates
    if explosion < 0.05:
        problems.append(f"smallest-first r=1.2: explosion {explosion} < 0.05")

    est = run(FcfsPolicy(), 0.8)
    if est.p_extinct < 0.99:
        problems.append(f"arrival-order r=0.8: extinction {est.p_extinct} < 0.99")

    est = run(StrongestFirstPolicy(), 1.2)
    if est.p_extinct < 0.99:
        problems.append(f"largest-first r=1.2: extinction {est.p_extinct} < 0.99")
    _verdict(6, "extinction and explosion frequencies", problems)


def test_criterion_07_growth_rate_convergence():
    problems = []

    def run(policy, r, target, label):
        triple = LawTriple(BINARY_OFFSPRING, UNIFORM_CLAIM, Constant(r))
        mc = McConfig(
            replicates=30, horizon=100, explosion_cap=120_000, base_seed=Seed(701)
        )
        # a hundred founders skip the small-size bottleneck; the asserted
        # limit concerns late ratios and is blind to the founding size
        est = envelope_check(
            policy, triple, mc, min_size=10**4, slack=0.05, initial_size=100
        )
        if abs(est.mean_ratio - target) > 0.05 * target:
            problems.append(
                f"{label}: late ratio {est.mean_ratio:.4f} not within 5% of {target:.4f}"
            )

    run(WeakestFirstPolicy(), 1.2, effective_mean_wf(UNIFORM_CLAIM, 1.2, 1.5), "smallest-first")
    run(StrongestFirstPolicy(), 1.45, effective_mean_sf(UNIFORM_CLAIM, 1.45, 1.5), "largest-first")
    # with r above m * mu every child is eventually served, so the ratio
    # approaches the bare offspring mean
    run(FcfsPolicy(), 2.0, 1.5, "arrival-order")
    _verdict(7, "late growth ratios track effective means", problems)


def test_criterion_08_safe_haven():
    problems = []
    triple = LawTriple(BINARY_OFFSPRING, UNIFORM_CLAIM, Constant(1.2))
    mc = McConfig(replicates=500, horizon=60, explosion_cap=5000, base_seed=Seed(801))
    report = safe_haven_check(triple, (1, 2, 5, 10), mc)
    if not report.monotone_nonincreasing:
        problems.append("extinction estimates not monotone in founding size")
    for row in report.rows:
        if not row.within_bound:
            problems.append(
                f"L={row.initial_size}: estimate exceeds the powered single-founder bound"
            )
    first, last = report.rows[0].estimate.p_extinct, report.rows[-1].estimate.p_extinct
    if not first > last:
        problems.append(f"no strict decrease: L=1 gives {first}, L=10 gives {last}")
    _verdict(8, "safe haven in the founding size", problems)


def test_criterion_09_counterexample_witness():
    problems = []
    mc = McConfig(base_seed=Seed(0))
    result = counterexample_search(COUNTEREXAMPLE_TRIPLE, mc, budget=10**6)
    if not result.found:
        problems.append(f"no witness in {result.scanned} replicates")
    else:
        w = result.witness
        if w.policy_sizes[-1] != 0 or w.sf_sizes[-1] <= 0:
            problems.append(f"witness sizes {w.policy_sizes} vs {w.sf_sizes}")
        if w.replicate_id != 118357:
            problems.append(f"first hit moved to replicate {w.replicate_id}")
        # replay the witness directly through the engine
        u = Universe(Seed(w.seed_value), COUNTEREXAMPLE_TRIPLE, 0).derive_replicate(
            w.replicate_id
        )
        got, ref = (
            simulate(ProcessSpec(laws=COUNTEREXAMPLE_TRIPLE, policy=policy, horizon=2), u)
            for policy in (ThirdLargestFirstPolicy(), StrongestFirstPolicy())
        )
        if tuple(got.sizes) != w.policy_sizes or tuple(ref.sizes) != w.sf_sizes:
            problems.append("replay disagrees with the recorded witness")
        if counterexample_search(COUNTEREXAMPLE_TRIPLE, mc, budget=10**6) != result:
            problems.append("search is not deterministic")
    _verdict(9, "deviant policy loses on a replayable universe", problems)


# ---------------------------------------------------------------------------
# criterion 10: bulk property suites


def _subset_best_count(claims: np.ndarray, budget: int) -> int:
    """Exact best admissible subset size by full enumeration (n <= 20)."""
    n = len(claims)
    if n == 0:
        return 0
    masks = np.arange(1 << n, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.float64)
    feasible = bits @ claims <= budget
    return int(bits.sum(axis=1)[feasible].max())


def _policy_counts(claims: np.ndarray, budget: int, rng: np.random.Generator):
    # the ranks of U(0, 1) deviates: distinct aux words in a random order
    aux = rng.random(len(claims)).argsort(kind="stable").argsort().astype(np.uint64)
    perm = rng.permutation(len(claims))
    custom = CustomPolicy(lambda c, p=perm: p[: len(c)] if len(c) == len(p) else np.arange(len(c)))
    return [
        count(FcfsPolicy(), claims, budget),
        count(CoinFlipPolicy(), claims, budget, aux),
        count(ThirdLargestFirstPolicy(), claims, budget),
        count(custom, claims, budget),
    ]


def count_wf(claims: np.ndarray, budget: int) -> int:
    return count(WeakestFirstPolicy(), claims, budget)


def count_sf(claims: np.ndarray, budget: int) -> int:
    return count(StrongestFirstPolicy(), claims, budget)


def _check_string_case(claims: np.ndarray, budget: int, rng, problems: list) -> None:
    n = len(claims)
    n_count = count_wf(claims, budget)
    m_count = count_sf(claims, budget)

    for q in _policy_counts(claims, budget, rng):
        if not m_count <= q <= n_count:
            problems.append(f"sandwich broken: {m_count} <= {q} <= {n_count} at {claims}")
            return
    if n_count != _subset_best_count(claims, budget):
        problems.append(f"smallest-first not maximal at {claims}, s={budget}")
        return
    if n and count_wf(claims[:-1], budget) > n_count:
        problems.append(f"count not monotone in arrivals at {claims}")
        return
    if count_wf(claims, budget + 1) < n_count or count_sf(claims, budget + 1) < m_count:
        problems.append(f"count not monotone in budget at {claims}")
        return

    # largest-first prefix window: minimum at an endpoint, maximum within
    # the window-length bound
    t1 = int(rng.integers(0, n + 1))
    t2 = int(rng.integers(t1, n + 1))
    window = [count_sf(claims[:t], budget) for t in range(t1, t2 + 1)]
    if window:
        if min(window) != min(window[0], window[-1]):
            problems.append(f"window minimum away from endpoints at {claims}")
        if max(window) > (t2 - t1) + window[0]:
            problems.append(f"window maximum exceeds growth bound at {claims}")


def test_criterion_10_property_suites():
    problems = []
    rng = np.random.Generator(np.random.PCG64(20240823))

    # claims and budgets in quanta of 1/4: claims up to 10, budgets up to 40
    cases = 0
    while cases < 10_000 and len(problems) < 5:
        n = int(rng.integers(0, 9))
        claims = rng.integers(0, 41, size=n)
        budget = int(rng.integers(0, 161))
        _check_string_case(claims, budget, rng, problems)
        cases += 1

    # exhaustive: every claim string over a three-letter alphabet (0.5, 1 and
    # 2.5 in quarters) up to length eight, against three budgets
    alphabet = (2, 4, 10)
    for n in range(0, 9):
        for combo in itertools.product(alphabet, repeat=n):
            claims = np.array(combo, dtype=np.int64)
            for budget in (3, 8, 21):
                if len(problems) >= 5:
                    break
                _check_string_case(claims, budget, rng, problems)

    # partial moments: lower plus upper equals the mean everywhere
    checked = 0
    for _ in range(40):
        laws = [
            Uniform(0.0, float(rng.uniform(0.5, 5.0))),
            Uniform(float(rng.uniform(0.0, 1.0)), float(rng.uniform(1.5, 4.0))),
            ScaledBeta(float(rng.uniform(0.3, 8.0)), float(rng.uniform(0.3, 8.0)),
                       float(rng.uniform(0.5, 3.0))),
            Exponential(float(rng.uniform(0.2, 4.0))),
        ]
        for law in laws:
            hi = law.support_upper if law.is_bounded else 5.0 * law.mean()
            mean = law.mean()
            for x in rng.uniform(-0.5, hi * 1.1, size=80):
                total = law.lower_partial_moment(float(x)) + law.upper_partial_moment(float(x))
                if not math.isclose(total, mean, rel_tol=1e-9, abs_tol=1e-12):
                    problems.append(f"partial moments do not sum to the mean for {law}")
                    break
                checked += 1
    if checked < 10_000:
        problems.append(f"only {checked} partial-moment cases")

    # cutoff monotonicity in r
    for i in range(10_000):
        if len(problems) >= 5:
            break
        pick = i % 5
        if pick < 3:
            law = Uniform(0.0, 1.0 + (i % 37) / 12.0)
        elif pick == 3:
            law = ScaledBeta(0.5 + (i % 11) / 3.0, 0.5 + (i % 7) / 2.0, 1.0)
        else:
            law = Exponential(0.5 + (i % 13) / 6.0)
        m = 1.1 + (i % 29) / 3.0
        top = m * law.mean()
        r1 = top * (0.05 + 0.4 * ((i * 7919) % 97) / 97.0)
        r2 = r1 + top * 0.25
        if not law.is_bounded:
            r2 = min(r2, top * 0.999)
        tau1 = solve_wf_threshold(law, r1, m)
        tau2 = solve_wf_threshold(law, r2, m)
        if tau1 > tau2 + 1e-7:
            problems.append(f"lower cutoff fell as r grew for {law}")
        if law.is_bounded:
            th1 = solve_sf_threshold(law, r1, m)
            th2 = solve_sf_threshold(law, r2, m)
            if th2 > th1 + 1e-7:
                problems.append(f"upper cutoff rose as r grew for {law}")

    # critical ordering: smallest-first threshold below the claim mean,
    # largest-first above it
    for i in range(10_000):
        if len(problems) >= 5:
            break
        m = 1.05 + (i % 53) / 4.0
        if i % 5 < 4:
            law = Uniform(0.0, 0.5 + (i % 31) / 7.0)
        else:
            law = ScaledBeta(0.4 + (i % 9) / 2.0, 0.4 + (i % 13) / 3.0, 2.0)
        r_wc = critical_resource_mean("wf", law, m)
        r_sc = critical_resource_mean("sf", law, m)
        mu = law.mean()
        if not (r_wc < mu < r_sc):
            problems.append(f"critical ordering broken for {law} at m={m:g}")

    _verdict(10, "bulk structural invariants", problems)
