import contextlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdbp.policies
from rdbp import (
    CoinFlipPolicy,
    CustomPolicy,
    FcfsPolicy,
    StrongestFirstPolicy,
    ThirdLargestFirstPolicy,
    WeakestFirstPolicy,
    count_sf,
    policy_from_token,
)
from rdbp.policies import POLICY_TOKENS, _stable_order

from conftest import WORKED_BUDGET, WORKED_CLAIMS
from oracle import StableCoinFlipPolicy, count, reference_count, reference_order

FCFS, WF, SF = FcfsPolicy(), WeakestFirstPolicy(), StrongestFirstPolicy()
SELECT_MIN = rdbp.policies._SELECT_MIN_CLAIMS


def brute_prefix_count(ordered, budget):
    """Reference greedy loop, no numpy."""
    total = 0.0
    served = 0
    for c in ordered:
        if total + c > budget:
            break
        total += c
        served += 1
    return served


def brute_best_count(claims, budget):
    """Largest subset with sum at most budget: serve the smallest claims."""
    return brute_prefix_count(sorted(claims), budget)


claims_arrays = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=0, max_size=25
).map(lambda xs: np.array(xs, dtype=float))
budgets = st.floats(min_value=0.0, max_value=300.0, allow_nan=False)


class TestWorkedExample:
    """The served claims are the first ``count`` of the reference order."""

    def test_fcfs(self):
        served = reference_order("fcfs", WORKED_CLAIMS)[:count(FCFS, WORKED_CLAIMS, WORKED_BUDGET)]
        assert served.tolist() == WORKED_CLAIMS[:7].tolist()
        assert served.sum() == pytest.approx(91.0)

    def test_weakest_first(self):
        served = reference_order("wf", WORKED_CLAIMS)[:count(WF, WORKED_CLAIMS, WORKED_BUDGET)]
        assert served.tolist() == [7, 10, 11, 11, 15, 17, 18]
        assert served.sum() == pytest.approx(89.0)

    def test_strongest_first(self):
        served = reference_order("sf", WORKED_CLAIMS)[:count(SF, WORKED_CLAIMS, WORKED_BUDGET)]
        assert served.tolist() == [22, 19, 19, 18, 17]
        assert served.sum() == pytest.approx(95.0)

    def test_count_helpers_agree(self):
        assert count(FCFS, WORKED_CLAIMS, WORKED_BUDGET) == 7
        assert count(WF, WORKED_CLAIMS, WORKED_BUDGET) == 7
        assert count(SF, WORKED_CLAIMS, WORKED_BUDGET) == 5
        assert count_sf(WORKED_CLAIMS, WORKED_BUDGET) == 5


class TestProperties:
    @given(claims_arrays, budgets)
    def test_sandwich(self, claims, budget):
        lo = count(SF, claims, budget)
        hi = count(WF, claims, budget)
        assert lo <= count(FCFS, claims, budget) <= hi
        if len(claims) >= 1:
            # an arbitrary deterministic permutation sits inside the envelope
            rot = CustomPolicy(lambda c: np.roll(np.arange(len(c)), 1), name="rotate")
            assert lo <= count(rot, claims, budget) <= hi

    @given(claims_arrays, budgets)
    def test_counts_match_brute_force(self, claims, budget):
        assert count(FCFS, claims, budget) == brute_prefix_count(claims, budget)
        assert count(WF, claims, budget) == brute_prefix_count(sorted(claims), budget)
        assert count(SF, claims, budget) == brute_prefix_count(sorted(claims, reverse=True), budget)

    @given(claims_arrays, budgets)
    def test_wf_count_is_maximal(self, claims, budget):
        n = count(WF, claims, budget)
        assert n == brute_best_count(claims, budget)
        if len(claims) <= 12:
            # exhaustive check: no subset beats the weakest-first count
            best = 0
            for r in range(len(claims), 0, -1):
                if r <= best:
                    break
                for sub in itertools.combinations(claims, r):
                    if sum(sub) <= budget:
                        best = r
                        break
            assert n == best

    @given(claims_arrays, budgets, st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    def test_monotone_in_budget(self, claims, budget, extra):
        assert count(WF, claims, budget + extra) >= count(WF, claims, budget)
        assert count(SF, claims, budget + extra) >= count(SF, claims, budget)
        assert count(FCFS, claims, budget + extra) >= count(FCFS, claims, budget)

    @given(claims_arrays, budgets, st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    def test_wf_monotone_in_arrivals(self, claims, budget, newcomer):
        extended = np.append(claims, newcomer)
        assert count(WF, extended, budget) >= count(WF, claims, budget)

    @given(claims_arrays, budgets)
    def test_sf_dip_recovers_at_ends(self, claims, budget):
        """Over any arrival window the smallest largest-first count sits at
        an endpoint: adding arrivals cannot carve a strict interior dip."""
        counts = [count(SF, claims[:t], budget) for t in range(len(claims) + 1)]
        for i in range(len(counts)):
            for j in range(i + 2, len(counts)):
                interior = min(counts[i + 1:j], default=counts[i])
                assert interior >= min(counts[i], counts[j])

    @given(claims_arrays, budgets)
    def test_sf_grows_at_most_one_per_arrival(self, claims, budget):
        counts = [count(SF, claims[:t], budget) for t in range(len(claims) + 1)]
        for prev, nxt in zip(counts, counts[1:]):
            assert nxt <= prev + 1

    @given(claims_arrays)
    def test_zero_budget_serves_no_one_with_positive_claims(self, claims):
        positive = claims[claims > 0]
        assert count(WF, positive, 0.0) == 0
        assert count(SF, positive, 0.0) == 0

    def test_free_riders_with_zero_claims(self):
        # zero claims cost nothing, so they are all served even on nothing
        claims = np.array([0.0, 0.0, 1.0])
        assert count(WF, claims, 0.0) == 2


class TestCoinFlip:
    def test_uses_aux_ranks(self):
        claims = np.array([4.0, 1.0, 2.0])
        aux = np.array([0.9, 0.2, 0.5])
        np.testing.assert_array_equal(_stable_order(aux[None]), [[1, 2, 0]])
        # the claims 1 and 2 fill the budget of 3, and the 4 is left out
        assert count(CoinFlipPolicy(), claims, 3.0, aux) == 2
        assert count(CoinFlipPolicy(), claims, 2.9, aux) == 1

    def test_requires_aux(self):
        with pytest.raises(ValueError):
            CoinFlipPolicy().count_rows(np.array([[1.0]]), np.array([5.0]))
        with pytest.raises(ValueError):
            CoinFlipPolicy().count_rows(np.array([[1.0, 2.0]]), np.array([5.0]), np.array([[0.5]]))

    @given(claims_arrays, budgets, st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_sandwich_holds_for_random_order(self, claims, budget, seed):
        aux = np.random.default_rng(seed).random(len(claims))
        c = count(CoinFlipPolicy(), claims, budget, aux)
        assert count(SF, claims, budget) <= c <= count(WF, claims, budget)


# deviates from three values, so that most rows tie; signed zeros compare
# equal and NaN compares false
TIE_ALPHABETS = [(0.25, 0.5, 0.75), (0.0, -0.0, 0.5), (np.nan, 0.5, -0.0)]


@st.composite
def tied_blocks(draw, min_rows=1, max_rows=50):
    """An (m, t) block of tied aux deviates, with claims and one budget per row."""
    alphabet = np.array(draw(st.sampled_from(TIE_ALPHABETS)))
    rows = draw(st.integers(min_value=min_rows, max_value=max_rows))
    length = draw(st.integers(min_value=0, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    aux = alphabet[rng.integers(0, 3, size=(rows, length))]
    claims = rng.random((rows, length)) * 2.0
    budgets = rng.random(rows) * length * 0.6
    return claims, budgets, aux


def fast_order_everywhere(on):
    """Sends every row through the default argsort and its tie check."""
    if not on:
        return contextlib.nullcontext()
    return mock.patch.multiple(rdbp.policies, _FAST_ORDER_MIN_ROW=0, _FAST_ORDER_MIN_CELLS=0)


_argsort = np.argsort


def argsort_reversing_ties(a, axis=-1, kind=None):
    """A valid sort that puts every run of equal deviates (NaNs as one run)
    in reverse arrival order; with ``kind`` given, numpy's own argsort."""
    order = _argsort(a, axis=axis, kind="stable")
    if kind is not None:
        return order
    for row, row_order in zip(np.atleast_2d(a), np.atleast_2d(order)):
        ranked = row[row_order]
        start = 0
        for k in range(1, len(ranked) + 1):
            if k == len(ranked) or not (
                ranked[k] == ranked[start] or (np.isnan(ranked[k]) and np.isnan(ranked[start]))
            ):
                row_order[start:k] = row_order[start:k][::-1].copy()
                start = k
    return order


def stable_counts(claims, budgets, aux):
    return [
        brute_prefix_count(c[np.argsort(a, kind="stable")], b)
        for c, b, a in zip(claims, budgets, aux)
    ]


def flat_stable_order(aux):
    """The stable argsort of each row, as positions in the flattened block."""
    return np.argsort(aux, axis=1, kind="stable") + np.arange(len(aux))[:, None] * aux.shape[1]


class TestStableOrder:
    """coinflip ranks its aux deviates exactly as the stable argsort would."""

    @pytest.mark.parametrize("fast", [False, True], ids=["default-sizes", "fast-everywhere"])
    @given(block=tied_blocks())
    def test_order_is_the_stable_argsort(self, fast, block):
        _, _, aux = block
        with fast_order_everywhere(fast):
            order = _stable_order(aux)
        np.testing.assert_array_equal(order, flat_stable_order(aux))

    @pytest.mark.parametrize("fast", [False, True], ids=["default-sizes", "fast-everywhere"])
    @given(block=tied_blocks())
    def test_count_rows_counts_through_the_stable_order(self, fast, block):
        claims, budgets, aux = block
        with fast_order_everywhere(fast):
            counts = CoinFlipPolicy().count_rows(claims, budgets, aux)
        assert counts.tolist() == stable_counts(claims, budgets, aux)

    def test_tie_reversing_sort_differs_from_the_stable_one(self):
        aux = np.array([0.5, -0.0, 0.5, 0.0, np.nan, np.nan])
        assert argsort_reversing_ties(aux).tolist() == [3, 1, 2, 0, 5, 4]

    @given(block=tied_blocks())
    def test_ties_are_ranked_stably_whatever_the_fast_sort_does(self, block):
        claims, budgets, aux = block
        want_counts = stable_counts(claims, budgets, aux)
        want_order = flat_stable_order(aux)
        with fast_order_everywhere(True), mock.patch.object(np, "argsort", argsort_reversing_ties):
            counts = CoinFlipPolicy().count_rows(claims, budgets, aux)
            order = _stable_order(aux)
        assert counts.tolist() == want_counts
        np.testing.assert_array_equal(order, want_order)

    def test_untied_deviates_take_the_fast_sort_alone(self):
        # distinct deviates need no second sort, whichever the block size
        aux = np.random.default_rng(4).random((64, 64))
        calls = []

        def spy(a, axis=-1, kind=None):
            calls.append(kind)
            return _argsort(a, axis=axis, kind=kind)

        with mock.patch.object(np, "argsort", spy):
            order = _stable_order(aux)
        assert calls == [None]
        np.testing.assert_array_equal(order, flat_stable_order(aux))

    @pytest.mark.parametrize("fast", [False, True], ids=["default-sizes", "fast-everywhere"])
    @pytest.mark.parametrize("rows", [(1, 1), (2, 50)], ids=["one-row", "many-rows"])
    @given(data=st.data())
    def test_count_rows_matches_the_stable_policy(self, fast, rows, data):
        claims, budgets, aux = data.draw(tied_blocks(*rows))
        with fast_order_everywhere(fast):
            counts = CoinFlipPolicy().count_rows(claims, budgets, aux)
        assert counts.tolist() == StableCoinFlipPolicy().count_rows(claims, budgets, aux).tolist()

    @pytest.mark.parametrize("shape", [(1, 3000), (1, SELECT_MIN + 3), (64, 64), (3, SELECT_MIN + 3)], ids=str)
    def test_long_rows_count_like_the_stable_policy(self, shape):
        # rows past the fast sort's limits and the certified counts, some
        # of them tied
        rng = np.random.default_rng(12)
        claims = rng.uniform(0.0, 2.0, shape)
        aux = rng.random(shape)
        aux[::2, ::7] = 0.5
        budgets = rng.uniform(0.2, 0.8, shape[0]) * shape[1]
        counts = CoinFlipPolicy().count_rows(claims, budgets, aux)
        assert counts.tolist() == StableCoinFlipPolicy().count_rows(claims, budgets, aux).tolist()


ALL_POLICIES = [policy_from_token(token) for token in POLICY_TOKENS] + [
    CustomPolicy(lambda claims: np.arange(len(claims))[::-1], name="reverse-arrival")
]


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
@pytest.mark.parametrize("shape", [(1, 5), (1, 3000), (40, 7), (80, 30), (2, 20000)], ids=str)
def test_counting_leaves_the_callers_arrays_alone(policy, shape):
    # the prefix sums run in place, but only in copies the policy owns
    rng = np.random.default_rng(11)
    claims = rng.random(shape) * 2.0
    aux = rng.random(shape)
    aux[:, ::3] = 0.5  # ties send rows through the stable fallback too
    budgets = rng.random(shape[0]) * shape[1]
    before = [a.copy() for a in (claims, budgets, aux)]
    for i in range(shape[0]):
        count(policy, claims[i], budgets[i], aux[i])
    policy.count_rows(claims, budgets, aux)
    for now, then in zip((claims, budgets, aux), before):
        assert now.tobytes() == then.tobytes()


class TestThirdLargestFirst:
    def test_small_batches_fall_back_to_strongest_first(self):
        policy = ThirdLargestFirstPolicy()
        for claims in (np.array([]), np.array([2.0]), np.array([3.0, 1.0])):
            for budget in (0.0, 1.0, 2.5, 3.0, 4.0, 5.0):
                assert count(policy, claims, budget) == count(SF, claims, budget)

    def test_priority_order(self):
        policy = ThirdLargestFirstPolicy()
        claims = np.array([5.0, 1.0, 3.0, 0.5])
        # third largest first, then the largest, the second largest, the rest
        assert reference_order("counterexample", claims).tolist() == [1.0, 5.0, 3.0, 0.5]
        # whose running totals are 1, 6, 9 and 9.5
        for budget, served in ((0.9, 0), (1.0, 1), (5.9, 1), (6.0, 2), (9.0, 3), (9.4, 3), (9.5, 4)):
            assert count(policy, claims, budget) == served

    def test_can_waste_budget_relative_to_strongest_first(self):
        claims = np.array([5.0, 1.0, 3.0])
        policy = ThirdLargestFirstPolicy()
        assert count(policy, claims, 4.0) == 1  # serves the 1, then blocks on the 5
        assert count(SF, claims, 4.0) == 0

    @given(claims_arrays, budgets)
    def test_sandwich(self, claims, budget):
        c = count(ThirdLargestFirstPolicy(), claims, budget)
        assert count(SF, claims, budget) <= c <= count(WF, claims, budget)

    @given(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), max_size=40).map(np.array),
        st.floats(min_value=0.0, max_value=40.0),
    )
    def test_count_from_sorted_values_matches_the_permutation(self, claims, budget):
        # tied claims are served in some order, but only their values count
        want = reference_count("counterexample", claims, budget)
        assert count(ThirdLargestFirstPolicy(), claims, budget) == want


class TestCustomPolicy:
    def test_rejects_non_permutation(self):
        bad = CustomPolicy(lambda c: np.zeros(len(c), dtype=int), name="broken")
        with pytest.raises(ValueError):
            count(bad, np.array([1.0, 2.0]), 10.0)

    def test_identity_matches_fcfs(self):
        ident = CustomPolicy(lambda c: np.arange(len(c)), name="ident")
        claims = WORKED_CLAIMS
        assert count(ident, claims, WORKED_BUDGET) == count(FCFS, claims, WORKED_BUDGET)


class TestTokens:
    def test_round_trip(self):
        for token in ("fcfs", "wf", "sf", "coinflip", "counterexample"):
            assert policy_from_token(token).name == token

    def test_unknown_token(self):
        with pytest.raises(ValueError):
            policy_from_token("zigzag")


class TestNonFiniteCounts:
    """A row counts alike alone and among other rows on non-finite budgets
    and claims, on short rows and on long ones."""

    @pytest.mark.parametrize("n", [5, SELECT_MIN + 3], ids=["short", "long"])
    @pytest.mark.parametrize("token", POLICY_TOKENS)
    def test_both_count_paths_agree(self, token, n):
        rng = np.random.default_rng(3)
        plain = rng.uniform(0.0, 2.0, n)
        aux = rng.random(n)
        with_inf, with_nan = plain.copy(), plain.copy()
        with_inf[n // 2] = np.inf
        with_nan[n // 3] = np.nan
        cases = [(plain, np.nan), (plain, np.inf), (plain, 0.6 * n),
                 (with_inf, 0.3 * n), (with_inf, 4.0 * n), (with_inf, np.inf),
                 (with_nan, 0.3 * n), (with_nan, 4.0 * n), (with_nan, np.nan)]
        policy = policy_from_token(token)
        for claims, budget in cases:
            one = count(policy, claims, budget, aux)
            block = np.stack([plain, claims, claims])
            rows = policy.count_rows(block, np.array([0.6 * n, budget, budget]), np.stack([aux] * 3))
            assert one == rows[1] == rows[2], (budget, claims is with_nan)
            if claims is not with_nan:
                assert one == reference_count(token, claims, budget, aux)

    @pytest.mark.parametrize("n", [5, SELECT_MIN + 3], ids=["short", "long"])
    def test_nan_budget_serves_no_one(self, n):
        claims, aux = np.zeros(n), np.random.default_rng(4).random(n)
        for token in POLICY_TOKENS:
            assert count(policy_from_token(token), claims, np.nan, aux) == 0


CLAIM_KINDS = ("uniform", "ties", "exponential", "inf")


def claim_row(rng, kind, n):
    """Claims of one law: U(0, 2); halves 0-1.5 (ties, zeros, exact sums);
    Exp(1) with a twentieth set to 0; or U(0, 2) with one inf claim."""
    if kind == "ties":
        return rng.integers(0, 4, n) * 0.5
    claims = rng.exponential(1.0, n) if kind == "exponential" else rng.uniform(0.0, 2.0, n)
    if kind == "exponential":
        claims[rng.random(n) < 0.05] = 0.0
    if kind == "inf":
        claims[rng.integers(n)] = np.inf
    return claims


BUDGET_KINDS = ("zero", "prefix", "below-prefix", "above-prefix", "total", "beyond")


def budget_for(rng, kind, totals):
    """A budget at 0, at one of the sequential prefix totals of a policy's
    order or its float neighbours, at the full total, or beyond it."""
    if kind == "zero":
        return 0.0
    if kind == "total":
        return float(totals[-1])
    if kind == "beyond":
        return float(np.nextafter(totals[-1], np.inf))
    finite = totals[np.isfinite(totals)]
    prefix = float(finite[rng.integers(finite.size)]) if finite.size else 0.0
    if kind == "below-prefix":
        return float(np.nextafter(prefix, -np.inf)) if prefix > 0 else 0.0
    if kind == "above-prefix":
        return float(np.nextafter(prefix, np.inf))
    return prefix


def assert_counts_like_the_reference(rng, n, claim_kind, budget_kind):
    block = np.stack([claim_row(rng, claim_kind, n) for _ in range(2)])
    aux = rng.random((2, n))
    for token in POLICY_TOKENS:
        totals = [np.cumsum(reference_order(token, row, a)) for row, a in zip(block, aux)]
        budgets = np.array([budget_for(rng, budget_kind, tot) for tot in totals])
        want = [int((tot <= b).sum()) for tot, b in zip(totals, budgets)]
        policy = policy_from_token(token)
        assert count(policy, block[0], budgets[0], aux[0]) == want[0], token
        assert policy.count_rows(block, budgets, aux).tolist() == want, token


AUX_KINDS = ("untied", "tied", "signed-zeros", "nan")


def deviate_row(rng, kind, n):
    """Aux deviates: U(0, 1); 2-8 levels; U(0, 1) with a third of them 0.0
    or -0.0, which tie; or U(0, 1) with one NaN, which ranks last."""
    if kind == "tied":
        levels = int(rng.integers(2, 9))
        return rng.integers(0, levels, n) / levels
    aux = rng.random(n)
    if kind == "signed-zeros":
        zeros = np.flatnonzero(rng.random(n) < 1 / 3)
        aux[zeros] = np.where(rng.random(zeros.size) < 0.5, 0.0, -0.0)
    if kind == "nan":
        aux[rng.integers(n)] = np.nan
    return aux


def assert_coinflip_counts_like_the_stable_policy(rng, n, claim_kind, aux_kind, budget_kind):
    block = np.stack([claim_row(rng, claim_kind, n) for _ in range(2)])
    aux = np.stack([deviate_row(rng, aux_kind, n) for _ in range(2)])
    totals = [np.cumsum(reference_order("coinflip", row, a)) for row, a in zip(block, aux)]
    budgets = np.array([budget_for(rng, budget_kind, tot) for tot in totals])
    want = StableCoinFlipPolicy().count_rows(block, budgets, aux).tolist()
    assert want == [int((tot <= b).sum()) for tot, b in zip(totals, budgets)]
    policy = CoinFlipPolicy()
    assert count(policy, block[0], budgets[0], aux[0]) == want[0]
    assert policy.count_rows(block, budgets, aux).tolist() == want


def spy_on_the_exact_path():
    """A spy on _stable_counts, which still runs: it sees each block or
    row that coinflip ranks whole."""
    return mock.patch.object(rdbp.policies, "_stable_counts", side_effect=rdbp.policies._stable_counts)


class TestCertifiedCounts:
    """Long rows are counted by certified block sums and, for wf, sf and
    coinflip, by selection; every count equals the full sort-and-cumsum
    reference (tests/oracle.py), for a row alone and in a block."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([SELECT_MIN - 1, SELECT_MIN, SELECT_MIN + 1, 3 * 10 ** 4, 3 * 10 ** 5]),
        st.sampled_from(CLAIM_KINDS),
        st.sampled_from(BUDGET_KINDS),
        st.integers(min_value=0, max_value=2 ** 32 - 1),
    )
    def test_every_policy_counts_like_the_reference(self, n, claim_kind, budget_kind, seed):
        assert_counts_like_the_reference(np.random.default_rng(seed), n, claim_kind, budget_kind)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=400),
        st.sampled_from(CLAIM_KINDS),
        st.sampled_from(BUDGET_KINDS),
        st.integers(min_value=0, max_value=2 ** 32 - 1),
    )
    def test_small_blocks_and_samples_count_like_the_reference(self, n, claim_kind, budget_kind, seed):
        # blocks of 4 claims and samples of 8 put crossings on block and
        # window edges, and send windows past the crossing, in short rows
        with mock.patch.multiple(rdbp.policies, _SELECT_MIN_CLAIMS=1, _PREFIX_BLOCK=4, _SAMPLE=8):
            assert_counts_like_the_reference(np.random.default_rng(seed), n, claim_kind, budget_kind)

    @pytest.mark.parametrize("descending", [False, True], ids=["wf", "sf"])
    @pytest.mark.parametrize("bias", [0.7, 1.3], ids=["window-above", "window-below"])
    def test_a_window_that_misses_is_widened_once(self, bias, descending):
        # every sampled claim scaled by the bias moves the estimated crossing
        # out of the first window, but not out of the second
        rng = np.random.default_rng(9)
        claims = rng.uniform(0.0, 2.0, 16384)
        claims[::16384 // rdbp.policies._SAMPLE] *= bias
        budget = 0.5 * claims.sum()
        window = rdbp.policies._window_count
        with mock.patch.object(rdbp.policies, "_window_count", side_effect=window) as spy:
            count = rdbp.policies._selected_count(claims, budget, descending)
        assert spy.call_count == 2 and window(*spy.call_args_list[0].args) is None
        assert count == reference_count("sf" if descending else "wf", claims, budget)

    def test_a_budget_on_a_prefix_total_is_left_to_the_exact_path(self):
        # the block sums round differently from the sequential totals, so
        # a budget equal to a sequential total is within the bound of it
        rng = np.random.default_rng(5)
        claims = rng.uniform(0.0, 2.0, 50_000)
        totals = np.cumsum(claims)
        for k in rng.integers(1, claims.size, 20):
            assert rdbp.policies._served_prefix(claims, totals[k]) == -1
            assert count(FCFS, claims, totals[k]) == k + 1

    def test_a_clear_budget_is_certified(self):
        rng = np.random.default_rng(6)
        claims = rng.uniform(0.0, 2.0, 50_000)
        totals = np.cumsum(claims)
        budget = (totals[20_000] + totals[20_001]) / 2
        assert rdbp.policies._served_prefix(claims, budget) == 20_001
        assert rdbp.policies._selected_count(claims, budget) == reference_count("wf", claims, budget)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([SELECT_MIN, SELECT_MIN + 1, 3 * 10 ** 4]),
        st.sampled_from(CLAIM_KINDS),
        st.sampled_from(AUX_KINDS),
        st.sampled_from(BUDGET_KINDS),
        st.integers(min_value=0, max_value=2 ** 32 - 1),
    )
    def test_coinflip_counts_like_the_stable_policy(self, n, claim_kind, aux_kind, budget_kind, seed):
        # long rows ranked around the crossing, alone and in a block, on
        # untied, tied, signed-zero and NaN deviates
        assert_coinflip_counts_like_the_stable_policy(
            np.random.default_rng(seed), n, claim_kind, aux_kind, budget_kind)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=400),
        st.sampled_from(CLAIM_KINDS),
        st.sampled_from(AUX_KINDS),
        st.sampled_from(BUDGET_KINDS),
        st.integers(min_value=0, max_value=2 ** 32 - 1),
    )
    def test_coinflip_small_blocks_and_samples_count_like_the_stable_policy(
            self, n, claim_kind, aux_kind, budget_kind, seed):
        # samples of 32 deviates probe down to neighbouring thresholds, and
        # blocks of 4 claims put crossings on block and window edges
        with mock.patch.multiple(rdbp.policies, _SELECT_MIN_CLAIMS=1, _PREFIX_BLOCK=4, _SAMPLE=8):
            assert_coinflip_counts_like_the_stable_policy(
                np.random.default_rng(seed), n, claim_kind, aux_kind, budget_kind)

    @pytest.mark.parametrize("above", [0.0, 1.0, 2.0 ** 20], ids=["total", "one-above", "far-above"])
    def test_a_nan_deviate_ranks_last_and_is_still_served(self, above):
        rng = np.random.default_rng(7)
        claims = rng.uniform(0.0, 2.0, 3 * 10 ** 4)
        aux = rng.random(claims.size)
        aux[123] = np.nan
        total = float(np.cumsum(reference_order("coinflip", claims, aux))[-1])
        budget = total + above
        assert count(CoinFlipPolicy(), claims, budget, aux) == claims.size
        # one below the NaN's claim: everyone else is served, but not it
        short = float(np.cumsum(reference_order("coinflip", claims, aux))[-2]) + claims[123] / 2
        assert count(CoinFlipPolicy(), claims, short, aux) == claims.size - 1
        assert rdbp.policies._ranked_count(claims, aux, short) == claims.size - 1

    def test_a_budget_on_a_coinflip_prefix_total_falls_back_to_the_exact_path(self):
        rng = np.random.default_rng(8)
        claims = rng.uniform(0.0, 2.0, 50_000)
        aux = rng.random(claims.size)
        totals = np.cumsum(reference_order("coinflip", claims, aux))
        for k in rng.integers(1, claims.size, 10):
            assert rdbp.policies._ranked_count(claims, aux, totals[k]) == -1
            with spy_on_the_exact_path() as spy:
                assert count(CoinFlipPolicy(), claims, totals[k], aux) == k + 1
            assert spy.call_count == 1


def long_coinflip_block(seed, n=SELECT_MIN + 5):
    """Three long rows of U(0, 2) claims and U(0, 1) deviates, each row's
    budget a third of its total."""
    rng = np.random.default_rng(seed)
    claims = rng.uniform(0.0, 2.0, (3, n))
    return claims, claims.sum(axis=1) / 3, rng.random((3, n))


class TestCoinFlipFallbacks:
    """Each way a long coinflip row can miss its certified count sends that
    row, and only that row, to the full stable ranking."""

    def assert_falls_back(self, claims, budgets, aux, rows):
        with spy_on_the_exact_path() as spy:
            counts = CoinFlipPolicy().count_rows(claims, budgets, aux)
        ranked = [call.args[0] for call in spy.call_args_list]
        assert len(ranked) == len(rows)
        for got, row in zip(ranked, rows):
            assert got.tobytes() == claims[row:row + 1].tobytes()
        want = StableCoinFlipPolicy().count_rows(claims, budgets, aux)
        assert counts.tolist() == want.tolist()

    def test_the_ranked_rows_take_no_fallback(self):
        self.assert_falls_back(*long_coinflip_block(1), rows=[])

    @pytest.mark.parametrize("probes", [0, 1])
    def test_running_out_of_probes(self, monkeypatch, probes):
        # 2048 sampled deviates take at least two probes to close to 64
        monkeypatch.setattr(rdbp.policies, "_RANK_PROBES", probes)
        self.assert_falls_back(*long_coinflip_block(2), rows=[0, 1, 2])

    def test_a_window_served_to_its_top(self, monkeypatch):
        # a window count that reaches the window's top under a threshold
        # whose prefix total exceeds the budget can only come from rounding
        window_count = rdbp.policies._served_prefix

        def served_to_the_top(ordered, budget, start=0.0, terms=0):
            if terms:
                return ordered.size
            return window_count(ordered, budget, start, terms)

        monkeypatch.setattr(rdbp.policies, "_served_prefix", served_to_the_top)
        self.assert_falls_back(*long_coinflip_block(3), rows=[0, 1, 2])

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_a_non_finite_claim(self, value):
        claims, budgets, aux = long_coinflip_block(4)
        claims[1, 77] = value
        self.assert_falls_back(claims, budgets, aux, rows=[1])

    @pytest.mark.parametrize("value", [np.inf, np.nan, -1.0])
    def test_a_non_finite_or_negative_budget(self, value):
        claims, budgets, aux = long_coinflip_block(5)
        budgets[2] = value
        self.assert_falls_back(claims, budgets, aux, rows=[2])
