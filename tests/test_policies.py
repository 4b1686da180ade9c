import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from rdbp.policies import POLICY_TOKENS

from conftest import WORKED_BUDGET, WORKED_CLAIMS
from oracle import count, distinct_words, on_lattice, reference_count, reference_order

FCFS, WF, SF = FcfsPolicy(), WeakestFirstPolicy(), StrongestFirstPolicy()
SELECT_MIN = rdbp.policies._SELECT_MIN_CLAIMS


def brute_prefix_count(ordered, budget):
    """Reference greedy loop, no numpy."""
    total = 0
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


#: claims of 0 to 100 and budgets of 0 to 300 in quanta of 1/4, so that
#: ties and budgets on prefix totals are common
claims_arrays = st.lists(st.integers(0, 400), min_size=0, max_size=25).map(lambda xs: np.array(xs, dtype=np.int64))
budgets = st.integers(0, 1200)


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

    @given(claims_arrays, budgets, st.integers(0, 200))
    def test_monotone_in_budget(self, claims, budget, extra):
        assert count(WF, claims, budget + extra) >= count(WF, claims, budget)
        assert count(SF, claims, budget + extra) >= count(SF, claims, budget)
        assert count(FCFS, claims, budget + extra) >= count(FCFS, claims, budget)

    @given(claims_arrays, budgets, st.integers(0, 400))
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
        assert count(WF, positive, 0) == 0
        assert count(SF, positive, 0) == 0

    def test_free_riders_with_zero_claims(self):
        # zero claims cost nothing, so they are all served even on nothing
        claims = np.array([0, 0, 1])
        assert count(WF, claims, 0) == 2


class TestCoinFlip:
    def test_uses_aux_ranks(self):
        claims = np.array([40, 10, 20])
        aux = np.array([9, 2, 5], dtype=np.uint64)
        # the claims 10 and 20 fill the budget of 30, and the 40 is left out
        assert count(CoinFlipPolicy(), claims, 30, aux) == 2
        assert count(CoinFlipPolicy(), claims, 29, aux) == 1

    def test_words_rank_as_unsigned(self):
        # read as signed, the two words from 2**63 up would rank first
        claims = np.array([1, 2, 4])
        aux = np.array([2 ** 63, 5, 2 ** 64 - 1], dtype=np.uint64)
        assert [count(CoinFlipPolicy(), claims, b, aux) for b in (1, 2, 3, 7)] == [0, 1, 2, 3]

    def test_requires_aux(self):
        with pytest.raises(ValueError):
            CoinFlipPolicy().count_rows(np.array([[1]]), np.array([5]))
        with pytest.raises(ValueError):
            CoinFlipPolicy().count_rows(np.array([[1, 2]]), np.array([5]), np.array([[3]], dtype=np.uint64))

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_refuses_aux_that_is_not_uint64_words(self, dtype):
        # float units may tie, and a tie has no defined rank
        with pytest.raises(ValueError, match="uint64"):
            CoinFlipPolicy().count_rows(np.array([[1, 2]]), np.array([5]), np.array([[0.5, 0.5]]).astype(dtype))

    @given(claims_arrays, budgets, st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_sandwich_holds_for_random_order(self, claims, budget, seed):
        aux = distinct_words(np.random.default_rng(seed), (len(claims),))
        c = count(CoinFlipPolicy(), claims, budget, aux)
        assert count(SF, claims, budget) <= c <= count(WF, claims, budget)


@st.composite
def word_blocks(draw):
    """An (m, t) block of claims, one budget per row, and aux words that
    are distinct within each row; hypothesis shrinks them toward small,
    nearby words."""
    rows = draw(st.integers(min_value=1, max_value=20))
    length = draw(st.integers(min_value=0, max_value=40))
    aux = draw(arrays(np.uint64, (rows, length), elements=st.integers(0, 2 ** 64 - 1), unique=True))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    claims = on_lattice(rng.random((rows, length)) * 2.0)
    budgets = on_lattice(rng.random(rows) * length * 0.6)
    return claims, budgets, aux


WORD_KINDS = ("mixed", "ascending", "descending", "around-2**63")


def word_block(rng, kind, shape):
    """Aux words distinct within each row: the kernel's kind of mixed words,
    words in arrival order or its reverse, or consecutive words across
    2**63 in random order, which a signed compare would misrank."""
    if kind == "mixed":
        return distinct_words(rng, shape)
    words = np.broadcast_to(np.arange(shape[-1], dtype=np.uint64), shape).copy()
    if kind == "descending":
        return words[..., ::-1].copy()
    if kind == "around-2**63":
        words += np.uint64(2 ** 63 - shape[-1] // 2)
        return rng.permuted(words, axis=-1)
    return words


class TestWordOrder:
    """coinflip serves in the ascending order of its aux words, which is
    the reference's stable argsort of them: on rows either side of
    _SELECT_MIN_CLAIMS, lowered so that hypothesis's short rows reach the
    long-row count."""

    @pytest.mark.parametrize("select_min", [24, SELECT_MIN], ids=["select-from-24", "default-sizes"])
    @settings(max_examples=150, deadline=None)
    @given(block=word_blocks())
    def test_count_rows_counts_like_the_reference(self, select_min, block):
        claims, budgets, aux = block
        want = [reference_count("coinflip", *row) for row in zip(claims, budgets, aux)]
        with mock.patch.multiple(rdbp.policies, _SELECT_MIN_CLAIMS=select_min, _SAMPLE=2):
            assert CoinFlipPolicy().count_rows(claims, budgets, aux).tolist() == want

    @pytest.mark.parametrize("kind", WORD_KINDS)
    @pytest.mark.parametrize("shape", [(1, 3000), (1, SELECT_MIN + 3), (64, 64), (3, SELECT_MIN + 3)], ids=str)
    def test_long_rows_count_like_the_reference(self, shape, kind):
        rng = np.random.default_rng(12)
        claims = on_lattice(rng.uniform(0.0, 2.0, shape))
        aux = word_block(rng, kind, shape)
        budgets = on_lattice(rng.uniform(0.2, 0.8, shape[0]) * shape[1])
        want = [reference_count("coinflip", *row) for row in zip(claims, budgets, aux)]
        assert CoinFlipPolicy().count_rows(claims, budgets, aux).tolist() == want


ALL_POLICIES = [policy_from_token(token) for token in POLICY_TOKENS] + [
    CustomPolicy(lambda claims: np.arange(len(claims))[::-1], name="reverse-arrival")
]


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
@pytest.mark.parametrize("shape", [(1, 5), (1, 3000), (40, 7), (80, 30), (2, 20000)], ids=str)
def test_counting_leaves_the_callers_arrays_alone(policy, shape):
    # the prefix sums run in place, but only in copies the policy owns
    rng = np.random.default_rng(11)
    claims = on_lattice(rng.random(shape) * 2.0)
    aux = distinct_words(rng, shape)
    budgets = on_lattice(rng.random(shape[0]) * shape[1])
    before = [a.copy() for a in (claims, budgets, aux)]
    for i in range(shape[0]):
        count(policy, claims[i], budgets[i], aux[i])
    policy.count_rows(claims, budgets, aux)
    for now, then in zip((claims, budgets, aux), before):
        assert now.tobytes() == then.tobytes()


class TestThirdLargestFirst:
    def test_small_batches_fall_back_to_strongest_first(self):
        policy = ThirdLargestFirstPolicy()
        for claims in (np.array([], dtype=np.int64), np.array([4]), np.array([6, 2])):
            for budget in (0, 2, 5, 6, 8, 10):
                assert count(policy, claims, budget) == count(SF, claims, budget)

    def test_priority_order(self):
        policy = ThirdLargestFirstPolicy()
        claims = np.array([50, 10, 30, 5])
        # third largest first, then the largest, the second largest, the rest
        assert reference_order("counterexample", claims).tolist() == [10, 50, 30, 5]
        # whose running totals are 10, 60, 90 and 95
        for budget, served in ((9, 0), (10, 1), (59, 1), (60, 2), (90, 3), (94, 3), (95, 4)):
            assert count(policy, claims, budget) == served

    def test_can_waste_budget_relative_to_strongest_first(self):
        claims = np.array([5, 1, 3])
        policy = ThirdLargestFirstPolicy()
        assert count(policy, claims, 4) == 1  # serves the 1, then blocks on the 5
        assert count(SF, claims, 4) == 0

    @given(claims_arrays, budgets)
    def test_sandwich(self, claims, budget):
        c = count(ThirdLargestFirstPolicy(), claims, budget)
        assert count(SF, claims, budget) <= c <= count(WF, claims, budget)

    @given(
        st.lists(st.sampled_from([0, 2, 4, 10]), max_size=40).map(lambda xs: np.array(xs, dtype=np.int64)),
        st.integers(0, 160),
    )
    def test_count_from_sorted_values_matches_the_permutation(self, claims, budget):
        # tied claims are served in some order, but only their values count
        want = reference_count("counterexample", claims, budget)
        assert count(ThirdLargestFirstPolicy(), claims, budget) == want


class TestCustomPolicy:
    def test_rejects_non_permutation(self):
        bad = CustomPolicy(lambda c: np.zeros(len(c), dtype=int), name="broken")
        with pytest.raises(ValueError):
            count(bad, np.array([1, 2]), 10)

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


class TestCustomPolicyValues:
    def test_the_permutation_sees_the_claim_values(self):
        # the order is taken from the values, quanta times the quantum
        seen = []

        def spy(values):
            seen.append(values.copy())
            return np.argsort(values, kind="stable")

        claims = np.array([[12, 4, 8]])
        custom = CustomPolicy(spy, name="values")
        assert custom.count_rows(claims, np.array([12]), None, 0.25).tolist() == [2]
        assert seen[0].tolist() == [3.0, 1.0, 2.0]


CLAIM_KINDS = ("uniform", "ties", "exponential")


def claim_row(rng, kind, n):
    """Claims of one law in quanta of 2**-30: U(0, 2); 0 to 3 quanta (ties,
    zeros); or Exp(1) with a twentieth set to 0."""
    if kind == "ties":
        return rng.integers(0, 4, n)
    claims = rng.exponential(1.0, n) if kind == "exponential" else rng.uniform(0.0, 2.0, n)
    if kind == "exponential":
        claims[rng.random(n) < 0.05] = 0.0
    return on_lattice(claims)


BUDGET_KINDS = ("zero", "prefix", "below-prefix", "above-prefix", "total", "beyond")


def budget_for(rng, kind, totals):
    """A budget at 0, at one of the prefix totals of a policy's order or a
    quantum either side of it, at the full total, or beyond it."""
    if kind == "zero":
        return 0
    if kind == "total":
        return int(totals[-1])
    if kind == "beyond":
        return int(totals[-1]) + 1
    prefix = int(totals[rng.integers(totals.size)])
    if kind == "below-prefix":
        return max(prefix - 1, 0)
    if kind == "above-prefix":
        return prefix + 1
    return prefix


def assert_counts_like_the_reference(rng, n, claim_kind, budget_kind):
    block = np.stack([claim_row(rng, claim_kind, n) for _ in range(2)])
    aux = distinct_words(rng, (2, n))
    for token in POLICY_TOKENS:
        totals = [np.cumsum(reference_order(token, row, a)) for row, a in zip(block, aux)]
        budgets = np.array([budget_for(rng, budget_kind, tot) for tot in totals])
        want = [int((tot <= b).sum()) for tot, b in zip(totals, budgets)]
        policy = policy_from_token(token)
        assert count(policy, block[0], budgets[0], aux[0]) == want[0], token
        assert policy.count_rows(block, budgets, aux).tolist() == want, token


def assert_coinflip_counts_like_the_reference(rng, n, claim_kind, word_kind, budget_kind):
    block = np.stack([claim_row(rng, claim_kind, n) for _ in range(2)])
    aux = word_block(rng, word_kind, (2, n))
    totals = [np.cumsum(reference_order("coinflip", row, a)) for row, a in zip(block, aux)]
    budgets = np.array([budget_for(rng, budget_kind, tot) for tot in totals])
    want = [int((tot <= b).sum()) for tot, b in zip(totals, budgets)]
    policy = CoinFlipPolicy()
    assert count(policy, block[0], budgets[0], aux[0]) == want[0]
    assert policy.count_rows(block, budgets, aux).tolist() == want


def spy_on_the_whole_ranking():
    """A spy on _word_counts, which still runs: it sees each block that
    coinflip ranks whole."""
    return mock.patch.object(rdbp.policies, "_word_counts", side_effect=rdbp.policies._word_counts)


class TestLongRowCounts:
    """Long rows are counted, for wf, sf and coinflip, by ranking only the
    claims around the crossing, and for the other orders by one cumsum;
    every count equals the full sort-and-cumsum reference (tests/oracle.py),
    for a row alone and in a block, ties and budgets on prefix totals
    included."""

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
        # samples of 8 put crossings on window edges in short rows
        with mock.patch.multiple(rdbp.policies, _SELECT_MIN_CLAIMS=1, _SAMPLE=8):
            assert_counts_like_the_reference(np.random.default_rng(seed), n, claim_kind, budget_kind)

    @pytest.mark.parametrize("token", ["fcfs", "wf", "sf", "coinflip", "counterexample"])
    def test_budgets_on_prefix_totals_are_counted_directly(self, token):
        # every prefix total is exact, so a budget on one needs no second look
        rng = np.random.default_rng(5)
        claims = on_lattice(rng.uniform(0.0, 2.0, 50_000))
        aux = distinct_words(rng, claims.shape)
        totals = np.cumsum(reference_order(token, claims, aux))
        policy = policy_from_token(token)
        with spy_on_the_whole_ranking() as spy:
            for k in rng.integers(1, claims.size, 10):
                assert count(policy, claims, totals[k], aux) == k + 1
                assert count(policy, claims, totals[k] - 1, aux) == k
        assert spy.call_count == 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([SELECT_MIN, SELECT_MIN + 1, 3 * 10 ** 4]),
        st.sampled_from(CLAIM_KINDS),
        st.sampled_from(WORD_KINDS),
        st.sampled_from(BUDGET_KINDS),
        st.integers(min_value=0, max_value=2 ** 32 - 1),
    )
    def test_coinflip_counts_like_the_reference(self, n, claim_kind, word_kind, budget_kind, seed):
        # long rows ranked around the crossing, alone and in a block, on
        # mixed, ordered and sign-straddling words
        assert_coinflip_counts_like_the_reference(
            np.random.default_rng(seed), n, claim_kind, word_kind, budget_kind)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=400),
        st.sampled_from(CLAIM_KINDS),
        st.sampled_from(WORD_KINDS),
        st.sampled_from(BUDGET_KINDS),
        st.integers(min_value=0, max_value=2 ** 32 - 1),
    )
    def test_coinflip_small_blocks_and_samples_count_like_the_reference(
            self, n, claim_kind, word_kind, budget_kind, seed):
        # samples of 32 words probe down to neighbouring thresholds and put
        # crossings on window edges
        with mock.patch.multiple(rdbp.policies, _SELECT_MIN_CLAIMS=1, _SAMPLE=8):
            assert_coinflip_counts_like_the_reference(
                np.random.default_rng(seed), n, claim_kind, word_kind, budget_kind)

    @pytest.mark.parametrize("probes", [0, 1, 12])
    def test_few_probes_widen_the_window_but_keep_the_count(self, monkeypatch, probes):
        # without probes the whole row is the window; it is still ranked by
        # _ranked_count, not by the whole-block path
        monkeypatch.setattr(rdbp.policies, "_RANK_PROBES", probes)
        rng = np.random.default_rng(2)
        claims = on_lattice(rng.uniform(0.0, 2.0, (3, SELECT_MIN + 5)))
        aux = distinct_words(rng, claims.shape)
        budgets = claims.sum(axis=1) // 3
        with spy_on_the_whole_ranking() as spy:
            got = CoinFlipPolicy().count_rows(claims, budgets, aux)
        assert spy.call_count == 0
        assert got.tolist() == [reference_count("coinflip", *args) for args in zip(claims, budgets, aux)]

    @pytest.mark.parametrize("descending", [False, True], ids=["wf", "sf"])
    @pytest.mark.parametrize("bias", [0.7, 1.3], ids=["window-above", "window-below"])
    def test_a_window_that_misses_is_widened(self, bias, descending):
        # every sampled claim scaled by the bias moves the estimated crossing
        # out of the first window, but not out of the second
        rng = np.random.default_rng(9)
        claims = rng.uniform(0.0, 2.0, 16384)
        claims[::16384 // rdbp.policies._SAMPLE] *= bias
        claims = on_lattice(claims)
        budget = int(claims.sum()) // 2
        window = rdbp.policies._window_count
        with mock.patch.object(rdbp.policies, "_window_count", side_effect=window) as spy:
            got = rdbp.policies._selected_count(claims, budget, descending)
        assert spy.call_count == 2 and window(*spy.call_args_list[0].args) is None
        assert got == reference_count("sf" if descending else "wf", claims, budget)
