"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything analytic is exact rational arithmetic (zero tolerance); the
statistical criteria state their own binomial or chi-square bounds.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from random import Random

from escrowlab.agents import BuyerStrategy, SellerStrategy, simulate
from escrowlab.arbiter import (
    BASIS_INVALID_OPENING,
    BASIS_TIMEOUT,
    Bit,
    Commit,
    HonestBuyer,
    HonestSeller,
    Open,
    coin_toss_arbitrate,
    commit,
)
from escrowlab.contract import propose
from escrowlab.equilibrium import (
    LambdaInterval,
    backward_induction,
    brute_force_spe,
    check_soundness,
    lambda_interval,
    security_report,
)
from escrowlab.gametree import HONEST_PROFILE, Leaf, Party, build_game_tree, leaf_payoff
from escrowlab.ledger import Ledger
from escrowlab.multiparty import multiparty_run
from escrowlab.trade import Standard, TradeParams, WinnerRebate, Withheld

from conftest import (
    PAIR_STATES,
    matrices_from_states,
    rand_fraction,
    two_party_trade_outcome,
)

CHI2_1DF_CRIT_P99 = 6.6348966010212145


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {title}: PASS")


def draw_valid_params(rng: Random, gamma_hi=Fraction(99, 200)) -> TradeParams:
    price = rand_fraction(rng, Fraction(1, 4), 8)
    seller_value = rand_fraction(rng, 0, price * Fraction(9, 10))
    buyer_value = price + rand_fraction(rng, Fraction(1, 4), 8)
    gamma = rand_fraction(rng, 0, gamma_hi, max_den=200)
    return TradeParams(price=price, seller_value=seller_value,
                       buyer_value=buyer_value, arbiter_error=gamma)


def test_criterion_1_completeness_boundary_matches_brute_force():
    with criterion(1, "completeness agrees with enumeration on the grid"):
        start = time.monotonic()
        x = Fraction(1)
        gammas = [Fraction(k, 20) for k in range(20)]
        wagers = [x * Fraction(k, 4) for k in range(1, 17)]
        for gamma in gammas:
            params = TradeParams(price=x, seller_value=0, buyer_value=2,
                                 arbiter_error=gamma)
            for wager in wagers:
                scheme = Standard(wager)
                analytic = security_report(params, scheme).complete
                tree = build_game_tree(params, scheme)
                unique_honest = brute_force_spe(tree, 0) == [HONEST_PROFILE]
                solved = backward_induction(tree)
                assert analytic == unique_honest, (gamma, wager)
                assert unique_honest == (solved.is_honest and solved.unique)
        elapsed = time.monotonic() - start
        assert elapsed < 10, f"grid took {elapsed:.1f}s"


def test_criterion_2_matching_wager_strong_security_exact():
    with criterion(2, "wager = price gives x(1-2g)-strong security"):
        rng = Random(202)
        for _ in range(200):
            params = draw_valid_params(rng)
            report = security_report(params, Standard(params.price))
            assert report.strong
            assert report.sound_epsilon_max == params.price * (1 - 2 * params.arbiter_error)


def test_criterion_3_wager_intervals_exact():
    with criterion(3, "completeness and soundness wager intervals"):
        params = TradeParams(price=1, seller_value=0, buyer_value=2, arbiter_error="1/4")
        assert lambda_interval(params, Standard) == LambdaInterval(
            Fraction(1, 3), False, Fraction(3), False
        )
        assert lambda_interval(params, Standard, epsilon=Fraction(1, 2)) == LambdaInterval(
            Fraction(1), True, Fraction(1), True
        )


def test_criterion_4_winner_rebate_wager():
    with criterion(4, "winner-rebate wager passes soundness and exceeds the price"):
        rng = Random(404)
        for _ in range(100):
            x = rand_fraction(rng, Fraction(1, 2), 6)
            gamma = rand_fraction(rng, Fraction(1, 100), Fraction(49, 100), max_den=100)
            eps = rand_fraction(rng, Fraction(1, 10), x)
            params = TradeParams(price=x, seller_value=0,
                                 buyer_value=x + eps + rand_fraction(rng, 1, 4),
                                 arbiter_error=gamma)
            # The paper's closed form is the least epsilon-sound wager.
            wager = lambda_interval(params, WinnerRebate, eps).lower
            assert wager == (x * gamma + eps) / (1 - 2 * gamma)
            assert check_soundness(params, WinnerRebate(wager), eps)
            # At the standard contract's best bound the rebate wager is larger.
            boundary = x * (1 - 2 * gamma)
            wager_at_boundary = lambda_interval(params, WinnerRebate, boundary).lower
            assert wager_at_boundary == x + x * gamma / (1 - 2 * gamma)
            assert wager_at_boundary > x


def test_criterion_5_withheld_wagers():
    with criterion(5, "withheld wagers at half the price"):
        rng = Random(505)
        for _ in range(100):
            params = draw_valid_params(rng)
            report = security_report(params, Withheld(params.price / 2))
            assert report.wager == params.price / 2
            assert report.sound_epsilon_max == params.price * (1 - 2 * params.arbiter_error) / 2


def test_criterion_6_fee_discounted_strength():
    with criterion(6, "fees subtract exactly once from the strength bound"):
        rng = Random(606)
        done = 0
        while done < 100:
            base = draw_valid_params(rng)
            headroom = base.price * (1 - 2 * base.arbiter_error)
            cap = min(headroom, base.price - base.seller_value)
            fee = rand_fraction(rng, 0, cap)
            if not 0 < fee < cap:
                continue
            params = TradeParams(price=base.price, seller_value=base.seller_value,
                                 buyer_value=base.buyer_value,
                                 arbiter_error=base.arbiter_error, fee=fee)
            report = security_report(params, Standard(params.price))
            assert report.strong
            assert report.sound_epsilon_max == headroom - fee
            done += 1


def test_criterion_7_fair_coin_weak_security():
    with criterion(7, "fair-coin arbitration keeps honesty an equilibrium"):
        params = TradeParams(price=1, seller_value=0, buyer_value=2, arbiter_error="1/2")
        tree = build_game_tree(params, Standard(1))
        assert HONEST_PROFILE in brute_force_spe(tree, 0)
        solved = backward_induction(tree)
        assert all(margin >= 0 for margin in solved.margins.values())
        assert any(margin == 0 for margin in solved.margins.values())
        assert security_report(params, Standard(1)).weak


class _BadOpeningSeller:
    def respond(self, request, transcript):
        if request == "commit":
            return Commit(commit(1, bytes(32)))
        return Open(0, bytes(32))  # wrong bit: opening fails verification


class _NoRevealSeller:
    def respond(self, request, transcript):
        if request == "commit":
            return Commit(commit(1, bytes(32)))
        return None


class _FixedBuyer:
    def respond(self, request, transcript):
        return Bit(0)


def _coin_toss_contract(seller_channel, buyer_channel):
    ledger = Ledger()
    ledger.open_account("buyer", 10)
    ledger.open_account("seller", 10)
    params = TradeParams(price=2, seller_value=0, buyer_value=5, arbiter_error="1/2")
    contract = propose(ledger, "c", "buyer", "seller", params, Standard(2))
    contract.accept("seller")
    contract.fund("buyer")
    contract.notify_delivery("seller")
    contract.dispute("buyer")
    contract.counter("seller")
    verdict = contract.run_arbitration(
        lambda _: coin_toss_arbitrate(seller_channel, buyer_channel)
    )
    return ledger, verdict


def test_criterion_8_coin_toss_uniformity_and_routing():
    with criterion(8, "coin toss is uniform and routes funds on bad paths"):
        start = time.monotonic()
        rng = Random(808)
        n = 10_000
        seller_wins = sum(
            coin_toss_arbitrate(HonestSeller(rng), HonestBuyer(rng)).winner is Party.SELLER
            for _ in range(n)
        )
        expected = n / 2
        statistic = (seller_wins - expected) ** 2 / expected + (
            (n - seller_wins) - expected
        ) ** 2 / expected
        assert statistic < CHI2_1DF_CRIT_P99

        # Invalid opening: coin forced to 0, buyer wins, wager to the arbiter.
        ledger, verdict = _coin_toss_contract(_BadOpeningSeller(), _FixedBuyer())
        assert verdict.basis == BASIS_INVALID_OPENING
        assert ledger.balance("buyer") == 10 and ledger.balance("seller") == 8
        assert ledger.arbiter_sink == 2

        # Seller never reveals: forfeit by timeout, same routing.
        ledger, verdict = _coin_toss_contract(_NoRevealSeller(), _FixedBuyer())
        assert verdict.basis == BASIS_TIMEOUT
        assert ledger.balance("buyer") == 10 and ledger.balance("seller") == 8

        # Buyer never answers: the seller collects price plus wager.
        class SilentBuyer:
            def respond(self, request, transcript):
                return None

        ledger, verdict = _coin_toss_contract(HonestSeller(rng), SilentBuyer())
        assert verdict.basis == BASIS_TIMEOUT and verdict.winner is Party.SELLER
        assert ledger.balance("seller") == 12 and ledger.balance("buyer") == 6

        elapsed = time.monotonic() - start
        assert elapsed < 5, f"took {elapsed:.1f}s"


def test_criterion_9_dishonest_buyer_empirical_payoff():
    with criterion(9, "dishonest buyer's measured payoff matches the leaf"):
        params = TradeParams(price=1, seller_value=0, buyer_value=2, arbiter_error="1/4")
        trials = 10_000
        stats = simulate(
            params, Standard(1), SellerStrategy.honest(),
            BuyerStrategy(dispute_if_delivered=True, dispute_if_undelivered=True),
            trials=trials, seed=909,
        )
        expected = leaf_payoff(Leaf.SEND_DISPUTE_COUNTER, params, Standard(1)).buyer
        assert expected == params.buyer_value * Fraction(1, 4) - 2 * Fraction(3, 4)
        # Per-trial payoff is y on a win, -(x+lam) on a loss.
        gap = float(params.buyer_value + params.price + 1)
        sigma = gap * math.sqrt(0.25 * 0.75 / trials)
        assert abs(float(stats.mean_buyer_payoff) - float(expected)) <= 3 * sigma


def _assert_batch_composes(names, trades, states):
    n = len(names)
    payments, disputes, counters, coin = matrices_from_states(n, trades, states)
    endow = Fraction(1000)
    ledger = Ledger()
    for name in names:
        ledger.open_account(name, endow)
    multiparty_run(ledger, names, payments, disputes, counters, coin_matrix=coin)

    expected = {name: Fraction(0) for name in names}
    sink = Fraction(0)
    for (i, j, price), state in zip(trades, states):
        buyer_delta, seller_delta, trade_sink = _cached_outcome(Fraction(price), state)
        expected[names[i]] += buyer_delta
        expected[names[j]] += seller_delta
        sink += trade_sink
    for name in names:
        assert ledger.balance(name) - endow == expected[name], (trades, states)
    assert ledger.arbiter_sink == sink
    assert ledger.total_funds() == endow * n
    assert all(count <= 4 for count in ledger.move_counts.values())


@lru_cache(maxsize=None)
def _cached_outcome(price, state):
    return two_party_trade_outcome(price, state)


def test_criterion_10_multiparty_composes_exhaustively():
    with criterion(10, "multiparty settlement composes two-party outcomes"):
        # n = 2 and n = 3: every trade in both directions, exhaustive over all
        # per-trade outcomes (dispute/counter/coin combinations).
        for n, prices in ((2, [3, 5]), (3, [1, 2, 3, 4, 5, 6])):
            names = [f"p{i}" for i in range(n)]
            trades = [
                (i, j, prices[k])
                for k, (i, j) in enumerate(
                    (i, j) for i in range(n) for j in range(n) if i != j
                )
            ]
            for states in itertools.product(PAIR_STATES, repeat=len(trades)):
                _assert_batch_composes(names, trades, list(states))

        # n = 4 with a fixed six-trade payment matrix, exhaustive over every
        # dispute/counter/coin combination of its trades.  (The fully dense
        # 12-trade matrix has 4^12 combinations; the composition is per-trade,
        # so six trades exercise every pairwise interaction.)
        names = ["p0", "p1", "p2", "p3"]
        trades = [(0, 1, 2), (1, 0, 3), (1, 2, 1), (2, 3, 4), (3, 0, 5), (0, 2, 7)]
        for states in itertools.product(PAIR_STATES, repeat=len(trades)):
            _assert_batch_composes(names, trades, list(states))
