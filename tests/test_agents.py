import csv
import io
import math
import re
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escrowlab.agents import (
    BuyerStrategy,
    SellerStrategy,
    SimStats,
    all_buyer_strategies,
    all_seller_strategies,
    run_trial,
    simulate,
    sweep,
    sweep_csv,
)
from escrowlab.arbiter import oracle_arbitrate
from escrowlab.contract import propose
from escrowlab.equilibrium import SecurityReport, _csv_rows
from escrowlab.gametree import (
    AFTER_NOSEND,
    AFTER_SEND,
    DISPUTE_AFTER_NOSEND,
    DISPUTE_AFTER_SEND,
    HONEST_PROFILE,
    ROOT,
    Action,
    Leaf,
    Party,
    build_game_tree,
    leaf_path,
    leaf_payoff,
)
from escrowlab.ledger import Ledger
from escrowlab.trade import _SCHEMES, Generic, InvalidTradeError, Standard, TradeParams, WinnerRebate, Withheld

from test_arbiter import WIDE_RATES
from test_equilibrium import DISPUTE_LAYER, GAMMA, WAGER, naive_to_row

PARAMS = TradeParams(price=1, seller_value=0, buyer_value=2, arbiter_error="1/4")


def seller_profile(strategy: SellerStrategy) -> dict:
    """The seller's strategy as the game tree's moves at the seller's nodes."""
    return {
        ROOT: Action.SEND if strategy.send else Action.NOT_SEND,
        DISPUTE_AFTER_SEND: Action.COUNTER if strategy.counter_if_delivered else Action.FORFEIT,
        DISPUTE_AFTER_NOSEND: Action.COUNTER if strategy.counter_if_undelivered else Action.FORFEIT,
    }


def buyer_profile(strategy: BuyerStrategy) -> dict:
    """The buyer's strategy as the game tree's moves at the buyer's nodes."""
    return {
        AFTER_SEND: Action.DISPUTE if strategy.dispute_if_delivered else Action.ACCEPT,
        AFTER_NOSEND: Action.DISPUTE if strategy.dispute_if_undelivered else Action.ACCEPT,
    }


def reached_leaf(seller: SellerStrategy, buyer: BuyerStrategy) -> Leaf:
    """The leaf the pair's moves reach, walked down the game tree."""
    profile = {**seller_profile(seller), **buyer_profile(buyer)}
    node = build_game_tree(PARAMS, Standard(1)).root
    while not isinstance(node, Leaf):
        node = node.actions[profile[node.node_id]]
    return node


def strategies_for_leaf(leaf: Leaf) -> tuple[SellerStrategy, BuyerStrategy]:
    """The strategy pair that forces play down to the given leaf."""
    moves = {action for _, action in leaf_path(leaf)}
    send = Action.SEND in moves
    dispute = Action.DISPUTE in moves
    counter = Action.COUNTER in moves
    seller = SellerStrategy(send, counter, counter)
    buyer = BuyerStrategy(dispute_if_delivered=dispute, dispute_if_undelivered=dispute)
    return seller, buyer


def test_strategy_spaces_cover_the_tree():
    assert len(all_seller_strategies()) == 8
    assert len(all_buyer_strategies()) == 4
    honest = {**seller_profile(SellerStrategy.honest()), **buyer_profile(BuyerStrategy.honest())}
    assert honest == HONEST_PROFILE


def test_honest_trade_statistics_are_exact():
    stats = simulate(PARAMS, Standard(1), SellerStrategy.honest(), BuyerStrategy.honest(),
                     trials=50, seed=3)
    assert stats.mean_buyer_payoff == 1  # y - x
    assert stats.mean_seller_payoff == 1  # x - x'
    assert stats.dispute_rate == 0
    assert stats.arbitration_rate == 0
    assert stats.fees_total == 0


def test_honest_trade_with_fees_charges_the_pre_game_moves_too():
    # The tree starts after acceptance and funding, so the simulated means sit
    # one fee below the leaf values for each party (fund for the buyer,
    # accept for the seller), plus the fee on each in-tree move.
    params = TradeParams(price=1, seller_value=0, buyer_value=2, arbiter_error=0, fee="1/10")
    stats = simulate(params, Standard(1), SellerStrategy.honest(), BuyerStrategy.honest(),
                     trials=10, seed=3)
    leaf = leaf_payoff(Leaf.SEND_ACCEPT, params, Standard(1))
    assert stats.mean_buyer_payoff == leaf.buyer - params.fee
    assert stats.mean_seller_payoff == leaf.seller - params.fee
    assert stats.fees_total == 10 * 3 * params.fee


def test_identical_seeds_give_identical_statistics():
    seller, buyer = strategies_for_leaf(Leaf.SEND_DISPUTE_COUNTER)
    a = simulate(PARAMS, Standard(1), seller, buyer, trials=300, seed=11)
    b = simulate(PARAMS, Standard(1), seller, buyer, trials=300, seed=11)
    assert a == b
    c = simulate(PARAMS, Standard(1), seller, buyer, trials=300, seed=12)
    assert c != a


def naive(params, scheme, seller, buyer, trials, seed) -> SimStats:
    """Reference: every trial played out as its own contract episode."""
    buyer_total = seller_total = fees = Fraction(0)
    disputes = arbitrations = 0
    for i in range(trials):
        buyer_utility, seller_utility, contract, ledger = run_trial(
            params, scheme, seller, buyer, Random(f"{seed}:{i}")
        )
        buyer_total += buyer_utility
        seller_total += seller_utility
        disputes += contract.settled_how != "accept"
        arbitrations += contract.last_verdict is not None
        fees += ledger.fee_sink
    return SimStats(
        trials=trials,
        mean_buyer_payoff=buyer_total / trials,
        mean_seller_payoff=seller_total / trials,
        dispute_rate=Fraction(disputes, trials),
        arbitration_rate=Fraction(arbitrations, trials),
        fees_total=fees,
    )


PAIRS = [(s, b) for s in all_seller_strategies() for b in all_buyer_strategies()]
AMOUNT = st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12)


@st.composite
def trade_setups(draw):
    price = draw(AMOUNT)
    params = TradeParams(
        price=price,
        seller_value=price * draw(st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=10)),
        buyer_value=price + draw(AMOUNT),
        arbiter_error=draw(
            st.sampled_from([0, Fraction(1, 2), 1])
            | st.fractions(min_value=0, max_value=1, max_denominator=60)
            | WIDE_RATES
        ),
        fee=draw(st.just(0) | st.fractions(min_value=Fraction(1, 20), max_value=Fraction(1, 2), max_denominator=20)),
    )
    kind = draw(st.sampled_from([Standard, WinnerRebate, Withheld, Generic]))
    if kind is Generic:
        loss = draw(st.just(0) | AMOUNT)
        # Winning beats losing (win > -loss) and the payout fits in the pot
        # (win <= price + loss).
        share = draw(st.fractions(min_value=Fraction(1, 12), max_value=1, max_denominator=12))
        scheme = Generic(share * (price + 2 * loss) - loss, loss)
    else:
        scheme = kind(draw(AMOUNT))
    return params, scheme


@pytest.mark.parametrize("pair", range(len(PAIRS)))
@settings(max_examples=15, deadline=None)
@given(setup=trade_setups(), trials=st.integers(1, 40), seed=st.integers(0, 2**32))
def test_simulate_matches_the_per_trial_episode_loop(pair, setup, trials, seed):
    params, scheme = setup
    seller, buyer = PAIRS[pair]
    assert simulate(params, scheme, seller, buyer, trials, seed) == naive(params, scheme, seller, buyer, trials, seed)


def naive_run_trial(params, scheme, seller_strategy, buyer_strategy, rng):
    """Reference: `run_trial` with the endowment and both utilities summed
    as `Fraction`s, step by step."""
    ledger = Ledger(tau=params.fee)
    endow = params.price + scheme.loss_cost(params) + 3 * params.fee
    ledger.open_account("buyer", endow)
    ledger.open_account("seller", endow)
    contract = propose(ledger, "trade", "buyer", "seller", params, scheme)
    contract.accept("seller")
    contract.fund("buyer")
    if seller_strategy.send:
        contract.notify_delivery("seller")
        disputing, countering = buyer_strategy.dispute_if_delivered, seller_strategy.counter_if_delivered
    else:
        disputing, countering = buyer_strategy.dispute_if_undelivered, seller_strategy.counter_if_undelivered
    if not disputing:
        contract.accept_delivery("buyer")
    else:
        contract.dispute("buyer")
        if not countering:
            contract.forfeit("seller")
        else:
            contract.counter("seller")
            honest = Party.SELLER if contract.delivered else Party.BUYER
            contract.run_arbitration(lambda c: oracle_arbitrate(honest, params.arbiter_error, rng))
    buyer_lost_item = contract.last_verdict is not None and contract.last_verdict.winner is Party.SELLER
    buyer_utility = ledger.balance("buyer") - endow
    if contract.delivered and not buyer_lost_item:
        buyer_utility += params.buyer_value
    seller_utility = ledger.balance("seller") - endow
    if contract.delivered:
        seller_utility -= params.seller_value
    return buyer_utility, seller_utility, contract, ledger


@pytest.mark.parametrize("pair", range(len(PAIRS)))
@settings(max_examples=10, deadline=None)
@given(setup=trade_setups(), seed=st.integers(0, 2**32))
def test_run_trial_matches_the_fraction_sums(pair, setup, seed):
    # The same utilities, contract events and ledger, with the endowment
    # and utilities summed in ints over one scale.
    params, scheme = setup
    seller, buyer = PAIRS[pair]
    ours = run_trial(params, scheme, seller, buyer, Random(seed))
    naive = naive_run_trial(params, scheme, seller, buyer, Random(seed))
    for buyer_utility, seller_utility, _, _ in (ours, naive):
        assert type(buyer_utility) is type(seller_utility) is Fraction
    assert ours[:2] == naive[:2]
    assert ours[2].events == naive[2].events
    assert ours[3].snapshot() == naive[3].snapshot()
    assert ours[2].leaf is reached_leaf(seller, buyer)


def arbitrates(pair: int) -> bool:
    seller, buyer = PAIRS[pair]
    return reached_leaf(seller, buyer) in (Leaf.SEND_DISPUTE_COUNTER, Leaf.NOSEND_DISPUTE_COUNTER)


@pytest.mark.parametrize("pair", [k for k in range(len(PAIRS)) if not arbitrates(k)])
@settings(max_examples=10, deadline=None)
@given(setup=trade_setups(), seed=st.integers(0, 2**32))
def test_a_pair_that_never_arbitrates_needs_no_stream(pair, setup, seed):
    # The same utilities, contract events and ledger with no stream as with
    # one, and the stream is left unread.
    params, scheme = setup
    seller, buyer = PAIRS[pair]
    rng = Random(seed)
    ours = run_trial(params, scheme, seller, buyer, None)
    streamed = run_trial(params, scheme, seller, buyer, rng)
    assert ours[:2] == streamed[:2]
    assert ours[2].events == streamed[2].events
    assert ours[3].snapshot() == streamed[3].snapshot()
    assert rng.getstate() == Random(seed).getstate()


@pytest.mark.parametrize("pair", [k for k in range(len(PAIRS)) if arbitrates(k)])
def test_an_arbitrating_pair_is_refused_no_stream_before_any_ledger(pair, monkeypatch):
    def no_ledger(*args, **kwargs):
        raise AssertionError("a ledger was built")

    monkeypatch.setattr("escrowlab.agents.Ledger", no_ledger)
    with pytest.raises(ValueError, match=r"^a pair that reaches arbitration needs an rng for the oracle$"):
        run_trial(PARAMS, Standard(1), *PAIRS[pair], None)


def test_simulate_rejects_an_empty_run():
    seller, buyer = strategies_for_leaf(Leaf.SEND_DISPUTE_COUNTER)
    with pytest.raises(ValueError, match=r"^trials must be >= 1$"):
        simulate(PARAMS, Standard(1), seller, buyer, trials=0, seed=1)


@pytest.mark.parametrize("trials", [True, False, Fraction(5, 2), 2.5, Fraction(2), "3"])
@pytest.mark.parametrize("leaf", [Leaf.SEND_ACCEPT, Leaf.SEND_DISPUTE_COUNTER])
def test_simulate_counts_trials_in_whole_numbers(trials, leaf):
    seller, buyer = strategies_for_leaf(leaf)
    with pytest.raises(ValueError, match=r"^trials must be a whole number, got "):
        simulate(PARAMS, Standard(1), seller, buyer, trials=trials, seed=1)


@pytest.mark.parametrize("seed", [True, False, 1.0, Fraction(1), "1", None])
@pytest.mark.parametrize("leaf", [Leaf.SEND_ACCEPT, Leaf.SEND_DISPUTE_COUNTER])
def test_simulate_takes_only_an_int_seed(seed, leaf):
    # Random(f"{seed}:{i}") would give the equal seeds 1, 1.0 and True
    # three different streams, so only an int names one.
    seller, buyer = strategies_for_leaf(leaf)
    with pytest.raises(ValueError, match=r"^seed must be a whole number, got "):
        simulate(PARAMS, Standard(1), seller, buyer, trials=5, seed=seed)


def binomial_3sigma(spread: float, p: float, n: int) -> float:
    return 3 * spread * math.sqrt(p * (1 - p) / n)


def test_dishonest_buyer_against_honest_seller_matches_the_leaf():
    # Buyer disputes after receiving; honest seller counters; gamma = 1/4.
    stats = simulate(
        PARAMS, Standard(1), SellerStrategy.honest(),
        BuyerStrategy(dispute_if_delivered=True, dispute_if_undelivered=True),
        trials=10_000, seed=17,
    )
    expected = leaf_payoff(Leaf.SEND_DISPUTE_COUNTER, PARAMS, Standard(1)).buyer
    spread = float(PARAMS.buyer_value + PARAMS.price + 1)  # win/lose payoff gap
    tolerance = binomial_3sigma(spread, 0.25, 10_000)
    assert abs(float(stats.mean_buyer_payoff) - float(expected)) <= tolerance
    assert stats.dispute_rate == 1 and stats.arbitration_rate == 1


@pytest.mark.parametrize("leaf", list(Leaf))
def test_every_leaf_is_reached_and_measured(leaf):
    # Deterministic leaves match exactly; arbitration leaves within 3 sigma.
    seller, buyer = strategies_for_leaf(leaf)
    expected = leaf_payoff(leaf, PARAMS, Standard(1))
    arbitrated = leaf in (Leaf.SEND_DISPUTE_COUNTER, Leaf.NOSEND_DISPUTE_COUNTER)
    trials = 10_000 if arbitrated else 50
    stats = simulate(PARAMS, Standard(1), seller, buyer, trials=trials, seed=23)
    if not arbitrated:
        assert stats.mean_buyer_payoff == expected.buyer
        assert stats.mean_seller_payoff == expected.seller
    else:
        spread = float(PARAMS.buyer_value + 2 * PARAMS.price + 1)
        tolerance = binomial_3sigma(spread, float(PARAMS.arbiter_error), trials)
        assert abs(float(stats.mean_buyer_payoff - expected.buyer)) <= tolerance
        assert abs(float(stats.mean_seller_payoff - expected.seller)) <= tolerance


@pytest.mark.parametrize("leaf", list(Leaf))
@pytest.mark.parametrize("charged", [False, True])
@settings(max_examples=10, deadline=None)
@given(
    setup=trade_setups(),
    errs=st.booleans(),
    fee=st.fractions(min_value=Fraction(1, 20), max_value=Fraction(1, 2), max_denominator=20),
)
def test_every_leaf_is_the_contracts_split_exactly(leaf, charged, setup, errs, fee):
    # A real contract played to the leaf, with the verdict fixed (gamma 0:
    # the honest party wins; gamma 1: the other party does), gives each
    # party the leaf's payoff at that gamma, less their one entry fee: the
    # seller's accept and the buyer's fund come before the tree starts.
    params, scheme = setup
    params = replace(params, arbiter_error=int(errs), fee=fee if charged else 0)
    buyer_utility, seller_utility, contract, _ = run_trial(
        params, scheme, *strategies_for_leaf(leaf), Random(0)
    )
    assert contract.leaf is leaf
    _, last = leaf_path(leaf)[-1]
    if last is Action.COUNTER:
        honest = Party.SELLER if contract.delivered else Party.BUYER
        assert contract.settled_how == f"arbitration:{(honest.other() if errs else honest).value}"
    else:
        assert contract.settled_how == last.value
    expected = leaf_payoff(leaf, params, scheme)
    assert (buyer_utility, seller_utility) == (expected.buyer - params.fee, expected.seller - params.fee)


def test_honesty_is_the_empirical_best_buyer_response():
    # lam = x, gamma < 1/2: no buyer strategy beats honesty against an honest
    # seller.  Strategies differing only in the never-reached undelivered flag
    # tie with honesty exactly; every strategy that disputes a delivery trails
    # by a macroscopic margin (x(1-2g) = 1/2 up to arbitration noise).
    means = {
        strategy: simulate(PARAMS, Standard(1), SellerStrategy.honest(), strategy,
                           trials=4000, seed=29).mean_buyer_payoff
        for strategy in all_buyer_strategies()
    }
    honest_mean = means[BuyerStrategy.honest()]
    assert honest_mean == max(means.values())
    for strategy, mean in means.items():
        if strategy.dispute_if_delivered:
            assert float(honest_mean - mean) > 0.3
        else:
            assert mean == honest_mean


def test_empirical_best_response_matches_the_solved_tree_per_phase():
    # One-shot deviations: at each decision point, the empirically better
    # action agrees with backward induction (PARAMS is a complete setup).
    from escrowlab.equilibrium import backward_induction
    from escrowlab.gametree import build_game_tree, Action

    solved = backward_induction(build_game_tree(PARAMS, Standard(1)))
    trials, seed = 4000, 31

    def mean_for(seller, buyer):
        return simulate(PARAMS, Standard(1), seller, buyer, trials, seed)

    honest_s, honest_b = SellerStrategy.honest(), BuyerStrategy.honest()

    # Seller at the root: send versus not-send.
    send = mean_for(honest_s, honest_b).mean_seller_payoff
    hold = mean_for(SellerStrategy(False, True, False), honest_b).mean_seller_payoff
    assert (send > hold) == (solved.chosen["root"] == Action.SEND)

    # Seller facing a dispute after delivery: counter versus forfeit.
    aggressive = BuyerStrategy(True, True)
    counter = mean_for(honest_s, aggressive).mean_seller_payoff
    forfeit = mean_for(SellerStrategy(True, False, False), aggressive).mean_seller_payoff
    assert (counter > forfeit) == (solved.chosen["dispute_after_send"] == Action.COUNTER)

    # Buyer after delivery: accept versus dispute.
    accept = mean_for(honest_s, honest_b).mean_buyer_payoff
    dispute = mean_for(honest_s, aggressive).mean_buyer_payoff
    assert (accept > dispute) == (solved.chosen["after_send"] == Action.ACCEPT)

    # Buyer with nothing delivered: dispute versus accept.
    deadbeat = SellerStrategy(False, True, False)
    disp = mean_for(deadbeat, honest_b).mean_buyer_payoff
    acc = mean_for(deadbeat, BuyerStrategy(False, False)).mean_buyer_payoff
    assert (disp > acc) == (solved.chosen["after_not_send"] == Action.DISPUTE)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def test_sweep_reproduces_the_strength_boundary():
    gammas = [Fraction(k, 20) for k in range(11)]
    reports = sweep(TradeParams(1, 0, 2), gammas=gammas, wagers=[1])
    for report in reports:
        assert report.strong == (report.gamma < Fraction(1, 2))
        if report.strong:
            assert report.sound_epsilon_max == 1 - 2 * report.gamma


def test_sweep_over_wagers_matches_the_completeness_interval():
    wagers = [Fraction(k, 12) for k in range(1, 48)]
    reports = sweep(TradeParams(1, 0, 2), gammas=[Fraction(1, 4)], wagers=wagers)
    for report in reports:
        inside = Fraction(1, 3) < report.wager < 3
        assert report.complete == inside


def test_sweep_rows_drop_the_bound_when_fees_eat_it():
    reports = sweep(TradeParams(1, 0, 2), gammas=[Fraction(1, 4)], wagers=[1], fees=[Fraction(1, 2), Fraction(3, 5)])
    for report in reports:
        assert report.sound_epsilon_max is None  # tau >= x(1-2g)
    text = sweep_csv(reports)
    lines = text.strip().splitlines()
    assert lines[0] == "gamma,lambda,tau,scheme,complete,eps_max,strong,weak"
    assert lines[1] == "1/4,1,1/2,standard,false,,false,true"


def test_sweep_csv_round_trips_through_the_report_fields():
    reports = sweep(TradeParams(1, 0, 2), gammas=[0, Fraction(1, 4)], wagers=[1, 2], schemes=["standard", "withheld"])
    text = sweep_csv(reports)
    lines = text.strip().splitlines()
    assert len(lines) == 1 + len(reports)
    # Each grid is read once, so one-shot iterators give every row too.
    assert sweep(
        TradeParams(1, 0, 2), gammas=iter([0, Fraction(1, 4)]), wagers=iter([1, 2]), fees=iter([0]),
        schemes=iter(["standard", "withheld"]),
    ) == reports


def naive_sweep_csv(reports):
    """Reference: `sweep_csv` as it was, one `DictWriter` row per report,
    each row the naive `to_row`."""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=SecurityReport.CSV_FIELDS)
    writer.writeheader()
    for report in reports:
        writer.writerow(naive_to_row(report))
    return out.getvalue()


def test_sweep_csv_writes_the_bytes_of_the_dict_writer():
    reports = sweep(
        TradeParams(1, 0, 2), gammas=[0, Fraction(1, 4), Fraction(1, 2)], wagers=[Fraction(1, 3), 1, 4],
        fees=[0, Fraction(3, 5)], schemes=["standard", "winner_rebate", "withheld"],
    )
    rows = [report.to_row() for report in reports]
    assert any(row["eps_max"] == "" for row in rows) and any("/" in row["eps_max"] for row in rows)
    assert sweep_csv(reports) == naive_sweep_csv(reports)
    assert sweep_csv([]) == naive_sweep_csv([]) == "gamma,lambda,tau,scheme,complete,eps_max,strong,weak\r\n"


def test_sweep_cells_are_the_naive_rows_and_bytes():
    # The draws must reach an empty eps_max, an integer one, and one set on
    # an incomplete row, the three ways the cell reader can go astray, and a
    # gamma equal to the row before's but held as another object.
    seen = set()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def check(data):
        x = Fraction(data.draw(st.integers(1, 4) | st.fractions(Fraction(1, 12), 4, max_denominator=12)))
        xs = x * data.draw(st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=10))
        y = x + data.draw(st.fractions(Fraction(1, 12), 4, max_denominator=12))
        gammas = data.draw(st.lists(st.just(0) | GAMMA, min_size=1, max_size=3))
        # Wagers at the price and fees at x - x' and x put margins at exactly 0.
        wagers = data.draw(st.lists(st.just(x) | WAGER, min_size=1, max_size=4))
        reports = sweep(TradeParams(x, xs, y), gammas, wagers, [0, x - xs, x], ["standard", "winner_rebate", "withheld"])
        for report in reports:
            row = report.to_row()
            assert row == naive_to_row(report)
            least = min(report.slacks[name] for name in DISPUTE_LAYER)
            assert row["eps_max"] == (str(least) if least > 0 else "")
            if not row["eps_max"]:
                seen.add("empty")
            elif "/" not in row["eps_max"]:
                seen.add("integer")
            if row["eps_max"] and row["complete"] == "false":
                seen.add("incomplete with a bound")
        assert sweep_csv(reports) == naive_sweep_csv(reports)
        # Orders `sweep` never makes, so runs of one gamma or fee object break
        # at arbitrary points: a drawn permutation, and a drawn interleaving
        # with a second sweep whose equal gammas and fees are other objects.
        shuffled = data.draw(st.permutations(reports))
        others = sweep(TradeParams(x, xs, y), [Fraction(g) for g in gammas], wagers, [Fraction(0), x - xs], ["withheld"])
        sources = [iter(reports), iter(others)]
        mixed = [next(sources[k]) for k in data.draw(st.permutations([0] * len(reports) + [1] * len(others)))]
        for reordered in (shuffled, mixed):
            assert sweep_csv(reordered) == naive_sweep_csv(reordered)
        if any(a.gamma == b.gamma and a.gamma is not b.gamma for a, b in zip(mixed, mixed[1:])):
            seen.add("equal gamma, another object")

    check()
    assert seen == {"empty", "integer", "incomplete with a bound", "equal gamma, another object"}


def test_every_csv_cell_is_bare_so_joined_cells_are_the_csv_bytes():
    # `sweep_csv` joins cells with ',' and never quotes: a scheme name or a
    # field that needs quoting must fail here rather than corrupt the CSV.
    for text in (*_SCHEMES, *SecurityReport.CSV_FIELDS):
        assert not any(char in text for char in ',"\r\n') and text == text.strip(), text
    reports = sweep(
        PARAMS, gammas=[0, Fraction(1, 4), Fraction(1, 2)], wagers=[Fraction(1, 3), 1, 4],
        fees=[0, Fraction(3, 5)], schemes=["standard", "winner_rebate", "withheld"],
    )
    rows = list(csv.reader(io.StringIO(sweep_csv(reports), newline="")))
    assert rows == [list(SecurityReport.CSV_FIELDS), *map(list, _csv_rows(reports))]
    assert len(rows) == 1 + 3 * 3 * 2 * 3


@pytest.mark.parametrize("wager", [-1, True, 0, "0"])
def test_sweep_refuses_a_wager_as_the_scheme_does(wager):
    with pytest.raises(ValueError) as refused:
        Standard(wager)
    with pytest.raises(type(refused.value), match=f"^{re.escape(str(refused.value))}$"):
        sweep(PARAMS, gammas=[0], wagers=[1, wager], schemes=["standard", "withheld"])


def test_sweep_replaces_the_trades_gamma_and_fee_at_each_point():
    params = TradeParams(price=1, seller_value=0, buyer_value=2, arbiter_error=Fraction(1, 3), fee=1)
    [report] = sweep(params, gammas=[0], wagers=[1], fees=[0])
    assert (report.gamma, report.fee) == (0, 0) and report.to_row()["tau"] == "0"
    assert report == sweep(TradeParams(1, 0, 2), gammas=[0], wagers=[1])[0]
    for gamma in (-1, Fraction(3, 2)):  # each point is validated as a TradeParams
        with pytest.raises(InvalidTradeError, match="arbiter_error must lie in"):
            sweep(params, gammas=[gamma], wagers=[1])
