from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escrowlab.arbiter import BASIS_ORACLE, Verdict, oracle_arbitrate
from escrowlab.contract import (
    TERMINAL_PHASES,
    DeadlineExpired,
    DuplicateContractError,
    Phase,
    WrongActorError,
    WrongPhaseError,
    propose,
)
from escrowlab.gametree import Party
from escrowlab.ledger import InsufficientFundsError, Ledger, TimeoutPolicy
from escrowlab.trade import (
    Generic,
    InvalidSchemeError,
    Standard,
    TradeParams,
    WinnerRebate,
    Withheld,
)

PARAMS = TradeParams(price=2, seller_value=1, buyer_value=5)


def world(tau=0, scheme=Standard(1), policy=None, params=PARAMS):
    ledger = Ledger(tau=tau)
    ledger.open_account("alice", 100)  # buyer
    ledger.open_account("bob", 100)  # seller
    contract = propose(ledger, "c1", "alice", "bob", params, scheme, policy)
    return ledger, contract


def buyer_wins():
    return Verdict(Party.BUYER, BASIS_ORACLE, (("arbiter", "RULE buyer"),))


def seller_wins():
    return Verdict(Party.SELLER, BASIS_ORACLE, (("arbiter", "RULE seller"),))


# ---------------------------------------------------------------------------
# Happy path
# ---------------------------------------------------------------------------


def test_honest_trade_pays_the_seller():
    ledger, c = world()
    c.accept("bob")
    c.fund("alice")
    assert c.phase is Phase.FUNDED and ledger.pot_balance("c1") == 2
    c.notify_delivery("bob")
    c.accept_delivery("alice")
    assert c.phase is Phase.SETTLED and c.settled_how == "accept"
    assert ledger.balance("alice") == 98
    assert ledger.balance("bob") == 102
    assert ledger.pot_balance("c1") == 0


def test_honest_trade_event_log_is_stable():
    _, c = world()
    c.accept("bob")
    c.fund("alice")
    c.notify_delivery("bob")
    c.accept_delivery("alice")
    assert c.events == [
        "0 proposed buyer propose 0",
        "0 proposed seller accept 0",
        "0 funded buyer fund +2",
        "0 delivered-notified seller notify 0",
        "0 settled buyer accept_delivery -2",
    ]


def test_honest_trade_charges_exactly_three_fee_bearing_moves():
    # Buyer's funding, seller's acceptance, and the delivery notification are
    # the only fee-bearing interactions; accepting delivery is the default.
    ledger, c = world(tau="1/10")
    c.accept("bob")
    c.fund("alice")
    c.notify_delivery("bob")
    c.accept_delivery("alice")
    assert sum(ledger.move_counts.values()) == 3
    assert ledger.move_counts == {"alice": 1, "bob": 2}
    assert ledger.fee_sink == Fraction(3, 10)
    assert ledger.balance("alice") == 100 - 2 - Fraction(1, 10)
    assert ledger.balance("bob") == 100 + 2 - Fraction(2, 10)


# ---------------------------------------------------------------------------
# Dispute paths
# ---------------------------------------------------------------------------


def test_forfeited_dispute_refunds_price_plus_wager():
    ledger, c = world()
    c.accept("bob")
    c.fund("alice")
    c.dispute("alice")
    assert c.phase is Phase.DISPUTED and ledger.pot_balance("c1") == 3
    c.forfeit("bob")
    assert c.settled_how == "forfeit"
    assert ledger.balance("alice") == 100
    assert ledger.balance("bob") == 100
    assert ledger.pot_balance("c1") == 0


def test_seller_silence_after_a_dispute_is_a_forfeit():
    policy = TimeoutPolicy(threshold=2, timeout=5, deposit=0)
    ledger, c = world(policy=policy)
    c.accept("bob")
    c.fund("alice")
    c.dispute("alice")
    ledger.advance_time(5)
    assert c.phase is Phase.SETTLED and c.settled_how == "forfeit"
    assert ledger.balance("alice") == 100  # price + wager back


def test_buyer_silence_after_funding_settles_as_accepted():
    policy = TimeoutPolicy(threshold=2, timeout=5, deposit=0)
    ledger, c = world(policy=policy)
    c.accept("bob")
    c.fund("alice")
    ledger.advance_time(7)
    assert c.phase is Phase.SETTLED and c.settled_how == "accept"
    assert ledger.balance("bob") == 102
    assert ledger.move_counts == {"alice": 1, "bob": 1}  # timeout default was free


def test_unfunded_proposal_aborts_with_empty_pots():
    policy = TimeoutPolicy(threshold=2, timeout=5, deposit=3)
    ledger, c = world(policy=policy)
    c.accept("bob")  # posts the seller's liveness deposit
    ledger.advance_time(6)
    assert c.phase is Phase.ABORTED
    assert ledger.pot_balance("c1") == 0
    assert ledger.balance("bob") == 100


def test_standard_arbitration_routes_the_loser_wager_to_the_arbiter():
    ledger, c = world()
    c.accept("bob")
    c.fund("alice")
    c.dispute("alice")
    c.counter("bob")
    assert ledger.pot_balance("c1") == 4  # price + both wagers
    c.begin_arbitration()
    c.settle_arbitration(buyer_wins())
    assert ledger.balance("alice") == 100  # restored: net 0 in cash
    assert ledger.balance("bob") == 99  # lost the wager
    assert ledger.arbiter_sink == 1
    assert ledger.pot_balance("c1") == 0


def test_seller_winning_arbitration_collects_price_and_wager_back():
    ledger, c = world()
    c.accept("bob")
    c.fund("alice")
    c.notify_delivery("bob")
    c.dispute("alice")
    c.counter("bob")
    c.run_arbitration(lambda _: seller_wins())
    assert ledger.balance("alice") == 97  # lost price and wager
    assert ledger.balance("bob") == 102  # +price, wager returned
    assert ledger.arbiter_sink == 1


def test_winner_rebate_settlement_pays_the_loser_wager_to_the_winner():
    ledger, c = world(scheme=WinnerRebate(1))
    c.accept("bob")
    c.fund("alice")
    c.dispute("alice")
    c.counter("bob")
    c.run_arbitration(lambda _: buyer_wins())
    assert ledger.balance("alice") == 101  # price + own wager + rebate
    assert ledger.balance("bob") == 99
    assert ledger.arbiter_sink == 0


def test_withheld_settlement_keeps_both_wagers():
    ledger, c = world(scheme=Withheld(1))
    c.accept("bob")
    c.fund("alice")
    c.dispute("alice")
    c.counter("bob")
    c.run_arbitration(lambda _: buyer_wins())
    assert ledger.balance("alice") == 99  # only the price comes back
    assert ledger.balance("bob") == 99
    assert ledger.arbiter_sink == 2


def test_oracle_arbiter_composes_with_the_contract():
    from random import Random

    ledger, c = world()
    c.accept("bob")
    c.fund("alice")
    c.notify_delivery("bob")
    c.dispute("alice")
    c.counter("bob")
    rng = Random(5)
    verdict = c.run_arbitration(
        lambda contract: oracle_arbitrate(
            Party.SELLER if contract.delivered else Party.BUYER, 0, rng
        )
    )
    assert verdict.winner is Party.SELLER  # perfect arbiter, honest seller
    assert ledger.balance("bob") == 102


def test_infeasible_generic_payout_rejected():
    ledger = Ledger()
    ledger.open_account("alice", 10)
    ledger.open_account("bob", 10)
    with pytest.raises(InvalidSchemeError):
        propose(ledger, "c1", "alice", "bob", PARAMS, Generic(win_amount=10, loss_amount=1))


# ---------------------------------------------------------------------------
# Liveness deposits
# ---------------------------------------------------------------------------


def test_slow_but_timely_mover_gets_a_partial_deposit_back():
    # Deposit 6, threshold 4, timeout 10.  The seller notifies 7 ticks into
    # the funded phase: refund 6 * (1 - 3/6) = 3, the rest is burned.
    policy = TimeoutPolicy(threshold=4, timeout=10, deposit=6)
    ledger, c = world(policy=policy)
    c.accept("bob")
    c.fund("alice")
    ledger.advance_time(7)
    c.notify_delivery("bob")
    c.accept_delivery("alice")
    assert c.phase is Phase.SETTLED
    assert ledger.balance("alice") == 98  # prompt buyer: net -price, deposit whole
    assert ledger.balance("bob") == 99  # +price, but half the deposit burned
    assert ledger.fee_sink == 3  # burned shortfall
    assert ledger.pot_balance("c1") == 0


def test_deposit_defaults_to_the_wager_size():
    policy = TimeoutPolicy(threshold=4, timeout=10)
    _, c = world(policy=policy, scheme=Standard(5))
    assert c.liveness_deposit == 5


def test_defaulting_party_loses_the_whole_deposit():
    policy = TimeoutPolicy(threshold=2, timeout=5, deposit=4)
    ledger, c = world(policy=policy)
    c.accept("bob")
    c.fund("alice")
    c.notify_delivery("bob")
    ledger.advance_time(5)  # buyer sleeps through the acceptance window
    assert c.settled_how == "accept"
    assert ledger.balance("alice") == 94  # price gone, deposit burned
    assert ledger.balance("bob") == 102  # +price, own deposit back in full
    assert ledger.fee_sink == 4


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


def test_wrong_actor_rejected():
    _, c = world()
    with pytest.raises(WrongActorError):
        c.accept("alice")
    c.accept("bob")
    with pytest.raises(WrongActorError):
        c.fund("bob")


def test_wrong_phase_rejected():
    _, c = world()
    with pytest.raises(WrongPhaseError):
        c.fund("alice")  # seller has not accepted
    c.accept("bob")
    c.fund("alice")
    with pytest.raises(WrongPhaseError):
        c.counter("bob")  # nothing disputed
    with pytest.raises(WrongPhaseError):
        c.begin_arbitration()


def test_reused_contract_id_rejected_without_effect():
    # A second contract under a live contract's id would share its pot and
    # replace its deadline; it is refused and the ledger is left as it was.
    policy = TimeoutPolicy(threshold=1, timeout=3, deposit=1)
    ledger, first = world(policy=policy)
    first.accept("bob")
    first.fund("alice")
    ledger.open_account("carol", 100)
    ledger.open_account("dave", 100)
    ledger.advance_time(1)
    before = ledger.snapshot()
    with pytest.raises(DuplicateContractError):
        propose(ledger, "c1", "carol", "dave", PARAMS, Standard(1), policy)
    assert ledger.snapshot() == before
    # The first contract's deadline still stands: the buyer's silence
    # settles it as accepted at tick 3, not tick 4.
    ledger.advance_time(2)
    assert first.phase is Phase.SETTLED and first.settled_how == "accept"
    assert ledger.pot_balance("c1") == 0
    # A settled contract's id stays taken.
    with pytest.raises(DuplicateContractError):
        propose(ledger, "c1", "carol", "dave", PARAMS, Standard(1))


def test_insufficient_funds_rejected_atomically():
    ledger = Ledger()
    ledger.open_account("alice", 1)  # cannot cover price 2
    ledger.open_account("bob", 10)
    c = propose(ledger, "c1", "alice", "bob", PARAMS, Standard(1))
    c.accept("bob")
    with pytest.raises(InsufficientFundsError):
        c.fund("alice")
    assert c.phase is Phase.PROPOSED
    assert ledger.balance("alice") == 1


def test_accept_that_cannot_post_the_deposit_burns_no_fee():
    # The fee and the liveness deposit are one ledger move: a seller who can
    # pay the fee but not also the deposit is refused without paying either.
    ledger = Ledger(tau=1)
    ledger.open_account("b", 100)
    ledger.open_account("s", 2)
    c = propose(ledger, "c1", "b", "s", PARAMS, Standard(3), TimeoutPolicy(1, 5))
    before = ledger.snapshot()
    with pytest.raises(InsufficientFundsError, match="s has 2, needs 4"):
        c.accept("s")
    assert ledger.snapshot() == before
    assert ledger.move_counts == {}
    assert not c.seller_accepted and c.phase is Phase.PROPOSED


def test_late_move_is_converted_to_the_default():
    policy = TimeoutPolicy(threshold=2, timeout=5, deposit=0)
    ledger, c = world(policy=policy)
    c.accept("bob")
    c.fund("alice")
    c.dispute("alice")
    # Simulate an unwatched clock: the scheduler entry is gone, time passes.
    ledger.cancel_timeout("c1")
    ledger.advance_time(9)
    with pytest.raises(DeadlineExpired):
        c.counter("bob")
    assert c.phase is Phase.SETTLED and c.settled_how == "forfeit"
    assert ledger.balance("alice") == 100


# ---------------------------------------------------------------------------
# Model check: exhaustive action enumeration
# ---------------------------------------------------------------------------

POLICY = TimeoutPolicy(threshold=2, timeout=5, deposit=1)


def _fresh():
    ledger = Ledger(tau="1/10")
    ledger.open_account("alice", 50)
    ledger.open_account("bob", 50)
    contract = propose(ledger, "c1", "alice", "bob", PARAMS, Standard(1), POLICY)
    return ledger, contract


ACTIONS = {
    "accept": lambda l, c: c.accept("bob"),
    "fund": lambda l, c: c.fund("alice"),
    "notify": lambda l, c: c.notify_delivery("bob"),
    "dispute": lambda l, c: c.dispute("alice"),
    "counter": lambda l, c: c.counter("bob"),
    "forfeit": lambda l, c: c.forfeit("bob"),
    "accept_delivery": lambda l, c: c.accept_delivery("alice"),
    "arbitrate": lambda l, c: c.begin_arbitration(),
    "settle": lambda l, c: c.settle_arbitration(buyer_wins()),
    "wait": lambda l, c: l.advance_time(POLICY.timeout),
}

EXPECTED_ERRORS = (WrongActorError, WrongPhaseError, DeadlineExpired, InsufficientFundsError)


def _state_key(contract):
    return (
        contract.phase,
        contract.seller_accepted,
        contract.delivered,
        contract.disputed_after_delivery,
    )


def _replay(sequence):
    ledger, contract = _fresh()
    total = ledger.total_funds()
    for name in sequence:
        try:
            ACTIONS[name](ledger, contract)
        except EXPECTED_ERRORS:
            pass
        assert ledger.total_funds() == total
        assert all(balance >= 0 for balance in ledger.balances.values())
        assert ledger.pot_balance("c1") >= 0
        assert contract.pot_total() == ledger.pot_balance("c1")
        if contract.phase in TERMINAL_PHASES:
            assert ledger.pot_balance("c1") == 0
    return contract


def test_exhaustive_action_enumeration_to_depth_six():
    # Breadth-first over distinct contract states: every sequence of actions
    # either raises a defined error or lands in a defined phase with the
    # books balanced, and all eight phases are reachable.
    seen = set()
    frontier = [()]
    visited_phases = set()
    for _ in range(6):
        next_frontier = []
        for seq in frontier:
            for name in ACTIONS:
                contract = _replay(seq + (name,))
                visited_phases.add(contract.phase)
                key = _state_key(contract)
                if key not in seen:
                    seen.add(key)
                    if contract.phase not in TERMINAL_PHASES:
                        next_frontier.append(seq + (name,))
        frontier = next_frontier
    assert visited_phases == set(Phase)


def test_arbitrating_phase_is_visible_mid_flight():
    _, c = world()
    c.accept("bob")
    c.fund("alice")
    c.dispute("alice")
    c.counter("bob")
    assert c.phase is Phase.COUNTERED
    c.begin_arbitration()
    assert c.phase is Phase.ARBITRATING
    c.settle_arbitration(buyer_wins())
    assert c.phase is Phase.SETTLED


REFUSALS = (WrongActorError, WrongPhaseError, InsufficientFundsError)


@settings(max_examples=150, deadline=None)
@given(
    buyer_funds=st.integers(0, 8),
    seller_funds=st.integers(0, 8),
    tau=st.fractions(min_value=0, max_value=2, max_denominator=2),
    wager=st.integers(1, 3),
    policy=st.sampled_from([None, POLICY, TimeoutPolicy(threshold=1, timeout=4)]),
    moves=st.lists(st.sampled_from(sorted(ACTIONS)), max_size=10),
)
def test_refused_moves_on_short_accounts_change_nothing(buyer_funds, seller_funds, tau, wager, policy, moves):
    # Every move either happens or is refused with the ledger as it was; only
    # a move past its deadline changes state, by applying the default.
    ledger = Ledger(tau=tau)
    ledger.open_account("alice", buyer_funds)
    ledger.open_account("bob", seller_funds)
    contract = propose(ledger, "c1", "alice", "bob", PARAMS, Standard(wager), policy)
    total = ledger.total_funds()
    for name in moves:
        before, counts = ledger.snapshot(), dict(ledger.move_counts)
        try:
            ACTIONS[name](ledger, contract)
        except DeadlineExpired:
            pass
        except REFUSALS:
            assert ledger.snapshot() == before
            assert ledger.move_counts == counts
        assert ledger.total_funds() == total
        assert contract.pot_total() == ledger.pot_balance("c1")
