from fractions import Fraction
from typing import Callable, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escrowlab.arbiter import BASIS_ORACLE, Verdict, oracle_arbitrate
from escrowlab.contract import (
    ContractError,
    DeadlineExpired,
    DuplicateContractError,
    Phase,
    WrongActorError,
    WrongPhaseError,
    propose,
)
from escrowlab.gametree import Party
from escrowlab.ledger import InsufficientFundsError, Ledger, LedgerError, TimeoutPolicy, deposit_payback
from escrowlab.trade import (
    Generic,
    InvalidSchemeError,
    Standard,
    TradeParams,
    WagerScheme,
    WinnerRebate,
    Withheld,
)

PARAMS = TradeParams(price=2, seller_value=1, buyer_value=5)
TERMINAL_PHASES = (Phase.SETTLED, Phase.ABORTED)


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


def test_a_contract_between_an_account_and_itself_is_refused():
    ledger = Ledger()
    ledger.open_account("a", 100)
    before = ledger.snapshot()
    with pytest.raises(ContractError, match="buyer and seller must be different accounts, got 'a' for both"):
        propose(ledger, "c", "a", "a", PARAMS, Standard(1), TimeoutPolicy(1, 2))
    assert ledger.snapshot() == before and "c" not in ledger.pots
    ledger.advance_time(5)  # no deadline was armed
    assert ledger.snapshot() == before.replace("time 0", "time 5")


def test_events_name_roles_even_when_accounts_are_named_after_the_other_role():
    ledger = Ledger()
    ledger.open_account("seller", 100)  # the buyer
    ledger.open_account("buyer", 100)  # the seller
    c = propose(ledger, "c1", "seller", "buyer", PARAMS, Standard(1))
    c.accept("buyer")
    c.fund("seller")
    c.dispute("seller")
    c.forfeit("buyer")
    assert c.events == [
        "0 proposed buyer propose 0",
        "0 proposed seller accept 0",
        "0 funded buyer fund +2",
        "0 disputed buyer dispute +1",
        "0 settled seller forfeit -3",
    ]
    assert ledger.balance("seller") == 100 and ledger.balance("buyer") == 100


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


@settings(max_examples=300, deadline=None)
@given(
    price=st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12),
    loss=st.fractions(min_value=0, max_value=4, max_denominator=12),
    excess=st.just(0) | st.fractions(min_value=-8, max_value=4, max_denominator=12),
)
def test_generic_payout_is_refused_exactly_when_it_exceeds_the_pot(price, loss, excess):
    # The subsidy check, made in ints, refuses exactly when win > price +
    # loss, a payout that fills the pot exactly included; an accepted scheme
    # pays the arbitration winner win + loss.
    win = price + loss + excess
    if win + loss <= 0:
        return  # not a scheme: winning must beat losing
    params = TradeParams(price=price, buyer_value=price + 1)
    ledger = Ledger()
    ledger.open_account("alice", price + 2 * loss)
    ledger.open_account("bob", loss)
    if win > price + loss:
        with pytest.raises(InvalidSchemeError, match="^winner payout exceeds the pot; the contract cannot subsidize it$"):
            propose(ledger, "c1", "alice", "bob", params, Generic(win, loss))
        return
    c = propose(ledger, "c1", "alice", "bob", params, Generic(win, loss))
    c.accept("bob")
    c.fund("alice")
    c.dispute("alice")
    c.counter("bob")
    c.begin_arbitration()
    c.settle_arbitration(buyer_wins())
    assert ledger.balance("alice") == win + 2 * loss
    assert ledger.arbiter_sink == price + loss - win


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


def test_a_timeout_without_a_policy_is_refused_by_name():
    # With no TimeoutPolicy there is no deadline to charge, so a forced
    # timeout is refused and nothing moves, in every timed phase.
    ledger, c = world(tau=1)
    for move in (lambda: None, lambda: c.accept("bob"), lambda: c.fund("alice"), lambda: c.dispute("alice")):
        move()
        before = ledger.snapshot(), dict(ledger.move_counts), c.phase, list(c.events), dict(c.worst_lateness)
        with pytest.raises(ContractError, match="contract 'c1' has no timeout policy"):
            c.on_timeout()
        assert (ledger.snapshot(), dict(ledger.move_counts), c.phase, list(c.events), dict(c.worst_lateness)) == before


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


def test_a_refused_move_leaves_the_response_time_alone():
    # The buyer's dispute at lateness 4 is refused for want of the wager, so
    # it is no response: accepting delivery later at once repays the buyer's
    # deposit whole.  Only the seller's notification at lateness 4 is on the
    # ramp, which burns 2/3 of their deposit.
    ledger = Ledger()
    ledger.open_account("alice", 3)
    ledger.open_account("bob", 10)
    params = TradeParams(price=2, seller_value=1, buyer_value=5)
    c = propose(ledger, "c1", "alice", "bob", params, Standard(2), TimeoutPolicy(2, 5, deposit=1))
    c.accept("bob")
    c.fund("alice")
    ledger.advance_time(4)
    with pytest.raises(InsufficientFundsError):
        c.dispute("alice")
    assert c.worst_lateness == {"bob": 0, "alice": 0}
    c.notify_delivery("bob")
    c.accept_delivery("alice")
    assert c.settled_how == "accept"
    assert ledger.balance("alice") == 1
    assert ledger.fee_sink == Fraction(2, 3)


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


# ---------------------------------------------------------------------------
# Reference: each ending written out on its own, as before the defaults table
# ---------------------------------------------------------------------------

_NAIVE_TIMED_PHASES = (Phase.PROPOSED, Phase.FUNDED, Phase.DELIVERED_NOTIFIED, Phase.DISPUTED)


class NaiveEscrowContract:
    """The contract as it was before the defaults table and the one ending
    routine: each ending written out on its own."""

    def __init__(
        self,
        ledger: Ledger,
        contract_id: str,
        buyer: str,
        seller: str,
        params: TradeParams,
        scheme: WagerScheme,
        policy: Optional[TimeoutPolicy] = None,
    ):
        stake = scheme.loss_cost(params)
        if scheme.win_gain(params) > params.price + stake:
            raise InvalidSchemeError(
                "winner payout exceeds the pot; the contract cannot subsidize it"
            )
        # The id names the contract's pot, which the ledger keeps once opened.
        try:
            ledger.open_pot(contract_id)
        except LedgerError:
            raise DuplicateContractError(f"contract id {contract_id!r} is already used on this ledger") from None
        self.ledger = ledger
        self.contract_id = contract_id
        self.buyer = buyer
        self.seller = seller
        self.params = params
        self.scheme = scheme
        self.policy = policy

        self.phase = Phase.PROPOSED
        self.seller_accepted = False
        self.delivered = False
        self.last_verdict: Optional[Verdict] = None
        self.settled_how: Optional[str] = None

        # Pot breakdown; the ledger pot holds the sum of all four.
        self.payment_pot = Fraction(0)
        self.buyer_wager_pot = Fraction(0)
        self.seller_wager_pot = Fraction(0)
        self.liveness_deposits: dict[str, Fraction] = {}
        self.worst_lateness: dict[str, int] = {}

        self.events: list[str] = []
        self.phase_entered_at = ledger.time
        self._arm_deadline()
        self._log("buyer", "propose", Fraction(0))

    # -- plumbing ------------------------------------------------------------

    @property
    def stake(self) -> Fraction:
        return self.scheme.loss_cost(self.params)

    @property
    def liveness_deposit(self) -> Fraction:
        if self.policy is None:
            return Fraction(0)
        if self.policy.deposit is not None:
            return self.policy.deposit
        return self.stake

    def pot_total(self) -> Fraction:
        return (
            self.payment_pot
            + self.buyer_wager_pot
            + self.seller_wager_pot
            + sum(self.liveness_deposits.values(), Fraction(0))
        )

    def _log(self, actor: str, action: str, pot_delta: Fraction) -> None:
        role = {self.buyer: "buyer", self.seller: "seller"}.get(actor, actor)
        sign = f"+{pot_delta}" if pot_delta > 0 else str(pot_delta)
        self.events.append(f"{self.ledger.time} {self.phase.value} {role} {action} {sign}")

    def _enter(self, phase: Phase) -> None:
        self.phase = phase
        self.phase_entered_at = self.ledger.time
        self._arm_deadline()

    def _arm_deadline(self) -> None:
        self.ledger.cancel_timeout(self.contract_id)
        if self.policy is not None and self.phase in _NAIVE_TIMED_PHASES:
            self.ledger.register_timeout(
                self.contract_id, self.ledger.time + self.policy.timeout, self.on_timeout
            )

    def _require(self, actor: str, allowed: str, *phases: Phase) -> None:
        if self.phase not in phases:
            raise WrongPhaseError(f"cannot act in phase {self.phase.value}")
        if actor != allowed:
            raise WrongActorError(f"{actor} does not own this move ({allowed} does)")
        if self.policy is not None:
            lateness = self.ledger.time - self.phase_entered_at
            if lateness >= self.policy.timeout:
                self.on_timeout()
                raise DeadlineExpired("deadline passed; default action applied")

    def _mark_response(self, party: str) -> None:
        lateness = self.ledger.time - self.phase_entered_at
        self.worst_lateness[party] = max(self.worst_lateness.get(party, 0), lateness)

    # -- party moves -----------------------------------------------------------

    def accept(self, actor: str) -> None:
        """Seller commits to the trade (fee-bearing), posting the liveness
        deposit, if any, in the same ledger move."""
        self._require(actor, self.seller, Phase.PROPOSED)
        if self.seller_accepted:
            raise WrongPhaseError("already accepted")
        deposit = self.liveness_deposit
        self.ledger.escrow_deposit(actor, self.contract_id, deposit, contract_move=True)
        self._mark_response(actor)
        if deposit > 0:
            self.liveness_deposits[actor] = deposit
        self.seller_accepted = True
        self._log(actor, "accept", deposit)

    def fund(self, actor: str) -> None:
        """Buyer escrows the price and enters the contract (fee-bearing)."""
        self._require(actor, self.buyer, Phase.PROPOSED)
        if not self.seller_accepted:
            raise WrongPhaseError("seller has not accepted yet")
        deposit = self.liveness_deposit
        self.ledger.escrow_deposit(actor, self.contract_id, self.params.price + deposit, contract_move=True)
        self._mark_response(actor)
        self.payment_pot += self.params.price
        if deposit > 0:
            self.liveness_deposits[actor] = deposit
        self._enter(Phase.FUNDED)
        self._log(actor, "fund", self.params.price + deposit)

    def notify_delivery(self, actor: str) -> None:
        """Seller reports the item as sent (fee-bearing)."""
        self._require(actor, self.seller, Phase.FUNDED)
        self.ledger.charge_move(actor)
        self._mark_response(actor)
        self.delivered = True
        self._enter(Phase.DELIVERED_NOTIFIED)
        self._log(actor, "notify", Fraction(0))

    def dispute(self, actor: str) -> None:
        """Buyer wagers that the item did not arrive (fee-bearing)."""
        self._require(actor, self.buyer, Phase.FUNDED, Phase.DELIVERED_NOTIFIED)
        self.ledger.escrow_deposit(actor, self.contract_id, self.stake, contract_move=True)
        self._mark_response(actor)
        self.buyer_wager_pot += self.stake
        self._enter(Phase.DISPUTED)
        self._log(actor, "dispute", self.stake)

    def counter(self, actor: str) -> None:
        """Seller matches the wager to contest the dispute (fee-bearing)."""
        self._require(actor, self.seller, Phase.DISPUTED)
        self.ledger.escrow_deposit(actor, self.contract_id, self.stake, contract_move=True)
        self._mark_response(actor)
        self.seller_wager_pot += self.stake
        self._enter(Phase.COUNTERED)
        self._log(actor, "counter", self.stake)

    def forfeit(self, actor: str) -> None:
        """Seller concedes the dispute; free, being the timeout default."""
        self._require(actor, self.seller, Phase.DISPUTED)
        self._mark_response(actor)
        self._settle_forfeit(actor, "forfeit")

    def accept_delivery(self, actor: str) -> None:
        """Buyer closes the trade as received; free, being the timeout default."""
        self._require(actor, self.buyer, Phase.FUNDED, Phase.DELIVERED_NOTIFIED)
        self._mark_response(actor)
        self._settle_accept(actor, "accept_delivery")

    # -- arbitration -------------------------------------------------------------

    def begin_arbitration(self) -> None:
        if self.phase is not Phase.COUNTERED:
            raise WrongPhaseError(f"cannot arbitrate from {self.phase.value}")
        self._enter(Phase.ARBITRATING)
        self._log("contract", "arbitrate", Fraction(0))

    def settle_arbitration(self, verdict: Verdict) -> None:
        if self.phase is not Phase.ARBITRATING:
            raise WrongPhaseError(f"no arbitration to settle in {self.phase.value}")
        pot_before = self.ledger.pot_balance(self.contract_id)
        self.last_verdict = verdict
        winner = self.buyer if verdict.winner is Party.BUYER else self.seller
        payout = self.scheme.win_gain(self.params) + self.stake
        wagered = self.payment_pot + self.buyer_wager_pot + self.seller_wager_pot
        self.ledger.escrow_release(self.contract_id, winner, payout)
        if wagered - payout > 0:
            self.ledger.pot_to_arbiter(self.contract_id, wagered - payout)
        self.payment_pot = self.buyer_wager_pot = self.seller_wager_pot = Fraction(0)
        self._finish(
            Phase.SETTLED, f"arbitration:{verdict.winner.value}", "contract", "settle", pot_before
        )

    def run_arbitration(self, decide: Callable) -> Verdict:
        """Convenience: begin, obtain a verdict, settle."""
        self.begin_arbitration()
        verdict = decide(self)
        self.settle_arbitration(verdict)
        return verdict

    # -- timeouts -----------------------------------------------------------------

    def on_timeout(self) -> None:
        """Apply the defaulting party's default action at zero fee."""
        if self.phase is Phase.PROPOSED:
            defaulter = self.buyer if self.seller_accepted else self.seller
            self.worst_lateness[defaulter] = self.policy.timeout
            self._abort("timeout_abort")
        elif self.phase in (Phase.FUNDED, Phase.DELIVERED_NOTIFIED):
            self.worst_lateness[self.buyer] = self.policy.timeout
            self._settle_accept("timeout", "timeout_accept")
        elif self.phase is Phase.DISPUTED:
            self.worst_lateness[self.seller] = self.policy.timeout
            self._settle_forfeit("timeout", "timeout_forfeit")
        else:
            raise WrongPhaseError(f"no timeout default in phase {self.phase.value}")

    # -- settlement ------------------------------------------------------------------

    def _settle_accept(self, actor: str, action: str) -> None:
        pot_before = self.ledger.pot_balance(self.contract_id)
        self.ledger.escrow_release(self.contract_id, self.seller, self.payment_pot)
        self.payment_pot = Fraction(0)
        self._finish(Phase.SETTLED, "accept", actor, action, pot_before)

    def _settle_forfeit(self, actor: str, action: str) -> None:
        pot_before = self.ledger.pot_balance(self.contract_id)
        refund = self.payment_pot + self.buyer_wager_pot
        self.ledger.escrow_release(self.contract_id, self.buyer, refund)
        self.payment_pot = self.buyer_wager_pot = Fraction(0)
        self._finish(Phase.SETTLED, "forfeit", actor, action, pot_before)

    def _abort(self, action: str) -> None:
        # Nothing was misplayed before funding, so deposits come back whole.
        pot_before = self.ledger.pot_balance(self.contract_id)
        for party, amount in list(self.liveness_deposits.items()):
            self.ledger.escrow_release(self.contract_id, party, amount)
            del self.liveness_deposits[party]
        self.ledger.escrow_release(self.contract_id, self.buyer, self.payment_pot)
        self.payment_pot = Fraction(0)
        self._finish(Phase.ABORTED, "abort", "contract", action, pot_before)

    def _finish(self, phase: Phase, how: str, actor: str, action: str, pot_before: Fraction) -> None:
        self._release_liveness_deposits()
        self.settled_how = how
        self.ledger.cancel_timeout(self.contract_id)
        self.phase = phase
        self._log(actor, action, self.ledger.pot_balance(self.contract_id) - pot_before)

    def _release_liveness_deposits(self) -> None:
        if self.policy is None:
            return
        for party, amount in list(self.liveness_deposits.items()):
            back = deposit_payback(self.worst_lateness.get(party, 0), self.policy, amount)
            if back > 0:
                self.ledger.escrow_release(self.contract_id, party, back)
            if amount - back > 0:
                self.ledger.burn_from_pot(self.contract_id, amount - back)
            del self.liveness_deposits[party]


class RecordingLedger(Ledger):
    """A ledger that also keeps the ordered list of calls made on it; a
    timeout is recorded without its callback."""

    def __init__(self, tau=0):
        super().__init__(tau)
        self.calls = []


def _recorded(name):
    def method(self, *args, **kwargs):
        self.calls.append((name, args[:2] if name == "register_timeout" else args, kwargs))
        return getattr(Ledger, name)(self, *args, **kwargs)

    return method


for _name in (
    "transfer", "escrow_deposit", "escrow_release", "charge_move", "pot_to_arbiter",
    "burn_from_pot", "register_timeout", "cancel_timeout", "advance_time",
):
    setattr(RecordingLedger, _name, _recorded(_name))

DIFF_MOVES = {
    "accept": "seller", "fund": "buyer", "notify_delivery": "seller", "dispute": "buyer",
    "counter": "seller", "forfeit": "seller", "accept_delivery": "buyer",
}
#: The steps that can move each phase on; the others are drawn too, less often.
PHASE_STEPS = {
    Phase.PROPOSED: [("fund", "owner")],
    Phase.FUNDED: [("notify_delivery", "owner"), ("dispute", "owner"), ("accept_delivery", "owner")],
    Phase.DELIVERED_NOTIFIED: [("dispute", "owner"), ("accept_delivery", "owner")],
    Phase.DISPUTED: [("counter", "owner"), ("forfeit", "owner")],
    Phase.COUNTERED: [("begin_arbitration", None)],
    Phase.ARBITRATING: [("verdict", Party.BUYER), ("verdict", Party.SELLER)],
    Phase.SETTLED: [],
    Phase.ABORTED: [],
}
PARTY_STEP = st.tuples(st.sampled_from(sorted(DIFF_MOVES)), st.sampled_from(["owner", "other"]))
ANY_STEP = st.one_of(
    PARTY_STEP,
    st.tuples(st.sampled_from(["tick", "sleep"]), st.integers(1, 6)),
    st.tuples(st.just("verdict"), st.sampled_from([Party.BUYER, Party.SELLER])),
    st.tuples(st.sampled_from(["begin_arbitration", "on_timeout"]), st.none()),
)


def _next_step(contract, anything=ANY_STEP):
    """A step that can move the contract on: mostly a move, after funding
    sometimes waiting out the deadline, now and then `anything`."""
    steps = PHASE_STEPS[contract.phase] if contract.seller_accepted else [("accept", "owner")]
    if contract.phase is not Phase.PROPOSED:
        steps = [*steps, *steps, ("tick", 6)]
    return st.integers(0, 7).flatmap(lambda roll: st.sampled_from(steps) if roll and steps else anything)


def _diff_step(ledger, contract, step):
    kind, arg = step
    if kind == "tick":
        ledger.advance_time(arg)
    elif kind == "sleep":  # an unwatched clock: the next move finds itself late
        ledger.cancel_timeout("c1")
        ledger.advance_time(arg)
    elif kind == "verdict":
        contract.settle_arbitration(Verdict(arg, BASIS_ORACLE, (("arbiter", f"RULE {arg.value}"),)))
    elif arg is None:
        getattr(contract, kind)()
    else:
        owner = getattr(contract, DIFF_MOVES[kind])
        other = contract.buyer if owner == contract.seller else contract.seller
        getattr(contract, kind)(owner if arg == "owner" else other)


def _zero_release(call):
    name, args, kwargs = call
    return name == "escrow_release" and args[2] == 0


#: Where `_diff_state` keeps the ledger calls.
DIFF_CALLS = 8


def _diff_state(ledger, contract, error):
    return (
        error, list(contract.events), contract.settled_how, contract.phase,
        dict(contract.worst_lateness), dict(contract.liveness_deposits), ledger.snapshot(),
        dict(ledger.move_counts), list(ledger.calls), contract.pot_total(), contract.last_verdict,
        (contract.seller_accepted, contract.delivered),
    )


@settings(max_examples=400, deadline=None)
@given(
    data=st.data(),
    buyer_funds=st.sampled_from([20, 20, 6, 4, 3, 2, 1, 0]),
    seller_funds=st.sampled_from([20, 20, 6, 4, 3, 2, 1, 0]),
    tau=st.sampled_from([0, Fraction(1, 10), Fraction(1, 2)]),
    scheme=st.builds(lambda kind, wager: kind(wager), st.sampled_from([Standard, WinnerRebate, Withheld]), st.integers(1, 3)),
    policy=st.sampled_from([None, POLICY, TimeoutPolicy(threshold=1, timeout=4), TimeoutPolicy(0, 3, deposit=2)]),
)
def test_defaults_table_matches_the_written_out_endings(data, buyer_funds, seller_funds, tau, scheme, policy):
    # Both contracts take the same moves, verdicts and ticks, on short
    # balances, with fees and late moves, and with no policy, a fixed
    # deposit or one of the wager's size; after every step they agree on
    # their records, the ledger and every call made on it, and any error.
    sides = []
    for kind in (propose, NaiveEscrowContract):
        ledger = RecordingLedger(tau=tau)
        ledger.open_account("alice", buyer_funds)
        ledger.open_account("bob", seller_funds)
        sides.append((ledger, kind(ledger, "c1", "alice", "bob", PARAMS, scheme, policy)))

    def compare(step):
        states = []
        for ledger, contract in sides:
            error = None
            try:
                if step is not None:
                    _diff_step(ledger, contract, step)
            except Exception as exc:  # noqa: BLE001 - the error is part of the outcome
                error = (type(exc), str(exc))
            states.append(_diff_state(ledger, contract, error))
        ours, naive = states[0], list(states[1])
        # Two differences are expected of the written-out endings: they
        # release zero amounts, which `_end` skips, and they meet a forced
        # timeout without a policy with an AttributeError, which `on_timeout`
        # refuses by name.  Either is forgiven on the naive side only.
        naive[DIFF_CALLS] = [call for call in naive[DIFF_CALLS] if not _zero_release(call)]
        if naive[0] == (AttributeError, "'NoneType' object has no attribute 'timeout'") and ours[0] == (
            ContractError, "contract 'c1' has no timeout policy"
        ):
            naive[0] = ours[0]
        assert ours == tuple(naive)

    compare(None)
    for _ in range(data.draw(st.integers(0, 16))):
        compare(data.draw(_next_step(sides[0][1])))


# ---------------------------------------------------------------------------
# Many contracts on one ledger
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_interleaved_contracts_keep_their_pots_apart_on_one_ledger(data):
    # Contracts with and without a policy share one ledger; their moves
    # interleave and one tick can fire several deadlines.  After every move
    # and tick each live contract's books match its pot, each ended
    # contract's pot is empty, and the ledger's total is unchanged.
    ledger = Ledger(tau=data.draw(st.sampled_from([0, Fraction(1, 10)])))
    contracts = []
    for i in range(data.draw(st.integers(2, 5))):
        ledger.open_account(f"b{i}", data.draw(st.sampled_from([20, 6, 3, 1])))
        ledger.open_account(f"s{i}", data.draw(st.sampled_from([20, 6, 3, 1])))
        policy = data.draw(st.sampled_from([POLICY, None, TimeoutPolicy(threshold=1, timeout=4)]))
        scheme = Standard(data.draw(st.integers(1, 3)))
        contracts.append(propose(ledger, f"c{i}", f"b{i}", f"s{i}", PARAMS, scheme, policy))
    total = ledger.total_funds()
    for _ in range(data.draw(st.integers(0, 40))):
        if data.draw(st.integers(0, 4)):
            contract = data.draw(st.sampled_from(contracts))
            try:
                _diff_step(ledger, contract, data.draw(_next_step(contract, PARTY_STEP)))
            except EXPECTED_ERRORS:
                pass
        else:
            ledger.advance_time(data.draw(st.integers(1, 3)))
        for c in contracts:
            if c.phase in TERMINAL_PHASES:
                assert ledger.pot_balance(c.contract_id) == 0 == c.pot_total()
            else:
                assert c.pot_total() == ledger.pot_balance(c.contract_id)
        assert ledger.total_funds() == total
