"""Two-party escrow contract state machine, driven against a Ledger.

Phase graph:

    Proposed -> Funded -> Delivered-Notified -> Settled       (accept)
                Funded/Delivered-Notified -> Disputed         (buyer wagers)
                Disputed -> Settled                           (seller forfeits)
                Disputed -> Countered -> Arbitrating -> Settled
    Proposed -> Aborted                                       (never funded)

Accepting and forfeiting are the timeout defaults and never cost a fee:
a silent buyer is assumed to have received the item, a silent seller to have
forfeited the dispute.  Explicitly playing a default action is free as well,
since the mover could have reached it by waiting.

With a TimeoutPolicy attached, each party posts a liveness deposit when they
enter the contract (the wager size unless the policy fixes one).  At
settlement a party is repaid the payback ramp evaluated at their slowest
response; the shortfall is burned.  A party whose timeout fired gets nothing
back.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable, Optional

from .arbiter import Verdict
from .gametree import Party
from .ledger import Ledger, TimeoutPolicy, deposit_payback
from .trade import InvalidSchemeError, TradeParams, WagerScheme


class ContractError(Exception):
    pass


class WrongActorError(ContractError):
    pass


class WrongPhaseError(ContractError):
    pass


class DuplicateContractError(ContractError):
    """Another contract on the same ledger already has this id."""


class DeadlineExpired(ContractError):
    """The move arrived past its phase deadline; the default was applied."""


class Phase(enum.Enum):
    PROPOSED = "proposed"
    FUNDED = "funded"
    DELIVERED_NOTIFIED = "delivered-notified"
    DISPUTED = "disputed"
    COUNTERED = "countered"
    ARBITRATING = "arbitrating"
    SETTLED = "settled"
    ABORTED = "aborted"


TERMINAL_PHASES = (Phase.SETTLED, Phase.ABORTED)

#: Phases whose timeout applies a party's default action.
_TIMED_PHASES = (Phase.PROPOSED, Phase.FUNDED, Phase.DELIVERED_NOTIFIED, Phase.DISPUTED)


class EscrowContract:
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
        stake = scheme.stake(params)
        if scheme.win_gain(params) > params.price + stake:
            raise InvalidSchemeError(
                "winner payout exceeds the pot; the contract cannot subsidize it"
            )
        # The id names the contract's pot, which the ledger keeps once opened.
        if contract_id in ledger.pots:
            raise DuplicateContractError(f"contract id {contract_id!r} is already used on this ledger")
        ledger.pots[contract_id] = Fraction(0)
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
        self.disputed_after_delivery = False
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
        return self.scheme.stake(self.params)

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
        if self.policy is not None and self.phase in _TIMED_PHASES:
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
        self.disputed_after_delivery = self.delivered
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

    def run_arbitration(self, decide: Callable[["EscrowContract"], Verdict]) -> Verdict:
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


def propose(
    ledger: Ledger,
    contract_id: str,
    buyer: str,
    seller: str,
    params: TradeParams,
    scheme: WagerScheme,
    policy: Optional[TimeoutPolicy] = None,
) -> EscrowContract:
    """Open a contract proposal between two funded ledger accounts."""
    return EscrowContract(ledger, contract_id, buyer, seller, params, scheme, policy)
