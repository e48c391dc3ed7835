"""Two-party escrow contract state machine, driven against a Ledger.

Phase graph:

    Proposed -> Funded -> Delivered-Notified -> Settled       (accept)
                Funded/Delivered-Notified -> Disputed         (buyer wagers)
                Disputed -> Settled                           (seller forfeits)
                Disputed -> Countered -> Arbitrating -> Settled
    Proposed -> Aborted                                       (never funded)

Accepting and forfeiting are the timeout defaults and never cost a fee:
a silent buyer is assumed to have received the item, a silent seller to have
forfeited the dispute.  `_DEFAULTS` is the one table of them: for each timed
phase, whose silence the timeout charges and how the contract then ends.
Explicitly playing a default action is free as well, since the mover could
have reached it by waiting, and ends the contract the same way.  Every
ending, arbitration's too, goes through one routine, `_end`.

With a TimeoutPolicy attached, each party posts a liveness deposit when they
enter the contract (the wager size unless the policy fixes one).  At
settlement a party is repaid the payback ramp evaluated at their slowest
response; the shortfall is burned.  A party whose timeout fired gets nothing
back.  An aborted contract repays the deposits whole: nothing was misplayed
before funding.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable, Optional

from .arbiter import Verdict
from .gametree import Party
from .ledger import Ledger, LedgerError, TimeoutPolicy, deposit_payback
from .trade import InvalidSchemeError, TradeParams, WagerScheme, scaled


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


#: The empty books and the pot delta of a move that pays nothing in, built once.
_ZERO = Fraction(0)

#: The timed phases and their defaults: the role whose silence the timeout
#: charges, how the contract then ends, and the role paid the pot less the
#: liveness deposits, i.e. the payment and the buyer's wager (the seller's
#: wager enters only with a counter, which leaves the timed phases).
#: "owner" is whoever owes the next move: the seller until they accept,
#: then the buyer.
_DEFAULTS = {
    Phase.PROPOSED: ("owner", "abort", "buyer"),
    Phase.FUNDED: ("buyer", "accept", "seller"),
    Phase.DELIVERED_NOTIFIED: ("buyer", "accept", "seller"),
    Phase.DISPUTED: ("seller", "forfeit", "buyer"),
}


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
        if buyer == seller:
            raise ContractError(f"buyer and seller must be different accounts, got {buyer!r} for both")
        stake = scheme.loss_cost(params)
        # The subsidy check in ints over one scale, and the payout as one Fraction.
        (win, price, wager), scale = scaled((scheme.win_gain(params), params.price, stake))
        if win > price + wager:
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
        # Fixed once: the wager, the arbitration winner's gross payout, the liveness deposit.
        self.stake = stake
        self._payout = Fraction(win + wager, scale)
        if policy is None:
            self.liveness_deposit = _ZERO
        else:
            self.liveness_deposit = stake if policy.deposit is None else policy.deposit

        self.seller_accepted = False
        self.delivered = False
        self.last_verdict: Optional[Verdict] = None
        self.settled_how: Optional[str] = None

        # The pot less the liveness deposits: the payment and the wagers.
        self._wagered = _ZERO
        self.liveness_deposits: dict[str, Fraction] = {}
        self.worst_lateness: dict[str, int] = {}

        self.events: list[str] = []
        self._step("buyer", "propose", _ZERO, Phase.PROPOSED)

    # -- plumbing ------------------------------------------------------------

    def pot_total(self) -> Fraction:
        return sum(self.liveness_deposits.values(), self._wagered)

    def _step(self, role: str, action: str, pot_delta: Fraction, phase: Optional[Phase] = None) -> None:
        """Log the move's event for `role`, entering `phase` first if given:
        the deadline is re-armed when the new phase is timed, cancelled if not.
        The delta's sign is read off its numerator."""
        if phase is not None:
            self.phase = phase
            self.phase_entered_at = self.ledger.time
            self.ledger.cancel_timeout(self.contract_id)
            if self.policy is not None and phase in _DEFAULTS:
                self.ledger.register_timeout(
                    self.contract_id, self.ledger.time + self.policy.timeout, self.on_timeout
                )
        sign = f"+{pot_delta}" if pot_delta.numerator > 0 else str(pot_delta)
        self.events.append(f"{self.ledger.time} {self.phase.value} {role} {action} {sign}")

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

    def _pay_in(self, role: str, action: str, amount: Fraction, phase: Optional[Phase] = None) -> None:
        """A fee-bearing move by `role` paying `amount` into the pot.  Made
        while the contract is proposed, it is the party's entry, and `amount`
        includes their liveness deposit.  The response time and the deposit
        are recorded only once the ledger has taken the money."""
        party = getattr(self, role)
        self.ledger.escrow_deposit(party, self.contract_id, amount, contract_move=True)
        self._mark_response(party)
        if self.phase is Phase.PROPOSED and self.liveness_deposit:
            self.liveness_deposits[party] = self.liveness_deposit
        self._step(role, action, amount, phase)

    # -- party moves -----------------------------------------------------------

    def accept(self, actor: str) -> None:
        """Seller commits to the trade (fee-bearing), posting the liveness
        deposit, if any, in the same ledger move."""
        self._require(actor, self.seller, Phase.PROPOSED)
        if self.seller_accepted:
            raise WrongPhaseError("already accepted")
        self._pay_in("seller", "accept", self.liveness_deposit)
        self.seller_accepted = True

    def fund(self, actor: str) -> None:
        """Buyer escrows the price and enters the contract (fee-bearing)."""
        self._require(actor, self.buyer, Phase.PROPOSED)
        if not self.seller_accepted:
            raise WrongPhaseError("seller has not accepted yet")
        self._pay_in("buyer", "fund", self.params.price + self.liveness_deposit, Phase.FUNDED)
        self._wagered = self.params.price

    def notify_delivery(self, actor: str) -> None:
        """Seller reports the item as sent (fee-bearing)."""
        self._require(actor, self.seller, Phase.FUNDED)
        self.ledger.charge_move(actor)
        self._mark_response(actor)
        self.delivered = True
        self._step("seller", "notify", _ZERO, Phase.DELIVERED_NOTIFIED)

    def dispute(self, actor: str) -> None:
        """Buyer wagers that the item did not arrive (fee-bearing)."""
        self._require(actor, self.buyer, Phase.FUNDED, Phase.DELIVERED_NOTIFIED)
        self._pay_in("buyer", "dispute", self.stake, Phase.DISPUTED)
        self._wagered += self.stake

    def counter(self, actor: str) -> None:
        """Seller matches the wager to contest the dispute (fee-bearing)."""
        self._require(actor, self.seller, Phase.DISPUTED)
        self._pay_in("seller", "counter", self.stake, Phase.COUNTERED)
        self._wagered += self.stake

    def forfeit(self, actor: str) -> None:
        """Seller concedes the dispute; free, being the timeout default."""
        self._require(actor, self.seller, Phase.DISPUTED)
        self._mark_response(actor)
        self._end_by_default("seller", "forfeit")

    def accept_delivery(self, actor: str) -> None:
        """Buyer closes the trade as received; free, being the timeout default."""
        self._require(actor, self.buyer, Phase.FUNDED, Phase.DELIVERED_NOTIFIED)
        self._mark_response(actor)
        self._end_by_default("buyer", "accept_delivery")

    # -- arbitration -------------------------------------------------------------

    def begin_arbitration(self) -> None:
        if self.phase is not Phase.COUNTERED:
            raise WrongPhaseError(f"cannot arbitrate from {self.phase.value}")
        self._step("contract", "arbitrate", _ZERO, Phase.ARBITRATING)

    def settle_arbitration(self, verdict: Verdict) -> None:
        if self.phase is not Phase.ARBITRATING:
            raise WrongPhaseError(f"no arbitration to settle in {self.phase.value}")
        self.last_verdict = verdict
        winner = self.buyer if verdict.winner is Party.BUYER else self.seller
        how = f"arbitration:{verdict.winner.value}"
        self._end(how, "contract", "settle", [(winner, self._payout)], self._wagered - self._payout)

    def run_arbitration(self, decide: Callable[["EscrowContract"], Verdict]) -> Verdict:
        """Convenience: begin, obtain a verdict, settle."""
        self.begin_arbitration()
        verdict = decide(self)
        self.settle_arbitration(verdict)
        return verdict

    # -- timeouts and endings ---------------------------------------------------------

    def on_timeout(self) -> None:
        """Charge the silent party the whole timeout and apply their default
        at zero fee."""
        default = _DEFAULTS.get(self.phase)
        if default is None:
            raise WrongPhaseError(f"no timeout default in phase {self.phase.value}")
        if self.policy is None:
            raise ContractError(f"contract {self.contract_id!r} has no timeout policy")
        silent, how, _ = default
        if silent == "owner":
            silent = "buyer" if self.seller_accepted else "seller"
        self.worst_lateness[getattr(self, silent)] = self.policy.timeout
        self._end_by_default("contract" if how == "abort" else "timeout", f"timeout_{how}")

    def _end_by_default(self, role: str, action: str) -> None:
        """End the contract by the current phase's default, which the mover
        plays or the timeout applies.  An abort repays the deposits whole,
        and first: nothing was misplayed before funding."""
        _, how, paid = _DEFAULTS[self.phase]
        pays = [(getattr(self, paid), self._wagered)]
        if how == "abort":
            pays = [*self.liveness_deposits.items(), *pays]
            self.liveness_deposits.clear()
        self._end(how, role, action, pays)

    def _end(self, how: str, role: str, action: str, pays: list, to_arbiter: Fraction = _ZERO) -> None:
        """The one way a contract ends: pay out of the pot in the order given,
        send the arbiter its share, repay the liveness deposits on the
        payback ramp (burning the shortfall), and close with one event.
        A zero amount makes no ledger call; no amount is negative."""
        ledger, cid = self.ledger, self.contract_id
        pot = ledger.pot_balance(cid)
        for party, amount in pays:
            if amount:
                ledger.escrow_release(cid, party, amount)
        if to_arbiter:
            ledger.pot_to_arbiter(cid, to_arbiter)
        for party, amount in self.liveness_deposits.items():
            back = deposit_payback(self.worst_lateness.get(party, 0), self.policy, amount)
            if back:
                ledger.escrow_release(cid, party, back)
            if back != amount:
                ledger.burn_from_pot(cid, amount - back)
        self._wagered = _ZERO
        self.liveness_deposits.clear()
        self.settled_how = how
        self._step(role, action, -pot, Phase.ABORTED if how == "abort" else Phase.SETTLED)


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
