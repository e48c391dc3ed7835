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
ending goes through one routine, `_end`, which splits the pot as the
ending's row of `_SPLITS` says and records in `leaf` the `gametree.Leaf`
that row names for `delivered` (None while open and after an abort).
Every pay-in goes through `_pay_in`, the one routine that keeps the
wagered total.  Each move logs one record in `events`: the tuple (ledger
time, `Phase` after the move, the mover's role, action, the `Fraction`
paid into the pot, negative paid out).

With a TimeoutPolicy attached, each party posts a liveness deposit when they
enter the contract (the wager size unless the policy fixes one).  At
settlement a party is repaid the payback ramp (`ledger._repaid`, the one
ramp rule) at their slowest response; the shortfall is burned.  A party
whose timeout fired gets nothing back.  An abort reads the ramp at
lateness 0, repaying the deposits whole: nothing was misplayed before
funding.  The books (price, wager, deposit, payout, pot) are ints over
one scale fixed at proposal, and every ledger call passes its amount as an
int over that scale (times the ramp's span for a deposit's share); a
`Fraction` is built only for an event record and a nonzero `pot_total()`.
Entering a timed phase re-arms the deadline with one registration, which
replaces the last; entering an untimed one cancels it.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable, Optional

from .arbiter import Verdict, _decide
from .gametree import Leaf
from .ledger import _ZERO, Ledger, LedgerError, TimeoutPolicy, _repaid
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

    __hash__ = object.__hash__  # identity hashing in C, as in `gametree`'s enums


#: The timed phases and their defaults: the role whose silence the timeout
#: charges, and how the contract then ends.  "owner" is whoever owes the
#: next move: the seller until they accept, then the buyer.
_DEFAULTS = {
    Phase.PROPOSED: ("owner", "abort"),
    Phase.FUNDED: ("buyer", "accept"),
    Phase.DELIVERED_NOTIFIED: ("buyer", "accept"),
    Phase.DISPUTED: ("seller", "forfeit"),
}

#: Each ending, as `settled_how` names it: its split of the pot less the
#: liveness deposits (the role paid, and whether that role gets only the
#: arbitration payout, the arbiter taking the rest), and the leaves it
#: reaches without and with delivery, indexed by `delivered`.  An abort pays
#: nothing and reaches no leaf.
_SPLITS = {
    "accept": ("seller", False, (Leaf.NOSEND_ACCEPT, Leaf.SEND_ACCEPT)),
    "forfeit": ("buyer", False, (Leaf.NOSEND_DISPUTE_FORFEIT, Leaf.SEND_DISPUTE_FORFEIT)),
    "abort": ("buyer", False, None),
    "arbitration:buyer": ("buyer", True, (Leaf.NOSEND_DISPUTE_COUNTER, Leaf.SEND_DISPUTE_COUNTER)),
    "arbitration:seller": ("seller", True, (Leaf.NOSEND_DISPUTE_COUNTER, Leaf.SEND_DISPUTE_COUNTER)),
}


class EscrowContract:
    """One trade's contract; `events` holds a (time, phase, role, action, pot_delta) tuple per move.
    `stake`, `liveness_deposit`, `liveness_deposits` and `pot_total()` read as `Fraction`s."""

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
        ledger.require_account(buyer)
        ledger.require_account(seller)
        stake = scheme.loss_cost(params)
        deposit = _ZERO if policy is None else stake if policy.deposit is None else policy.deposit
        # The books over one scale, and the subsidy check in them.
        (win, price, wager, each), scale = scaled((scheme.win_gain(params), params.price, stake, deposit))
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
        # Fixed once: the wager and the liveness deposit, and the books as
        # (the arbitration winner's gross payout, price, wager, deposit, scale).
        self.stake = stake
        self.liveness_deposit = deposit
        self._books = (win + wager, price, wager, each, scale)

        self.seller_accepted = False
        self.delivered = False
        self.last_verdict: Optional[Verdict] = None
        self.settled_how: Optional[str] = None
        self.leaf: Optional[Leaf] = None

        # The pot: the payment and the wagers, an int over the scale, and
        # one `liveness_deposit` per party who has entered.
        self._wagered = 0
        self.liveness_deposits: dict[str, Fraction] = {}
        self.worst_lateness: dict[str, int] = {}

        self.events: list[tuple] = []
        self._step("buyer", "propose", _ZERO, Phase.PROPOSED)

    # -- plumbing ------------------------------------------------------------

    def _pot(self) -> int:
        return self._wagered + self._books[3] * len(self.liveness_deposits)

    def pot_total(self) -> Fraction:
        pot = self._pot()
        return Fraction(pot, self._books[4]) if pot else _ZERO

    def _step(self, role: str, action: str, pot_delta: Fraction, phase: Optional[Phase] = None) -> None:
        """Append the move's record (time, phase, role, action, pot_delta),
        entering `phase` first if given: the deadline is re-armed when the
        new phase is timed, by the one registration that replaces the last,
        and cancelled if not."""
        if phase is not None:
            self.phase = phase
            self.phase_entered_at = self.ledger.time
            if self.policy is not None and phase in _DEFAULTS:
                self.ledger.register_timeout(
                    self.contract_id, self.ledger.time + self.policy.timeout, self.on_timeout
                )
            else:
                self.ledger.cancel_timeout(self.contract_id)
        self.events.append((self.ledger.time, self.phase, role, action, pot_delta))

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

    def _pay_in(self, role: str, action: str, amount: int, pot_delta: Fraction, phase: Optional[Phase] = None) -> None:
        """A fee-bearing move by `role` paying `amount`, an int over the
        books' scale, into the pot; `pot_delta` is the same amount as the
        event records it.  Made while the contract is proposed, it is the
        party's entry, and `amount` includes their liveness deposit.  The
        response time and the deposit are recorded only once the ledger has
        taken the money.  All of `amount` but an entry's deposit is wagered."""
        party = getattr(self, role)
        _, _, _, deposit, scale = self._books
        self.ledger.escrow_deposit(party, self.contract_id, amount, scale=scale)
        self._mark_response(party)
        if self.phase is Phase.PROPOSED and deposit:
            self.liveness_deposits[party] = self.liveness_deposit
            amount -= deposit
        self._wagered += amount
        self._step(role, action, pot_delta, phase)

    # -- party moves -----------------------------------------------------------

    def accept(self, actor: str) -> None:
        """Seller commits to the trade (fee-bearing), posting the liveness
        deposit, if any, in the same ledger move."""
        self._require(actor, self.seller, Phase.PROPOSED)
        if self.seller_accepted:
            raise WrongPhaseError("already accepted")
        self._pay_in("seller", "accept", self._books[3], self.liveness_deposit)
        self.seller_accepted = True

    def fund(self, actor: str) -> None:
        """Buyer escrows the price and enters the contract (fee-bearing)."""
        self._require(actor, self.buyer, Phase.PROPOSED)
        if not self.seller_accepted:
            raise WrongPhaseError("seller has not accepted yet")
        _, price, _, deposit, scale = self._books
        self._pay_in("buyer", "fund", price + deposit, Fraction(price + deposit, scale), Phase.FUNDED)

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
        self._pay_in("buyer", "dispute", self._books[2], self.stake, Phase.DISPUTED)

    def counter(self, actor: str) -> None:
        """Seller matches the wager to contest the dispute (fee-bearing)."""
        self._require(actor, self.seller, Phase.DISPUTED)
        self._pay_in("seller", "counter", self._books[2], self.stake, Phase.COUNTERED)

    def forfeit(self, actor: str) -> None:
        """Seller concedes the dispute; free, being the timeout default."""
        self._require(actor, self.seller, Phase.DISPUTED)
        self._mark_response(actor)
        self._end("forfeit", "seller", "forfeit")

    def accept_delivery(self, actor: str) -> None:
        """Buyer closes the trade as received; free, being the timeout default."""
        self._require(actor, self.buyer, Phase.FUNDED, Phase.DELIVERED_NOTIFIED)
        self._mark_response(actor)
        self._end("accept", "buyer", "accept_delivery")

    # -- arbitration -------------------------------------------------------------

    def begin_arbitration(self) -> None:
        if self.phase is not Phase.COUNTERED:
            raise WrongPhaseError(f"cannot arbitrate from {self.phase.value}")
        self._step("contract", "arbitrate", _ZERO, Phase.ARBITRATING)

    def settle_arbitration(self, verdict: Verdict) -> None:
        """Pay out by `verdict`, refused with `ContractError` before anything
        changes unless its winner and basis are what its transcript replays to."""
        if self.phase is not Phase.ARBITRATING:
            raise WrongPhaseError(f"no arbitration to settle in {self.phase.value}")
        try:
            replays = _decide(verdict.transcript) == (verdict.winner, verdict.basis)
        except (AttributeError, ValueError):  # no transcript, or one replay refuses
            replays = False
        if not replays:
            raise ContractError(f"a verdict's winner must be a Party and, with its basis, its transcript's; got {verdict!r}")
        self.last_verdict = verdict
        self._end(f"arbitration:{verdict.winner.value}", "contract", "settle")

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
        silent, how = default
        if silent == "owner":
            silent = "buyer" if self.seller_accepted else "seller"
        self.worst_lateness[getattr(self, silent)] = self.policy.timeout
        self._end(how, "contract" if how == "abort" else "timeout", f"timeout_{how}")

    def _end(self, how: str, role: str, action: str) -> None:
        """The one way a contract ends: pay out the pot as `_SPLITS[how]`
        splits it, repay the liveness deposits on the payback ramp (read at
        lateness 0 for an abort), burn the shortfall, record the leaf, and
        close with one event.  No amount is negative; a zero one makes no call."""
        ledger, cid = self.ledger, self.contract_id
        payout, _, _, deposit, scale = self._books
        wagered, deposits = self._wagered, self.liveness_deposits
        pot = self._pot()
        paid, arbitrated, leaves = _SPLITS[how]
        amount = payout if arbitrated else wagered
        if amount:
            ledger.escrow_release(cid, getattr(self, paid), amount, scale=scale)
        if amount != wagered:
            ledger.pot_to_arbiter(cid, wagered - amount, scale=scale)
        aborted = leaves is None
        for party in deposits:
            share, whole = _repaid(0 if aborted else self.worst_lateness.get(party, 0), self.policy)
            if share:
                ledger.escrow_release(cid, party, deposit * share, scale=scale * whole)
            if share != whole:
                ledger.burn_from_pot(cid, deposit * (whole - share), scale=scale * whole)
        self._wagered = 0
        deposits.clear()
        self.settled_how = how
        self.leaf = None if aborted else leaves[self.delivered]
        self._step(role, action, Fraction(-pot, scale), Phase.ABORTED if aborted else Phase.SETTLED)


def propose(
    ledger: Ledger,
    contract_id: str,
    buyer: str,
    seller: str,
    params: TradeParams,
    scheme: WagerScheme,
    policy: Optional[TimeoutPolicy] = None,
) -> EscrowContract:
    """Open a contract proposal between two funded ledger accounts; a party
    with no account is refused with `UnknownAccountError` before the pot opens."""
    return EscrowContract(ledger, contract_id, buyer, seller, params, scheme, policy)
