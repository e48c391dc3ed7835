"""Scripted agents, a trial harness, and security-region sweeps.

A strategy fixes one pure action at every point its role can move, which is
exactly the game tree's strategy space per role.  The harness runs whole
contract episodes on a fresh ledger with the biased oracle as arbiter,
measuring realized utilities:

* buyer utility  = cash delta + item value if the item arrived and the buyer
  did not lose an arbitration over it (a lost dispute forfeits the claim),
* seller utility = cash delta - production cost when the item was shipped.

For a fixed strategy pair an episode depends only on its outcome class: no
arbitration, or an arbitration the honest party wins or loses.  `simulate`
therefore runs one episode per class that occurs and draws, per trial, only
the oracle's error bit.  Payoffs, rates, and means are exact rationals, so
identical seeds give identical statistics bit for bit.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import product
from random import Random
from typing import Iterable, Optional, Sequence

from .arbiter import arbiter_errs, oracle_arbitrate
from .contract import EscrowContract, Phase, propose
from .equilibrium import SecurityReport, _report, _wager_forms
from .gametree import Party
from .ledger import Ledger, TimeoutPolicy
from .trade import Standard, TradeParams, WagerScheme, wager_class


@dataclass(frozen=True)
class SellerStrategy:
    send: bool
    counter_if_delivered: bool
    counter_if_undelivered: bool

    @classmethod
    def honest(cls) -> "SellerStrategy":
        return cls(send=True, counter_if_delivered=True, counter_if_undelivered=False)


@dataclass(frozen=True)
class BuyerStrategy:
    dispute_if_delivered: bool
    dispute_if_undelivered: bool

    @classmethod
    def honest(cls) -> "BuyerStrategy":
        return cls(dispute_if_delivered=False, dispute_if_undelivered=True)


def all_seller_strategies() -> list[SellerStrategy]:
    return [SellerStrategy(*choices) for choices in product((True, False), repeat=3)]


def all_buyer_strategies() -> list[BuyerStrategy]:
    return [BuyerStrategy(*choices) for choices in product((True, False), repeat=2)]


@dataclass(frozen=True)
class SimStats:
    trials: int
    mean_buyer_payoff: Fraction
    mean_seller_payoff: Fraction
    dispute_rate: Fraction
    arbitration_rate: Fraction
    fees_total: Fraction

    def to_row(self) -> dict[str, str]:
        return {f.name: str(getattr(self, f.name)) for f in fields(self)}


def _branch(seller_strategy: SellerStrategy, buyer_strategy: BuyerStrategy) -> tuple[bool, bool]:
    """(buyer disputes, seller counters) on the branch the pair plays."""
    if seller_strategy.send:
        return buyer_strategy.dispute_if_delivered, seller_strategy.counter_if_delivered
    return buyer_strategy.dispute_if_undelivered, seller_strategy.counter_if_undelivered


def run_trial(
    params: TradeParams,
    scheme: WagerScheme,
    seller_strategy: SellerStrategy,
    buyer_strategy: BuyerStrategy,
    rng: Random,
    policy: Optional[TimeoutPolicy] = None,
) -> tuple[Fraction, Fraction, EscrowContract, Ledger]:
    """One full contract episode; returns both utilities plus the artifacts."""
    ledger = Ledger(tau=params.fee)
    contract = propose(ledger, "trade", "buyer", "seller", params, scheme, policy)
    # Enough for all either party can put in: the price, the wager, the
    # liveness deposit and three fee-bearing moves.
    endow = params.price + contract.stake + contract.liveness_deposit + 3 * params.fee
    ledger.open_account("buyer", endow)
    ledger.open_account("seller", endow)
    contract.accept("seller")
    contract.fund("buyer")

    if seller_strategy.send:
        contract.notify_delivery("seller")
    disputing, countering = _branch(seller_strategy, buyer_strategy)

    if not disputing:
        contract.accept_delivery("buyer")
    else:
        contract.dispute("buyer")
        if not countering:
            contract.forfeit("seller")
        else:
            contract.counter("seller")
            honest = Party.SELLER if contract.delivered else Party.BUYER
            contract.run_arbitration(
                lambda c: oracle_arbitrate(honest, params.arbiter_error, rng)
            )

    assert contract.phase is Phase.SETTLED
    # Read only for a delivered item: an arbitration won by the seller keeps it from the buyer.
    buyer_lost_item = contract.last_verdict is not None and contract.last_verdict.winner is Party.SELLER
    buyer_utility = ledger.balance("buyer") - endow
    if contract.delivered and not buyer_lost_item:
        buyer_utility += params.buyer_value
    seller_utility = ledger.balance("seller") - endow
    if contract.delivered:
        seller_utility -= params.seller_value
    return buyer_utility, seller_utility, contract, ledger


def simulate(
    params: TradeParams,
    scheme: WagerScheme,
    seller_strategy: SellerStrategy,
    buyer_strategy: BuyerStrategy,
    trials: int,
    seed: int,
    policy: Optional[TimeoutPolicy] = None,
) -> SimStats:
    """Repeated trades with one strategy pair, deterministic for a seed.

    Trial i draws from its own stream `Random(f"{seed}:{i}")`, and only when
    the pair reaches arbitration: the oracle's error bit picks the trial's
    outcome class.  Each class that occurs is played out once by
    `run_trial`, on the stream of its first trial, and its result counts
    once per trial in the class.  The statistics are those of running every
    trial as its own episode.
    """
    if not isinstance(trials, int) or isinstance(trials, bool):
        raise ValueError(f"trials must be a whole number, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    def episode(i: int) -> tuple:
        buyer_utility, seller_utility, contract, ledger = run_trial(
            params, scheme, seller_strategy, buyer_strategy, Random(f"{seed}:{i}"), policy
        )
        disputed = contract.settled_how != "accept"
        arbitrated = contract.last_verdict is not None
        return buyer_utility, seller_utility, disputed, arbitrated, ledger.fee_sink

    disputing, countering = _branch(seller_strategy, buyer_strategy)
    if disputing and countering:
        first: dict[bool, int] = {}  # oracle erred -> first trial of the class
        counts: Counter[bool] = Counter()
        for i in range(trials):
            errs = arbiter_errs(params.arbiter_error, Random(f"{seed}:{i}"))
            first.setdefault(errs, i)
            counts[errs] += 1
        tally = [(episode(first[errs]), n) for errs, n in counts.items()]
    else:
        tally = [(episode(0), trials)]

    buyer_total = seller_total = fees = Fraction(0)
    disputes = arbitrations = 0
    for (buyer_utility, seller_utility, disputed, arbitrated, fee_sink), n in tally:
        buyer_total += n * buyer_utility
        seller_total += n * seller_utility
        disputes += n * disputed
        arbitrations += n * arbitrated
        fees += n * fee_sink
    return SimStats(
        trials=trials,
        mean_buyer_payoff=buyer_total / trials,
        mean_seller_payoff=seller_total / trials,
        dispute_rate=Fraction(disputes, trials),
        arbitration_rate=Fraction(arbitrations, trials),
        fees_total=fees,
    )


def sweep(
    price,
    seller_value,
    buyer_value,
    gammas: Iterable,
    wagers: Iterable,
    fees: Iterable = (0,),
    schemes: Sequence = (Standard.name,),
) -> list[SecurityReport]:
    """Security report at every grid point, one row per combination.

    Schemes are given by name (any spelling `trade.scheme_class` accepts) or
    class, and must have a single wager to sweep.  Each grid is read once.
    The node margins are affine in the wager, so they are solved once per
    (scheme, gamma, fee) row and evaluated at each wager.
    """
    gammas, wagers, fees = list(gammas), list(wagers), list(fees)
    reports = []
    for scheme in schemes:
        kind = wager_class(scheme)
        stakes = [kind(wager).wager for wager in wagers]
        for gamma in gammas:
            for fee in fees:
                params = TradeParams(
                    price=price,
                    seller_value=seller_value,
                    buyer_value=buyer_value,
                    arbiter_error=gamma,
                    fee=fee,
                )
                rows, forms = _wager_forms(params, kind.slope)
                for stake in stakes:
                    margins = [constant + coeff * stake for constant, coeff in forms]
                    reports.append(_report(params, stake, kind.name, rows, margins))
    return reports


def sweep_csv(reports: Sequence[SecurityReport]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=SecurityReport.CSV_FIELDS)
    writer.writeheader()
    for report in reports:
        writer.writerow(report.to_row())
    return out.getvalue()
