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
the oracle's error bit, from one generator re-seeded to the trial's stream.
A pair that never reaches arbitration seeds no stream: its one episode gets
`rng=None`.  A class counts as disputed or arbitrated when the path to its
contract's `leaf` holds a dispute or a counter.  Payoffs,
rates, and means are exact rationals, so identical seeds give identical
statistics bit for bit.

The harness has no clock: it never advances the ledger's time, so no
timeout fires and every liveness deposit would come back whole.  It
therefore takes no `TimeoutPolicy`; liveness deposits and timeout defaults
are exercised by the contract tests and the `shared_ledger` workload.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from fractions import Fraction
from itertools import product
from random import Random
from typing import Iterable, Optional, Sequence

from .arbiter import _trial_errs, oracle_arbitrate
from .contract import EscrowContract, Phase, propose
from .equilibrium import SecurityReport, _csv_rows, _reports
from .gametree import Action, Party, leaf_path
from .ledger import Ledger
from .trade import AffineWager, Standard, TradeParams, WagerScheme, scaled, wager_class


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
    rng: Optional[Random],
) -> tuple[Fraction, Fraction, EscrowContract, Ledger]:
    """One full contract episode; returns both utilities plus the artifacts.

    `rng` feeds the oracle, the only draw an episode makes.  A pair that
    never reaches arbitration may pass `None`; a pair that does is refused
    `None` with `ValueError` before any ledger is built.
    """
    disputing, countering = _branch(seller_strategy, buyer_strategy)
    if disputing and countering and rng is None:
        raise ValueError("a pair that reaches arbitration needs an rng for the oracle")
    ledger = Ledger(tau=params.fee)
    # Enough for all either party can put in: the price, the wager and
    # three fee-bearing moves, summed in ints.
    (price, stake, fee), scale = scaled((params.price, scheme.loss_cost(params), params.fee))
    endow = Fraction(price + stake + 3 * fee, scale)
    ledger.open_account("buyer", endow)
    ledger.open_account("seller", endow)
    contract = propose(ledger, "trade", "buyer", "seller", params, scheme)
    contract.accept("seller")
    contract.fund("buyer")

    if seller_strategy.send:
        contract.notify_delivery("seller")

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
    # Each utility is one Fraction of an int sum over one scale.
    (buyer_cash, seller_cash, spent, value, cost), scale = scaled(
        (ledger.balance("buyer"), ledger.balance("seller"), endow, params.buyer_value, params.seller_value)
    )
    # An arbitration won by the seller keeps a delivered item from the buyer.
    has_item = contract.delivered and contract.settled_how != "arbitration:seller"
    buyer_utility = Fraction(buyer_cash - spent + has_item * value, scale)
    seller_utility = Fraction(seller_cash - spent - contract.delivered * cost, scale)
    return buyer_utility, seller_utility, contract, ledger


def simulate(
    params: TradeParams,
    scheme: WagerScheme,
    seller_strategy: SellerStrategy,
    buyer_strategy: BuyerStrategy,
    trials: int,
    seed: int,
) -> SimStats:
    """Repeated trades with one strategy pair, deterministic for a seed.

    Trial i draws from its own stream `Random(f"{seed}:{i}")`, and only when
    the pair reaches arbitration: the oracle's error bit picks the trial's
    outcome class.  The bits come from one generator re-seeded per trial
    (`arbiter._trial_errs`), and at a gamma of 0 or 1 none is drawn.  Each
    class that occurs is played out once by `run_trial`, on a fresh stream
    of its first trial, and its result counts once per trial in the class;
    a pair that never reaches arbitration plays its one episode with no
    stream at all.  The statistics are those of running every trial as its
    own episode.  A `trials` or `seed` that is not an `int` (a `bool`
    included) is refused with `ValueError` before any draw, since the equal
    seeds 1, 1.0 and True would name three different streams.
    """
    for name, value in (("trials", trials), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be a whole number, got {value!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    def episode(rng: Optional[Random]) -> tuple:
        buyer_utility, seller_utility, contract, ledger = run_trial(
            params, scheme, seller_strategy, buyer_strategy, rng
        )
        return buyer_utility, seller_utility, ledger.fee_sink, leaf_path(contract.leaf)

    disputing, countering = _branch(seller_strategy, buyer_strategy)
    if disputing and countering:
        erring, first = _trial_errs(params.arbiter_error, seed, trials)
        counts = {True: erring, False: trials - erring}
        tally = [(episode(Random(f"{seed}:{i}")), counts[errs]) for errs, i in first.items()]
    else:
        tally = [(episode(None), trials)]

    # Each class's utilities and fees as ints over one scale: every total
    # is an int sum, and each statistic one Fraction.
    ints, scale = scaled([amount for outcome, _ in tally for amount in outcome[:3]])
    buyer_total = seller_total = fees = disputes = arbitrations = 0
    for k, ((_, _, _, path), n) in enumerate(tally):
        buyer_utility, seller_utility, fee_sink = ints[3 * k : 3 * k + 3]
        buyer_total += n * buyer_utility
        seller_total += n * seller_utility
        fees += n * fee_sink
        disputes += n * ((Party.BUYER, Action.DISPUTE) in path)
        arbitrations += n * ((Party.SELLER, Action.COUNTER) in path)
    return SimStats(
        trials=trials,
        mean_buyer_payoff=Fraction(buyer_total, scale * trials),
        mean_seller_payoff=Fraction(seller_total, scale * trials),
        dispute_rate=Fraction(disputes, trials),
        arbitration_rate=Fraction(arbitrations, trials),
        fees_total=Fraction(fees, scale),
    )


def sweep(
    params: TradeParams,
    gammas: Iterable,
    wagers: Iterable,
    fees: Iterable = (0,),
    schemes: Sequence = (Standard.name,),
) -> list[SecurityReport]:
    """Security report at every grid point, one row per combination.

    Each point is `params` with its gamma and fee replaced, validated anew.
    Schemes are given by name (any spelling `trade.scheme_class` accepts) or
    class, and must have a single wager to sweep.  Each grid is read once,
    and each wager checked once (`AffineWager.checked`), not built as a scheme.
    The node margins are affine in the wager, so they are solved once per
    (scheme, gamma, fee) row and evaluated at each wager, in ints over the
    row's one scale (`equilibrium._reports`).
    """
    kinds = [wager_class(scheme) for scheme in schemes]
    gammas, fees = list(gammas), list(fees)
    stakes = [AffineWager.checked(wager) for wager in wagers]
    reports = []
    for kind in kinds:
        for gamma in gammas:
            for fee in fees:
                point = replace(params, arbiter_error=gamma, fee=fee)
                reports += _reports(point, kind.name, kind.slope, point.price, stakes)
    return reports


def sweep_csv(reports: Sequence[SecurityReport]) -> str:
    """The reports as CSV: a header, then one row per report, the values of
    `to_row` (`equilibrium._csv_rows`).  The cells are bare, so joined with
    ',' and CRLF they are the bytes of `csv.writer`'s excel dialect."""
    return "\r\n".join([",".join(SecurityReport.CSV_FIELDS), *map(",".join, _csv_rows(reports)), ""])
