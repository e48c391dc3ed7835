"""Multiparty settlement: any number of pairwise trades, O(n) fee events.

n parties trade pairwise (payments[i][j] is what party i pays party j), then
settle every trade in one batch instead of n^2 separate contracts.  Each
party makes at most three deposits (payments, dispute wagers, counter wagers)
and receives at most one withdrawal, so fee-bearing ledger interactions stay
at four per party however many trades they entered.

Settlement is the composition of independent two-party contracts: each
disputed trade resolves exactly as the two-party coin-toss contract with the
wager set to that trade's price, using one coin matrix entry per trade.  The
loser's wager compensates the arbiter, as in the standard two-party scheme.

A party that cannot fund a step has that step's moves converted to defaults:
unfunded purchases are cancelled, unfunded disputes become acceptance,
unfunded counters become forfeits.  A batch that still cannot complete
(a party cannot pay the fee on its withdrawal) raises and leaves the ledger
as it was.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterator, Optional, Sequence

from .ledger import InsufficientFundsError, Ledger
from .trade import as_fraction

Matrix = tuple[tuple[Fraction, ...], ...]
BitMatrix = tuple[tuple[int, ...], ...]


#: The ledger pot every batch escrows into; it is empty between batches.
POT = "multiparty"


class MultipartyError(ValueError):
    pass


@dataclass(frozen=True)
class SettlementMatrix:
    """Inputs and outcome of one settlement batch.

    disputes/counters are the effective matrices after default conversion:
    counters[i][j] answers disputes[j][i], so it can only be set where that
    dispute exists.  payouts[i] is the gross withdrawal owed to party i.
    """

    parties: tuple[str, ...]
    payments: Matrix
    disputes: BitMatrix
    counters: BitMatrix
    coin: BitMatrix
    payouts: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        n = len(self.parties)
        for name, m in (
            ("payments", self.payments),
            ("disputes", self.disputes),
            ("counters", self.counters),
            ("coin", self.coin),
        ):
            if len(m) != n or any(len(row) != n for row in m):
                raise MultipartyError(f"{name} must be {n}x{n}")
        for i in range(n):
            if self.payments[i][i] != 0:
                raise MultipartyError("self-payments are not allowed")
            if self.disputes[i][i] or self.counters[i][i]:
                raise MultipartyError("self-disputes are not allowed")
            for j in range(n):
                if self.counters[i][j] and not self.disputes[j][i]:
                    raise MultipartyError(
                        f"counter ({i},{j}) answers no dispute"
                    )


def _as_matrix(n: int, rows, name: str, entry, valid, rule: str) -> list[list]:
    """An n x n matrix whose entries parse with `entry` and whose rows pass `valid`."""
    out = []
    for i in range(n):
        try:
            row = [entry(v) for v in rows[i]]
        except (TypeError, ValueError):
            raise MultipartyError(f"{name} entries must be {rule}") from None
        if len(row) != n:
            raise MultipartyError(f"{name} must be {n}x{n}")
        if not valid(row):
            raise MultipartyError(f"{name} entries must be {rule}")
        out.append(row)
    return out


def _as_bits(n: int, rows, name: str) -> list[list[int]]:
    return _as_matrix(n, rows, name, int, lambda row: set(row) <= {0, 1}, "0 or 1")


@contextmanager
def _all_or_nothing(ledger: Ledger, parties: tuple[str, ...]) -> Iterator[None]:
    """Put the parties' balances and move counts, the batch pot and the sinks
    back as they were if the block raises."""
    balances = {p: ledger.balances[p] for p in parties if p in ledger.balances}
    moves = {p: ledger.move_counts[p] for p in parties if p in ledger.move_counts}
    pot, fee_sink, arbiter_sink = ledger.pots.get(POT), ledger.fee_sink, ledger.arbiter_sink
    try:
        yield
    except BaseException:
        ledger.balances.update(balances)
        for p in parties:
            ledger.move_counts.pop(p, None)
        ledger.move_counts.update(moves)
        ledger.pots.pop(POT, None)
        if pot is not None:
            ledger.pots[POT] = pot
        ledger.fee_sink, ledger.arbiter_sink = fee_sink, arbiter_sink
        raise


def multiparty_run(
    ledger: Ledger,
    parties: Sequence[str],
    payments,
    disputes,
    counters,
    rng: Optional[Random] = None,
    coin_matrix=None,
) -> SettlementMatrix:
    """Run one settlement batch against the ledger.

    disputes[i][j] says party i disputes the item bought from j; counters are
    masked to existing disputes.  The coin matrix is sampled from rng unless
    supplied explicitly (entry [i][j] settles the trade i bought from j, the
    seller winning on 1).  The batch escrows into the ledger pot `POT`.
    """
    parties = tuple(parties)
    n = len(parties)
    if n < 2:
        raise MultipartyError("need at least two parties")
    if len(set(parties)) != n:
        raise MultipartyError("party names must be distinct")
    x = _as_matrix(
        n, payments, "payments", as_fraction, lambda row: min(row, default=0) >= 0, "rationals >= 0"
    )
    if any(x[i][i] for i in range(n)):
        raise MultipartyError("self-payments are not allowed")
    d = _as_bits(n, disputes, "disputes")
    c = _as_bits(n, counters, "counters")
    if coin_matrix is None:
        if rng is None:
            raise MultipartyError("need an rng or an explicit coin matrix")
        b = [[rng.getrandbits(1) for _ in range(n)] for _ in range(n)]
    else:
        b = _as_bits(n, coin_matrix, "coin")

    def unfunded(i: int, total: Fraction) -> bool:
        """Escrow party i's total for one step as a single fee-bearing
        deposit; true if the party cannot pay it."""
        if total == 0:
            return False
        try:
            ledger.escrow_deposit(parties[i], POT, total, contract_move=True)
        except InsufficientFundsError:
            return True
        return False

    with _all_or_nothing(ledger, parties):
        # Purchase deposits; a row that cannot pay is cancelled outright.
        for i in range(n):
            if unfunded(i, sum(x[i], Fraction(0))):
                x[i] = [Fraction(0)] * n

        # Dispute wagers (the trade's price); unfunded disputes default to accept.
        for i in range(n):
            d[i] = [d[i][j] if x[i][j] > 0 else 0 for j in range(n)]
            if unfunded(i, sum((x[i][j] for j in range(n) if d[i][j]), Fraction(0))):
                d[i] = [0] * n

        # Counter wagers (the disputed trade's price); unfunded counters forfeit.
        for i in range(n):
            c[i] = [c[i][j] if d[j][i] else 0 for j in range(n)]
            if unfunded(i, sum((x[j][i] for j in range(n) if c[i][j]), Fraction(0))):
                c[i] = [0] * n

        # Settle every trade as its own two-party outcome.
        payouts = [Fraction(0)] * n
        for i in range(n):  # buyer
            for j in range(n):  # seller
                price = x[i][j]
                if price == 0:
                    continue
                if not d[i][j]:
                    payouts[j] += price
                elif not c[j][i]:
                    payouts[i] += 2 * price  # price and wager back
                else:  # the coin's winner gets price and wager, the loser's wager pays the arbiter
                    payouts[j if b[i][j] else i] += 2 * price
                    ledger.pot_to_arbiter(POT, price)

        for i, party in enumerate(parties):
            if payouts[i] > 0:
                ledger.escrow_release(POT, party, payouts[i], contract_move=True)

    return SettlementMatrix(
        parties=parties,
        payments=tuple(tuple(row) for row in x),
        disputes=tuple(tuple(row) for row in d),
        counters=tuple(tuple(row) for row in c),
        coin=tuple(tuple(row) for row in b),
        payouts=tuple(payouts),
    )

