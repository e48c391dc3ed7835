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

The n x n grids are only parsed, and their cells are scanned in C.  A bit
row that is a list of ints and bools is read whole into `bytes`; any other
bit row is read cell by cell.  A payment cell that is the int 0 object is
passed over by `itertools.compress`; only the other cells reach Python.  A
grid with other than n rows is refused.  A drawn coin grid is one
`getrandbits(32 * n * n)` call whose words each give their top bit, which
equals n * n `getrandbits(1)` calls: the same coins and the same final rng
state.  Settlement work is per trade: each buyer keeps the list of sellers
it pays, and each deposit and each payout is the exact sum of that step's
prices, added as integers over the least common multiple of their own
denominators, so a batch builds one `Fraction` per deposit and per payout,
not one per trade.

Purchases, dispute wagers and counter wagers follow one deposit rule: in
index order, each payer deposits the exact sum of its step's prices as one
fee-bearing move, or, if it cannot pay, has its whole step dropped to the
default (purchases cancelled, disputes accepted, counters forfeited).  A
batch that still cannot complete (a withdrawal fee it cannot pay, a party
with no account) raises, and `Ledger.transaction()`, its one rollback,
leaves the ledger as it was.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import is_not
from random import Random
from typing import Optional, Sequence

from .ledger import InsufficientFundsError, Ledger
from .trade import as_fraction, scaled

Matrix = tuple[tuple[Fraction, ...], ...]
BitMatrix = tuple[tuple[int, ...], ...]


#: The ledger pot every batch escrows into; it is empty between batches.
POT = "multiparty"

_ZERO = Fraction(0)

#: Byte -> its top bit; applied to the most significant byte of a 32-bit
#: word, the bit `getrandbits(1)` takes from that word.
_TOP_BIT = bytes(v >> 7 for v in range(256))


class MultipartyError(ValueError):
    pass


@dataclass(frozen=True)
class SettlementMatrix:
    """Inputs and outcome of one settlement batch.

    disputes/counters are the effective matrices after default conversion:
    counters[i][j] answers disputes[j][i], so it can only be set where that
    dispute exists.  payouts[i] is the gross withdrawal owed to party i.
    """

    payments: Matrix
    disputes: BitMatrix
    counters: BitMatrix
    coin: BitMatrix
    payouts: tuple[Fraction, ...]


def _sum(values: list[Fraction]) -> Fraction:
    """The exact sum of `values`: one integer sum over their common scale,
    then one `Fraction`."""
    ints, scale = scaled(values)
    return Fraction(sum(ints), scale)


def _bit_grid(n: int, steps: list[list[int]]) -> BitMatrix:
    """The effective bit grid: a 1 at (i, j) for each j in steps[i]."""
    rows = []
    for cols in steps:
        row = [0] * n
        for j in cols:
            row[j] = 1
        rows.append(tuple(row))
    return tuple(rows)


def _rows(n: int, rows, name: str, malformed: str) -> list:
    """The n rows of an n x n grid, in order.  A grid with any other number
    of rows is refused before its entries are read; one that cannot be
    indexed is refused as malformed."""
    try:
        out = [rows[i] for i in range(n)]
        if len(rows) == n:
            return out
    except IndexError:
        pass
    except (TypeError, ValueError, OverflowError):
        raise MultipartyError(malformed) from None
    raise MultipartyError(f"{name} must be {n}x{n}")


def _payment_grid(n: int, rows) -> tuple[list[list[Fraction]], list[list[int]]]:
    """The payment grid, parsed once: rows of exact rationals whose zeros are
    the shared `_ZERO`, and for each buyer the sellers it pays, in order."""
    malformed = "payments entries must be rationals >= 0"
    grid, sellers = [], []
    for entries in _rows(n, rows, "payments", malformed):
        try:
            if entries.__class__ is not list:  # indexed below, so a one-pass row is copied
                entries = list(entries)
            row, paid, negative = [_ZERO] * len(entries), [], False
            # The int 0 object, most cells, is passed over in C.
            for j in compress(range(len(entries)), map(is_not, entries, repeat(0))):
                v = entries[j]
                if v.__class__ is int and not v:  # an int zero that is another object
                    continue
                value = v if v.__class__ is Fraction else as_fraction(v)
                if value:
                    row[j] = value
                    paid.append(j)
                    if value.numerator < 0:
                        negative = True
        except (TypeError, ValueError):
            raise MultipartyError(malformed) from None
        if len(row) != n:
            raise MultipartyError(f"payments must be {n}x{n}")
        if negative:
            raise MultipartyError(malformed)
        grid.append(row)
        sellers.append(paid)
    if any(grid[i][i] for i in range(n)):
        raise MultipartyError("self-payments are not allowed")
    return grid, sellers


def _as_bits(n: int, rows, name: str) -> list[bytes]:
    """Rows of 0/1 bytes.  A list row of ints and bools is read in C; any
    other row cell by cell, where a string is parsed and a number must be
    whole."""
    malformed = f"{name} entries must be 0 or 1"
    out = []
    for entries in _rows(n, rows, name, malformed):
        if entries.__class__ is list:
            try:
                bits = bytes(entries)  # refuses floats, Fractions, complex numbers and strings
            except (TypeError, ValueError):
                pass
            else:
                if len(bits) == n and bits.count(0) + bits.count(1) == n:
                    out.append(bits)
                    continue
        try:
            if entries.__class__ is not list:  # read twice below, so a one-pass row is copied
                entries = list(entries)
            row = list(map(int, entries))
        except (TypeError, ValueError, OverflowError):
            raise MultipartyError(malformed) from None
        if len(row) != n:
            raise MultipartyError(f"{name} must be {n}x{n}")
        if not set(row) <= {0, 1} or (
            row != entries and any(b != v for b, v in zip(row, entries) if not isinstance(v, str))
        ):
            raise MultipartyError(malformed)
        out.append(bytes(row))
    return out


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
    x, sellers = _payment_grid(n, payments)
    d = _as_bits(n, disputes, "disputes")
    c = _as_bits(n, counters, "counters")
    if coin_matrix is None:
        if rng is None:
            raise MultipartyError("need an rng or an explicit coin matrix")
        # One draw of n*n 32-bit words; each coin is the top bit of its own
        # word, so the coins and the rng's final state are those of n*n
        # getrandbits(1) calls.
        words = rng.getrandbits(32 * n * n).to_bytes(4 * n * n, "little")
        coins = words[3::4].translate(_TOP_BIT)
        b = [coins[k:k + n] for k in range(0, n * n, n)]
    else:
        b = _as_bits(n, coin_matrix, "coin")

    def deposit(steps: list[list[int]], by_seller: bool = False) -> list[list[int]]:
        """The one deposit rule (see the module docstring) over steps[i],
        payer i's trades in this step: the sellers it pays, or, `by_seller`,
        the buyers whose disputes it counters.  Returns the funded steps."""
        for i, cols in enumerate(steps):
            if cols:
                prices = [x[j][i] for j in cols] if by_seller else [x[i][j] for j in cols]
                try:
                    ledger.escrow_deposit(parties[i], POT, _sum(prices), contract_move=True)
                except InsufficientFundsError:
                    steps[i] = []
        return steps

    with ledger.transaction():
        # Purchases: a buyer that cannot pay has every purchase cancelled.
        sellers = deposit(sellers)
        # Dispute wagers (the trade's price): an unfunded dispute is accepted.
        disputed = deposit([[j for j in paid if d[i][j]] for i, paid in enumerate(sellers)])
        # Counter wagers (the disputed trade's price): an unfunded counter forfeits.
        disputers = [[] for _ in range(n)]  # per seller, the buyers disputing it
        for i, cols in enumerate(disputed):
            for j in cols:
                disputers[j].append(i)
        countered = deposit([[j for j in buyers if c[i][j]] for i, buyers in enumerate(disputers)], by_seller=True)
        d, c = _bit_grid(n, disputed), _bit_grid(n, countered)

        # Settle every trade as its own two-party outcome; each party's
        # credits are summed once, into its payout.
        credits = [[] for _ in range(n)]
        for i, paid in enumerate(sellers):  # buyer i, seller j
            for j in paid:
                price = x[i][j]
                if not d[i][j]:
                    credits[j].append(price)
                elif not c[j][i]:
                    credits[i] += (price, price)  # price and wager back
                else:  # the coin's winner gets price and wager, the loser's wager pays the arbiter
                    credits[j if b[i][j] else i] += (price, price)
                    ledger.pot_to_arbiter(POT, price)
        payouts = [_sum(owed) for owed in credits]

        for i, party in enumerate(parties):
            if payouts[i].numerator > 0:
                ledger.escrow_release(POT, party, payouts[i], contract_move=True)

    return SettlementMatrix(
        payments=tuple(tuple(row) if paid else (_ZERO,) * n for row, paid in zip(x, sellers)),
        disputes=d,
        counters=c,
        coin=tuple(tuple(row) for row in b),
        payouts=tuple(payouts),
    )

