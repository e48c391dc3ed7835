"""Multiparty settlement: any number of pairwise trades, O(n) fee events.

n parties trade pairwise (payments[i][j] is what party i pays party j), then
settle every trade in one batch instead of n^2 separate contracts.  Each
party makes at most three deposits (payments, dispute wagers, counter wagers)
and receives at most one withdrawal, so fee-bearing ledger interactions stay
at four per party however many trades they entered.

Settlement is the composition of independent two-party contracts: each
trade settles as a two-party contract would at stake = price under the
standard scheme, the endings `contract._SPLITS` names.  `multiparty_run`
does not read that table: three branches of its own settle each trade.
An accepted trade pays the seller the price, a forfeited one repays the
buyer price and wager, and a countered dispute is the buyer's or the
seller's by its coin matrix entry: the winner is repaid price and wager,
and the loser's wager pays the arbiter.

The batch reads ordered input by one rule: `parties`, each grid and each
grid row must be a `list` or a `tuple`, and anything else (a `str`, a
mapping, a set, a one-pass iterator) is refused before any entry is read.
A grid with other than n rows is refused too.  The n x n grids are only
parsed, and their cells are scanned in C.  A bit row of ints and bools is
read whole into `bytes`; any other bit row is read cell by cell.  A payment
cell that is the int 0 object is passed over by `itertools.compress`; only
the other cells reach Python.  A drawn coin grid is one
`getrandbits(32 * n * n)` call whose words each give their top bit, which
equals n * n `getrandbits(1)` calls: the same coins and the same final rng
state.  Settlement work is per trade: each buyer keeps the list of sellers
it pays.  The parse splits each traded price into (p, q) once and puts it
as an int over one batch scale, the least common multiple of the traded
prices' denominators.  Each deposit and each payout is an int sum over that
scale, and every ledger call passes its int with that scale (a deposit its
step's total, an arbiter payout its trade's price, a withdrawal its
party's credit), so a batch builds a `Fraction` only for each returned
payout.

Four passes stay O(n^2): the payment scan, the two bit-grid reads, the n^2
coin draw (or the coin grid's read) and the four returned grids; every
other pass is per trade.  The effective dispute and counter grids come
from the funded steps alone (`_bit_grid`): each row is scattered from its
step's columns, and every empty step shares one all-zero row.  Every buyer
with no funded purchase shares one all-zero payment row, and every zero
payout is the one shared `Fraction(0)`.  Each shared row was measured to
pay for itself.  Drawing one coin per countered trade and settling a
sparse list of trades would remove the rest.

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
from math import lcm
from operator import is_not
from random import Random
from typing import Optional

from .ledger import _ZERO, InsufficientFundsError, Ledger
from .trade import as_fraction

Matrix = tuple[tuple[Fraction, ...], ...]
BitMatrix = tuple[tuple[int, ...], ...]


#: The ledger pot every batch escrows into; it is empty between batches.
POT = "multiparty"

#: Byte -> its top bit; applied to the most significant byte of a 32-bit
#: word, the bit `getrandbits(1)` takes from that word.
_TOP_BIT = bytes(v >> 7 for v in range(256))

#: The kinds of ordered input a batch reads: its parties, grids and rows.
_ORDERED = (list, tuple)


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


def _bit_grid(n: int, steps: list[list[int]]) -> BitMatrix:
    """The effective bit grid: a 1 at (i, j) for each j in steps[i], built
    from the funded steps alone.  Every empty step shares one all-zero row;
    each other row is scattered from its step's columns."""
    zeros = (0,) * n
    rows = []
    for cols in steps:
        if not cols:
            rows.append(zeros)
        else:
            row = [0] * n
            for j in cols:
                row[j] = 1
            rows.append(tuple(row))
    return tuple(rows)


def _rows(n: int, rows, name: str, malformed: str) -> list | tuple:
    """The n rows of an n x n grid, in order.  A grid that is not a list or
    a tuple is refused as malformed, then one with any other number of rows,
    then one with a row that is not a list or a tuple, before any entry is
    read."""
    if not isinstance(rows, _ORDERED):
        raise MultipartyError(malformed)
    if len(rows) != n:
        raise MultipartyError(f"{name} must be {n}x{n}")
    if not all(isinstance(row, _ORDERED) for row in rows):
        raise MultipartyError(malformed)
    return rows


def _payment_grid(n: int, rows) -> tuple[list[list[Fraction]], list[list[int]], list[list[int]], int]:
    """The payment grid, parsed once: rows of exact rationals whose zeros are
    the shared `_ZERO`; for each buyer the sellers it pays, in order; and the
    same rows as ints over one batch scale, with that scale, the least common
    multiple of the traded prices' denominators."""
    malformed = "payments entries must be rationals >= 0"
    grid, sellers, ints, denominators = [], [], [], []
    for entries in _rows(n, rows, "payments", malformed):
        try:
            row, nums, paid, dens, negative = [_ZERO] * len(entries), [0] * len(entries), [], [], False
            # The int 0 object, most cells, is passed over in C; any other
            # zero is skipped on its numerator below.
            for j in compress(range(len(entries)), map(is_not, entries, repeat(0))):
                v = entries[j]
                value = v if v.__class__ is Fraction else as_fraction(v)
                p, q = value.as_integer_ratio()  # the one split of this price
                if p:
                    row[j], nums[j] = value, p
                    paid.append(j)
                    dens.append(q)
                    if p < 0:
                        negative = True
        except (TypeError, ValueError):
            raise MultipartyError(malformed) from None
        if len(row) != n:
            raise MultipartyError(f"payments must be {n}x{n}")
        if negative:
            raise MultipartyError(malformed)
        grid.append(row)
        sellers.append(paid)
        ints.append(nums)
        denominators.append(dens)
    if any(grid[i][i] for i in range(n)):
        raise MultipartyError("self-payments are not allowed")
    # Each row's lcm first, so a scale as large as the product of thousands of
    # distinct primes is folded once per row, not once per price.
    scale = lcm(*(lcm(*dens) for dens in denominators))
    for nums, paid, dens in zip(ints, sellers, denominators):
        for j, q in zip(paid, dens):
            nums[j] *= scale // q
    return grid, sellers, ints, scale


def _as_bits(n: int, rows, name: str) -> list[bytes]:
    """Rows of 0/1 bytes.  A row of ints and bools is read in C; any other
    row cell by cell, where a string is parsed and a number must be whole,
    and each cell is checked before the row's length."""
    malformed = f"{name} entries must be 0 or 1"
    out = []
    for entries in _rows(n, rows, name, malformed):
        try:
            bits = bytes(entries)  # refuses floats, Fractions, complex numbers and strings
        except (TypeError, ValueError):
            bits = b""  # n >= 2, so it is read cell by cell below
        if len(bits) == n and bits.count(0) + bits.count(1) == n:
            out.append(bits)
            continue
        try:
            row = list(map(int, entries))
        except (TypeError, ValueError, OverflowError):
            raise MultipartyError(malformed) from None
        if any(b != v for b, v in zip(row, entries) if not isinstance(v, str)):  # int() truncated it
            raise MultipartyError(malformed)
        if len(row) != n:
            raise MultipartyError(f"{name} must be {n}x{n}")
        if not set(row) <= {0, 1}:
            raise MultipartyError(malformed)
        out.append(bytes(row))
    return out


def multiparty_run(
    ledger: Ledger,
    parties: list[str] | tuple[str, ...],
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
    if not isinstance(parties, _ORDERED):
        raise MultipartyError("parties must be a list or a tuple of names")
    n = len(parties)
    if n < 2:
        raise MultipartyError("need at least two parties")
    if len(set(parties)) != n:
        raise MultipartyError("party names must be distinct")
    x, sellers, xs, scale = _payment_grid(n, payments)
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
                total = sum([xs[j][i] for j in cols] if by_seller else [xs[i][j] for j in cols])
                try:
                    ledger.escrow_deposit(parties[i], POT, total, scale=scale)
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
        # credits are summed, over the batch scale, into its payout.
        credits = [0] * n
        for i, paid in enumerate(sellers):  # buyer i, seller j
            for j in paid:
                price = xs[i][j]
                if not d[i][j]:  # accept
                    credits[j] += price
                elif not c[j][i]:  # forfeit: price and wager back
                    credits[i] += 2 * price
                else:  # arbitration: the coin's winner gets price and wager, the arbiter the loser's wager
                    credits[j if b[i][j] else i] += 2 * price
                    ledger.pot_to_arbiter(POT, price, scale=scale)

        for i, party in enumerate(parties):
            if credits[i] > 0:
                ledger.escrow_release(POT, party, credits[i], contract_move=True, scale=scale)

    unpaid = (_ZERO,) * n
    return SettlementMatrix(
        payments=tuple(tuple(row) if paid else unpaid for row, paid in zip(x, sellers)),
        disputes=d,
        counters=c,
        coin=tuple(map(tuple, b)),
        payouts=tuple(Fraction(owed, scale) if owed else _ZERO for owed in credits),
    )

