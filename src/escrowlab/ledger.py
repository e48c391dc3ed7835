"""Deterministic in-memory ledger with escrow pots, per-move fees, discrete
time, and timeout callbacks.

Funds are exact rationals held as integers: each balance, pot and sink is
its own reduced (numerator, denominator) pair, added as plain integers when
denominators agree; an amount is converted once, on entry.  Reads return
`Fraction`s: `balance()`, `pot_balance()`, `fee_sink`, `arbiter_sink`,
`total_funds()` and the read-only copies `balances` and `pots`.

The conservation invariant is that the sum of all account balances, escrow
pots, and the two sinks never changes: fees and forfeited liveness deposits
are burned into the fee sink, withheld wagers go to the arbiter sink.  Each
operation validates every debit before touching state, so a rejected
operation leaves the ledger untouched; `transaction()` does so for a block
of operations by copying the pair dicts on entry.

Timeouts fire in (due, id) order, with the clock reading the due instant
inside each callback.  They are kept in a min-heap: registering and firing
cost O(log n) in the n pending timeouts.  Cancelling or re-registering an id
leaves its old heap entry in place, to be skipped when popped; the heap is
rebuilt from the live entries once stale ones outnumber them.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Optional

from .trade import as_fraction

#: An exact amount as (numerator, denominator): reduced, denominator > 0.
Pair = tuple[int, int]
_ZERO: Pair = (0, 1)


class LedgerError(Exception):
    pass


class UnknownAccountError(LedgerError):
    pass


class InsufficientFundsError(LedgerError):
    pass


@dataclass(frozen=True)
class TimeoutPolicy:
    """Response-time policy: free until `threshold`, default action forced at
    `timeout`, liveness deposit refunded on a linear ramp in between.

    deposit=None lets the contract derive the deposit from the wager size.
    """

    threshold: int
    timeout: int
    deposit: Optional[Fraction] = None

    def __post_init__(self) -> None:
        _require_whole("threshold", self.threshold)
        _require_whole("timeout", self.timeout)
        if not 0 <= self.threshold < self.timeout:
            raise ValueError(
                f"need 0 <= threshold < timeout, got {self.threshold}, {self.timeout}"
            )
        if self.deposit is not None:
            object.__setattr__(self, "deposit", Fraction(*_amount(self.deposit, "deposit")))


def _require_whole(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be a whole number of ticks, got {value!r}")


def _pair(value) -> Pair:
    """Any rational as a pair; `as_fraction` refuses a bool."""
    if type(value) is not Fraction and type(value) is not int:
        value = as_fraction(value)
    return value.numerator, value.denominator


def _amount(amount, what: str = "amount") -> Pair:
    """The one check that an amount is not negative, converted once."""
    value = _pair(amount)
    if value[0] < 0:
        raise ValueError(f"{what} must be >= 0, got {Fraction(*value)}")
    return value


def _add(a: Pair, b: Pair) -> Pair:
    """a + b, reduced, by the steps of `Fraction`'s own addition: a plain
    integer add when the denominators agree, no gcd when they are coprime."""
    (na, da), (nb, db) = a, b
    g = da if da == db else gcd(da, db)
    if g == 1:
        return na * db + nb * da, da * db
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    return t // g2, s * (db // g2)


def deposit_payback(t: int, policy: TimeoutPolicy, deposit) -> Fraction:
    """Refund of `deposit` for a party who responded t ticks into their window.

    Full deposit up to the threshold, linear ramp down to zero at the
    timeout, nothing after.
    """
    _require_whole("t", t)
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    amount = Fraction(*_amount(deposit, "deposit"))
    if t <= policy.threshold:
        return amount
    if t < policy.timeout:
        return amount * Fraction(policy.timeout - t, policy.timeout - policy.threshold)
    return Fraction(0)


class Ledger:
    """The per-move fee `tau` is its one setting; balances, pots, sinks,
    clock and move counts start empty and are kept by the operations below."""

    def __init__(self, tau=Fraction(0)) -> None:
        self._fee = _amount(tau, "tau")
        self._balances: dict[str, Pair] = {}
        self._pots: dict[str, Pair] = {}
        self._fee_sink = self._arbiter_sink = _ZERO
        self.time = 0
        self.move_counts: dict[str, int] = {}
        # id -> its live (due, callback); the heap holds (due, id) for these
        # and for the entries a cancel or a re-registration left stale.
        # Stale entries hold no callback, so they keep nothing alive.
        self._timeouts: dict[str, tuple[int, Callable[[], None]]] = {}
        self._heap: list[tuple[int, str]] = []

    @property
    def tau(self) -> Fraction:
        return Fraction(*self._fee)

    @property
    def balances(self) -> Mapping[str, Fraction]:
        return MappingProxyType({name: Fraction(*value) for name, value in self._balances.items()})

    @property
    def pots(self) -> Mapping[str, Fraction]:
        return MappingProxyType({pot: Fraction(*value) for pot, value in self._pots.items()})

    @property
    def fee_sink(self) -> Fraction:
        return Fraction(*self._fee_sink)

    @property
    def arbiter_sink(self) -> Fraction:
        return Fraction(*self._arbiter_sink)

    def balance(self, name: str) -> Fraction:
        self._require_account(name)
        return Fraction(*self._balances[name])

    def pot_balance(self, contract_id: str) -> Fraction:
        return Fraction(*self._pots.get(contract_id, _ZERO))

    def total_funds(self) -> Fraction:
        sums: dict[int, int] = {}  # denominator -> sum of numerators
        for n, d in chain(self._balances.values(), self._pots.values(), (self._fee_sink, self._arbiter_sink)):
            sums[d] = sums.get(d, 0) + n
        return sum((Fraction(n, d) for d, n in sums.items()), Fraction(0))

    # -- accounts ----------------------------------------------------------

    def open_account(self, name: str, balance=0) -> None:
        if name in self._balances:
            raise LedgerError(f"account {name!r} already exists")
        self._balances[name] = _amount(balance, "opening balance")

    def _require_account(self, name: str) -> None:
        if name not in self._balances:
            raise UnknownAccountError(name)

    def _move(self, party: str, amount: Pair, contract_move: bool) -> None:
        """Credit `amount` to a party (a debit when negative); a contract move
        also costs the party the fee and counts as one of their moves.

        Raises, before any change, if the balance cannot cover it.
        """
        old = self._balances.get(party)
        if old is None:
            raise UnknownAccountError(party)
        balance = _add(old, amount) if amount[0] else old
        fee = self._fee if contract_move and self._fee[0] else None
        if fee is not None:
            balance = _add(balance, (-fee[0], fee[1]))
        if balance[0] < 0:
            raise InsufficientFundsError(f"{party} has {Fraction(*old)}, needs {Fraction(*old) - Fraction(*balance)}")
        self._balances[party] = balance
        if contract_move:
            if fee is not None:
                self._fee_sink = _add(self._fee_sink, fee)
            self.move_counts[party] = self.move_counts.get(party, 0) + 1

    # -- fund movement -----------------------------------------------------

    def transfer(self, src: str, dst: str, amount, contract_move: bool = False) -> None:
        """Move funds between accounts; a contract move also costs the fee."""
        n, d = _amount(amount)
        self._require_account(dst)
        self._move(src, (-n, d), contract_move)
        self._balances[dst] = _add(self._balances[dst], (n, d))

    def escrow_deposit(self, party: str, contract_id: str, amount, contract_move: bool = False) -> None:
        n, d = _amount(amount)
        self._move(party, (-n, d), contract_move)
        self._pots[contract_id] = _add(self._pots.get(contract_id, _ZERO), (n, d))

    def escrow_release(self, contract_id: str, party: str, amount, contract_move: bool = False) -> None:
        """Pay out of a pot; a fee-bearing release is a withdrawal claimed by
        the recipient, who covers the fee out of the proceeds."""
        value = _amount(amount)
        rest = self._pot_less(contract_id, value)
        self._move(party, value, contract_move)
        self._pots[contract_id] = rest

    def charge_move(self, party: str) -> None:
        """A fee-bearing contract move with no fund movement of its own."""
        self._move(party, _ZERO, contract_move=True)

    def pot_to_arbiter(self, contract_id: str, amount) -> None:
        value = _amount(amount)
        self._pots[contract_id] = self._pot_less(contract_id, value)
        self._arbiter_sink = _add(self._arbiter_sink, value)

    def burn_from_pot(self, contract_id: str, amount) -> None:
        value = _amount(amount)
        self._pots[contract_id] = self._pot_less(contract_id, value)
        self._fee_sink = _add(self._fee_sink, value)

    def _pot_less(self, contract_id: str, value: Pair) -> Pair:
        """What the pot holds after paying out `value`; raises if it cannot."""
        pot = self._pots.get(contract_id, _ZERO)
        rest = _add(pot, (-value[0], value[1]))
        if rest[0] < 0:
            raise InsufficientFundsError(f"pot {contract_id} has {Fraction(*pot)}, needs {Fraction(*value)}")
        return rest if rest[0] else _ZERO  # every emptied pot, kept for its id, shares one zero

    def open_pot(self, pot_id: str) -> None:
        """Open an empty pot under an id no pot has used on this ledger."""
        if pot_id in self._pots:
            raise LedgerError(f"pot {pot_id!r} is already open")
        self._pots[pot_id] = _ZERO

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """All or nothing for a block of operations: if it raises, the fund
        state (balances, pots, move counts, both sinks) is put back as it was
        on entry, from copies of its dicts.  The clock and the pending
        timeouts are not restored."""
        saved = dict(self._balances), dict(self._pots), dict(self.move_counts), self._fee_sink, self._arbiter_sink
        try:
            yield
        except BaseException:
            self._balances, self._pots, self.move_counts, self._fee_sink, self._arbiter_sink = saved
            raise

    # -- time and timeouts ---------------------------------------------------

    def register_timeout(self, contract_id: str, due: int, callback: Callable[[], None]) -> None:
        """Arm (or re-arm) the id's one timeout; a later registration of the
        same id replaces the earlier one."""
        _require_whole("due", due)
        if due <= self.time:
            raise ValueError(f"due {due} is not in the future (now {self.time})")
        self._timeouts[contract_id] = (due, callback)
        heapq.heappush(self._heap, (due, contract_id))
        # Rebuild once stale entries outnumber live ones; the slack of 64
        # spares a small heap a rebuild every few registrations.
        if len(self._heap) > 2 * len(self._timeouts) + 64:
            self._heap = [(d, cid) for cid, (d, _) in self._timeouts.items()]
            heapq.heapify(self._heap)

    def cancel_timeout(self, contract_id: str) -> None:
        self._timeouts.pop(contract_id, None)

    def advance_time(self, ticks: int) -> None:
        """Advance the clock, firing every due timeout exactly once.

        Timeouts fire at their due instant, in (due, contract-id) order;
        callbacks may register or cancel timeouts within the window, and
        those follow-ups fire in the same order.  If a callback raises, the
        clock stays at its due and the later timeouts stay pending.  Each
        firing costs O(log n) in the pending timeouts.
        """
        _require_whole("ticks", ticks)
        if ticks <= 0:
            raise ValueError(f"ticks must be > 0, got {ticks}")
        target = self.time + ticks
        while self._heap and self._heap[0][0] <= target:
            # An entry is stale if its id has no live timeout at its due.  The
            # first of equal (due, id) entries fires and removes the live one,
            # and no registration can reuse a due at or before the clock.
            due, cid = heapq.heappop(self._heap)
            live = self._timeouts.get(cid)
            if live is None or live[0] != due:
                continue  # cancelled or re-registered since it was pushed
            _, callback = self._timeouts.pop(cid)
            self.time = max(self.time, due)
            callback()
        self.time = target

    # -- snapshot ------------------------------------------------------------

    def snapshot(self) -> str:
        """Line-oriented dump: accounts, then pots and sinks, then the clock."""
        lines = [f"{name} {Fraction(*self._balances[name])}" for name in sorted(self._balances)]
        lines += [f"pot:{cid} {Fraction(*self._pots[cid])}" for cid in sorted(self._pots) if self._pots[cid][0]]
        lines.append(f"fee_sink {Fraction(*self._fee_sink)}")
        lines.append(f"arbiter_sink {Fraction(*self._arbiter_sink)}")
        lines.append(f"time {self.time}")
        return "\n".join(lines) + "\n"
