"""Deterministic in-memory ledger with escrow pots, per-move fees, discrete
time, and timeout callbacks.

Funds are exact rationals held as plain ints over one ledger-wide scale L:
each balance, pot, sink and the fee is an int v standing for v / L.  L is
the least common multiple of every denominator the ledger has seen.  An
amount whose denominator d divides L enters as n * (L // d); any other
first rescales every held value and the fee, in one pass, by
lcm(L, d) // L.  `escrow_deposit`, `escrow_release`, `pot_to_arbiter` and
`burn_from_pot` also take an amount over a caller's own scale s, moving
amount / s: the pair (n, d * s) enters as above, reduced by its gcd first
when d * s does not divide L, so L grows as the `Fraction` amount / s would
make it.  Moves are then plain int additions, and `total_funds()` is one
int sum.  L never shrinks: a held balance keeps the denominators of
the amounts that moved through it, so an L recomputed from the held values
would be as large whenever L has grown large.  Each new denominator costs
one pass over the ledger: near-linear while the amounts share a small lcm,
quadratic when many contracts each bring a coprime one.  The two sinks are
entries of one dict beside the balances and the pots.  Reads return
`Fraction(v, L)`: `balance()`, `pot_balance()`, `fee_sink`,
`arbiter_sink`, `tau`, `total_funds()` and the read-only copy `pots`; a
single value of zero reads as the shared `_ZERO`, with no gcd.
`move_counts` is a read-only view of the live counts.

The ledger alone decides which operation is a contract move, costing its
party the fee `tau` and counting as one of their moves: `escrow_deposit`
(its payer's) and `charge_move` always; `escrow_release` only as a
withdrawal its recipient claims (`contract_move=True`), the fee paid out of
the proceeds, not as a contract's own payout; `transfer`, `pot_to_arbiter`
and `burn_from_pot` never.

The conservation invariant is that the sum of all account balances, escrow
pots, and the two sinks never changes: fees and forfeited liveness deposits
are burned into the fee sink, withheld wagers go to the arbiter sink.  Each
operation validates every debit before touching a fund, so a rejected
operation leaves every read as it was, though a rescale it made stays;
`transaction()` does so for a block of operations by copying the fund
dicts, L and the fee on entry and, if the block raises, restoring each in
place.  A pot exists once `open_pot` or a deposit names it; a payout out
of any other id raises `UnknownPotError`, zero amounts included.

Timeouts fire in (due, id) order, with the clock reading the due instant
inside each callback.  Ticks are whole numbers, so they are kept in one
bucket per due tick, after hashed timing wheels: a dict from each id to its
live due, a dict from each due to its bucket {id: callback}, and a min-heap
of the dues.  Arming, re-arming and cancelling an id are dict operations,
O(1); a due is pushed, O(log d) in the d pending dues, only when its bucket
is new.  A bucket that empties is dropped at once, so nothing keeps a
cancelled callback alive.  `advance_time` fires the earliest bucket in
sorted id order, O(b log b) for b ids.  A dropped bucket leaves its due on
the heap, to be skipped when popped; the heap is rebuilt from the buckets
once it holds twice as many dues as there are buckets, plus 64.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Optional

from .trade import as_fraction

#: The read of every held zero, built once.
_ZERO = Fraction(0)


class LedgerError(Exception):
    pass


class UnknownAccountError(LedgerError):
    pass


class InsufficientFundsError(LedgerError):
    pass


class UnknownPotError(LedgerError):
    """A payout out of a pot id that no `open_pot` or deposit has used."""


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


def _require_name(what: str, name) -> None:
    """The one check that a name prints as one word of `snapshot()`."""
    if type(name) is not str or name.split() != [name]:
        raise ValueError(f"{what} must be a non-empty string without whitespace, got {name!r}")


def _amount(amount, what: str = "amount", scale: int = 1) -> tuple[int, int]:
    """The check that an amount over `scale` is not negative, made on its
    int numerator, and its one conversion to (numerator, denominator), the
    pair not reduced when `scale` is not 1; `as_fraction` refuses a bool."""
    if type(amount) is not Fraction and type(amount) is not int:
        amount = as_fraction(amount)
    n, d = amount.numerator, amount.denominator
    if scale != 1:
        if type(scale) is not int or scale < 1:
            raise ValueError(f"scale must be a positive int, got {scale!r}")
        d *= scale
    if n < 0:
        raise ValueError(f"{what} must be >= 0, got {Fraction(n, d)}")
    return n, d


def _repaid(t: int, policy: TimeoutPolicy) -> tuple[int, int]:
    """The payback ramp: the share of a deposit repaid at t ticks, as
    (numerator, denominator).  All of it up to the threshold, falling
    linearly to none at the timeout, none after."""
    if t <= policy.threshold:
        return 1, 1
    if t < policy.timeout:
        return policy.timeout - t, policy.timeout - policy.threshold
    return 0, 1


class Ledger:
    """The per-move fee `tau` is its one setting; balances, pots, sinks,
    clock and move counts start empty and are kept by the operations below."""

    def __init__(self, tau=Fraction(0)) -> None:
        # Every held value is an int over the scale; tau's denominator is its first.
        self._fee, self._scale = _amount(tau, "tau")
        self._balances: dict[str, int] = {}
        self._pots: dict[str, int] = {}
        self._sinks: dict[str, int] = {"fee_sink": 0, "arbiter_sink": 0}  # in snapshot order
        self._move_counts: dict[str, int] = {}
        #: Contract moves per party, a read-only view that a rollback keeps current.
        self.move_counts: Mapping[str, int] = MappingProxyType(self._move_counts)
        self.time = 0
        # id -> its live due; due -> its bucket {id: callback}; a min-heap
        # of the dues with a bucket, and of dues whose bucket was dropped.
        self._timeouts: dict[str, int] = {}
        self._buckets: dict[int, dict[str, Callable[[], None]]] = {}
        self._dues: list[int] = []
        self._advancing = False

    def _read(self, value: int) -> Fraction:
        """One held int as the `Fraction` it stands for; zero is the shared `_ZERO`."""
        return Fraction(value, self._scale) if value else _ZERO

    @property
    def tau(self) -> Fraction:
        return self._read(self._fee)

    @property
    def pots(self) -> Mapping[str, Fraction]:
        scale = self._scale
        return MappingProxyType({pot: Fraction(value, scale) for pot, value in self._pots.items()})

    @property
    def fee_sink(self) -> Fraction:
        return self._read(self._sinks["fee_sink"])

    @property
    def arbiter_sink(self) -> Fraction:
        return self._read(self._sinks["arbiter_sink"])

    def balance(self, name: str) -> Fraction:
        self.require_account(name)
        return self._read(self._balances[name])

    def pot_balance(self, contract_id: str) -> Fraction:
        return self._read(self._pots.get(contract_id, 0))

    def total_funds(self) -> Fraction:
        return self._read(sum(self._balances.values()) + sum(self._pots.values()) + sum(self._sinks.values()))

    def _int(self, amount, what: str = "amount", scale: int = 1) -> int:
        """A non-negative amount over `scale` as an int over the ledger's
        scale.  A denominator that does not divide the ledger's is reduced
        first, so the rescale it then needs is the one its `Fraction` would."""
        n, d = _amount(amount, what, scale)
        if self._scale % d:
            g = gcd(n, d)
            n, d = n // g, d // g
            if self._scale % d:
                self._rescale(d)
        return n * (self._scale // d)

    def _rescale(self, d: int) -> None:
        """Put the scale, the fee and every held value over lcm(scale, d)."""
        factor = d // gcd(self._scale, d)
        self._scale *= factor
        self._fee *= factor
        for held in (self._balances, self._pots, self._sinks):
            for key, value in held.items():
                held[key] = value * factor

    # -- accounts ----------------------------------------------------------

    def open_account(self, name: str, balance=0) -> None:
        _require_name("account name", name)
        if name in self._sinks or name == "time" or name.startswith("pot:"):
            raise ValueError(f"account name {name!r} would read as a snapshot line of its own")
        if name in self._balances:
            raise LedgerError(f"account {name!r} already exists")
        self._balances[name] = self._int(balance, "opening balance")

    def require_account(self, name: str) -> None:
        """Raise `UnknownAccountError` unless the ledger has an account `name`."""
        if name not in self._balances:
            raise UnknownAccountError(name)

    def _move(self, party: str, amount: int, contract_move: bool) -> None:
        """Credit `amount` to a party (a debit when negative), less the fee
        for a contract move, which counts as one of their moves; raises,
        before any change, if the balance cannot cover it."""
        old = self._balances.get(party)
        if old is None:
            raise UnknownAccountError(party)
        fee = self._fee if contract_move else 0
        balance = old + amount - fee
        if balance < 0:
            scale = self._scale
            raise InsufficientFundsError(f"{party} has {Fraction(old, scale)}, needs {Fraction(old - balance, scale)}")
        self._balances[party] = balance
        if contract_move:
            self._sinks["fee_sink"] += fee
            self._move_counts[party] = self._move_counts.get(party, 0) + 1

    # -- fund movement -----------------------------------------------------

    def transfer(self, src: str, dst: str, amount) -> None:
        """Move funds between accounts."""
        value = self._int(amount)
        self.require_account(dst)
        self._move(src, -value, False)
        self._balances[dst] += value

    def escrow_deposit(self, party: str, contract_id: str, amount, *, scale: int = 1) -> None:
        """Pay `amount / scale` into a pot, opening it under a new id."""
        value = self._int(amount, scale=scale)
        pot = self._pots.get(contract_id)
        if pot is None:
            _require_name("pot id", contract_id)
            pot = 0
        self._move(party, -value, True)
        self._pots[contract_id] = pot + value

    def escrow_release(self, contract_id: str, party: str, amount, contract_move: bool = False, *, scale: int = 1) -> None:
        """Pay `amount / scale` out of a pot; `contract_move` makes it a withdrawal."""
        value = self._int(amount, scale=scale)
        rest = self._pot_less(contract_id, value)
        self._move(party, value, contract_move)
        self._pots[contract_id] = rest

    def charge_move(self, party: str) -> None:
        """A fee-bearing contract move with no fund movement of its own."""
        self._move(party, 0, contract_move=True)

    def pot_to_arbiter(self, contract_id: str, amount, *, scale: int = 1) -> None:
        self._pot_to_sink(contract_id, self._int(amount, scale=scale), "arbiter_sink")

    def burn_from_pot(self, contract_id: str, amount, *, scale: int = 1) -> None:
        self._pot_to_sink(contract_id, self._int(amount, scale=scale), "fee_sink")

    def _pot_to_sink(self, contract_id: str, value: int, sink: str) -> None:
        self._pots[contract_id] = self._pot_less(contract_id, value)
        self._sinks[sink] += value

    def _pot_less(self, contract_id: str, value: int) -> int:
        """What the pot holds after paying out `value`; raises if it cannot,
        an id no pot has used even for a zero amount."""
        pot = self._pots.get(contract_id)
        if pot is None:
            raise UnknownPotError(f"no pot {contract_id!r} on this ledger")
        if pot < value:
            scale = self._scale
            raise InsufficientFundsError(f"pot {contract_id} has {Fraction(pot, scale)}, needs {Fraction(value, scale)}")
        return pot - value

    def open_pot(self, pot_id: str) -> None:
        """Open an empty pot under an id no pot has used on this ledger."""
        _require_name("pot id", pot_id)
        if pot_id in self._pots:
            raise LedgerError(f"pot {pot_id!r} is already open")
        self._pots[pot_id] = 0

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """All or nothing for a block of operations: if it raises, each fund
        dict (balances, pots, sinks, move counts) is put back in place as it
        was on entry, from a copy, and the scale and the fee with them, inner
        blocks' work included; a nested block that raises undoes only its
        own.  The clock and the pending timeouts are not restored."""
        funds = self._balances, self._pots, self._sinks, self._move_counts
        saved = [dict(held) for held in funds]
        scale, fee = self._scale, self._fee
        try:
            yield
        except BaseException:
            for held, copy in zip(funds, saved):
                held.clear()
                held.update(copy)
            self._scale, self._fee = scale, fee
            raise

    # -- time and timeouts ---------------------------------------------------

    def register_timeout(self, contract_id: str, due: int, callback: Callable[[], None]) -> None:
        """Arm (or re-arm) the id's one timeout; a later registration of the
        same id replaces the earlier one."""
        _require_name("timeout id", contract_id)
        _require_whole("due", due)
        if due <= self.time:
            raise ValueError(f"due {due} is not in the future (now {self.time})")
        self.cancel_timeout(contract_id)
        self._timeouts[contract_id] = due
        bucket = self._buckets.get(due)
        if bucket is None:
            bucket = self._buckets[due] = {}
            dues = self._dues
            heappush(dues, due)
            # Rebuild once dropped buckets' dues outnumber the live ones; the
            # slack of 64 spares a small heap a rebuild every few new dues.
            if len(dues) > 2 * len(self._buckets) + 64:
                dues[:] = sorted(self._buckets)
        bucket[contract_id] = callback

    def cancel_timeout(self, contract_id: str) -> None:
        due = self._timeouts.pop(contract_id, None)
        if due is not None:
            bucket = self._buckets[due]
            del bucket[contract_id]
            if not bucket:
                del self._buckets[due]

    def advance_time(self, ticks: int) -> None:
        """Advance the clock, firing every due timeout exactly once.

        Timeouts fire at their due instant, in (due, contract-id) order;
        callbacks may register or cancel timeouts within the window, and
        those follow-ups fire in the same order.  If a callback raises, the
        clock stays at its due and the later timeouts stay pending, its own
        bucket's unfired ids among them.  A callback may not advance the
        clock itself: that raises `LedgerError`.  Each due costs one heap
        pop and a sort of its bucket's ids.
        """
        _require_whole("ticks", ticks)
        if ticks <= 0:
            raise ValueError(f"ticks must be > 0, got {ticks}")
        if self._advancing:
            raise LedgerError("a timeout callback cannot advance the clock")
        target = self.time + ticks
        dues, buckets = self._dues, self._buckets
        self._advancing = True
        try:
            while dues and dues[0] <= target:
                due = heappop(dues)
                bucket = buckets.get(due)
                if bucket is None:
                    continue  # fired, or dropped when it emptied
                self.time = due
                try:
                    for cid, callback in sorted(bucket.items()):
                        if cid in bucket:  # not cancelled or re-armed by an earlier callback
                            self.cancel_timeout(cid)
                            callback()
                except BaseException:
                    heappush(dues, due)  # for the bucket's unfired rest
                    raise
        finally:
            self._advancing = False
        self.time = target

    # -- snapshot ------------------------------------------------------------

    def snapshot(self) -> str:
        """Line-oriented dump: accounts, then pots and sinks, then the clock."""
        scale = self._scale
        lines = [f"{name} {Fraction(self._balances[name], scale)}" for name in sorted(self._balances)]
        lines += [f"pot:{cid} {Fraction(value, scale)}" for cid, value in sorted(p for p in self._pots.items() if p[1])]
        lines += [f"{sink} {Fraction(value, scale)}" for sink, value in self._sinks.items()]
        lines.append(f"time {self.time}")
        return "\n".join(lines) + "\n"
