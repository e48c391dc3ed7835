"""Deterministic in-memory ledger with escrow pots, per-move fees, discrete
time, and timeout callbacks.

Funds are exact rationals.  The conservation invariant is that the sum of all
account balances, escrow pots, and the two sinks never changes: fees and
forfeited liveness deposits are burned into the fee sink, withheld wagers go
to the arbiter sink.  Each operation validates every debit before touching
state, so a rejected operation leaves the ledger untouched.

Timeouts fire in (due, id) order, with the clock reading the due instant
inside each callback.  They are kept in a min-heap: registering and firing
cost O(log n) in the n pending timeouts.  Cancelling or re-registering an id
leaves its old heap entry in place, to be skipped when popped; the heap is
rebuilt from the live entries once stale ones outnumber them.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from typing import Callable, Iterator, Optional

from .trade import as_fraction


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
            object.__setattr__(self, "deposit", as_fraction(self.deposit))
            if self.deposit < 0:
                raise ValueError(f"deposit must be >= 0, got {self.deposit}")


def _require_whole(name: str, value) -> None:
    if not isinstance(value, int):
        raise ValueError(f"{name} must be a whole number of ticks, got {value!r}")


def _amount(amount) -> Fraction:
    """The one check of an amount that an operation moves."""
    value = as_fraction(amount)
    if value < 0:
        raise ValueError(f"amount must be >= 0, got {value}")
    return value


def deposit_payback(t: int, policy: TimeoutPolicy, deposit) -> Fraction:
    """Refund of `deposit` for a party who responded t ticks into their window.

    Full deposit up to the threshold, linear ramp down to zero at the
    timeout, nothing after.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    amount = as_fraction(deposit)
    if t <= policy.threshold:
        return amount
    if t < policy.timeout:
        ramp = Fraction(t - policy.threshold, policy.timeout - policy.threshold)
        return amount * (1 - ramp)
    return Fraction(0)


@dataclass
class Ledger:
    """The per-move fee `tau` is its one setting; balances, pots, sinks,
    clock and move counts start empty and are kept by the operations below."""

    tau: Fraction = Fraction(0)
    balances: dict[str, Fraction] = field(init=False, default_factory=dict)
    pots: dict[str, Fraction] = field(init=False, default_factory=dict)
    fee_sink: Fraction = field(init=False, default=Fraction(0))
    arbiter_sink: Fraction = field(init=False, default=Fraction(0))
    time: int = field(init=False, default=0)
    move_counts: dict[str, int] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.tau = as_fraction(self.tau)
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        # id -> its live (due, seq, callback); the heap holds (due, id, seq)
        # for these and for the entries a cancel or a re-registration left
        # stale.  Stale entries hold no callback, so they keep nothing alive.
        self._timeouts: dict[str, tuple[int, int, Callable[[], None]]] = {}
        self._heap: list[tuple[int, str, int]] = []
        self._seq = count()

    # -- accounts ----------------------------------------------------------

    def open_account(self, name: str, balance=0) -> None:
        if name in self.balances:
            raise LedgerError(f"account {name!r} already exists")
        amount = as_fraction(balance)
        if amount < 0:
            raise ValueError("opening balance must be >= 0")
        self.balances[name] = amount

    def balance(self, name: str) -> Fraction:
        self._require_account(name)
        return self.balances[name]

    def _require_account(self, name: str) -> None:
        if name not in self.balances:
            raise UnknownAccountError(name)

    def _move(self, party: str, amount: Fraction, contract_move: bool) -> None:
        """Credit `amount` to a party (a debit when negative); a contract move
        also costs the party the fee and counts as one of their moves.

        Raises, before any change, if the balance cannot cover it.
        """
        self._require_account(party)
        balance = self.balances[party] + amount
        if contract_move:
            balance -= self.tau
        if balance < 0:
            raise InsufficientFundsError(
                f"{party} has {self.balances[party]}, needs {self.balances[party] - balance}"
            )
        self.balances[party] = balance
        if contract_move:
            self.fee_sink += self.tau
            self.move_counts[party] = self.move_counts.get(party, 0) + 1

    # -- fund movement -----------------------------------------------------

    def transfer(self, src: str, dst: str, amount, contract_move: bool = False) -> None:
        """Move funds between accounts; a contract move also costs the fee."""
        value = _amount(amount)
        self._require_account(dst)
        self._move(src, -value, contract_move)
        self.balances[dst] += value

    def escrow_deposit(self, party: str, contract_id: str, amount, contract_move: bool = False) -> None:
        value = _amount(amount)
        self._move(party, -value, contract_move)
        self.pots[contract_id] = self.pots.get(contract_id, Fraction(0)) + value

    def escrow_release(self, contract_id: str, party: str, amount, contract_move: bool = False) -> None:
        """Pay out of a pot; a fee-bearing release is a withdrawal claimed by
        the recipient, who covers the fee out of the proceeds."""
        value = _amount(amount)
        pot = self.pots.get(contract_id, Fraction(0))
        if pot < value:
            raise InsufficientFundsError(f"pot {contract_id} has {pot}, needs {value}")
        self._move(party, value, contract_move)
        self.pots[contract_id] = pot - value

    def charge_move(self, party: str) -> None:
        """A fee-bearing contract move with no fund movement of its own."""
        self._move(party, Fraction(0), contract_move=True)

    def pot_to_arbiter(self, contract_id: str, amount) -> None:
        self.arbiter_sink += self._take_from_pot(contract_id, _amount(amount))

    def burn_from_pot(self, contract_id: str, amount) -> None:
        self.fee_sink += self._take_from_pot(contract_id, _amount(amount))

    def _take_from_pot(self, contract_id: str, value: Fraction) -> Fraction:
        pot = self.pots.get(contract_id, Fraction(0))
        if pot < value:
            raise InsufficientFundsError(f"pot {contract_id} has {pot}, needs {value}")
        self.pots[contract_id] = pot - value
        return value

    def open_pot(self, pot_id: str) -> None:
        """Open an empty pot under an id no pot has used on this ledger."""
        if pot_id in self.pots:
            raise LedgerError(f"pot {pot_id!r} is already open")
        self.pots[pot_id] = Fraction(0)

    def pot_balance(self, contract_id: str) -> Fraction:
        return self.pots.get(contract_id, Fraction(0))

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """All or nothing for a block of operations: if it raises, the fund
        state (balances, pots, move counts, both sinks) is put back as it was
        on entry.  The clock and the pending timeouts are not restored."""
        saved = dict(self.balances), dict(self.pots), dict(self.move_counts), self.fee_sink, self.arbiter_sink
        try:
            yield
        except BaseException:
            self.balances, self.pots, self.move_counts, self.fee_sink, self.arbiter_sink = saved
            raise

    def total_funds(self) -> Fraction:
        return (
            sum(self.balances.values(), Fraction(0))
            + sum(self.pots.values(), Fraction(0))
            + self.fee_sink
            + self.arbiter_sink
        )

    # -- time and timeouts ---------------------------------------------------

    def register_timeout(self, contract_id: str, due: int, callback: Callable[[], None]) -> None:
        """Arm (or re-arm) the id's one timeout; a later registration of the
        same id replaces the earlier one."""
        _require_whole("due", due)
        if due <= self.time:
            raise ValueError(f"due {due} is not in the future (now {self.time})")
        seq = next(self._seq)
        self._timeouts[contract_id] = (due, seq, callback)
        heapq.heappush(self._heap, (due, contract_id, seq))
        # Rebuild once stale entries outnumber live ones; the slack of 64
        # spares a small heap a rebuild every few registrations.
        if len(self._heap) > 2 * len(self._timeouts) + 64:
            self._heap = [(d, cid, s) for cid, (d, s, _) in self._timeouts.items()]
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
            due, cid, seq = heapq.heappop(self._heap)
            live = self._timeouts.get(cid)
            if live is None or live[1] != seq:
                continue  # cancelled or re-registered since it was pushed
            _, _, callback = self._timeouts.pop(cid)
            self.time = max(self.time, due)
            callback()
        self.time = target

    # -- snapshot ------------------------------------------------------------

    def snapshot(self) -> str:
        """Line-oriented dump: accounts, then pots and sinks, then the clock."""
        lines = [f"{name} {self.balances[name]}" for name in sorted(self.balances)]
        lines += [f"pot:{cid} {self.pots[cid]}" for cid in sorted(self.pots) if self.pots[cid]]
        lines.append(f"fee_sink {self.fee_sink}")
        lines.append(f"arbiter_sink {self.arbiter_sink}")
        lines.append(f"time {self.time}")
        return "\n".join(lines) + "\n"
