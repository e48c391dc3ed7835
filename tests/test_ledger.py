from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escrowlab.ledger import (
    InsufficientFundsError,
    Ledger,
    LedgerError,
    TimeoutPolicy,
    UnknownAccountError,
    UnknownPotError,
    _repaid,
)
from escrowlab.trade import as_fraction


def fresh_ledger(tau=0):
    ledger = Ledger(tau=tau)
    ledger.open_account("buyer", 10)
    ledger.open_account("seller", 10)
    return ledger


def test_plain_transfer_moves_exactly_the_amount():
    ledger = fresh_ledger()
    ledger.escrow_deposit("buyer", "c1", 1)
    assert ledger.balance("buyer") == 9
    assert ledger.pot_balance("c1") == 1
    assert ledger.fee_sink == 0


def test_contract_move_charges_the_fee_to_the_mover():
    ledger = fresh_ledger(tau="1/10")
    ledger.escrow_deposit("buyer", "c1", 1)
    assert ledger.balance("buyer") == Fraction(89, 10)
    assert ledger.pot_balance("c1") == 1
    assert ledger.fee_sink == Fraction(1, 10)
    assert ledger.move_counts == {"buyer": 1}


def test_default_moves_charge_nothing():
    # After one deposit, its one fee: a payout and a transfer charge none.
    ledger = fresh_ledger(tau="1/10")
    ledger.escrow_deposit("buyer", "c1", 1)
    ledger.escrow_release("c1", "seller", 1)
    ledger.transfer("seller", "buyer", 1)
    assert (ledger.balance("buyer"), ledger.balance("seller")) == (Fraction(99, 10), 10)
    assert ledger.fee_sink == Fraction(1, 10)
    assert ledger.move_counts == {"buyer": 1}


def test_overdraw_rejected_atomically():
    ledger = fresh_ledger(tau="1/2")
    with pytest.raises(InsufficientFundsError):
        ledger.escrow_deposit("buyer", "c1", 10)  # 10 + fee > 10
    assert ledger.balance("buyer") == 10
    assert ledger.pot_balance("c1") == 0
    assert ledger.fee_sink == 0


def test_unknown_accounts_rejected():
    ledger = fresh_ledger()
    with pytest.raises(UnknownAccountError):
        ledger.transfer("nobody", "seller", 1)
    with pytest.raises(UnknownAccountError):
        ledger.transfer("buyer", "nobody", 1)


def test_pot_release_and_sinks():
    ledger = fresh_ledger()
    ledger.escrow_deposit("buyer", "c1", 3)
    ledger.escrow_release("c1", "seller", 1)
    ledger.pot_to_arbiter("c1", 1)
    ledger.burn_from_pot("c1", 1)
    assert ledger.pot_balance("c1") == 0
    assert ledger.balance("seller") == 11
    assert ledger.arbiter_sink == 1
    assert ledger.fee_sink == 1
    with pytest.raises(InsufficientFundsError):
        ledger.escrow_release("c1", "seller", 1)


AMOUNT_OPS = {
    "transfer": lambda ledger: ledger.transfer("buyer", "seller", -1),
    "escrow_deposit": lambda ledger: ledger.escrow_deposit("buyer", "c1", "-1/2"),
    "escrow_release": lambda ledger: ledger.escrow_release("c1", "seller", -1),
    "pot_to_arbiter": lambda ledger: ledger.pot_to_arbiter("c1", -1),
    "burn_from_pot": lambda ledger: ledger.burn_from_pot("c1", Fraction(-1, 3)),
}


@pytest.mark.parametrize("op", AMOUNT_OPS.values(), ids=AMOUNT_OPS.keys())
def test_negative_amounts_are_refused_by_one_check(op):
    ledger = fresh_ledger(tau="1/10")
    ledger.escrow_deposit("buyer", "c1", 3)
    before = ledger.snapshot()
    with pytest.raises(ValueError, match=r"^amount must be >= 0, got -"):
        op(ledger)
    assert ledger.snapshot() == before
    assert ledger.move_counts == {"buyer": 1}


OPS = st.lists(
    st.tuples(
        st.sampled_from(["deposit", "release", "transfer", "arbiter", "burn", "fee_move"]),
        st.sampled_from(["buyer", "seller"]),
        st.fractions(min_value=0, max_value=20, max_denominator=8),
    ),
    max_size=40,
)


TX_OPS = st.lists(
    st.tuples(
        st.sampled_from(["deposit"] * 3 + ["release", "transfer", "arbiter", "burn", "fee_move"]),
        st.sampled_from(["buyer", "seller"] * 6 + ["ghost"]),  # ghost has no account
        st.sampled_from(["c1", "c2"]),
        st.fractions(min_value=0, max_value=2, max_denominator=4),
        st.booleans(),
    ),
    max_size=12,
)


def _apply(ledger, op, party, pot, amount, fee):
    """One operation; `fee` makes a release a withdrawal."""
    if op == "deposit":
        ledger.escrow_deposit(party, pot, amount)
    elif op == "release":
        ledger.escrow_release(pot, party, amount, contract_move=fee)
    elif op == "transfer":
        ledger.transfer(party, "buyer" if party == "seller" else "seller", amount)
    elif op == "arbiter":
        ledger.pot_to_arbiter(pot, amount)
    elif op == "burn":
        ledger.burn_from_pot(pot, amount)
    else:
        ledger.charge_move(party)


@settings(max_examples=200, deadline=None)
@given(ops=OPS, tau=st.fractions(min_value=0, max_value=1, max_denominator=4))
def test_conservation_under_random_operation_sequences(ops, tau):
    ledger = fresh_ledger(tau=tau)
    ledger.open_pot("c1")  # a payout needs an open pot
    total = ledger.total_funds()
    for op, party, amount in ops:
        try:
            _apply(ledger, op, party, "c1", amount, fee=False)
        except (InsufficientFundsError, ValueError):
            pass
        assert ledger.total_funds() == total
        assert all(ledger.balance(name) >= 0 for name in ("buyer", "seller"))
        assert all(pot >= 0 for pot in ledger.pots.values())


class Abort(Exception):
    pass


def _fund_state(ledger):
    return ledger.snapshot(), dict(ledger.move_counts), dict(ledger.pots)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), setup=TX_OPS, ops=TX_OPS, tau=st.sampled_from([0, Fraction(1, 4), 1]))
def test_a_transaction_completes_as_plain_operations_or_changes_nothing(data, setup, ops, tau):
    # Two ledgers reach the same state by `setup`; one then runs `ops` in a
    # transaction that raises at the first refused operation or at a drawn
    # step, the other runs them plainly only if the transaction completed.
    inside, plain = fresh_ledger(tau), fresh_ledger(tau)
    for ledger in (inside, plain):
        for step in setup:
            try:
                _apply(ledger, *step)
            except LedgerError:
                pass
    stop = data.draw(st.none() | st.integers(0, len(ops)))
    before = _fund_state(inside)
    try:
        with inside.transaction():
            for k, step in enumerate(ops):
                if k == stop:
                    raise Abort
                _apply(inside, *step)
            if stop == len(ops):
                raise Abort
    except (Abort, LedgerError):
        assert _fund_state(inside) == before
    else:
        for step in ops:
            _apply(plain, *step)
        assert _fund_state(inside) == _fund_state(plain)


def test_nested_transactions_undo_their_own_block():
    # An inner block that raises and is caught inside the outer one undoes
    # only its own operations; the outer block then completes with the rest.
    ledger = fresh_ledger(Fraction(1, 4))
    counts = ledger.move_counts
    with ledger.transaction():
        ledger.escrow_deposit("buyer", "c1", 2)
        after_outer_move = _fund_state(ledger)
        with pytest.raises(Abort):
            with ledger.transaction():
                ledger.escrow_deposit("seller", "c1", 3)
                ledger.escrow_release("c1", "buyer", 1, contract_move=True)
                ledger.pot_to_arbiter("c1", 1)
                ledger.burn_from_pot("c1", 1)
                raise Abort
        assert _fund_state(ledger) == after_outer_move
        assert (ledger.fee_sink, ledger.arbiter_sink) == (Fraction(1, 4), 0)
        assert counts == {"buyer": 1}
        ledger.charge_move("seller")
    assert ledger.pot_balance("c1") == 2
    assert ledger.move_counts == {"buyer": 1, "seller": 1}
    assert ledger.balance("buyer") == Fraction(31, 4) and ledger.balance("seller") == Fraction(39, 4)

    # An outer block that raises undoes everything since its entry, the
    # completed inner block included.
    before = _fund_state(ledger)
    with pytest.raises(Abort):
        with ledger.transaction():
            ledger.escrow_release("c1", "seller", 2, contract_move=True)
            with ledger.transaction():
                ledger.escrow_deposit("buyer", "c2", 1)
            assert ledger.move_counts == {"buyer": 2, "seller": 2}
            raise Abort
    assert _fund_state(ledger) == before
    assert ledger.move_counts == {"buyer": 1, "seller": 1} and "c2" not in ledger.pots


# ---------------------------------------------------------------------------
# Integer pairs against the Fraction ledger they replaced
# ---------------------------------------------------------------------------


def _naive_amount(amount):
    value = as_fraction(amount)
    if value < 0:
        raise ValueError(f"amount must be >= 0, got {value}")
    return value


@dataclass
class NaiveLedger:
    """The ledger's fund operations as they were when every balance, pot and
    sink was a `Fraction`, and every move did `Fraction` arithmetic.  Kept as
    the reference; it has no scheduler (see `NaiveClock`), so its clock
    stays at 0."""

    tau: Fraction = Fraction(0)
    balances: dict = field(init=False, default_factory=dict)
    pots: dict = field(init=False, default_factory=dict)
    fee_sink: Fraction = field(init=False, default=Fraction(0))
    arbiter_sink: Fraction = field(init=False, default=Fraction(0))
    time: int = field(init=False, default=0)
    move_counts: dict = field(init=False, default_factory=dict)

    def __post_init__(self):
        self.tau = as_fraction(self.tau)
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")

    def open_account(self, name, balance=0):
        if name in self.balances:
            raise LedgerError(f"account {name!r} already exists")
        amount = as_fraction(balance)
        if amount < 0:
            raise ValueError(f"opening balance must be >= 0, got {amount}")
        self.balances[name] = amount

    def balance(self, name):
        self._require_account(name)
        return self.balances[name]

    def _require_account(self, name):
        if name not in self.balances:
            raise UnknownAccountError(name)

    def _move(self, party, amount, contract_move):
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

    def transfer(self, src, dst, amount):
        value = _naive_amount(amount)
        self._require_account(dst)
        self._move(src, -value, False)
        self.balances[dst] += value

    def escrow_deposit(self, party, contract_id, amount):
        value = _naive_amount(amount)
        self._move(party, -value, True)
        self.pots[contract_id] = self.pots.get(contract_id, Fraction(0)) + value

    def escrow_release(self, contract_id, party, amount, contract_move=False):
        value = _naive_amount(amount)
        pot = self._pot(contract_id)
        if pot < value:
            raise InsufficientFundsError(f"pot {contract_id} has {pot}, needs {value}")
        self._move(party, value, contract_move)
        self.pots[contract_id] = pot - value

    def charge_move(self, party):
        self._move(party, Fraction(0), contract_move=True)

    def pot_to_arbiter(self, contract_id, amount):
        self.arbiter_sink += self._take_from_pot(contract_id, _naive_amount(amount))

    def burn_from_pot(self, contract_id, amount):
        self.fee_sink += self._take_from_pot(contract_id, _naive_amount(amount))

    def _pot(self, contract_id):
        """A pot paid out of must exist, even for a zero amount."""
        if contract_id not in self.pots:
            raise UnknownPotError(f"no pot {contract_id!r} on this ledger")
        return self.pots[contract_id]

    def _take_from_pot(self, contract_id, value):
        pot = self._pot(contract_id)
        if pot < value:
            raise InsufficientFundsError(f"pot {contract_id} has {pot}, needs {value}")
        self.pots[contract_id] = pot - value
        return value

    def open_pot(self, pot_id):
        if pot_id in self.pots:
            raise LedgerError(f"pot {pot_id!r} is already open")
        self.pots[pot_id] = Fraction(0)

    def pot_balance(self, contract_id):
        return self.pots.get(contract_id, Fraction(0))

    @contextmanager
    def transaction(self):
        saved = dict(self.balances), dict(self.pots), dict(self.move_counts), self.fee_sink, self.arbiter_sink
        try:
            yield
        except BaseException:
            self.balances, self.pots, self.move_counts, self.fee_sink, self.arbiter_sink = saved
            raise

    def total_funds(self):
        return (
            sum(self.balances.values(), Fraction(0))
            + sum(self.pots.values(), Fraction(0))
            + self.fee_sink
            + self.arbiter_sink
        )

    def snapshot(self):
        lines = [f"{name} {self.balances[name]}" for name in sorted(self.balances)]
        lines += [f"pot:{cid} {self.pots[cid]}" for cid in sorted(self.pots) if self.pots[cid]]
        lines.append(f"fee_sink {self.fee_sink}")
        lines.append(f"arbiter_sink {self.arbiter_sink}")
        lines.append(f"time {self.time}")
        return "\n".join(lines) + "\n"


#: Primes above 10,000; an amount drawn as ("prime", n) becomes n over the
#: next one, so each such amount brings a denominator no earlier one had.
PRIMES = [p for p in range(10_007, 14_000, 2) if all(p % q for q in range(3, isqrt(p) + 1, 2))]

AMOUNT = st.one_of(
    st.fractions(min_value=0, max_value=6, max_denominator=12),
    st.integers(0, 6),
    st.sampled_from(["1/3", "0.5", 0.25, 1.5, "7/9"]),
    st.tuples(st.just("prime"), st.integers(0, 60_000)),
    st.fractions(min_value=-2, max_value=Fraction(-1, 12), max_denominator=12),
    st.sampled_from([-1, -3, "-1/2", -0.5]),
)
PARTY = st.sampled_from(["a", "a", "b", "b", "ghost"])
POT = st.sampled_from(["p1", "p2"])
LEDGER_OP = st.one_of(
    st.tuples(st.just("transfer"), PARTY, PARTY, AMOUNT),
    st.tuples(st.just("escrow_deposit"), PARTY, POT, AMOUNT),
    st.tuples(st.just("escrow_release"), POT, PARTY, AMOUNT, st.booleans()),
    st.tuples(st.just("charge_move"), PARTY),
    st.tuples(st.just("pot_to_arbiter"), POT, AMOUNT),
    st.tuples(st.just("burn_from_pot"), POT, AMOUNT),
    st.tuples(st.just("open_pot"), POT),
    st.tuples(st.just("open_account"), st.sampled_from(["a", "c"]), AMOUNT),
    st.tuples(st.just("balance"), PARTY),
    st.tuples(st.just("pot_balance"), POT),
)
#: A plain operation, or a transaction block of them that may raise at its end.
LEDGER_STEP = LEDGER_OP | st.tuples(st.just("transaction"), st.lists(LEDGER_OP, max_size=6), st.booleans())


def _fresh_denominators(value, primes):
    if isinstance(value, tuple) and value[:1] == ("prime",):
        return Fraction(value[1], next(primes))
    if isinstance(value, (tuple, list)):
        return type(value)(_fresh_denominators(v, primes) for v in value)
    return value


def _ledger_op(ledger, op):
    name, *args = op
    if name == "escrow_release":
        *args, fee = args
        return getattr(ledger, name)(*args, contract_move=fee)
    return getattr(ledger, name)(*args)


def _ledger_step(ledger, step):
    """The step's result, or the type and message of what it raised."""
    try:
        if step[0] != "transaction":
            return "returned", _ledger_op(ledger, step)
        _, ops, abort = step
        with ledger.transaction():
            for op in ops:
                _ledger_op(ledger, op)
            if abort:
                raise Abort("the block gave up")
        return "returned", None
    except (Abort, LedgerError, ValueError) as exc:
        return "raised", type(exc), str(exc)


def _ledger_state(ledger):
    balances = {}
    for name in ("a", "b", "c"):  # every name the tests open
        try:
            balances[name] = ledger.balance(name)
        except UnknownAccountError:
            pass
    return (
        ledger.snapshot(), dict(ledger.move_counts), balances, dict(ledger.pots),
        ledger.fee_sink, ledger.arbiter_sink, ledger.total_funds(), ledger.tau,
    )


@settings(max_examples=300, deadline=None)
@given(
    tau=st.sampled_from([0, Fraction(1, 10), Fraction(2, 7), "1/3", 0.5, Fraction(1, 10_009)]),
    opening=st.tuples(AMOUNT, AMOUNT),
    steps=st.lists(LEDGER_STEP, max_size=25),
)
def test_integer_pairs_match_the_fraction_ledger(tau, opening, steps):
    # Every operation, plain or in a transaction block that raises, with
    # amounts given as Fractions, ints, strings and floats, refused ones
    # included, and many on a fresh prime denominator: the two ledgers
    # return, raise and record the same, and read back the same Fractions.
    primes = iter(PRIMES)
    opening, steps = _fresh_denominators((opening, steps), primes)
    ours, naive = Ledger(tau=tau), NaiveLedger(tau=tau)
    for ledger in (ours, naive):
        for name, amount in zip("ab", opening):
            _ledger_step(ledger, ("open_account", name, amount))
    assert _ledger_state(ours) == _ledger_state(naive)
    for step in steps:
        assert _ledger_step(ours, step) == _ledger_step(naive, step)
        state = _ledger_state(ours)
        assert state == _ledger_state(naive)
        assert all(type(v) is Fraction for v in (*state[2].values(), *state[3].values(), *state[4:]))


#: The ops that take an amount over a caller's scale, with their arguments before it.
SCALED_OPS = {
    "escrow_deposit": lambda party, pot: (party, pot),
    "escrow_release": lambda party, pot: (pot, party),
    "pot_to_arbiter": lambda party, pot: (pot,),
    "burn_from_pot": lambda party, pot: (pot,),
}


@st.composite
def scaled_steps(draw):
    """One op, its party and pot (unknown ones included), and an amount as
    (numerator, its own denominator m, the caller's scale s): numerators
    that are multiples of s, so the pair is not reduced, and negative ones."""
    s = draw(st.sampled_from([1, 2, 3, 4, 6, 12, 35, 49, 10_007, 2 * 10_009]))
    n = draw(st.integers(-40, 400) | st.integers(-3, 30).map(lambda k: k * s))
    m = draw(st.sampled_from([1, 1, 1, 2, 7]))
    op = draw(st.sampled_from(sorted(SCALED_OPS)))
    return op, draw(PARTY), draw(st.sampled_from(["p1", "p2", "ghost"])), n, m, s, draw(st.booleans())


def _scaled_op(ledger, step, over_scale):
    """Apply `step` as `op(amount, scale=s)` or as `op(Fraction(amount, s))`;
    the outcome, with the type and message of what it raised."""
    op, party, pot, n, m, s, fee = step
    amount = n if m == 1 else Fraction(n, m)
    kwargs = {"contract_move": fee} if op == "escrow_release" else {}
    if over_scale:
        kwargs["scale"] = s
    else:
        amount = Fraction(n, m * s)
    try:
        getattr(ledger, op)(*SCALED_OPS[op](party, pot), amount, **kwargs)
    except (LedgerError, ValueError) as exc:
        return "raised", type(exc), str(exc)
    return "returned"


@settings(max_examples=300, deadline=None)
@given(tau=st.sampled_from([0, Fraction(1, 4), Fraction(1, 6)]), steps=st.lists(scaled_steps(), max_size=20))
def test_an_amount_over_a_scale_moves_as_its_fraction(tau, steps):
    # Each op with an int (or a Fraction) over a caller's scale, on one
    # ledger, and with the one Fraction it stands for, on the other: the
    # same outcome, the same message, the same snapshot, and the same
    # internal scale, which an unreduced pair would grow past the
    # Fraction's.  A refused op leaves the snapshot as it was.
    scaled, plain = Ledger(tau=tau), Ledger(tau=tau)
    for ledger in (scaled, plain):
        ledger.open_account("a", 20)
        ledger.open_account("b", Fraction(7, 2))
    for step in steps:
        before = scaled.snapshot()
        outcome = _scaled_op(scaled, step, over_scale=True)
        assert outcome == _scaled_op(plain, step, over_scale=False)
        assert scaled.snapshot() == plain.snapshot()
        assert scaled._scale == plain._scale
        if outcome != "returned":
            assert scaled.snapshot() == before


@pytest.mark.parametrize("scale", [0, -3, 2.0, Fraction(2), "2", False])
def test_a_scale_that_is_not_a_positive_int_is_refused(scale):
    ledger = fresh_ledger()
    before = ledger.snapshot()
    with pytest.raises(ValueError, match="scale must be a positive int"):
        ledger.escrow_deposit("buyer", "c1", 1, scale=scale)
    assert ledger.snapshot() == before


def test_a_rescale_inside_a_block_that_raises_is_undone():
    # The ledger holds quarters; each block brings sevenths, elevenths or
    # thirteenths, which rescale it, and then raises.  Every read, and a
    # move-counts view taken before the block, reads as before, and the
    # operations after it read as the Fraction ledger's.
    ours, naive = Ledger(tau=Fraction(1, 4)), NaiveLedger(tau=Fraction(1, 4))
    for ledger in (ours, naive):
        ledger.open_account("a", 10)
        ledger.open_account("b", Fraction(1, 2))
        ledger.escrow_deposit("a", "p", Fraction(3, 4))
    counts = ours.move_counts

    # A plain block.
    before, seen = _ledger_state(ours), dict(counts)
    for ledger in (ours, naive):
        with pytest.raises(Abort):
            with ledger.transaction():
                ledger.escrow_deposit("b", "p", Fraction(1, 7))
                ledger.pot_to_arbiter("p", Fraction(2, 11))
                raise Abort
    assert _ledger_state(ours) == before == _ledger_state(naive)
    assert counts == seen == {"a": 1}

    # An inner block that raises inside an outer one that completes.
    for ledger in (ours, naive):
        with ledger.transaction():
            ledger.escrow_deposit("a", "p", Fraction(1, 3))
            after_outer_move = _ledger_state(ledger)
            with pytest.raises(Abort):
                with ledger.transaction():
                    ledger.escrow_release("p", "b", Fraction(1, 13), contract_move=True)
                    ledger.burn_from_pot("p", Fraction(1, 7))
                    raise Abort
            assert _ledger_state(ledger) == after_outer_move
            assert ledger is naive or counts == {"a": 2}
            ledger.escrow_release("p", "b", Fraction(1, 2), contract_move=True)
    assert _ledger_state(ours) == _ledger_state(naive)
    assert counts == {"a": 2, "b": 1}

    # An inner block that rescales and completes inside an outer one that raises.
    before, seen = _ledger_state(ours), dict(counts)
    for ledger in (ours, naive):
        with pytest.raises(Abort):
            with ledger.transaction():
                with ledger.transaction():
                    ledger.escrow_deposit("b", "q", Fraction(5, 11))
                ledger.charge_move("a")
                raise Abort
    assert _ledger_state(ours) == before == _ledger_state(naive)
    assert counts == seen
    for ledger in (ours, naive):
        ledger.transfer("b", "a", Fraction(1, 4))
        ledger.burn_from_pot("p", Fraction(1, 4))
    assert _ledger_state(ours) == _ledger_state(naive)


def test_refusals_read_as_the_fraction_ledgers_across_a_rescale():
    # Each refused amount brings a denominator the ledger has not seen, so it
    # is refused after a rescale; the messages name the Fraction ledger's
    # amounts, and later refusals over the grown scale do too.
    ours, naive = Ledger(tau=Fraction(1, 4)), NaiveLedger(tau=Fraction(1, 4))
    steps = [
        ("open_account", "a", Fraction(3, 2)),
        ("open_account", "b", 0),
        ("escrow_deposit", "a", "p", Fraction(1, 2)),
        ("escrow_deposit", "a", "p", Fraction(6, 7)),
        ("escrow_release", "p", "b", Fraction(6, 11), False),
        ("pot_to_arbiter", "p", Fraction(7, 13)),
        ("escrow_deposit", "b", "p", Fraction(1, 17)),
        ("transfer", "a", "b", Fraction(4, 5)),
        ("burn_from_pot", "p", Fraction(4, 7)),
        ("charge_move", "b"),
    ]
    outcomes = []
    for step in steps:
        outcome = _ledger_step(ours, step)
        assert outcome == _ledger_step(naive, step)
        assert _ledger_state(ours) == _ledger_state(naive)
        outcomes.append(outcome)
    assert [o[1] for o in outcomes if o[0] == "raised"] == [InsufficientFundsError] * 7
    assert outcomes[3][2] == "a has 3/4, needs 31/28"
    assert outcomes[4][2] == "pot p has 1/2, needs 6/11"


def test_amounts_on_fresh_prime_denominators_stay_exact():
    # Each deposit and release brings a new prime; the pot ends exactly empty.
    ledger = Ledger(tau=Fraction(1, 10_007))
    ledger.open_account("a", 10)
    ledger.open_account("b", 0)
    amounts = [Fraction(1, p) for p in PRIMES[1:60]]
    for amount in amounts:
        ledger.escrow_deposit("a", "p", amount)
    for amount in reversed(amounts):
        ledger.escrow_release("p", "b", amount)
    assert ledger.pot_balance("p") == 0
    assert ledger.balance("b") == sum(amounts)
    assert ledger.balance("a") == 10 - sum(amounts) - Fraction(59, 10_007)
    assert ledger.total_funds() == 10
    assert ledger.snapshot().startswith(f"a {ledger.balance('a')}\nb {ledger.balance('b')}\nfee_sink 59/10007\n")


def test_pots_read_back_as_read_only_fractions():
    ledger = fresh_ledger()
    ledger.escrow_deposit("buyer", "c1", Fraction(1, 3))
    assert dict(ledger.pots) == {"c1": Fraction(1, 3)}
    assert "c1" in ledger.pots and "c2" not in ledger.pots
    with pytest.raises(TypeError):
        ledger.pots["c1"] = Fraction(0)
    assert ledger.balance("buyer") == Fraction(29, 3)


def test_move_counts_refuse_writes():
    ledger = fresh_ledger()
    ledger.charge_move("buyer")
    with pytest.raises(TypeError):
        ledger.move_counts["x"] = 1
    with pytest.raises(TypeError):
        del ledger.move_counts["buyer"]
    assert ledger.move_counts == {"buyer": 1}


def test_a_move_counts_reference_reads_the_counts_a_rollback_restored():
    ledger = fresh_ledger(Fraction(1, 4))
    ledger.charge_move("seller")
    counts = ledger.move_counts
    with pytest.raises(Abort):
        with ledger.transaction():
            ledger.charge_move("buyer")
            ledger.escrow_deposit("seller", "c1", 1)
            assert counts == {"buyer": 1, "seller": 2}
            raise Abort
    assert counts == ledger.move_counts == {"seller": 1}
    assert ledger.fee_sink == Fraction(1, 4)


# ---------------------------------------------------------------------------
# Liveness payback
# ---------------------------------------------------------------------------

POLICY = TimeoutPolicy(threshold=10, timeout=30, deposit=6)


def payback(t, policy):
    """The refund of `policy.deposit` at t ticks, read off the one ramp rule `_repaid`."""
    share, whole = _repaid(t, policy)
    return policy.deposit * share / whole


def test_payback_full_until_threshold():
    assert payback(0, POLICY) == 6
    assert payback(10, POLICY) == 6


def test_payback_ramps_linearly():
    assert payback(20, POLICY) == 3  # midpoint of the ramp
    assert payback(15, POLICY) == Fraction(9, 2)


def test_payback_zero_from_timeout_on():
    assert payback(30, POLICY) == 0
    assert payback(1000, POLICY) == 0


def test_payback_is_monotone_and_continuous_at_the_threshold():
    values = [payback(t, POLICY) for t in range(0, 40)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    # Approaching the threshold from above: ramp value at threshold equals D.
    ramp_at_threshold = POLICY.deposit * (
        1 - Fraction(POLICY.threshold - POLICY.threshold, POLICY.timeout - POLICY.threshold)
    )
    assert ramp_at_threshold == payback(POLICY.threshold, POLICY)


def naive_deposit_payback(t, policy, deposit):
    """Reference: the refund of `deposit` at t ticks into a party's window,
    converting the deposit to a pair, checking its sign there and
    rebuilding a `Fraction` from it; the ledger's whole-tick and amount
    checks are written out."""
    if not isinstance(t, int) or isinstance(t, bool):
        raise ValueError(f"t must be a whole number of ticks, got {t!r}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    value = deposit if type(deposit) is Fraction or type(deposit) is int else as_fraction(deposit)
    pair = value.numerator, value.denominator
    if pair[0] < 0:
        raise ValueError(f"deposit must be >= 0, got {Fraction(*pair)}")
    amount = Fraction(*pair)
    if t <= policy.threshold:
        return amount
    if t < policy.timeout:
        return amount * Fraction(policy.timeout - t, policy.timeout - policy.threshold)
    return Fraction(0)


def outcome(fn, *args):
    """What a call returns, with its type, or the type and message of what it raises."""
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is part of the outcome
        return type(exc), str(exc)
    return type(result), result


DEPOSIT_CASES = [
    0, -1, 6, "-1/2", "3/4", "1.5", Fraction(-7, 3), Fraction(9, 2), 0.1, -0.25, True, False, "x", float("nan"), float("inf"),
]
DEPOSITS = st.one_of(
    st.sampled_from(DEPOSIT_CASES),
    st.integers(-5, 20),
    st.fractions(min_value=-5, max_value=20, max_denominator=24),
    st.fractions(min_value=-5, max_value=20, max_denominator=24).map(str),
    st.floats(min_value=-5, max_value=20),
)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), threshold=st.integers(0, 6), window=st.integers(1, 6), deposit=DEPOSITS)
def test_payback_matches_the_pair_rebuilding_reference(data, threshold, window, deposit):
    # The deposit is checked where the lab takes one, by `TimeoutPolicy`,
    # and repaid on `_repaid`, at every response time from 0.
    t = data.draw(st.integers(0, threshold + window + 2), label="t")
    ported = outcome(lambda: payback(t, TimeoutPolicy(threshold, threshold + window, deposit)))
    assert ported == outcome(naive_deposit_payback, t, TimeoutPolicy(threshold, threshold + window), deposit)


def test_payback_deposit_override_and_validation():
    # A bare policy leaves the deposit to the contract (the wager size); one
    # that fixes a deposit is repaid that amount.
    assert TimeoutPolicy(threshold=1, timeout=2).deposit is None
    assert payback(0, TimeoutPolicy(threshold=1, timeout=2, deposit=4)) == 4
    with pytest.raises(ValueError):
        TimeoutPolicy(threshold=5, timeout=5)


# ---------------------------------------------------------------------------
# Clock and timeout scheduler
# ---------------------------------------------------------------------------


def test_timeouts_fire_once_at_their_due_instant():
    ledger = fresh_ledger()
    fired = []
    ledger.register_timeout("c1", 5, lambda: fired.append(("c1", ledger.time)))
    ledger.advance_time(3)
    assert fired == []
    ledger.advance_time(10)
    assert fired == [("c1", 5)]
    assert ledger.time == 13
    ledger.advance_time(5)  # nothing left to fire
    assert fired == [("c1", 5)]


def test_timeouts_fire_in_due_then_contract_id_order():
    ledger = fresh_ledger()
    fired = []
    ledger.register_timeout("b", 5, lambda: fired.append("b"))
    ledger.register_timeout("a", 5, lambda: fired.append("a"))
    ledger.register_timeout("c", 2, lambda: fired.append("c"))
    ledger.advance_time(6)
    assert fired == ["c", "a", "b"]


def test_timeout_callbacks_may_chain_within_the_window():
    ledger = fresh_ledger()
    fired = []

    def first():
        fired.append("first")
        ledger.register_timeout("c1", ledger.time + 2, lambda: fired.append("second"))

    ledger.register_timeout("c1", 2, first)
    ledger.advance_time(10)
    assert fired == ["first", "second"]


def test_cancelled_timeouts_do_not_fire():
    ledger = fresh_ledger()
    fired = []
    ledger.register_timeout("c1", 2, lambda: fired.append("x"))
    ledger.cancel_timeout("c1")
    ledger.advance_time(5)
    assert fired == []


def test_time_only_moves_forward():
    ledger = fresh_ledger()
    with pytest.raises(ValueError):
        ledger.advance_time(0)
    with pytest.raises(ValueError):
        ledger.register_timeout("c1", 0, lambda: None)


TIMES = {
    "half a tick": lambda ledger: ledger.advance_time(1.5),
    "a ratio of ticks": lambda ledger: ledger.advance_time(Fraction(3, 2)),
    "a tick count in text": lambda ledger: ledger.advance_time("2"),
    "a fractional due": lambda ledger: ledger.register_timeout("c1", 2.5, lambda: None),
    "a fractional threshold": lambda ledger: TimeoutPolicy(0.5, 2),
    "a fractional timeout": lambda ledger: TimeoutPolicy(0, 2.5),
    "a timeout that is a float": lambda ledger: TimeoutPolicy(1, 3.0),
    "a bool as a tick count": lambda ledger: ledger.advance_time(True),
    "a bool as a due": lambda ledger: ledger.register_timeout("c1", True, lambda: None),
    "bools as threshold and timeout": lambda ledger: TimeoutPolicy(threshold=False, timeout=True),
}


@pytest.mark.parametrize("act", TIMES.values(), ids=TIMES.keys())
def test_time_is_counted_in_whole_ticks(act):
    ledger = fresh_ledger()
    before = ledger.snapshot()
    with pytest.raises(ValueError, match="must be a whole number of ticks"):
        act(ledger)
    assert ledger.snapshot() == before


BOOL_AMOUNTS = {
    "an opening balance": lambda ledger: ledger.open_account("a", True),
    "a deposit": lambda ledger: ledger.escrow_deposit("buyer", "c1", True),
    "a transfer": lambda ledger: ledger.transfer("buyer", "seller", False),
    "a fee": lambda ledger: Ledger(tau=True),
    "a liveness deposit": lambda ledger: TimeoutPolicy(1, 2, deposit=True),
}


@pytest.mark.parametrize("act", BOOL_AMOUNTS.values(), ids=BOOL_AMOUNTS.keys())
def test_a_bool_is_not_an_amount(act):
    ledger = fresh_ledger()
    before = ledger.snapshot()
    with pytest.raises(ValueError, match=r"^an amount must be a number, got (True|False)$"):
        act(ledger)
    assert ledger.snapshot() == before
    with pytest.raises(UnknownAccountError):
        ledger.balance("a")


def test_a_zero_denominator_is_refused_by_name_without_effect():
    ledger = fresh_ledger()
    before = ledger.snapshot()
    with pytest.raises(ValueError, match=r"^a rational needs a nonzero denominator, got '1/0'$"):
        ledger.escrow_deposit("buyer", "c1", "1/0")
    assert ledger.snapshot() == before
    assert ledger.move_counts == {} and "c1" not in ledger.pots


BAD_NAMES = {
    "an account name that is not a str": lambda ledger: ledger.open_account(7, 3),
    "an empty account name": lambda ledger: ledger.open_account("", 1),
    "an account name with a space": lambda ledger: ledger.open_account("a b", 1),
    "an account name with a newline": lambda ledger: ledger.open_account("a\n", 1),
    "a pot id that is not a str": lambda ledger: ledger.open_pot(7),
    "an empty pot id": lambda ledger: ledger.open_pot(""),
    "a pot id with a tab": lambda ledger: ledger.open_pot("c\t1"),
    "a deposit into a pot id that is not a str": lambda ledger: ledger.escrow_deposit("buyer", 7, 1),
    "a timeout id that is not a str": lambda ledger: ledger.register_timeout(5, 10, lambda: None),
    "a timeout id with a space": lambda ledger: ledger.register_timeout("c 1", 10, lambda: None),
}


@pytest.mark.parametrize("act", BAD_NAMES.values(), ids=BAD_NAMES.keys())
def test_a_name_snapshot_cannot_print_is_refused(act):
    ledger = fresh_ledger()
    before, pots = ledger.snapshot(), dict(ledger.pots)
    with pytest.raises(ValueError, match="must be a non-empty string without whitespace, got "):
        act(ledger)
    assert ledger.snapshot() == before and dict(ledger.pots) == pots
    # Names that print still work, and nothing was left armed.
    fired = []
    ledger.open_account("z", 1)
    ledger.register_timeout("a", 10, lambda: fired.append("a"))
    ledger.advance_time(20)
    assert fired == ["a"]
    assert ledger.snapshot() == before.replace("seller 10\n", "seller 10\nz 1\n").replace("time 0", "time 20")


@pytest.mark.parametrize("name", ["fee_sink", "arbiter_sink", "time", "pot:c1", "pot:"])
def test_an_account_cannot_take_a_name_of_the_snapshots_own_lines(name):
    ledger = fresh_ledger()
    before = ledger.snapshot()
    with pytest.raises(ValueError, match=f"account name '{name}' would read as a snapshot line of its own"):
        ledger.open_account(name, 5)
    assert ledger.snapshot() == before
    with pytest.raises(UnknownAccountError):
        ledger.balance(name)


def test_a_negative_deposit_has_no_payback():
    # A policy refuses a negative deposit by name, so the ramp never reads one.
    with pytest.raises(ValueError, match=r"^deposit must be >= 0, got -3$"):
        TimeoutPolicy(4, 12, deposit=-3)
    with pytest.raises(ValueError, match=r"^deposit must be >= 0, got -1/2$"):
        TimeoutPolicy(4, 12, deposit="-1/2")
    assert payback(5, TimeoutPolicy(4, 12, deposit=0)) == 0


NEGATIVE_AMOUNTS = {
    "tau": lambda ledger: Ledger(tau="-1/10"),
    "opening balance": lambda ledger: ledger.open_account("a", "-1/10"),
    "deposit": lambda ledger: TimeoutPolicy(1, 2, deposit="-1/10"),
}


@pytest.mark.parametrize("what", NEGATIVE_AMOUNTS)
def test_a_negative_amount_is_refused_by_name(what):
    ledger = fresh_ledger()
    before = ledger.snapshot()
    with pytest.raises(ValueError, match=rf"^{what} must be >= 0, got -1/10$"):
        NEGATIVE_AMOUNTS[what](ledger)
    assert ledger.snapshot() == before


def test_snapshot_format_is_stable():
    ledger = fresh_ledger(tau="1/10")
    ledger.escrow_deposit("buyer", "c1", 2)
    ledger.pot_to_arbiter("c1", 1)
    ledger.advance_time(4)
    assert ledger.snapshot() == (
        "buyer 79/10\n"
        "seller 10\n"
        "pot:c1 1\n"
        "fee_sink 1/10\n"
        "arbiter_sink 1\n"
        "time 4\n"
    )


POT_PAYOUTS = {
    "escrow_release": lambda ledger, pot, amount: ledger.escrow_release(pot, "seller", amount),
    "pot_to_arbiter": lambda ledger, pot, amount: ledger.pot_to_arbiter(pot, amount),
    "burn_from_pot": lambda ledger, pot, amount: ledger.burn_from_pot(pot, amount),
}


@pytest.mark.parametrize("op", POT_PAYOUTS.values(), ids=POT_PAYOUTS.keys())
@pytest.mark.parametrize("pot", [7, "x y", None, "c2"])
@pytest.mark.parametrize("amount", [0, 1])
def test_a_payout_out_of_a_pot_no_one_opened_is_refused(op, pot, amount):
    ledger = fresh_ledger()
    ledger.escrow_deposit("buyer", "c1", 3)
    before = ledger.snapshot(), dict(ledger.pots)
    with pytest.raises(UnknownPotError, match=r"^no pot .* on this ledger$"):
        op(ledger, pot, amount)
    assert (ledger.snapshot(), dict(ledger.pots)) == before
    op(ledger, "c1", amount)  # an open pot pays out as before


def test_open_pot_refuses_an_id_already_used():
    ledger = fresh_ledger()
    ledger.open_pot("c1")
    assert ledger.pot_balance("c1") == 0
    ledger.escrow_deposit("buyer", "c1", 1)
    ledger.escrow_release("c1", "seller", 1)
    before = ledger.snapshot()
    with pytest.raises(LedgerError, match="already open"):
        ledger.open_pot("c1")  # an emptied pot keeps its id
    assert ledger.snapshot() == before


def test_cancel_and_reregister_at_the_same_due_fires_only_the_new_callback():
    ledger = fresh_ledger()
    fired = []
    ledger.register_timeout("c1", 3, lambda: fired.append("old"))
    ledger.cancel_timeout("c1")
    ledger.register_timeout("c1", 3, lambda: fired.append("new"))
    ledger.advance_time(5)
    assert fired == ["new"]
    ledger.advance_time(5)
    assert fired == ["new"]


def test_a_raising_callback_leaves_the_clock_at_its_due_and_the_rest_pending():
    ledger = fresh_ledger()
    ledger.advance_time(6)
    fired = []

    def boom():
        fired.append(("a", ledger.time))
        raise Abort

    ledger.register_timeout("a", 8, boom)
    ledger.register_timeout("b", 9, lambda: fired.append(("b", ledger.time)))
    ledger.register_timeout("c", 9, lambda: fired.append(("c", ledger.time)))
    with pytest.raises(Abort):
        ledger.advance_time(5)
    assert ledger.time == 8
    assert fired == [("a", 8)]
    assert set(ledger._timeouts) == {"b", "c"}
    ledger.advance_time(1)
    assert fired == [("a", 8), ("b", 9), ("c", 9)]
    assert ledger.time == 9


def test_rearming_one_id_many_times_fires_once_and_keeps_little():
    ledger = fresh_ledger()
    fired = []
    for k in range(10_000):
        ledger.register_timeout("c1", 2 + k % 7, lambda k=k: fired.append((k, ledger.time)))
        # Whatever the scheduler keeps besides the one live timeout stays
        # within twice the live count plus a small constant.
        assert max(len(v) for v in vars(ledger).values() if isinstance(v, (list, dict))) <= 2 + 64
    ledger.advance_time(10)
    assert fired == [(9_999, 2 + 9_999 % 7)]


def test_a_heap_rebuild_inside_a_callback_keeps_the_firing_order():
    ledger = fresh_ledger()
    fired = []

    def rearm_b():
        fired.append(("a", ledger.time))
        for k in range(1_000):  # enough stale entries to rebuild mid-window
            ledger.register_timeout("b", ledger.time + 1 + k % 3, lambda: fired.append(("b", ledger.time)))

    ledger.register_timeout("a", 1, rearm_b)
    ledger.register_timeout("c", 2, lambda: fired.append(("c", ledger.time)))
    ledger.advance_time(5)
    assert fired == [("a", 1), ("b", 2), ("c", 2)]


def _scheduler_containers(ledger):
    """Every list and dict the ledger holds, and every one held inside a dict of them."""
    outer = [v for v in vars(ledger).values() if isinstance(v, (list, dict))]
    return outer + [v for held in outer if isinstance(held, dict) for v in held.values() if isinstance(v, (list, dict))]


def test_rearming_one_id_at_many_distinct_dues_keeps_every_container_small():
    ledger = fresh_ledger()
    fired = []
    for k in range(10_000):
        ledger.register_timeout("c1", 2 + k, lambda k=k: fired.append((k, ledger.time)))
        # One live timeout: nothing the scheduler keeps, a bucket of an
        # earlier due included, may grow past twice that plus 64.
        assert max(map(len, _scheduler_containers(ledger))) <= 2 * 1 + 64
    ledger.advance_time(20_000)
    assert fired == [(9_999, 2 + 9_999)]


def test_a_callback_that_cancels_or_rearms_an_unfired_id_of_its_own_due():
    ledger = fresh_ledger()
    fired = []

    def first():
        fired.append(("a", ledger.time))
        ledger.cancel_timeout("b")
        ledger.register_timeout("c", 6, lambda: fired.append(("c", ledger.time)))

    ledger.register_timeout("a", 3, first)
    ledger.register_timeout("b", 3, lambda: fired.append(("b", ledger.time)))
    ledger.register_timeout("c", 3, lambda: fired.append(("c-old", ledger.time)))
    ledger.advance_time(4)
    assert fired == [("a", 3)]
    ledger.advance_time(4)
    assert fired == [("a", 3), ("c", 6)]
    ledger.advance_time(10)
    assert fired == [("a", 3), ("c", 6)]


def test_a_raising_first_callback_of_a_due_leaves_the_other_two_pending_in_id_order():
    ledger = fresh_ledger()
    fired = []

    def boom():
        fired.append(("a", ledger.time))
        raise Abort

    ledger.register_timeout("c", 4, lambda: fired.append(("c", ledger.time)))
    ledger.register_timeout("a", 4, boom)
    ledger.register_timeout("b", 4, lambda: fired.append(("b", ledger.time)))
    with pytest.raises(Abort):
        ledger.advance_time(5)
    assert ledger.time == 4
    assert fired == [("a", 4)]
    ledger.advance_time(1)
    assert fired == [("a", 4), ("b", 4), ("c", 4)]
    assert ledger.time == 5


def test_a_callback_that_advances_the_clock_is_refused():
    ledger = fresh_ledger()
    fired = []
    ledger.register_timeout("a", 1, lambda: ledger.advance_time(3))
    ledger.register_timeout("b", 2, lambda: fired.append(("b", ledger.time)))
    # Refused inside the callback, so the outer call stops as at any raise:
    # the clock at the callback's due, the later timeout still pending.
    with pytest.raises(LedgerError, match="cannot advance the clock"):
        ledger.advance_time(2)
    assert (ledger.time, fired) == (1, [])
    ledger.advance_time(1)
    assert (ledger.time, fired) == (2, [("b", 2)])


class NaiveClock:
    """The sorted-scan scheduler the ledger used before its heap: every
    firing re-sorts all pending timeouts.  Kept as the reference."""

    def __init__(self):
        self.time = 0
        self._timeouts = {}

    def register_timeout(self, contract_id, due, callback):
        if due <= self.time:
            raise ValueError(f"due {due} is not in the future (now {self.time})")
        self._timeouts[contract_id] = (due, callback)

    def cancel_timeout(self, contract_id):
        self._timeouts.pop(contract_id, None)

    def advance_time(self, ticks):
        target = self.time + ticks
        while True:
            due_now = sorted(
                (due, cid) for cid, (due, _) in self._timeouts.items() if due <= target
            )
            if not due_now:
                break
            due, cid = due_now[0]
            _, callback = self._timeouts.pop(cid)
            self.time = max(self.time, due)
            callback()
        self.time = target


IDS = st.sampled_from("abcd")
# What a callback does when it fires: nothing, raise, cancel an id (its own
# included), or register an id (its own included) with a callback of its own.
CALLBACK = st.recursive(
    st.just(("none",)) | st.just(("raise",)) | st.tuples(st.just("cancel"), IDS),
    lambda inner: st.tuples(st.just("register"), IDS, st.integers(1, 3), inner),
    max_leaves=4,
)
SCHEDULE = st.lists(
    st.tuples(st.just("register"), IDS, st.integers(1, 4), CALLBACK)
    | st.tuples(st.just("cancel"), IDS)
    | st.tuples(st.just("advance"), st.integers(1, 5)),
    max_size=30,
)


def _run_schedule(clock, schedule):
    log = []

    def make(label, cid, action):
        def callback():
            log.append(("fire", label, cid, clock.time))
            if action[0] == "raise":
                raise Abort
            if action[0] == "cancel":
                clock.cancel_timeout(action[1])
            elif action[0] == "register":
                _, target, delta, inner = action
                clock.register_timeout(target, clock.time + delta, make(f"{label}>{target}", target, inner))

        return callback

    for k, step in enumerate(schedule):
        if step[0] == "register":
            _, cid, delta, action = step
            clock.register_timeout(cid, clock.time + delta, make(str(k), cid, action))
        elif step[0] == "cancel":
            clock.cancel_timeout(step[1])
        else:
            try:
                clock.advance_time(step[1])
            except Abort:
                log.append(("raised", clock.time))
        log.append(("time", clock.time))
    return log, clock.time, set(clock._timeouts)


@settings(max_examples=400, deadline=None)
@given(schedule=SCHEDULE)
def test_heap_scheduler_matches_the_sorted_scan(schedule):
    assert _run_schedule(fresh_ledger(), schedule) == _run_schedule(NaiveClock(), schedule)
