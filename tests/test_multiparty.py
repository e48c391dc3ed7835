import itertools
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escrowlab.ledger import InsufficientFundsError, Ledger, UnknownAccountError
from escrowlab.multiparty import (
    POT,
    MultipartyError,
    SettlementMatrix,
    multiparty_run,
)
from escrowlab.trade import as_fraction

from conftest import PAIR_STATES, matrices_from_states, two_party_trade_outcome


def fresh_ledger(names, endow=100, tau=0):
    ledger = Ledger(tau=tau)
    for name in names:
        ledger.open_account(name, endow)
    return ledger


def run(names, payments, disputes=None, counters=None, coin=None, endow=100, tau=0, seed=1):
    n = len(names)
    zeros = [[0] * n for _ in range(n)]
    ledger = fresh_ledger(names, endow, tau)
    result = multiparty_run(
        ledger,
        names,
        payments,
        disputes or zeros,
        counters or zeros,
        rng=Random(seed),
        coin_matrix=coin,
    )
    return ledger, result


# ---------------------------------------------------------------------------
# Basic flows
# ---------------------------------------------------------------------------


def test_dispute_free_batch_is_two_independent_honest_trades():
    ledger, result = run(["p1", "p2"], [[0, 3], [5, 0]])
    # Each party receives the column sum of payments.
    assert result.payouts == (5, 3)
    assert ledger.balance("p1") == 100 - 3 + 5
    assert ledger.balance("p2") == 100 - 5 + 3
    assert ledger.pot_balance("multiparty") == 0


def test_forfeited_dispute_refunds_price_and_wager():
    # p1 disputes the item bought from p2; p2 does not counter.
    ledger, result = run(
        ["p1", "p2"],
        [[0, 3], [0, 0]],
        disputes=[[0, 1], [0, 0]],
    )
    assert result.payouts == (6, 0)  # price 3 + wager 3 back
    assert ledger.balance("p1") == 100
    assert ledger.balance("p2") == 100


def test_countered_dispute_settles_by_the_coin():
    payments = [[0, 3], [0, 0]]
    disputes = [[0, 1], [0, 0]]
    counters = [[0, 0], [1, 0]]
    seller_coin = [[0, 1], [0, 0]]
    ledger, result = run(["p1", "p2"], payments, disputes, counters, coin=seller_coin)
    assert result.payouts == (0, 6)
    assert ledger.balance("p1") == 94  # price and wager lost
    assert ledger.balance("p2") == 103  # price won, own wager back
    assert ledger.arbiter_sink == 3

    buyer_coin = [[0, 0], [0, 0]]
    ledger, result = run(["p1", "p2"], payments, disputes, counters, coin=buyer_coin)
    assert result.payouts == (6, 0)
    assert ledger.balance("p1") == 100
    assert ledger.balance("p2") == 97
    assert ledger.arbiter_sink == 3


def test_sampled_coin_is_deterministic_per_seed():
    payments = [[0, 3], [4, 0]]
    disputes = [[0, 1], [1, 0]]
    counters = [[0, 1], [1, 0]]
    _, a = run(["p1", "p2"], payments, disputes, counters, seed=42)
    _, b = run(["p1", "p2"], payments, disputes, counters, seed=42)
    assert a == b


# ---------------------------------------------------------------------------
# Composition oracle
# ---------------------------------------------------------------------------


def assert_composes(names, trades, states, endow=1000):
    n = len(names)
    payments, disputes, counters, coin = matrices_from_states(n, trades, states)
    ledger = fresh_ledger(names, endow)
    multiparty_run(ledger, names, payments, disputes, counters, coin_matrix=coin)

    expected_delta = {name: Fraction(0) for name in names}
    expected_sink = Fraction(0)
    for (i, j, price), state in zip(trades, states):
        buyer_delta, seller_delta, sink = two_party_trade_outcome(price, state)
        expected_delta[names[i]] += buyer_delta
        expected_delta[names[j]] += seller_delta
        expected_sink += sink
    for name in names:
        assert ledger.balance(name) - endow == expected_delta[name], (states, name)
    assert ledger.arbiter_sink == expected_sink
    assert ledger.pot_balance("multiparty") == 0
    assert ledger.total_funds() == endow * n + 0  # conservation


def test_exhaustive_two_party_batches_compose():
    names = ["p1", "p2"]
    trades = [(0, 1, 3), (1, 0, 5)]  # both directions traded
    for states in itertools.product(PAIR_STATES, repeat=len(trades)):
        assert_composes(names, trades, list(states))


def test_random_three_party_batches_compose():
    rng = Random(7)
    names = ["p1", "p2", "p3"]
    trades = [(i, j, rng.randint(1, 6)) for i in range(3) for j in range(3) if i != j]
    for _ in range(100):
        states = [rng.choice(PAIR_STATES) for _ in trades]
        assert_composes(names, trades, states)


# ---------------------------------------------------------------------------
# Fee accounting
# ---------------------------------------------------------------------------


def test_at_most_four_fee_bearing_interactions_per_party():
    rng = Random(11)
    names = ["p1", "p2", "p3", "p4"]
    trades = [(i, j, 2) for i in range(4) for j in range(4) if i != j]
    for _ in range(50):
        states = [rng.choice(PAIR_STATES) for _ in trades]
        payments, disputes, counters, coin = matrices_from_states(4, trades, states)
        ledger = fresh_ledger(names, endow=1000, tau="1/10")
        multiparty_run(ledger, names, payments, disputes, counters, coin_matrix=coin)
        assert all(count <= 4 for count in ledger.move_counts.values())
        assert sum(ledger.move_counts.values()) <= 4 * len(names)


def test_every_step_charges_one_interaction():
    # One party pays, disputes, counters, and withdraws: four interactions.
    payments = [[0, 3, 0], [0, 0, 0], [0, 0, 0]]
    # p1 disputes its purchase from p2... and p2 disputes nothing; p3 idle.
    disputes = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    counters = [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
    coin = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]  # buyer wins
    ledger = fresh_ledger(["p1", "p2", "p3"], tau="1/10")
    multiparty_run(ledger, ["p1", "p2", "p3"], payments, disputes, counters, coin_matrix=coin)
    assert ledger.move_counts == {"p1": 3, "p2": 1}  # pay+wager+withdraw; counter only
    assert "p3" not in ledger.move_counts


# ---------------------------------------------------------------------------
# Default conversion on missing deposits
# ---------------------------------------------------------------------------


def test_unfunded_purchases_are_cancelled():
    ledger = fresh_ledger(["rich"], endow=100)
    ledger.open_account("poor", 1)
    result = multiparty_run(
        ledger, ["rich", "poor"], [[0, 2], [3, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]],
        rng=Random(1),
    )
    assert result.payments == ((Fraction(0), Fraction(2)), (Fraction(0), Fraction(0)))
    assert ledger.balance("poor") == 3  # received the sale, bought nothing


def test_unfunded_disputes_default_to_acceptance():
    ledger = fresh_ledger(["seller"], endow=100)
    ledger.open_account("buyer", 4)  # covers the price 4, not the wager
    result = multiparty_run(
        ledger, ["buyer", "seller"], [[0, 4], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 0]],
        rng=Random(1),
    )
    assert result.disputes == ((0, 0), (0, 0))
    assert ledger.balance("seller") == 104


def test_unfunded_counters_default_to_forfeit():
    ledger = fresh_ledger(["buyer"], endow=100)
    ledger.open_account("seller", 0)
    result = multiparty_run(
        ledger, ["buyer", "seller"], [[0, 4], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]],
        rng=Random(1),
    )
    assert result.counters == ((0, 0), (0, 0))
    assert ledger.balance("buyer") == 100  # refunded as a forfeited dispute


# ---------------------------------------------------------------------------
# All or nothing
# ---------------------------------------------------------------------------


def test_an_unpayable_withdrawal_fee_leaves_the_ledger_as_it_was():
    # b's payout of 3 cannot cover the fee of 5 on b's withdrawal; a's
    # deposit and fee, already taken, are put back.
    ledger = Ledger(tau=5)
    ledger.open_account("a", 10)
    ledger.open_account("b", 0)
    zeros = [[0, 0], [0, 0]]
    before = ledger.snapshot()
    with pytest.raises(InsufficientFundsError, match="b has 0, needs 2"):
        multiparty_run(ledger, ["a", "b"], [[0, 3], [0, 0]], zeros, zeros, coin_matrix=zeros)
    assert ledger.snapshot() == before
    assert ledger.move_counts == {}
    assert "multiparty" not in ledger.pots


def test_a_party_with_no_account_leaves_the_ledger_as_it_was():
    # a and b deposit their purchases, with fees, before the batch reaches
    # the party the ledger has never heard of.
    ledger = Ledger(tau=1)
    ledger.open_account("a", 10)
    ledger.open_account("b", 10)
    ledger.charge_move("a")
    before, counts = ledger.snapshot(), dict(ledger.move_counts)
    payments = [[0, 1, 0], [2, 0, 0], [0, 3, 0]]
    zeros = [[0] * 3 for _ in range(3)]
    with pytest.raises(UnknownAccountError, match="ghost"):
        multiparty_run(ledger, ["a", "b", "ghost"], payments, zeros, zeros, coin_matrix=zeros)
    assert ledger.snapshot() == before
    assert ledger.move_counts == counts


BITS = st.integers(0, 1)
PRICES = st.sampled_from([0, Fraction(1, 2), 1])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), tau=st.sampled_from([0, 1, 2]))
def test_a_batch_conserves_funds_or_changes_nothing(data, tau):
    # Short endowments: some steps go unfunded and some withdrawal fees
    # cannot be paid.  Two batches run on one ledger, so the second starts
    # from the first one's move counts and pot.
    n = data.draw(st.integers(2, 4))
    names = [f"p{i}" for i in range(n)]

    def grid(entries):
        return data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))

    ledger = Ledger(tau=tau)
    for name in names:
        ledger.open_account(name, data.draw(st.integers(0, 3)))
    total = ledger.total_funds()
    for _ in range(2):
        payments = grid(PRICES)
        for i in range(n):
            payments[i][i] = 0
        before, counts = ledger.snapshot(), dict(ledger.move_counts)
        try:
            multiparty_run(ledger, names, payments, grid(BITS), grid(BITS), coin_matrix=grid(BITS))
        except InsufficientFundsError:
            assert ledger.snapshot() == before
            assert ledger.move_counts == counts
        else:
            assert ledger.pot_balance("multiparty") == 0
        assert ledger.total_funds() == total


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_input_validation():
    ledger = fresh_ledger(["a", "b"])
    with pytest.raises(MultipartyError):
        multiparty_run(ledger, ["a"], [[0]], [[0]], [[0]], rng=Random(1))
    with pytest.raises(MultipartyError):
        multiparty_run(ledger, ["a", "b"], [[1, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]], rng=Random(1))
    with pytest.raises(MultipartyError):
        multiparty_run(ledger, ["a", "b"], [[0, -1], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]], rng=Random(1))
    with pytest.raises(MultipartyError):
        multiparty_run(ledger, ["a", "b"], [[0, 1], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]])  # no rng
    with pytest.raises(MultipartyError, match=r"^payments entries must be rationals >= 0$"):
        multiparty_run(ledger, ["a", "b"], [[0, True], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]], rng=Random(1))
    # A bit that int() would truncate is refused, in every bit grid.
    for name in ("disputes", "counters", "coin"):
        for bit in (1.7, 0.5, Fraction(1, 2), float("inf"), 1 + 0j):
            grids = {"disputes": [[0, 1], [0, 0]], "counters": [[0, 0], [1, 0]], "coin": [[0, 1], [0, 0]]}
            grids[name][0][0] = bit
            with pytest.raises(MultipartyError, match=rf"^{name} entries must be 0 or 1$"):
                multiparty_run(
                    ledger, ["a", "b"], [[0, 1], [0, 0]], grids["disputes"], grids["counters"],
                    coin_matrix=grids["coin"],
                )
    with pytest.raises(MultipartyError, match=r"^disputes entries must be 0 or 1$"):  # a one-pass row too
        multiparty_run(ledger, ["a", "b"], [[0, 1], [0, 0]], [iter([0, 1.5]), [0, 0]], [[0, 0], [0, 0]], rng=Random(1))
    # A grid with a row too few or a row too many is refused, in every grid.
    for name in ("payments", "disputes", "counters", "coin"):
        for rows in ([[0, 0]], [[0, 0], [0, 0], [7, 7]]):
            grids = {"payments": [[0, 1], [0, 0]], "disputes": [[0, 1], [0, 0]], "counters": [[0, 0], [1, 0]],
                     "coin": [[0, 1], [0, 0]]}
            grids[name] = rows
            with pytest.raises(MultipartyError, match=rf"^{name} must be 2x2$"):
                multiparty_run(
                    ledger, ["a", "b"], grids["payments"], grids["disputes"], grids["counters"],
                    coin_matrix=grids["coin"],
                )
    assert ledger.snapshot() == fresh_ledger(["a", "b"]).snapshot()


# ---------------------------------------------------------------------------
# Per-trade settlement against the dense per-cell loop
# ---------------------------------------------------------------------------


def _dense_matrix(n, rows, name, entry, valid, rule):
    if len(rows) != n:
        raise MultipartyError(f"{name} must be {n}x{n}")
    out = []
    for i in range(n):
        try:
            row = [entry(v) for v in rows[i]]
        except (TypeError, ValueError, OverflowError):
            raise MultipartyError(f"{name} entries must be {rule}") from None
        if len(row) != n:
            raise MultipartyError(f"{name} must be {n}x{n}")
        if not valid(row):
            raise MultipartyError(f"{name} entries must be {rule}")
        out.append(row)
    return out


def _bit(value):
    """A bit as the batch reads it: a string is parsed, and a number must be whole."""
    bit = int(value)
    if not isinstance(value, str) and bit != value:
        raise ValueError(f"{value!r} is not whole")
    return bit


def _dense_bits(n, rows, name):
    return _dense_matrix(n, rows, name, _bit, lambda row: set(row) <= {0, 1}, "0 or 1")


def naive(ledger, parties, payments, disputes, counters, rng=None, coin_matrix=None):
    """Reference: every step walks all n^2 cells of the grid."""
    parties = tuple(parties)
    n = len(parties)
    if n < 2:
        raise MultipartyError("need at least two parties")
    if len(set(parties)) != n:
        raise MultipartyError("party names must be distinct")
    x = _dense_matrix(
        n, payments, "payments", as_fraction, lambda row: min(row, default=0) >= 0, "rationals >= 0"
    )
    if any(x[i][i] for i in range(n)):
        raise MultipartyError("self-payments are not allowed")
    d = _dense_bits(n, disputes, "disputes")
    c = _dense_bits(n, counters, "counters")
    if coin_matrix is None:
        if rng is None:
            raise MultipartyError("need an rng or an explicit coin matrix")
        b = [[rng.getrandbits(1) for _ in range(n)] for _ in range(n)]
    else:
        b = _dense_bits(n, coin_matrix, "coin")

    def unfunded(i, total):
        if total == 0:
            return False
        try:
            ledger.escrow_deposit(parties[i], POT, total, contract_move=True)
        except InsufficientFundsError:
            return True
        return False

    with ledger.transaction():
        for i in range(n):
            if unfunded(i, sum(x[i], Fraction(0))):
                x[i] = [Fraction(0)] * n
        for i in range(n):
            d[i] = [d[i][j] if x[i][j] > 0 else 0 for j in range(n)]
            if unfunded(i, sum((x[i][j] for j in range(n) if d[i][j]), Fraction(0))):
                d[i] = [0] * n
        for i in range(n):
            c[i] = [c[i][j] if d[j][i] else 0 for j in range(n)]
            if unfunded(i, sum((x[j][i] for j in range(n) if c[i][j]), Fraction(0))):
                c[i] = [0] * n
        payouts = [Fraction(0)] * n
        for i in range(n):
            for j in range(n):
                price = x[i][j]
                if price == 0:
                    continue
                if not d[i][j]:
                    payouts[j] += price
                elif not c[j][i]:
                    payouts[i] += 2 * price
                else:
                    payouts[j if b[i][j] else i] += 2 * price
                    ledger.pot_to_arbiter(POT, price)
        for i, party in enumerate(parties):
            if payouts[i] > 0:
                ledger.escrow_release(POT, party, payouts[i], contract_move=True)

    return SettlementMatrix(
        payments=tuple(tuple(row) for row in x),
        disputes=tuple(tuple(row) for row in d),
        counters=tuple(tuple(row) for row in c),
        coin=tuple(tuple(row) for row in b),
        payouts=tuple(payouts),
    )


class RecordingLedger(Ledger):
    """A ledger that also keeps the list of batch calls made on it."""

    def __init__(self, tau=0):
        super().__init__(tau)
        self.calls = []

    def escrow_deposit(self, *args, **kwargs):
        self.calls.append(("escrow_deposit", args, kwargs))
        super().escrow_deposit(*args, **kwargs)

    def escrow_release(self, *args, **kwargs):
        self.calls.append(("escrow_release", args, kwargs))
        super().escrow_release(*args, **kwargs)

    def pot_to_arbiter(self, *args, **kwargs):
        self.calls.append(("pot_to_arbiter", args, kwargs))
        super().pot_to_arbiter(*args, **kwargs)


ZEROS = [0, Fraction(0), 0.0, "0", "0/3"]
ENTRIES = ZEROS * 2 + [1, 2, Fraction(1, 3), Fraction(3, 2), 0.5, 1.25, "1/2", "0.5", "2"]
MALFORMED = [-1, Fraction(-1, 2), -0.5, "-1/2", "x", "", None, 1 + 0j, 0j, float("nan"), True, False, 1]
#: Numbers equal to 0 or 1 that both sides read as bits, as (0, 1) pairs.
SPELLED_BITS = [0, 1, False, True, 0.0, 1.0, Fraction(0), Fraction(1)]


def _outcome(run, tau, endow, *args, **kwargs):
    ledger = RecordingLedger(tau=tau)
    for name, amount in endow.items():
        ledger.open_account(name, amount)
    before = ledger.snapshot()
    try:
        result = run(ledger, *args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        assert ledger.snapshot() == before
        assert ledger.move_counts == {}
        return ("raised", type(exc), str(exc), ledger.calls)
    return (repr(result), result, ledger.snapshot(), ledger.move_counts, ledger.calls)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), tau=st.sampled_from([0, Fraction(1, 10), 2]))
def test_per_trade_settlement_matches_the_dense_loop(data, tau):
    n = data.draw(st.integers(2, 6))
    names = [f"p{i}" for i in range(n)]

    def grid(entries):
        return data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))

    payments = grid(st.sampled_from(ENTRIES))
    for i in range(n):
        payments[i][i] = data.draw(st.sampled_from(ZEROS))
    if data.draw(st.integers(0, 4)) == 0:  # one malformed entry, self-payments included
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        payments[i][j] = data.draw(st.sampled_from(MALFORMED))
    if data.draw(st.integers(0, 4)) == 0:  # one ragged row
        row = payments[data.draw(st.integers(0, n - 1))]
        if data.draw(st.booleans()):
            row.pop()
        else:
            row.append(data.draw(st.sampled_from(ENTRIES + MALFORMED)))
    # Each bit row is ints, or numbers of any spelling that equal 0 or 1.
    bit_row = st.lists(st.sampled_from([0, 1, 1]), min_size=n, max_size=n) | st.lists(
        st.sampled_from(SPELLED_BITS), min_size=n, max_size=n
    )
    disputes = data.draw(st.lists(bit_row, min_size=n, max_size=n))
    counters = data.draw(st.lists(bit_row, min_size=n, max_size=n))
    if data.draw(st.integers(0, 9)) == 0:  # one bit that is not 0 or 1, or is spelled otherwise
        bits = data.draw(st.sampled_from([disputes, counters]))
        bits[data.draw(st.integers(0, n - 1))][0] = data.draw(
            st.sampled_from([2, "1", "x", 0.5, 1.7, 1.0, True, 1 + 0j])
        )
    coin = grid(st.sampled_from([0, 1])) if data.draw(st.booleans()) else None
    if data.draw(st.integers(0, 9)) == 0:  # one grid with a row too few or a row too many
        rows = data.draw(st.sampled_from([g for g in (payments, disputes, counters, coin) if g is not None]))
        if data.draw(st.booleans()):
            rows.pop(data.draw(st.integers(0, n - 1)))
        else:
            rows.append(data.draw(st.sampled_from([[0] * n, [7] * n, list(rows[0])])))
    seed = data.draw(st.integers(0, 2**16))
    # Short endowments: some steps go unfunded, some withdrawal fees cannot be paid.
    endow = {name: data.draw(st.sampled_from([0, Fraction(1, 2), 1, 3, 6, 20])) for name in names}

    outcomes, states = [], []
    for run in (multiparty_run, naive):
        rng = Random(seed)
        outcomes.append(_outcome(
            run, tau, endow, names, [list(row) for row in payments], disputes, counters,
            rng=rng, coin_matrix=coin,
        ))
        states.append(rng.getstate())
    assert outcomes[0] == outcomes[1]
    assert states[0] == states[1]


# ---------------------------------------------------------------------------
# Integer settlement sums against the Fraction sums of the dense loop
# ---------------------------------------------------------------------------


COPRIME = [Fraction(1, 3), Fraction(2, 7), Fraction(5, 11), "7/13", 0.2, Fraction(10**6, 999983)]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), tau=st.sampled_from([0, Fraction(1, 10), Fraction(3, 7)]))
def test_integer_sums_match_fraction_sums_on_coprime_denominators(data, tau):
    n = data.draw(st.integers(2, 6))
    names = [f"p{i}" for i in range(n)]

    def grid(entries):
        return data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))

    payments = grid(st.sampled_from([0, 0] + COPRIME))
    for i in range(n):
        payments[i][i] = 0
    disputes = grid(st.sampled_from([0, 1, 1]))
    counters = grid(st.sampled_from([0, 1, 1]))
    coin = grid(st.sampled_from([0, 1])) if data.draw(st.booleans()) else None
    seed = data.draw(st.integers(0, 2**16))
    endow = {name: data.draw(st.sampled_from([0, Fraction(1, 3), Fraction(5, 7), 2, 20])) for name in names}

    outcomes, states = [], []
    for run in (multiparty_run, naive):
        rng = Random(seed)
        outcomes.append(_outcome(
            run, tau, endow, names, [list(row) for row in payments], disputes, counters,
            rng=rng, coin_matrix=coin,
        ))
        states.append(rng.getstate())
    assert outcomes[0] == outcomes[1]
    assert states[0] == states[1]


def test_a_sale_a_refund_and_a_coin_win_sum_into_one_exact_payout():
    # "a" sells to "b" at 1/3 (accepted), is refunded the price and wager of
    # its forfeited dispute with "c" at 2/7, and wins the coin toss of its
    # countered dispute with "d" at 3/11.
    names = ["a", "b", "c", "d"]
    payments = [
        [0, 0, Fraction(2, 7), Fraction(3, 11)],
        [Fraction(1, 3), 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ]
    disputes = [[0, 0, 1, 1], [0] * 4, [0] * 4, [0] * 4]
    counters = [[0] * 4, [0] * 4, [0] * 4, [1, 0, 0, 0]]
    coin = [[0] * 4 for _ in range(4)]  # the buyer wins
    ledger = RecordingLedger(tau=Fraction(1, 10))
    for name in names:
        ledger.open_account(name, 10)
    result = multiparty_run(ledger, names, payments, disputes, counters, coin_matrix=coin)

    owed = Fraction(1, 3) + 2 * Fraction(2, 7) + 2 * Fraction(3, 11)
    assert result.payouts[0] == owed
    releases = [args for kind, args, _ in ledger.calls if kind == "escrow_release" and args[1] == "a"]
    assert releases == [(POT, "a", owed)]
    assert type(releases[0][2]) is Fraction


def test_a_ragged_row_is_reported_before_its_negative_entry():
    ledger = fresh_ledger(["a", "b"])
    zeros = [[0, 0], [0, 0]]
    with pytest.raises(MultipartyError, match="payments must be 2x2"):
        multiparty_run(ledger, ["a", "b"], [[0, -1, 0], [0, 0]], zeros, zeros, coin_matrix=zeros)
    with pytest.raises(MultipartyError, match="payments must be 2x2"):
        multiparty_run(ledger, ["a", "b"], [[0, 0], [Fraction(-1, 3)]], zeros, zeros, coin_matrix=zeros)


@pytest.mark.parametrize("run", [multiparty_run, naive], ids=["batch", "dense reference"])
def test_whole_numbers_and_strings_still_read_as_bits(run):
    # "a" pays "b" 1 and disputes; "b" counters; the coin names "b" the winner.
    spellings = [
        ([[0, 1.0], [0, 0]], [[0, 0], [" 1", 0]], [[Fraction(0), True], [0, "0"]]),
        *(
            ([[zero, one], [zero, zero]], [[zero, zero], [one, zero]], [[zero, one], [zero, zero]])
            for zero, one in zip(SPELLED_BITS[::2], SPELLED_BITS[1::2])
        ),
    ]
    for disputes, counters, coin in spellings:
        result = run(fresh_ledger(["a", "b"]), ["a", "b"], [[0, 1], [0, 0]], disputes, counters, coin_matrix=coin)
        assert repr((result.disputes, result.counters, result.coin)) == "(((0, 1), (0, 0)), ((0, 0), (1, 0)), ((0, 1), (0, 0)))"
        assert result.payouts == (0, 2)
    # 1 + 0j equals 1 but is not a bit.
    for name, (disputes, counters, coin) in zip(("disputes", "counters", "coin"), [
        ([[0, 1 + 0j], [0, 0]], [[0, 0], [1, 0]], [[0, 1], [0, 0]]),
        ([[0, 1], [0, 0]], [[0, 0], [1 + 0j, 0]], [[0, 1], [0, 0]]),
        ([[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 1 + 0j], [0, 0]]),
    ]):
        with pytest.raises(MultipartyError, match=rf"^{name} entries must be 0 or 1$"):
            run(fresh_ledger(["a", "b"]), ["a", "b"], [[0, 1], [0, 0]], disputes, counters, coin_matrix=coin)


@pytest.mark.parametrize("n", [2, 7, 50, 200])
def test_the_drawn_coin_grid_is_n_squared_single_bit_draws(n):
    names = [f"p{i}" for i in range(n)]
    zeros = [[0] * n for _ in range(n)]
    for seed in (0, 1, 2, 2**40 + 3):
        rng, reference = Random(seed), Random(seed)
        result = multiparty_run(Ledger(), names, zeros, zeros, zeros, rng=rng)
        expected = tuple(tuple(reference.getrandbits(1) for _ in range(n)) for _ in range(n))
        assert repr(result.coin) == repr(expected)
        assert rng.getstate() == reference.getstate()
