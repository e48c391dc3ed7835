from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escrowlab.arbiter import arbiter_errs
from escrowlab.equilibrium import lambda_interval
from escrowlab.trade import (
    AffineWager,
    Generic,
    InvalidSchemeError,
    InvalidTradeError,
    Standard,
    TradeParams,
    WinnerRebate,
    Withheld,
    as_fraction,
    params_from_kv,
    read_kv,
)


def test_params_coerce_to_exact_fractions():
    p = TradeParams(price="1", seller_value=0, buyer_value="3/2", arbiter_error=0.25, fee="0.1")
    assert p.buyer_value == Fraction(3, 2)
    assert p.arbiter_error == Fraction(1, 4)
    assert p.fee == Fraction(1, 10)


def test_as_fraction_uses_decimal_repr_for_floats():
    assert as_fraction(0.1) == Fraction(1, 10)
    assert as_fraction("1/3") == Fraction(1, 3)


@pytest.mark.parametrize(
    "price,seller_value,buyer_value",
    [
        (1, 0, 1),    # y == x
        (1, 1, 2),    # x == x'
        (1, 2, 3),    # x < x'
        (2, 1, "3/2"),  # y < x
    ],
)
def test_ill_posed_trades_rejected(price, seller_value, buyer_value):
    with pytest.raises(InvalidTradeError):
        TradeParams(price=price, seller_value=seller_value, buyer_value=buyer_value)


def test_out_of_range_error_rate_and_fee_rejected():
    with pytest.raises(InvalidTradeError):
        TradeParams(price=1, buyer_value=2, arbiter_error="3/2")
    with pytest.raises(InvalidTradeError):
        TradeParams(price=1, buyer_value=2, fee=-1)


BOOLS = {
    "a price": lambda: TradeParams(price=True, buyer_value=2),
    "a buyer value": lambda: TradeParams(price=1, buyer_value=True),
    "an error rate": lambda: TradeParams(price=1, buyer_value=2, arbiter_error=False),
    "a fee": lambda: TradeParams(price=1, buyer_value=2, fee=False),
    "a wager": lambda: Standard(True),
    "a generic payout": lambda: Generic(win_amount=True, loss_amount=1),
    "an oracle's error rate": lambda: arbiter_errs(True, Random(1)),
    "a coerced amount": lambda: as_fraction(False),
}


@pytest.mark.parametrize("make", BOOLS.values(), ids=BOOLS.keys())
def test_a_bool_is_not_a_number(make):
    with pytest.raises(ValueError, match=r"^an amount must be a number, got (True|False)$"):
        make()


ZERO_DENOMINATORS = {
    "a coerced amount": lambda: as_fraction("1/0"),
    "a price": lambda: TradeParams(price="1/0", buyer_value=2),
    "a wager": lambda: Standard("1/0"),
    "a parameter file": lambda: params_from_kv({"x": "1", "y": "2", "gamma": "1/0"}),
    "an oracle's error rate": lambda: arbiter_errs("1/0", Random(1)),
}


@pytest.mark.parametrize("make", ZERO_DENOMINATORS.values(), ids=ZERO_DENOMINATORS.keys())
def test_a_zero_denominator_is_refused_by_name(make):
    with pytest.raises(ValueError, match=r"^a rational needs a nonzero denominator, got '1/0'$"):
        make()


RATIONALS = st.fractions(min_value=Fraction(1, 60), max_value=100, max_denominator=60)


@settings(max_examples=200, deadline=None)
@given(price=RATIONALS, wager=RATIONALS, kind=st.sampled_from([Standard, WinnerRebate, Withheld]))
def test_win_gain_is_the_price_plus_the_slope_times_the_wager(price, wager, kind):
    params = TradeParams(price=price, buyer_value=price + 1)
    gain = kind(wager).win_gain(params)
    assert type(gain) is Fraction and gain == params.price + kind.slope * wager
    if kind.slope == 0:  # the price as it is, with no arithmetic
        assert gain is params.price


def test_a_fraction_is_kept_and_a_wager_has_one_check():
    third = Fraction(1, 3)
    assert as_fraction(third) is third
    assert AffineWager.checked(third) is third and Standard(third).wager is third
    assert AffineWager.checked("0.5") == Fraction(1, 2)
    with pytest.raises(InvalidSchemeError, match="^wager must be > 0, got -1/3$"):
        AffineWager.checked(-third)


def naive_as_fraction(value):
    """Reference: `as_fraction` as it was, every string through `Fraction`'s
    parser, except that a string with "_" is refused on every Python version
    with the message 3.10's parser gives (3.11's reads "1_000" as 1000)."""
    if type(value) is Fraction:
        return value
    if isinstance(value, str) and "_" in value:
        raise ValueError(f"Invalid literal for Fraction: {value!r}")
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, bool):
        raise ValueError(f"an amount must be a number, got {value!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"a rational needs a nonzero denominator, got {value!r}") from None


DIGITS = st.text("0123456789", min_size=1, max_size=6)
SIGN = st.sampled_from(["", "+", "-"])
#: Pieces of a number: ASCII digit runs (leading zeros included), signs,
#: whitespace, '_', '/', a decimal point, and digits outside ASCII.  No
#: exponent marker, so a run of pieces never spells a huge power of ten.
PIECE = st.one_of(
    DIGITS,
    st.sampled_from(["+", "-", " ", "\t", "\n", "_", "/", ".", "0", "00", "١", "٣", "²", "１", "０", "½"]),
)
NUMERIC_STRINGS = st.one_of(
    DIGITS,
    st.builds("{}/{}".format, DIGITS, DIGITS),
    st.lists(PIECE, max_size=6).map("".join),
    st.builds("{}{}{}e{}{}".format, SIGN, DIGITS, st.sampled_from(["", ".", ".5"]), SIGN, st.integers(0, 500)),
)


def outcome(parse, text):
    try:
        value = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), value


@settings(max_examples=1000, deadline=None)
@given(text=NUMERIC_STRINGS)
def test_as_fraction_reads_every_string_as_the_fraction_parser_did(text):
    assert outcome(as_fraction, text) == outcome(naive_as_fraction, text)


@pytest.mark.parametrize("text", [
    "12", "007", "3/4", "006/008", "0/5", "1/0", "1/00", "", "/", "1/2/3", "-1/2", " 1/2", "1_000", "1_000/3",
    "1.5e3", "1e400", "١", "١/٢", "²", "１", "1/１",
])
def test_as_fraction_reads_the_edge_spellings_as_the_fraction_parser_did(text):
    assert outcome(as_fraction, text) == outcome(naive_as_fraction, text)
    if "_" in text:  # refused alike on every Python version
        assert outcome(as_fraction, text) == (ValueError, f"Invalid literal for Fraction: {text!r}")


def test_named_schemes_require_positive_wager():
    for kind in (Standard, WinnerRebate, Withheld):
        with pytest.raises(InvalidSchemeError):
            kind(0)
        with pytest.raises(InvalidSchemeError):
            kind(-1)


def test_generic_requires_winning_preferred():
    Generic(win_amount=1, loss_amount=1)
    Generic(win_amount="-1/2", loss_amount=1)  # win > -loss still holds
    with pytest.raises(InvalidSchemeError):
        Generic(win_amount=-1, loss_amount=1)
    with pytest.raises(InvalidSchemeError):
        Generic(win_amount=-2, loss_amount=1)


def test_scheme_payout_parameters():
    p = TradeParams(price=4, seller_value=1, buyer_value=9)
    assert Standard(3).win_gain(p) == 4 and Standard(3).loss_cost(p) == 3
    assert WinnerRebate(3).win_gain(p) == 7
    assert Withheld(3).win_gain(p) == 1
    # One affine rule: win = price + slope * wager, stake = loss = wager.
    assert (Standard.slope, WinnerRebate.slope, Withheld.slope) == (0, 1, -1)
    assert WinnerRebate(3).loss_cost(p) == Withheld(3).loss_cost(p) == 3
    g = Generic(win_amount=5, loss_amount=2)
    assert g.win_gain(p) == 5 and g.loss_cost(p) == 2


def test_kv_round_trip_named_scheme():
    p = TradeParams(price=1, seller_value="1/3", buyer_value=2, arbiter_error="1/4", fee="1/10")
    text = "x=1\nx_seller=1/3\ny=2\ngamma=1/4\ntau=1/10\nscheme=standard\nlambda=5/4\n"
    params, scheme = params_from_kv(read_kv(text))
    assert params == p
    assert scheme == Standard(Fraction(5, 4))


def test_kv_round_trip_generic_scheme():
    p = TradeParams(price=2, buyer_value=5)
    text = "x=2\nx_seller=0\ny=5\ngamma=0\ntau=0\nscheme=generic\nomega=3\nell=1\n"
    params, scheme = params_from_kv(read_kv(text))
    assert params == p
    assert scheme == Generic(Fraction(3), Fraction(1))


def test_kv_parsing_tolerates_comments_and_defaults():
    params, scheme = params_from_kv(read_kv("# trade\nx = 1\ny = 2\ngamma = 1/4\n"))
    assert params.arbiter_error == Fraction(1, 4)
    assert params.fee == 0
    assert scheme == Standard(Fraction(1))  # wager defaults to the price


@pytest.mark.parametrize("text", [
    "x=1\ny=2\nbogus=3\n", "x=1 y=2", "y=2\n",
    "x=1\ny=2\nomega=5\nell=3\n", "x=1\ny=2\nscheme=generic\nomega=2\nell=1\nlambda=7\n",
])
def test_kv_parsing_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        params_from_kv(read_kv(text))


def test_kv_parsing_rejects_a_repeated_key():
    with pytest.raises(ValueError, match="duplicate key 'x'"):
        params_from_kv(read_kv("x=1\ny=4\nx=3\n"))


@pytest.mark.parametrize("spelling, kind", [
    ("standard", Standard), ("STANDARD", Standard),
    ("winner_rebate", WinnerRebate), ("winner-rebate", WinnerRebate), ("Winner-Rebate", WinnerRebate),
    ("withheld", Withheld), ("Withheld", Withheld), (" winner_rebate ", WinnerRebate),
])
def test_scheme_names_are_read_from_one_table(spelling, kind):
    # scheme= in a parameter file and lambda_interval take the same spellings.
    params, scheme = params_from_kv(read_kv(f"x=2\ny=3\ngamma=1/4\nscheme={spelling}\nlambda=1\n"))
    assert scheme == kind(1)
    assert lambda_interval(params, spelling) == lambda_interval(params, kind) == lambda_interval(params, scheme)
    with pytest.raises(ValueError, match="unknown scheme"):
        params_from_kv(read_kv(f"x=2\ny=3\nscheme={spelling}x\n"))


# ---------------------------------------------------------------------------
# The range checks on int ratios against the Fraction comparisons they replaced
# ---------------------------------------------------------------------------


def naive_trade_error(price, seller_value, buyer_value, arbiter_error, fee):
    """Reference: `TradeParams`'s checks as they were, every field through
    `as_fraction` and every check a `Fraction` comparison; the error it
    raises as (type, message), or None."""
    x, xs, y, g, t = map(as_fraction, (price, seller_value, buyer_value, arbiter_error, fee))
    if not y > x > xs:
        return InvalidTradeError, f"need buyer_value > price > seller_value, got {y} / {x} / {xs}"
    if x <= 0 or xs < 0:
        return InvalidTradeError, "price must be > 0 and seller_value >= 0"
    if not 0 <= g <= 1:
        return InvalidTradeError, f"arbiter_error must lie in [0, 1], got {g}"
    if t < 0:
        return InvalidTradeError, f"fee must be >= 0, got {t}"
    return None


def naive_generic_error(win_amount, loss_amount):
    """Reference: `Generic`'s checks as they were, as `naive_trade_error`."""
    win, loss = as_fraction(win_amount), as_fraction(loss_amount)
    if loss < 0:
        return InvalidSchemeError, f"loss_amount must be >= 0, got {loss}"
    if win + loss <= 0:
        return InvalidSchemeError, (
            f"winning must be strictly preferred to losing (win_amount > -loss_amount), got win={win} loss={loss}"
        )
    return None


STEP = st.fractions(min_value=Fraction(1, 12), max_value=3, max_denominator=12)
ANY = st.fractions(min_value=-3, max_value=3, max_denominator=12)
#: Where a value lies from its anchor: above it by a small step, at it, or
#: anywhere small, as (how, amount).
PLACES = (
    STEP.map(lambda step: ("above", step))
    | st.just(("at", Fraction(0)))
    | ANY.map(lambda value: ("anywhere", value))
)
GAMMAS = st.sampled_from([Fraction(0), Fraction(1)]) | st.fractions(-1, 2, max_denominator=12)
FEES = st.just(Fraction(0)) | ANY
#: How an input is spelled: each of these `as_fraction` reads.
SPELLINGS = st.sampled_from(["fraction", "int", "string", "float"])


def placed(anchor, place):
    how, amount = place
    return anchor + amount if how == "above" else anchor if how == "at" else amount


def spelled(value, spelling):
    """`value` as a `Fraction`, an int (when it is whole), a "p/q" string or a float."""
    if spelling == "int" and value.denominator == 1:
        return int(value)
    if spelling == "string":
        return f"{value.numerator}/{value.denominator}"
    return float(value) if spelling == "float" else value


def held_as_given(record, names, inputs):
    """Each field holds the `Fraction` its input reads as, and an input that
    was a `Fraction` is held as the same object."""
    for name, value in zip(names, inputs):
        held = getattr(record, name)
        assert type(held) is Fraction and held == as_fraction(value), name
        assert type(value) is not Fraction or held is value, name


def raised(make):
    try:
        return make(), None
    except (InvalidTradeError, InvalidSchemeError) as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=300, deadline=None)
@given(places=st.tuples(PLACES, PLACES, PLACES), gamma=GAMMAS, fee=FEES, spellings=st.tuples(*[SPELLINGS] * 5))
def test_trade_checks_on_int_ratios_match_the_fraction_comparisons(places, gamma, fee, spellings):
    # Weighted toward each check's boundary: y == x, x == x', x' == 0, x == 0,
    # gamma in {0, 1} and fee == 0.
    xs = placed(Fraction(0), places[0])
    x = placed(xs, places[1])
    y = placed(x, places[2])
    inputs = list(map(spelled, (x, xs, y, gamma, fee), spellings))
    params, error = raised(lambda: TradeParams(*inputs))
    assert error == naive_trade_error(*inputs)
    if params is not None:
        held_as_given(params, ("price", "seller_value", "buyer_value", "arbiter_error", "fee"), inputs)


@settings(max_examples=300, deadline=None)
@given(places=st.tuples(PLACES, PLACES), spellings=st.tuples(SPELLINGS, SPELLINGS))
def test_generic_checks_on_int_ratios_match_the_fraction_comparisons(places, spellings):
    # Weighted toward loss == 0 and win == -loss.
    loss = placed(Fraction(0), places[0])
    inputs = list(map(spelled, (placed(-loss, places[1]), loss), spellings))
    scheme, error = raised(lambda: Generic(*inputs))
    assert error == naive_generic_error(*inputs)
    if scheme is not None:
        held_as_given(scheme, ("win_amount", "loss_amount"), inputs)


def test_the_range_checks_hold_at_their_boundaries():
    # Each check at its boundary, on the side it accepts and the side it refuses.
    TradeParams(price=1, seller_value=0, buyer_value=2, arbiter_error=0, fee=0)
    TradeParams(price=1, buyer_value=2, arbiter_error=1)
    Generic(win_amount=1, loss_amount=0)
    refused = {
        "need buyer_value > price > seller_value, got 1 / 1 / 0": lambda: TradeParams(price=1, buyer_value=1),
        "need buyer_value > price > seller_value, got 2 / 1/2 / 1/2": lambda: TradeParams("1/2", "1/2", 2),
        "arbiter_error must lie in [0, 1], got 13/12": lambda: TradeParams(1, 0, 2, "13/12"),
        "arbiter_error must lie in [0, 1], got -1/12": lambda: TradeParams(1, 0, 2, "-1/12"),
        "fee must be >= 0, got -1/12": lambda: TradeParams(1, 0, 2, 0, "-1/12"),
        "loss_amount must be >= 0, got -1/12": lambda: Generic(1, "-1/12"),
        "winning must be strictly preferred to losing (win_amount > -loss_amount), got win=-1/2 loss=1/2":
            lambda: Generic("-1/2", "1/2"),
    }
    for message, make in refused.items():
        assert raised(make)[1][1] == message
