"""Economic parameters of a single escrow trade and the wager schemes.

All money amounts and probabilities are exact rationals (`fractions.Fraction`)
so that the strict/non-strict inequality distinctions in the equilibrium
analysis are decidable without floating-point ties.  `TradeParams` and
`Generic` decide their range checks on each field's int ratio
(`as_integer_ratio()`, denominator positive) by cross-multiplication, which
orders two rationals exactly as comparing the `Fraction`s would.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Union

Rational = Union[int, str, float, Fraction]


class InvalidTradeError(ValueError):
    """The trade is ill-posed (no gains from trade, or parameters out of range)."""


def as_fraction(value: Rational) -> Fraction:
    """Coerce to an exact Fraction.

    Floats go through their decimal repr ("0.1" -> 1/10) rather than their
    binary expansion, so CLI-style inputs stay exact.  A bool or "1/0" is refused.
    A `Fraction` is immutable, so it is returned as it is, not copied.  A
    plain ASCII "p" or "p/q" (digits only, q nonzero) is read as two ints;
    a string with "_" is refused on every Python version, as 3.10 refuses
    it; every other string goes through `Fraction`'s own parser.
    """
    if type(value) is Fraction:
        return value
    if type(value) is str:
        num, slash, den = value.partition("/")
        if num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit() and den.strip("0")):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
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


def scaled(values: Iterable[Union[int, Fraction]]) -> tuple[list[int], int]:
    """Exact rationals as ints over one scale: (each value times `scale`,
    `scale`), where `scale` is the least common multiple of their
    denominators.  Sums, differences and comparisons of the ints are those
    of the values, without building a `Fraction` per step."""
    ratios = [v.as_integer_ratio() for v in values]  # (p, q) for each p/q
    scale = lcm(*{q for _, q in ratios})
    return [p * (scale // q) for p, q in ratios], scale


_TRADE_FIELDS = ("price", "seller_value", "buyer_value", "arbiter_error", "fee")


def _held_ratios(record: object, names: tuple[str, ...]) -> list[tuple[int, int]]:
    """Each named field of a frozen record as its int ratio (numerator,
    positive denominator).  Each field is set again to its `as_fraction`,
    which keeps a `Fraction` as the same object and converts any other."""
    held = record.__dict__
    ratios = []
    for name in names:
        held[name] = value = as_fraction(held[name])
        ratios.append(value.as_integer_ratio())
    return ratios


@dataclass(frozen=True)
class TradeParams:
    """The economic quintuple of a trade.

    price:        what the buyer pays (x), must be positive
    seller_value: the item's value to the seller (x'), below the price
    buyer_value:  the item's value to the buyer (y), above the price
    arbiter_error: probability the arbiter rules against the honest party
    fee:          cost of one non-default contract move (0 disables fees)

    A trade only makes sense when buyer_value > price > seller_value; anything
    else is rejected as ill-posed.  Each field is held as a `Fraction`: one
    that arrives as a `Fraction` is kept as it is, any other is converted by
    `as_fraction`.  The checks are decided on the fields' int ratios, and a
    message is formatted only when a check fails.
    """

    price: Fraction
    seller_value: Fraction = Fraction(0)
    buyer_value: Fraction = Fraction(0)
    arbiter_error: Fraction = Fraction(0)
    fee: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        (x, xq), (xs, xsq), (y, yq), (g, gq), (fee, _) = _held_ratios(self, _TRADE_FIELDS)
        if not (y * xq > x * yq and x * xsq > xs * xq):
            raise InvalidTradeError(
                f"need buyer_value > price > seller_value, got "
                f"{self.buyer_value} / {self.price} / {self.seller_value}"
            )
        if x <= 0 or xs < 0:
            raise InvalidTradeError("price must be > 0 and seller_value >= 0")
        if not 0 <= g <= gq:
            raise InvalidTradeError(f"arbiter_error must lie in [0, 1], got {self.arbiter_error}")
        if fee < 0:
            raise InvalidTradeError(f"fee must be >= 0, got {self.fee}")


class InvalidSchemeError(ValueError):
    """The wager scheme's parameters are out of range."""


@dataclass(frozen=True)
class AffineWager:
    """A scheme with one wager: both disputants stake `wager`, the loser
    forfeits exactly that stake (`loss_cost`), and the winner nets
    price + slope * wager (`win_gain`).  The named schemes differ only in
    the slope, that is in where the loser's wager goes."""

    wager: Fraction

    name = ""
    slope = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "wager", self.checked(self.wager))

    @staticmethod
    def checked(value: Rational) -> Fraction:
        """`value` as an exact wager, refused unless it is > 0."""
        wager = as_fraction(value)
        if wager.numerator <= 0:
            raise InvalidSchemeError(f"wager must be > 0, got {wager}")
        return wager

    def win_gain(self, params: TradeParams) -> Fraction:
        return params.price + self.slope * self.wager if self.slope else params.price

    def loss_cost(self, params: TradeParams) -> Fraction:
        return self.wager


@dataclass(frozen=True)
class Standard(AffineWager):
    """Both disputants stake `wager`; the winner is repaid price + wager,
    the loser's wager compensates the arbiter."""

    name = "standard"
    slope = 0


@dataclass(frozen=True)
class WinnerRebate(AffineWager):
    """Like Standard, but the winner also pockets the loser's wager."""

    name = "winner_rebate"
    slope = 1


@dataclass(frozen=True)
class Withheld(AffineWager):
    """No wager is ever returned: the winner recovers only the escrowed price."""

    name = "withheld"
    slope = -1


@dataclass(frozen=True)
class Generic:
    """Arbitrary payout rule: the arbitration winner nets +win_amount and the
    loser nets -loss_amount, both measured from their pre-dispute position and
    inclusive of all wager handling.

    Winning must be strictly preferred to losing (win_amount > -loss_amount).
    Each disputant stakes loss_amount and the loser forfeits exactly that
    stake (`loss_cost`); the winner's gross payout from the pot is
    win_amount + loss_amount.
    """

    win_amount: Fraction
    loss_amount: Fraction

    def __post_init__(self) -> None:
        (win, wq), (loss, lq) = _held_ratios(self, ("win_amount", "loss_amount"))
        if loss < 0:
            raise InvalidSchemeError(f"loss_amount must be >= 0, got {self.loss_amount}")
        if win * lq + loss * wq <= 0:
            raise InvalidSchemeError(
                "winning must be strictly preferred to losing "
                f"(win_amount > -loss_amount), got win={self.win_amount} loss={self.loss_amount}"
            )

    name = "generic"

    def win_gain(self, params: TradeParams) -> Fraction:
        return self.win_amount

    def loss_cost(self, params: TradeParams) -> Fraction:
        return self.loss_amount


WagerScheme = Union[AffineWager, Generic]

#: Every scheme by name: the one table `params_from_kv`, the CLI,
#: `agents.sweep` and `equilibrium.lambda_interval` look names up in.
_SCHEMES = {kind.name: kind for kind in (Standard, WinnerRebate, Withheld, Generic)}


def scheme_class(scheme: Union[str, type, WagerScheme]) -> type:
    """The scheme class a name (any case, '-' or '_' between words, spaces
    around), a scheme class or a scheme stands for."""
    if isinstance(scheme, str):
        try:
            return _SCHEMES[scheme.strip().lower().replace("-", "_")]
        except KeyError:
            raise ValueError(f"unknown scheme {scheme!r} (known: {', '.join(_SCHEMES)})") from None
    return scheme if isinstance(scheme, type) else type(scheme)


def wager_class(scheme: Union[str, type, WagerScheme]) -> type:
    """Like `scheme_class`, but only for the schemes with a single wager."""
    kind = scheme_class(scheme)
    if not issubclass(kind, AffineWager):
        raise ValueError(f"{kind.__name__} schemes have no single wager (lambda)")
    return kind


_KV_KEYS = ("x", "x_seller", "y", "gamma", "tau", "scheme", "lambda", "omega", "ell")


def read_kv(text: str) -> dict[str, str]:
    """The key -> value strings of the flat key=value format.

    Blank lines and '#' comments are ignored; values may be integers,
    decimals, or ratios like 1/4.  An unknown key or a key given twice is
    rejected.
    """
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _KV_KEYS:
            raise ValueError(f"unknown key {key!r}")
        if key in values:
            raise ValueError(f"duplicate key {key!r}")
        values[key] = val.strip()
    return values


def params_from_kv(values: dict[str, str]) -> tuple[TradeParams, WagerScheme]:
    """The parameter set named by parsed key -> value strings (`read_kv`):
    the one parser the CLI's flags and parameter files go through together,
    so both share one set of defaults.  Only x and y are required; the
    wager defaults to the price (lambda = x) for the named variants.  A key
    the chosen scheme does not use (omega or ell for a named scheme, lambda
    for generic) is rejected.
    """
    for required in ("x", "y"):
        if required not in values:
            raise ValueError(f"missing key {required!r}")
    params = TradeParams(
        price=values["x"],
        seller_value=values.get("x_seller", "0"),
        buyer_value=values["y"],
        arbiter_error=values.get("gamma", "0"),
        fee=values.get("tau", "0"),
    )
    kind = scheme_class(values.get("scheme", Standard.name))
    for unused in ("lambda",) if kind is Generic else ("omega", "ell"):
        if unused in values:
            raise ValueError(f"the {kind.name} scheme takes no {unused!r}")
    if kind is not Generic:
        return params, kind(values.get("lambda", params.price))
    if "omega" not in values or "ell" not in values:
        raise ValueError("generic scheme needs omega and ell")
    return params, Generic(values["omega"], values["ell"])
