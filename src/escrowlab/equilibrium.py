"""Equilibrium analysis of the contract game.

Three independent routes answer the same questions:

* closed-form node margins, one table of the paper's five constraints as
  forms in the wager, `_margin_table`, named in order by `CONSTRAINTS`,
* backward induction over the built tree's leaf table,
* brute-force enumeration of every pure strategy profile, in one
  bottom-up pass over per-subtree tables (`_table`).

The analytic layer is the production surface: `security_report` reads the
table into the one record per setup, and every other checker reads that
record or the table; the other two act as oracles in the test suite.
Every value returned is an exact `Fraction`.  The decisions are made in
ints, so strict versus non-strict boundaries are decided exactly, without
tolerance and without a `Fraction` per comparison.  A sweep row's margin
forms and wagers are put over one common scale (`trade.scaled`).  Both
tree solvers read the tree's int leaf table, and the enumeration compares
each profile's gain with epsilon by cross-multiplication.  A
`SecurityReport` holds its margins as ints, in the order of
`CONSTRAINTS`, and its setup: its `slacks` and every verdict are read off
the margins, as a `LambdaInterval`'s `empty` is read off its bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping, NamedTuple, Optional, Union

from .gametree import (
    AFTER_NOSEND,
    AFTER_SEND,
    DISPUTE_AFTER_NOSEND,
    DISPUTE_AFTER_SEND,
    HONEST_PROFILE,
    ROOT,
    Action,
    DecisionNode,
    GameTree,
    Leaf,
    Party,
    PayoffPair,
)
from .trade import (
    Standard,
    TradeParams,
    WagerScheme,
    as_fraction,
    scaled,
    wager_class,
)

Profile = dict[str, Action]

# Constraint names, ordered as the completeness then soundness inequalities.
SELLER_COUNTERS = "honest-seller-counters"
SELLER_FORFEITS = "dishonest-seller-forfeits"
BUYER_ACCEPTS = "buyer-accepts-delivery"
BUYER_DISPUTES = "dispute-worth-the-fee"
SELLER_SENDS = "delivery-worth-the-fee"

#: The constraint names in the margin table's order.
CONSTRAINTS = (SELLER_COUNTERS, SELLER_FORFEITS, BUYER_ACCEPTS, BUYER_DISPUTES, SELLER_SENDS)
#: The dispute layer: the constraints that bound every dishonest deviation.
DISPUTE_LAYER = (SELLER_COUNTERS, SELLER_FORFEITS, BUYER_ACCEPTS)


class _Row(NamedTuple):
    """One decision node's constraint: the honest action's advantage there,
    with honest play downstream, is constant + coeff * wager."""

    node: str
    name: str
    constant: Fraction
    coeff: Fraction


def _margin_table(params: TradeParams, slope: int = 0, win: Optional[Fraction] = None) -> tuple[_Row, ...]:
    """Every decision node's margin as a form in the wager, ordered as
    `CONSTRAINTS`, when the arbitration winner nets win + slope * wager
    (`win` defaults to the price, as in an affine scheme) and the loser
    loses the wager.  The wager enters the dispute rows alone.

    Fees enter with the sign of the move they attach to: countering and
    disputing cost the fee, while the timeout defaults are free.
    """
    x, y, g, t = params.price, params.buyer_value, params.arbiter_error, params.fee
    w = x if win is None else win
    h = 1 - g  # the chance the arbiter rules for the honest party
    return (
        _Row(DISPUTE_AFTER_SEND, SELLER_COUNTERS, h * w - t, h * slope - g),
        _Row(DISPUTE_AFTER_NOSEND, SELLER_FORFEITS, t - g * w, h - g * slope),
        _Row(AFTER_SEND, BUYER_ACCEPTS, y * h + t - g * w, h - g * slope),
        _Row(AFTER_NOSEND, BUYER_DISPUTES, x - t, 0),
        _Row(ROOT, SELLER_SENDS, x - params.seller_value - t, 0),
    )


def node_margins(params: TradeParams, scheme: WagerScheme) -> dict[str, Fraction]:
    """Honest-action advantage at each decision node, honest play downstream.

    Positive margin means the honest action strictly beats the alternative.
    """
    loss = scheme.loss_cost(params)
    return {row.node: row.constant + row.coeff * loss for row in _margin_table(params, 0, scheme.win_gain(params))}


def _positive_epsilon(epsilon) -> Fraction:
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise ValueError(f"epsilon must be > 0, got {eps}")
    return eps


class SoundnessPreconditionError(ValueError):
    """The deviation bound is incompatible with the trade surplus bounds
    (needs buyer_value - epsilon >= price >= epsilon)."""


def check_soundness(params: TradeParams, scheme: WagerScheme, epsilon) -> bool:
    """Does every dishonest action lose at least epsilon versus honest play?

    Decided on the three dispute-layer constraints (non-strict at epsilon).
    The side conditions buyer_value - epsilon >= price >= epsilon are a
    hypothesis of the bound, not part of the verdict, and are signalled
    separately when violated.
    """
    eps = _positive_epsilon(epsilon)
    if not (params.buyer_value - eps >= params.price >= eps):
        raise SoundnessPreconditionError(
            f"need buyer_value - eps >= price >= eps, got "
            f"y={params.buyer_value} x={params.price} eps={eps}"
        )
    eps_max = security_report(params, scheme).sound_epsilon_max  # the least dispute-layer margin
    return eps_max is not None and eps_max >= eps


# ---------------------------------------------------------------------------
# Security report
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SecurityReport:
    """Summary of the contract's game-theoretic guarantees for one setup.

    A report holds its margins and its setup alone.  The margins are the
    margin table's forms at the report's stake, held as ints:
    `margins[k] / scale` is the slack of `CONSTRAINTS[k]`.  Every verdict
    is a property read off them: complete (every slack positive, so the
    honest profile is the unique SPE), weak (no slack negative),
    sound_epsilon_max (the least dispute-layer slack, if positive: the
    largest deviation bound it supports) and binding (the constraints at
    the least slack).  `strong` (complete and sound at sound_epsilon_max)
    equals `complete`, since then the least dispute-layer slack is
    positive too; the CSV keeps both columns.

    The CSV row is read off the int margins by one cell reader, `_cells`,
    with no `Fraction` per row: `to_row` and `agents.sweep_csv` read it.
    It and `sound_epsilon_max` take `eps_max` from the table's first
    `len(DISPUTE_LAYER)` margins, the dispute layer.

    Two reports are equal when their setups and slacks are, whatever scale
    each holds its margins over.  A report is not hashable."""

    margins: tuple[int, ...]
    scale: int
    gamma: Fraction
    wager: Fraction
    fee: Fraction
    scheme: str

    CSV_FIELDS = ("gamma", "lambda", "tau", "scheme", "complete", "eps_max", "strong", "weak")

    @property
    def slacks(self) -> dict[str, Fraction]:
        """Each constraint's slack by name, in the table's order."""
        return {name: Fraction(margin, self.scale) for name, margin in zip(CONSTRAINTS, self.margins)}

    @property
    def complete(self) -> bool:
        return min(self.margins) > 0

    strong = complete

    @property
    def weak(self) -> bool:
        return min(self.margins) >= 0

    @property
    def binding(self) -> tuple[str, ...]:
        low = min(self.margins)
        return tuple([name for name, margin in zip(CONSTRAINTS, self.margins) if margin == low])

    @property
    def sound_epsilon_max(self) -> Optional[Fraction]:
        least = min(self.margins[: len(DISPUTE_LAYER)])
        return Fraction(least, self.scale) if least > 0 else None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        setup = (self.gamma, self.wager, self.fee, self.scheme)
        return setup == (other.gamma, other.wager, other.fee, other.scheme) and self.slacks == other.slacks

    __hash__ = None  # equal reports may hold their margins over different scales

    def to_row(self) -> dict[str, str]:
        """Flat record for CSV output."""
        return dict(zip(self.CSV_FIELDS, self._cells()))

    def _cells(self) -> tuple[str, ...]:
        """The CSV row in `CSV_FIELDS` order, read off the int margins: one
        least margin decides complete, strong and weak, and `eps_max` is the
        least dispute-layer margin (the table's first rows), written over
        its lowest terms as `str(Fraction)` writes it."""
        margins, scale = self.margins, self.scale
        low = min(margins)
        complete = "true" if low > 0 else "false"
        least = min(margins[: len(DISPUTE_LAYER)])
        eps_max = ""
        if least > 0:
            common = gcd(least, scale)
            numerator, denominator = least // common, scale // common
            eps_max = f"{numerator}/{denominator}" if denominator > 1 else str(numerator)
        weak = "true" if low >= 0 else "false"
        return str(self.gamma), str(self.wager), str(self.fee), self.scheme, complete, eps_max, complete, weak


def security_report(params: TradeParams, scheme: WagerScheme) -> SecurityReport:
    """The report at the scheme's own stake, from its arbitration payouts."""
    return _reports(params, scheme.name, 0, scheme.win_gain(params), [scheme.loss_cost(params)])[0]


def _reports(
    params: TradeParams,
    scheme_name: str,
    slope: int,
    win: Optional[Fraction],
    stakes: list[Fraction],
) -> list[SecurityReport]:
    """The report at each stake, from the margin table whose winner nets
    win + slope * stake (`_margin_table`).

    The table's forms and the stakes are put over one scale s, so each
    margin times s * s is an int, and each report holds its margins as
    those ints; its verdicts are decided in ints when read.
    """
    rows = _margin_table(params, slope, win)
    gamma, fee = params.arbiter_error, params.fee
    ints, scale = scaled([*itertools.chain.from_iterable((row.constant, row.coeff) for row in rows), *stakes])
    size = 2 * len(rows)
    table = [(constant * scale, coeff) for constant, coeff in zip(ints[0:size:2], ints[1:size:2])]
    return [
        SecurityReport(tuple([constant + coeff * wager for constant, coeff in table]), scale * scale,
                       gamma, stake, fee, scheme_name)
        for stake, wager in zip(stakes, ints[size:])
    ]


# ---------------------------------------------------------------------------
# Named-scheme results
# ---------------------------------------------------------------------------


def generic_impossibility(omega, ell, gamma) -> bool:
    """Can an arbitrary payout rule make the seller's dispute choices honest?

    True iff the seller's counter and forfeit margins, at win = omega and
    loss = ell, sum to more than 0.  The sum is (1 - 2 gamma)(omega + ell),
    the fee cancelling, so for any rule where winning is preferred to losing
    it is positive exactly when the arbiter favors honest parties
    (gamma < 1/2).  Only gamma enters those rows; the trade is a placeholder.
    """
    w, l = as_fraction(omega), as_fraction(ell)
    if w + l <= 0:
        raise ValueError("winning must be preferred to losing (omega > -ell)")
    rows = _margin_table(TradeParams(price=1, buyer_value=2, arbiter_error=gamma), 0, w)
    seller = (SELLER_COUNTERS, SELLER_FORFEITS)
    return sum(row.constant + row.coeff * l for row in rows if row.name in seller) > 0


# ---------------------------------------------------------------------------
# Admissible wager intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaInterval:
    """Interval of admissible wagers; upper=None means unbounded above.
    It holds its four bounds alone: `empty` is read off them, and
    `nothing()` is the open (0, 0)."""

    lower: Fraction
    lower_closed: bool
    upper: Optional[Fraction]
    upper_closed: bool

    @classmethod
    def nothing(cls) -> "LambdaInterval":
        return cls(Fraction(0), False, Fraction(0), False)

    @property
    def empty(self) -> bool:
        lower, upper = self.lower, self.upper
        closed = self.lower_closed and self.upper_closed
        return upper is not None and (lower > upper or (lower == upper and not closed))

    def contains(self, value) -> bool:
        v = as_fraction(value)
        if v < self.lower or (v == self.lower and not self.lower_closed):
            return False
        if self.upper is not None:
            if v > self.upper or (v == self.upper and not self.upper_closed):
                return False
        return True

    def __str__(self) -> str:
        if self.empty:
            return "(empty)"
        lo = "[" if self.lower_closed else "("
        hi = "]" if self.upper_closed else ")"
        top = "+inf" if self.upper is None else str(self.upper)
        return f"{lo}{self.lower}, {top}{hi}"


def lambda_interval(
    params: TradeParams,
    scheme: Union[WagerScheme, type, str] = Standard,
    epsilon=None,
) -> LambdaInterval:
    """Wagers under which the scheme is complete (epsilon=None) or
    epsilon-sound (epsilon given).

    Completeness bounds are open (strict inequalities), soundness bounds
    closed, and a lower bound at 0 always open.  Empty when the constraints
    conflict, including when a wager-independent completeness condition
    already fails.
    """
    strict = epsilon is None
    eps = Fraction(0) if strict else _positive_epsilon(epsilon)

    # Each margin is constant + coeff * wager, and must be > 0 (complete)
    # or >= eps (sound); a zero coeff leaves a condition on the setup alone.
    lowers, uppers = [Fraction(0)], []  # wagers must be positive
    for row in _margin_table(params, wager_class(scheme).slope):
        if not (strict or row.name in DISPUTE_LAYER):
            continue
        bound, coeff = eps - row.constant, row.coeff
        if coeff == 0:
            if bound > 0 or (strict and bound == 0):
                return LambdaInterval.nothing()
        else:
            (lowers if coeff > 0 else uppers).append(bound / coeff)
    lower, upper = max(lowers), min(uppers, default=None)
    interval = LambdaInterval(lower, not strict and lower > 0, upper, not strict and upper is not None)
    return LambdaInterval.nothing() if interval.empty else interval


# ---------------------------------------------------------------------------
# Backward induction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolvedTree:
    """Backward-induction annotation of a game tree.

    chosen maps every decision node to the owner-optimal action (the honest
    action on exact ties); margin is the chosen action's value lead over the
    best alternative, 0 on a tie, so the solved profile is the unique pure
    SPE exactly when every margin is positive.
    """

    chosen: dict[str, Action]
    margins: dict[str, Fraction]

    @property
    def is_honest(self) -> bool:
        return self.chosen == HONEST_PROFILE

    @property
    def unique(self) -> bool:
        return all(margin > 0 for margin in self.margins.values())


def backward_induction(tree: GameTree) -> SolvedTree:
    chosen: dict[str, Action] = {}
    margins: dict[str, int] = {}
    _solve(tree.root, tree.leaves, chosen, margins)
    scale = tree.scale
    return SolvedTree(chosen=chosen, margins={node_id: Fraction(margin, scale) for node_id, margin in margins.items()})


def _solve(node: Union[DecisionNode, Leaf], leaves: Mapping[Leaf, tuple[int, int]],
           chosen: dict[str, Action], margins: dict[str, int]) -> tuple[int, int]:
    """The int payoff pair `node` reaches under backward induction, recording
    each decision node's pick and int margin below it.  A module-level
    function, not a closure that calls itself, so a call leaves no reference
    cycle."""
    if isinstance(node, Leaf):
        return leaves[node]
    outcomes = {action: _solve(child, leaves, chosen, margins) for action, child in node.actions.items()}
    side = node.owner is Party.SELLER  # the owner's index in a payoff pair
    own = {action: pair[side] for action, pair in outcomes.items()}
    best_value = max(own.values())
    maximizers = [a for a, value in own.items() if value == best_value]
    honest = HONEST_PROFILE.get(node.node_id)
    pick = honest if honest in maximizers else maximizers[0]
    runner_up = max((value for a, value in own.items() if a != pick), default=best_value)
    chosen[node.node_id] = pick
    margins[node.node_id] = best_value - runner_up
    return outcomes[pick]


# ---------------------------------------------------------------------------
# Brute-force subgame perfect equilibrium oracle
# ---------------------------------------------------------------------------

MAX_BRUTE_FORCE_NODES = 20


def _choice(node: DecisionNode, profile: Profile) -> Union[DecisionNode, Leaf]:
    """The child `profile` picks at `node`; a node the profile leaves out,
    or a value that is not one of the node's actions, is refused by name."""
    if node.node_id not in profile:
        raise ValueError(f"profile has no action at node {node.node_id!r}")
    action = profile[node.node_id]
    if not isinstance(action, Action) or action not in node.actions:
        raise ValueError(f"profile's {action!r} is not an action at node {node.node_id!r}")
    return node.actions[action]


def _reached(node: Union[DecisionNode, Leaf], profile: Profile) -> Leaf:
    """The leaf play reaches when it follows `profile` from `node`."""
    while isinstance(node, DecisionNode):
        node = _choice(node, profile)
    return node


def profile_value(tree: GameTree, profile: Profile, node: Optional[DecisionNode] = None) -> PayoffPair:
    """Payoff vector when play follows `profile` from `node` (default root);
    only the nodes on the path are read."""
    buyer, seller = tree.leaves[_reached(tree.root if node is None else node, profile)]
    return PayoffPair(Fraction(buyer, tree.scale), Fraction(seller, tree.scale))


def _table(node: Union[DecisionNode, Leaf], leaves: Mapping[Leaf, tuple[int, int]]) -> list[tuple]:
    """One entry per profile of the subtree at `node`, from its children's
    tables: (the choices as (node id, action) pairs, `node` first; the
    payoff pair reached; each party's best response; the most any owner in
    the subtree gains by deviating).  The owner's best response is the best
    of its children's, a deviation at all its own nodes below; the other
    party's is that of the child the profile picks."""
    if isinstance(node, Leaf):
        pair = leaves[node]
        return [((), pair, pair, 0)]
    side = node.owner is Party.SELLER  # the owner's index in a payoff pair
    table = []
    for below in itertools.product(*(_table(child, leaves) for child in node.actions.values())):
        choices = tuple(itertools.chain.from_iterable(entry[0] for entry in below))
        top = max(entry[2][side] for entry in below)
        worst_below = max(entry[3] for entry in below)
        for action, (_, reached, best, _) in zip(node.actions, below):
            response = (best[0], top) if side else (top, best[1])
            table.append((((node.node_id, action), *choices), reached, response, max(top - reached[side], worst_below)))
    return table


def profile_epsilon(tree: GameTree, profile: Profile) -> Fraction:
    """Smallest slack at which the profile is a subgame perfect equilibrium.

    The maximum, over every subgame, of what its owner gains by deviating at
    any of its own nodes in it.  Zero means exact subgame perfection.  The
    profile must give every decision node one of that node's actions.
    """
    for node_id in profile:
        if node_id not in tree.nodes:
            raise ValueError(f"profile names {node_id!r}, not a decision node of the tree")
    for node in tree.decision_nodes():
        _choice(node, profile)
    worst = next(worst for choices, _, _, worst in _table(tree.root, tree.leaves) if dict(choices) == profile)
    return Fraction(worst, tree.scale)


def brute_force_spe(tree: GameTree, epsilon=Fraction(0)) -> list[Profile]:
    """Every pure profile that is a subgame perfect epsilon-equilibrium.

    epsilon=0 gives the exact SPE set, and a negative one is refused.  Ground
    truth for the analytic checkers.  One table entry per profile of each
    subtree, so linear in the profile count, which is exponential in the
    nodes: capped at 20 of them.  Each profile's worst gain, an int over the
    tree's scale, is compared with epsilon by cross-multiplication.
    """
    if len(tree.decision_nodes()) > MAX_BRUTE_FORCE_NODES:
        raise ValueError(f"tree too large for enumeration (> {MAX_BRUTE_FORCE_NODES} nodes)")
    eps = as_fraction(epsilon)
    if eps < 0:
        raise ValueError(f"epsilon must be >= 0, got {eps}")
    bound, denominator = eps.numerator * tree.scale, eps.denominator
    found = [dict(choices) for choices, _, _, worst in _table(tree.root, tree.leaves) if worst * denominator <= bound]
    found.sort(key=lambda p: tuple(p[k].value for k in sorted(p)))
    return found
