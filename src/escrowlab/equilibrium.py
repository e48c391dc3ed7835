"""Equilibrium analysis of the contract game.

Three routes answer the same questions from the payoffs stated once, the
leaf forms of `gametree._leaf_table`:

* node margins, the paper's five constraints named by `CONSTRAINTS`, each
  its owner's leaf form after the honest action less that after the other,
  honest play below (`_margin_table`),
* backward induction over the built tree's leaf table, one step per
  decision node, children first, from the induction plan
  (`_induction_plan`),
* brute-force enumeration of every pure strategy profile: the enumeration
  plan (`_enumeration_plan`) lists each profile with its gain terms, one
  per node, and a tree's gains are read off its int leaf table through it.

A tree's shape is `gametree._SHAPE`, so both plans are built once, at
import, from it, and index every tree's leaf table: no recursion runs per
tree.

The margins are the production surface: `security_report` reads them into
the one record per setup, and every other checker reads that record or the
margins (`node_margins` is the report's `slacks` keyed by node id).  The
solvers are oracles in the test suite, and the naive formulas in
`tests/test_equilibrium.py` are the reference independent of the leaf forms.
Every value returned is an exact `Fraction`.  Every verdict is decided in
ints, so strict versus non-strict boundaries are decided exactly, without
tolerance and without a `Fraction` per comparison: a sweep row's margins
share the one scale of its leaf forms and wagers, and the enumeration
compares each profile's gain with epsilon by cross-multiplication.  Every
verdict, that of `check_soundness` and `generic_impossibility` too, is read
off a `SecurityReport`'s int margins; only `lambda_interval`'s bounds are
`Fraction`s.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Optional, Union

from .gametree import (
    AFTER_NOSEND,
    AFTER_SEND,
    DISPUTE_AFTER_NOSEND,
    DISPUTE_AFTER_SEND,
    HONEST_PROFILE,
    ROOT,
    _SHAPE,
    Action,
    DecisionNode,
    GameTree,
    Leaf,
    Party,
    PayoffPair,
    _leaf_table,
)
from .trade import (
    Generic,
    Standard,
    TradeParams,
    WagerScheme,
    as_fraction,
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
#: The dispute layer, the table's prefix: the constraints that bound every dishonest deviation.
#: Its third row, the second plus buyer_value * (1 - gamma), never binds below it and ties it only at gamma = 1.
DISPUTE_LAYER = CONSTRAINTS[:3]
#: Each constraint's decision node, in the order of `CONSTRAINTS`.
_NODES = (DISPUTE_AFTER_SEND, DISPUTE_AFTER_NOSEND, AFTER_SEND, AFTER_NOSEND, ROOT)


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


def _constraint_leaves(node: DecisionNode) -> tuple[bool, Leaf, Leaf]:
    """(The owner's index in a payoff pair, the leaf honest play reaches from
    `node`, the leaf it reaches after the owner's other action)."""
    (other,) = [child for action, child in node.actions.items() if action is not HONEST_PROFILE[node.node_id]]
    return node.owner is Party.SELLER, _reached(node, HONEST_PROFILE), _reached(other, HONEST_PROFILE)


#: Each constraint's owner index and leaf pair, in the order of `CONSTRAINTS`.
_CONSTRAINT_LEAVES = [_constraint_leaves(_SHAPE[node_id]) for node_id in _NODES]


def _margin_table(params: TradeParams, win: Fraction, slope: int,
                  stakes: list[Fraction]) -> tuple[list[tuple[int, int]], list[int], int]:
    """Each constraint's margin as an int form (constant, coeff) in the
    stake, in the order of `CONSTRAINTS`: its owner's leaf form
    (`gametree._leaf_table`) after the honest action less that after the
    other.  Returns (the margin forms, each stake as an int over s, s)."""
    leaves, wagers, s = _leaf_table(params, win, slope, stakes)
    pairs = [(leaves[honest][side], leaves[deviation][side]) for side, honest, deviation in _CONSTRAINT_LEAVES]
    return [(constant - other, coeff - other_coeff) for (constant, coeff), (other, other_coeff) in pairs], wagers, s


def node_margins(params: TradeParams, scheme: WagerScheme) -> dict[str, Fraction]:
    """Honest-action advantage at each decision node, honest play downstream.

    Positive margin means the honest action strictly beats the alternative.
    The margins are the security report's slacks, keyed by each
    constraint's node.
    """
    return dict(zip(_NODES, security_report(params, scheme).slacks.values()))


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

    Decided on the report's dispute-layer margins, compared with epsilon in
    ints (non-strict).  The side conditions buyer_value - epsilon >= price
    >= epsilon are a hypothesis of the bound, not part of the verdict, and
    are signalled separately when violated.
    """
    eps = _positive_epsilon(epsilon)
    if not (params.buyer_value - eps >= params.price >= eps):
        raise SoundnessPreconditionError(
            f"need buyer_value - eps >= price >= eps, got "
            f"y={params.buyer_value} x={params.price} eps={eps}"
        )
    report = security_report(params, scheme)
    return min(report.margins[: len(DISPUTE_LAYER)]) * eps.denominator >= eps.numerator * report.scale


# ---------------------------------------------------------------------------
# Security report
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SecurityReport:
    """Summary of the contract's game-theoretic guarantees for one setup.

    A report holds its margins and its setup alone.  The margins are the
    margin forms at the report's stake, held as ints:
    `margins[k] / scale` is the slack of `CONSTRAINTS[k]`.  Every verdict
    is a property read off them: complete (every slack positive, so the
    honest profile is the unique SPE), weak (no slack negative),
    sound_epsilon_max (the least dispute-layer slack, if positive: the
    largest deviation bound it supports) and binding (the constraints at
    the least slack).  `strong` (complete and sound at sound_epsilon_max)
    equals `complete`, since then the least dispute-layer slack is
    positive too; the CSV keeps both columns.

    The CSV rows are read off the int margins by one row reader, `_csv_rows`,
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

    def __init__(self, margins: tuple[int, ...], scale: int, gamma: Fraction, wager: Fraction, fee: Fraction,
                 scheme: str) -> None:
        # One write, not the generated frozen __init__'s six object.__setattr__ calls.
        self.__dict__.update(margins=margins, scale=scale, gamma=gamma, wager=wager, fee=fee, scheme=scheme)

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
        return dict(zip(self.CSV_FIELDS, next(_csv_rows((self,)))))


def _csv_rows(reports: Iterable[SecurityReport]) -> Iterator[tuple[str, ...]]:
    """Each report's CSV row in `CSV_FIELDS` order, read off its int margins;
    `eps_max` is the least dispute-layer margin over its lowest terms.  A
    gamma or fee is formatted once per run of consecutive reports holding
    the same object.  Every cell is bare, never in need of quoting."""
    gamma = fee = object()
    for report in reports:
        if report.gamma is not gamma:
            gamma, gamma_cell = report.gamma, str(report.gamma)
        if report.fee is not fee:
            fee, fee_cell = report.fee, str(report.fee)
        margins, scale = report.margins, report.scale
        low, least, eps_max = min(margins), min(margins[: len(DISPUTE_LAYER)]), ""
        if least > 0:
            common = gcd(least, scale)
            eps_max = str(least // common) if common == scale else f"{least // common}/{scale // common}"
        complete = "true" if low > 0 else "false"
        yield gamma_cell, str(report.wager), fee_cell, report.scheme, complete, eps_max, complete, "true" if low >= 0 else "false"


def security_report(params: TradeParams, scheme: WagerScheme) -> SecurityReport:
    """The report at the scheme's own stake, from its arbitration payouts."""
    return _reports(params, scheme.name, 0, scheme.win_gain(params), [scheme.loss_cost(params)])[0]


def _reports(
    params: TradeParams,
    scheme_name: str,
    slope: int,
    win: Fraction,
    stakes: list[Fraction],
) -> list[SecurityReport]:
    """The report at each stake, from the margin forms whose winner nets
    win + slope * stake (`_margin_table`): each form is evaluated down the
    int wagers as one column, and a report's margins, ints over s * s, are
    its row across the columns; its verdicts are decided in ints when read."""
    forms, wagers, s = _margin_table(params, win, slope, stakes)
    gamma, fee, square = params.arbiter_error, params.fee, s * s
    columns = [[constant + coeff * wager for wager in wagers] for constant, coeff in forms]
    return [SecurityReport(margins, square, gamma, stake, fee, scheme_name)
            for margins, stake in zip(zip(*columns), stakes)]


# ---------------------------------------------------------------------------
# Named-scheme results
# ---------------------------------------------------------------------------


def generic_impossibility(omega, ell, gamma) -> bool:
    """Can an arbitrary payout rule make the seller's dispute choices honest?

    True iff the seller's counter and forfeit margins, at win = omega and
    loss = ell, sum to more than 0.  The sum is (1 - 2 gamma)(omega + ell),
    the fee cancelling, so for any rule where winning is preferred to losing
    it is positive exactly when the arbiter favors honest parties
    (gamma < 1/2).  Only gamma enters those rows, the table's first two;
    the trade is a placeholder.  Decided on the report's int margins.
    """
    w, l = as_fraction(omega), as_fraction(ell)
    if w + l <= 0:
        raise ValueError("winning must be preferred to losing (omega > -ell)")
    params = TradeParams(price=1, buyer_value=2, arbiter_error=gamma)
    counters, forfeits = _reports(params, Generic.name, 0, w, [l])[0].margins[:2]
    return counters + forfeits > 0


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

    # Each margin is constant + coeff * wager, and must be > 0 (complete) or
    # >= eps (sound, the dispute layer alone); a zero coeff leaves a
    # condition on the setup alone.
    forms, _, s = _margin_table(params, params.price, wager_class(scheme).slope, [])
    lowers, uppers = [Fraction(0)], []  # wagers must be positive
    for constant, coeff in forms if strict else forms[: len(DISPUTE_LAYER)]:
        bound = eps - Fraction(constant, s * s)
        if coeff == 0:
            if bound > 0 or (strict and bound == 0):
                return LambdaInterval.nothing()
        else:
            (lowers if coeff > 0 else uppers).append(bound / Fraction(coeff, s))
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
    """Solve `tree` by backward induction, one step of the induction plan
    (`_INDUCTION`) per decision node, children first.  A step compares its
    owner's int payoffs at its children's outcomes in action order: the
    pick is the honest action when it attains the maximum, else the first
    maximizer, and its outcome is the pair the pick reaches.  No recursion
    runs per tree, and only the margins are made `Fraction`s."""
    outcomes: dict = dict(tree.leaves)  # each leaf's pair, then each node's by id
    chosen: dict[str, Action] = {}
    margins: dict[str, Fraction] = {}
    scale = tree.scale
    for node_id, side, children, actions, honest in _INDUCTION:
        pairs = [outcomes[child] for child in children]
        own = [pair[side] for pair in pairs]
        best = max(own)
        pick = honest if own[honest] == best else own.index(best)
        chosen[node_id] = actions[pick]
        margins[node_id] = Fraction(best - max(own[:pick] + own[pick + 1:], default=best), scale)
        outcomes[node_id] = pairs[pick]
    return SolvedTree(chosen=chosen, margins=margins)


def _induction_plan(node: DecisionNode, steps: list[tuple]) -> list[tuple]:
    """Append one step per decision node of the subtree at `node` to
    `steps`, children first and in action order, and return `steps`.  A
    step is (the node's id, its owner's index in a payoff pair, its
    children's keys in the outcomes, a leaf or a node's id, in action order,
    its actions, the position of its honest action).  It runs once, at
    import, over `_SHAPE`.  A module-level function, not a closure that
    calls itself, so a call leaves no reference cycle."""
    children = [*node.actions.values()]
    for child in children:
        if isinstance(child, DecisionNode):
            _induction_plan(child, steps)
    actions = [*node.actions]
    steps.append((node.node_id, node.owner is Party.SELLER,
                  [child if isinstance(child, Leaf) else child.node_id for child in children],
                  actions, actions.index(HONEST_PROFILE[node.node_id])))
    return steps


#: The induction plan of `_SHAPE`.
_INDUCTION = _induction_plan(_SHAPE[ROOT], [])


# ---------------------------------------------------------------------------
# Brute-force subgame perfect equilibrium oracle
# ---------------------------------------------------------------------------


def profile_value(tree: GameTree, profile: Profile, node: Optional[DecisionNode] = None) -> PayoffPair:
    """Payoff vector when play follows `profile` from `node` (default root);
    only the nodes on the path are read.  A `node` that is not one of the
    shape's decision nodes, a node id included, is refused by name."""
    if node is None:
        node = tree.root
    elif not (isinstance(node, DecisionNode) and _SHAPE.get(node.node_id) is node):
        raise ValueError(f"{node!r} is not a decision node of the tree")
    buyer, seller = tree.leaves[_reached(node, profile)]
    return PayoffPair(Fraction(buyer, tree.scale), Fraction(seller, tree.scale))


def _subtree_entries(node: Union[DecisionNode, Leaf], leaves: dict[Leaf, int],
                     terms: dict[tuple, int]) -> list[tuple]:
    """One entry per profile of the subtree at `node`: (the choices as
    (node id, action) pairs, `node` first; the buyer's position of the leaf
    reached; each party's deviation positions, its own at the leaves it
    reaches by re-choosing at all of its nodes in the subtree, the other
    party held to the profile; each node's gain term, `node` first).

    Payoffs are positions in a flat list, buyer then seller per leaf, the
    leaves numbered in `leaves` as first met.  A gain term is (its owner's
    deviation positions, its owner's position at the leaf reached), numbered
    in `terms` as first met.  The entries come one combination of the
    children's entries at a time, the first child's slowest, and within one
    in action order."""
    if isinstance(node, Leaf):
        at = 2 * leaves.setdefault(node, len(leaves))
        return [((), at, (frozenset([at]), frozenset([at + 1])), ())]
    side = node.owner is Party.SELLER  # the owner's index in a payoff pair
    moves = [(node.node_id, action) for action in node.actions]
    entries = []
    for below in itertools.product(*[_subtree_entries(child, leaves, terms) for child in node.actions.values()]):
        picks, reached, deviations, gains = zip(*below)
        choices, gains = sum(picks, ()), sum(gains, ())
        top = frozenset().union(*[deviation[side] for deviation in deviations])
        for move, at, deviation in zip(moves, reached, deviations):
            term = terms.setdefault((top, at + side), len(terms))
            entries.append(((move, *choices), at, (deviation[0], top) if side else (top, deviation[1]), (term, *gains)))
    return entries


def _enumeration_plan(root: DecisionNode) -> tuple:
    """The enumeration plan of the tree at `root`: (its leaves in the order
    of the flat payoff list; each profile's choices; each gain term as (its
    deviation positions, its position at the leaf reached); each profile's
    gain terms, one per node)."""
    leaves: dict[Leaf, int] = {}
    terms: dict[tuple, int] = {}
    entries = _subtree_entries(root, leaves, terms)
    return (tuple(leaves), [entry[0] for entry in entries], [(sorted(top), at) for top, at in terms],
            [entry[3] for entry in entries])


#: The enumeration plan of `_SHAPE`: 32 profiles over 24 gain terms.
_ENUMERATION = _enumeration_plan(_SHAPE[ROOT])
#: Each profile's place in the plan, by its set of (node id, action) choices.
_PLACES = {frozenset(choices): place for place, choices in enumerate(_ENUMERATION[1])}


def _worsts(tree: GameTree) -> list[int]:
    """Each profile's worst gain in the plan's order, the most any owner
    gains by deviating in any subgame, as an int over the tree's scale: the
    greatest of its gain terms, each its owner's best payoff at its
    deviation leaves less that at the leaf reached."""
    order, _, terms, rows = _ENUMERATION
    leaves = tree.leaves
    at = [value for leaf in order for value in leaves[leaf]].__getitem__
    gains = [max(map(at, deviation)) - at(reached) for deviation, reached in terms]
    return [max(map(gains.__getitem__, row)) for row in rows]


def profile_epsilon(tree: GameTree, profile: Profile) -> Fraction:
    """Smallest slack at which the profile is a subgame perfect equilibrium.

    The maximum, over every subgame, of what its owner gains by deviating at
    any of its own nodes in it: the profile's worst gain in the enumeration
    plan (`_worsts`), found by its set of choices, whatever their order.
    Zero means exact subgame perfection.  The profile must give every
    decision node one of that node's actions, and name no other node.
    """
    for node_id in profile:
        if node_id not in _SHAPE:
            raise ValueError(f"profile names {node_id!r}, not a decision node of the tree")
    for node in _SHAPE.values():
        _choice(node, profile)
    return Fraction(_worsts(tree)[_PLACES[frozenset(profile.items())]], tree.scale)


def brute_force_spe(tree: GameTree, epsilon=Fraction(0)) -> list[Profile]:
    """Every pure profile that is a subgame perfect epsilon-equilibrium.

    epsilon=0 gives the exact SPE set, and a negative one is refused.  Ground
    truth for the analytic checkers.  The enumeration plan, built once
    from `_SHAPE`, lists every profile with its gain terms.  Each profile's
    worst gain (`_worsts`), an int over the tree's scale, is compared with
    epsilon by cross-multiplication.
    """
    eps = as_fraction(epsilon)
    if eps < 0:
        raise ValueError(f"epsilon must be >= 0, got {eps}")
    bound, denominator = eps.numerator * tree.scale, eps.denominator
    found = [dict(choices) for choices, worst in zip(_ENUMERATION[1], _worsts(tree)) if worst * denominator <= bound]
    if len(found) > 1:
        found.sort(key=lambda p: tuple(p[k].value for k in sorted(p)))
    return found
