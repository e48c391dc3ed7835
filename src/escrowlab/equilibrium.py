"""Equilibrium analysis of the contract game.

Three independent routes answer the same questions:

* closed-form node margins, one affine table, `_margin_table`,
* backward induction over the built tree's leaves,
* brute-force enumeration of every pure strategy profile, in one
  bottom-up pass over per-subtree tables (`_table`).

The analytic layer is the production surface: `security_report` reads the
table into the one record per setup, and every other checker reads that
record or the table; the other two act as oracles in the test suite.
Every value returned is an exact `Fraction`.  The sweep's and the
enumeration's decisions are made in ints: a sweep row's margin forms and
wagers, or a tree's leaf payoffs and epsilon, are put over one common
scale (`trade.scaled`), so strict versus non-strict boundaries are decided
exactly, without tolerance and without a `Fraction` per comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

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
    LeafNode,
    Party,
    PayoffPair,
    TreeNode,
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


class _Row(NamedTuple):
    """One decision node's constraint.  The honest action's advantage there,
    with honest play downstream, is affine in the arbitration payouts:
    constant + per_win * (winner's net gain) + per_loss * (loser's net cost).
    """

    node: str
    name: str
    dispute: bool  # a dispute-layer margin, one that bounds every dishonest deviation
    constant: Fraction
    per_win: Fraction
    per_loss: Fraction

    def at(self, win: Fraction, loss: Fraction) -> Fraction:
        """The margin when the winner nets `win` and the loser loses `loss`."""
        return self.constant + self.per_win * win + self.per_loss * loss


def _margin_table(params: TradeParams) -> tuple[_Row, ...]:
    """Every decision node's margin, ordered as the constraint names above.

    Fees enter with the sign of the move they attach to: countering and
    disputing cost the fee, while the timeout defaults are free.
    """
    x, y, g, t = params.price, params.buyer_value, params.arbiter_error, params.fee
    return (
        _Row(DISPUTE_AFTER_SEND, SELLER_COUNTERS, True, -t, 1 - g, -g),
        _Row(DISPUTE_AFTER_NOSEND, SELLER_FORFEITS, True, t, -g, 1 - g),
        _Row(AFTER_SEND, BUYER_ACCEPTS, True, y * (1 - g) + t, -g, 1 - g),
        _Row(AFTER_NOSEND, BUYER_DISPUTES, False, x - t, 0, 0),
        _Row(ROOT, SELLER_SENDS, False, x - params.seller_value - t, 0, 0),
    )


def _wager_forms(
    params: TradeParams, slope: int, base: Optional[Fraction] = None
) -> tuple[tuple[_Row, ...], list[tuple[Fraction, Fraction]]]:
    """The table and each row's margin as (constant, coefficient) in the
    wager: the winner nets base + slope * wager (base defaults to the price,
    as in an affine scheme), the loser the wager."""
    rows = _margin_table(params)
    win = params.price if base is None else base
    return rows, [(row.constant + row.per_win * win, row.per_win * slope + row.per_loss) for row in rows]


def node_margins(params: TradeParams, scheme: WagerScheme) -> dict[str, Fraction]:
    """Honest-action advantage at each decision node, honest play downstream.

    Positive margin means the honest action strictly beats the alternative.
    """
    win, loss = scheme.win_gain(params), scheme.loss_cost(params)
    return {row.node: row.at(win, loss) for row in _margin_table(params)}


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


@dataclass(frozen=True)
class SecurityReport:
    """Summary of the contract's game-theoretic guarantees for one setup:
    complete (the honest profile is the unique SPE, every slack positive),
    sound_epsilon_max (the largest deviation bound the dispute-layer slacks
    support, if any), and strong (complete and sound at that bound).

    strong always equals complete: when every slack is positive, so is the
    least dispute-layer slack, and the contract is sound at that bound.  The
    CSV keeps both columns."""

    complete: bool
    sound_epsilon_max: Optional[Fraction]
    strong: bool
    weak: bool
    slacks: dict[str, Fraction]
    binding: tuple[str, ...]
    gamma: Fraction
    wager: Fraction
    fee: Fraction
    scheme: str

    CSV_FIELDS = ("gamma", "lambda", "tau", "scheme", "complete", "eps_max", "strong", "weak")

    def to_row(self) -> dict[str, str]:
        """Flat record for CSV output."""
        return {
            "gamma": str(self.gamma),
            "lambda": str(self.wager),
            "tau": str(self.fee),
            "scheme": self.scheme,
            "complete": str(self.complete).lower(),
            "eps_max": "" if self.sound_epsilon_max is None else str(self.sound_epsilon_max),
            "strong": str(self.strong).lower(),
            "weak": str(self.weak).lower(),
        }


def security_report(params: TradeParams, scheme: WagerScheme) -> SecurityReport:
    """The report at the scheme's own stake, from its arbitration payouts."""
    forms = _wager_forms(params, 0, scheme.win_gain(params))
    return _reports(params, scheme.name, *forms, [scheme.loss_cost(params)])[0]


def _reports(
    params: TradeParams,
    scheme_name: str,
    rows: tuple[_Row, ...],
    forms: list[tuple[Fraction, Fraction]],
    stakes: list[Fraction],
) -> list[SecurityReport]:
    """The report at each stake, for the table `rows` whose margins are
    constant + coefficient * stake by `forms`.

    The forms and the stakes are put over one scale s, so each margin times
    s * s is an int: every verdict, minimum and tie is decided in ints, and
    only the slacks are built as `Fraction`s, once per distinct margin (a
    wager-free row's margin recurs at every stake).
    """
    ints, scale = scaled([*itertools.chain.from_iterable(forms), *stakes])
    size = 2 * len(rows)
    table = [(constant * scale, coeff) for constant, coeff in zip(ints[0:size:2], ints[1:size:2])]
    den = scale * scale
    names = [row.name for row in rows]
    dispute = [k for k, row in enumerate(rows) if row.dispute]
    built: dict[int, Fraction] = {}
    reports = []
    for stake, wager in zip(stakes, ints[size:]):
        margins = [constant + coeff * wager for constant, coeff in table]
        slacks = [built[m] if m in built else built.setdefault(m, Fraction(m, den)) for m in margins]
        worst = min(dispute, key=margins.__getitem__)  # the least dispute-layer margin's row
        low = min(margins)
        complete = low > 0
        eps_max = slacks[worst] if margins[worst] > 0 else None
        reports.append(SecurityReport(
            complete=complete,
            sound_epsilon_max=eps_max,
            strong=complete and eps_max is not None,
            weak=low >= 0,
            slacks=dict(zip(names, slacks)),
            binding=tuple(name for name, margin in zip(names, margins) if margin == low),
            gamma=params.arbiter_error,
            wager=stake,
            fee=params.fee,
            scheme=scheme_name,
        ))
    return reports


# ---------------------------------------------------------------------------
# Named-scheme results
# ---------------------------------------------------------------------------


def winner_rebate_lambda(params: TradeParams, epsilon) -> Fraction:
    """Wager making the winner-rebate contract epsilon-strong:
    (x * gamma + epsilon) / (1 - 2 * gamma), the least such wager without a
    fee.  With a fee, `lambda_interval(params, WinnerRebate, epsilon).lower`
    is the least one.  Raises if no wager works: the arbiter errs half the
    time or more, or a wager-free row of the table fails at this fee.
    """
    eps = _positive_epsilon(epsilon)
    g = params.arbiter_error
    if g >= Fraction(1, 2):
        raise ValueError(f"no wager achieves this with arbiter_error {g} >= 1/2")
    for row in _margin_table(params):
        if not (row.per_win or row.per_loss) and row.constant <= 0:
            raise ValueError(f"no wager achieves this with fee {params.fee}: {row.name} fails")
    return (params.price * g + eps) / (1 - 2 * g)


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
    rows = _margin_table(TradeParams(price=1, buyer_value=2, arbiter_error=gamma))
    seller = (SELLER_COUNTERS, SELLER_FORFEITS)
    return sum(row.at(w, l) for row in rows if row.name in seller) > 0


# ---------------------------------------------------------------------------
# Admissible wager intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaInterval:
    """Interval of admissible wagers; upper=None means unbounded above."""

    lower: Fraction
    lower_closed: bool
    upper: Optional[Fraction]
    upper_closed: bool
    empty: bool = False

    @classmethod
    def nothing(cls) -> "LambdaInterval":
        return cls(Fraction(0), False, Fraction(0), False, empty=True)

    def contains(self, value) -> bool:
        if self.empty:
            return False
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
    rows, forms = _wager_forms(params, wager_class(scheme).slope)
    strict = epsilon is None
    eps = Fraction(0) if strict else _positive_epsilon(epsilon)

    # Each margin is constant + coeff * wager, and must be > 0 (complete)
    # or >= eps (sound); a zero coeff leaves a condition on the setup alone.
    lowers, uppers = [Fraction(0)], []  # wagers must be positive
    for row, (constant, coeff) in zip(rows, forms):
        if not (strict or row.dispute):
            continue
        bound = eps - constant
        if coeff == 0:
            if bound > 0 or (strict and bound == 0):
                return LambdaInterval.nothing()
        else:
            (lowers if coeff > 0 else uppers).append(bound / coeff)
    lower, upper = max(lowers), min(uppers, default=None)
    lower_closed = not strict and lower > 0
    upper_closed = not strict and upper is not None
    if upper is not None and (lower > upper or (lower == upper and not (lower_closed and upper_closed))):
        return LambdaInterval.nothing()
    return LambdaInterval(lower, lower_closed, upper, upper_closed)


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
    margins: dict[str, Fraction] = {}
    _solve(tree.root, chosen, margins)
    return SolvedTree(chosen=chosen, margins=margins)


def _solve(node: TreeNode, chosen: dict[str, Action], margins: dict[str, Fraction]) -> PayoffPair:
    """The payoff `node` reaches under backward induction, recording each
    decision node's pick and margin below it.  A module-level function, not
    a closure that calls itself, so a call leaves no reference cycle."""
    if isinstance(node, LeafNode):
        return node.payoff
    outcomes = {action: _solve(child, chosen, margins) for action, child in node.actions.items()}
    own = {action: payoff.for_party(node.owner) for action, payoff in outcomes.items()}
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


def _choice(node: DecisionNode, profile: Profile) -> TreeNode:
    """The child `profile` picks at `node`; a node the profile leaves out,
    or a value that is not one of the node's actions, is refused by name."""
    if node.node_id not in profile:
        raise ValueError(f"profile has no action at node {node.node_id!r}")
    action = profile[node.node_id]
    if not isinstance(action, Action) or action not in node.actions:
        raise ValueError(f"profile's {action!r} is not an action at node {node.node_id!r}")
    return node.actions[action]


def _reached(node: TreeNode, profile: Profile) -> LeafNode:
    """The leaf play reaches when it follows `profile` from `node`."""
    while isinstance(node, DecisionNode):
        node = _choice(node, profile)
    return node


def profile_value(tree: GameTree, profile: Profile, node: Optional[TreeNode] = None) -> PayoffPair:
    """Payoff vector when play follows `profile` from `node` (default root);
    only the nodes on the path are read."""
    return _reached(tree.root if node is None else node, profile).payoff


#: A leaf's (buyer, seller) payoff as ints over the tree's scale, by leaf.
_IntPayoffs = dict[Leaf, tuple[int, int]]


def _scaled_leaves(tree: GameTree, epsilon: Fraction = Fraction(0)) -> tuple[_IntPayoffs, int, int]:
    """The leaf payoffs and `epsilon` over one scale, read from the tree's
    leaves alone: (payoffs by leaf, epsilon, scale)."""
    leaves = tree.leaves()
    (bound, *ints), scale = scaled([epsilon, *(value for leaf in leaves for value in leaf.payoff)])
    return {leaf.leaf_id: (ints[2 * k], ints[2 * k + 1]) for k, leaf in enumerate(leaves)}, bound, scale


def _table(node: TreeNode, payoffs: _IntPayoffs) -> list[tuple]:
    """One entry per profile of the subtree at `node`, from its children's
    tables: (the choices as (node id, action) pairs, `node` first; the
    payoff pair reached; each party's best response; the most any owner in
    the subtree gains by deviating).  The owner's best response is the best
    of its children's, a deviation at all its own nodes below; the other
    party's is that of the child the profile picks."""
    if isinstance(node, LeafNode):
        pair = payoffs[node.leaf_id]
        return [((), pair, pair, 0)]
    side = node.owner is Party.SELLER  # the owner's index in a payoff pair
    table = []
    for below in itertools.product(*(_table(child, payoffs) for child in node.actions.values())):
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
    payoffs, _, scale = _scaled_leaves(tree)
    worst = next(worst for choices, _, _, worst in _table(tree.root, payoffs) if dict(choices) == profile)
    return Fraction(worst, scale)


def brute_force_spe(tree: GameTree, epsilon=Fraction(0)) -> list[Profile]:
    """Every pure profile that is a subgame perfect epsilon-equilibrium.

    epsilon=0 gives the exact SPE set.  Ground truth for the analytic
    checkers.  One table entry per profile of each subtree, so linear in the
    profile count, which is exponential in the nodes: capped at 20 of them.
    The leaf payoffs and epsilon are scaled to ints once per call.
    """
    if len(tree.decision_nodes()) > MAX_BRUTE_FORCE_NODES:
        raise ValueError(f"tree too large for enumeration (> {MAX_BRUTE_FORCE_NODES} nodes)")
    payoffs, bound, _ = _scaled_leaves(tree, as_fraction(epsilon))
    found = [dict(choices) for choices, _, _, worst in _table(tree.root, payoffs) if worst <= bound]
    found.sort(key=lambda p: tuple(p[k].value for k in sorted(p)))
    return found
