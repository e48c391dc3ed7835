"""Equilibrium analysis of the contract game.

Three independent routes answer the same questions:

* closed-form node margins, one affine table, `_margin_table`,
* backward induction over the built tree's leaves,
* brute-force enumeration of every pure strategy profile.

The analytic layer is the production surface: `security_report` reads the
table into the one record per setup, and every other checker reads that
record or the table; the other two act as oracles in the test suite.
Everything is exact rational arithmetic, so strict versus non-strict
boundaries are decided without tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Union

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
    LeafNode,
    Party,
    PayoffPair,
    TreeNode,
)
from .trade import (
    Standard,
    TradeParams,
    WagerScheme,
    Withheld,
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


def _margins(params: TradeParams, scheme: WagerScheme) -> tuple[tuple[_Row, ...], list[Fraction]]:
    """The table and its margins at the scheme's arbitration payouts."""
    rows = _margin_table(params)
    win, loss = scheme.win_gain(params), scheme.loss_cost(params)
    return rows, [row.at(win, loss) for row in rows]


def _wager_forms(params: TradeParams, slope: int) -> tuple[tuple[_Row, ...], list[tuple[Fraction, Fraction]]]:
    """The table and each row's margin as (constant, coefficient) in the wager
    of an affine scheme: the winner nets x + slope * wager, the loser the wager."""
    rows = _margin_table(params)
    x = params.price
    return rows, [(row.constant + row.per_win * x, row.per_win * slope + row.per_loss) for row in rows]


def node_margins(params: TradeParams, scheme: WagerScheme) -> dict[str, Fraction]:
    """Honest-action advantage at each decision node, honest play downstream.

    Positive margin means the honest action strictly beats the alternative.
    """
    rows, margins = _margins(params, scheme)
    return {row.node: margin for row, margin in zip(rows, margins)}


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
    support, if any), and strong (complete and sound at that bound)."""

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
    return _report(params, scheme.loss_cost(params), scheme.name, *_margins(params, scheme))


def _report(
    params: TradeParams, wager: Fraction, scheme_name: str, rows: tuple[_Row, ...], margins: list[Fraction]
) -> SecurityReport:
    """The report for one setup whose table `rows` evaluates to `margins`."""
    complete = all(margin > 0 for margin in margins)
    slacks = {row.name: margin for row, margin in zip(rows, margins)}
    worst = min(margin for row, margin in zip(rows, margins) if row.dispute)
    eps_max = worst if worst > 0 else None
    low = min(margins)
    return SecurityReport(
        complete=complete,
        sound_epsilon_max=eps_max,
        strong=complete and eps_max is not None,
        weak=low >= 0,
        slacks=slacks,
        binding=tuple(name for name, slack in slacks.items() if slack == low),
        gamma=params.arbiter_error,
        wager=wager,
        fee=params.fee,
        scheme=scheme_name,
    )


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


def withheld_security(params: TradeParams) -> SecurityReport:
    """Report for the withheld-wager contract at its canonical wager x/2."""
    return security_report(params, Withheld(params.price / 2))


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
    action on exact ties, with all maximizers listed in tied); margin is the
    chosen action's value lead over the best alternative, so the solved
    profile is the unique pure SPE exactly when every margin is positive.
    """

    tree: GameTree
    chosen: dict[str, Action]
    margins: dict[str, Fraction]
    tied: dict[str, tuple[Action, ...]]

    @property
    def is_honest(self) -> bool:
        return self.chosen == HONEST_PROFILE

    @property
    def unique(self) -> bool:
        return all(margin > 0 for margin in self.margins.values())


def backward_induction(tree: GameTree) -> SolvedTree:
    chosen: dict[str, Action] = {}
    margins: dict[str, Fraction] = {}
    tied: dict[str, tuple[Action, ...]] = {}

    def solve(node: TreeNode) -> PayoffPair:
        if isinstance(node, LeafNode):
            return node.payoff
        outcomes = {action: solve(child) for action, child in node.actions.items()}
        own = {action: payoff.for_party(node.owner) for action, payoff in outcomes.items()}
        best_value = max(own.values())
        maximizers = [a for a, value in own.items() if value == best_value]
        honest = HONEST_PROFILE.get(node.node_id)
        pick = honest if honest in maximizers else maximizers[0]
        runner_up = max((value for a, value in own.items() if a != pick), default=best_value)
        chosen[node.node_id] = pick
        margins[node.node_id] = best_value - runner_up
        tied[node.node_id] = tuple(maximizers)
        return outcomes[pick]

    solve(tree.root)
    return SolvedTree(tree=tree, chosen=chosen, margins=margins, tied=tied)


# ---------------------------------------------------------------------------
# Brute-force subgame perfect equilibrium oracle
# ---------------------------------------------------------------------------

MAX_BRUTE_FORCE_NODES = 20


def all_profiles(tree: GameTree) -> Iterable[Profile]:
    nodes = tree.decision_nodes()
    action_sets = [list(node.actions) for node in nodes]
    for combo in itertools.product(*action_sets):
        yield {node.node_id: action for node, action in zip(nodes, combo)}


def profile_value(tree: GameTree, profile: Profile, node: Optional[TreeNode] = None) -> PayoffPair:
    """Payoff vector when play follows `profile` from `node` (default root)."""
    current: TreeNode = tree.root if node is None else node
    while isinstance(current, DecisionNode):
        current = current.actions[profile[current.node_id]]
    return current.payoff


def profile_epsilon(tree: GameTree, profile: Profile) -> Fraction:
    """Smallest slack at which the profile is a subgame perfect equilibrium.

    The maximum, over every subgame and every unilateral deviation by the
    subgame's mover-to-be owners, of the deviation's gain.  Zero means exact
    subgame perfection.
    """
    worst = Fraction(0)
    for node in tree.decision_nodes():
        actual = profile_value(tree, profile, node).for_party(node.owner)
        best = _best_response_value(tree, profile, node, node.owner)
        gain = best - actual
        if gain > worst:
            worst = gain
    return worst


def _best_response_value(
    tree: GameTree, profile: Profile, node: TreeNode, player: Party
) -> Fraction:
    if isinstance(node, LeafNode):
        return node.payoff.for_party(player)
    if node.owner is player:
        return max(
            _best_response_value(tree, profile, child, player)
            for child in node.actions.values()
        )
    return _best_response_value(tree, profile, node.actions[profile[node.node_id]], player)


def brute_force_spe(tree: GameTree, epsilon=Fraction(0)) -> list[Profile]:
    """Every pure profile that is a subgame perfect epsilon-equilibrium.

    epsilon=0 gives the exact SPE set.  Ground truth for the analytic
    checkers; quadratic in the profile count, so capped at 20 decision nodes.
    """
    if len(tree.decision_nodes()) > MAX_BRUTE_FORCE_NODES:
        raise ValueError(f"tree too large for enumeration (> {MAX_BRUTE_FORCE_NODES} nodes)")
    eps = as_fraction(epsilon)
    found = [p for p in all_profiles(tree) if profile_epsilon(tree, p) <= eps]
    found.sort(key=lambda p: tuple(p[k].value for k in sorted(p)))
    return found
