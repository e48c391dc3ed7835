"""One ledger with a fee, driven across the layers by one state machine.

Accounts, two-party contracts with and without a timeout policy, their
moves by either party, deadlines that pass unwatched, arbitration verdicts,
clock ticks and multiparty batches all act on the same `Ledger`, in any
order, and contract ids are drawn from a pool that holds the batch pot's
own id.  After every step the machine checks what the layers promise of
the ledger they share: the funds are conserved, a refused call changes no
read, a late move ends its contract by its phase's default, each pot holds
exactly its contract's books and the clock never moves back.
"""

from fractions import Fraction
from random import Random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    precondition,
    rule,
    run_state_machine_as_test,
)

from escrowlab.arbiter import BASIS_ORACLE, Verdict
from escrowlab.contract import _DEFAULTS, ContractError, DeadlineExpired, Phase, propose
from escrowlab.gametree import Party
from escrowlab.ledger import Ledger, LedgerError, TimeoutPolicy
from escrowlab.multiparty import POT, MultipartyError, multiparty_run
from escrowlab.trade import Standard, TradeParams, WinnerRebate, Withheld

NAMES = ("a", "b", "c", "d", "e")
BALANCES = (0, 0, 1, 3, 20, 20, 50, Fraction(7, 2), Fraction(61, 3))
#: Contract ids: a contract may share its pot's id with the batch pot.
IDS = ("c0", "c1", "c2", "c3", "c4", POT)
#: Each party move and the role that owns it.
MOVES = {
    "accept": "seller", "fund": "buyer", "notify_delivery": "seller", "dispute": "buyer",
    "counter": "seller", "forfeit": "seller", "accept_delivery": "buyer",
}
#: The moves that can take each phase on, once the seller has accepted,
#: drawn mostly onto the dispute path, where the most ledger calls are.
ONWARD = {
    Phase.PROPOSED: ["fund"],
    Phase.FUNDED: ["notify_delivery", "dispute", "dispute", "accept_delivery"],
    Phase.DELIVERED_NOTIFIED: ["dispute", "dispute", "accept_delivery"],
    Phase.DISPUTED: ["counter", "forfeit"],
}
TERMINAL = (Phase.SETTLED, Phase.ABORTED)
#: What a refused call may raise; `DeadlineExpired`, a `ContractError`, is caught before these.
REFUSED = (ContractError, LedgerError, MultipartyError, ValueError)
#: Prices of batch trades.  A denominator of 7, 11 or 13 makes the ledger
#: rescale inside the batch the first time it comes, and a price below the
#: fee paid to a seller with nothing else makes the batch raise at that
#: seller's withdrawal.
BATCH_PRICES = (0, 0, 0, 1, Fraction(1, 2), Fraction(1, 7), Fraction(3, 11), Fraction(2, 13))
#: Batches per run: each charges its fees, and a few leave the contracts
#: something to move with.
BATCHES = 6
#: A fixed step count and example budget: about 5 s on one vCPU of a 2-vCPU
#: machine under Python 3.11.
STEPS, EXAMPLES = 100, 80


class OneLedger(RuleBasedStateMachine):
    contracts = Bundle("contracts")

    @initialize(
        tau=st.sampled_from([Fraction(1, 10), Fraction(1, 3), Fraction(1, 2)]),
        balances=st.tuples(st.sampled_from(BALANCES), st.sampled_from(BALANCES)),
    )
    def open_ledger(self, tau, balances):
        # Two accounts from the start, so every rule can be drawn at once.
        self.ledger = Ledger(tau=tau)
        self.accounts, self.proposed, self.batches = list(NAMES[:2]), [], 0
        for name, balance in zip(self.accounts, balances):
            self.ledger.open_account(name, balance)
        self.total = self.ledger.total_funds()
        self.clock = 0
        self.outcome = None

    def _call(self, action, contract=None):
        """Run one call and keep what the invariants read of it: the
        snapshot before it, and how it ended (done, refused, or late with
        the contract's phase before it)."""
        self.before = self.ledger.snapshot()
        phase = None if contract is None else contract.phase
        try:
            action()
        except DeadlineExpired:
            self.outcome = ("late", contract, phase)
        except REFUSED:
            self.outcome = ("refused",)
        else:
            self.outcome = ("done",)
        return self.outcome[0] == "done"

    @precondition(lambda self: len(self.accounts) < len(NAMES))
    @rule(name=st.sampled_from(NAMES), balance=st.sampled_from(BALANCES))
    def open_account(self, name, balance):
        if self._call(lambda: self.ledger.open_account(name, balance)):
            self.accounts.append(name)
            self.total += balance

    @precondition(lambda self: len(self.proposed) < len(IDS))
    @rule(
        target=contracts,
        data=st.data(),
        cid=st.sampled_from(IDS),
        scheme=st.builds(lambda kind, wager: kind(wager), st.sampled_from([Standard, WinnerRebate, Withheld]),
                         st.sampled_from([1, 2, Fraction(1, 2)])),
        price=st.sampled_from([2, Fraction(3, 2)]),
        policy=st.sampled_from([None, TimeoutPolicy(threshold=3, timeout=12), TimeoutPolicy(2, 10, deposit=2)]),
    )
    def propose(self, data, cid, scheme, price, policy):
        # Two accounts, now and then the same one twice or a seller with no account.
        buyer, seller = data.draw(st.permutations(self.accounts))[:2]
        seller = data.draw(st.sampled_from([seller, seller, seller, buyer, "z"]))
        params = TradeParams(price=price, seller_value=1, buyer_value=5)
        made = []
        if self._call(lambda: made.append(propose(self.ledger, cid, buyer, seller, params, scheme, policy))):
            self.proposed += made
        return multiple(*made)

    def _move(self, contract, kind, by_owner):
        owner = getattr(contract, MOVES[kind])
        actor = owner if by_owner else contract.buyer if owner == contract.seller else contract.seller
        self._call(lambda: getattr(contract, kind)(actor), contract)

    def _arbitrate(self, contract, winner):
        def arbitrate():
            contract.begin_arbitration()
            contract.settle_arbitration(Verdict(winner, BASIS_ORACLE, (("arbiter", f"RULE {winner.value}"),)))

        self._call(arbitrate)

    @precondition(lambda self: any(contract.phase not in TERMINAL for contract in self.proposed))
    @rule(data=st.data())
    def act(self, data):
        # A live contract's owner makes a move that takes it on, or the
        # arbiter rules on its counter.
        contract = data.draw(st.sampled_from([c for c in self.proposed if c.phase not in TERMINAL]))
        onward = ONWARD.get(contract.phase) if contract.seller_accepted else ["accept"]
        if onward is None:
            self._arbitrate(contract, data.draw(st.sampled_from([Party.BUYER, Party.SELLER])))
        else:
            self._move(contract, data.draw(st.sampled_from(onward)), True)

    @rule(contract=contracts, kind=st.sampled_from(sorted(MOVES)), by_owner=st.booleans())
    def move(self, contract, kind, by_owner):
        # Any move of any contract, by its owner or by the other party.
        self._move(contract, kind, by_owner)

    @rule(contract=contracts, ticks=st.integers(1, 12))
    def sleep(self, contract, ticks):
        # An unwatched clock: the contract's next move finds itself late.
        def unwatched():
            self.ledger.cancel_timeout(contract.contract_id)
            self.ledger.advance_time(ticks)

        self._call(unwatched)

    @rule(contract=contracts, winner=st.sampled_from([Party.BUYER, Party.SELLER]))
    def settle(self, contract, winner):
        self._arbitrate(contract, winner)

    @precondition(lambda self: any(contract.phase not in TERMINAL for contract in self.proposed))
    @rule(ticks=st.integers(1, 2))
    def advance_time(self, ticks):
        self._call(lambda: self.ledger.advance_time(ticks))

    @precondition(lambda self: self.batches < BATCHES)
    @rule(data=st.data())
    def batch(self, data):
        self.batches += 1
        n = data.draw(st.integers(2, min(3, len(self.accounts))))
        parties = data.draw(st.permutations(self.accounts))[:n]
        row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        bits = st.lists(row, min_size=n, max_size=n)
        payments = [[0 if i == j else data.draw(st.sampled_from(BATCH_PRICES)) for j in range(n)] for i in range(n)]
        disputes, counters, coin = data.draw(bits), data.draw(bits), data.draw(st.none() | bits)
        rng = Random(data.draw(st.integers(0, 2**32)))
        self._call(lambda: multiparty_run(self.ledger, parties, payments, disputes, counters, rng=rng, coin_matrix=coin))

    @invariant()
    def funds_are_conserved(self):
        assert self.ledger.total_funds() == self.total

    @invariant()
    def a_refused_call_changes_no_read(self):
        if self.outcome == ("refused",):
            assert self.ledger.snapshot() == self.before

    @invariant()
    def a_late_move_ends_its_contract_by_its_default(self):
        if self.outcome is not None and self.outcome[0] == "late":
            _, contract, phase = self.outcome
            assert contract.phase in TERMINAL
            assert contract.settled_how == _DEFAULTS[phase][1]

    @invariant()
    def a_timeout_default_never_comes_early(self):
        # A default by timeout ends a phase its whole timeout after the
        # phase's first record, or later when its deadline was unwatched.
        for contract in self.proposed:
            time, _, _, action, _ = contract.events[-1]
            if action.startswith("timeout_"):
                phase = contract.events[-2][1]
                entered = next(at for at, entered, *_ in contract.events if entered is phase)
                assert time - entered >= contract.policy.timeout

    @invariant()
    def each_pot_holds_its_contracts_books(self):
        for contract in self.proposed:
            held = self.ledger.pot_balance(contract.contract_id)
            if contract.phase in TERMINAL:
                assert held == 0 == contract.pot_total()
            else:
                assert contract.pot_total() == held

    @invariant()
    def the_clock_never_moves_back(self):
        assert self.ledger.time >= self.clock
        self.clock = self.ledger.time


def test_one_ledger_keeps_every_layers_books():
    run_state_machine_as_test(
        OneLedger, settings=settings(max_examples=EXAMPLES, stateful_step_count=STEPS, deadline=None)
    )
