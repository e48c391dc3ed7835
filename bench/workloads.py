"""The four benchmark workloads: seeded inputs, one op, and its output check.

Every workload draws all of its inputs from the seed when it is built, before
any timing.  The library only ever receives those generated inputs.  All
calls into escrowlab go through module attributes of `lab` at call time, so
the trace shim sees them once it is installed.

A workload provides:

* `start()`        fresh state before a measured loop or a traced pass
* `op(k)`          the k-th op; raises whatever the library raises
* `check(k, out)`  verifies the op's output, returns units completed, raises
                   `CheckFailed` on a wrong output
* `finish()`       checks that only make sense at the end of a loop
* `probes`         counters for the per-layer metrics, reset by `start()`
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
from collections import Counter
from fractions import Fraction
from random import Random
from types import SimpleNamespace

LAYERS = ("trade", "gametree", "equilibrium", "ledger", "contract", "arbiter", "agents", "multiparty", "cli")
SCHEMES = ("standard", "winner_rebate", "withheld")
SCHEME_CLASSES = {"standard": "Standard", "winner_rebate": "WinnerRebate", "withheld": "Withheld"}


class CheckFailed(Exception):
    """An op completed but its output is wrong."""


def load_lab() -> SimpleNamespace:
    """Import every escrowlab layer; the caller has put the checkout's src on sys.path."""
    importlib.import_module("escrowlab")
    return SimpleNamespace(**{name: importlib.import_module(f"escrowlab.{name}") for name in LAYERS})


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Workload:
    name = ""
    unit = ""
    #: Op time, check included, at nominal speed on the seed commit.  It
    #: sizes a run: a round holds its share of --seconds over op_ms ops.
    #: Fixed, so every run with the same --seconds runs the same ops.
    op_ms = 10.0
    #: Consecutive ops that hold each kind of input in the same proportion;
    #: a round runs whole cycles.
    cycle = 1
    #: Ops run before timing, and ops in one traced pass.
    warmup_ops = 3
    pass_ops = 10

    def __init__(self, lab: SimpleNamespace):
        self.lab = lab
        self.probes: Counter = Counter()

    @classmethod
    def sized(cls, ops: int) -> dict:
        """Constructor arguments for a run of `ops` ops after the warm-up."""
        return {}

    def start(self) -> None:
        self.probes = Counter()

    def finish(self) -> None:
        pass

    def trace_hooks(self) -> dict:
        """Span name -> callback(result), called on return from that span in traced passes."""
        return {}


# ---------------------------------------------------------------------------
# analysis_sweep
# ---------------------------------------------------------------------------


class AnalysisSweep(Workload):
    """One `escrowlab sweep` row over ~50 wagers, plus an exact cross-check."""

    name = "analysis_sweep"
    unit = "grid points"
    op_ms = 8.5
    cycle = 6  # scheme by k % 3, tau by k // 3 % 2
    pass_ops = 60
    LAMBDAS = 50

    def __init__(self, lab, seed, n_inputs=3000):
        super().__init__(lab)
        rng = Random(f"analysis_sweep:{seed}")
        gammas = [Fraction(k, 200) for k in range(101)]
        rng.shuffle(gammas)
        grids: dict = {}
        self.inputs = []
        for k in range(n_inputs):
            scheme = SCHEMES[k % 3]
            tau = Fraction(0) if (k // 3) % 2 == 0 else Fraction(1, 100)
            gamma = gammas[k % len(gammas)]
            x = Fraction(rng.randint(2, 6), 2)
            xs = x * Fraction(rng.randint(0, 8), 10)
            y = x + Fraction(rng.randint(1, 12), 4)
            shift = rng.randint(0, 10)
            if (x, shift) not in grids:
                lambdas = [x * Fraction(shift + i, 20) for i in range(1, self.LAMBDAS + 1)]
                grids[x, shift] = lambdas, ",".join(map(str, lambdas))
            lambdas, lambda_arg = grids[x, shift]
            argv = [
                "sweep", "--x", str(x), "--x-seller", str(xs), "--y", str(y),
                "--gammas", str(gamma), "--lambdas", lambda_arg,
                "--taus", str(tau), "--schemes", scheme,
            ]
            self.inputs.append(SimpleNamespace(
                argv=argv, scheme=scheme, x=x, xs=xs, y=y, gamma=gamma, tau=tau,
                lambdas=lambdas, probe=rng.randrange(self.LAMBDAS),
            ))

    def op(self, k):
        lab = self.lab
        inp = self.inputs[k % len(self.inputs)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = lab.cli.main(inp.argv)
        params = lab.trade.TradeParams(
            price=inp.x, seller_value=inp.xs, buyer_value=inp.y,
            arbiter_error=inp.gamma, fee=inp.tau,
        )
        scheme = getattr(lab.trade, SCHEME_CLASSES[inp.scheme])(inp.lambdas[inp.probe])
        tree = lab.gametree.build_game_tree(params, scheme)
        solved = lab.equilibrium.backward_induction(tree)
        spe = lab.equilibrium.brute_force_spe(tree, 0)
        return rc, out.getvalue(), tree, solved, spe

    def check(self, k, result) -> int:
        lab = self.lab
        inp = self.inputs[k % len(self.inputs)]
        rc, text, tree, solved, spe = result
        _require(rc == 0, f"cli.main returned {rc}")
        fields = lab.equilibrium.SecurityReport.CSV_FIELDS
        reader = csv.DictReader(io.StringIO(text))
        _require(tuple(reader.fieldnames or ()) == tuple(fields), f"CSV header {reader.fieldnames}")
        rows = list(reader)
        _require(len(rows) == len(inp.lambdas), f"{len(rows)} CSV rows for {len(inp.lambdas)} wagers")
        for row, lam in zip(rows, inp.lambdas):
            _require(
                (row["gamma"], row["tau"], row["scheme"], row["lambda"])
                == (str(inp.gamma), str(inp.tau), inp.scheme, str(lam)),
                f"CSV row {row} is not the requested grid point",
            )
        row = rows[inp.probe]
        complete = row["complete"] == "true"
        eps_csv = Fraction(row["eps_max"]) if row["eps_max"] else None

        honest = lab.gametree.HONEST_PROFILE
        complete_bi = solved.is_honest and solved.unique
        complete_bf = spe == [honest] and solved.unique
        eps_bi = self._eps_from_induction(solved, honest)
        eps_enum = self._eps_from_profiles(tree, honest)
        agree = complete == complete_bi == complete_bf and eps_csv == eps_bi == eps_enum
        self.probes["crosschecks"] += 1
        self.probes["crosscheck_agree"] += agree
        _require(agree, (
            f"{inp.argv} at lambda={inp.lambdas[inp.probe]}: closed form complete={complete} "
            f"eps={eps_csv}, induction complete={complete_bi} eps={eps_bi}, "
            f"enumeration complete={complete_bf} eps={eps_enum}"
        ))
        return len(rows)

    def _dispute_nodes(self):
        g = self.lab.gametree
        return (g.DISPUTE_AFTER_SEND, g.DISPUTE_AFTER_NOSEND, g.AFTER_SEND)

    def _eps_from_induction(self, solved, honest):
        signed = [
            solved.margins[node] if solved.chosen[node] is honest[node] else -solved.margins[node]
            for node in self._dispute_nodes()
        ]
        worst = min(signed)
        return worst if worst > 0 else None

    def _eps_from_profiles(self, tree, honest):
        """Honest value minus one-node deviation value, from the enumeration's profile_value."""
        value = self.lab.equilibrium.profile_value
        gaps = []
        for node_id in self._dispute_nodes():
            node = tree.node(node_id)
            other = next(a for a in node.actions if a is not honest[node_id])
            deviation = {**honest, node_id: other}
            gaps.append(
                value(tree, honest, node).for_party(node.owner)
                - value(tree, deviation, node).for_party(node.owner)
            )
        worst = min(gaps)
        return worst if worst > 0 else None

    def golden(self) -> bytes:
        out = bytearray()
        for k in range(12):
            rc, text, *_ = self.op(k)
            out += text.encode()
        return bytes(out)


# ---------------------------------------------------------------------------
# simulate_mix
# ---------------------------------------------------------------------------


class SimulateMix(Workload):
    """`agents.simulate` over every pure strategy pair, no TimeoutPolicy."""

    name = "simulate_mix"
    unit = "trials"
    op_ms = 11.0
    cycle = 32  # every block of 32 ops covers each strategy pair once
    pass_ops = 64
    TRIALS = 100

    def __init__(self, lab, seed, n_inputs=2048, trials=TRIALS):
        super().__init__(lab)
        agents, trade = lab.agents, lab.trade
        self.trials = trials
        self.pairs = [(s, b) for s in agents.all_seller_strategies() for b in agents.all_buyer_strategies()]
        rng = Random(f"simulate_mix:{seed}")
        self.inputs = []
        order: list[int] = []
        for k in range(n_inputs):
            if not order:
                order = list(range(len(self.pairs)))
                rng.shuffle(order)
            x = Fraction(rng.randint(2, 8), 2)
            params = trade.TradeParams(
                price=x,
                seller_value=x * Fraction(rng.randint(0, 9), 10),
                buyer_value=x + Fraction(rng.randint(1, 12), 4),
                arbiter_error=Fraction(rng.randint(0, 24), 50),
                fee=Fraction(0) if k % 2 == 0 else Fraction(1, 20),
            )
            scheme_name = SCHEMES[k % 3]
            scheme = getattr(trade, SCHEME_CLASSES[scheme_name])(x * Fraction(rng.choice((2, 3, 4, 5, 6, 8)), 4))
            self.inputs.append((params, scheme, order.pop(), rng.randrange(1 << 30)))

    def trace_hooks(self) -> dict:
        # simulate() drops each episode's contract; run_trial returns it.
        def count_events(result):
            self.probes["events"] += len(getattr(result[2], "events", ()))
        return {"agents.run_trial": count_events}

    def op(self, k):
        params, scheme, pair, seed = self.inputs[k % len(self.inputs)]
        seller, buyer = self.pairs[pair]
        return self.lab.agents.simulate(params, scheme, seller, buyer, trials=self.trials, seed=seed)

    def check(self, k, stats) -> int:
        params, scheme, pair, _ = self.inputs[k % len(self.inputs)]
        seller, buyer = self.pairs[pair]
        Leaf = self.lab.gametree.Leaf
        x, xs, y, tau = params.price, params.seller_value, params.buyer_value, params.fee
        win, loss = scheme.win_gain(params), scheme.loss_cost(params)
        send = seller.send
        disputing = buyer.dispute_if_delivered if send else buyer.dispute_if_undelivered
        countering = disputing and (seller.counter_if_delivered if send else seller.counter_if_undelivered)
        t = self.trials
        fee_moves = 2 + send + disputing + countering  # accept, fund, notify, dispute, counter
        _require(stats.trials == t, f"trials {stats.trials} != {t}")
        _require(stats.fees_total == t * fee_moves * tau, f"fees_total {stats.fees_total}")
        _require(stats.dispute_rate == int(disputing), f"dispute_rate {stats.dispute_rate}")
        _require(stats.arbitration_rate == int(countering), f"arbitration_rate {stats.arbitration_rate}")
        classes = 1
        if not countering:
            if not disputing:
                leaf = Leaf.SEND_ACCEPT if send else Leaf.NOSEND_ACCEPT
            else:
                leaf = Leaf.SEND_DISPUTE_FORFEIT if send else Leaf.NOSEND_DISPUTE_FORFEIT
            # The tree starts after accept and fund, which cost each party one fee.
            expected = self.lab.gametree.leaf_payoff(leaf, params, scheme)
            _require(
                (stats.mean_buyer_payoff, stats.mean_seller_payoff)
                == (expected.buyer - tau, expected.seller - tau),
                f"pair {pair} means differ from leaf {leaf.value}",
            )
        else:
            # Every trial ends at one of two verdict outcomes, so t * mean is
            # an integer mix k * buyer_wins + (t - k) * seller_wins.
            if send:
                buyer_wins = (y + win - x - 2 * tau, -loss - xs - 3 * tau)
                seller_wins = (-x - loss - 2 * tau, win - xs - 3 * tau)
            else:
                buyer_wins = (win - x - 2 * tau, -loss - 2 * tau)
                seller_wins = (-x - loss - 2 * tau, win - 2 * tau)
            wins = (t * stats.mean_buyer_payoff - t * seller_wins[0]) / (buyer_wins[0] - seller_wins[0])
            _require(wins.denominator == 1 and 0 <= wins <= t, f"pair {pair} buyer mean off the verdict lattice")
            _require(
                t * stats.mean_seller_payoff == wins * buyer_wins[1] + (t - wins) * seller_wins[1],
                f"pair {pair} seller mean disagrees with the buyer's verdict count",
            )
            if params.arbiter_error == 0:
                _require(wins == (0 if send else t), f"pair {pair}: error-free oracle ruled against the honest party")
            classes = 1 if wins in (0, t) else 2
        self.probes["episode_classes"] += classes
        self.probes["trials"] += t
        return t

    def golden(self) -> bytes:
        out = []
        for k in range(32):
            stats = self.op(k)
            out.append(",".join(f"{key}={value}" for key, value in stats.to_row().items()))
        return ("\n".join(out) + "\n").encode()


# ---------------------------------------------------------------------------
# shared_ledger
# ---------------------------------------------------------------------------

THRESHOLD, TIMEOUT = 4, 12


def _lateness(rng: Random):
    """Response delay into a phase: early, on the payback ramp, or too late (None)."""
    r = rng.random()
    if r < 0.6:
        return rng.randint(0, THRESHOLD)
    if r < 0.85:
        return rng.randint(THRESHOLD + 1, TIMEOUT - 1)
    return None


def _coin_delay(rng: Random) -> int:
    r = rng.random()
    if r < 0.05:
        return TIMEOUT + rng.randint(0, 3)
    if r < 0.25:
        return rng.randint(1, TIMEOUT - 1)
    return 0


class _Channel:
    """Coin-toss party that answers honestly, possibly after a scripted delay."""

    def __init__(self, lab, inner, delays):
        self.lab, self.inner, self.delays = lab, inner, delays

    def respond(self, request, transcript):
        message = self.inner.respond(request, transcript)
        ticks = self.delays.get(request, 0)
        return self.lab.arbiter.Late(message, ticks) if ticks else message


class SharedLedger(Workload):
    """A steady population of live contracts on one Ledger; op = one tick."""

    name = "shared_ledger"
    unit = "contracts"
    op_ms = 28.0
    warmup_ops = TIMEOUT
    pass_ops = 40
    CONSERVATION_EVERY = 16

    def __init__(self, lab, seed, population=2000, n_scripts=16000):
        super().__init__(lab)
        trade = lab.trade
        self.population = population
        self.policy = lab.ledger.TimeoutPolicy(threshold=THRESHOLD, timeout=TIMEOUT)
        self.tau = Fraction(1, 50)
        self.kinds = []
        for price in range(1, 9):
            params = trade.TradeParams(
                price=price, seller_value=Fraction(price, 2), buyer_value=2 * price,
                arbiter_error=Fraction(1, 2), fee=self.tau,
            )
            self.kinds.append((params, trade.Standard(price)))
        rng = Random(f"shared_ledger:{seed}")
        self.scripts = []
        for _ in range(n_scripts):
            send = rng.random() < 0.85
            disputes = rng.random() < (0.15 if send else 0.9)
            counters = rng.random() < (0.8 if send else 0.2)
            accept = _lateness(rng)
            fund = _lateness(rng)
            if accept is not None and fund is not None:
                fund = max(fund, accept)
            self.scripts.append(SimpleNamespace(
                kind=rng.randrange(len(self.kinds)), accept=accept, fund=fund,
                send=send, notify=_lateness(rng), disputes=disputes, buyer=_lateness(rng),
                counters=counters, seller=_lateness(rng),
                coin={"commit": _coin_delay(rng), "bit": _coin_delay(rng), "open": _coin_delay(rng)},
                coin_seed=rng.randrange(1 << 30),
            ))

    # -- state -----------------------------------------------------------------

    def start(self) -> None:
        super().start()
        lab = self.lab
        self.ledger = lab.ledger.Ledger(tau=self.tau)
        endow = 10**6
        for slot in range(self.population):
            self.ledger.open_account(f"b{slot}", endow)
            self.ledger.open_account(f"s{slot}", endow)
        self.total = self.ledger.total_funds()
        self.live = {}
        self.due: dict[int, list] = {}
        self.expiry: dict[int, list] = {}
        self.next_script = 0
        self.next_id = 0
        self.ticks = 0
        self._now = -1
        self._moves = None
        # Ramp the population up over one timeout window so ages are spread.
        per_tick = -(-self.population // TIMEOUT)
        free = list(range(self.population))
        while free:
            for slot in free[:per_tick]:
                self._propose(slot)
            del free[:per_tick]
            self.op(-1)

    def _propose(self, slot: int) -> None:
        ledger = self.ledger
        script = self.scripts[self.next_script % len(self.scripts)]
        self.next_script += 1
        cid = f"c{self.next_id}"
        self.next_id += 1
        params, scheme = self.kinds[script.kind]
        contract = self.lab.contract.propose(ledger, cid, f"b{slot}", f"s{slot}", params, scheme, self.policy)
        self.live[cid] = (contract, slot, script, ledger.time)
        self._after(cid, ledger.time, script.accept, "accept")

    def _after(self, cid: str, entered: int, lateness, step: str) -> None:
        """Schedule `step` `lateness` ticks after its phase began, or expect the phase's timeout."""
        if lateness is None:
            self.expiry.setdefault(entered + TIMEOUT, []).append(cid)
        elif entered + lateness == self._now and self._moves is not None:
            self._moves.append((cid, step))
        else:
            self.due.setdefault(entered + lateness, []).append((cid, step))

    def _terminate(self, cid: str, by_timeout: bool) -> None:
        contract, slot, _, _ = self.live.pop(cid)
        Phase = self.lab.contract.Phase
        _require(contract.phase in (Phase.SETTLED, Phase.ABORTED), f"{cid} ended in {contract.phase}")
        _require(self.ledger.pot_balance(cid) == 0, f"{cid} left {self.ledger.pot_balance(cid)} in its pot")
        _require(contract.pot_total() == 0, f"{cid} books {contract.pot_total()} after settling")
        self.probes["terminated"] += 1
        self.probes["deadline_expired"] += by_timeout
        self.probes["events"] += len(getattr(contract, "events", ()))
        self.done += 1
        self._propose(slot)

    # -- op ----------------------------------------------------------------------

    def op(self, k):
        """One tick: make every due move, then advance the clock by one."""
        ledger = self.ledger
        self.done = 0
        self._now = ledger.time
        self._moves = self.due.pop(self._now, [])
        i = 0
        while i < len(self._moves):
            cid, step = self._moves[i]
            i += 1
            self._step(cid, step)
        self._moves = None
        ledger.advance_time(1)
        # A silent party's contract must have been defaulted by its deadline.
        for cid in self.expiry.pop(ledger.time, ()):
            self._terminate(cid, by_timeout=True)
        self.ticks += 1
        return self.done

    def _step(self, cid: str, step: str) -> None:
        lab = self.lab
        contract, slot, script, proposed = self.live[cid]
        buyer, seller = contract.buyer, contract.seller
        now = self.ledger.time
        try:
            if step == "accept":
                contract.accept(seller)
                self._after(cid, proposed, script.fund, "fund")
            elif step == "fund":
                contract.fund(buyer)
                if script.send:
                    self._after(cid, now, script.notify, "notify")
                else:
                    self._after(cid, now, script.buyer, "dispute" if script.disputes else "accept_delivery")
            elif step == "notify":
                contract.notify_delivery(seller)
                self._after(cid, now, script.buyer, "dispute" if script.disputes else "accept_delivery")
            elif step == "dispute":
                contract.dispute(buyer)
                self._after(cid, now, script.seller, "counter" if script.counters else "forfeit")
            elif step == "counter":
                contract.counter(seller)
                self.due.setdefault(now + 1, []).append((cid, "arbitrate"))
            elif step == "forfeit":
                contract.forfeit(seller)
            elif step == "accept_delivery":
                contract.accept_delivery(buyer)
            elif step == "arbitrate":
                arbiter = lab.arbiter
                rng = Random(script.coin_seed)
                seller_ch = _Channel(lab, arbiter.HonestSeller(rng), script.coin)
                buyer_ch = _Channel(lab, arbiter.HonestBuyer(rng), script.coin)
                contract.run_arbitration(
                    lambda c: lab.arbiter.coin_toss_arbitrate(seller_ch, buyer_ch, self.policy)
                )
        except lab.contract.DeadlineExpired:
            self._terminate(cid, by_timeout=True)
            return
        if contract.phase in (lab.contract.Phase.SETTLED, lab.contract.Phase.ABORTED):
            self._terminate(cid, by_timeout=False)

    def check(self, k, done) -> int:
        Phase = self.lab.contract.Phase
        timed = (Phase.PROPOSED, Phase.FUNDED, Phase.DELIVERED_NOTIFIED, Phase.DISPUTED)
        self.probes["pending"] += sum(entry[0].phase in timed for entry in self.live.values())
        self.probes["pending_samples"] += 1
        if self.ticks % self.CONSERVATION_EVERY == 0:
            self._check_conservation()
        return done

    def _check_conservation(self) -> None:
        total = self.ledger.total_funds()
        _require(total == self.total, f"ledger holds {total}, started with {self.total}")

    def finish(self) -> None:
        self._check_conservation()

    def golden(self) -> bytes:
        self.start()
        for k in range(60):
            self.op(k)
        self.finish()
        return self.ledger.snapshot().encode()


# ---------------------------------------------------------------------------
# multiparty_batch
# ---------------------------------------------------------------------------

MP_PRICES = tuple(Fraction(p) for p in ("1/4", "1/2", "1", "2", "3", "5", "8"))
MP_FEES = (Fraction(1, 10), Fraction(1, 2), Fraction(2))
#: Per-party trading activity, each level held by an equal share of the
#: parties; a pair trades with probability a_i * a_j, so many parties trade
#: rarely and a few trade with most others.
MP_ACTIVITY = (0.05, 0.1, 0.3, 0.6, 0.9)


class MultipartyBatch(Workload):
    """One `multiparty_run` on a fresh ledger; every third batch is large.

    The pool holds one batch per op of a round, so a round never repeats one.
    """

    name = "multiparty_batch"
    unit = "parties"
    op_ms = 80.0
    cycle = 9  # large by k % 3, fee by k // 3 % 3
    warmup_ops = 2
    pass_ops = 6

    @classmethod
    def sized(cls, ops: int) -> dict:
        return {"n_batches": cls.warmup_ops + ops}

    def __init__(self, lab, seed, n_batches=47, small=50, large=200):
        super().__init__(lab)
        rng = Random(f"multiparty_batch:{seed}")
        self.batches = []
        for k in range(n_batches):
            n = large if k % 3 == 2 else small
            tau = MP_FEES[(k // 3) % len(MP_FEES)]
            pay = [[0] * n for _ in range(n)]
            disputes = [[0] * n for _ in range(n)]
            counters = [[0] * n for _ in range(n)]
            activity = [MP_ACTIVITY[i % len(MP_ACTIVITY)] for i in range(n)]
            rng.shuffle(activity)
            # What each party must escrow to fund every step it asks for.
            need = [3 * tau] * n
            for i in range(n):
                row, a = pay[i], activity[i]
                for j in range(n):
                    if i != j and rng.random() < a * activity[j]:
                        price = row[j] = rng.choice(MP_PRICES)
                        need[i] += price
                        if rng.random() < 0.2:
                            disputes[i][j] = 1
                            need[i] += price
                            if rng.random() < 0.5:
                                counters[j][i] = 1
                                need[j] += price
            endow = [
                full + rng.randint(0, 3) if rng.random() < 0.8 else full * Fraction(rng.randint(0, 9), 10)
                for full in need
            ]
            self.batches.append(SimpleNamespace(
                n=n, tau=tau, parties=[f"p{i}" for i in range(n)], payments=pay,
                disputes=disputes, counters=counters, endow=endow, coin_seed=rng.randrange(1 << 30),
            ))
        self._two_party: dict = {}

    def batch(self, k):
        return self.batches[k % len(self.batches)]

    def span_label(self, name: str, op_id: int):
        return f"n{self.batch(op_id).n}" if name == "multiparty.run" else None

    def op(self, k):
        lab = self.lab
        b = self.batch(k)
        ledger = lab.ledger.Ledger(tau=b.tau)
        for name, amount in zip(b.parties, b.endow):
            ledger.open_account(name, amount)
        result = lab.multiparty.multiparty_run(
            ledger, b.parties, b.payments, b.disputes, b.counters, rng=Random(b.coin_seed)
        )
        return ledger, result

    def _outcome(self, price, state):
        """(buyer delta, seller delta, arbiter take) of one real two-party contract, fee-free."""
        key = (price, state)
        if key not in self._two_party:
            lab = self.lab
            ledger = lab.ledger.Ledger()
            endow = 10 * price + 10
            ledger.open_account("B", endow)
            ledger.open_account("S", endow)
            params = lab.trade.TradeParams(price=price, seller_value=0, buyer_value=2 * price + 1)
            contract = lab.contract.propose(ledger, "t", "B", "S", params, lab.trade.Standard(price))
            contract.accept("S")
            contract.fund("B")
            if state == "accept":
                contract.accept_delivery("B")
            else:
                contract.dispute("B")
                if state == "forfeit":
                    contract.forfeit("S")
                else:
                    contract.counter("S")
                    Party = lab.gametree.Party
                    winner = Party.SELLER if state == "seller" else Party.BUYER
                    contract.begin_arbitration()
                    contract.settle_arbitration(lab.arbiter.Verdict(
                        winner, lab.arbiter.BASIS_ORACLE, (("arbiter", f"RULE {winner.value}"),)
                    ))
            self._two_party[key] = (
                ledger.balance("B") - endow, ledger.balance("S") - endow, ledger.arbiter_sink,
            )
        return self._two_party[key]

    def check(self, k, result) -> int:
        ledger, m = result
        b = self.batch(k)
        n = b.n
        x, d, c, coin = m.payments, m.disputes, m.counters, m.coin
        delta = [Fraction(0)] * n
        deposits = [Fraction(0)] * n
        arbiter = Fraction(0)
        for i in range(n):
            for j in range(n):
                price = x[i][j]
                if not price:
                    continue
                _require(price == b.payments[i][j], f"trade ({i},{j}) price changed")
                if not d[i][j]:
                    state = "accept"
                elif not c[j][i]:
                    state = "forfeit"
                else:
                    state = "seller" if coin[i][j] else "buyer"
                db, ds, da = self._outcome(price, state)
                delta[i] += db
                delta[j] += ds
                arbiter += da
                deposits[i] += price + (price if d[i][j] else 0)
                if d[i][j] and c[j][i]:
                    deposits[j] += price
        fees = ledger.move_counts
        for i, name in enumerate(b.parties):
            _require(m.payouts[i] == delta[i] + deposits[i], f"{name} payout {m.payouts[i]} is not the composed outcome")
            _require(
                ledger.balance(name) - b.endow[i] + fees.get(name, 0) * b.tau == delta[i],
                f"{name} balance moved by other than its composed two-party outcomes",
            )
        _require(ledger.arbiter_sink == arbiter, f"arbiter took {ledger.arbiter_sink}, composed {arbiter}")
        _require(ledger.pot_balance("multiparty") == 0, "multiparty pot not emptied")
        _require(ledger.total_funds() == sum(b.endow, Fraction(0)), "funds not conserved")
        most = max(fees.values(), default=0)
        _require(most <= 4, f"a party made {most} fee-bearing moves")
        self.probes["fee_moves_max"] = max(self.probes["fee_moves_max"], most)
        self._count_defaults(b, m)
        return n

    def _count_defaults(self, b, m) -> None:
        """Steps requested in the inputs and steps the batch converted to defaults."""
        n = b.n
        requested = defaulted = 0
        for i in range(n):
            if any(b.payments[i]):
                requested += 1
                defaulted += not any(m.payments[i])
            if any(b.disputes[i][j] and m.payments[i][j] for j in range(n)):
                requested += 1
                defaulted += not any(m.disputes[i])
            if any(b.counters[i][j] and m.disputes[j][i] for j in range(n)):
                requested += 1
                defaulted += not any(m.counters[i])
        self.probes["steps_requested"] += requested
        self.probes["steps_defaulted"] += defaulted

    def golden(self) -> bytes:
        out = []
        for k in range(len(self.batches)):
            try:
                _, m = self.op(k)
                out.append(" ".join(map(str, m.payouts)))
            except self.lab.ledger.LedgerError as exc:
                out.append(f"raised {type(exc).__name__}")
        return ("\n".join(out) + "\n").encode()


WORKLOADS = {w.name: w for w in (AnalysisSweep, SimulateMix, SharedLedger, MultipartyBatch)}

#: Smaller inputs for the golden digests, drawn from a fixed seed.
GOLDEN_SEED = 20201
GOLDEN_ARGS = {
    "analysis_sweep": {"n_inputs": 12},
    "simulate_mix": {"n_inputs": 32, "trials": 40},
    "shared_ledger": {"population": 150, "n_scripts": 600},
    "multiparty_batch": {"n_batches": 6, "small": 20, "large": 40},
}
