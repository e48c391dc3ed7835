"""Trace shim: spans around calls into escrowlab's layers, taken from outside.

`Tracer.install` wraps the public callables of each layer and replaces every
reference to them in the escrowlab modules, so a caller that imported a name
(`agents.oracle_arbitrate`, `cli.sweep`, ...) reaches the wrapper too.  Class
methods and constructors are wrapped on the class.  `uninstall` puts every
original back.  Nothing here runs unless a traced pass installs it.

A span is (name, start, end, parent span index, op id, exception name or
None).  Spans live in memory and are written once, at the end, by `dump`.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (span name, module, attribute) for module-level functions.
_FUNCTIONS = (
    ("cli.main", "cli", "main"),
    ("agents.sweep", "agents", "sweep"),
    ("agents.sweep_csv", "agents", "sweep_csv"),
    ("agents.simulate", "agents", "simulate"),
    ("agents.run_trial", "agents", "run_trial"),
    ("equilibrium.security_report", "equilibrium", "security_report"),
    ("equilibrium.node_margins", "equilibrium", "node_margins"),
    ("equilibrium.backward_induction", "equilibrium", "backward_induction"),
    ("equilibrium.brute_force_spe", "equilibrium", "brute_force_spe"),
    ("gametree.build_game_tree", "gametree", "build_game_tree"),
    ("arbiter.oracle", "arbiter", "oracle_arbitrate"),
    ("arbiter.coin_toss", "arbiter", "coin_toss_arbitrate"),
    ("contract.propose", "contract", "propose"),
    ("multiparty.run", "multiparty", "multiparty_run"),
)

LEDGER_OPS = ("transfer", "escrow_deposit", "escrow_release", "charge_move", "pot_to_arbiter", "burn_from_pot")

# (span name, module, class, method) for methods and constructors.
_METHODS = tuple(
    ("trade.construct", "trade", cls, "__init__")
    for cls in ("TradeParams", "Standard", "WinnerRebate", "Withheld", "Generic")
) + tuple(
    (f"contract.moves.{m}", "contract", "EscrowContract", m)
    for m in ("accept", "fund", "notify_delivery", "dispute", "counter", "forfeit", "accept_delivery")
) + tuple(
    (f"contract.settle.{m}", "contract", "EscrowContract", m)
    for m in ("begin_arbitration", "settle_arbitration", "run_arbitration", "on_timeout")
) + tuple(
    (f"ledger.ops.{m}", "ledger", "Ledger", m) for m in LEDGER_OPS
) + (("ledger.advance_time", "ledger", "Ledger", "advance_time"),)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op_id = -1
        self.recording = False
        self.on_return: dict = {}  # span name -> callback(result)
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            err = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op_id, err)
            hook = tracer.on_return.get(name)
            if hook is not None:
                hook(result)
            return result

        return traced

    def install(self, lab) -> None:
        """Wrap every traced callable of the escrowlab modules held by `lab`."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "escrowlab" or n.startswith("escrowlab.")]
        wrappers = {}
        for name, mod, attr in _FUNCTIONS:
            original = getattr(getattr(lab, mod), attr)
            wrappers[id(original)] = (original, self._wrap(name, original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for name, mod, cls_name, attr in _METHODS:
            cls = getattr(getattr(lab, mod), cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


def _child_time(spans) -> list[float]:
    """Per span, the summed duration of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op_id, err in spans:
        if parent >= 0:
            child[parent] += end - start
    return child


def aggregate(spans, label=None) -> dict:
    """Per span name: [calls, self seconds, calls that raised, by exception].

    Self time is a span's duration minus its direct children's durations.
    `label(name, op_id)` may return a suffix that splits a name, such as a
    batch size.
    """
    child = _child_time(spans)
    out: dict = {}
    for i, (name, start, end, parent, op_id, err) in enumerate(spans):
        if label is not None:
            suffix = label(name, op_id)
            if suffix:
                name = f"{name}.{suffix}"
        row = out.setdefault(name, [0, 0.0, {}])
        row[0] += 1
        row[1] += end - start - child[i]
        if err is not None:
            row[2][err] = row[2].get(err, 0) + 1
    return out


def self_time_under(spans, prefix: str, ancestor: str) -> float:
    """Self seconds of spans named `prefix*` that run inside an `ancestor` span."""
    child = _child_time(spans)
    total = 0.0
    for i, (name, start, end, parent, op_id, err) in enumerate(spans):
        if not name.startswith(prefix):
            continue
        p = parent
        while p >= 0 and spans[p][0] != ancestor:
            p = spans[p][3]
        if p >= 0:
            total += end - start - child[i]
    return total


def dump(spans, path) -> None:
    """Write spans as tab-separated lines: index, parent, op, name, start, end, error."""
    with open(path, "w") as fh:
        fh.write("index\tparent\top\tname\tstart_s\tend_s\terror\n")
        for i, (name, start, end, parent, op_id, err) in enumerate(spans):
            fh.write(f"{i}\t{parent}\t{op_id}\t{name}\t{start:.9f}\t{end:.9f}\t{err or ''}\n")
