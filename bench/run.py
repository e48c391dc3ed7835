"""escrowlab benchmark: one seeded, closed-loop workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load comes from one process, one thread and one caller: each op starts when
the previous one has returned and been checked.  The program is imported
from `src/` of the checkout this file sits in, never from site-packages.

--trace 0  Runs ROUNDS rounds of the same fixed ops.  How many ops a round
           holds follows from S and the workload's nominal op time alone,
           never from the clock, so a seed always runs the same ops.  Each
           round imports escrowlab afresh, generates the inputs and warms
           up (one setup_s sample, the median is reported).  An op's
           latency is its median over the rounds.
--trace 1  Alternates untraced and traced passes over the same fixed ops,
           a fixed number of times that follows from S, and reports the
           per-layer metrics (medians over traced passes) and
           trace.overhead_ratio.  Spans of the last traced pass are
           written to bench/out/.

Every timed interval is scaled to the host's nominal speed: a short
reference loop is timed right before and right after it, and the interval
is multiplied by REF_NOMINAL_S over their mean (see `Clock`).  CpuPicker
keeps the process on the least contended CPU.

Every op's output is checked; the golden digests in golden.json are checked
once per run.  Human-readable lines go to stderr and stdout; the last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Rounds of the measured loop; each op's latency is its median round.
ROUNDS = 4
#: Share of --seconds that the measured ops of all rounds take together at
#: nominal speed; the rest goes to set-up, checks and reference loops.
OP_SHARE = 0.8
#: Cost of an untraced plus a traced pass, in untraced passes.
TRACED_PAIR_COST = 3.0
#: Percentiles tried for op_tail_ms, highest first.
TAIL_PCTS = (99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
#: Seconds between two choices of CPU.
PICK_EVERY = 0.25
#: Time of one `reference_seconds` loop on an uncontended vCPU of the
#: 2-vCPU VM the bounds were set on.
REF_NOMINAL_S = 0.00038


def reference_seconds() -> float:
    """Time of a fixed loop of Fraction sums, the same kind of work as the ops'."""
    gc.disable()
    try:
        t0 = perf_counter()
        total = Fraction(0)
        for i in range(1, 150):
            total += Fraction(1, i % 97 + 1)
        return perf_counter() - t0
    finally:
        gc.enable()


class Clock:
    """Times an interval at the host's nominal speed.

    On a shared VM each vCPU alternates, independently of the others, between
    a fast state and one up to twice as slow, for stretches from a fraction
    of a second to a minute; the interpreter slows with it, and so does the
    reference loop.  `start` and `stop` time the reference loop around the
    interval, the faster of two loops each so that a preempted loop does not
    count, and `stop` returns the interval times REF_NOMINAL_S over the two
    references' mean: the interval as it would read on a fast vCPU.  A
    change that makes the program do less work lowers the figure in full;
    only the host's speed is divided out.
    """

    @staticmethod
    def reference() -> float:
        return min(reference_seconds(), reference_seconds())

    def start(self) -> None:
        self.ref = self.reference()
        self.t0 = perf_counter()

    def stop(self) -> float:
        took = perf_counter() - self.t0
        return took * 2 * REF_NOMINAL_S / (self.ref + self.reference())


class CpuPicker:
    """Keeps the process on whichever allowed CPU is currently fastest.

    Every PICK_EVERY seconds this times the reference loop on each allowed
    CPU and pins the process to the fastest.  The benchmark still runs one
    op at a time; only where it runs changes.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        self.last = -math.inf

    def pick(self, force: bool = False) -> None:
        if len(self.cpus) < 2 or not force and perf_counter() - self.last < PICK_EVERY:
            return
        best = min(self.cpus, key=self._reference_time)
        os.sched_setaffinity(0, {best})
        self.last = perf_counter()

    @staticmethod
    def _reference_time(cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        return Clock.reference()


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def purge_escrowlab() -> None:
    for name in [n for n in sys.modules if n == "escrowlab" or n.startswith("escrowlab.")]:
        del sys.modules[name]


def prepare(wl, tally, CheckFailed) -> float:
    """Fresh state, then the warm-up ops; their failures count, their times are not op times.

    Returns the seconds this took at nominal speed."""
    clock = Clock()
    clock.start()
    wl.start()
    took = clock.stop()
    warm = Tally(tally.cpu)
    for k in range(wl.warmup_ops):
        run_op(wl, k, warm, CheckFailed)
    tally.attempted += warm.attempted
    tally.failed += warm.failed
    tally.check_failed |= warm.check_failed
    wl.probes.clear()
    return took + sum(t for t, _ in warm.ops)


def set_up(workloads, name: str, seed: int, ops: int, tally):
    """Import escrowlab afresh, generate the inputs for `ops` ops and warm up.

    Returns (workload, seconds at nominal speed).  The import and input
    generation, the fresh state and each warm-up op are scaled apart, so a
    change of host speed within the set-up is followed."""
    purge_escrowlab()
    gc.collect()
    tally.cpu.pick(force=True)
    clock = Clock()
    clock.start()
    lab = workloads.load_lab()
    cls = workloads.WORKLOADS[name]
    wl = cls(lab, seed, **cls.sized(ops))
    took = clock.stop()
    return wl, took + prepare(wl, tally, workloads.CheckFailed)


def ops_per_round(cls, seconds: float) -> int:
    """Ops in one round: the round's share of --seconds at the nominal op time,
    rounded up to whole cycles of the workload's input mix."""
    ops = seconds * OP_SHARE / ROUNDS * 1000 / cls.op_ms
    return max(1, math.ceil(ops / cls.cycle)) * cls.cycle


def tail_pct(count: int) -> float:
    """The highest of TAIL_PCTS that leaves at least ten of `count` samples beyond it."""
    return next((p for p in TAIL_PCTS if count - rank(count, p) >= 10), TAIL_PCTS[-1])


class Tally:
    """Attempted and failed ops of a run, per-op latency and units of the current round,
    and the CPU picker the run's ops go through.

    `ops` holds (seconds at nominal speed, units) per measured op, units None
    when the op raised or failed its check: failed ops are counted, not
    averaged in.
    """

    def __init__(self, cpu: CpuPicker | None = None):
        self.attempted = self.failed = 0
        self.check_failed = False
        self.ops: list = []
        self.cpu = cpu or CpuPicker()

    def fail(self, what: str, exc: BaseException, check: bool) -> None:
        self.failed += 1
        self.check_failed |= check
        if self.failed <= 5:
            log(f"FAILED {what}: {type(exc).__name__}: {exc}")
            if not check:
                log("".join(traceback.format_exception(exc)[-3:]).rstrip())


def run_op(wl, k: int, tally: Tally, CheckFailed) -> None:
    tally.cpu.pick()
    tally.attempted += 1
    clock = Clock()
    clock.start()
    try:
        out = wl.op(k)
    except Exception as exc:  # a failing op is counted, never retried
        tally.ops.append((clock.stop(), None))
        checked = isinstance(exc, CheckFailed)
        tally.fail(f"{'check in ' if checked else ''}op {k}", exc, check=checked)
        return
    took = clock.stop()
    try:
        tally.ops.append((took, wl.check(k, out)))
    except CheckFailed as exc:
        tally.ops.append((took, None))
        tally.fail(f"check of op {k}", exc, check=True)


def finish(wl, tally: Tally, CheckFailed) -> None:
    try:
        wl.finish()
    except CheckFailed as exc:
        tally.fail("end-of-run check", exc, check=True)


def rank(count: int, pct: float) -> int:
    """1-based nearest rank of percentile `pct` among `count` samples."""
    return max(1, math.ceil(pct / 100 * count))


def tail(latencies, pct: float):
    """(value, samples beyond it) at the nearest-rank percentile `pct`."""
    values = sorted(latencies)
    r = rank(len(values), pct)
    return values[r - 1], len(values) - r


def check_golden(workloads, name: str, tally: Tally) -> None:
    """Digest the fixed golden inputs' outputs and compare with golden.json."""
    expected = json.loads((BENCH / "golden.json").read_text())[name]
    lab = workloads.load_lab()
    wl = workloads.WORKLOADS[name](lab, workloads.GOLDEN_SEED, **workloads.GOLDEN_ARGS[name])
    tally.attempted += 1
    try:
        got = hashlib.sha256(wl.golden()).hexdigest()
    except Exception as exc:
        tally.fail("golden op", exc, check=False)
        return
    if got != expected:
        tally.fail("golden digest", workloads.CheckFailed(f"{got} != {expected}"), check=True)


def end_to_end(args, workloads) -> dict:
    """ROUNDS rounds over the same ops, each after a fresh import; an op's latency is its median."""
    count = ops_per_round(workloads.WORKLOADS[args.workload], args.seconds)
    tally = Tally()
    setups, rounds = [], []
    for _ in range(ROUNDS):
        wl = None
        wl, took = set_up(workloads, args.workload, args.seed, count, tally)
        setups.append(took)
        tally.ops = []
        for k in range(wl.warmup_ops, wl.warmup_ops + count):
            run_op(wl, k, tally, workloads.CheckFailed)
        finish(wl, tally, workloads.CheckFailed)
        rounds.append(tally.ops)
    check_golden(workloads, args.workload, tally)

    lat = [statistics.median(times) for times in zip(*([t for t, _ in ops] for ops in rounds))]
    done = [all(u is not None for u in units) for units in zip(*([u for _, u in ops] for ops in rounds))]
    units = sum(u for (_, u), ok in zip(rounds[0], done) if ok)
    busy = sum(t for t, ok in zip(lat, done) if ok)
    pct = tail_pct(count)
    tail_s, beyond = tail(lat, pct)
    values = {
        "setup_s": statistics.median(setups),
        "units_per_s": units / busy if busy else 0.0,
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_tail_ms": tail_s * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    names = metric_units()
    metrics = {name: (value, names[name]) for name, value in values.items()}
    # Reported by name but not a BENCHMARK.json metric: it is 0 on a clean
    # workload, and the run's attempted and failed counts carry it exactly.
    report = {**metrics, "ops_failed_ratio": (tally.failed / tally.attempted, "ratio")}
    log(f"{args.workload} seed={args.seed}: {ROUNDS} rounds of {len(lat)} ops, unit = {wl.unit}, "
        f"{units} units per round, {tally.failed} of {tally.attempted} attempted ops failed")
    for name, (value, unit) in report.items():
        note = f"  (p{pct:g} of {len(lat)} ops, {beyond} beyond)" if name == "op_tail_ms" else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    return result(tally, metrics)


def result(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": not tally.check_failed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def layer_metrics(wl, spans, tracer_mod) -> dict:
    """Every per-layer metric of one traced pass; layers the workload never reaches read 0."""
    agg = tracer_mod.aggregate(spans, getattr(wl, "span_label", None))
    probes = wl.probes

    def ms(*names):
        return sum(agg[n][1] for n in names if n in agg) * 1000

    def calls(*names):
        return sum(agg[n][0] for n in names if n in agg)

    def prefixed(prefix):
        return [n for n in agg if n.startswith(prefix)]

    def ratio(num, den):
        return num / den if den else 0.0

    fired = sum(
        1 for name, _, _, parent, _, _ in spans
        if name == "contract.settle.on_timeout" and parent >= 0 and spans[parent][0] == "ledger.advance_time"
    )
    short = sum(agg[n][2].get("InsufficientFundsError", 0) for n in prefixed("ledger.ops."))
    m = {
        "cli.main.self_ms": ms("cli.main"),
        "agents.sweep.self_ms": ms("agents.sweep"),
        "agents.sweep_csv.self_ms": ms("agents.sweep_csv"),
        "trade.construct.calls": calls("trade.construct"),
        "trade.construct.self_ms": ms("trade.construct"),
        "equilibrium.security_report.calls": calls("equilibrium.security_report"),
        "equilibrium.security_report.self_ms": ms("equilibrium.security_report"),
        "equilibrium.node_margins.self_ms": ms("equilibrium.node_margins"),
        "gametree.build_game_tree.self_ms": ms("gametree.build_game_tree"),
        "equilibrium.backward_induction.self_ms": ms("equilibrium.backward_induction"),
        "equilibrium.brute_force_spe.self_ms": ms("equilibrium.brute_force_spe"),
        "equilibrium.crosscheck.agree_ratio": ratio(probes["crosscheck_agree"], probes["crosschecks"]),
        "agents.simulate.self_ms": ms("agents.simulate"),
        "agents.run_trial.calls": calls("agents.run_trial"),
        "agents.run_trial.self_ms": ms("agents.run_trial"),
        "agents.episode_classes_per_trial": ratio(probes["episode_classes"], probes["trials"]),
        "arbiter.oracle.calls": calls("arbiter.oracle"),
        "arbiter.oracle.self_ms": ms("arbiter.oracle"),
        "contract.propose.self_ms": ms("contract.propose"),
        "contract.events.count": probes["events"],
        "contract.moves.calls": calls(*prefixed("contract.moves.")),
        "contract.moves.self_ms": ms(*prefixed("contract.moves.")),
        "contract.settle.self_ms": ms(*prefixed("contract.settle.")),
    }
    for kind in tracer_mod.LEDGER_OPS:
        m[f"ledger.ops.{kind}.calls"] = calls(f"ledger.ops.{kind}")
        m[f"ledger.ops.{kind}.self_ms"] = ms(f"ledger.ops.{kind}")
    m.update({
        "ledger.advance_time.self_ms": ms("ledger.advance_time"),
        "ledger.timeouts_fired.count": fired,
        "ledger.pending_timeouts.mean": ratio(probes["pending"], probes["pending_samples"]),
        "contract.deadline_expired.count": probes["deadline_expired"],
        "contract.timeout_defaults.ratio": ratio(probes["deadline_expired"], probes["terminated"]),
        "arbiter.coin_toss.calls": calls("arbiter.coin_toss"),
        "arbiter.coin_toss.self_ms": ms("arbiter.coin_toss"),
        "multiparty.run.n50.self_ms": ms("multiparty.run.n50"),
        "multiparty.run.n200.self_ms": ms("multiparty.run.n200"),
        "multiparty.ledger_ops.self_ms": tracer_mod.self_time_under(spans, "ledger.ops.", "multiparty.run") * 1000,
        "multiparty.fee_moves_per_party": probes["fee_moves_max"],
        "multiparty.defaulted_steps.ratio": ratio(probes["steps_defaulted"], probes["steps_requested"]),
        "ledger.insufficient_funds.count": short,
    })
    return m


def traced(args, workloads) -> dict:
    import tracer as tracer_mod

    cls = workloads.WORKLOADS[args.workload]
    pairs = max(2, round(args.seconds * OP_SHARE * 1000 / (TRACED_PAIR_COST * cls.pass_ops * cls.op_ms)))
    tally = Tally()
    wl, _ = set_up(workloads, args.workload, args.seed, cls.pass_ops, tally)
    tracer = tracer_mod.Tracer()
    tracer.on_return.update(wl.trace_hooks())
    ups = {False: [], True: []}
    passes = []
    spans = []
    for _ in range(pairs):
        for on in (False, True):
            if on:
                tracer.reset()
                tracer.install(wl.lab)
            try:
                prepare(wl, tally, workloads.CheckFailed)
                tally.ops = []
                for k in range(wl.warmup_ops, wl.warmup_ops + wl.pass_ops):
                    tracer.op_id = k
                    tracer.recording = on
                    run_op(wl, k, tally, workloads.CheckFailed)
                    tracer.recording = False
                finish(wl, tally, workloads.CheckFailed)
            finally:
                tracer.uninstall()
            done = [(t, u) for t, u in tally.ops if u is not None]
            ups[on].append(sum(u for _, u in done) / sum(t for t, _ in done) if done else 0.0)
            if on:
                spans = list(tracer.spans)
                passes.append(layer_metrics(wl, spans, tracer_mod))
    check_golden(workloads, args.workload, tally)

    metrics = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        if name.endswith(".self_ms"):
            metrics[name] = statistics.median(values)
        elif len(set(values)) != 1:
            tally.fail(name, workloads.CheckFailed(f"differs between identical passes: {values}"), check=True)
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
    metrics["trace.overhead_ratio"] = statistics.median(ups[True]) / statistics.median(ups[False])

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    trace_file = out / f"trace-{args.workload}-seed{args.seed}.tsv"
    tracer_mod.dump(spans, trace_file)
    log(f"{args.workload} seed={args.seed}: {len(passes)} traced passes of {wl.pass_ops} ops, "
        f"{len(spans)} spans in the last, written to {trace_file.relative_to(ROOT)}")
    units = metric_units()
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return result(tally, {name: (value, units[name]) for name, value in metrics.items()})


def metric_units() -> dict:
    """Metric name -> unit, from BENCHMARK.json at the checkout's root."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "escrowlab" / "__init__.py").is_file():
        log(f"escrowlab sources not found under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    out = traced(args, workloads) if args.trace else end_to_end(args, workloads)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
