#!/usr/bin/env python3
"""Benchmark of asgs: one closed-loop client, one scenario at a time.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 40 --trace 0

``--trace 0`` measures every scenario untraced and reports the
end-to-end metrics. ``--trace 1`` alternates untraced and traced
scenarios and reports the per-layer metrics, taken from spans recorded
around the calls into each asgs module, plus the tracing overhead.
Every scenario is checked against integer replays of the same seeded
draws outside the timed interval. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Run records and span dumps go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden.json"

WORKLOADS = {"wide": workloads.Wide, "narrow": workloads.Narrow, "cli": workloads.Cli}
MODULES = ("asgs", "asgs.kgh", "asgs.devices", "asgs.protocol", "asgs.pvss",
           "asgs.formats", "asgs.cli")

MIN_SCENARIOS = 100      # p90 then has at least ten samples beyond it
MAX_LOOP_SECONDS = 150   # stop early rather than overrun the 180 s run limit
SETUP_REPEATS = 20      # spread evenly over the measured interval
GOLDEN_SEED = 0
GOLDEN_SCENARIOS = (0, 1)  # cli scenario 0 is tampered, 1 is honest
SPAN_DUMP_SCENARIOS = 1
REFERENCE_ITERATIONS = 20000  # about 10 ms of interpreter work
# Metrics derived from other metrics rather than timed or counted.
COMPUTED = {"kgh.ns_per_bit", "protocol.us_per_msg", "trace.overhead"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def asgs_modules() -> list[str]:
    return [n for n in sys.modules if n == "asgs" or n.startswith("asgs.")]


def setup(workload, seed: int) -> tuple[float, list]:
    """Time one set-up: import every asgs module afresh from the src
    tree, then generate the inputs of the first MIN_SCENARIOS scenarios.
    Modules imported by an earlier set-up are put back afterwards, so
    everything bound to them stays valid."""
    saved = {name: sys.modules.pop(name) for name in asgs_modules()}
    start = time.perf_counter()
    for name in MODULES:
        importlib.import_module(name)
    inputs = [workload.inputs(seed, i) for i in range(MIN_SCENARIOS)]
    elapsed = time.perf_counter() - start
    if saved:
        for name in asgs_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    return elapsed, inputs


def reference_ns() -> int:
    """Time a fixed piece of interpreter-bound work that shares nothing
    with asgs. The host's speed drifts by up to 1.75x over minutes; a
    scenario's wall time divided by this loop's, timed just before it,
    does not (see README.md)."""
    start = time.perf_counter_ns()
    table: dict = {}
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        key = (i & 1, i % 97, i % 7)
        table[key] = table.get(key, 0) + 1
        acc ^= hash(key) & 0xFFFF
    return time.perf_counter_ns() - start


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


class Observed:
    """Counts the traced run takes at the deliver and load boundaries."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.fired = 0
        self.envs: dict[int, object] = {}
        self.bytes_read = 0

    def deliver(self, args, kwargs, result) -> None:
        env = args[0]
        payload = args[4] if len(args) > 4 else kwargs["payload"]
        if result is not payload:
            self.fired += 1
        self.envs.setdefault(id(env), env)

    def load(self, args, kwargs, result) -> None:
        # Sized at once: the scenario directory is gone after the checks.
        self.bytes_read += os.path.getsize(args[0] if args else kwargs["path"])

    def rules(self) -> int:
        return sum(len(env.tamper_rules) for env in self.envs.values())


class Run:
    """Everything one benchmark run measured and counted."""

    def __init__(self) -> None:
        self.setup_s: list[float] = []
        self.untraced_ms: list[float] = []
        self.traced_ms: list[float] = []
        self.rates: list[float] = []          # messages per wall second
        self.reference_ms: list[float] = []
        self.relative: list[float] = []       # scenario time / reference time
        self.relative_rates: list[float] = []  # messages per reference time
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[str] = []
        self.counts = {"messages_by_kind": Counter(), "draws": Counter(), "artifact_bytes": 0}
        self.totals: Counter = Counter()
        self.span_dump: list = []

    def add_outcome(self, index: int, outcome: workloads.Outcome) -> None:
        self.totals.update(
            scenarios=1, pvss_entries=outcome.pvss_entries,
            zero_keys=outcome.zero_keys, keys_kept=outcome.keys_kept,
            key_draws=outcome.key_draws, oracle_ns=outcome.oracle_ns,
            bytes_written=outcome.artifact_bytes,
        )
        if index < MIN_SCENARIOS:
            self.digests.append(outcome.digest)
            self.counts["messages_by_kind"].update(outcome.kinds)
            self.counts["draws"].update(outcome.draws)
            self.counts["artifact_bytes"] += outcome.artifact_bytes

    def note_failure(self, index: int, messages: list[str]) -> None:
        self.failed += 1
        for message in messages[:3]:
            if len(self.errors) < 20:
                self.errors.append(f"scenario {index}: {message}")

    def summary(self) -> dict:
        """Deterministic counts and digest over the first MIN_SCENARIOS
        scenarios; identical for every run of the same code and seed."""
        return {
            "scenarios": len(self.digests),
            "digest": hashlib.sha256("".join(self.digests).encode()).hexdigest(),
            "messages_by_kind": dict(sorted(self.counts["messages_by_kind"].items())),
            "draws": dict(sorted(self.counts["draws"].items())),
            "artifact_bytes": self.counts["artifact_bytes"],
        }


def run_golden(workload, log: list) -> list[str]:
    """Run the reference scenarios (also the warm-up) and compare their
    digests with the committed ones."""
    problems = []
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
    want = golden.get(workload.name, {})
    for index in GOLDEN_SCENARIOS:
        try:
            got = golden_digest(workload, index, log, problems)
        except Exception as exc:
            problems.append(f"golden scenario {index}: raised {exc!r}")
            continue
        if want.get(str(index)) != got:
            problems.append(f"golden scenario {index}: digest {got} differs from "
                            f"{want.get(str(index))}")
    return problems


def golden_digest(workload, index: int, log: list, problems: list[str]) -> str:
    inp = workload.inputs(GOLDEN_SEED, index)
    log.clear()
    _, out = workload.run(inp)
    try:
        outcome = workload.check(inp, out, zero_key_warnings(log))
    finally:
        workload.discard(out)
    problems.extend(f"golden scenario {index}: {e}" for e in outcome.errors)
    return outcome.digest


def zero_key_warnings(log: list) -> int:
    """Warnings recorded since the log was last cleared; pvss warns once
    per zero one-time key."""
    count = sum(1 for w in log if issubclass(w.category, UserWarning))
    log.clear()
    return count


def measure(workload, seed: int, seconds: int, trace: bool, inputs: list, log: list,
            first_setup_s: float) -> Run:
    """Run closed-loop scenarios for ``seconds`` (and at least
    MIN_SCENARIOS). The set-up is repeated between scenarios at even
    intervals, so its samples see the host in the same states the
    scenarios do."""
    run = Run()
    run.setup_s.append(first_setup_s)
    observed = Observed()
    tracer = spans.Tracer({
        "protocol.deliver:ProtocolEnv.deliver": observed.deliver,
        "formats.decode:load_document": observed.load,
    }) if trace else None
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if (index >= MIN_SCENARIOS and elapsed >= seconds) or elapsed >= MAX_LOOP_SECONDS:
            break
        if len(run.setup_s) < SETUP_REPEATS and elapsed >= seconds * len(run.setup_s) / SETUP_REPEATS:
            run.setup_s.append(setup(workload, seed)[0])
        inp = inputs[index] if index < len(inputs) else workload.inputs(seed, index)
        # Even scenarios are traced, so the tampered cli scenarios (every
        # fourth, from 0) are among them.
        traced = trace and index % 2 == 0
        gc.collect()
        log.clear()
        observed.reset()
        reference = reference_ns()
        run.attempted += 1
        try:
            ns, outcome = one_scenario(workload, inp, tracer if traced else None, log)
        except Exception as exc:  # a failed scenario counts into error_rate
            if traced:
                tracer.take()
            run.note_failure(index, [f"raised {exc!r}"])
            index += 1
            continue
        if traced:
            record_spans(run, index, ns, tracer.take(), observed)
            run.traced_ms.append(ns / 1e6)
        else:
            run.untraced_ms.append(ns / 1e6)
            run.rates.append(outcome.messages / (ns / 1e9))
            run.reference_ms.append(reference / 1e6)
            run.relative.append(ns / reference)
            run.relative_rates.append(outcome.messages * reference / ns)
        run.add_outcome(index, outcome)
        if outcome.errors:
            run.note_failure(index, outcome.errors)
        index += 1
    return run


def one_scenario(workload, inp, tracer, log: list) -> tuple[int, workloads.Outcome]:
    """Run one scenario, traced when given a tracer, then check it."""
    if tracer is not None:
        tracer.install()
    try:
        ns, out = workload.run(inp)
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        return ns, workload.check(inp, out, zero_key_warnings(log))
    finally:
        workload.discard(out)


def record_spans(run: Run, index: int, ns: int, recorded: list, observed: Observed) -> None:
    self_ns, calls, root_ns = spans.self_times(recorded)
    totals = run.totals
    totals["traced"] += 1
    totals["traced_ns"] += ns
    totals["unattributed_ns"] += ns - root_ns
    totals["spans"] += len(recorded)
    for bucket, value in self_ns.items():
        totals[f"self_ns:{bucket}"] += value
    for name, value in calls.items():
        totals[f"calls:{name}"] += value
    totals["tamper_fired"] += observed.fired
    totals["tamper_rules"] += observed.rules()
    totals["bytes_read"] += observed.bytes_read
    if len(run.span_dump) < SPAN_DUMP_SCENARIOS:
        base = recorded[0][1] if recorded else 0
        run.span_dump.append({
            "scenario": index,
            "spans": [[name, start - base, end - base, parent]
                      for name, start, end, parent in recorded],
        })


def quantile(values: list[float], fraction: float) -> float:
    """Percentile of the samples; 0.0 when no scenario completed (the run
    then reports correct: false)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(fraction * 100) - 1]


def end_to_end(run: Run) -> dict:
    """The metrics BENCHMARK.json bounds. Scenario times are in units of
    the reference loop timed before each scenario, which cancels the
    host's speed drift; set-up is bounded at the 90th percentile of its
    repeats, which sit in the host's slow state unless a fast phase
    covers nine tenths of the run."""
    n = len(run.relative)
    return {
        "scenario_ref.p50": (quantile(run.relative, 0.5), "ref", n),
        "scenario_ref.p90": (quantile(run.relative, 0.9), "ref", n),
        "msgs_per_ref": (quantile(run.relative_rates, 0.5), "msg/ref", n),
        "setup_s": (quantile(run.setup_s, 0.9), "s", len(run.setup_s)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def wall_clock(run: Run) -> dict:
    """Raw wall-time figures, printed but not bounded: they move with the
    host's speed (see README.md)."""
    n = len(run.untraced_ms)
    return {
        "scenario_ms.p50": (quantile(run.untraced_ms, 0.5), "ms", n),
        "scenario_ms.p90": (quantile(run.untraced_ms, 0.9), "ms", n),
        "msgs_per_s": (quantile(run.rates, 0.5), "msg/s", n),
        "reference_ms.p50": (quantile(run.reference_ms, 0.5), "ms", n),
    }


def per_layer(run: Run, bits: int) -> dict:
    t = run.totals
    traced = t["traced"]
    scenarios = t["scenarios"]

    def per(value, count=traced):
        return value / count if count else 0.0

    def calls(prefix: str) -> float:
        return per(sum(v for k, v in t.items() if k.startswith(f"calls:{prefix}:")))

    def self_ms(bucket: str) -> float:
        return per(t[f"self_ns:{bucket}"]) / 1e6

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    kgh_calls = calls("kgh")
    messages = calls("protocol.deliver")
    untraced_p50 = quantile(run.untraced_ms, 0.5)
    traced_p50 = quantile(run.traced_ms, 0.5)
    metrics = {
        "kgh.calls": (kgh_calls, "count"),
        "kgh.self_ms": (self_ms("kgh"), "ms"),
        "kgh.ns_per_bit": (ratio(self_ms("kgh") * 1e6, kgh_calls * bits), "ns/bit"),
        "devices.draws": (calls("devices.draw"), "count"),
        "devices.draw_ms": (self_ms("devices.draw"), "ms"),
        "devices.stores": (calls("devices.store"), "count"),
        "devices.store_ms": (self_ms("devices.store"), "ms"),
        "protocol.messages": (messages, "count"),
        "protocol.deliver_ms": (self_ms("protocol.deliver"), "ms"),
        "protocol.us_per_msg": (ratio(self_ms("protocol.deliver") * 1e3, messages), "us"),
        "protocol.op_ms": (self_ms("protocol.op"), "ms"),
        "protocol.audit_ms": (self_ms("protocol.audit"), "ms"),
        "protocol.env_ms": (self_ms("protocol.env"), "ms"),
        "protocol.keyguard_accept_ratio": (ratio(t["keys_kept"], t["key_draws"]), "ratio"),
        "protocol.tamper_fire_ratio": (ratio(t["tamper_fired"], t["tamper_rules"]), "ratio"),
        "pvss.entries": (per(t["pvss_entries"], scenarios), "count"),
        "pvss.self_ms": (self_ms("pvss"), "ms"),
        "pvss.zero_keys": (per(t["zero_keys"], scenarios), "count"),
        "formats.encoded": (per(t["calls:formats.encode:encode_vector"]), "count"),
        "formats.decoded": (per(t["calls:formats.decode:decode_vector"]), "count"),
        "formats.encode_ms": (self_ms("formats.encode"), "ms"),
        "formats.decode_ms": (self_ms("formats.decode"), "ms"),
        "formats.write_ms": (self_ms("formats.write"), "ms"),
        "formats.bytes_written": (per(t["bytes_written"], scenarios), "bytes"),
        "formats.bytes_read": (per(t["bytes_read"]), "bytes"),
        "cli.commands": (per(t["calls:cli.parse:main"]), "count"),
        "cli.parse_ms": (self_ms("cli.parse"), "ms"),
        "cli.self_ms": (self_ms("cli.self"), "ms"),
        "ref.oracle_ms": (per(t["oracle_ns"], scenarios) / 1e6, "ms"),
        "trace.overhead": (ratio(traced_p50, untraced_p50), "ratio"),
        "trace.unattributed_ms": (per(t["unattributed_ns"]) / 1e6, "ms"),
        "trace.scenario_ms": (per(t["traced_ns"]) / 1e6, "ms"),
        "trace.spans": (per(t["spans"]), "count"),
    }
    # The layer self times and the unattributed rest add up to the traced
    # scenario time by construction; a gap means the recorder is broken.
    layers = sum(self_ms(bucket) for bucket in spans.BUCKETS)
    gap = layers + metrics["trace.unattributed_ms"][0] - metrics["trace.scenario_ms"][0]
    if abs(gap) > 1e-6 * max(1.0, metrics["trace.scenario_ms"][0]):
        raise RuntimeError(f"layer self times miss the traced scenario time by {gap} ms")
    return metrics


def compare_digest(name: str, seed: int, record: dict) -> list[str]:
    """Store a run's digest and counts per workload and seed; report a
    mismatch with an earlier run of the same seed in this checkout."""
    path = WORKDIR / "digests.json"
    stored = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    key = f"{name}:{seed}"
    earlier = stored.get(key)
    problems = []
    if earlier is not None and earlier["scenarios"] == record["scenarios"] and earlier != record:
        problems.append(f"digest or counts differ from an earlier run of seed {seed}: "
                        f"{earlier['digest']} -> {record['digest']}")
    stored[key] = record
    write_json(path, stored)
    return problems


def write_json(path: Path, document) -> None:
    temporary = path.with_suffix(".tmp")
    temporary.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    temporary.replace(path)


def write_golden(log: list) -> int:
    golden = {"seed": GOLDEN_SEED}
    for name, factory in WORKLOADS.items():
        workload = factory(WORKDIR)
        setup(workload, GOLDEN_SEED)
        workload.bind()
        problems: list[str] = []
        golden[name] = {str(i): golden_digest(workload, i, log, problems)
                        for i in GOLDEN_SCENARIOS}
        if problems:
            return fail("; ".join(problems))
    write_json(GOLDEN, golden)
    print(f"wrote {GOLDEN}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="recompute perfbench/golden.json from the current source")
    args = parser.parse_args(argv)

    if not (SOURCE / "asgs" / "__init__.py").is_file():
        return fail(f"no asgs source tree under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    WORKDIR.mkdir(exist_ok=True)

    if args.workload is None and not args.write_golden:
        parser.error("--workload is required")
    with warnings.catch_warnings(record=True) as log:
        # Every warning is recorded, none printed: zero one-time keys are
        # counted into pvss.zero_keys instead of writing to stderr.
        warnings.simplefilter("always")
        if args.write_golden:
            return write_golden(log)
        return bench(args, log)


def bench(args, log: list) -> int:
    workload = WORKLOADS[args.workload](WORKDIR)
    first_setup_s, inputs = setup(workload, args.seed)
    asgs_file = Path(sys.modules["asgs"].__file__).resolve()
    if SOURCE.resolve() not in asgs_file.parents:
        return fail(f"asgs was imported from {asgs_file}, not from {SOURCE}")
    workload.bind()
    problems = run_golden(workload, log)
    run = measure(workload, args.seed, args.seconds, bool(args.trace), inputs, log, first_setup_s)
    counts = run.summary()
    problems += compare_digest(args.workload, args.seed, counts)

    env = machine()
    error_rate = run.failed / run.attempted
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"machine python={env['python']} cpu={env['cpu']!r} nproc={env['nproc']}")
    print(f"scenarios attempted={run.attempted} failed={run.failed} error_rate={error_rate}")
    for line in run.errors + problems:
        print(f"check failed: {line}")
    if args.trace:
        metrics = {k: (v, u, run.totals["traced"]) for k, (v, u) in
                   per_layer(run, workload.bits).items()}
    else:
        metrics = end_to_end(run)
        for name, (value, unit, samples) in wall_clock(run).items():
            print(f"{name} = {value:.6g} {unit} (samples={samples}, not bounded)")
    for name, (value, unit, samples) in metrics.items():
        how = "computed" if name in COMPUTED else f"samples={samples}"
        print(f"{name} = {value:.6g} {unit} ({how})")
    print(f"counts {json.dumps(counts, sort_keys=True)}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": env, "attempted": run.attempted,
        "failed": run.failed, "error_rate": error_rate, "errors": run.errors + problems,
        "counts": counts,
        "setup_s": run.setup_s, "untraced_ms": run.untraced_ms, "traced_ms": run.traced_ms,
        "reference_ms": run.reference_ms,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }
    write_json(WORKDIR / f"result-{args.workload}-trace{args.trace}.json", record)
    if run.span_dump:
        write_json(WORKDIR / f"spans-{args.workload}.json", run.span_dump)
    print(json.dumps({
        "correct": run.failed == 0 and not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
