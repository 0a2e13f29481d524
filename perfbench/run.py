"""Closed-loop benchmark of arnnlab: one caller, operations back to back.

Run from the root of a checkout (arnnlab is imported from ``./src``)::

    python3 perfbench/run.py --workload anbn-sweep --seed 1 --seconds 20 --trace 0

The workload's inputs come from ``--seed`` alone.  Set-up (importing
arnnlab, generating the inputs, compiling the fixed nets) is repeated and its
median reported as ``setup_s``.  Operations then run back to back, each
checked against its reference, in whole cycles of the workload's operation
list until ``--seconds`` have passed.  Whole cycles keep the mix of
operations the same on a fast host and a slow one.  The verdict digest and
tick count cover the first cycle, so both repeat exactly from run to run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
window twice, untraced and then traced with a span around every call into
arnnlab, and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record, with the
environment, goes to ``perfbench/out/BENCH_<workload>_<seed>_<trace>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace

from probe import LAYERS, Probe, percentile, self_times
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7
#: Shared hosts drift in speed by tens of per cent over minutes, which no
#: amount of averaging inside one run removes.  Every timed interval is
#: therefore also expressed at a reference speed: multiplied by CAL_REF_S
#: over the time ``calibrate`` took next to it.  CAL_REF_S is the median
#: calibration time on the host the seed figures were measured on, so
#: figures at reference speed are close to that host's typical host-time ones.
CAL_ITERATIONS = 400
CAL_SHARE = 0.05
CAL_REF_S = 1.8e-3
MODULES = ("errors", "exact", "langcodec", "network", "compilers", "degrees", "spikes", "formats", "cli")
DEFAULT_SEED = 1
#: Never used while writing the benchmark; kept for checking claims.
HELD_OUT_SEED = 60_605_065


def import_arnnlab(src: str) -> SimpleNamespace:
    """Import arnnlab afresh from ``src``, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "arnnlab" or m.startswith("arnnlab.")]:
        del sys.modules[name]
    if src not in sys.path:
        sys.path.insert(0, src)
    package = importlib.import_module("arnnlab")
    if not os.path.realpath(package.__file__).startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"arnnlab was imported from {package.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"arnnlab.{m}") for m in MODULES})


def set_up(cls, seed: int, probe: Probe, scratch: str, inject_fault: bool):
    lab = import_arnnlab(os.path.join(os.getcwd(), "src"))
    rng = random.Random(f"{cls.name}/{seed}")
    return cls(lab, rng, probe, scratch, inject_fault)


def calibrate() -> float:
    """Host seconds for a fixed stdlib-only loop: the host's speed right now.

    The loop does what the simulator spends its time on, exact rational
    arithmetic on growing denominators (to ~800 bits), so it slows with the
    host the way the workloads do.
    """
    start = perf_counter()
    x, three_quarters = Fraction(0), Fraction(3, 4)
    for _ in range(CAL_ITERATIONS):
        x = x / 4 + three_quarters
    return perf_counter() - start


def calibrate_for(seconds: float) -> float:
    """Median of ``calibrate`` over at least ``seconds``, so one spike cannot skew it."""
    samples = [calibrate()]
    while sum(samples) < seconds:
        samples.append(calibrate())
    return statistics.median(samples)


def measure(workload, probe: Probe, seconds: float) -> dict:
    """Run whole cycles of operations back to back until the deadline has passed.

    The host speed is calibrated before the first and after every operation,
    for CAL_SHARE of the operation's time; each latency is also kept scaled
    to the reference speed by the mean of the calibrations on either side.
    """
    latencies: list[float] = []
    cals = [calibrate()]
    digest = hashlib.sha256()
    check_ticks = total_ticks = failed = 0
    cycle = len(workload.ops)
    deadline = perf_counter() + seconds
    i = 0
    while i % cycle or i == 0 or perf_counter() < deadline:
        workload.op_ticks = 0
        probe.begin_op(i)
        t0 = perf_counter()
        try:
            outcome, ok = workload.run_op(i)
        except Exception as exc:  # an unexpected exception fails this operation only
            outcome, ok = f"{type(exc).__name__}: {exc}", False
            probe.fail("bench")
            print(f"operation {i} raised {outcome}", file=sys.stderr)
        latencies.append(perf_counter() - t0)
        probe.end_op()
        cals.append(calibrate_for(CAL_SHARE * latencies[-1]))
        total_ticks += workload.op_ticks
        failed += not ok
        if i < cycle:
            check_ticks += workload.op_ticks
            digest.update(f"{i}\t{outcome}\t{ok}\n".encode())
        i += 1
    scaled = [t * 2 * CAL_REF_S / (a + b) for t, a, b in zip(latencies, cals, cals[1:])]
    return {
        "latencies": latencies,
        "scaled": scaled,
        "calibration_s": statistics.median(cals),
        "ticks": total_ticks,
        "check_ticks": check_ticks,
        "digest": digest.hexdigest(),
        "failed": failed,
    }


def end_to_end(result: dict, tail_pct: float, setup_s: float) -> tuple[dict, dict]:
    """Metrics at the reference host speed, plus the same figures in host time."""

    def figures(lat: list[float]) -> dict:
        tail_s, _ = percentile(lat, tail_pct)
        return {
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "ticks_per_s": (result["ticks"] / sum(lat), "1/s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
        }

    metrics = figures(result["scaled"])
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    extra = {
        "op_tail_pct": tail_pct,
        "op_tail_beyond": percentile(result["scaled"], tail_pct)[1],
        "error_rate": result["failed"] / len(result["latencies"]),
        "calibration_s": result["calibration_s"],
        "host_time": {k: {"value": v, "unit": u} for k, (v, u) in figures(result["latencies"]).items()},
    }
    return metrics, extra


def replay_max_den_bits(lab, net, word: str, budget: int) -> tuple[int, int]:
    """Largest state denominator, in bits, over one run replayed through ``step``.

    Presents the word as ``run`` does (one-hot symbol and validation 1 per
    tick, then silence) and stops on the first tick the output validation
    neuron is high.  Returns (bits, ticks replayed).
    """
    state = lab.network.zero_state(net)
    lines = [net.line_for_symbol(ch) for ch in word]
    silence = (0,) * net.n_inputs
    bits = 1
    for t in range(budget):
        if t < len(lines):
            inputs = tuple(int(j == lines[t]) for j in range(net.n_inputs))
        else:
            inputs = silence
        state = lab.network.step(net, state, inputs, int(t < len(lines)))
        bits = max(bits, max(Fraction(x).denominator.bit_length() for x in state))
        if state[net.out_valid] > 0:
            return bits, t + 1
    return bits, budget


def per_layer(workload, probe: Probe, traced: dict, untraced: dict) -> dict:
    spans = probe.spans
    c, fail = probe.counters, probe.failures
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    by_name: dict[tuple[str, str], list[float]] = {}
    for _, layer, name, start, end, _, _ in spans:
        busy[layer] = busy.get(layer, 0.0) + (end - start)
        calls[layer] = calls.get(layer, 0) + 1
        by_name.setdefault((layer, name), []).append(end - start)
    selfs = self_times(spans)
    named = lambda layer, *names: sum(sum(by_name.get((layer, n), ())) for n in names)
    runs = c["network.runs"] + c["exact.runs"]
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        prefix = "exact.lazy_" if layer == "exact" else f"{layer}."
        m[f"{prefix}calls"] = (calls.get(layer, 0), "count")
        m[f"{prefix}busy_s"] = (busy.get(layer, 0.0), "s")
        m[f"{layer}.self_s"] = (selfs.get(layer, 0.0), "s")
        m[f"{layer}.failures"] = (fail.get(layer, 0), "count")
    m["bench.self_s"] = (selfs.get("bench", 0.0), "s")
    m["bench.failures"] = (fail.get("bench", 0), "count")
    m["network.ticks"] = (traced["check_ticks"], "ticks")
    m["network.verdict_digest"] = (int(traced["digest"][:13], 16), "hash")
    m["network.ticks_per_s"] = (_rate(c["network.run_ticks"], c["network.run_s"]), "1/s")
    m["network.cold_run_s"] = (c["network.cold_run_s"], "s")
    m["network.decided_ratio"] = (c["network.decided"] / runs if runs else 0.0, "ratio")
    m["network.timeouts"] = (c["network.timeouts"], "count")
    m["exact.lazy_ticks_per_s"] = (_rate(c["exact.run_ticks"], c["exact.run_s"]), "1/s")
    nets = c["compilers.nets"]
    m["compilers.compile_s"] = (
        named("compilers", "two_stack_to_net", "dfa_to_net", "oracle_net", "oracle_net_parts", "compose_nets"),
        "s",
    )
    m["compilers.net_neurons"] = (c["compilers.net_neurons"] / nets if nets else 0.0, "count")
    m["compilers.net_weights"] = (c["compilers.net_weights"] / nets if nets else 0.0, "count")
    m["compilers.gadget_s"] = (named("compilers", "gadget"), "s")
    m["compilers.reference_s"] = (named("compilers", "reference"), "s")
    m["formats.bytes"] = (c["formats.bytes"], "bytes")
    cli = [d for (layer, _), ds in by_name.items() if layer == "cli" for d in ds]
    m["cli.p50_ms"] = (statistics.median(cli) * 1e3 if cli else 0.0, "ms")
    sample = workload.replay_sample()
    bits, ticks = replay_max_den_bits(workload.lab, *sample)
    m["network.max_den_bits"] = (bits, "bits")
    m["network.replay_ticks"] = (ticks, "ticks")
    traced_rate = len(traced["scaled"]) / sum(traced["scaled"])
    untraced_rate = len(untraced["scaled"]) / sum(untraced["scaled"])
    m["trace.spans"] = (len(spans), "count")
    m["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    m["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    m["trace.overhead_pct"] = ((untraced_rate / traced_rate - 1) * 100, "%")
    return m


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds else 0.0


def environment(seed: int, workload: str, seconds: float, trace: int) -> dict:
    try:
        importlib.import_module("gmpy2")
        gmpy2 = True
    except ImportError:
        gmpy2 = False
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "gmpy2": gmpy2,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "held_out": seed == HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
    }


def _commit() -> str:
    """HEAD of the git repository in the working directory, read without git."""
    head_path = os.path.join(".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def recorded_digest(workload: str, seed: int):
    try:
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-fault", action="store_true",
        help="make every fifth reference wrong (self-test of the checks)",
    )
    args = parser.parse_args(argv)
    cls = WORKLOADS[args.workload]
    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")

    try:
        setup_times, setup_scaled = [], []
        for _ in range(SETUP_REPEATS):
            probe = Probe(traced=False)
            gc.collect()  # the previous set-up's modules and nets are garbage now
            before = calibrate()
            start = perf_counter()
            workload = set_up(cls, args.seed, probe, scratch, args.inject_fault)
            setup_times.append(perf_counter() - start)
            setup_scaled.append(setup_times[-1] * 2 * CAL_REF_S / (before + calibrate()))
    except ImportError as exc:
        print(f"cannot import arnnlab from ./src: {exc}", file=sys.stderr)
        return 2
    setup_s = statistics.median(setup_scaled)

    try:
        untraced = measure(workload, probe, args.seconds)
        result = untraced
        if args.trace:
            probe = Probe(traced=True)
            workload = set_up(cls, args.seed, probe, scratch, args.inject_fault)
            result = measure(workload, probe, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems = []
    for run_result in (untraced, result) if args.trace else (result,):
        if run_result["failed"]:
            problems.append(f"{run_result['failed']} of {len(run_result['latencies'])} operations failed")
    if args.trace and (result["digest"], result["check_ticks"]) != (untraced["digest"], untraced["check_ticks"]):
        problems.append("traced and untraced runs disagree on the digest or tick count")
    recorded = recorded_digest(args.workload, args.seed)
    if recorded is not None and recorded != {"digest": result["digest"], "ticks": result["check_ticks"]}:
        problems.append(f"digest or ticks differ from perfbench/digests.json: {recorded}")

    e2e, extra = end_to_end(untraced, cls.tail_pct, setup_s)
    metrics = per_layer(workload, probe, result, untraced) if args.trace else e2e
    record = {
        "environment": environment(args.seed, args.workload, args.seconds, args.trace),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        **extra,
        "attempted": len(result["latencies"]),
        "failed": result["failed"],
        "digest": result["digest"],
        "cycle_ops": len(workload.ops),
        "check_ticks": result["check_ticks"],
        "setup_host_s": setup_times,
        "setup_scaled_s": setup_scaled,
        "waiting": "none: one caller and no queue or lock, so no layer waits",
        "problems": problems,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"BENCH_{args.workload}_{args.seed}_{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        probe.write(stem + ".spans.jsonl")

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>16.6g} {unit}")
    print(
        f"op_tail_ms is p{extra['op_tail_pct']:g} with {extra['op_tail_beyond']} samples beyond; "
        f"error_rate {extra['error_rate']:.4g}; {record['waiting']}"
    )
    print(json.dumps({
        "correct": not problems,
        "attempted": len(result["latencies"]),
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
