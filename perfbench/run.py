#!/usr/bin/env python3
"""formalitykit benchmark: one closed-loop client driving `cli.dispatch`.

    python3 perfbench/run.py --workload hh-slices-q --seed 1 --seconds 20 --trace 0

The client sends the next command only after the previous one returned. A
run is made of whole passes over the workload's fixed pool; the seed only
permutes the order within each pass. Passes continue until --seconds have
elapsed, at least MIN_OPS commands completed and MIN_PASSES passes ran.
Latencies, throughput and set-up time are rescaled to a nominal host
speed (see HostSpeed). ops_per_s is completed commands over the timed span
without the speed probes and repeated set-ups: dispatch calls plus the
client's checks. Every command's exit code and result are checked against
the pins in expected.json, and its stdout against the first identical
command of the run; error_rate is failed / attempted.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced passes and reports per-layer metrics (see spans.py) plus the tracing
overhead. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. `--workload all` runs every workload in its
own process and prints one table.
"""

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

from spans import LAYER_METRICS, ROOT as ROOT_SPAN, Tracer
from workloads import WORKLOADS, materialize, pass_order, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

MIN_OPS = 100
MIN_PASSES = 5
SETUP_REPEATS = 15
PROBE_SIZE = 300  # one probe takes 1-2 ms
PROBE_NOMINAL_S = 0.001  # latencies are seconds on a host where a probe takes this
PROBE_WINDOW_S = 0.2  # host speed is read from the probes this close to an interval
# Seeds 1-20 were used while the benchmark was tuned; this one is kept back
# so that a later performance claim can be confirmed on a seed nobody tuned on.
HELD_OUT_SEED = 7919

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, pins or inputs)."""


def import_program():
    """Import formalitykit from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "formalitykit", "cli.py")):
        raise BenchError(f"no formalitykit sources under {SRC}")
    sys.path.insert(0, SRC)
    import formalitykit
    import formalitykit.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(formalitykit.__file__))) != SRC:
        raise BenchError(f"formalitykit was imported from {formalitykit.__file__}, not {SRC}")
    return formalitykit.cli.dispatch


def environment(workloads):
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "formalitykit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "unknown"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "workloads": list(workloads),
        "held_out_seed": HELD_OUT_SEED,
    }


def load_pins(workload):
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            pins = json.load(fh)["workloads"].get(workload.name, {})
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read pinned expectations {EXPECTED}: {exc}") from None
    missing = [op.id for op in workload.ops if op.id not in pins]
    if missing:
        raise BenchError(f"ops without a pinned expectation: {missing}")
    return pins


def set_up(workload):
    """Write the inputs to a fresh directory and load the pins; returns
    (directory, op id -> argv, pins)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    try:
        argvs = materialize(workload, directory)
        pins = load_pins(workload)
    except BaseException:
        shutil.rmtree(directory, ignore_errors=True)
        raise
    return directory, argvs, pins


def nearest_rank(values, share):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Client:
    """Closed-loop client: runs ops one at a time and checks each result."""

    def __init__(self, dispatch, argvs, pins):
        self.dispatch = dispatch
        self.argvs = argvs
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.repeats = 0
        self.failures = []
        self._digests = {}

    def run(self, op, tracer=None):
        argv = list(self.argvs[op.id])
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.op = self.attempted
                span = tracer.open(ROOT_SPAN)
            t0 = time.perf_counter()
            try:
                code = self.dispatch(argv, stdout=out)
            except Exception as exc:  # a crash is a failed op, not a failed run
                code, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(span)
        self.attempted += 1
        text = out.getvalue()
        if op.id in self._digests:
            self.repeats += 1
        digest = hashlib.sha256(f"{code}\0{text}".encode()).hexdigest()
        first = self._digests.setdefault(op.id, digest)
        pin = self.pins[op.id]
        if error is None and code != pin["exit"]:
            error = f"exit {code}, pinned {pin['exit']}: {err.getvalue().strip()[:200]}"
        if error is None:
            try:
                got = summarize(json.loads(text)) if code == 0 else (text or None)
            except (ValueError, KeyError, TypeError) as exc:
                got = f"unreadable report: {exc}"
            if got != pin["summary"]:
                error = f"result {got!r} differs from the pin {pin['summary']!r}"
        if error is None and digest != first:
            error = "stdout differs from an earlier identical op"
        if error is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"op": op.id, "error": error})
        return t0, t1


def import_in_fresh_interpreter():
    """Start a fresh interpreter that imports the CLI, and wait for it. No
    timeout: a wait with one polls in steps of up to 50 ms, which would
    round every set-up time to that grid."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import formalitykit.cli"
    subprocess.run([sys.executable, "-c", code], check=True)


def run_workload(name, seed, seconds, trace, passes=None, smoke=False):
    """One benchmark run in this process; returns the result record."""
    if name not in WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[name]
    dispatch = import_program()

    host = HostSpeed()
    setups = []  # (start, end) of each timed set-up

    def timed_set_up():
        host.sample()
        t0 = time.perf_counter()
        import_in_fresh_interpreter()
        result = set_up(workload)
        setups.append((t0, time.perf_counter()))
        host.sample()
        return result

    def set_up_again():
        shutil.rmtree(timed_set_up()[0], ignore_errors=True)

    directory = None
    try:
        directory, argvs, pins = timed_set_up()
        ops = [op for op in workload.ops if op.smoke] if smoke else list(workload.ops)
        client = Client(dispatch, argvs, pins)
        repeats = 0 if trace else SETUP_REPEATS - 1
        record = measure(workload, client, ops, seed, seconds, trace, passes, host,
                         set_up_again, repeats)
    finally:
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)

    record["env"] = environment([name])
    record["run"] = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                     "smoke": smoke, "ops_in_pool": len(ops)}
    if not trace:
        record["metrics"]["setup_s"] = statistics.median(
            host.rescale(start, end) for start, end in setups
        )
        record["metrics"]["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        record["setup_wall_s"] = [end - start for start, end in setups]
    return record


def probe_work():
    """A fixed few milliseconds of pure-Python work of the program's kind
    (rational arithmetic, tuple keys, dict traffic) that never touches
    formalitykit, so no change to the program can change its cost."""
    acc, step, table = Fraction(0), Fraction(1, 3), {}
    for i in range(PROBE_SIZE):
        acc += step * (i & 15)
        table[(i & 63, i & 7)] = acc
    return len(table)


class HostSpeed:
    """Tracks how fast the host runs Python right now.

    The host alternates, within seconds, between fast phases and phases up
    to about 2x slower that hit every op alike, and its mix of phases
    drifts between runs. The probe is timed before every op and once at the
    end. An interval's wall time is reported in seconds on a nominal host
    where one probe takes PROBE_NOMINAL_S: wall time times PROBE_NOMINAL_S
    over the mean probe that ran within PROBE_WINDOW_S of the interval
    (which always includes the probes just before and just after it)."""

    def __init__(self):
        self.mids = []  # probe midpoints, in perf_counter seconds
        self.samples = []  # probe durations

    def sample(self):
        """Time one probe; returns the moment it ended."""
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        self.mids.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)
        return t1

    def rescale(self, start, end):
        lo = bisect.bisect_left(self.mids, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + PROBE_WINDOW_S)
        return (end - start) * PROBE_NOMINAL_S / statistics.fmean(self.samples[lo:hi])


def measure(workload, client, ops, seed, seconds, trace, passes, host, set_up_again,
            repeats):
    """Run whole passes of ops through client; returns the record with metrics.

    set_up_again is called repeats times between passes, spread over the run
    so that the set-up times meet the host in several of its phases. Its
    time does not count towards --seconds."""
    tracer = Tracer() if trace else None
    timed = []  # (traced?, op id, start, end, cycle start, cycle end)
    pass_no = done = 0
    start = time.perf_counter()
    setup_time = 0.0
    while True:
        traced = bool(trace) and pass_no % 2 == 1
        if traced:
            tracer.install()
        try:
            for op in pass_order(ops, seed, pass_no):
                ready = host.sample()
                t0, t1 = client.run(op, tracer if traced else None)
                timed.append((traced, op.id, t0, t1, ready, time.perf_counter()))
        finally:
            if traced:
                tracer.uninstall()
        pass_no += 1
        elapsed = time.perf_counter() - start - setup_time
        due = repeats if seconds <= 0 else math.ceil(repeats * min(1.0, elapsed / seconds))
        while done < due:
            t0 = time.perf_counter()
            set_up_again()
            setup_time += time.perf_counter() - t0
            done += 1
        if trace and pass_no % 2:
            continue
        if passes is not None:
            if pass_no >= passes:
                break
        elif (elapsed >= seconds and client.attempted >= MIN_OPS
              and pass_no >= MIN_PASSES):
            break
    while done < repeats:
        set_up_again()
        done += 1
    host.sample()

    # An op's cycle runs from the end of the probe before it until the client
    # has checked its result; the cycles cover the timed span except the
    # probes and the repeated set-ups.
    wall, scaled = {}, {}  # untraced latencies by op id: wall clock, nominal host
    wall_cycles, scaled_cycles = [], []  # untraced cycles: wall clock, nominal host
    traced_by_op = {}  # op id -> traced nominal-host latencies
    factors = []  # op id -> factor from wall seconds to nominal-host seconds
    for traced, op_id, t0, t1, ready, checked in timed:
        latency = host.rescale(t0, t1)
        factors.append(latency / (t1 - t0))
        if traced:
            traced_by_op.setdefault(op_id, []).append(latency)
        else:
            wall.setdefault(op_id, []).append(t1 - t0)
            scaled.setdefault(op_id, []).append(latency)
            wall_cycles.append(checked - ready)
            scaled_cycles.append(host.rescale(ready, checked))
    record = {
        "attempted": client.attempted,
        "failed": client.failed,
        "failures": client.failures,
        "passes": pass_no,
        "error_rate": client.failed / client.attempted,
        "repeat_input_share": client.repeats / client.attempted,
        "host_probe_s": {"min": min(host.samples), "median": statistics.median(host.samples)},
        "wall": summary(wall, wall_cycles),
        "timeline": {"ops": [list(entry) for entry in timed],
                     "probes": [[mid, dur] for mid, dur in zip(host.mids, host.samples)]},
    }
    if trace:
        calls = tracer.check(workload.busy)
        m = tracer.metrics(len(factors) - len(scaled_cycles), factors)
        m["workload.repeat_input_share"] = client.repeats / client.attempted
        # per-op medians, so the cold first (untraced) pass does not count
        m["trace.overhead_share"] = sum(
            statistics.median(traced_by_op[k]) for k in traced_by_op
        ) / sum(statistics.median(scaled[k]) for k in traced_by_op) - 1.0
        record["metrics"] = {name: m[name] for name, _ in LAYER_METRICS}
        record["layer_calls"] = calls
        record["tracer"] = tracer
    else:
        record["metrics"] = summary(scaled, scaled_cycles)
        record["p90_samples_beyond"] = nearest_rank(
            [x for xs in scaled.values() for x in xs], 0.9)[1]
    return record


def summary(by_op, cycles):
    """Throughput over the op cycles; latency_p50_s is the median over the
    pool's commands of each command's median latency (every command runs once
    a pass, so a few outlying repeats cannot move it onto a neighbouring
    command); latency_p90_s is the nearest-rank 90th percentile of all
    latencies."""
    return {
        "ops_per_s": len(cycles) / sum(cycles),
        "latency_p50_s": statistics.median(statistics.median(xs) for xs in by_op.values()),
        "latency_p90_s": nearest_rank([x for xs in by_op.values() for x in xs], 0.9)[0],
    }


def units(trace):
    return dict(LAYER_METRICS) if trace else dict(END_TO_END)


def report(record):
    """Write the result files and print the human lines and the JSON line."""
    trace = record["run"]["trace"]
    tracer = record.pop("tracer", None)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{record['run']['workload']}-seed{record['run']['seed']}-trace{trace}"
    if tracer is not None:
        tracer.write_spans(os.path.join(OUT_DIR, f"{stem}.spans.jsonl"))
    with open(os.path.join(OUT_DIR, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    unit = units(trace)
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(f"workload {record['run']['workload']}: {record['attempted']} ops in "
          f"{record['passes']} passes, seed {record['run']['seed']}")
    for name, value in record["metrics"].items():
        extra = ""
        if name == "latency_p90_s":
            extra = f"  ({record['p90_samples_beyond']} samples beyond)"
        print(f"  {name:<44} {value:.6g} {unit[name]}{extra}")
    print(f"  {'error_rate':<44} {record['error_rate']:.6g} ratio")
    wall, probe = record["wall"], record["host_probe_s"]
    print(f"  wall clock, not rescaled: {wall['ops_per_s']:.6g} ops/s, p50 "
          f"{wall['latency_p50_s']:.6g} s, p90 {wall['latency_p90_s']:.6g} s; host probe "
          f"min {probe['min'] * 1e3:.3g} ms, median {probe['median'] * 1e3:.3g} ms")
    for failure in record["failures"]:
        print(f"  FAILED {failure['op']}: {failure['error']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in record["metrics"].items()},
    }))


def run_all(args):
    """Every workload in its own process, so each reports its own peak RSS."""
    rows, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        rows[name] = result
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
    unit = units(args.trace)
    names = list(unit)
    print(f"{'metric':<44} {'unit':<10} " + " ".join(f"{n:>15}" for n in rows))
    for metric in names:
        cells = " ".join(f"{rows[n]['metrics'][metric]['value']:>15.6g}" for n in rows)
        print(f"{metric:<44} {unit[metric]:<10} {cells}")
    cells = " ".join(f"{rows[n]['failed'] / rows[n]['attempted']:>15.6g}" for n in rows)
    print(f"{'error_rate':<44} {'ratio':<10} {cells}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {f"{n}.{m}": rows[n]["metrics"][m] for n in rows for m in names},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            run_all(args)
        else:
            report(run_workload(args.workload, args.seed, args.seconds, args.trace))
    except (BenchError, AssertionError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
