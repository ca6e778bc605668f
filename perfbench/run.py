#!/usr/bin/env python3
"""End-to-end benchmark of the hypercover library.

    python3 perfbench/run.py --workload <engine_solve|served_cold|served_hot>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds perfbench/ (the repository's library plus perfbench_workloads) under
$CARGO_TARGET_DIR (default .bench_build) in the checkout, runs one
workload in one process, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics (perfbench/metrics.json says how each is
timed and which end-to-end metric it should move). Every operation is
checked against a solo reference solve; any failed operation, a broken
ledger, or too few samples for the tail percentile makes the run
incorrect and the exit code 1. All of the benchmark's arithmetic lives in
this file and is checked by --self-test, which every run also executes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("engine_solve", "served_cold", "served_hot")
TAIL_Q = 0.9          # the reported tail percentile
MIN_BEYOND_TAIL = 10  # samples that must lie beyond it
MIN_SLICE_OPS = 100   # ops per slice: >= MIN_BEYOND_TAIL beyond p90
MAX_SLICES = 10
SLO_MS = 100          # within_slo_share: answered correctly within this
PROGRAM_GRACE_S = 120  # set-up and side measurements on top of --seconds


# --- arithmetic (self-tested) -------------------------------------------------

def rank_ceil(n, q):
    """ceil(q * n) for q given to 1e-6, in integers (no float rounding)."""
    num = round(q * 1_000_000)
    return -(-n * num // 1_000_000)


def samples_beyond(n, q):
    """Samples strictly beyond the nearest-rank q-percentile of n samples."""
    return n - rank_ceil(n, q)


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q of all
    samples at or below it. 0 for no samples (a layer not exercised)."""
    if not values:
        return 0.0
    s = sorted(values)
    return float(s[max(rank_ceil(len(s), q), 1) - 1])


def tail_percentile(values, q=TAIL_Q):
    """The tail percentile, refused unless MIN_BEYOND_TAIL samples lie
    beyond it."""
    if samples_beyond(len(values), q) < MIN_BEYOND_TAIL:
        raise ValueError("%d samples leave fewer than %d beyond p%g"
                         % (len(values), MIN_BEYOND_TAIL, 100 * q))
    return percentile(values, q)


def median(values):
    return float(statistics.median(values)) if values else 0.0


def failed_share(attempted, failed):
    return failed / attempted if attempted else 1.0


def within_slo_share(ok_latencies, attempted, slo_ms):
    """Attempted ops answered correctly within slo_ms. Failed ops never
    have a latency, so they count as misses."""
    if not attempted:
        return 0.0
    return sum(1 for v in ok_latencies if v <= slo_ms) / attempted


def slices(done_ms):
    """Op indices in completion order, cut into up to MAX_SLICES consecutive
    slices of at least MIN_SLICE_OPS ops (one slice when there are fewer)."""
    order = sorted(range(len(done_ms)), key=done_ms.__getitem__)
    k = max(1, min(MAX_SLICES, len(order) // MIN_SLICE_OPS))
    cuts = [len(order) * i // k for i in range(k + 1)]
    return [order[cuts[i]:cuts[i + 1]] for i in range(k)]


def cpu_at(timeline, t_ms):
    """Process CPU seconds at window time t_ms, interpolated linearly
    between the (ms, s) samples and clamped to their range."""
    if t_ms <= timeline[0][0]:
        return timeline[0][1]
    for (t0, c0), (t1, c1) in zip(timeline, timeline[1:]):
        if t_ms <= t1:
            return c0 + (c1 - c0) * (t_ms - t0) / (t1 - t0) if t1 > t0 else c1
    return timeline[-1][1]


def ledger(rows, abs_ms, rel, max_violating_share):
    """rows: [wall, part...] per traced op. Returns (median unattributed,
    violating ops, ok). An op violates when its parts miss its wall by
    more than abs_ms + rel * wall, or a part is below -abs_ms."""
    if not rows:
        return 0.0, 0, True
    unattributed, bad = [], 0
    for row in rows:
        wall, parts = row[0], row[1:]
        rest = wall - sum(parts)
        unattributed.append(rest)
        if abs(rest) > abs_ms + rel * wall or min(parts) < -abs_ms:
            bad += 1
    return median(unattributed), bad, bad <= max_violating_share * len(rows)


# --- metrics ------------------------------------------------------------------

def end_to_end(raw):
    """The end-to-end metrics of an untraced run, and any problems.

    The run's correct ops are cut into slices in completion order; each
    slice gets its own p50, p90, throughput and CPU per op, and the run
    reports the median over slices, so a short noisy host episode moves
    one slice instead of the whole run."""
    lat, done, timeline = raw["lat_ms"], raw["done_ms"], raw["cpu_timeline"]
    problems = []
    per = {"latency_p50_ms": [], "latency_p90_ms": [], "ops_per_s": [], "cpu_ms_per_op": []}
    start = 0.0
    for ops in slices(done) if lat else []:
        vals = [lat[i] for i in ops]
        end = done[ops[-1]]
        try:
            per["latency_p90_ms"].append(tail_percentile(vals))
        except ValueError as ex:
            problems.append(str(ex))
        per["latency_p50_ms"].append(median(vals))
        if end > start:
            per["ops_per_s"].append(1e3 * len(ops) / (end - start))
        per["cpu_ms_per_op"].append(1e3 * (cpu_at(timeline, end) - cpu_at(timeline, start)) / len(ops))
        start = end
    if not lat:
        problems.append("no correct operation")
    metrics = {k: median(v) for k, v in per.items()}
    metrics["setup_s"] = median(raw["setup_s"])
    metrics["peak_rss_mb"] = raw["peak_rss_mb"]
    return metrics, problems


def per_layer(raw, names, tolerance):
    """The per-layer metrics of a traced run, and any problems."""
    samples, scalars = raw["samples"], raw["scalars"]
    rest, bad, ok = ledger(raw["ledger"], tolerance["abs_ms"], tolerance["rel"],
                           tolerance["max_violating_share"])
    problems = [] if ok else [
        "ledger: %d of %d traced ops miss their wall time" % (bad, len(raw["ledger"]))]
    qw = samples.get("server.queue_wait_ms", [])
    derived = {
        "congest.round_p50_ms": median(samples.get("congest.round_ms", [])),
        "server.queue_wait_p50_ms": median(qw),
        "server.queue_wait_p90_ms": percentile(qw, 0.9),
        "failed_share": failed_share(raw["attempted"], sum(raw["failures"].values())),
        "within_slo_share": within_slo_share(raw["lat_ms"], raw["attempted"], SLO_MS),
        "unattributed_ms": rest,
        "obs.tracing_overhead_ms": median(raw["wall_traced_ms"]) - median(raw["wall_untraced_ms"]),
        "host.probe_ms": max(raw["probe_ms"]),
    }
    metrics = {}
    for name in names:
        if name in derived:
            metrics[name] = derived[name]
        elif name in scalars:
            metrics[name] = float(scalars[name])
        elif name in samples:
            vals = samples[name]
            # Counts are per-op work: their mean is the workload's average.
            metrics[name] = median(vals) if name.endswith(("_ms", "_us")) else statistics.fmean(vals)
        else:
            metrics[name] = 0.0  # layer not exercised by this workload
    return metrics, problems


def result_line(raw, spec, doc, trace):
    attempted = int(raw["attempted"])
    failed = int(sum(raw["failures"].values()))
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        values, problems = per_layer(raw, names, doc["ledger_tolerance"])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, problems = end_to_end(raw)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {k: values[k] for k in units}
    if failed:
        problems.append("failed ops: %s" % json.dumps(raw["failures"], sort_keys=True))
    if attempted < 1:
        problems.append("no operation attempted")
    line = {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return line, problems


# --- build and run --------------------------------------------------------------

def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the workload program; returns its path and the
    scratch directory it may write to, both inside the checkout."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, target, "perfbench")
    subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench_workloads"],
                   check=True, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    return os.path.join(bdir, "perfbench_workloads"), os.path.join(ROOT, target, "perfbench_scratch")


def run_workload(program, scratch, args):
    os.makedirs(scratch, exist_ok=True)
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scratch", scratch]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=args.seconds + PROGRAM_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload program timed out")
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("workload program exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def load_json(path):
    with open(path) as f:
        return json.load(f)


# --- self-test ------------------------------------------------------------------

def self_test(spec, doc):
    def expect(cond, what):
        if not cond:
            raise AssertionError("self-test: " + what)

    # Percentile rule: nearest rank, and >= 10 samples beyond p90.
    expect(rank_ceil(100, 0.9) == 90 and rank_ceil(101, 0.9) == 91, "rank_ceil")
    expect(samples_beyond(100, 0.9) == 10 and samples_beyond(99, 0.9) == 9, "samples_beyond")
    vals = list(range(1, 101))
    expect(percentile(vals, 0.9) == 90 and percentile(vals, 0.5) == 50, "percentile")
    expect(percentile([7.0], 0.9) == 7.0 and percentile([], 0.9) == 0.0, "percentile edges")
    expect(tail_percentile(vals) == 90, "tail_percentile")
    try:
        tail_percentile(vals[:99])
        expect(False, "tail_percentile must refuse 99 samples")
    except ValueError:
        pass
    # Failure and SLO accounting: failed ops are misses, counted against
    # attempted ops.
    expect(failed_share(200, 0) == 0.0 and failed_share(200, 5) == 0.025, "failed_share")
    expect(failed_share(0, 0) == 1.0, "failed_share with nothing attempted")
    expect(within_slo_share([10, 50, 100, 150], 5, 100) == 0.6, "within_slo_share")
    expect(within_slo_share([], 0, 100) == 0.0, "within_slo_share empty")
    # Ledger sum and tolerance.
    tol = doc["ledger_tolerance"]
    a, r, share = tol["abs_ms"], tol["rel"], tol["max_violating_share"]
    rest, bad, ok = ledger([[10.0, 4.0, 5.9], [2.0, 1.0, 1.0]], a, r, share)
    expect(abs(rest - 0.05) < 1e-12 and bad == 0 and ok, "ledger sums")
    rest, bad, ok = ledger([[10.0, 4.0, 4.0]] + [[1.0, 1.0]] * 99, a, r, share)
    expect(bad == 1 and ok, "ledger tolerates 1% violators")
    rest, bad, ok = ledger([[10.0, 4.0, 4.0]] * 2 + [[1.0, 1.0]] * 98, a, r, share)
    expect(bad == 2 and not ok, "ledger refuses 2% violators")
    _, bad, _ = ledger([[1.0, 2.0, -1.0]], a, r, share)
    expect(bad == 1, "ledger refuses a negative part")
    # Slices: consecutive in completion order, >= MIN_SLICE_OPS each.
    cut = slices([float(i) for i in range(1050)])
    expect(len(cut) == 10 and sum(map(len, cut)) == 1050 and cut[0][0] == 0
           and min(map(len, cut)) >= MIN_SLICE_OPS and cut[-1][-1] == 1049, "slices")
    expect(len(slices([3.0, 1.0, 2.0])) == 1 and slices([3.0, 1.0, 2.0])[0] == [1, 2, 0],
           "one slice in completion order")
    expect(len(slices([float(i) for i in range(5000)])) == MAX_SLICES, "slice cap")
    timeline = [[0.0, 1.0], [100.0, 2.0], [300.0, 2.0]]
    expect(cpu_at(timeline, 50.0) == 1.5 and cpu_at(timeline, 200.0) == 2.0
           and cpu_at(timeline, -5.0) == 1.0 and cpu_at(timeline, 900.0) == 2.0, "cpu_at")
    # End-to-end assembly: 200 ops, one every 10 ms, 1 ms of CPU each; the
    # second slice is slower, so the slice median sits between the two.
    lat = [float(1 + i % 100) for i in range(100)] + [float(11 + i % 100) for i in range(100)]
    done = [10.0 * (i + 1) for i in range(200)]
    raw = {"lat_ms": lat, "done_ms": done, "setup_s": [1.0, 3.0, 2.0], "peak_rss_mb": 12.5,
           "cpu_timeline": [[0.0, 0.0], [2000.0, 0.2]]}
    e2e, problems = end_to_end(raw)
    expect(not problems and e2e["setup_s"] == 2.0 and e2e["latency_p90_ms"] == 95.0
           and e2e["latency_p50_ms"] == 55.5 and abs(e2e["ops_per_s"] - 100.0) < 1e-9
           and abs(e2e["cpu_ms_per_op"] - 1.0) < 1e-9, "end_to_end")
    _, problems = end_to_end(dict(raw, lat_ms=lat[:99], done_ms=done[:99]))
    expect(problems, "end_to_end refuses a tail with fewer than 10 samples beyond it")
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    expect(e2e_names == set(e2e), "end_to_end metrics match BENCHMARK.json")
    layer_names = [m["name"] for m in spec["per_layer"]]
    expect(set(layer_names) == set(doc["per_layer"]), "per_layer metrics match metrics.json")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workloads")
    for entry in doc["per_layer"].values():
        for metric, workload in entry["moves"]:
            expect(workload in WORKLOADS and (metric in e2e_names or metric == "failed_share"),
                   "metrics.json names a known metric and workload")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        doc = load_json(os.path.join(HERE, "metrics.json"))
        self_test(spec, doc)
        if args.self_test:
            log("self-test passed")
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        if args.seconds < 1:
            ap.error("--seconds must be at least 1")
        program, scratch = build()
        raw = run_workload(program, scratch, args)
    except (OSError, ValueError, RuntimeError, AssertionError,
            subprocess.CalledProcessError) as ex:
        log("error: %s" % ex)
        return 2
    line, problems = result_line(raw, spec, doc, args.trace == 1)
    for p in problems:
        log("incorrect run: " + p)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
