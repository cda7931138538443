#!/usr/bin/env python3
"""WaveMin benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the measuring program (perfbench/wmbench.ml) and the `wavemin`
binary from source with dune, runs one workload, checks the outputs
for correctness and prints, as the last line of standard output, one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  A failed check still prints the
object (correct: false) and exits 1.  Workloads, metrics and the
layer map are described in perfbench/README.md.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import metrics as M  # noqa: E402

WORKLOADS = ("table5-wavemin", "sweep-fast", "serve-mixed")
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 800.0
OUT = os.path.join("perfbench", "out")
# JSON has no infinity: a failed request's latency (it misses every
# limit) is reported as this many ms.
FAILED_VALUE = 1e9
BASELINE = os.path.join("bench", "baselines", "BENCH_table5.json")
# The traced batch run fails if the pass's own self time (time in no
# layer span) reaches this share of the pass.
UNATTRIBUTED_LIMIT = 0.05

BATCH_LAYERS = [
    "cts.synthesize", "context.create", "mosp.optimize", "wavemin_f.optimize",
    "peakmin.optimize", "sa.optimize", "golden.evaluate",
]


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class CheckFailed(Exception):
    pass


# ---- self-test, build, run ------------------------------------------

def self_test():
    import test_metrics
    suite = unittest.defaultTestLoader.loadTestsFromModule(test_metrics)
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    return result.wasSuccessful()


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet",
           "./perfbench/wmbench.exe", "./bin/wavemin.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        return False
    return proc.returncode == 0


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def run_wmbench(args, limit_s):
    """Run wmbench in its own process group, so a timeout can stop it
    together with the daemon it spawned; wait until the group is gone."""
    exe = os.path.join("_build", "default", "perfbench", "wmbench.exe")
    wavemin = os.path.join(ROOT, "_build", "default", "bin", "wavemin.exe")
    raw = os.path.join(OUT, "%s-trace%d.json" % (args.workload, args.trace))
    workdir = os.path.join(OUT, "serve")
    os.makedirs(os.path.join(ROOT, workdir), exist_ok=True)
    if os.path.exists(os.path.join(ROOT, raw)):
        os.remove(os.path.join(ROOT, raw))
    cmd = [exe, args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--out", raw,
           "--wavemin", wavemin, "--workdir", workdir]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=limit_s)
    except subprocess.TimeoutExpired:
        log("timed out after %.0f s" % limit_s)
        code = None
    finally:
        if group_alive(proc.pid):
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.wait()
        deadline = time.monotonic() + 5.0
        while group_alive(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
    if code != 0:
        raise CheckFailed("wmbench exited with %s" % code)
    with open(os.path.join(ROOT, raw)) as f:
        return json.load(f)


# ---- batch workloads -------------------------------------------------

QUALITY_KEYS = ("peak_current_ma", "vdd_noise_mv", "gnd_noise_mv", "skew_ps")


def baseline_rows(algorithm):
    with open(os.path.join(ROOT, BASELINE)) as f:
        doc = json.load(f)
    return {s["benchmark"]: s["quality"] for s in doc["samples"]
            if s["algorithm"] == algorithm}


def check_batch(raw, problems):
    """Correctness gate of a batch run.  Returns the number of failed
    solves; appends one line per problem."""
    passes = raw["passes"]
    failed = 0
    for p in passes:
        for e in p["errors"]:
            problems.append("pass %d: %s" % (p["index"], e))
    # Solves per circuit: ClkWaveMin once, or three solvers per kappa.
    per_design = 1 if raw["workload"] == "table5-wavemin" else 3 * len(raw["kappas"])
    failed += sum(len(p["errors"]) for p in passes) * per_design
    first = passes[0]["solves"]
    for p in passes:
        for s in p["solves"]:
            if not s["skew_ps"] <= s["kappa"]:
                failed += 1
                problems.append("%s %s: skew %.3f ps > kappa %g" % (
                    s["design"], s["algorithm"], s["skew_ps"], s["kappa"]))
        if p["solves"] != first:
            diff = sum(1 for a, b in zip(p["solves"], first) if a != b)
            diff += abs(len(p["solves"]) - len(first))
            failed += diff
            problems.append("pass %d differs from pass 0 in %d solves" % (p["index"], diff))
        # The traced pass times the power-grid share of golden again,
        # on injections rebuilt outside the program; they must give the
        # same noise.
        if p["noise_mismatches"]:
            failed += int(p["noise_mismatches"])
            problems.append("pass %d: %d power-grid re-solves differ from golden" % (
                p["index"], p["noise_mismatches"]))
    # Reference equality: every pass runs the paper placements, which
    # must reproduce the checked-in Table V rows exactly.
    algorithm = "ClkWaveMin" if raw["workload"] == "table5-wavemin" else "ClkPeakMin"
    refs = baseline_rows(algorithm)
    rows = [s for s in first if (s["algorithm"], s["kappa"]) == (algorithm, 20.0)]
    for s in rows:
        ref = refs.get(s["design"])
        if ref is None or any(s[k] != ref[k] for k in QUALITY_KEYS):
            failed += 1
            problems.append("%s %s differs from %s" % (s["design"], algorithm, BASELINE))
    if len(rows) != len(refs):
        failed += 1
        problems.append("%d of %d reference rows checked" % (len(rows), len(refs)))
    attempted = sum(len(p["designs"]) for p in passes) * per_design
    return attempted, failed


def batch_end_to_end(raw):
    untraced = [p for p in raw["passes"] if not p["traced"]]
    walls = [p["wall_s"] for p in untraced]
    designs = sum(len(p["designs"]) for p in untraced)
    solves = raw["passes"][0]["solves"]
    counts = "passes=%d setups=%d designs/pass=%d" % (
        len(untraced), len(untraced), len(untraced[0]["designs"]))
    # A batch user waits for a whole pass: the latency metrics are pass
    # times, the tail the slowest pass of the run.
    return counts, {
        "setup_s": M.median([p["setup_s"] for p in untraced]),
        "flow_s": M.median(walls),
        "flow_cpu_s": M.median([p["cpu_s"] for p in untraced]),
        "throughput_per_s": M.ratio(designs, sum(walls)),
        "latency_p50_ms": M.median(walls) * 1000,
        "latency_tail_ms": max(walls) * 1000,
        "peak_ratio": M.ratio(sum(s["peak_current_ma"] for s in solves),
                              sum(s["initial_peak_current_ma"] for s in solves)),
        "noise_ratio": M.ratio(sum(s["vdd_noise_mv"] + s["gnd_noise_mv"] for s in solves),
                               sum(s["initial_noise_mv"] for s in solves)),
        "max_rss_mb": raw["max_rss_mb"],
    }


def batch_per_layer(raw, problems):
    passes = raw["passes"]
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    totals = M.layer_totals(raw["spans"])
    rows = []
    for p in traced:
        wall, layers = totals["pass%d" % p["index"]]
        # The ledger: time the pass spends outside every layer span.
        share = layers["pass"] / wall
        log("pass %d: unattributed %.1f ms of %.0f ms (%.2f%%)" % (
            p["index"], layers["pass"], wall, 100 * share))
        if share >= UNATTRIBUTED_LIMIT:
            problems.append("pass %d: %.1f%% of the pass is in no layer span (limit %.0f%%)" % (
                p["index"], 100 * share, 100 * UNATTRIBUTED_LIMIT))
        rows.append(layers)
    out = {name + "_ms": M.median([r.get(name, 0.0) for r in rows]) for name in BATCH_LAYERS}
    out["unattributed_ms"] = M.median([r["pass"] for r in rows])
    out["powergrid.noise_ms"] = M.median([p["noise_ms"] for p in traced])

    # Traced passes only: an untraced pass's deltas include the set-up
    # spread over it.
    def delta(key):
        return M.median([p["deltas"][key] for p in traced])

    for key in ("waveforms.cache_misses", "waveforms.candidate_pulses",
                "warburton.solves", "warburton.labels_capped", "sa.proposed",
                "runtime.major_gcs"):
        out[key] = delta(key)
    out["warburton.labels_per_row_mean"] = M.ratio(
        delta("warburton.labels_per_row.sum"), delta("warburton.labels_per_row.count"))
    out["sa.accept_ratio"] = M.ratio(delta("sa.accepted"), delta("sa.proposed"))
    out["runtime.alloc_mb"] = delta("runtime.alloc_words") * 8 / 1e6
    out["trace.overhead_ratio"] = (
        M.median([p["wall_s"] for p in traced]) / M.median([p["wall_s"] for p in untraced]) - 1)
    return out


# ---- serve workload --------------------------------------------------

def serve_latencies(raw):
    by_class = {}
    for r in raw["requests"]:
        ms = (r["t1"] - r["t0"]) * 1000 if r["error"] is None else float("inf")
        by_class.setdefault(r["cls"], []).append(ms)
    return by_class


def check_serve(raw, problems):
    failed = 0
    for r in raw["requests"]:
        if r["error"] is not None:
            failed += 1
            if len(problems) < 20:
                problems.append("request %d (%s): %s" % (r["index"], r["cls"], r["error"]))
    return len(raw["requests"]), failed


def serve_end_to_end(raw, problems):
    reqs = raw["requests"]
    cycle = int(raw["cycle"])
    lat = [ms for v in serve_latencies(raw).values() for ms in v]
    tail = M.supported_percentile(lat, 95)
    if tail is None:
        problems.append("p95 has fewer than 10 samples beyond it (n=%d)" % len(lat))
        tail = max(lat)
    cycles = []
    for k in range(len(reqs) // cycle):
        chunk = reqs[k * cycle:(k + 1) * cycle]
        cycles.append(max(r["t1"] for r in chunk) - min(r["t0"] for r in chunk))
    # Solved responses against the unoptimized tree of the same design
    # (the run-initial class covers every design the mix solves).
    quality = raw["quality"]
    initial = {q["design"]: q for q in quality if q["cls"] == "run-initial"}
    solved = [q for q in quality if q["cls"] != "run-initial"]

    def noise(q):
        return q["vdd_noise_mv"] + q["gnd_noise_mv"]

    counts = "requests=%d cycles=%d cycle-length=%d" % (len(lat), len(cycles), cycle)
    ok = sum(1 for r in reqs if r["error"] is None)
    return counts, {
        "setup_s": M.median(raw["setup_s"]),
        "flow_s": M.median(cycles) if cycles else math.inf,
        "flow_cpu_s": M.ratio(raw["daemon_cpu_s"], len(reqs) / cycle),
        "throughput_per_s": M.ratio(ok, raw["measured_s"]),
        "latency_p50_ms": M.median(lat),
        "latency_tail_ms": tail,
        "peak_ratio": M.ratio(sum(q["peak_current_ma"] for q in solved),
                              sum(initial[q["design"]]["peak_current_ma"] for q in solved)),
        "noise_ratio": M.ratio(sum(noise(q) for q in solved),
                               sum(noise(initial[q["design"]]) for q in solved)),
        "max_rss_mb": raw["max_rss_mb"],
    }


def serve_per_layer(raw):
    a, b = raw["stats_after"], raw["stats_before"]

    def d(key):
        return a[key] - b[key]

    out = {
        "server.queue_wait_mean_ms": a["queue_wait_mean_ms"],
        "server.executor_busy_frac": M.ratio(d("executor_busy_s"), d("uptime_s") * a["executors"]),
        "session.hit_ratio": M.ratio(d("hits"), d("hits") + d("misses")),
        "session.evictions": d("evictions"),
        "session.warm_hits": d("warm_hits"),
        "sflight.coalesced_ratio": M.ratio(d("coalesced"), d("served")),
        "protocol.parse_us": raw["parse_us"],
        "protocol.line_us": raw["line_us"],
        "client.health_rtt_ms": M.median(raw["health_rtt_ms"]),
    }
    for cls, ms in raw["handlers_ms"].items():
        out["handlers.execute_ms." + cls] = M.median(ms)
    for cls, ms in serve_latencies(raw).items():
        out["serve.%s_p50_ms" % cls] = M.median(ms)
    return out


# ---- main ------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    started = time.monotonic()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if not self_test():
        log("metric self-test failed")
        return 3
    build_started = time.monotonic()
    if not build():
        log("build failed")
        return 2
    built_s = time.monotonic() - build_started
    limit = RUN_LIMIT_S - (time.monotonic() - started - built_s)

    problems = []
    try:
        raw = run_wmbench(args, limit)
        if args.workload == "serve-mixed":
            attempted, failed = check_serve(raw, problems)
            counts, values = serve_end_to_end(raw, problems)
            if args.trace:
                values = serve_per_layer(raw)
        else:
            attempted, failed = check_batch(raw, problems)
            counts, values = batch_end_to_end(raw)
            if args.trace:
                values = batch_per_layer(raw, problems)
    except CheckFailed as e:
        log(str(e))
        return 1

    out = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None:
            if not args.trace:
                problems.append("no value for %s" % m["name"])
                continue
            v = 0.0  # a layer this workload does not exercise
        if not math.isfinite(v):
            v = FAILED_VALUE
        out[m["name"]] = {"value": v, "unit": m["unit"]}
    if problems and failed == 0:
        failed = 1
    for p in problems:
        log("CHECK FAILED: " + p)
    print("perfbench: workload=%s seed=%d trace=%d jobs=%d %s" % (
        args.workload, args.seed, args.trace, raw["jobs"], counts))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
