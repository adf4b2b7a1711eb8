#!/usr/bin/env python3
"""End-to-end benchmark of the GenProve paper pipelines and the serve daemon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the verifier library, the
in-process driver (perfbench/driver.cpp) and genprove_serve into
.bench_build/, runs one workload and prints its metrics, one per line with
their units, then one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 makes a separate traced run
and reports the per-layer metrics. The full record of the run (host
context, tail percentile and sample count, raw numbers) is written to
.perfbench_out/. Workloads and metrics are described in perfbench/README.md.

Exit codes: 0 the run completed and every correctness check passed;
1 a correctness check failed (the result line says "correct": false);
2 the benchmark could not run (no sources, build failure, a crashed or
hung process).
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark tree free of build output
import loadgen  # noqa: E402
import metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".perfbench_out"
DRIVER = BUILD / "perfbench_driver"
DAEMON = BUILD / "genprove_serve"

NPROC = len(os.sched_getaffinity(0))
WEIGHT_SEED = 7         # fixed in driver.cpp; recorded here for the context
HELD_OUT_SEED = 104729  # not used while tuning a change; claims are re-checked on it
SETUP_REPS = 5          # set-ups per run; setup_s is their median
# Every workload verifies on one pool thread. This shared host gives a guest
# a varying share of its 4 vCPUs (at times 4 threads ran no faster than 1),
# so a multi-threaded run's wall-clock numbers swing from run to run; the
# traced run times each workload's kernels on PROBE_THREADS threads too.
VERIFIER_THREADS = 1
RUN_BUDGET = 170.0      # seconds a run may take once the build is done
PROBE_THREADS = min(4, NPROC)

# Chord angles (radians) per classifier: ConvSmall, ConvMed, ConvLarge.
# They are set so a query of each pipeline takes about as long as one of
# the others, which keeps the latency distribution unimodal and its median
# steady across seeds.
WORKLOADS = {
    # GenProve^0 (exact), round-to-nearest, 1 thread, cache off.
    "paper_exact": dict(kind="paper", p=0.0, threshold=250, sound=False,
                        angles=(0.04, 0.02, 0.016)),
    # GenProve^0.2_100 under directed rounding. The node threshold is low
    # enough that the short segments' chains get relaxed.
    "paper_sound_relaxed": dict(kind="paper", p=0.2, threshold=25, sound=True,
                                angles=(0.03, 0.015, 0.012)),
    # genprove_serve on Decoder->ConvSmall at GenProve^0.02_100 with the
    # propagation cache and coalescing on, driven by an open loop.
    "serve_repeat": dict(kind="serve", p=0.02, threshold=250, sound=False,
                         angles=(0.02, 0.02, 0.02)),
}

# serve_repeat traffic: SLOT_RATE time slots per second, their kinds
# cycling with period SLOT_PERIOD. In most slots one request with a loose
# deadline falls due on a first-seen segment; it skips coalescing and runs
# solo under supervision, which bypasses the cache. In HOT_SLOTS a burst of
# one request per connection falls due on hot segments drawn from a Zipf
# pool that was sent once, untimed, before the timed window: one coalesced
# batch of cache hits. In COLD_SLOTS the burst's first member is a
# first-seen segment, so the batch mixes warm starts with a batched cold
# propagation. The median and the tail land on independent engine work;
# an all-hot batch answers in ~2 ms of thread hand-offs, whose length swung
# by a quarter with the host's load. At most one propagation runs at a
# time, so the workload needs about one CPU.
CONNECTIONS = max(1, min(3, NPROC - 1))  # plus the daemon's 1 kernel thread
SLOT_RATE = 6.0
SLOT_PERIOD = 10
HOT_SLOTS = (3,)
COLD_SLOTS = (7,)
POOL = 16
ZIPF_S = 1.0
LOOSE_DEADLINE_MS = 60000.0
COALESCE_WINDOW_MS = 50
CACHE_MB = 256
REPLY_TIMEOUT = 30.0
SERVE_NET = "convsmall"


class BenchError(Exception):
    """The benchmark could not run: exit 2 without a result line."""


_deadline = None  # monotonic time the run must end by, set after the build


def remaining():
    """Seconds left of the run's budget (counted from the end of the build)."""
    if _deadline is None:
        return RUN_BUDGET
    left = _deadline - time.monotonic()
    if left <= 0:
        raise BenchError("the run took longer than %gs" % RUN_BUDGET)
    return left


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


#===--------------------------------------------------------------------===#
# Build and host context
#===--------------------------------------------------------------------===#

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no verifier sources under %s/src" % ROOT)
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", str(NPROC)],
                   stdout=sys.stderr, check=True, timeout=900)


def read_text(path, default=""):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return default


def load_average():
    return [float(x) for x in read_text("/proc/loadavg", "0 0 0").split()[:3]]


def cpu_ticks():
    """The host's aggregate CPU tick counters (/proc/stat: user nice system
    idle iowait irq softirq steal ...)."""
    fields = read_text("/proc/stat", "cpu 0").splitlines()[0].split()[1:]
    return [int(x) for x in fields]


def cpu_model():
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def source_digest():
    """sha256 over the measured sources (src/, tools/, perfbench/): the
    checkout the benchmark runs in need not be a git repository."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        return None


def host_context(workload, seed, load_before, ticks_before):
    cfg = WORKLOADS[workload]
    connections = CONNECTIONS if cfg["kind"] == "serve" else 0
    cache = read_text(BUILD / "CMakeCache.txt")
    build_type = next((l.split("=", 1)[1] for l in cache.splitlines()
                       if l.startswith("CMAKE_BUILD_TYPE:")), "unknown")
    ticks = [b - a for a, b in zip(ticks_before, cpu_ticks())]
    return {
        "nproc": NPROC,
        "verifier_threads": VERIFIER_THREADS,
        "generator_connections": connections,
        # A run with more busy threads than the host has CPUs says nothing
        # about parallel speed-up.
        "comparable": VERIFIER_THREADS + connections <= NPROC,
        "cpu_model": cpu_model(),
        "load_average_before": load_before,
        "load_average_after": load_average(),
        # Share of the host's CPU time the hypervisor gave to other guests
        # while the workload ran: the main source of run-to-run spread.
        "cpu_steal_frac": ticks[7] / sum(ticks) if len(ticks) > 7 and sum(ticks) else 0.0,
        "build_type": build_type,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "weight_seed": WEIGHT_SEED,
        "workload_seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


#===--------------------------------------------------------------------===#
# perfbench_driver and the correctness checks
#===--------------------------------------------------------------------===#

def driver(mode, cfg, seed, *extra):
    """Run perfbench_driver MODE for a workload config; its last stdout line
    is one JSON object."""
    cmd = [str(DRIVER), mode, "--seed", str(seed), "--p", repr(cfg["p"]),
           "--threshold", str(cfg["threshold"]), "--sound",
           "1" if cfg["sound"] else "0",
           "--angles", ",".join(map(repr, cfg["angles"])),
           "--check-threads", str(NPROC), "--probe-threads", str(PROBE_THREADS),
           *map(str, extra)]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=remaining())
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out" % " ".join(cmd))
    if out.returncode != 0:
        raise BenchError("%s exited %d: %s" % (" ".join(cmd), out.returncode,
                                               out.stderr.strip()[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def bits(x):
    return struct.pack("<d", float(x))


def bounds_ok(lower, upper):
    return 0.0 <= lower <= upper <= 1.0


def check_queries(queries, failures):
    """The sampling check: each query's bounds meet its 99.999%
    Clopper-Pearson interval."""
    for q in queries:
        if not (q["lower"] <= q["cp_upper"] and q["cp_lower"] <= q["upper"]):
            failures.append("query %d: bounds [%r, %r] miss the sampled "
                            "interval [%r, %r]" % (q["index"], q["lower"],
                                                   q["upper"], q["cp_lower"],
                                                   q["cp_upper"]))


def check_stepped(trace, failures):
    if not trace["stepped_identical"]:
        failures.append("stepped bounds differ from the one-shot bounds")


#===--------------------------------------------------------------------===#
# Metrics
#===--------------------------------------------------------------------===#

AFFINE_KINDS = ("ConvTranspose2d", "Conv2d", "Linear")
TRACED_KINDS = AFFINE_KINDS + ("ReLU", "Reshape", "Flatten")


def end_to_end(raw):
    """The end-to-end metrics of one untraced run, plus notes printed beside
    them (sample counts, the tail's percentile)."""
    tail_value, percentile, samples = metrics.tail(raw["latencies_s"])
    values = {
        "setup_s": metrics.median(raw["setup_samples_s"]),
        "latency_p50_s": metrics.median(raw["latencies_s"]),
        "latency_tail_s": tail_value,
        "queries_per_s": raw["answered"] / raw["wall_s"],
        "cpu_s_per_query": raw["cpu_s"] / raw["answered"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    beyond = samples - round(percentile * samples / 100.0)
    notes = {"latency_tail_s": "p%.1f of %d samples, %d beyond"
             % (percentile, samples, beyond),
             "latency_p50_s": "of %d samples" % samples,
             "setup_s": "median of %d set-ups" % len(raw["setup_samples_s"]),
             "cpu_s_per_query": "over %d answers" % raw["answered"]}
    return values, notes


def stepped_layer_metrics(trace, queries):
    """tensor.*, fp.*, domains.*, core.bounds_s and trace.* of a stepped
    driver trace, times as means per stepped query."""
    n = max(len(queries), 1)
    m = {}
    for kind in AFFINE_KINDS:
        kernel = trace["kernel_s"][kind]
        m["tensor.kernel_s." + kind] = kernel / n
        # Computed from shapes and row counts: 2 flops per multiply-add.
        m["tensor.gflops." + kind] = (2.0 * trace["kernel_macs"][kind] / kernel / 1e9
                                      if kernel > 0 else 0.0)
    m["fp.sound_kernel_ratio"] = trace["sound_kernel_s"] / trace["nearest_kernel_s"]
    m["parallel.kernel_speedup"] = (sum(trace["kernel_s"].values())
                                    / trace["probe_kernel_s"])
    for kind in TRACED_KINDS:
        m["domains.layer_s." + kind] = trace["layer_s"][kind] / n
    m["domains.overhead_s"] = sum(trace["layer_s"][k] - trace["kernel_s"][k]
                                  for k in AFFINE_KINDS) / n
    m["domains.regions_max"] = max(q["regions_max"] for q in queries)
    m["domains.splits"] = sum(q["splits"] for q in queries) / n
    m["domains.boxed"] = trace["boxes_made"] / n
    m["domains.device_peak_mb"] = max(q["peak_bytes"] for q in queries) / 2**20
    m["core.bounds_s"] = trace["bounds_s"] / n
    untraced = trace["untraced_s"]
    m["trace.overhead_frac"] = trace["traced_s"] / untraced - 1.0
    m["trace.accounted_frac"] = (sum(trace["layer_s"].values())
                                 + trace["bounds_s"]) / untraced
    return m


def paper_layer_metrics(d):
    """Per-layer metrics of a traced paper_* driver run."""
    # answers: [query, gap_s, latency_s, lower, upper, degraded, oom]
    answers = d["answers"]
    done = [a for a in answers if not a[6]]
    gaps = [a[1] for a in answers]
    m = stepped_layer_metrics(d["trace"], d["queries"])
    # No daemon here: a closed loop is its own queue. The caller-side gap
    # between one answer and the next call stands in for queue wait and
    # generator lateness; run time is the analyzeSegment time.
    m.update({
        "core.batch_size_mean": 1.0,
        "prop_cache.hit_frac": 0.0,
        "prop_cache.evictions": 0.0,
        "parallel.cpu_per_wall": d["cpu_s"] / d["wall_s"],
        "serve.queue_s_p50": metrics.median(gaps),
        "serve.queue_s_tail": metrics.tail(gaps)[0],
        "serve.run_s_p50": metrics.median([a[2] for a in done]),
        "serve.coalesced_frac": 0.0,
        "serve.shed_frac": 0.0,
        "loadgen.late_s_max": max(gaps),
        "bound_width_mean": sum(a[4] - a[3] for a in done) / len(done),
        "failed_frac": (len(answers) - len(done)) / len(answers),
        "degraded_frac": sum(1 for a in answers if a[5]) / len(answers),
    })
    return m


def serve_layer_metrics(obs, ref):
    """Per-layer metrics of a traced serve_repeat run: serve, cache and
    batching numbers from the responses and the daemon's stats replies;
    kernel and engine numbers from stepping the same segments in-process."""
    answered = obs["answered"]
    m = stepped_layer_metrics(ref["trace"], ref["queries"])
    delta = {k: obs["stats_after"][k] - obs["stats_before"][k]
             for k in ("cache_hits", "cache_misses", "cache_evictions",
                       "coalesce_batches", "coalesce_requests")}
    lookups = delta["cache_hits"] + delta["cache_misses"]
    queue = [r["queue_ms"] / 1000.0 for r in answered]
    widths = [r["specs"][0]["upper"] - r["specs"][0]["lower"] for r in answered]
    m.update({
        "core.batch_size_mean": (delta["coalesce_requests"]
                                 / max(delta["coalesce_batches"], 1)),
        "prop_cache.hit_frac": delta["cache_hits"] / max(lookups, 1),
        "prop_cache.evictions": delta["cache_evictions"],
        "parallel.cpu_per_wall": obs["cpu_s"] / obs["wall_s"],
        "serve.queue_s_p50": metrics.median(queue),
        "serve.queue_s_tail": metrics.tail(queue)[0],
        "serve.run_s_p50": metrics.median([r["run_ms"] / 1000.0 for r in answered]),
        "serve.coalesced_frac": delta["coalesce_requests"] / len(answered),
        "serve.shed_frac": obs["shed"] / obs["attempted"],
        "loadgen.late_s_max": obs["late_s_max"],
        "bound_width_mean": sum(widths) / len(widths),
        "failed_frac": (obs["attempted"] - len(answered)) / obs["attempted"],
        "degraded_frac": obs["degraded"] / obs["attempted"],
    })
    return m


#===--------------------------------------------------------------------===#
# paper_exact, paper_sound_relaxed
#===--------------------------------------------------------------------===#

def run_paper(workload, seed, seconds, trace):
    cfg = WORKLOADS[workload]
    setups = [driver("setup", cfg, seed)["setup_s"] for _ in range(SETUP_REPS - 1)]
    d = driver("run", cfg, seed, "--seconds", seconds, "--trace", int(trace))
    setups.append(d["setup_s"])

    failures = []
    answers = d["answers"]
    done = [a for a in answers if not a[6]]
    if not done:
        raise BenchError("no query was answered")
    for a in done:
        if not bounds_ok(a[3], a[4]):
            failures.append("query %d: bounds [%r, %r] outside 0 <= l <= u <= 1"
                            % (a[0], a[3], a[4]))
    check_queries(d["queries"], failures)
    if trace:
        check_stepped(d["trace"], failures)
    splits = {q["index"]: q["splits"] for q in d["queries"]}
    raw = {"setup_samples_s": setups, "latencies_s": [a[2] for a in done],
           "answered": len(done), "wall_s": d["wall_s"], "cpu_s": d["cpu_s"],
           "peak_rss_mb": d["peak_rss_mb"],
           # Work done as a count: it separates seed effects from host speed.
           "splits_per_query": sum(splits[a[0]] for a in done) / len(done)}
    return dict(attempted=len(answers), failed=len(answers) - len(done),
                failures=failures, raw=raw,
                layer=paper_layer_metrics(d) if trace else None)


#===--------------------------------------------------------------------===#
# serve_repeat
#===--------------------------------------------------------------------===#

class Daemon:
    """A genprove_serve process serving the Decoder->ConvSmall files."""

    def __init__(self, model_dir, cfg):
        self.socket = os.path.relpath(model_dir / "gp.sock", ROOT)
        net = "%s=%s+%s" % (SERVE_NET, model_dir / "decoder.gpn",
                            model_dir / "convsmall.gpn")
        cmd = [str(DAEMON), "--socket", self.socket, "--net", net,
               "--threads", str(VERIFIER_THREADS),
               "--max-concurrent", str(CONNECTIONS),
               "--coalesce-window-ms", str(COALESCE_WINDOW_MS),
               "--coalesce-max-batch", str(CONNECTIONS),
               "--cache-mb", str(CACHE_MB)]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL)

    def alive(self):
        return self.proc.poll() is None

    def cpu_seconds(self):
        stat = read_text("/proc/%d/stat" % self.proc.pid)
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        for line in read_text("/proc/%d/status" % self.proc.pid).splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("cannot read the daemon's peak memory")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def verify_request(inputs, seg, rid, deadline_ms):
    cfg = WORKLOADS["serve_repeat"]
    return {"type": "verify", "id": rid, "net": SERVE_NET,
            "input_shape": inputs["input_shape"], "start": seg["start"],
            "end": seg["end"], "specs": [seg["spec"]],
            "deadline_ms": deadline_ms, "p": cfg["p"], "k": 100,
            "threshold": cfg["threshold"]}


def serve_plan(seed, seconds):
    """The seeded traffic: (segment, deadline_ms) per request, the due
    offsets and the number of first-seen segments. Segments 0..POOL-1 are
    the Zipf pool; later ones are first-seen (cold), each used once."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(POOL)]
    plan, due, fresh = [], [], 0
    for slot in range(int(SLOT_RATE * seconds)):
        kind = slot % SLOT_PERIOD
        if kind in HOT_SLOTS or kind in COLD_SLOTS:
            for member in range(CONNECTIONS):
                if member == 0 and kind in COLD_SLOTS:
                    plan.append((POOL + fresh, 0.0))
                    fresh += 1
                else:
                    plan.append((rng.choices(range(POOL), weights)[0], 0.0))
        else:
            plan.append((POOL + fresh, LOOSE_DEADLINE_MS))
            fresh += 1
        due += [slot / SLOT_RATE] * (len(plan) - len(due))
    return plan, due, fresh


def stats(conn):
    s = conn.call({"type": "stats"})
    s.pop("prometheus", None)
    return s


def start_serve(model_dir, cfg, seed, cold):
    """One set-up: write the model files and the seeded segments, start the
    daemon, wait until it answers and send the warm-up query. Returns
    (daemon, inputs, seconds)."""
    t0 = time.monotonic()
    inputs = driver("serve-inputs", cfg, seed, "--dir", model_dir,
                    "--pool", POOL, "--cold", cold)
    daemon = Daemon(model_dir, cfg)
    try:
        if not loadgen.wait_until_ready(daemon.socket, 30.0, daemon.alive):
            raise BenchError("genprove_serve did not come up")
        conn = loadgen.Connection(daemon.socket, REPLY_TIMEOUT)
        try:
            reply = conn.call(verify_request(inputs, inputs["warmup"][0],
                                             "warmup", 0.0))
        finally:
            conn.close()
        if reply.get("status") != "ok":
            raise BenchError("warm-up query failed: %r" % reply)
    except BaseException:
        daemon.stop()
        raise
    return daemon, inputs, time.monotonic() - t0


def encode(requests):
    return [(json.dumps(r) + "\n").encode() for r in requests]


def drive(daemon, inputs, plan, due):
    """Warm the cache with the pool (untimed), then run the open loop.
    Returns (records, observations of the daemon)."""
    segments = inputs["segments"]
    conns = []
    transport = None
    try:
        conns = [loadgen.Connection(daemon.socket, REPLY_TIMEOUT)
                 for _ in range(CONNECTIONS)]
        # Whole bursts 0.3 s apart, so every batch fills and none falls
        # back to the (cache-inert) solo path; the last one wraps.
        warm = range(-(-POOL // CONNECTIONS) * CONNECTIONS)
        transport = loadgen.SocketTransport(conns, encode(
            verify_request(inputs, segments[i % POOL], "pool-%d" % i, 0.0)
            for i in warm), REPLY_TIMEOUT)
        loadgen.run_open_loop([i // CONNECTIONS * 0.3 for i in warm], transport,
                              CONNECTIONS)
        transport.close()
        transport = loadgen.SocketTransport(conns, encode(
            verify_request(inputs, segments[s], "r%d" % i, deadline)
            for i, (s, deadline) in enumerate(plan)), REPLY_TIMEOUT)
        before = stats(conns[0])
        cpu0 = daemon.cpu_seconds()
        records = loadgen.run_open_loop(due, transport, CONNECTIONS)
        obs = {"cpu_s": daemon.cpu_seconds() - cpu0, "stats_before": before,
               "peak_rss_mb": daemon.peak_rss_mb(), "stats_after": stats(conns[0])}
    finally:
        if transport:
            transport.close()
        for c in conns:
            c.close()
    return records, obs


def run_serve(workload, seed, seconds, trace):
    cfg = WORKLOADS[workload]
    model_dir = OUT / ("serve-%d" % os.getpid())
    model_dir.mkdir(parents=True, exist_ok=True)
    plan, due, cold = serve_plan(seed, seconds)
    setups = []
    try:
        for rep in range(SETUP_REPS):
            daemon, inputs, took = start_serve(model_dir, cfg, seed, cold)
            setups.append(took)
            if rep + 1 < SETUP_REPS:
                daemon.stop()
        try:
            records, obs = drive(daemon, inputs, plan, due)
        finally:
            daemon.stop()
        ref = driver("serve-reference", cfg, seed, "--dir", model_dir, "--pool",
                     POOL, "--cold", cold, "--trace", int(trace))
    finally:
        shutil.rmtree(model_dir, ignore_errors=True)

    failures = []
    answered, used = [], set()
    shed = degraded = 0
    for rec in records:
        r = rec.reply
        status = r.get("status") if r and r.get("type") == "result" else None
        shed += status == "overloaded"
        if rec.error or status not in ("ok", "degraded"):
            continue
        seg = plan[rec.index][0]
        lower, upper = r["specs"][0]["lower"], r["specs"][0]["upper"]
        ref_lower, ref_upper = ref["answers"][seg][3], ref["answers"][seg][4]
        if not bounds_ok(lower, upper):
            failures.append("request %d: bounds [%r, %r] outside 0 <= l <= u <= 1"
                            % (rec.index, lower, upper))
        if status == "degraded":
            degraded += 1
        elif bits(lower) != bits(ref_lower) or bits(upper) != bits(ref_upper):
            failures.append("request %d: daemon [%r, %r] != in-process [%r, %r]"
                            % (rec.index, lower, upper, ref_lower, ref_upper))
        used.add(seg)
        answered.append(rec)
    check_queries([q for q in ref["queries"] if q["index"] in used], failures)
    if trace:
        check_stepped(ref["trace"], failures)
    if not answered:
        raise BenchError("the daemon answered no request")

    wall = max(rec.done for rec in records if rec.done) - records[0].due
    raw = {"setup_samples_s": setups,
           "latencies_s": [rec.latency for rec in answered],
           "answered": len(answered), "wall_s": wall, "cpu_s": obs["cpu_s"],
           "peak_rss_mb": obs["peak_rss_mb"]}
    obs.update(answered=[rec.reply for rec in answered], attempted=len(records),
               wall_s=wall, shed=shed, degraded=degraded,
               late_s_max=max(rec.lateness for rec in records
                              if rec.lateness is not None))
    return dict(attempted=len(records), failed=len(records) - len(answered),
                failures=failures, raw=raw,
                layer=serve_layer_metrics(obs, ref) if trace else None)


#===--------------------------------------------------------------------===#
# Main
#===--------------------------------------------------------------------===#

def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    # A TERM from whoever runs the benchmark still stops the daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    load_before = load_average()
    spec = metrics.load_spec()
    build()
    global _deadline
    _deadline = time.monotonic() + RUN_BUDGET
    ticks_before = cpu_ticks()
    OUT.mkdir(exist_ok=True)
    run = run_serve if WORKLOADS[args.workload]["kind"] == "serve" else run_paper
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))

    context = host_context(args.workload, args.seed, load_before, ticks_before)
    if args.trace:
        values, notes = res["layer"], {}
    else:
        values, notes = end_to_end(res["raw"])
    correct = not res["failures"]
    line = metrics.result_line(spec, bool(args.trace), correct, res["attempted"],
                               res["failed"], values)
    record = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, context=context, notes=notes,
                  failures=res["failures"], raw=res["raw"], result=line)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(OUT / name, "w") as f:
        json.dump(record, f, indent=1)

    for failure in res["failures"]:
        log("CHECK FAILED:", failure)
    print("host: " + json.dumps(context))
    if not context["comparable"]:
        print("host: NOT COMPARABLE: more busy threads than CPUs")
    for key, m in line["metrics"].items():
        note = notes.get(key)
        print("%-36s %.6g %s%s" % (key, m["value"], m["unit"],
                                   "  (%s)" % note if note else ""))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as exc:
        log("error:", exc)
        sys.exit(2)
