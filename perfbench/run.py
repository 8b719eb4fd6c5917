#!/usr/bin/env python3
"""End-to-end benchmark of the sdlo CLI and the sdlo serve daemon.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload curve --seed 1 --seconds 36 --trace 0
  python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 36 --trace 1
  python3 perfbench/run.py --steady 5 [--workload NAME ...] [--seconds S]
  python3 perfbench/run.py --make-reference

Workloads (perfbench/README.md says why each exists): curve, predict and
serve-mix. The first run builds sdlo and the helpers from source into
.bench_build/ (or $CARGO_TARGET_DIR). Logs, sockets, job lists and
trace-event JSON go to .bench_out/.

--trace 0 prints the six end-to-end metrics; --trace 1 runs the traced
per-layer run instead and prints every per-layer metric, each tagged with
the end-to-end metric and workload it should move. The last stdout line is
always one JSON object {"correct", "attempted", "failed", "metrics"}. Every
response is compared by value with the oracle answers in reference.json; a
mismatch makes the run exit 1.
"""

import argparse
import atexit
import concurrent.futures
import json
import os
import platform
import selectors
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import workloads as W  # noqa: E402

OUT = ".bench_out"
WORKLOADS = ["curve", "predict", "serve-mix"]
# Set-ups per run: two before the measured loop and one after it, so the
# reported median samples more than one phase of a drifting shared host.
SETUP_BEFORE = 2
SETUP_AFTER = 1
SERVE_WORKERS = 2
SERVE_CONNECTIONS = 2
CURVE_MT_THREADS = 2
# The `--threads 2` sweep path has no end-to-end workload of its own.
MT_TAG = "curve-mt (sweep --threads 2, traced run only)"
BUILD_TYPE = "Release"

# Per-layer metrics: (name, unit, end-to-end metric it should move, workloads).
LAYER_TAGS = [
    ("tools.startup_ms", "ms", "latency_p50_ms", "curve,predict"),
    ("ir.parse_ms", "ms", "latency_p50_ms", "serve-mix"),
    ("ir.hash_us", "us", "latency_p50_ms", "serve-mix"),
    ("analysis.lint_ms", "ms", "latency_p50_ms", "serve-mix"),
    ("analysis.render_ms", "ms", "latency_p50_ms", "serve-mix"),
    ("analysis.dependence_ms", "ms", "latency_p90_ms", "predict"),
    ("analysis.advise_ms", "ms", "requests_per_s", "predict"),
    ("analysis.advise_scored", "count", "requests_per_s", "predict"),
    ("analysis.advise_illegal_ratio", "ratio", "requests_per_s", "predict"),
    ("model.analyze_ms", "ms", "latency_p50_ms", "predict,serve-mix"),
    ("model.predict_ms", "ms", "requests_per_s,latency_p90_ms", "predict"),
    ("model.predict_share", "ratio", "requests_per_s,latency_p90_ms", "predict"),
    ("model.exact_ratio", "ratio", "answered_ratio", "predict"),
    ("model.symbolic_sweep_ms", "ms", "latency_p50_ms", "serve-mix"),
    ("model.symbolic_fallback_ratio", "ratio", "latency_p50_ms", "serve-mix"),
    ("trace.compile_ms", "ms", "requests_per_s", "curve"),
    ("trace.accesses", "count", "requests_per_s", "curve"),
    ("trace.walk_maccesses_per_s", "M/s", "requests_per_s", "curve"),
    ("cachesim.profile_ms", "ms", "requests_per_s,latency_p90_ms", "curve"),
    ("cachesim.profile_maccesses_per_s", "M/s", "requests_per_s,latency_p90_ms", "curve"),
    ("cachesim.oracle_maccesses_per_s", "M/s", "none (base of engine ratios)", "curve"),
    ("cachesim.mt_profile_s", "s", "requests_per_s", MT_TAG),
    ("cachesim.mt_merge_s", "s", "requests_per_s", MT_TAG),
    ("cachesim.mt_merge_wait_s", "s", "requests_per_s", MT_TAG),
    ("cachesim.mt_chunks", "count", "requests_per_s", MT_TAG),
    ("cachesim.mt_overlapped_merges", "count", "requests_per_s", MT_TAG),
    ("parallel.cpu_per_wall", "ratio", "requests_per_s", MT_TAG),
    ("serve.queue_ms", "ms", "latency_p50_ms", "serve-mix"),
    ("serve.run_ms", "ms", "latency_p50_ms", "serve-mix"),
    ("serve.transport_ms", "ms", "latency_p50_ms", "serve-mix"),
    ("serve.parse_request_us", "us", "latency_p50_ms", "serve-mix"),
    ("serve.render_response_us", "us", "latency_p50_ms", "serve-mix"),
    ("serve.cache_hit_ratio", "ratio", "requests_per_s", "serve-mix"),
    ("serve.shed_ratio", "ratio", "answered_ratio", "serve-mix"),
    ("serve.reconnects", "count", "answered_ratio", "serve-mix"),
]


def log(msg):
    print(msg, flush=True)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


# ---------------------------------------------------------------------------
# Build and host record.
# ---------------------------------------------------------------------------

def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build(targets):
    """Configures once, then brings `targets` up to date (a no-op when they
    are). Output goes to .bench_out/build.log."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no sdlo sources next to perfbench/ (run from a source checkout)")
    bdir = build_dir()
    logf = os.path.join(OUT, "build.log")
    with open(logf, "a") as lf:
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            r = subprocess.run(["cmake", "-S", "perfbench", "-B", bdir,
                                f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                               stdout=lf, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                fail(f"cmake configure failed (see {logf})")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        r = subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target", *targets],
                           stdout=lf, stderr=subprocess.STDOUT)
        if r.returncode != 0:
            fail(f"build failed (see {logf})")
    return os.path.join(bdir, "sdlo", "tools", "sdlo"), bdir


def host_record(sdlo):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    version = subprocess.run([sdlo, "--version"], capture_output=True, text=True).stdout.strip()
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "build_type": BUILD_TYPE,
            "sdlo_version": version, "commit": commit, "python": platform.python_version()}


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile; failed requests enter as +inf."""
    s = sorted(values)
    idx = max(0, min(len(s) - 1, int(-(-q * len(s) // 1)) - 1))
    return s[idx]


def latency_metrics(lat_s, elapsed, attempted, answered):
    n = len(lat_s)
    beyond = n - int(-(-0.9 * n // 1))
    log(f"latency samples: {n}, beyond p90: {beyond}")
    return {
        "requests_per_s": (attempted / elapsed, "1/s"),
        "latency_p50_ms": (percentile(lat_s, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat_s, 0.9) * 1e3, "ms"),
        "answered_ratio": (answered / attempted, "ratio"),
    }


# ---------------------------------------------------------------------------
# CLI workloads: curve, predict.
# ---------------------------------------------------------------------------

class CliRunner:
    """Spawns one `sdlo` request at a time and checks its answer."""

    def __init__(self, sdlo, checker):
        self.sdlo = sdlo
        self.checker = checker
        self.errlog = open(os.path.join(OUT, "cli-stderr.log"), "ab")

    def run(self, req):
        """Returns (latency s, answered, rusage, parsed doc or None)."""
        path = os.path.relpath(W.program_path(req["prog"]), ROOT)
        t0 = time.perf_counter()
        p = subprocess.Popen([self.sdlo] + W.cli_args(req, path),
                             stdout=subprocess.PIPE, stderr=self.errlog)
        out = p.stdout.read()
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
        dt = time.perf_counter() - t0
        doc = None
        ok = False
        if p.returncode == 0:
            try:
                doc = json.loads(out)
                ok = self.checker.check(req, doc)
            except (ValueError, KeyError) as e:
                self.checker.fail(f"{req['verb']} {req['prog']}: {e}")
        return dt, ok, ru, doc


def cli_workload(kind, seed, seconds, sdlo, checker):
    runner = CliRunner(sdlo, checker)
    if kind == "predict":
        warm = W.predict_warmup(checker)
        gen = W.predict_requests(seed, checker)
        note = "concurrency 1 (closed loop), misses 3/4 + advise 1/4"
    else:
        warm = W.curve_warmup()
        gen = W.curve_requests("curve", seed)
        note = "concurrency 1 (closed loop), 1 thread, line 4 on 1/4"
    def setup():
        t0 = time.perf_counter()
        for req in warm:
            runner.run(req)
        return time.perf_counter() - t0

    setups = [setup() for _ in range(SETUP_BEFORE)]
    lat, answered, rss, attempted = [], 0, 0, 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        req = next(gen)
        dt, ok, ru, _ = runner.run(req)
        attempted += 1
        answered += ok
        lat.append(dt if ok else float("inf"))
        rss = max(rss, ru.ru_maxrss)
    elapsed = time.perf_counter() - start
    setups += [setup() for _ in range(SETUP_AFTER)]
    log(f"{kind}: {note}; set-up = {len(warm)} warm-up requests, timed "
        + ", ".join(f"{s:.3f}s" for s in setups))
    m = latency_metrics(lat, elapsed, attempted, answered)
    m["setup_s"] = (statistics.median(setups), "s")
    m["peak_rss_mb"] = (rss / 1024.0, "MB")
    return m, attempted, attempted - answered


# ---------------------------------------------------------------------------
# serve-mix.
# ---------------------------------------------------------------------------

LIVE_DAEMONS = set()


@atexit.register
def _reap_daemons():
    for proc in list(LIVE_DAEMONS):
        proc.kill()
        proc.wait()


class Daemon:
    """A live `sdlo serve` on a socket under .bench_out/."""

    def __init__(self, sdlo, tag):
        self.path = os.path.join(OUT, f"sdlo-{os.getpid()}-{tag}.sock")
        if os.path.exists(self.path):
            os.unlink(self.path)
        self.errlog = open(os.path.join(OUT, "serve-stderr.log"), "ab")
        self.proc = subprocess.Popen(
            [sdlo, "serve", "--socket", self.path, "--workers", str(SERVE_WORKERS)],
            stdout=subprocess.DEVNULL, stderr=self.errlog)
        LIVE_DAEMONS.add(self.proc)
        deadline = time.perf_counter() + 30
        while True:
            try:
                self.ctl = Conn(self.path)
                break
            except OSError:
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    self.stop()
                    fail("sdlo serve did not start")
                time.sleep(0.002)
        if json.loads(self.ctl.call({"verb": "ping"}))["status"] != "ok":
            fail("ping not answered")

    def stats(self):
        return json.loads(self.ctl.call({"verb": "stats"}))["payload"]

    def vm_hwm_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        try:
            self.ctl.send({"verb": "shutdown"})
            self.proc.wait(timeout=20)
        except (OSError, AttributeError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        LIVE_DAEMONS.discard(self.proc)
        if os.path.exists(self.path):
            os.unlink(self.path)
        self.errlog.close()


def encode(obj):
    """One protocol request line."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


class Conn:
    """One persistent client connection; one request in flight at a time."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.sock.settimeout(60)
        self.buf = b""

    def send(self, obj):
        self.sock.sendall(encode(obj))

    def read_line(self):
        """Returns one line, or None when the peer closed. Blocking."""
        while b"\n" not in self.buf:
            try:
                chunk = self.sock.recv(1 << 16)
            except socket.timeout:
                fail("sdlo serve sent no reply within 60 s")
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line

    def call(self, obj):
        self.send(obj)
        return self.read_line()

    def close(self):
        self.sock.close()


def read_envelope(line, layer):
    """(envelope, failure kind): the parsed envelope when `line` is exactly
    one ok envelope. A line that is not a whole JSON object (a payload
    spliced in with raw newlines) is a framing failure."""
    try:
        env = json.loads(line)
    except ValueError:
        return None, "framing"
    if not isinstance(env, dict) or env.get("status") != "ok":
        return None, "status"
    layer["queue_ms"].append(env.get("queue_ms", 0.0))
    layer["run_ms"].append(env.get("run_ms", 0.0))
    return env, ""


def payload_correct(env, req, checker):
    """True when the envelope's payload (every sub-payload of a batch)
    matches the oracle."""
    if req["verb"] != "batch":
        return checker.check(req, env.get("payload", {}))
    subs = env.get("responses", [])
    if (not isinstance(subs, list) or len(subs) != len(req["requests"])
            or not all(isinstance(sub, dict) for sub in subs)):
        return checker.fail("batch: malformed responses")
    return all(sub.get("status") == "ok" and checker.check(sreq, sub.get("payload", {}))
               for sub, sreq in zip(subs, req["requests"]))


def serve_session(daemon, seed, checker, seconds=None, count=None):
    """Closed loop over SERVE_CONNECTIONS connections for `seconds`, or
    until each connection sent `count` requests. Payloads are checked
    against the oracle after the loop, so checking never delays a reply
    waiting on the other connection. Returns the session record."""
    sel = selectors.DefaultSelector()
    mixes = [W.ServeMix(seed, c, checker) for c in range(SERVE_CONNECTIONS)]
    conns = {}
    layer = {"queue_ms": [], "run_ms": [], "rtt_ms": []}
    rec = {"lat": [], "attempted": 0, "answered": 0, "framing": 0, "status": 0,
           "value": 0, "reconnects": 0, "layer": layer}
    sent = [0] * SERVE_CONNECTIONS
    to_check = []  # (index into rec["lat"], request, envelope)

    def issue(c):
        req = mixes[c].next()
        line = encode(W.wire(req))
        conn = conns[c]
        conn.req, conn.t0 = req, time.perf_counter()
        conn.sock.sendall(line)
        sent[c] += 1

    def open_conn(c):
        conn = Conn(daemon.path)
        conn.sock.setblocking(False)
        conns[c] = conn
        sel.register(conn.sock, selectors.EVENT_READ, c)

    start = time.perf_counter()

    def more(c):
        if count is not None:
            return sent[c] < count
        return time.perf_counter() - start < seconds

    for c in range(SERVE_CONNECTIONS):
        open_conn(c)
        issue(c)
    inflight = SERVE_CONNECTIONS
    while inflight:
        events = sel.select(timeout=60)
        if not events:
            fail(f"sdlo serve sent no reply within 60 s ({inflight} requests in flight)")
        for key, _ in events:
            c = key.data
            conn = conns[c]
            try:
                chunk = conn.sock.recv(1 << 16)
            except BlockingIOError:
                continue
            conn.buf += chunk
            if b"\n" not in conn.buf and chunk:
                continue
            rtt = time.perf_counter() - conn.t0
            line, _, conn.buf = conn.buf.partition(b"\n")
            env, why = read_envelope(line, layer)
            rec["attempted"] += 1
            if env is not None:
                to_check.append((len(rec["lat"]), conn.req, env))
                rec["lat"].append(rtt)
                layer["rtt_ms"].append(rtt * 1e3)
            else:
                rec[why] += 1
                rec["lat"].append(float("inf"))
            if why == "framing" or conn.buf:
                # Not exactly one envelope line: the stream is out of step.
                sel.unregister(conn.sock)
                conn.close()
                open_conn(c)
                rec["reconnects"] += 1
            if more(c):
                issue(c)
            else:
                inflight -= 1
    rec["elapsed"] = time.perf_counter() - start
    for conn in conns.values():
        sel.unregister(conn.sock)
        conn.close()
    sel.close()
    for i, req, env in to_check:
        if payload_correct(env, req, checker):
            rec["answered"] += 1
        else:
            rec["value"] += 1
            rec["lat"][i] = float("inf")
    return rec


def serve_setup(sdlo, checker, tag):
    """Daemon spawn, first ping answered, then the fixed warm-up set."""
    t0 = time.perf_counter()
    d = Daemon(sdlo, tag)
    warm = W.ServeMix(0, 0, checker, warmup=True).warmup_set()
    conn = Conn(d.path)
    for req in warm:
        env, _ = read_envelope(conn.call(W.wire(req)), {"queue_ms": [], "run_ms": []})
        if env is None or not payload_correct(env, req, checker):
            d.stop()
            fail(f"warm-up request failed: {req['verb']} {req['prog']}")
    conn.close()
    return d, time.perf_counter() - t0, len(warm)


def serve_workload(seed, seconds, sdlo, checker):
    setups = []
    for i in range(SETUP_BEFORE + SETUP_AFTER):
        d, dt, nwarm = serve_setup(sdlo, checker, f"setup{i}")
        setups.append(dt)
        if i == SETUP_BEFORE - 1:
            try:
                rec = serve_session(d, seed, checker, seconds=seconds)
                hwm = d.vm_hwm_mb()
            finally:
                d.stop()
        else:
            d.stop()
    log(f"serve-mix: {SERVE_WORKERS} workers, {SERVE_CONNECTIONS} persistent connections, "
        f"closed loop; set-up = spawn + ping + {nwarm} warm-up requests, timed "
        + ", ".join(f"{s:.3f}s" for s in setups))
    log(f"serve-mix: {rec['attempted']} requests, framing failures {rec['framing']} "
        f"(lint/advise payloads with raw newlines), error statuses {rec['status']}, "
        f"wrong values {rec['value']}, reconnects {rec['reconnects']}")
    m = latency_metrics(rec["lat"], rec["elapsed"], rec["attempted"], rec["answered"])
    m["setup_s"] = (statistics.median(setups), "s")
    m["peak_rss_mb"] = (hwm, "MB")
    # The framing defect is recorded in answered_ratio, not as a failed
    # operation of the benchmark itself.
    return m, rec["attempted"], rec["status"] + rec["value"]


# ---------------------------------------------------------------------------
# Traced per-layer run.
# ---------------------------------------------------------------------------

# In-process job counts per group; the named workload gets the larger share.
TRACE_JOBS = {"curve": 8, "predict": 12, "serve-mix": 160}


def trace_jobs(kind, seed, checker):
    lines = []

    def add(group, verb, req, cap=0):
        path = os.path.relpath(W.program_path(req["prog"]), ROOT)
        lines.append(f"{group} {verb} {path} {req.get('line', 1)} {cap} "
                     f"{W.env_str(req['prog'], req['env'])}")

    for group, n in TRACE_JOBS.items():
        n = n * 2 if group == kind else n
        if group == "curve":
            gen = W.curve_requests("curve", seed)
            for _ in range(n):
                add(group, "sweep", next(gen))
        elif group == "predict":
            gen = W.predict_requests(seed, checker)
            for _ in range(n):
                req = next(gen)
                add(group, req["verb"], req, req["cap"])
        else:
            mix = W.ServeMix(seed, 0, checker)
            while len([x for x in lines if x.startswith(group)]) < n:
                req = mix.next()
                for r in req["requests"] if req["verb"] == "batch" else [req]:
                    verb = "sweep-symbolic" if r.get("engine") == "symbolic" else r["verb"]
                    add(group, verb, r, r.get("cap", 0))
    return lines


def traced_run(kind, seed, seconds, sdlo, bdir, checker):
    metrics = {}
    # tools: sdlo spawn to exit on a trivial input.
    runner = CliRunner(sdlo, checker)
    tiny_env = W.pools("serve")["matmul"][0]
    tiny = {"verb": "misses", "prog": "matmul", "env": tiny_env,
            "cap": checker.ladder("matmul", tiny_env)[0]}
    startup = [runner.run(tiny)[0] for _ in range(21)]
    metrics["tools.startup_ms"] = statistics.median(startup) * 1e3

    # In-process layers: untraced, traced, untraced.
    jobs = trace_jobs(kind, seed, checker)
    attempted = len(startup) + len(jobs)
    jobs_path = os.path.join(OUT, f"jobs-{kind}-{seed}.txt")
    with open(jobs_path, "w") as f:
        f.write("\n".join(jobs) + "\n")
    trace_path = os.path.join(OUT, f"trace-{kind}-{seed}.json")
    r = subprocess.run([os.path.join(bdir, "perfbench_layers"), "--jobs", jobs_path,
                        "--trace-out", trace_path], capture_output=True, text=True, cwd=ROOT)
    if r.returncode != 0:
        fail(f"traced run failed: {r.stderr.strip()}")
    out = r.stdout.strip().splitlines()
    for line in out[:-1]:
        log(line)
    metrics.update(json.loads(out[-1]))
    log(f"trace-event JSON written to {trace_path}")

    # curve-mt: the streamed driver's phases, read from the CLI's JSON.
    if (os.cpu_count() or 1) >= 2:
        gen = W.curve_requests("curve-mt", seed, CURVE_MT_THREADS)
        n = 6
        phases = {"profile_seconds": [], "merge_seconds": [], "merge_wait_seconds": [],
                  "chunks": [], "overlapped_merges": []}
        cpu = wall = 0.0
        for _ in range(n):
            dt, ok, ru, doc = runner.run(next(gen))
            attempted += 1
            if not ok:
                fail("curve-mt request failed in the traced run")
            cpu += ru.ru_utime + ru.ru_stime
            wall += dt
            for k in phases:
                phases[k].append(doc["phases"][k])
        metrics["cachesim.mt_profile_s"] = statistics.median(phases["profile_seconds"])
        metrics["cachesim.mt_merge_s"] = statistics.median(phases["merge_seconds"])
        metrics["cachesim.mt_merge_wait_s"] = statistics.median(phases["merge_wait_seconds"])
        metrics["cachesim.mt_chunks"] = sum(phases["chunks"])
        metrics["cachesim.mt_overlapped_merges"] = sum(phases["overlapped_merges"])
        metrics["parallel.cpu_per_wall"] = cpu / wall
    else:
        log("curve-mt part of the traced run skipped: fewer than 2 cores")

    # serve: two daemons, the same fixed request count; hits must repeat.
    count = 600 if kind == "serve-mix" else 200
    recs, hits = [], []
    for i in range(2):
        d, _, _ = serve_setup(sdlo, checker, f"trace{i}")
        try:
            before = d.stats()
            rec = serve_session(d, seed, checker, count=count)
            after = d.stats()
        finally:
            d.stop()
        recs.append((rec, before, after))
        attempted += rec["attempted"]
        hits.append(after["cache"]["hits"] - before["cache"]["hits"])
    if hits[0] != hits[1]:
        fail(f"serve cache hits did not repeat: {hits}")
    rec, before, after = recs[1]
    log(f"count serve.cache_hits = {hits[1]} (repeated exactly)")
    lay = rec["layer"]
    q50 = statistics.median(lay["queue_ms"])
    r50 = statistics.median(lay["run_ms"])
    transport = [rtt - q - r for rtt, q, r in zip(lay["rtt_ms"], lay["queue_ms"], lay["run_ms"])]
    lookups = (after["cache"]["hits"] + after["cache"]["misses"]
               - before["cache"]["hits"] - before["cache"]["misses"])
    received = after["requests"]["received"] - before["requests"]["received"]
    shed = after["requests"]["shed"] - before["requests"]["shed"]
    metrics["serve.queue_ms"] = q50
    metrics["serve.run_ms"] = r50
    metrics["serve.transport_ms"] = statistics.median(transport) if transport else 0.0
    metrics["serve.cache_hit_ratio"] = hits[1] / lookups if lookups else 0.0
    metrics["serve.shed_ratio"] = shed / received if received else 0.0
    metrics["serve.reconnects"] = rec["reconnects"]

    out = {}
    for name, unit, moves, on in LAYER_TAGS:
        v = metrics[name]
        log(f"{name} = {v:.6g} {unit}  -> {moves} on {on}")
        out[name] = (v, unit)
    return out, attempted


# ---------------------------------------------------------------------------
# Reference answers and steadiness mode.
# ---------------------------------------------------------------------------

def advise_sets(sdlo, ref, procs):
    """Adds to each advise config's reference entry the sorted candidate
    keys `sdlo advise` returns at every ladder capacity: `advice_sets` holds
    the distinct sets, `advice_at[i]` the index of the set at caps[i]. A
    response must list exactly that set, so a shortened list fails."""
    tasks = [(name, e, cap) for name, pool in W.pools("advise").items() for e in pool
             for cap in ref[W.config_key(name, e)]["caps"]]

    def one(task):
        name, e, cap = task
        req = {"verb": "advise", "prog": name, "env": e, "cap": cap}
        path = os.path.relpath(W.program_path(name), ROOT)
        r = subprocess.run([sdlo] + W.cli_args(req, path), capture_output=True, text=True)
        if r.returncode != 0:
            return None
        return sorted(W.candidate_suffix(a) for a in json.loads(r.stdout)["advice"])

    with concurrent.futures.ThreadPoolExecutor(procs) as ex:
        got = list(ex.map(one, tasks))
    for (name, e, cap), keys in zip(tasks, got):
        if keys is None:
            fail(f"sdlo advise failed on {W.config_key(name, e)} cap {cap}")
        missing = [k for k in keys if f"{name}|{W.env_str(name, e)}|{k}" not in ref]
        if missing:
            fail(f"no oracle answer for advise candidates {missing} of {name}")
        entry = ref[W.config_key(name, e)]
        sets = entry.setdefault("advice_sets", [])
        if keys not in sets:
            sets.append(keys)
        entry.setdefault("advice_at", []).append(sets.index(keys))


def make_reference():
    sdlo, bdir = build(["perfbench_oracle", "sdlo_cli"])
    jobs = W.oracle_jobs(os.path.join(OUT, "advise-programs"))
    procs = max(1, min(3, (os.cpu_count() or 1) - 1))
    chunks = [jobs[i::procs] for i in range(procs)]
    running = []
    for i, chunk in enumerate(chunks):
        p = subprocess.Popen([os.path.join(bdir, "perfbench_oracle")], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True, cwd=ROOT)
        running.append(p)
        p.stdin.write("".join(f"{k.replace(' ', '_')} {path} {line} {env}\n"
                              for k, path, line, env in chunk))
        p.stdin.close()
    by_token = {k.replace(" ", "_"): k for k, _, _, _ in jobs}
    ref = {}
    for p in running:
        for line in p.stdout:
            tok, space, *pairs = line.split()
            caps, misses = zip(*(map(int, x.split(":")) for x in pairs))
            ref[by_token[tok]] = {"space": int(space), "caps": list(caps), "misses": list(misses)}
        if p.wait() != 0:
            fail("oracle failed")
    advise_sets(sdlo, ref, procs)
    with open(W.REFERENCE, "w") as f:
        json.dump(dict(sorted(ref.items())), f, separators=(",", ":"))
        f.write("\n")
    log(f"wrote {len(ref)} reference answers to {os.path.relpath(W.REFERENCE, ROOT)}")


def steady(k, names, seconds, seed0):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = names or [w["name"] for w in bench["workloads"]]
    sdlo, _ = build(["sdlo_cli", "perfbench_layers"])
    host = host_record(sdlo)
    log(f"host: {json.dumps(host)}")
    results = {}
    for name in names:
        runs = []
        for i in range(k):
            r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                                "--seed", str(seed0 + i), "--seconds", str(seconds),
                                "--trace", "0"], capture_output=True, text=True, cwd=ROOT)
            if r.returncode != 0:
                fail(f"{name} seed {seed0 + i} failed:\n{r.stdout}{r.stderr}")
            runs.append(json.loads(r.stdout.strip().splitlines()[-1]))
        results[name] = runs
        log(f"{name}: {k} runs, seeds {seed0}..{seed0 + k - 1}")
        for metric, bound in bounds.items():
            vals = [run["metrics"][metric]["value"] for run in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            verdict = "fits" if spread <= bound else "EXCEEDS"
            if spread <= bound / 3:
                verdict += " (below a third)"
            log(f"  {metric:16s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                f"spread {spread:.3f} bound {bound} {verdict}")
    path = os.path.join(OUT, f"steady-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump({"host": host, "seconds": seconds, "results": results}, f, indent=1)
    log(f"results written to {path}")


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, metavar="K", help="run each workload K times")
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    # Compilers and children keep their temporary files inside the checkout.
    os.environ["TMPDIR"] = os.path.abspath(os.path.join(OUT, "tmp"))
    if args.make_reference:
        make_reference()
        return
    if args.steady:
        steady(args.steady, args.workload, args.seconds, args.seed)
        return
    if not args.workload or len(args.workload) != 1:
        fail("give exactly one --workload")
    kind = args.workload[0]
    if not os.path.exists(W.REFERENCE):
        fail("reference.json is missing")
    sdlo, bdir = build(["sdlo_cli", "perfbench_layers"])
    host = host_record(sdlo)
    log(f"host: {json.dumps(host)}")
    log(f"workload {kind}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    checker = W.Checker(W.load_reference())
    if args.trace:
        # Any failure in the traced run aborts it; the framing defect is
        # counted in serve.reconnects.
        metrics, attempted = traced_run(kind, args.seed, args.seconds, sdlo, bdir, checker)
        failed = 0
    elif kind == "serve-mix":
        metrics, attempted, failed = serve_workload(args.seed, args.seconds, sdlo, checker)
    else:
        metrics, attempted, failed = cli_workload(kind, args.seed, args.seconds, sdlo, checker)
    if not args.trace:
        for name, (v, unit) in metrics.items():
            log(f"{name} = {v:.6g} {unit}")
    correct = not checker.mismatches
    for m in checker.mismatches[:20]:
        log(f"ORACLE MISMATCH: {m}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}),
          flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
