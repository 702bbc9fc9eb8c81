"""The ``serve`` workload: ``selfstab serve`` with its default
``--threads``, a fresh ``--journal``, and one generator process whose
clients open a fresh TCP connection per HTTP request, as curl does.

Two timed phases: an open loop at a fixed 20 ops/s (latency from each
op's due time) and a closed loop of ``nproc`` clients, back to back.
"""

import hashlib
import json
import os
import queue
import random
import re
import signal
import socket
import statistics
import subprocess
import threading
import time

import common

CLASSES = ("healthz", "verify_cached", "verify_cold", "synth_cached")
# One deck of 20 ops holds the 25/50/15/10 mix exactly; ops are dealt
# from seeded shuffled decks, so every stretch of 20 ops has the mix.
DECK = ("healthz",) * 5 + ("verify_cached",) * 10 + ("verify_cold",) * 3 + ("synth_cached",) * 2
OPEN_RATE = 20.0
# The open loop's share of the run; the closed loop gets the rest. At a
# 30 s run the open loop holds 200 ops: 10 decks, and two complete
# cycles of the 15 cold keys. Its tail (the 11th largest, p95) then sits
# on the edge of the two-accept-sleep latency body; with 400 ops it sat
# at p97.5, where the count of stalled ops beyond the edge decided it.
OPEN_SHARE = 1 / 3
RESULT_WAIT_MS = 2000
OP_DEADLINE_S = 30.0
CACHED_VERIFY = (
    ("sum_not_two", 6),
    ("agreement", 8),
    ("three_coloring", 6),
    ("mis", 7),
    ("flip_token", 6),
    ("matching_generalizable", 6),
    ("sum_not_two_empty", 5),
    ("agreement_both", 6),
)
# Cold misses change only knobs that change the result key: K and
# max_states. The specs have d=3, so a cold job has at most 3^10 states;
# the balanced key cycles put the same K=10 jobs, the heaviest ops, in
# every run.
COLD_SPECS = ("sum_not_two", "three_coloring", "matching_non_generalizable")
COLD_K = (6, 7, 8, 9, 10)
COLD_MAX_STATES = 50_000_000
CACHED_SYNTH = ("agreement_empty", "sum_not_two_empty", "mis", "three_coloring")
SERVER_STARTS = 41


def load_specs():
    names = {s for s, _ in CACHED_VERIFY} | set(COLD_SPECS) | set(CACHED_SYNTH)
    specs = {}
    for name in names:
        with open(os.path.join("specs", f"{name}.stab"), encoding="utf-8") as fh:
            specs[name] = fh.read()
    return specs


# ------------------------------------------------------------ the generator


def op_stream(seed, stream):
    """An endless, seeded sequence of ops ``(class, job)``; ``job`` is
    ``None`` for healthz, else ``(kind, spec, k, max_states)``. Classes
    come from shuffled decks and each class's keys from shuffled cycles
    over its pool, so every input carries equal weight (balanced passes).
    Each stream draws its cold keys from its own ``max_states`` range."""
    rng = random.Random(f"{seed}:ops:{stream}")
    pools = {
        "verify_cached": [("verify", s, k) for s, k in CACHED_VERIFY],
        "verify_cold": [("verify", s, k) for s in COLD_SPECS for k in COLD_K],
        "synth_cached": [("synthesize", s, None) for s in CACHED_SYNTH],
    }
    cycles = {cls: [] for cls in pools}
    i = 0
    while True:
        deck = list(DECK)
        rng.shuffle(deck)
        for cls in deck:
            job = None
            if cls != "healthz":
                if not cycles[cls]:
                    cycles[cls] = list(pools[cls])
                    rng.shuffle(cycles[cls])
                kind, spec, k = cycles[cls].pop()
                fresh = COLD_MAX_STATES + stream * 1_000_000 + i if cls == "verify_cold" else None
                job = (kind, spec, k, fresh)
            yield cls, job
            i += 1


def schedule(seed, rate, seconds, stream=0):
    """Open-loop arrivals: op ``i`` is due at ``(i + u_i) / rate`` with
    ``u_i`` uniform in [0, 1), so arrivals cannot phase-lock with a
    periodic server loop. A pure function of seed, rate and length."""
    rng = random.Random(f"{seed}:schedule:{rate}:{stream}")
    ops = op_stream(seed, stream)
    return [((i + rng.random()) / rate, next(ops)) for i in range(int(seconds * rate))]


def job_body(job, specs):
    kind, spec, k, max_states = job
    body = {"kind": kind, "spec": specs[spec]}
    if k is not None:
        body["k"] = k
    if max_states is not None:
        body["max_states"] = max_states
    return json.dumps(body).encode()


def result_key(job):
    """Jobs whose result bytes must agree: ``max_states`` never changes
    them."""
    kind, spec, k, _ = job
    return kind, spec, k


# ------------------------------------------------------------------- HTTP


def parse_response(raw):
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        raise OSError("truncated HTTP response")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", len(body)))
    if len(body) < length:
        raise OSError("short HTTP body")
    return status, headers, body[:length]


def request(port, method, path, body=None, stamps=None):
    """One request on a fresh connection. With ``stamps``, appends
    ``(connect_s, ttfb_s, total_s)``; TTFB runs from the end of the send
    to the first response byte."""
    t0 = time.perf_counter()
    with socket.create_connection(("127.0.0.1", port), timeout=OP_DEADLINE_S) as sock:
        t1 = time.perf_counter()
        head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n"
        if body is not None:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        sock.sendall(head.encode() + b"\r\n" + (body or b""))
        t2 = time.perf_counter()
        chunks = [sock.recv(65536)]
        t3 = time.perf_counter()
        while chunks[-1]:
            chunks.append(sock.recv(65536))
    t4 = time.perf_counter()
    if stamps is not None:
        stamps.append((t1 - t0, t3 - t2, t4 - t0))
    return parse_response(b"".join(chunks))


class Op:
    """The outcome of one op: ``ok``, the number of HTTP requests, and for
    a job the answer to check later."""

    __slots__ = ("cls", "ok", "requests", "shed", "key", "digest", "exit_code", "stamps")

    def __init__(self, cls):
        self.cls = cls
        self.ok = False
        self.requests = 0
        self.shed = 0
        self.key = None
        self.digest = None
        self.exit_code = None
        self.stamps = None


def run_op(port, op, specs, traced=False):
    cls, job = op
    out = Op(cls)
    stamps = [] if traced else None
    out.stamps = stamps
    try:
        if job is None:
            out.requests = 1
            status, _, _ = request(port, "GET", "/v1/healthz", stamps=stamps)
            out.ok = status == 200
            return out
        out.requests = 1
        status, _, body = request(port, "POST", "/v1/jobs", job_body(job, specs), stamps)
        if status == 429:
            out.shed = 1
        if status not in (200, 202):
            return out
        job_id = json.loads(body)["id"]
        deadline = time.perf_counter() + OP_DEADLINE_S
        path = f"/v1/jobs/{job_id}/result?wait_ms={RESULT_WAIT_MS}"
        while time.perf_counter() < deadline:
            out.requests += 1
            status, headers, body = request(port, "GET", path, stamps=stamps)
            if status == 202:
                continue
            if status == 200:
                out.ok = True
                out.key = result_key(job)
                out.digest = hashlib.sha256(body).digest()
                out.exit_code = headers.get("x-selfstab-exit-code")
            return out
    except (OSError, ValueError, KeyError):
        out.ok = False
    return out


# ------------------------------------------------------------------ server


class Server:
    """``selfstab serve --port 0 --journal <fresh>``, otherwise default
    flags. ``setup_s`` runs from spawn to the ``listening on`` line."""

    def __init__(self, binary, rundir, tag):
        journal = os.path.join(rundir, f"journal-{tag}.jsonl")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "serve", "--port", "0", "--journal", journal],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        line = self.proc.stdout.readline().decode(errors="replace")
        self.setup_s = time.perf_counter() - start
        match = re.search(r"listening on http://[^\s:]+:(\d+)", line)
        if not match:
            self.stop()
            raise common.BenchError(f"server did not announce its address: {line!r}")
        self.port = int(match.group(1))

    def wait_ready(self, timeout=20.0):
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            try:
                if request(self.port, "GET", "/v1/readyz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise common.BenchError("server never became ready")

    def cpu_s(self):
        """User+sys CPU of every server thread, live or exited, in ns
        resolution: the process CPU-time clock (``CPUCLOCK_SCHED`` of the
        pid), where ``/proc/<pid>/stat`` would give 10 ms ticks."""
        return time.clock_gettime(((~self.proc.pid) << 3) | 2)

    def hwm_mb(self):
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise common.BenchError("no VmHWM in /proc status")

    def get(self, path):
        status, _, body = request(self.port, "GET", path)
        if status != 200:
            raise common.BenchError(f"GET {path} returned {status}")
        return body

    def stop(self):
        """Graceful drain (SIGTERM); waits for exit, kills after 20 s."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def setup_samples(binary, rundir, count, tag):
    out = []
    for i in range(count):
        server = Server(binary, rundir, f"{tag}{i}")
        out.append(server.setup_s)
        server.stop()
    return out


def warm(server, specs):
    """Untimed: fills the cache with every cached-class key."""
    jobs = [("verify", s, k, None) for s, k in CACHED_VERIFY]
    jobs += [("synthesize", s, None, None) for s in CACHED_SYNTH]
    for job in jobs:
        cls = "verify_cached" if job[0] == "verify" else "synth_cached"
        if not run_op(server.port, (cls, job), specs).ok:
            raise common.BenchError(f"warm-up op failed: {job[:3]}")


# ------------------------------------------------------------------- loops


def open_loop(port, specs, sched, clients, traced=False):
    """Runs the schedule with ``clients`` worker threads. Returns a list of
    ``(op, latency_s, lag_s)``: latency from the due time to the last byte
    of the op's final response, lag from due time to start."""
    work = queue.Queue()
    done = []
    lock = threading.Lock()

    def worker():
        while True:
            item = work.get()
            if item is None:
                return
            due, op = item
            start = time.perf_counter()
            result = run_op(port, op, specs, traced)
            end = time.perf_counter()
            with lock:
                done.append((result, end - due, start - due))

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(clients)]
    for t in threads:
        t.start()
    origin = time.perf_counter() + 0.05
    for offset, op in sched:
        delay = origin + offset - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        work.put((origin + offset, op))
    for _ in threads:
        work.put(None)
    for t in threads:
        t.join()
    return done


def closed_loop(port, specs, seed, clients, seconds, traced=False):
    """``clients`` back-to-back clients. Returns (ops, completed in time)."""
    deadline = time.perf_counter() + seconds
    done = []
    counted = [0] * clients
    lock = threading.Lock()

    def client(i):
        ops = op_stream(seed, 1 + i)
        while time.perf_counter() < deadline:
            result = run_op(port, next(ops), specs, traced)
            if result.ok and time.perf_counter() <= deadline:
                counted[i] += 1
            with lock:
                done.append(result)

    threads = [threading.Thread(target=client, args=(i,), daemon=True) for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return done, sum(counted)


# ----------------------------------------------------------- answer check


def cli_answer(binary, key):
    """The CLI's ``--json`` bytes and exit code for a job key."""
    kind, spec, k = key
    path = os.path.join("specs", f"{spec}.stab")
    if kind == "verify":
        argv = [binary, "check", path, "--k", str(k), "--json"]
    else:
        argv = [binary, "synthesize", path, "--json"]
    s = common.run_timed(argv, ".")
    return s.stdout, s.code


def check_answers(ops, answer):
    """Every result body must equal the CLI ``--json`` bytes for the same
    job, and the exit-code header the CLI's exit code; ``answer(key)``
    gives those. Returns (failed, reasons)."""
    expected = {}
    failed = 0
    reasons = set()
    for op in ops:
        if op.key is None:
            continue
        if op.key not in expected:
            body, code = answer(op.key)
            expected[op.key] = (hashlib.sha256(body).digest(), str(code))
        digest, code = expected[op.key]
        if op.digest != digest:
            failed += 1
            reasons.add(f"{op.key}: result body differs from the CLI's")
        elif op.exit_code != code:
            failed += 1
            reasons.add(f"{op.key}: exit-code header {op.exit_code}, CLI exits {code}")
    return failed, sorted(reasons)


# --------------------------------------------------------------- workload


def run(binary, rundir, seed, seconds, clients):
    specs = load_specs()
    setup = setup_samples(binary, rundir, SERVER_STARTS // 2 + 1, "pre")
    server = Server(binary, rundir, "main")
    try:
        server.wait_ready()
        warm(server, specs)
        open_s = seconds * OPEN_SHARE
        sched = schedule(seed, OPEN_RATE, open_s)
        cpu0 = server.cpu_s()
        opened = open_loop(server.port, specs, sched, clients)
        cpu1 = server.cpu_s()
        closed, completed = closed_loop(server.port, specs, seed, clients, seconds - open_s)
        cpu2 = server.cpu_s()
        hwm = server.hwm_mb()
    finally:
        server.stop()
    setup += setup_samples(binary, rundir, SERVER_STARTS - len(setup), "post")

    all_ops = [op for op, _, _ in opened] + closed
    wrong, reasons = check_answers(all_ops, lambda key: cli_answer(binary, key))
    failed = sum(1 for op in all_ops if not op.ok) + wrong
    lat_ms = [lat * 1000.0 for op, lat, _ in opened if op.ok]
    lag_ms = [lag * 1000.0 for _, _, lag in opened]
    ok_open = len(lat_ms)
    if ok_open == 0 or completed == 0:
        raise common.BenchError("no serve op completed")
    # Server CPU per op spans both timed phases: host contention shifts
    # CPU time per op for seconds at a time, and the open loop's third of
    # the run is too short to average it out. A spinning or extra thread
    # still shows: it burns CPU whether or not a request is in flight.
    ok_all = ok_open + sum(1 for op in closed if op.ok)
    tail_ms, tail_pct, n = common.tail(lat_ms)
    by_class = {c: [] for c in CLASSES}
    for op, lat, _ in opened:
        if op.ok:
            by_class[op.cls].append(lat)
    metrics = {
        "p50_ms": common.metric(statistics.median(lat_ms), "ms"),
        "tail_ms": common.metric(tail_ms, "ms"),
        "ops_per_s": common.metric(completed / (seconds - open_s), "1/s"),
        "cpu_ms_per_op": common.metric(1000.0 * (cpu2 - cpu0) / ok_all, "ms"),
        "peak_rss_mb": common.metric(hwm, "MiB"),
        "setup_s": common.metric(statistics.median(setup), "s"),
    }
    return {
        "metrics": metrics,
        "attempted": len(all_ops),
        "failed": failed,
        "inconclusive": 0,
        "reasons": reasons,
        "inputs": common.input_rows(by_class, scale=1000.0),
        "facts": {
            "open_ops": len(opened),
            "open_rate": OPEN_RATE,
            "closed_clients": clients,
            "closed_ops": len(closed),
            "tail_percentile": tail_pct,
            "n": n,
            "lag_tail_ms": common.tail(lag_ms)[0],
            "open_cpu_ms_per_op": 1000.0 * (cpu1 - cpu0) / ok_open,
            "setup_samples": len(setup),
        },
    }
