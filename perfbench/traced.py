"""The traced run (``--trace 1``): per-layer metrics, the accounting of
CLI wall time against the layer calls it makes, and the tracing
overhead.

CLI layers are timed in-process by the ``perfbench-harness`` binary,
which calls each crate's public functions in the order the CLI makes
them. Serve layers come from client socket timestamps and from the
server's own ``/v1/metrics?format=prometheus`` and ``/v1/cache/stats``,
scraped before and after each phase. Every traced run prints every
per-layer metric; only ``telemetry.trace_overhead`` depends on the
workload named. The traced run does a fixed amount of work, so
``--seconds`` does not apply to it.
"""

import glob
import json
import os
import random
import re
import statistics
import subprocess

import cliload
import common
import serveload

REPS = 5
SWEEP_REPS = 3
SPEEDUP_SPEC = os.path.join("specs", "sum_not_two.stab")
K14_SPEC = os.path.join("specs", "sum_not_two.stab")
SERVE_OPEN_S = 8.0
SERVE_CLOSED_S = 3.0
SERVE_OVERHEAD_S = 5.0
FLOOR_REQUESTS = 30


# ------------------------------------------------------------- prometheus

_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{([^}]*)\})?\s+(\S+)$")
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text):
    """Prometheus text exposition -> {(name, ((label, value), ...)): value}."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line.strip())
        if match:
            labels = tuple(sorted(_LABEL.findall(match.group(2) or "")))
            samples[(match.group(1), labels)] = float(match.group(3))
    return samples


def histogram(samples, family, **where):
    """Sums a log2-bucket histogram family over the label sets matching
    ``where``: ``{"sum", "count", "buckets": [(le, cumulative), ...]}``
    with ``le`` as a float (``+Inf`` -> ``inf``)."""
    total = count = 0.0
    buckets = {}
    for (name, labels), value in samples.items():
        d = dict(labels)
        if any(d.get(k) != v for k, v in where.items()):
            continue
        if name == family + "_sum":
            total += value
        elif name == family + "_count":
            count += value
        elif name == family + "_bucket":
            le = float(d["le"])
            buckets[le] = buckets.get(le, 0.0) + value
    return {"sum": total, "count": count, "buckets": sorted(buckets.items())}


def mean_delta(before, after, family, **where):
    """Mean of the observations a histogram gained between two scrapes."""
    b = histogram(before, family, **where)
    a = histogram(after, family, **where)
    n = a["count"] - b["count"]
    return (a["sum"] - b["sum"]) / n if n > 0 else 0.0


# ------------------------------------------------------------------ helpers


def harness_rows(harness, *args):
    proc = subprocess.run([harness, *map(str, args)], capture_output=True, text=True)
    if proc.returncode != 0:
        raise common.BenchError(f"harness {' '.join(map(str, args))}: {proc.stderr.strip()}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def medians(rows):
    """Field-wise median of numeric fields; booleans are kept from the
    first row (they are deterministic)."""
    out = {}
    for key, value in rows[0].items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            out[key] = value
        else:
            out[key] = statistics.median(r[key] for r in rows)
    return out


def total(layers, field):
    return sum(row[field] for row in layers.values())


def spread(values):
    q1, q2, q3 = common.quartiles(values)
    return f"median {q2:.3f} [q1 {q1:.3f}, q3 {q3:.3f}] n={len(values)}"


# ----------------------------------------------------------------- the CLI


def cli_walls(binary, inputs, seed):
    """Median untraced CLI wall time per input, in shuffled passes."""
    rng = random.Random(f"{seed}:cli-walls")
    walls = {name: [] for name in inputs}
    names = list(inputs)
    for _ in range(REPS):
        rng.shuffle(names)
        for name in names:
            walls[name].append(common.run_timed([binary] + inputs[name], ".").wall_s * 1e6)
    return {name: statistics.median(v) for name, v in walls.items()}


def verify_layers(harness, rundir):
    checks = {
        spec: medians(
            harness_rows(harness, "verify", f"specs/{spec}.stab", cliload.CHECK_K, "auto", REPS, "traced")
        )
        for spec in cliload.CHECK_SPECS
    }
    manifest = cliload.prepare_sweep(rundir)
    sweeps = harness_rows(harness, "sweep", manifest, os.path.join(rundir, "journal.jsonl"), SWEEP_REPS)
    on = medians([r for r in sweeps if r["journal"]])
    off = medians([r for r in sweeps if not r["journal"]])
    specs = sorted(glob.glob(os.path.join("specs", "*.stab")))
    local = {}
    for row in harness_rows(harness, "local", REPS, *specs):
        local.setdefault(row["spec"], []).append(row["deadlock_us"] + row["livelock_us"])
    return checks, on, off, sum(statistics.median(v) for v in local.values())


def synth_layers(harness):
    return {
        name: medians(harness_rows(harness, "synth", path, REPS, "traced"))
        for name, path in cliload.SYNTH_SPECS.items()
    }


def overhead(harness, workload, checks, synths):
    """Traced ÷ plain harness time over the workload's inputs (the sweep
    is left out: its telemetry is the campaign's own)."""
    if workload == "verify":
        plain = sum(
            statistics.median(
                r["total_us"]
                for r in harness_rows(
                    harness, "verify", f"specs/{spec}.stab", cliload.CHECK_K, "auto", REPS, "plain"
                )
            )
            for spec in cliload.CHECK_SPECS
        )
        return total(checks, "total_us") / plain
    plain = sum(
        statistics.median(r["total_us"] for r in harness_rows(harness, "synth", path, REPS, "plain"))
        for path in cliload.SYNTH_SPECS.values()
    )
    return total(synths, "total_us") / plain


def livelock_shares(harness):
    """The livelock DFS's share of scan + DFS per check input at K=13,
    in the CLI's default (auto) mode and in full mode, and at K=14 for one
    spec in both modes (one extra invocation each)."""
    lines = []
    for spec in cliload.CHECK_SPECS:
        parts = []
        for mode in ("auto", "full"):
            row = harness_rows(harness, "verify", f"specs/{spec}.stab", cliload.CHECK_K, mode, 1, "traced")[0]
            share = row["livelock_us"] / max(1, row["scan_us"] + row["livelock_us"])
            parts.append(f"{mode} {100 * share:.1f}% of {(row['scan_us'] + row['livelock_us']) / 1e3:.1f} ms")
        lines.append(f"livelock DFS share, {spec} K=13: " + "; ".join(parts))
    parts = []
    for mode in ("reduced", "full"):
        row = harness_rows(harness, "verify", K14_SPEC, 14, mode, 1, "traced")[0]
        share = row["livelock_us"] / max(1, row["scan_us"] + row["livelock_us"])
        parts.append(f"{mode} {100 * share:.1f}% (wall {row['total_us'] / 1e6:.2f} s)")
    lines.append("livelock DFS share, sum_not_two K=14: " + "; ".join(parts))
    return lines


def sum_not_four(binary):
    s = common.run_timed([binary, "synthesize", cliload.SUM_NOT_FOUR, "--json"], ".")
    status, reason = cliload.classify_synth({"success": True}, s.code, s.stdout, lambda _: True)
    doc = json.loads(s.stdout)
    false_failure = status == "failed" and reason.startswith("false failure")
    line = (
        f"sum-not-four synthesize: exit {s.code}, success={doc.get('success')}, "
        f"truncated={doc.get('truncated')}, resolve_sets_examined="
        f"{doc.get('counters', {}).get('resolve_sets_examined')} -> "
        f"{'FALSE FAILURE' if false_failure else status}"
    )
    return int(false_failure), line


# -------------------------------------------------------------------- serve


def serve_layers(binary, rundir, seed, clients, want_overhead):
    specs = serveload.load_specs()
    server = serveload.Server(binary, rundir, "traced")
    try:
        server.wait_ready()
        serveload.warm(server, specs)
        floor = []
        for _ in range(FLOOR_REQUESTS):
            stamps = []
            serveload.request(server.port, "GET", "/v1/healthz", stamps=stamps)
            floor.append(stamps[0][2] * 1e3)
        scrape = lambda: (  # noqa: E731
            parse_prometheus(server.get("/v1/metrics?format=prometheus").decode()),
            json.loads(server.get("/v1/cache/stats")),
        )
        prom0, cache0 = scrape()
        sched = serveload.schedule(seed, serveload.OPEN_RATE, SERVE_OPEN_S, stream=7)
        opened = serveload.open_loop(server.port, specs, sched, clients, traced=True)
        prom1, cache1 = scrape()
        closed, _ = serveload.closed_loop(server.port, specs, seed, clients, SERVE_CLOSED_S, traced=True)
        prom2, cache2 = scrape()
        ratio = None
        if want_overhead:
            sched = serveload.schedule(seed, serveload.OPEN_RATE, SERVE_OVERHEAD_S, stream=8)
            plain = serveload.open_loop(server.port, specs, sched, clients)
            sched = serveload.schedule(seed, serveload.OPEN_RATE, SERVE_OVERHEAD_S, stream=9)
            traced = serveload.open_loop(server.port, specs, sched, clients, traced=True)
            ratio = statistics.median(lat for op, lat, _ in traced if op.ok) / statistics.median(
                lat for op, lat, _ in plain if op.ok
            )
    finally:
        server.stop()

    # Per-class socket timings come from the 20 ops/s open loop, the phase
    # `p50_ms` is measured on; the closed loop feeds the scrape deltas.
    open_ops = [op for op, _, _ in opened]
    ops = open_ops + closed
    m = {}
    for cls in serveload.CLASSES:
        mine = [op for op in open_ops if op.cls == cls]
        stamps = [s for op in mine for s in op.stamps]
        connect = [s[0] * 1e6 for s in stamps] or [0.0]
        ttfb = [s[1] * 1e6 for s in stamps] or [0.0]
        m[f"serve.connect_us.{cls}"] = common.metric(statistics.median(connect), "us")
        m[f"serve.ttfb_us.{cls}"] = common.metric(statistics.median(ttfb), "us")
        m[f"serve.requests_per_op.{cls}"] = common.metric(
            sum(op.requests for op in mine) / max(1, len(mine)), "count"
        )
    client_healthz = m["serve.ttfb_us.healthz"]["value"]
    server_healthz = mean_delta(prom0, prom1, "selfstab_serve_ttfb_us", endpoint="healthz")
    m["serve.client_server_gap_us"] = common.metric(client_healthz - server_healthz, "us")
    m["serve.queue_wait_us"] = common.metric(mean_delta(prom0, prom2, "selfstab_serve_queue_wait_us"), "us")
    m["serve.exec_us"] = common.metric(mean_delta(prom0, prom2, "selfstab_serve_exec_us"), "us")
    m["serve.journal_append_us"] = common.metric(
        mean_delta(prom0, prom2, "selfstab_serve_journal_append_us"), "us"
    )
    hits = cache2["hits"] - cache0["hits"]
    misses = cache2["misses"] - cache0["misses"]
    m["serve.cache_hit_ratio"] = common.metric(hits / max(1, hits + misses), "ratio")
    m["serve.shed"] = common.metric(sum(op.shed for op in ops), "count")
    m["loadgen.lag_tail_ms"] = common.metric(common.tail([lag * 1e3 for _, _, lag in opened])[0], "ms")
    failed = sum(1 for op in ops if not op.ok)
    wrong, reasons = serveload.check_answers(ops, lambda key: serveload.cli_answer(binary, key))
    lines = [
        f"serve fresh-connection floor: {FLOOR_REQUESTS} sequential healthz, {spread(floor)} ms",
        f"serve healthz TTFB: client p50 {client_healthz:.0f} us vs server mean "
        f"{server_healthz:.1f} us (gap {client_healthz - server_healthz:.0f} us)",
    ]
    return m, ratio, len(ops), failed + wrong, reasons, lines


# ---------------------------------------------------------------- the run


def run(workload, binary, harness, rundir, seed, clients):
    acc = []
    m = {}

    checks, sweep_on, sweep_off, local_us = verify_layers(harness, rundir)
    synths = synth_layers(harness)
    verify_inputs = cliload.verify_inputs(rundir)
    synth_inputs = cliload.synth_inputs()
    walls = cli_walls(binary, {**verify_inputs, **synth_inputs}, seed)

    m["protocol.parse_us"] = common.metric(total(checks, "parse_us") + total(synths, "parse_us"), "us")
    m["global.instantiate_us"] = common.metric(total(checks, "instantiate_us"), "us")
    m["global.scan_us"] = common.metric(total(checks, "scan_us"), "us")
    m["global.states_visited"] = common.metric(total(checks, "states_visited"), "count")
    m["global.orbits_visited"] = common.metric(total(checks, "orbits_visited"), "count")
    m["global.livelock_us"] = common.metric(total(checks, "livelock_us"), "us")
    m["global.dfs_steps"] = common.metric(total(checks, "dfs_steps"), "count")
    dfs = total(checks, "livelock_us")
    m["global.livelock_share"] = common.metric(dfs / max(1, dfs + total(checks, "scan_us")), "ratio")
    speedups = [
        r["one_us"] / r["many_us"]
        for r in harness_rows(harness, "scan-speedup", SPEEDUP_SPEC, cliload.CHECK_K, clients, REPS)
    ]
    m["global.scan_par_speedup"] = common.metric(statistics.median(speedups), "x")
    acc.append(f"full-mode scan speed-up at {clients} threads (sum_not_two K=13): {spread(speedups)}")
    m["core.local_analysis_us"] = common.metric(local_us, "us")
    m["campaign.sweep_us"] = common.metric(sweep_on["sweep_us"], "us")
    m["campaign.job_p50_us"] = common.metric(sweep_on["job_p50_us"], "us")
    m["campaign.journal_bytes"] = common.metric(sweep_on["journal_bytes"], "bytes")
    m["campaign.journal_overhead"] = common.metric(sweep_on["sweep_us"] / sweep_off["sweep_us"], "ratio")
    m["core.rcg_us"] = common.metric(total(synths, "rcg_us"), "us")
    m["core.deadlock_us"] = common.metric(total(synths, "deadlock_us"), "us")
    m["core.witnesses_truncated"] = common.metric(
        sum(1 for r in synths.values() if r["witnesses_truncated"]), "count"
    )
    m["synth.resolve_sets_us"] = common.metric(total(synths, "resolve_sets_us"), "us")
    m["synth.resolve_sets"] = common.metric(total(synths, "resolve_sets"), "count")
    loops = {
        name: max(0.0, r["synthesize_us"] - r["rcg_us"] - r["resolve_sets_us"]) for name, r in synths.items()
    }
    m["synth.candidate_loop_us"] = common.metric(sum(loops.values()), "us")
    for field in ("combinations_tried", "rejected_by_trail", "cones_cut", "candidates_skipped"):
        m[f"synth.{field}"] = common.metric(total(synths, field), "count")
    m["synth.useful_ratio"] = common.metric(
        total(synths, "solutions_found") / max(1, total(synths, "combinations_tried")), "ratio"
    )
    false_failures, line = sum_not_four(binary)
    m["synth.false_failures"] = common.metric(false_failures, "count")

    # Accounting: CLI wall time beside the layer calls it makes.
    acc.append("accounting (us): input  cli_wall = layers + remainder  [layers]")
    remainders = []
    for spec, r in checks.items():
        wall = walls[f"check:{spec}"]
        layers = r["parse_us"] + r["instantiate_us"] + r["scan_us"] + r["livelock_us"]
        remainders.append(wall - layers)
        acc.append(
            f"  check:{spec}  {wall:.0f} = {layers:.0f} + {wall - layers:.0f}  "
            f"[parse {r['parse_us']:.0f}, instantiate {r['instantiate_us']:.0f}, "
            f"scan {r['scan_us']:.0f}, livelock {r['livelock_us']:.0f}]"
        )
    wall = walls["sweep"]
    remainders.append(wall - sweep_on["sweep_us"])
    acc.append(
        f"  sweep  {wall:.0f} = {sweep_on['sweep_us']:.0f} + {wall - sweep_on['sweep_us']:.0f}  "
        f"[run_campaign; job p50 {sweep_on['job_p50_us']:.0f}, journal x{m['campaign.journal_overhead']['value']:.3f}]"
    )
    for name, r in synths.items():
        wall = walls[name]
        layers = r["parse_us"] + r["synthesize_us"]
        remainders.append(wall - layers)
        acc.append(
            f"  {name}  {wall:.0f} = {layers:.0f} + {wall - layers:.0f}  "
            f"[parse {r['parse_us']:.0f}, synthesize {r['synthesize_us']:.0f} = rcg {r['rcg_us']:.0f} "
            f"+ resolve_sets {r['resolve_sets_us']:.0f} + candidate loop {loops[name]:.0f} (derived)]"
        )
    m["cli.remainder_us"] = common.metric(statistics.median(remainders), "us")

    # The ROADMAP baseline facts.
    acc.append("baseline facts:")
    s3, c5 = synths["sum_not_three"], synths["five_coloring"]
    acc.append(
        f"  sum-not-three: resolve_sets {s3['resolve_sets_us'] / 1e3:.1f} ms of synthesize "
        f"{s3['synthesize_us'] / 1e3:.1f} ms ({100 * s3['resolve_sets_us'] / s3['synthesize_us']:.0f}%; "
        "timed separately, so it can exceed 100%)"
    )
    acc.append(
        f"  five-coloring: candidate loop {loops['five_coloring'] / 1e3:.1f} ms of synthesize "
        f"{c5['synthesize_us'] / 1e3:.1f} ms ({100 * loops['five_coloring'] / c5['synthesize_us']:.0f}%)"
    )
    acc.append(
        f"  empty sum-not-three: DeadlockAnalysis::analyze {s3['deadlock_us'] / 1e3:.2f} ms, "
        f"witnesses truncated={s3['witnesses_truncated']}"
    )
    acc.extend("  " + line for line in livelock_shares(harness))
    acc.append("  " + line)

    serve_m, serve_ratio, attempted, failed, reasons, serve_lines = serve_layers(
        binary, rundir, seed, clients, workload == "serve"
    )
    m.update(serve_m)
    acc.extend("  " + line for line in serve_lines)
    ratio = serve_ratio if workload == "serve" else overhead(harness, workload, checks, synths)
    m["telemetry.trace_overhead"] = common.metric(ratio, "ratio")
    return {
        "metrics": m,
        "attempted": attempted,
        "failed": failed,
        "inconclusive": 0,
        "reasons": reasons,
        "accounting": acc,
    }
