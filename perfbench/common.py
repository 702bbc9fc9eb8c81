"""Shared pieces of the perfbench harness: building, timed child
processes, sample statistics, host facts and registry rows.

Everything here runs from the root of a source checkout and reads and
writes only inside it: the build goes to ``$CARGO_TARGET_DIR`` (default
``.bench_build``) and scratch files to ``.perfbench_runs/``.
"""

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

RUNS_DIR = ".perfbench_runs"
REGISTRY = os.path.join(RUNS_DIR, "registry.jsonl")
HARNESS_MANIFEST = os.path.join("perfbench", "harness", "Cargo.toml")
TAIL_BEYOND = 10


class BenchError(Exception):
    """A condition that makes the run meaningless: no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- host facts


def nproc():
    """Cores this process may run on (what ``available_parallelism``
    reports on Linux without a cgroup quota)."""
    return len(os.sched_getaffinity(0))


def commit(root):
    """The recorded commit: ``SELFSTAB_COMMIT`` (as the CLI's registry rows
    use), else ``git rev-parse HEAD`` in a git checkout, else ``unknown``."""
    env = os.environ.get("SELFSTAB_COMMIT")
    if env:
        return env
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            )
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "unknown"


def source_digest(root):
    """A content hash of the measured sources and of the benchmark, so two
    results from non-git checkouts can still be told apart."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench", "specs"]
    for top in tops:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


# --------------------------------------------------------------------- build


def target_dir(root):
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(root, harness):
    """Builds the release ``selfstab`` binary (and the in-process harness
    for traced runs) from the checkout's sources. Returns binary paths."""
    for need in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml"), "specs"):
        if not os.path.exists(os.path.join(root, need)):
            raise BenchError(f"not a selfstab source checkout: `{need}` is missing")
    if shutil.which("cargo") is None:
        raise BenchError("cargo is not on PATH")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir(root))
    cmds = [["cargo", "build", "--release", "--offline", "-q", "-p", "selfstab-cli"]]
    if harness:
        cmds.append(
            ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", HARNESS_MANIFEST]
        )
    for cmd in cmds:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(root), "release")
    return os.path.join(release, "selfstab"), os.path.join(release, "perfbench-harness")


# ------------------------------------------------------------ timed children


class Sample:
    """One child process: wall time from spawn to reaped exit, its own
    user+sys CPU and peak RSS from ``wait4``, exit code and stdout."""

    __slots__ = ("wall_s", "cpu_s", "rss_kb", "code", "stdout")

    def __init__(self, wall_s, cpu_s, rss_kb, code, stdout):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_kb = rss_kb
        self.code = code
        self.stdout = stdout


def run_timed(argv, cwd):
    """Runs ``argv`` to completion; stderr is discarded."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, out)


# ---------------------------------------------------------------- statistics


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile that leaves at least ``beyond`` samples above
    it: the (beyond+1)-th largest sample. Returns (value, percentile, n).
    With too few samples it falls back to the maximum (percentile 100)."""
    n = len(values)
    ordered = sorted(values)
    if n <= beyond:
        return ordered[-1], 100.0, n
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def input_rows(samples_by_input, scale=1.0):
    """Per-input median, quartiles and sample count, in input order."""
    rows = {}
    for name, values in samples_by_input.items():
        q1, q2, q3 = quartiles([v * scale for v in values])
        rows[name] = {"p50": q2, "q1": q1, "q3": q3, "n": len(values)}
    return rows


def metric(value, unit):
    return {"value": value, "unit": unit}


# ------------------------------------------------------------------ registry


def registry_rows(root, workload, trace, metrics, inputs, meta):
    """Appends this run to ``.perfbench_runs/registry.jsonl`` in the
    canonical ``RegistryRow`` encoding (sorted keys, compact), one row for
    the workload and one per input, so ``selfstab registry diff`` can join
    two checkouts' files on identity."""
    path = os.path.join(root, REGISTRY)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    meta = dict(meta, recorded_at=int(time.time()))
    rows = [
        {
            "k": "-",
            "kind": "perfbench",
            "knobs": {"trace": trace, "workload": workload},
            "kpis": {name: m["value"] for name, m in metrics.items()},
            "meta": meta,
            "schema": 1,
            "source": "bench",
            "spec": workload,
        }
    ]
    for name, row in inputs.items():
        rows.append(
            {
                "k": "-",
                "kind": "perfbench.input",
                "knobs": {"trace": trace, "workload": workload},
                "kpis": {"p50_ms": row["p50"], "q1_ms": row["q1"], "q3_ms": row["q3"]},
                "meta": dict(meta, n=row["n"]),
                "schema": 1,
                "source": "bench",
                "spec": name,
            }
        )
    with open(path, "a", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
    return path
