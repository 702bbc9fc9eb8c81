"""The two CLI workloads, ``verify`` and ``synth``: closed loop, one
client, each input once per pass in a seeded shuffled order, answers
checked after the timed region."""

import glob
import hashlib
import json
import os
import random
import shutil
import statistics
import time

import common

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS_DIR = os.path.join(HERE, "inputs")
CHECK_K = "13"
SWEEP_MANIFEST = {"specs": ["specs/*.stab"], "k_from": 2, "k_to": 12}
SETUP_ARGS = ["fmt", os.path.join("specs", "sum_not_two.stab")]
SOLUTION_CHECK = ["--k", "2", "--to", "8"]

CHECK_SPECS = [
    "sum_not_two_empty",
    "sum_not_two",
    "matching_non_generalizable",
    "matching_generalizable",
]
SYNTH_SPECS = {
    "sum_not_two_empty": os.path.join("specs", "sum_not_two_empty.stab"),
    "sum_not_three": os.path.join("perfbench", "inputs", "sum_not_three_empty.stab"),
    "four_coloring": os.path.join("perfbench", "inputs", "four_coloring_empty.stab"),
    "five_coloring": os.path.join("perfbench", "inputs", "five_coloring_empty.stab"),
    "six_coloring": os.path.join("perfbench", "inputs", "six_coloring_empty.stab"),
}
# Kept out of the timed set (an op there must not fail); the traced run
# invokes it once to show the false failure.
SUM_NOT_FOUR = os.path.join("perfbench", "inputs", "sum_not_four_empty.stab")


def load_expected():
    with open(os.path.join(INPUTS_DIR, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def prepare_sweep(rundir):
    """Copies the spec corpus next to a fresh sweep manifest, so the
    sweep's journal and report stay inside the run directory."""
    os.makedirs(os.path.join(rundir, "specs"), exist_ok=True)
    for spec in glob.glob(os.path.join("specs", "*.stab")):
        shutil.copy(spec, os.path.join(rundir, "specs"))
    manifest = os.path.join(rundir, "campaign.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(SWEEP_MANIFEST, fh)
    return manifest


def verify_inputs(rundir):
    """Name -> CLI arguments, default flags apart from ``--json``."""
    inputs = {
        f"check:{spec}": ["check", os.path.join("specs", f"{spec}.stab"), "--k", CHECK_K, "--json"]
        for spec in CHECK_SPECS
    }
    inputs["sweep"] = ["sweep", prepare_sweep(rundir), "--jobs", "1", "--json"]
    return inputs


def synth_inputs():
    return {name: ["synthesize", path, "--json"] for name, path in SYNTH_SPECS.items()}


# ------------------------------------------------------------ answer checks


def check_verify_answer(expected, code, stdout):
    """``None`` when the answer matches the committed expectation, else
    the reason it does not."""
    if code != expected["exit"]:
        return f"exit code {code}, expected {expected['exit']}"
    try:
        doc = json.loads(stdout)
    except ValueError as e:
        return f"output is not JSON: {e}"
    if "rows" in expected:
        if not isinstance(doc, list) or len(doc) != len(expected["rows"]):
            return "wrong number of report rows"
        for got, want in zip(doc, expected["rows"]):
            for field, value in want.items():
                if got.get(field) != value:
                    return f"K={want.get('ring_size')}: {field} is {got.get(field)!r}, expected {value!r}"
        return None
    if doc.get("totals") != expected["totals"]:
        return f"sweep totals {doc.get('totals')}, expected {expected['totals']}"
    if doc.get("campaign", {}).get("job_count") != expected["job_count"]:
        return "sweep job count differs"
    if doc.get("soundness", {}).get("disagreements"):
        return "sweep reports a soundness disagreement"
    return None


def classify_synth(expected, code, stdout, solution_ok):
    """Returns (status, reason): status ``ok``, ``failed`` or
    ``inconclusive``. A failure that is not truncated but examined zero
    Resolve sets is a false failure; a truncated failure is inconclusive.
    ``solution_ok(protocol_file)`` decides whether one returned solution
    self-stabilizes."""
    try:
        doc = json.loads(stdout)
    except ValueError as e:
        return "failed", f"output is not JSON: {e}"
    success = doc.get("success")
    if code != (0 if success else 2):
        return "failed", f"exit code {code} disagrees with success={success}"
    if not success:
        if doc.get("truncated"):
            return "inconclusive", "truncated failure"
        if doc.get("counters", {}).get("resolve_sets_examined", 0) == 0:
            return "failed", "false failure: not truncated, zero Resolve sets examined"
    if success != expected["success"]:
        return "failed", f"success={success}, expected {expected['success']}"
    solutions = doc.get("solutions", [])
    if success and not solutions:
        return "failed", "success without solutions"
    for i, sol in enumerate(solutions):
        if not solution_ok(sol.get("protocol_file", "")):
            return "failed", f"solution {i + 1} does not self-stabilize at K=2..8"
    return "ok", None


class SolutionChecker:
    """Checks synthesized protocols with ``check --k 2 --to 8``, once per
    distinct protocol text."""

    def __init__(self, binary, rundir):
        self.binary = binary
        self.rundir = rundir
        self.seen = {}

    def __call__(self, text):
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        if digest not in self.seen:
            path = os.path.join(self.rundir, f"solution-{digest}.stab")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            code = common.run_timed([self.binary, "check", path] + SOLUTION_CHECK, ".").code
            self.seen[digest] = code == 0
        return self.seen[digest]


def check_answers(workload, binary, rundir, outputs, expected):
    """Checks every op's answer; identical outputs are checked once.
    Returns (failed, inconclusive, reasons)."""
    verdicts = {}
    failed = inconclusive = 0
    reasons = []
    checker = SolutionChecker(binary, rundir)
    for name, code, stdout in outputs:
        key = (name, code, hashlib.sha256(stdout).digest())
        if key not in verdicts:
            want = expected[workload][name]
            if workload == "verify":
                reason = check_verify_answer(want, code, stdout)
                verdicts[key] = ("ok" if reason is None else "failed", reason)
            else:
                verdicts[key] = classify_synth(want, code, stdout, checker)
        status, reason = verdicts[key]
        if status == "failed":
            failed += 1
            reasons.append(f"{name}: {reason}")
        elif status == "inconclusive":
            inconclusive += 1
    return failed, inconclusive, sorted(set(reasons))


# ------------------------------------------------------------------ the loop


def run(workload, binary, rundir, seed, seconds):
    inputs = verify_inputs(rundir) if workload == "verify" else synth_inputs()
    expected = load_expected()
    rng = random.Random(seed)
    names = list(inputs)
    setup = []

    def setup_sample():
        setup.append(common.run_timed([binary] + SETUP_ARGS, ".").wall_s)

    for _ in range(3):
        setup_sample()
    for name in names:  # untimed warm-up pass
        common.run_timed([binary] + inputs[name], ".")

    wall = {name: [] for name in names}
    cpu = []
    rss = []
    outputs = []
    start = time.monotonic()
    passes = 0
    while time.monotonic() - start < seconds:
        order = names[:]
        rng.shuffle(order)
        for name in order:
            s = common.run_timed([binary] + inputs[name], ".")
            wall[name].append(s.wall_s)
            cpu.append(s.cpu_s)
            rss.append(s.rss_kb)
            outputs.append((name, s.code, s.stdout))
        passes += 1
        setup_sample()
    measured_s = time.monotonic() - start

    failed, inconclusive, reasons = check_answers(workload, binary, rundir, outputs, expected)
    all_ms = [v * 1000.0 for values in wall.values() for v in values]
    tail_ms, tail_pct, n = common.tail(all_ms)
    metrics = {
        "p50_ms": common.metric(statistics.median(all_ms), "ms"),
        "tail_ms": common.metric(tail_ms, "ms"),
        "ops_per_s": common.metric(n / (sum(all_ms) / 1000.0), "1/s"),
        "cpu_ms_per_op": common.metric(1000.0 * sum(cpu) / n, "ms"),
        "peak_rss_mb": common.metric(max(rss) / 1024.0, "MiB"),
        "setup_s": common.metric(statistics.median(setup), "s"),
    }
    return {
        "metrics": metrics,
        "attempted": n,
        "failed": failed,
        "inconclusive": inconclusive,
        "reasons": reasons,
        "inputs": common.input_rows(wall, scale=1000.0),
        "facts": {
            "passes": passes,
            "measured_s": measured_s,
            "tail_percentile": tail_pct,
            "n": n,
            "setup_samples": len(setup),
        },
    }
