#!/usr/bin/env python3
"""perfbench: the repository benchmark for ``selfstab``.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify|synth|serve --seed N \\
        --seconds S --trace 0|1

It builds the release ``selfstab`` binary from the checkout, drives it
the way users do, checks every answer outside the timed region, and
prints a human-readable report on stdout followed, as the last line, by
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` gives the end-to-end metrics; ``--trace 1`` runs the
separate traced run and gives the per-layer metrics. See
``perfbench/NOTE.md`` for what each workload and metric means.
"""

import argparse
import json
import os
import shutil
import signal
import sys

import cliload
import common
import serveload

WORKLOADS = ("verify", "synth", "serve")


def report(workload, trace, result, host):
    print(f"perfbench {workload} trace={trace}")
    print("  host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    for key, value in result.get("facts", {}).items():
        print(f"  {key}: {value:.4g}" if isinstance(value, float) else f"  {key}: {value}")
    if result.get("inputs"):
        print("  per input (ms): name p50 [q1, q3] n")
        for name, row in result["inputs"].items():
            print(f"    {name:<36} {row['p50']:10.3f} [{row['q1']:.3f}, {row['q3']:.3f}] n={row['n']}")
    for line in result.get("accounting", []):
        print("  " + line)
    print("  metrics:")
    for name, m in result["metrics"].items():
        print(f"    {name:<36} {m['value']:.6g} {m['unit']}")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"inconclusive={result.get('inconclusive', 0)}")
    for reason in result.get("reasons", []):
        print(f"  WRONG ANSWER: {reason}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A termination signal unwinds like an error, so servers are drained
    # and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    rundir = os.path.join(common.RUNS_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        binary, harness = common.build(root, harness=args.trace == 1)
        os.makedirs(rundir, exist_ok=True)
        clients = common.nproc()
        if args.trace:
            import traced

            result = traced.run(args.workload, binary, harness, rundir, args.seed, clients)
        elif args.workload == "serve":
            result = serveload.run(binary, rundir, args.seed, args.seconds, clients)
        else:
            result = cliload.run(args.workload, binary, rundir, args.seed, args.seconds)
    except common.BenchError as e:
        common.log(f"perfbench: {e}")
        return 2
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    host = {
        "nproc": common.nproc(),
        "commit": common.commit(root),
        "source": common.source_digest(root),
        "seed": args.seed,
        "seconds": args.seconds,
    }
    facts = result.get("facts", {})
    meta = dict(host, **{k: facts[k] for k in ("n", "tail_percentile") if k in facts})
    registry = common.registry_rows(
        root, args.workload, args.trace, result["metrics"], result.get("inputs", {}), meta
    )
    report(args.workload, args.trace, result, host)
    print(f"  registry: appended to {registry}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
