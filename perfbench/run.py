#!/usr/bin/env python3
"""Build and run the serve/subscribe benchmark.

One run (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

builds perfbench/main.exe with dune from the checkout's sources, then
runs it; its last line of output is the result object.

Steadiness mode runs each workload once per seed, one process per run,
and prints every metric's median, quartiles and IQR/median:

    python3 perfbench/run.py --steady 10 [--seconds 20] [--trace 0]
        [--workloads serve-hot,serve-adhoc] [--first-seed 1]

Run from the root of the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ["serve-hot", "serve-adhoc", "serve-auto", "subscribe-churn"]


def build():
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune is not on PATH")
    # build output goes to stderr: stdout ends with the result line
    done = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/main.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {done.returncode})")


def one_run(workload, seed, seconds, trace):
    out = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    if out.returncode != 0:
        sys.exit(f"perfbench: {workload} seed {seed} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def steady(args):
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    for w in workloads:
        runs = [one_run(w, args.first_seed + i, args.seconds, args.trace)
                for i in range(args.steady)]
        failed = [r["failed"] / r["attempted"] for r in runs]
        print(f"{w}: {len(runs)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + len(runs) - 1}, all correct: "
              f"{all(r['correct'] for r in runs)}, failed share "
              f"{min(failed)}..{max(failed)}")
        for name, m in runs[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:34s} {m['unit']:6s} median {med:12.6g}  "
                  f"q1 {q1:12.6g}  q3 {q3:12.6g}  IQR/median {spread:7.4f}")
            if args.verbose:
                print("      runs: " + " ".join(f"{v:.6g}" for v in vals))
        sys.stdout.flush()


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, metavar="RUNS")
    p.add_argument("--workloads")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--verbose", action="store_true",
                   help="with --steady: also print every run's value")
    args = p.parse_args()
    if args.steady is None and (args.workload is None or args.seed is None):
        p.error("give --workload and --seed, or --steady RUNS")
    build()
    if args.steady is not None:
        steady(args)
        return
    sys.stdout.flush()
    os.execv(EXE, [EXE, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)])


if __name__ == "__main__":
    main()
