"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload login-repeat --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout. It generates the workload's
inputs from the seed into .bench_work/, then starts bench/measure.py in a
fresh process that imports hierlog from ./src, measures, checks the outputs
and prints the metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
only when the correctness gate passed.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 170
# String hashes, and with them the layout and iteration order of hierlog's
# dicts and sets, change with the hash seed; across random seeds the same
# run's speed varied by up to 30%. The measured process uses one fixed seed.
HASH_SEED = "0"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one hierlog benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=40,
                    help="target length of the measured part of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "hierlog" / "__init__.py").is_file():
        print(f"no hierlog sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    inputs = WORK / "inputs" / f"{args.workload}-seed{args.seed}"
    work = WORK / "runs" / f"{args.workload}-trace{args.trace}"
    for d in (inputs, work):
        if d.exists():
            shutil.rmtree(d)
    start = time.perf_counter()
    workloads.write_inputs(workloads.generate(args.workload, args.seed), inputs)
    print(f"# generated {args.workload} seed={args.seed} in {time.perf_counter() - start:.2f} s "
          f"(sha256 {workloads.digest(inputs)[:16]})", flush=True)
    work.mkdir(parents=True)

    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--inputs", str(inputs), "--work", str(work),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--spans-out", str(work / "spans.tsv.gz")]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=HASH_SEED)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as exc:
        sys.stdout.write(exc.stdout.decode() if isinstance(exc.stdout, bytes) else (exc.stdout or ""))
        print(f"measured process exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
