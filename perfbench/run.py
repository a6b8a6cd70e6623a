"""Benchmark for mixedtraffic: one workload per invocation.

    python3 perfbench/run.py --workload paper-n20 --seed 20260810 --seconds 35 --trace 0

Runs from the root of a source checkout and imports the package from its
``src``.  Each set-up probe and the measured run are fresh processes (see
``worker.py``).  Prints every metric by name and unit, writes the full
record to ``.perfbench_out/``, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Exits 1 when any op failed a check, 2 when the benchmark could not
run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
WORKER = Path(__file__).with_name("worker.py")
DEFAULT_SEED = 20260810
SETUP_PROBES = 10            # set-up is measured in this many fresh processes plus the run
PROBE_TIMEOUT_S = 30
RUN_TIMEOUT_MARGIN_S = 100   # the last op may overrun --seconds by one op
DEADLINE_S = 170             # every process started is done within this of the start
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10             # a reported percentile needs this many ops beyond it


class BenchError(RuntimeError):
    pass


def _worker(args, role: str, index: int, timeout: float, deadline: float) -> dict:
    timeout = min(timeout, deadline - time.monotonic())
    if timeout <= 0:
        raise BenchError(f"no time left for a {role} process")
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(WORKER), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{role} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(times: list[float]) -> str:
    ordered = sorted(times)
    for pct in TAIL_PERCENTILES:
        if len(ordered) * (1 - pct / 100) >= TAIL_BEYOND:
            rank = min(len(ordered) - 1, math.ceil(pct / 100 * len(ordered)) - 1)
            return f"p{pct:g} = {ordered[rank]:.4f} s over {len(ordered)} ops"
    return f"no percentile has {TAIL_BEYOND} of the {len(ordered)} ops beyond it"


def end_to_end(args, run: dict, setups: list[float]) -> dict:
    attempted, failed = run["attempted"], run["failed"]
    # The host slows ops by up to 2x in phases of seconds to minutes, so the
    # gated op metric is each op's time over the reference kernel timed
    # around it (reference.py); raw op times are printed but not gated.
    rel = [op / ((before + after) / 2)
           for op, before, after in zip(run["op_s"], run["ref_s"], run["ref_s"][1:])]
    metrics = {
        "op_rel_p50": (statistics.median(rel), "x"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"closed loop, 1 client")
    print(f"  op_rel_p50    {metrics['op_rel_p50'][0]:.4f} x    "
          f"(median over {len(rel)} ops of op time / reference kernel time)")
    print(f"  op_s_p50      {statistics.median(run['op_s']):.4f} s    "
          f"({_tail(run['op_s'])}; fastest {min(run['op_s']):.4f} s; not gated)")
    print(f"  ref_s_p50     {statistics.median(run['ref_s']):.4f} s    "
          f"(reference kernel '{run['reference_kernel']}', {len(run['ref_s'])} times; not gated)")
    print(f"  setup_s       {metrics['setup_s'][0]:.4f} s    "
          f"(median of {len(setups)} fresh processes)")
    print(f"  peak_rss_mb   {metrics['peak_rss_mb'][0]:.1f} MB")
    print(f"  op_fail_frac  {failed / attempted:.4f}      ({failed} of {attempted} ops)")
    return metrics


def per_layer(args, run: dict) -> dict:
    metrics = {name: tuple(pair) for name, pair in run["per_layer"].items()}
    print(f"workload {args.workload}, seed {args.seed}, traced: "
          f"{len(run['traced_op_s'])} traced and {len(run['op_s'])} untraced ops")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    if run["absent_spans"]:
        print(f"  absent spans: {', '.join(run['absent_spans'])}")
    l3 = run["record"]["l3_bytes"]
    print(f"  working set: systems {metrics['ltv.systems_nbytes'][0] / 1e6:.1f} MB, "
          f"truth {metrics['metanet.truth_nbytes'][0] / 1e6:.1f} MB; "
          f"L3 {l3 / 1e6 if l3 else float('nan'):.1f} MB")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="paper-n20, corridor-n200 or tune-n20-unmeasured")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    OUT_DIR.mkdir(exist_ok=True)
    probes = 0 if args.trace else SETUP_PROBES
    deadline = time.monotonic() + DEADLINE_S
    try:
        # Half the probes run before the measured run and half after, so the
        # set-up samples span the run and not one phase of machine speed.
        setups = [_worker(args, "probe", i, PROBE_TIMEOUT_S, deadline)["setup_s"]
                  for i in range(probes // 2)]
        run = _worker(args, "measure", probes, args.seconds + RUN_TIMEOUT_MARGIN_S,
                      deadline)
        setups += [_worker(args, "probe", i, PROBE_TIMEOUT_S, deadline)["setup_s"]
                   for i in range(probes // 2, probes)]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setups.append(run["setup_s"])

    metrics = per_layer(args, run) if args.trace else end_to_end(args, run, setups)
    for failure in run["failures"]:
        print(f"  FAILED {failure}")
    print(f"  record {json.dumps(run['record'])}")
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(dict(run, setup_samples_s=setups), indent=1) + "\n")
    print(f"  full result -> {path.relative_to(ROOT)}")

    correct = run["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"],
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
