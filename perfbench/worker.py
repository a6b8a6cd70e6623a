"""One benchmark process: set up a workload, run ops, report as JSON.

``run.py`` starts this script once per set-up probe (``--role probe``: set
up, report the set-up time, exit) and once for the measured run
(``--role measure``).  Each is a fresh process, so imports, set-up time and
peak memory belong to that workload alone.  The process starts no threads
of its own; NumPy's BLAS pool is the only one.

The load model is a closed loop with one client: the next op starts when
the previous one has finished and been checked.  The op is timed on its
own; without tracing, a reference kernel (``reference.py``) is also timed
before the first op and after every op, outside the op's timed region.
With ``--trace 1`` the ops alternate between untraced and traced, and the
traced ones give the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MAX_FAILURE_MESSAGES = 20


def _import_library():
    """Import the package from this checkout's ``src``, never an installed copy."""
    package = ROOT / "src" / "mixedtraffic"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import mixedtraffic
    if Path(mixedtraffic.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported mixedtraffic from {mixedtraffic.__file__}, not {package}")


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _set_up(args, workdir: Path):
    _import_library()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.enable()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](ROOT, args.seed, workdir)
    workload.build()
    return workload, tracer, time.monotonic() - args.spawned_at


def measure(args, workdir: Path) -> dict:
    workload, tracer, setup_s = _set_up(args, workdir)
    workload.prepare()
    load_s = 0.0
    if tracer is not None:
        load_s = tracer.total("scenario.load")
        tracer.disable()
        tracer.reset()
    refs = json.loads((Path(__file__).parent / "references.json").read_text())
    golden = refs.get(workload.name) if args.seed == refs["seed"] else None
    min_ops = 1 if tracer is None else 2      # a traced run needs one op of each kind
    kernel = None
    if tracer is None:
        import reference as kernels
        kernel = getattr(kernels, workload.reference_kernel)
        kernel()                              # warm-up, untimed

    op_s, traced_s = [], []
    ref_s = [_timed(kernel)] if kernel is not None else []   # before the first op, after each
    failures: list[str] = []
    reference = None
    attempted = 0
    start = time.perf_counter()
    while attempted < min_ops or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        try:
            if traced:
                tracer.enable()
            t0 = time.perf_counter()
            try:   # an op that raises is timed up to the exception
                out = tracer.op(workload.op) if traced else workload.op()
            finally:
                (traced_s if traced else op_s).append(time.perf_counter() - t0)
                if traced:
                    tracer.disable()
            fingerprint, problems = workload.check(out, golden, refs["tolerance"])
            del out
        except Exception:  # an op that raises is a failed op; keep measuring
            fingerprint, problems = None, [traceback.format_exc()]
        if fingerprint is not None:
            if reference is None:
                reference = fingerprint
            elif fingerprint != reference:
                problems.append("outputs differ from the first op's")
        if problems:
            failures.append(f"op {attempted}: " + "; ".join(problems))
        if kernel is not None:
            ref_s.append(_timed(kernel))

    result = {
        "setup_s": setup_s,
        "op_s": op_s,
        "ref_s": ref_s,
        "reference_kernel": workload.reference_kernel,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_FAILURE_MESSAGES],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        from tracer import per_layer_metrics
        overhead = statistics.median(traced_s) / statistics.median(op_s) - 1.0
        metrics = per_layer_metrics(tracer, len(traced_s), load_s, overhead)
        result.update(traced_op_s=traced_s, per_layer=metrics, absent_spans=tracer.absent,
                      spans={name: dict(zip(("calls", "total_s", "child_s"), rec))
                             for name, rec in tracer.spans.items()})
    from machine import run_record
    result["record"] = run_record(ROOT, args.seed)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("probe", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before this process started")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.role == "probe":
            result = {"setup_s": _set_up(args, args.workdir)[2]}
        else:
            result = measure(args, args.workdir)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
