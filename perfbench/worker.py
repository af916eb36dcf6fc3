"""One workload in one fresh, single-threaded interpreter.

Started by ``run.py`` (never imported by it), with ``src`` on
PYTHONPATH and an address-space limit already set on this process.
Prints one JSON object on stdout.  Modes:

* ``setup``  - import, generate the op list, set up; report when set-up ended.
* ``run``    - set up, then run the op list: whole cycles of the
  workload's strata, as many as the parent commit completes in
  ``--seconds`` of reference time (below), so every commit runs the same
  ops and the op list's SHA-256 covers exactly what ran.
* ``prefix`` - set up, then run exactly the first ``--ops`` ops.
* ``trace``  - as ``prefix`` with the tracer wrapped around seqchain.
* ``probe``  - run one input per known defect and report what happened.

Reference time.  The CPU speed a process gets on a shared host drifts by
up to 2x within a minute, which swamps any change worth measuring.  So
the worker times a fixed pure-Python kernel (exact rational sums and
big-integer roots, the operations seqchain spends its time in) before
set-up, after set-up, and every ``CAL_INTERVAL_S`` between ops, and
reports for every timed interval the factor ``REF_KERNEL_S / kernel
time`` measured around it.  A time multiplied by that factor is the time
the interval would have taken on a host where the kernel takes
``REF_KERNEL_S``.  A wall-clock cap of ``WALL_CAP`` times ``--seconds``
bounds a timed run on a slow host; a capped run says so.

Exit code 3 means an output check failed: the run is invalid.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from math import isqrt

REF_KERNEL_S = 0.0006  # kernel time that defines reference speed
CAL_INTERVAL_S = 0.1
WALL_CAP = 3.0


def _kernel():
    s = Fraction(0)
    for k in range(1, 120):
        s += Fraction(1, k)
    for k in range(40):
        isqrt((s.numerator << 512) + k)


def calibrate() -> float:
    """Seconds the reference kernel takes now (mean of three runs: the
    mean tracks the speed an op gets better than the minimum does)."""
    t0 = time.perf_counter()
    for _ in range(3):
        _kernel()
    return (time.perf_counter() - t0) / 3


_kernel()  # warm up the interpreter's specialisation of the kernel
_CAL_START = calibrate()

import seqchain  # noqa: E402,F401  (import time is part of set-up)

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "prefix", "trace", "probe"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0)
    args = ap.parse_args()

    if args.mode == "probe":
        print(json.dumps({label: wl.probe_defect(label) for label in wl.KNOWN_DEFECTS}))
        return 0

    tracer = None
    if args.mode == "trace":
        tracer = tr.Tracer()
        tr.install(tracer)

    build, setup, run_op = wl.WORKLOADS[args.workload][:3]
    work_start = time.monotonic()
    count = args.ops if args.mode in ("prefix", "trace") else wl.op_count(args.workload, args.seconds)
    ops = build(random.Random(args.seed), count)
    list_sha = hashlib.sha256(json.dumps(ops).encode()).hexdigest()
    try:
        state = setup()
    except wl.CheckFailed as exc:
        print(f"output check failed in set-up: {exc}", file=sys.stderr)
        return 3
    setup_end = time.monotonic()
    setup_scale = REF_KERNEL_S / statistics.mean([_CAL_START, calibrate()])
    if args.mode == "setup":
        print(json.dumps({"setup_end": setup_end, "setup_scale": setup_scale}))
        return 0

    wall_deadline = time.monotonic() + WALL_CAP * args.seconds if args.mode == "run" else float("inf")
    outputs = hashlib.sha256()
    walls, cpus, cal_before, errors = [], [], [], {}
    cals = [calibrate()]
    last_cal = time.perf_counter()
    decided = 0
    for op in ops:
        if time.monotonic() >= wall_deadline:
            break
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = run_op(state, op)
        except wl.CheckFailed as exc:
            print(f"output check failed: {exc}", file=sys.stderr)
            return 3
        except Exception as exc:  # a failed op: counted, and the run goes on
            out = None
            kind = type(exc).__name__
            errors[kind] = errors.get(kind, 0) + 1
            if errors[kind] == 1:
                print(f"op {len(walls)} raised {kind}: {exc}"[:500], file=sys.stderr)
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        cpus.append(time.process_time() - c0)
        cal_before.append(len(cals) - 1)
        if t1 - last_cal >= CAL_INTERVAL_S:
            cals.append(calibrate())
            last_cal = time.perf_counter()
        if out is not None:
            decided += wl.decided(out)
        outputs.update(json.dumps(out).encode())
    end = time.monotonic()
    cals.append(calibrate())
    record = {
        "setup_end": setup_end,
        "setup_scale": setup_scale,
        "wall_s": end - setup_end,
        "work_s": end - work_start,
        "wall_capped": len(walls) < len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_wall_s": walls,
        "op_cpu_s": cpus,
        # the calibrations just before and just after each op bracket it
        "op_scale": [2 * REF_KERNEL_S / (cals[i] + cals[i + 1]) for i in cal_before],
        "attempted": len(walls),
        "failed": sum(errors.values()),
        "errors": errors,
        "decided": decided,
        "op_list_len": len(ops),
        "op_list_sha256": list_sha,
        "outputs_sha256": outputs.hexdigest(),
    }
    if tracer is not None:
        record["layers"] = tr.layer_metrics(tracer)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
