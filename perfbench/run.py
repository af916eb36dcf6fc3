"""seqchain benchmark: one workload, one seed, one result.

Usage, from the repository root:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload approx --seed 1 --seconds 20 --trace 1 --out bench-results/runs.jsonl

Workloads: ``construct``, ``approx``, ``classify`` (see README.md).

``--trace 0`` measures end to end.  It starts two set-up-only workers and
one timed worker (``worker.py``), each a fresh interpreter, one after the
other: ``setup_s`` is the median of the three set-up times, the rest
comes from the timed worker, which runs the workload's op list (whole
cycles, sized from ``--seconds``).  Times are in reference seconds, which
take out the drift of the host's speed (see worker.py); the raw
wall-clock figures are printed as ``raw.*`` extras.

``--trace 1`` runs a fixed number of ops twice, untraced and traced, in
two fresh workers.  It reports the per-layer metrics, the tracing
overhead (traced minus untraced wall time), and fails unless both runs
produced identical outputs.

Every worker runs under an address-space limit, so an input that makes
seqchain allocate without bound fails that op instead of exhausting the
machine.  Metric names and units come from BENCHMARK.json.  The last
line of standard output is the JSON summary
``{"correct", "attempted", "failed", "metrics"}``; ``--out`` also appends
the full record, with the seed and the SHA-256 of the op list, as one
JSON line for ``compare.py``.  Exit code 0 means every output checked.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ADDRESS_SPACE_LIMIT = 512 << 20  # bytes, per worker
SETUP_SAMPLES = 3
WALL_CAP = 3.0  # as in worker.py: a timed run stops after this many times --seconds
WORKER_GRACE_S = 120  # on top of that, for start-up, set-up and the last op
# Ops in a traced run: a fixed count, so work counters repeat exactly.
# Whole rounds of the workload's op strata: 4 construct cycles, 5 approx
# rounds (cap-lp:0 included), one classify cycle (every cell once).
TRACE_OPS = {"construct": 40, "approx": 41, "classify": 450}


class BenchError(Exception):
    """The run cannot produce a valid result."""


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def spawn(workload: str, seed: int, mode: str, seconds: float = 0.0, ops: int = 0):
    """Run one worker to completion; returns (spawn time, parsed record)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--seconds", str(seconds), "--ops", str(ops),
    ]
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, preexec_fn=_limit_address_space,
    )
    timeout = WALL_CAP * seconds + WORKER_GRACE_S
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} worker did not finish in {timeout:.0f} s")
    if proc.returncode == 3:
        raise BenchError(err.strip() or "output check failed")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    sys.stderr.write(err)  # the first error of each kind a failed op raised
    return started, json.loads(out.strip().splitlines()[-1])


def percentile(values, q: int) -> float:
    """q-th percentile (inclusive method) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, seed: int, seconds: float):
    """Metrics in reference time (see worker.py); raw wall-clock figures
    go to the extras."""
    setups, raw_setups = [], []
    for mode in ["setup"] * (SETUP_SAMPLES - 1) + ["run"]:
        started, rec = spawn(workload, seed, mode, seconds=seconds)
        raw_setups.append(rec["setup_end"] - started)
        setups.append(raw_setups[-1] * rec["setup_scale"])
    n = rec["attempted"]
    if n < 2:
        raise BenchError(f"only {n} op(s) completed in {seconds} s")
    scale = rec["op_scale"]
    lat_ms = [w * k * 1000 for w, k in zip(rec["op_wall_s"], scale)]
    raw_ms = [w * 1000 for w in rec["op_wall_s"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n * 1000 / sum(lat_ms),
        "op_ms.p50": statistics.median(lat_ms),
        "op_ms.p90": percentile(lat_ms, 90),
        "cpu_ms_per_op": sum(c * k for c, k in zip(rec["op_cpu_s"], scale)) * 1000 / n,
        "peak_rss_mb": rec["peak_rss_mb"],
        "decided_share": rec["decided"] / n,
    }
    # highest percentile that keeps at least ten samples beyond it
    tail_q = max((q for q in range(50, 100) if n * (100 - q) / 100 >= 10), default=50)
    extra = {
        "ops_completed": n,
        "op_list_len": rec["op_list_len"],
        "fail_share": rec["failed"] / n,
        "undecided_share": (n - rec["failed"] - rec["decided"]) / n,
        "errors": rec["errors"],
        f"op_ms.p{tail_q}": percentile(lat_ms, tail_q),
        "samples_beyond_p90": sum(1 for x in lat_ms if x > metrics["op_ms.p90"]),
        "host_speed": statistics.median(scale),
        "raw.setup_s": statistics.median(raw_setups),
        "raw.ops_per_s": n * 1000 / sum(raw_ms),
        "raw.op_ms.p50": statistics.median(raw_ms),
        "raw.op_ms.p90": percentile(raw_ms, 90),
        "raw.wall_s": rec["wall_s"],
        "wall_capped": rec["wall_capped"],
    }
    if workload == "classify":
        extra["known_defects"] = spawn(workload, seed, "probe")[1]
    return rec, metrics, extra


def traced(workload: str, seed: int, ops: int):
    _, plain = spawn(workload, seed, "prefix", ops=ops)
    _, rec = spawn(workload, seed, "trace", ops=ops)
    if plain["outputs_sha256"] != rec["outputs_sha256"]:
        raise BenchError("traced and untraced runs produced different outputs")
    metrics = dict(rec["layers"])
    metrics["trace.overhead_s"] = rec["work_s"] - plain["work_s"]
    extra = {"untraced_work_s": plain["work_s"], "traced_work_s": rec["work_s"], "errors": rec["errors"]}
    return rec, metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record to this JSON-lines file")
    args = ap.parse_args(argv)

    try:
        if not (ROOT / "src" / "seqchain" / "__init__.py").is_file():
            raise BenchError(f"no seqchain sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.trace:
            from_spec = spec["per_layer"]
            rec, values, extra = traced(args.workload, args.seed, TRACE_OPS[args.workload])
        else:
            from_spec = spec["end_to_end"]
            rec, values, extra = end_to_end(args.workload, args.seed, args.seconds)
        missing = [m["name"] for m in from_spec if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not produced: {', '.join(missing)}")
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in from_spec}
    print(f"{args.workload:9s} seed {args.seed}, op list sha256 {rec['op_list_sha256']}")
    for name, m in metrics.items():
        print(f"{args.workload:9s} {name:40s} {m['value']:14.6g} {m['unit']}")
    for name, value in extra.items():
        print(f"{args.workload:9s} {name:40s} {json.dumps(value)}")
    summary = {
        "correct": True,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }
    if args.out:
        full = dict(
            summary,
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            op_list_sha256=rec["op_list_sha256"],
            outputs_sha256=rec["outputs_sha256"],
            extra=extra,
            python=platform.python_version(),
            nproc=os.cpu_count(),
            machine=platform.machine(),
        )
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(full, sort_keys=True) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
