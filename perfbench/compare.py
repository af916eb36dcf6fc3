"""Compare two sets of benchmark results.

Usage, from the repository root:

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

Each file holds the records ``run.py --out`` appends (one JSON object a
line).  For every workload and every end-to-end metric of BENCHMARK.json
it prints each side's median and quartiles, the pairs won by the new
side (runs paired by seed, or by order where seeds differ) and a
verdict, judged against the metric's own bound:

* ``regressed``  - the new median is worse than the old by more than the bound;
* ``unresolved`` - the spread of either side (quartile distance over
  median) exceeds the bound, and neither side beats every run of the other;
* ``improved``   - the new side wins at least nine tenths of the pairs and
  the medians differ by more than the old side's quartile distance;
* ``unchanged``  - otherwise.

Exits 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{workload: [record, ...]} for the end-to-end records in a file."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec.get("trace") == 0:
                    runs[rec["workload"]].append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _pairs(old, new):
    by_seed = {r["seed"]: r for r in old}
    if all(r["seed"] in by_seed for r in new):
        return [(by_seed[r["seed"]], r) for r in new]
    return list(zip(old, new))


def verdict(metric, old_vals, new_vals, wins, pairs):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    o1, om, o3 = quartiles(old_vals)
    n1, nm, n3 = quartiles(new_vals)
    worse = (nm - om) / om if lower else (om - nm) / om
    spread = max((o3 - o1) / om if om else 0.0, (n3 - n1) / nm if nm else 0.0)
    if lower:
        new_beats_all = max(new_vals) < min(old_vals)
        old_beats_all = max(old_vals) < min(new_vals)
    else:
        new_beats_all = min(new_vals) > max(old_vals)
        old_beats_all = min(old_vals) > max(new_vals)
    if spread > bound and not (new_beats_all or old_beats_all):
        return "unresolved"
    if worse > bound:
        return "regressed"
    if pairs and wins >= 0.9 * pairs and abs(nm - om) > (o3 - o1):
        return "improved"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    old_runs, new_runs = load(argv[0]), load(argv[1])
    regressed = False
    header = f"{'workload':9s} {'metric':16s} {'old q1/median/q3':>32s} {'new q1/median/q3':>32s} {'won':>7s}  verdict"
    print(header)
    for workload in sorted(set(old_runs) & set(new_runs)):
        old, new = old_runs[workload], new_runs[workload]
        if any(r["op_list_sha256"] != s["op_list_sha256"] for r, s in _pairs(old, new) if r["seed"] == s["seed"]):
            print(f"{workload}: op lists differ for the same seed; the benchmark changed", file=sys.stderr)
            return 2
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ov = [r["metrics"][name]["value"] for r in old]
            nv = [r["metrics"][name]["value"] for r in new]
            pairs = _pairs(old, new)
            sign = -1 if metric["better"] == "lower" else 1
            wins = sum(
                1 for a, b in pairs
                if sign * (b["metrics"][name]["value"] - a["metrics"][name]["value"]) > 0
            )
            v = verdict(metric, ov, nv, wins, len(pairs))
            regressed |= v == "regressed"
            oq = "/".join(f"{x:.4g}" for x in quartiles(ov))
            nq = "/".join(f"{x:.4g}" for x in quartiles(nv))
            print(f"{workload:9s} {name:16s} {oq:>32s} {nq:>32s} {wins:>3d}/{len(pairs):<3d}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
