#!/usr/bin/env python3
"""Compares two sets of benchmark results, workload by workload and metric
by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result records written by run.py (files, or directories
searched recursively, e.g. the results/ directory of two build trees). Runs
of the same workload pair up by seed, else in order. For each workload x
metric the tool prints both medians with their quartiles, the change, how
many pairs NEW won, and a verdict:

  improved     NEW won at least 9 of 10 pairs (ties count for neither), there
               were at least 10 pairs, and the medians differ by more than
               BASE's interquartile range;
  regressed    NEW's median is worse than BASE's by more than the metric's
               bound (end-to-end metrics only);
  unresolved   the run-to-run spread (IQR over median) of either side exceeds
               the bound, unless every NEW run beats every BASE run;
  same         none of the above.

Deterministic counts (search.evaluations, comm.decoded_bits, ...) of runs
with the same seed must agree exactly; a difference is printed as COUNTS.
"""
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the metric tables)

BOUND = {n: b for n, _, _, b in run.END_TO_END}
BETTER = {n: better for n, _, better, _ in run.END_TO_END}
BETTER.update({n: better for n, _, better in run.PER_LAYER})


def load(arg):
    path = Path(arg)
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    records = []
    for f in files:
        if "traces" in f.parts:
            continue
        try:
            doc = json.loads(f.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(doc, dict) and "metrics" in doc and "workload" in doc:
            records.append(doc)
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def pairs(base, new):
    """(base value, new value) pairs: same seed first, then in order."""
    by_seed = {}
    for r in base:
        by_seed.setdefault(r["seed"], []).append(r)
    matched, rest_new = [], []
    for r in new:
        bucket = by_seed.get(r["seed"])
        if bucket:
            matched.append((bucket.pop(0), r))
        else:
            rest_new.append(r)
    rest_base = [r for bucket in by_seed.values() for r in bucket]
    matched += list(zip(rest_base, rest_new))
    return matched


def verdict(metric, base_vals, new_vals, paired):
    better = BETTER.get(metric, "lower")
    sign = 1.0 if better == "lower" else -1.0
    b1, bmed, b3 = quartiles(base_vals)
    _, nmed, _ = quartiles(new_vals)
    wins = sum(1 for b, n in paired if sign * (b - n) > 0)
    worse_share = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    all_better = all(sign * (b - n) > 0 for b in base_vals for n in new_vals)
    if (len(paired) >= 10 and wins >= 0.9 * len(paired)
            and abs(nmed - bmed) > (b3 - b1)):
        return "improved", wins
    bound = BOUND.get(metric)
    if bound is None:
        return "same", wins
    if max(spread(base_vals), spread(new_vals)) > bound and not all_better:
        return "unresolved", wins
    if worse_share > bound:
        return "regressed", wins
    return "same", wins


def compare(base, new, out=sys.stdout):
    """Prints the comparison; returns the number of regressions."""
    regressions = 0
    def key(r):
        return r["workload"], r.get("trace", 0), bool(r.get("smoke"))

    for group in sorted({key(r) for r in base + new}):
        b = [r for r in base if key(r) == group]
        n = [r for r in new if key(r) == group]
        if not b or not n:
            continue
        paired = pairs(b, n)
        print("%s (trace %d%s): %d base runs, %d new runs, %d pairs"
              % (group[0], group[1], ", smoke" if group[2] else "", len(b), len(n),
                 len(paired)), file=out)
        metrics = [m for m in b[0]["metrics"] if all(m in r["metrics"] for r in b + n)]
        for m in metrics:
            bv = [r["metrics"][m]["value"] for r in b]
            nv = [r["metrics"][m]["value"] for r in n]
            pv = [(x["metrics"][m]["value"], y["metrics"][m]["value"]) for x, y in paired]
            v, wins = verdict(m, bv, nv, pv)
            regressions += v == "regressed"
            b1, bmed, b3 = quartiles(bv)
            n1, nmed, n3 = quartiles(nv)
            change = (nmed - bmed) / abs(bmed) * 100 if bmed else 0.0
            print("  %-36s %12.5g [%.5g, %.5g] -> %12.5g [%.5g, %.5g] %+7.2f%% "
                  "wins %d/%d  %s" % (m, bmed, b1, b3, nmed, n1, n3, change, wins,
                                      len(pv), v), file=out)
        for x, y in paired:
            if x["seed"] != y["seed"]:
                continue
            for c in run.DETERMINISTIC:
                if x["counts"].get(c) != y["counts"].get(c):
                    print("  COUNTS seed %d %s: %r -> %r"
                          % (x["seed"], c, x["counts"].get(c), y["counts"].get(c)), file=out)
    return regressions


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    if not base or not new:
        print("compare: no result records found", file=sys.stderr)
        return 2
    compare(base, new)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
