#!/usr/bin/env python3
"""The benchmark's own tests: the compare rules on synthetic results, a
smoke run of every workload at both --trace settings, the pinned answer
digest of the cold_viterbi smoke queries, BENCHMARK.json against run.py's
tables, and the refusal to run without the program sources.

    python3 perfbench/selftest.py

Uses the same build directory as run.py.
"""
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import run  # noqa: E402

PINNED = json.loads((HERE / "pinned.json").read_text())


def check(cond, what):
    if not cond:
        raise SystemExit("selftest FAILED: " + what)
    print("ok  " + what)


def record(workload, seed, metrics, counts=None):
    return {"workload": workload, "seed": seed, "trace": 0, "smoke": False,
            "metrics": {k: {"value": v, "unit": "ms"} for k, v in metrics.items()},
            "counts": counts or {}}


def test_compare():
    base = [record("w", s, {"query_p50_ms": 10.0 + 0.1 * (s % 3)}) for s in range(10)]
    faster = [record("w", s, {"query_p50_ms": 8.0 + 0.1 * (s % 3)}) for s in range(10)]
    slower = [record("w", s, {"query_p50_ms": 13.0 + 0.1 * (s % 3)}) for s in range(10)]
    noisy = [record("w", s, {"query_p50_ms": 10.0 * (1 + (s % 2))}) for s in range(10)]
    out = io.StringIO()
    compare.compare(base, faster, out)
    check("improved" in out.getvalue(), "compare: a 20% faster change wins every pair")
    out = io.StringIO()
    check(compare.compare(base, slower, out) == 1 and "regressed" in out.getvalue(),
          "compare: a 30% slower change is a regression beyond the 25% bound")
    out = io.StringIO()
    compare.compare(base, noisy, out)
    check("unresolved" in out.getvalue(),
          "compare: a spread wider than the bound is unresolved")
    drift = [record("w", s, {"query_p50_ms": 10.0}, {"search.evaluations": 5 + (s == 3)})
             for s in range(10)]
    same = [record("w", s, {"query_p50_ms": 10.0}, {"search.evaluations": 5})
            for s in range(10)]
    out = io.StringIO()
    compare.compare(same, drift, out)
    check("COUNTS seed 3 search.evaluations" in out.getvalue(),
          "compare: a deterministic count that differs for a seed is flagged")


def run_bench(args, cwd=ROOT, env=None):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=900)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def test_smoke():
    for workload, _ in run.WORKLOADS + run.EXTRA_WORKLOADS:
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            rc, lines, err = run_bench(["--workload", workload, "--seed", "1",
                                        "--seconds", "1", "--trace", str(trace),
                                        "--smoke"])
            what = "smoke %s --trace %d" % (workload, trace)
            check(rc == 0 and lines, what + " exits 0 (%s)" % err[-300:])
            result = json.loads(lines[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  what + " prints the four result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  what + " answers correctly")
            check([(n, m["unit"]) for n, m in result["metrics"].items()]
                  == [(n, u) for n, u, *_ in table],
                  what + " reports every metric with its unit")
            if workload == "cold_viterbi" and trace == 0:
                digest = [l.split()[-1] for l in lines if l.startswith("answer digest")]
                check(digest == [PINNED["cold_viterbi_smoke_seed1"]],
                      "cold_viterbi smoke answers match the pinned digest %s (got %s)"
                      % (PINNED["cold_viterbi_smoke_seed1"], digest))


def test_spec():
    check(json.loads((ROOT / "BENCHMARK.json").read_text()) == run.spec(),
          "BENCHMARK.json matches run.py's tables")


def test_refuses_without_sources():
    scratch = run.build_dir()
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        rc, lines, _ = run_bench(["--workload", "cold_viterbi", "--seed", "1",
                                  "--seconds", "1", "--trace", "0"], cwd=tmp, env=env)
        check(rc != 0 and not any(l.startswith("{") for l in lines),
              "without the program sources the benchmark fails and prints no result")


def main():
    test_compare()
    test_spec()
    test_refuses_without_sources()
    test_smoke()
    print("selftest passed")


if __name__ == "__main__":
    main()
