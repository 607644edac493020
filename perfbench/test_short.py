#!/usr/bin/env python3
"""Short-mode test of the benchmark itself.

    python3 perfbench/test_short.py

Runs from the repository root (or anywhere: it finds the root from its
own path). Each check prints one line; the exit code is the number of
failed checks.
- Every BENCHMARK.json workload, plus serve-cold (runnable, but outside
  the gated set), untraced and traced, for one second: the result line
  has exactly the keys correct/attempted/failed/metrics, the run is
  correct, and every metric BENCHMARK.json names for that mode is
  printed with its unit.
- Every per-layer metric appears in README.md's layer table.
- A corrupted warm response (serve-warm, untraced and traced) and a
  skewed replayed-miss count (simulate) are counted in `failed`.
- In a directory holding only BENCHMARK.json and perfbench/, run.py
  exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
failures = 0


def check(ok, what):
    global failures
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures += 1


def run(workload, trace, inject="none", cwd=ROOT):
    out = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--inject", inject],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = out.stdout.strip().splitlines()
    result = None
    if out.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return out, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "README.md")) as f:
        readme = f.read()
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}

    for m in bench["per_layer"]:
        base = m["name"]
        for suffix in (".p50", ".p99", ".n"):
            if base.endswith(suffix):
                base = base[: -len(suffix)]
        if base.startswith("cache.m"):
            base = "cache.m" + base.split(".")[1][1:]
        check(("`" + base) in readme, f"README layer table covers {m['name']}")

    names = [w["name"] for w in bench["workloads"]]
    for name in names + [n for n in ["serve-cold"] if n not in names]:
        for trace in (0, 1):
            out, r = run(name, trace)
            tag = f"{name} --trace {trace}"
            check(r is not None, f"{tag}: exits 0 with a JSON result line")
            if r is None:
                sys.stderr.write(out.stderr[-2000:])
                continue
            check(sorted(r) == ["attempted", "correct", "failed", "metrics"],
                  f"{tag}: result keys")
            check(r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1,
                  f"{tag}: correct, {r['failed']} of {r['attempted']} failed")
            got = r["metrics"]
            check(set(got) == {m["name"] for m in expected[trace]},
                  f"{tag}: prints exactly the BENCHMARK.json metrics")
            for m in expected[trace]:
                v = got.get(m["name"])
                check(v is not None and v.get("unit") == m["unit"]
                      and isinstance(v.get("value"), (int, float)),
                      f"{tag}: {m['name']} printed in {m['unit']}")

    for workload, trace, inject in [("serve-warm", 0, "corrupt-response"),
                                    ("serve-warm", 1, "corrupt-response"),
                                    ("simulate", 0, "miss-count")]:
        _, r = run(workload, trace, inject)
        check(r is not None and r["failed"] >= 1 and r["correct"] is False,
              f"{workload} --trace {trace} --inject {inject}: counted as failed")

    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
    out, r = run("simulate", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(out.returncode != 0 and r is None,
          "outside a source tree: non-zero exit, no result")
    return failures


if __name__ == "__main__":
    sys.exit(main())
