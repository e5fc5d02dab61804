"""Self-test of the benchmark: every workload at tiny size, both modes.

    python3 bench/selftest.py

Checks that each run exits 0 with no failed operation, that it emits
exactly the metrics BENCHMARK.json names (end-to-end ones untraced,
per-layer ones traced) with their units, and that the benchmark refuses
to run, printing no result, in a directory holding only BENCHMARK.json
and bench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            label = f"{workload} --trace {trace}"
            proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", trace, "--scale", "tiny")
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: failed {result['failed']}/{result['attempted']}: "
                                + "; ".join(l for l in proc.stdout.splitlines()
                                            if l.startswith("FAILED"))[:500])
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, units "
                                f"{sorted(k for k in want if k in got and got[k] != want[k])}")
            print(f"{label}: {result['attempted']} operations, failed {result['failed']}")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "7",
               "--seconds", "1")
    if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
        problems.append("benchmark ran in a directory without the program")
    print(f"without src/: exit {proc.returncode}")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
