"""tabaudit benchmark: end-to-end CLI timings, or per-layer numbers when traced.

Run from the root of a checkout (nothing needs building; tabaudit is
imported from ``src/``):

    python3 bench/run.py --workload hex-spill --seed 1 --seconds 40 --trace 0

The workload's inputs are generated from ``--seed`` under
``.bench_work/<workload>/``. With ``--trace 0`` the run repeats rounds of
the workload's ``tabaudit`` commands, each a separate process, for about
``--seconds`` seconds (at least three rounds) and reports each
end-to-end metric as the median over rounds. With ``--trace 1`` it
reports the per-layer metrics of ``tracing.py`` instead. Every command's
output is checked; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. ``--scale tiny``
shrinks every input, for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_ROUNDS = 3
OP_TIMEOUT_S = 100.0
# No round starts once it could end past this many seconds after start.
HARD_LIMIT_S = 150.0

# (name, unit) of every end-to-end metric, in output order.
END_TO_END = [
    ("setup_s", "s"), ("index_s", "s"), ("index_peak_mb", "MB"), ("scan_s", "s"),
    ("scan_peak_mb", "MB"), ("audit_s", "s"), ("serialize_s", "s"), ("gen_quartile_s", "s"),
]

# What the installed `tabaudit` console script runs, plus a report of the
# process's peak RSS at exit. VmHWM covers only the address space built
# after exec; the exit rusage of a child also counts the pages it shared
# with the benchmark process before exec.
LAUNCHER = """import atexit, os, sys
def _peak():
    with open("/proc/self/status") as status, open(os.environ["BENCH_PEAK_FILE"], "w") as out:
        out.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
atexit.register(_peak)
from tabaudit.cli import main
sys.exit(main())
"""


def run_cli(args: list[str], env: dict, logs: Path) -> tuple[float, float, int, str]:
    """One tabaudit process: wall seconds, peak RSS in MB, exit code, stdout."""
    out_path, err_path, peak_path = logs / "stdout.txt", logs / "stderr.txt", logs / "peak.txt"
    peak_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", LAUNCHER, *args], stdout=out,
                                stderr=err, env=dict(env, BENCH_PEAK_FILE=str(peak_path)),
                                cwd=ROOT)
        # A blocking wait returns at exit; wait(timeout=...) polls with sleeps
        # of up to 50 ms, which would add that much error to every sample.
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
            timer.join()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = perf_counter() - start
    peak_kb = int(peak_path.read_text()) if peak_path.exists() else 0
    return wall, peak_kb / 1024, code, out_path.read_text(errors="replace")


def end_to_end(wl: workloads.Workload, env: dict, seconds: float):
    """Rounds of every CLI operation; returns per-metric samples and failures."""
    samples: dict[str, list[float]] = defaultdict(list)
    attempted = 0
    failures: list[str] = []
    logs = wl.root / "logs"
    logs.mkdir()

    def invoke(args, check) -> tuple[float, float]:
        nonlocal attempted
        attempted += 1
        wall, peak, code, stdout = run_cli(args, env, logs)
        try:
            if code != 0:
                err = (logs / "stderr.txt").read_text(errors="replace").strip()
                raise checks.CheckFailed(f"exit code {code}: {err[-300:]}")
            check(stdout)
        except Exception as exc:  # one failed operation must not stop the run
            failures.append(f"{' '.join(a for a in args if not a.startswith('/'))}: {exc}")
        return wall, peak

    rounds = 0
    measure_start = perf_counter()
    while True:
        round_start = perf_counter()
        samples["setup_s"].append(invoke(["--version"], checks.check_version)[0])
        walls: dict[str, float] = defaultdict(float)
        for op in wl.ops:
            if op.out is not None:
                shutil.rmtree(op.out, ignore_errors=True)
            wall, peak = invoke(op.args, op.check)
            walls[op.metric] += wall
            if op.peak:
                samples[op.peak].append(peak)
        for metric, wall in walls.items():
            samples[metric].append(wall)
        rounds += 1
        now = perf_counter()
        per_round = now - round_start
        if now + per_round - T_START > HARD_LIMIT_S:
            break
        if rounds >= MIN_ROUNDS and now - measure_start + per_round / 2 > seconds:
            break
    return samples, attempted, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "tabaudit" / "cli.py").is_file():
        print(f"bench: no tabaudit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tabaudit

    if Path(tabaudit.__file__).resolve().parent != (SRC / "tabaudit").resolve():
        print(f"bench: imported tabaudit from {tabaudit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    root = WORK / args.workload
    shutil.rmtree(root, ignore_errors=True)
    (root / "tmp").mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(root / "tmp"))
    _, _, code, stdout = run_cli(["--version"], env, root / "tmp")  # warm bytecode caches
    if code != 0:
        print(f"bench: `tabaudit --version` exited {code}: {stdout!r}", file=sys.stderr)
        return 1

    t0 = perf_counter()
    wl = workloads.generate(args.workload, args.seed, args.scale, root)
    print(f"{args.workload} seed {args.seed} ({args.scale}): inputs generated in "
          f"{perf_counter() - t0:.2f} s")

    samples: dict[str, list[float]] = {}
    if args.trace:
        import tracing

        metrics, attempted, failures, report = tracing.run(wl)
        units = tracing.UNITS
        print("\n".join(report))
        for name, value in metrics.items():
            print(f"  {name:36s} {value:14.6g} {units[name]}")
    else:
        samples, attempted, failures = end_to_end(wl, env, args.seconds)
        units = dict(END_TO_END)
        metrics = {}
        for name, unit in END_TO_END:
            values = samples[name]
            metrics[name] = statistics.median(values)
            print(f"  {name:16s} median {metrics[name]:10.4f} {unit}  n={len(values)}  "
                  f"min {min(values):.4f}  max {max(values):.4f}")
    (root / "samples.json").write_text(json.dumps(
        {"metrics": metrics, "samples": samples, "failures": failures}, indent=2) + "\n", encoding="utf-8")
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


T_START = perf_counter()

if __name__ == "__main__":
    raise SystemExit(main())
