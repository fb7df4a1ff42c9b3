"""Benchmark of the ``nondim`` CLI on the paper's runs.

Usage, from the repository root::

    python3 perfbench/run.py --workload desk --seed 0 --seconds 25 --trace 0

Each round runs the workload's commands in a fresh interpreter
(``worker.py``), then checks every artifact against the benchmark's own
computations (``checks.py``).  Rounds repeat until ``--seconds`` have
passed, at least one.  Before the rounds, the set-up alone (interpreter
start, ``import nondim.cli``, input generation) is timed in separate fresh
interpreters.  With ``--trace 0`` the last stdout line reports the
end-to-end metrics; with ``--trace 1`` the rounds run traced and it reports
the per-layer metrics (``spans.py``).  Host steal and load figures, read
from ``/proc`` before and after the run, are printed on the line before and
appended with the metrics to ``.perfbench-out/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

#: Set-up-only interpreters started before the rounds; setup_s is the
#: median over these and the rounds' own set-up.
SETUP_PROBES = 7
#: Everything, rounds included, must end within this many seconds.
RUN_BUDGET_S = 170.0
#: Aggregation calls per RK4 step: two distributions, four stages.
AGG_CALLS_PER_STEP = 8


class WorkerError(Exception):
    pass


def read_host() -> dict | None:
    """Cumulative CPU jiffies (user ... steal) and the load averages."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
        load = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None
    return {"cpu": [int(v) for v in fields], "load": [float(v) for v in load]}


def host_figures(before: dict | None, after: dict | None) -> dict | None:
    """Shares of the host's CPU time stolen and busy during the run."""
    if before is None or after is None:
        return None
    delta = [a - b for a, b in zip(after["cpu"], before["cpu"])]
    total = sum(delta[:8]) or 1
    return {
        "steal_share": delta[7] / total,
        "busy_share": 1.0 - (delta[3] + delta[4]) / total,
        "load_before": before["load"],
        "load_after": after["load"],
    }


def spawn(mode: str, workload: str, seed: int, out: Path, deadline: float) -> dict:
    """Run ``worker.py`` once; its record gains ``setup_s`` from our clock."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), str(out)],
            capture_output=True, text=True, timeout=max(deadline - started, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["setup_done"] - started
    return record


def run(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """(result line, log record) of one benchmark run."""
    deadline = time.monotonic() + RUN_BUDGET_S
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    cmds = workloads.commands(workload, seed, out / "inputs")
    before = read_host()

    setups = [spawn("setup", workload, seed, out, deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    attempted = failed = 0
    walls, rss_mb, usage, layers, errors, round_times = [], [], [], [], [], []
    started = time.monotonic()
    while True:
        attempted += len(cmds)
        round_started = time.monotonic()
        try:
            record = spawn("trace" if traced else "run", workload, seed, out, deadline)
        except WorkerError as exc:
            failed += len(cmds)
            errors.append(str(exc))
            break
        setups.append(record["setup_s"])
        walls.append(record["wall_s"])
        rss_mb.append(record["maxrss_kb"] / 1024.0)
        usage.append({k: record[k] for k in ("user_s", "sys_s", "minor_faults")})
        layer = spans.layer_metrics(out / "trace.npz", record["import_s"]) if traced else None
        for cmd, code in zip(cmds, record["exit_codes"]):
            try:
                checks.check_command(cmd, out / cmd.name, code)
                if layer and cmd.check.startswith("pbe"):
                    want = AGG_CALLS_PER_STEP * layer["pbe.steps"]
                    if layer["pbe.agg_calls"] != want:
                        raise checks.CheckError(
                            f"{layer['pbe.agg_calls']} aggregation calls, want {want}")
            except checks.CheckError as exc:
                failed += 1
                errors.append(f"{cmd.name}: {exc}")
        if layer:
            layers.append(layer)
        round_times.append(time.monotonic() - round_started)
        # Start another round only if it should end within the run's time
        # (and well within the budget), judged by the rounds so far.
        now = time.monotonic()
        if (now - started + statistics.median(round_times) > seconds
                or now + 2 * max(round_times) > deadline):
            break

    host = host_figures(before, read_host())
    if traced:
        metrics = {name: {"value": statistics.median(l[name] for l in layers), "unit": unit}
                   for name, unit in spans.LAYER_UNITS.items()} if layers else {}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"} if walls else None,
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss_mb), "unit": "MB"} if rss_mb else None,
        }
        metrics = {k: v for k, v in metrics.items() if v is not None}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    log = {"workload": workload, "seed": seed, "trace": traced, "seconds": seconds,
           "rounds": len(walls), "wall_s": walls, "setup_s": setups, "peak_rss_mb": rss_mb,
           "usage": usage, "host": host, "errors": errors, "result": result}
    return result, log


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nondim" / "cli.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    result, log = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(log) + "\n")
    for error in log["errors"]:
        print(f"FAILED {error}")
    if args.trace and log["wall_s"]:
        print(f"traced wall_s (median of {len(log['wall_s'])}): "
              f"{statistics.median(log['wall_s']):.4f}")
    print("host: " + json.dumps(log["host"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
