"""One round of a workload in a fresh interpreter.

Run by ``run.py`` as ``python3 worker.py MODE WORKLOAD SEED OUT_DIR`` with
MODE one of ``setup`` (import and make inputs, then stop), ``run`` or
``trace``.  The last stdout line is a JSON record: the monotonic clock
reading when set-up ended, the time taken to import ``nondim.cli``, the
wall time from inputs ready to the last artifact written, each command's
exit code, and the process's peak resident memory, CPU times and page
faults.  The commands' own output goes to ``OUT_DIR/<command>/stdout.txt``.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def invoke(main, args: list[str], out: Path) -> int:
    """Run one ``nondim`` command in this process; return its exit code."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "stdout.txt", "w") as log, contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log):
        try:
            main.main(args=["--out", str(out)] + args, prog_name="nondim",
                      standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
    return 0


def main() -> None:
    mode, workload, seed, out_dir = sys.argv[1], sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
    t0 = time.perf_counter()
    import nondim.cli

    import_s = time.perf_counter() - t0
    import workloads

    cmds = workloads.commands(workload, seed, out_dir / "inputs")
    record = {"setup_done": time.monotonic(), "import_s": import_s}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        t_ready = time.perf_counter()
        record["exit_codes"] = [
            invoke(nondim.cli.main, cmd.args, out_dir / cmd.name) for cmd in cmds
        ]
        record["wall_s"] = time.perf_counter() - t_ready
        if tracer is not None:
            tracer.save(out_dir / "trace.npz")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record.update(maxrss_kb=usage.ru_maxrss, user_s=usage.ru_utime, sys_s=usage.ru_stime,
                  minor_faults=usage.ru_minflt)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
