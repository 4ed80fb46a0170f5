"""Workload process: one closed-loop client calling ``lecam.cli.main``.

Started by ``run.py`` in a fresh interpreter as::

    python3 worker.py CONFIG.json

``CONFIG.json`` names the source tree, workload, seed, stopping rule, and
the result file to write.  The process imports ``lecam`` first and records
the monotonic clock right after, so the parent can take interpreter start
plus import as set-up time.  It then runs one untimed warm-up job and then
whole rounds of jobs, one at a time, each timed around ``main(argv)`` with
its standard output captured.  Checking happens in the parent, after this
process has exited, so the oracles' memory and imports stay out of this
process's peak RSS.
"""

import sys
import time

import json
import os

with open(sys.argv[1]) as _fh:
    CONFIG = json.load(_fh)
sys.path.insert(0, CONFIG["src"])

import lecam.cli  # noqa: E402

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402


def _call(argv):
    """Run one command; return (exit code or exception text, seconds, stdout,
    stderr).  The previous job's garbage is collected first, untimed, as a
    fresh ``lecam`` process would never see it."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = lecam.cli.main(argv)
        except SystemExit as exc:            # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:                    # noqa: BLE001 - reported as a failed job
            rc = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
    return rc, elapsed, out.getvalue(), err.getvalue()


def _write_specs(jobs) -> None:
    for job in jobs:
        for name, text in job.files.items():
            with open(name, "w", newline="") as fh:
                fh.write(text)


def main() -> int:
    cfg = CONFIG
    src = os.path.realpath(cfg["src"])
    if not os.path.realpath(lecam.__file__).startswith(src + os.sep):
        sys.stderr.write(f"lecam imported from {lecam.__file__}, not {src}\n")
        return 3
    tracer = None
    if cfg["trace"]:
        import tracing
        tracer = tracing.Tracer(lecam)
        tracer.install()
    os.chdir(cfg["workdir"])

    warm = workloads.warmup_job(cfg["workload"], cfg["seed"])
    _write_specs([warm])
    _call(warm.argv)
    if tracer is not None:
        tracer.reset()

    records = []
    loop_start = time.monotonic()
    r = 0
    while True:
        jobs = workloads.round_jobs(cfg["workload"], cfg["seed"], r)
        _write_specs(jobs)
        for i, job in enumerate(jobs):
            rc, elapsed, out, err = _call(job.argv)
            if tracer is not None:
                tracer.jobs += 1
            records.append([r, i, rc, elapsed, out, err[-2000:]])
        r += 1
        elapsed = time.monotonic() - loop_start
        if cfg["rounds"] is not None:
            if r >= cfg["rounds"]:
                break
        elif elapsed >= cfg["seconds"] and len(records) >= cfg["min_jobs"]:
            break
        if elapsed >= cfg["hard_seconds"]:
            break

    result = {"imported_at": IMPORTED_AT, "rounds": r, "jobs": records}
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write(cfg["spans"])
    with open(cfg["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
