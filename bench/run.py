"""The lecam benchmark: seeded workloads, checked outputs, named metrics.

Run from the root of a source checkout::

    python3 bench/run.py --workload limit --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``bench/README.md`` for the
workloads, the metrics and which layer metric should move which end-to-end
metric.

The run builds nothing but bytecode: it compiles ``src/lecam`` and puts
``src`` on the workload process's path.  Everything it writes goes under
``.bench_work/`` in the checkout.  Without ``src/lecam`` it exits 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

# Until the workload process has exited, this process imports only the
# standard library: a child's ru_maxrss also counts the image it was forked
# from before exec, so a parent holding numpy and scipy would raise the peak
# RSS measured for small workloads.
import workloads  # noqa: E402

#: Fresh interpreters started only to time set-up, this many before and as
#: many after the workload process (which gives one more sample).
SETUP_PROBES = 4
#: Every timed run has at least this many jobs, so at least ten lie above p90.
MIN_JOBS = 100
#: No round starts after this many seconds of the loop ...
HARD_SECONDS = 140.0
#: ... and a workload process still alive after this many is killed.
KILL_SECONDS = 170.0

#: BLAS/OpenMP pool size in the workload process.  Jobs run one at a time and
#: use BLAS only for small matrix-vector products, so one thread measures the
#: same work without idle pool threads spinning beside the timed one.
BLAS_THREADS = 1

PROBE = ("import time, lecam.cli; "
         "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))")

E2E_UNITS = {
    "setup_s": "s", "jobs_per_s": "jobs/s", "job_p50_ms": "ms",
    "job_p90_ms": "ms", "peak_rss_mb": "MB", "pass_frac": "fraction",
}


class BenchError(Exception):
    """The benchmark could not produce a measurement."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env(src: str) -> dict:
    env = dict(os.environ)
    env.pop("LECAM_MAX_PATHS", None)          # default caps, as users get them
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap ``proc``; kill it at ``deadline``.  Returns its rusage."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if _now() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise BenchError("workload process timed out")
        time.sleep(0.02)


def _setup_probe(env: dict, workdir: str, deadline: float) -> float:
    t0 = _now()
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=workdir,
                          capture_output=True, text=True,
                          timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0:
        raise BenchError(f"import probe failed: {proc.stderr.strip()}")
    return float(proc.stdout) - t0


def _run_worker(cfg: dict, env: dict, deadline: float) -> tuple[dict, float, float]:
    """Run one workload process; return (result, set-up s, peak RSS MB)."""
    cfg_path = os.path.join(cfg["workdir"], f"config-{cfg['tag']}.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    t0 = _now()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), cfg_path],
                            env=env, cwd=cfg["workdir"], stdout=subprocess.DEVNULL)
    usage = _wait(proc, deadline)
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")
    with open(cfg["result"]) as fh:
        result = json.load(fh)
    return result, result["imported_at"] - t0, usage.ru_maxrss / 1024.0


def _check(workload: str, seed: int, records: list) -> tuple[int, list[str]]:
    """Run the oracles; return (failed, notes)."""
    import oracles
    rounds: dict[int, list] = {}
    failed = 0
    notes = []
    for r, i, rc, _, out, err in records:
        if r not in rounds:
            rounds[r] = workloads.round_jobs(workload, seed, r)
        job = rounds[r][i]
        verdict = oracles.check(job, rc, out)
        if not verdict.ok:
            failed += 1
            notes.append(f"FAIL {job.name} {job.command} "
                         f"{job.check.get('payoff', '')}: {verdict.detail} {err.strip()}")
    return failed, notes


def _tie_probe(src: str, workdir: str) -> tuple[int, int]:
    """Run ``workloads.tie_probe_jobs`` in this process, after the workload
    process has exited; return (jobs whose pricing routes disagree, jobs)."""
    import contextlib
    import io
    import oracles
    sys.path.insert(0, src)
    import lecam.cli
    probe_dir = os.path.join(workdir, "tie-probe")
    os.makedirs(probe_dir)
    jobs = workloads.tie_probe_jobs()
    disagree = 0
    for job in jobs:
        argv = list(job.argv)
        for name, text in job.files.items():
            path = os.path.join(probe_dir, name)
            with open(path, "w") as fh:
                fh.write(text)
            argv[argv.index(name)] = path
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = lecam.cli.main(argv)
            except SystemExit as exc:        # argparse rejects the command line
                rc = exc.code
            except Exception as exc:         # noqa: BLE001 - counted as disagreement
                rc = repr(exc)
        disagree += oracles.routes_disagree(rc, out.getvalue())
    return disagree, len(jobs)


def _percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def _e2e(args, cfg, env, deadline) -> tuple[dict, list, str]:
    setups = [_setup_probe(env, cfg["workdir"], deadline) for _ in range(SETUP_PROBES)]
    result, setup, rss = _run_worker(dict(cfg, tag="e2e", trace=False), env, deadline)
    setups.append(setup)
    setups += [_setup_probe(env, cfg["workdir"], deadline) for _ in range(SETUP_PROBES)]
    durations = [rec[3] for rec in result["jobs"]]
    by_shape: dict[int, list[float]] = {}
    for rec in result["jobs"]:
        by_shape.setdefault(rec[1], []).append(rec[3])
    round_time = sum(statistics.median(d) for d in by_shape.values())
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(by_shape) / round_time,
        "job_p50_ms": 1000.0 * statistics.median(durations),
        "job_p90_ms": 1000.0 * _percentile(durations, 0.9),
        "peak_rss_mb": rss,
    }
    info = (f"rounds {result['rounds']}, timed jobs {len(durations)}, "
            f"setup samples {len(setups)}")
    return metrics, result["jobs"], info


def _traced(args, cfg, env, deadline) -> tuple[dict, list, str]:
    plain, _, _ = _run_worker(dict(cfg, tag="plain", trace=False,
                                   seconds=args.seconds / 2.0, min_jobs=0),
                              env, deadline)
    traced, _, _ = _run_worker(dict(cfg, tag="traced", trace=True,
                                    rounds=plain["rounds"]), env, deadline)
    base = sum(rec[3] for rec in plain["jobs"])
    metrics = dict(traced["layers"])
    metrics["trace_overhead_frac"] = sum(rec[3] for rec in traced["jobs"]) / base - 1.0
    info = (f"rounds {plain['rounds']} untraced then traced, "
            f"jobs {len(plain['jobs'])} + {len(traced['jobs'])}")
    return metrics, plain["jobs"] + traced["jobs"], info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = _now() + KILL_SECONDS

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lecam", "cli.py")):
        sys.stderr.write(f"no lecam source tree under {src}; run from a checkout\n")
        return 2
    if not compileall.compile_dir(os.path.join(src, "lecam"), quiet=1):
        sys.stderr.write("lecam sources do not compile\n")
        return 2
    workdir = os.path.join(root, ".bench_work",
                           f"{args.workload}-{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = _child_env(src)
    cfg = {
        "src": src, "workdir": workdir, "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "min_jobs": MIN_JOBS,
        "rounds": None, "hard_seconds": HARD_SECONDS,
        "result": os.path.join(workdir, "result.json"),
        "spans": os.path.join(workdir, "spans.csv.gz"),
    }
    try:
        run = _traced if args.trace else _e2e
        metrics, records, info = run(args, cfg, env, deadline)
    except (BenchError, OSError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    failed, notes = _check(args.workload, args.seed, records)
    attempted = len(records)
    if args.trace:
        import tracing
        units = tracing.UNITS
        disagree, probes = _tie_probe(src, workdir)
        metrics["pricing.route_disagree_frac"] = disagree / probes
        info += (f"; tie probe (not a workload job): pricing routes disagree on "
                 f"{disagree} of {probes} at-the-node digitals")
    else:
        units = E2E_UNITS
        metrics["pass_frac"] = (attempted - failed) / attempted
    print(f"workload {args.workload}, seed {args.seed}, BLAS/OpenMP threads {BLAS_THREADS}, "
          + info)
    for note in notes:
        print(note)
    print(f"attempted {attempted}, failed {failed} (fail_frac {failed / attempted:.6g})")
    absent = sorted(k for k, v in metrics.items() if v is None)
    if absent:
        print("absent (source function gone): " + ", ".join(absent))
    out = {}
    for name, value in metrics.items():
        if value is None:
            continue
        out[name] = {"value": value, "unit": units[name]}
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
