"""Tests of the benchmark itself (not of lecam): run with
``python -m pytest bench/tests -q`` from the repository root."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import lecam.cli
import oracles
import run
import workloads
from conftest import BENCH, ROOT


def _bench(capsys, monkeypatch, *args):
    """Run ``bench/run.py`` in-process at smoke size; return (lines, result)."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "MIN_JOBS", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    assert run.main(list(args)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload, capsys, monkeypatch):
    lines, result = _bench(capsys, monkeypatch, "--workload", workload,
                           "--seed", "3", "--seconds", "0.1", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines)
        assert result["metrics"][name]["value"] > 0
    assert result["attempted"] == len(workloads.round_jobs(workload, 3, 0))
    assert result["correct"]


def test_same_seed_gives_identical_spec_files(tmp_path):
    for workload in workloads.WORKLOADS:
        first = [job.files for job in workloads.round_jobs(workload, 7, 2)]
        again = [job.files for job in workloads.round_jobs(workload, 7, 2)]
        assert first == again
        assert first != [job.files for job in workloads.round_jobs(workload, 8, 2)]
        names = [n for files in first for n in files]
        assert len(names) == len(set(names))
    for sub in ("a", "b"):
        for job in workloads.round_jobs("tests", 7, 0):
            for name, text in job.files.items():
                (tmp_path / sub).mkdir(exist_ok=True)
                (tmp_path / sub / name).write_text(text)
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_no_two_jobs_of_a_workload_share_a_spec():
    for workload in workloads.WORKLOADS:
        specs = [text for r in range(2) for job in workloads.round_jobs(workload, 1, r)
                 for name, text in job.files.items() if not name.endswith("payoff.json")]
        assert len(specs) == len(set(specs))


def _output(job, tmp_path):
    for name, text in job.files.items():
        (tmp_path / name).write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = lecam.cli.main(job.argv)
    return rc, json.loads(out.getvalue())


def _perturb(doc, path):
    """Add 1e-6 to the number at ``path`` (keys and indices)."""
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] += 1e-6
    return json.dumps(doc)


@pytest.mark.parametrize("workload, command, path", [
    ("tests", "price", ["price_direct"]),
    ("tests", "price", ["price_via_tests"]),
    ("tests", "price", ["report", "terms", 0, "power_alt"]),
    ("tests", "np", ["price"]),
    ("tests", "np", ["bayes_risk"]),
    ("tests", "dynamics", ["price"]),
    ("bounds", "bounds", ["lower"]),
    ("bounds", "bounds", ["upper"]),
    ("bounds", "dynamics", ["price"]),
    ("limit", "converge", [0, "p_N"]),
    ("limit", "converge", [1, "var_gap"]),
    ("limit", "lan-report", [1, "q_logs_var_gap"]),
])
def test_oracle_rejects_a_value_perturbed_by_1e_6(workload, command, path, tmp_path,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    job = next(j for j in workloads.round_jobs(workload, 5, 0) if j.command == command)
    rc, doc = _output(job, tmp_path)
    assert oracles.check(job, rc, json.dumps(doc)).ok
    assert not oracles.check(job, rc, _perturb(doc, path)).ok


def test_tie_probe_counts_route_disagreements(tmp_path, monkeypatch):
    """The probe's jobs are fixed, and a job counts only when the two routes
    differ by more than the tolerance or the command does not exit 0."""
    monkeypatch.chdir(tmp_path)
    jobs = workloads.tie_probe_jobs()
    assert len(jobs) == 294
    assert [j.files for j in jobs] == [j.files for j in workloads.tie_probe_jobs()]
    rc, doc = _output(jobs[0], tmp_path)
    doc["price_via_tests"] = doc["price_direct"]
    assert not oracles.routes_disagree(rc, json.dumps(doc))
    assert oracles.routes_disagree(1, json.dumps(doc))
    assert oracles.routes_disagree(rc, _perturb(doc, ["price_via_tests"]))


@pytest.mark.parametrize("workload, stressed", [
    ("limit", ["lattice.self_s", "lan.self_s", "lattice.law_s", "lattice.combine_s"]),
    ("tests", ["lattice.paths_s", "experiments.self_s", "pricing.self_s"]),
    ("bounds", ["lattice.law_s", "pricing.self_s", "lattice.measures_s", "cli.self_s"]),
])
def test_traced_run_reports_self_time_of_stressed_layers(workload, stressed, capsys,
                                                         monkeypatch):
    _, result = _bench(capsys, monkeypatch, "--workload", workload, "--seed", "2",
                       "--seconds", "0.1", "--trace", "1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(result["metrics"]) == declared
    for name in stressed:
        assert result["metrics"][name]["value"] > 0, name


def test_missing_source_function_is_absent_not_fatal(tmp_path):
    script = f"""
import sys, io, contextlib
sys.path[:0] = [{BENCH!r}, {os.path.join(ROOT, "src")!r}]
import lecam, lecam.cli, tracing, workloads
tracing.SOURCES["law"] = ("lattice", "no_such_function")
tracer = tracing.Tracer(lecam)
tracer.install()
job = workloads.round_jobs("limit", 1, 0)[0]
for name, text in job.files.items():
    open(name, "w").write(text)
with contextlib.redirect_stdout(io.StringIO()):
    assert lecam.cli.main(job.argv) == 0
tracer.jobs = 1
out = tracer.summary()
assert out["lattice.law_s"] is None and out["pricing.laws_per_price"] is None
assert out["lattice.combine_s"] > 0 and out["lattice.self_s"] > 0
"""
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "limit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
