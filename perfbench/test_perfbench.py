"""Tests of the benchmark itself, at tiny sizes: python3 -m pytest perfbench"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke_run_of_every_workload(workload):
    runner = run.Runner(workloads.setup(workload, seed=7, tiny=True))
    runner.run_pass()
    runner.run_pass()
    assert runner.failed == 0
    assert runner.attempted == 2 * len(runner.jobs) > 0


def test_seed_fixes_order_and_blank_index():
    def names(seed):
        return [j.name for j in workloads.build_jobs("ray_audit", seed)]

    assert names(3) == names(3)
    assert len({tuple(names(s)) for s in range(10)}) > 1


def test_corrupted_payload_counts_as_failure_without_crashing():
    jobs = workloads.build_jobs("battery", seed=1, tiny=True)
    prob = next(j for j in jobs if j.name.startswith("delete prob"))
    honest = prob.run
    prob.run = lambda: json.dumps({**json.loads(honest()), "probability": {"num": 1, "den": 2}})
    selftest = next(j for j in jobs if j.name.startswith("selftest"))
    selftest.run = lambda: "not json"
    runner = run.Runner(jobs)
    runner.run_pass()
    assert (runner.failed, runner.attempted) == (2, len(jobs))


def test_stdout_bytes_that_change_between_passes_fail():
    jobs = workloads.build_jobs("battery", seed=1, tiny=True)
    runner = run.Runner(jobs)
    runner.run_pass()
    job = next(j for j in jobs if j.name.startswith("unitary-group"))
    honest = job.run
    job.run = lambda: honest() + "\n"  # same payload, different bytes
    runner.run_pass()
    assert runner.failed == 1


def test_speed_probe_samples_inside_jobs_and_is_not_timed():
    def spin() -> str:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
        return "done"

    runner = run.Runner([workloads.Job("spin", spin, lambda out, _: None, str)])
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with runner.probe:
        wall = runner.run_pass()
    elapsed = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    job_s, samples = runner.pass_times[-1]
    assert job_s == wall and len(samples) >= 3
    # Time inside the handler is not job time.
    assert wall <= elapsed - sum(samples)
    assert runner.failed == 0


def test_speed_probe_takes_no_samples_while_workers_run():
    job = workloads.Job("spin", lambda: time.sleep(0.35), lambda out, _: None, str, workers=2)
    runner = run.Runner([job])
    with runner.probe:
        runner.run_pass()
    assert runner.pass_times[-1][1] == [] and not runner.probe.paused


def test_traced_and_untraced_passes_give_identical_outputs():
    from f1q import frames

    original = frames.tensor
    for workload in run.WORKLOADS:
        runner = run.Runner(workloads.setup(workload, seed=5, tiny=True))
        runner.run_pass()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        assert runner.failed == 0, workload
        assert tracer.spans(), workload
    assert frames.tensor is original


def test_traced_pass_reports_every_layer_metric():
    runner = run.Runner(workloads.setup("clone_search", seed=2, tiny=True))
    wall = runner.run_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    values, absent = tracing.per_layer(tracer, 1, traced, wall, {})
    assert set(values) == {name for name, _, _ in tracing.metric_specs()}
    assert values["frames.tensor.calls"] > 0 and values["clone_delete.clones_rays.calls"] > 0
    assert values["cli.main.calls"] == 0
    assert any(line.startswith("cli.self_s") for line in absent)
    assert abs(values["trace.accounted_share"] - 1) < 0.05


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        tracing.metric_specs()
    )


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
