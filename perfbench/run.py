"""The f1q benchmark: one workload per fresh process, closed loop, one client.

    python3 perfbench/run.py --workload clone_search --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

A run measures set-up in fresh interpreters, runs one untimed warm-up pass
of the workload's jobs at tiny sizes, then timed passes until ``--seconds``
have gone by. While the timed passes run, a timer signal interrupts them
every 0.1 s to time a fixed reference computation, so that each pass's time
can be read against the machine's speed during that pass (``SpeedProbe``).
Every job's output is checked after each pass, outside the timed region.
``--trace 1`` swaps the timed passes for one untraced pass followed by
traced passes, and reports the per-layer metrics instead of the end-to-end
ones. The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for people.
``--workload all`` runs every workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 15
IMPORT_PROBES = 3
WORKLOADS = ("clone_search", "group_filter", "ray_audit", "battery")
END_TO_END = (("pass_over_ref", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
MIN_TIMED_PASSES = 3
PROBE_INTERVAL_S = 0.1


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Run environment.


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from its .git directory without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "load_start": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# Fresh-process probes.


def measure_setup(workload: str, seed: int) -> float:
    """Median launch-to-ready time of fresh interpreters running the set-up."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(probe, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_imports() -> dict[str, float]:
    """Median self import time of each f1q module, from ``-X importtime``."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import f1q.cli"
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            cwd=ROOT, check=True, capture_output=True, text=True,
        )
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2].startswith("f1q"):
                samples.setdefault(parts[2], []).append(int(parts[0]) / 1e6)
    return {mod: statistics.median(v) for mod, v in samples.items()}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# Passes.


@dataclass(frozen=True)
class _RefMatrix:
    order: int
    perm: tuple[int, ...]
    exps: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError(f"{self.perm} is not a permutation")
        object.__setattr__(self, "exps", tuple(e % self.order for e in self.exps))


def reference_work() -> int:
    """A fixed computation that calls no f1q code: about 3 ms of building,
    validating and hashing small frozen dataclasses, the kind of work f1q's
    value classes do."""
    seen = set()
    for perm in itertools.permutations(range(4)):
        for k in range(30):
            seen.add(_RefMatrix(5, perm, (k, k + 1, k + 2, k + 3)))
    return len(seen)


class SpeedProbe:
    """While entered, times ``reference_work`` every PROBE_INTERVAL_S of wall
    time from a SIGALRM handler in the middle of whatever is running.

    On a shared host the same pass runs up to 1.7x slower for seconds at a
    time, and the slowdown hits allocation-heavy Python most. Dividing a
    pass's time by the mean reference time sampled during that pass cancels
    most of it; no f1q code runs in that divisor. ``busy`` is the
    time spent in the handler, which the runner takes out of job times.

    The probe gauges one core. While a job keeps worker processes busy on
    every core, samples would time the scheduler instead, so the runner sets
    ``paused`` and the handler takes none. Workers do not inherit the timer.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy = 0.0
        self.paused = False

    def _tick(self, _signum, _frame) -> None:
        if self.paused:
            return
        # A collection started by the reference's allocations would walk the
        # heap of the job it interrupted, so the reference runs without one.
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            t1 = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - t1)
        finally:
            if collecting:
                gc.enable()
            self.busy += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Runner:
    """Runs passes over a job list, checks every output, counts failures."""

    def __init__(self, jobs: list) -> None:
        self.jobs = jobs
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self._digests: dict[str, str] = {}
        self.probe = SpeedProbe()
        # (seconds inside jobs, reference times sampled) of every pass.
        self.pass_times: list[tuple[float, list[float]]] = []

    def run_pass(self, tracer=None, jobs: list | None = None) -> float:
        """One pass over ``jobs`` (default: this runner's); returns the
        seconds spent inside jobs."""
        jobs = self.jobs if jobs is None else jobs
        self.passes += 1
        outputs, errors, wall = {}, {}, 0.0
        first_sample = len(self.probe.samples)
        for index, job in enumerate(jobs):
            busy = self.probe.busy
            self.probe.paused = job.workers > 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    outputs[job.name] = job.run()
                else:
                    job_id = f"{self.passes}.{index}"
                    outputs[job.name] = tracer.run_job(job_id, job.name, job.run)
            except Exception:
                errors[job.name] = traceback.format_exc(limit=3)
            finally:
                wall += time.perf_counter() - t0 - (self.probe.busy - busy)
                self.probe.paused = False
        for job in jobs:
            self.attempted += 1
            if job.name not in errors:
                try:
                    job.check(outputs[job.name], outputs)
                    digest = job.digest(outputs[job.name])
                    if self._digests.setdefault(job.name, digest) != digest:
                        raise ValueError("output differs from the first pass")
                except Exception as exc:
                    errors[job.name] = f"{type(exc).__name__}: {exc}"
            if job.name in errors:
                self.failed += 1
                print(f"FAILED pass {self.passes} job {job.name}: {errors[job.name]}",
                      file=sys.stderr)
        self.pass_times.append((wall, self.probe.samples[first_sample:]))
        return wall


def run_workload(args: argparse.Namespace) -> dict:
    import workloads

    env = environment()
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    runner = Runner(workloads.setup(args.workload, args.seed))
    # The warm-up runs the same code paths at tiny sizes, so it costs little.
    runner.run_pass(jobs=workloads.build_jobs(args.workload, args.seed, tiny=True))
    deadline = time.perf_counter() + args.seconds

    def time_left(walls: list[float]) -> bool:
        # A pass that would end past the deadline is not started, so a run
        # takes --seconds, not up to one pass more.
        return time.perf_counter() + statistics.median(walls) < deadline

    tracer = None
    if args.trace:
        walls = [runner.run_pass()]
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = [runner.run_pass(tracer)]
            while time_left(traced):
                traced.append(runner.run_pass(tracer))
        finally:
            tracer.uninstall()
    else:
        with runner.probe:
            walls = [runner.run_pass()]
            while len(walls) < MIN_TIMED_PASSES or time_left(walls):
                walls.append(runner.run_pass())
    env["load_end"] = os.getloadavg()[0]
    env["overloaded"] = max(env["load_start"], env["load_end"]) > env["nproc"]

    print(f"workload {args.workload} seed {args.seed}: {len(runner.jobs)} jobs per pass, "
          f"{runner.passes - 1} passes after a tiny warm-up pass, closed loop, one client")
    print("env " + json.dumps(env))
    if env["overloaded"]:
        print(f"WARNING: load average above nproc ({env['nproc']}); timings are suspect")
    print(f"error_rate {runner.failed / runner.attempted:.4g} ratio "
          f"({runner.failed} failed of {runner.attempted} jobs)")

    if not args.trace:
        timed = runner.pass_times[-len(walls):]
        ratios = [wall / statistics.mean(refs) for wall, refs in timed]
        metrics = {
            "pass_over_ref": statistics.median(ratios),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        refs = runner.probe.samples
        print(f"pass_over_ref {metrics['pass_over_ref']:.2f} ratio (median over "
              f"{len(walls)} timed passes of pass time / mean reference time in it: "
              + ", ".join(f"{r:.1f}" for r in ratios) + ")")
        print(f"wall_s {statistics.median(walls):.4f} s (median pass, not normalised: "
              + ", ".join(f"{w:.3f}" for w in walls) + ")")
        print(f"ref_ms {1e3 * statistics.median(refs):.3f} ms (median of {len(refs)} "
              f"reference samples, {1e3 * min(refs):.3f} to {1e3 * max(refs):.3f} ms)")
        print(f"setup_s {setup_s:.4f} s (median of {SETUP_PROBES} fresh interpreters)")
        print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB (this process and its children)")
        units = dict(END_TO_END)
    else:
        from tracing import metric_specs, per_layer

        traced_s = statistics.mean(traced)
        values, absent = per_layer(tracer, len(traced), traced_s, walls[0], measure_imports())
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(spans_path), {
            "workload": args.workload, "seed": args.seed, "traced_passes": len(traced),
            "env": env, "note": "work in workers=2 child processes is not split by layer",
        })
        specs = metric_specs()
        units = {name: unit for name, unit, _ in specs}
        metrics = {name: values[name] for name, _, _ in specs}
        print(f"traced {len(traced)} passes, mean {traced_s:.3f} s; untraced pass "
              f"{walls[0]:.3f} s; spans in {spans_path.relative_to(ROOT)}")
        print("time in workers=2 child processes is not split by layer; it is self "
              "time of the calling span")
        for name, unit, _ in specs:
            print(f"{name} {metrics[name]:.6g} {unit}")
        for line in absent:
            print(f"absent {line}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> dict:
    """Every workload in its own fresh process; a table of the results."""
    results, walls, failed_runs = {}, {}, []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            failed_runs.append(workload)
            continue
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
            if line.startswith("wall_s "):
                walls[workload] = float(line.split()[1])
        results[workload] = json.loads(lines[-1])
    if not args.trace:
        print(f"{'workload':<14}{'pass_over_ref':>14}{'wall_s (s)':>12}{'setup_s (s)':>13}"
              f"{'peak_rss_mb (MB)':>18}{'error_rate':>12}")
        for workload, res in results.items():
            m = res["metrics"]
            print(f"{workload:<14}{m['pass_over_ref']['value']:>14.2f}{walls[workload]:>12.4f}"
                  f"{m['setup_s']['value']:>13.4f}"
                  f"{m['peak_rss_mb']['value']:>18.1f}"
                  f"{res['failed'] / res['attempted']:>12.4g}")
    if failed_runs:
        raise SystemExit(f"run failed for {', '.join(failed_runs)}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "f1q" / "__init__.py").is_file():
        print(f"error: no f1q sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
