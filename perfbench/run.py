"""Benchmark of dendron's verifier: time to verdict on fixed suite workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are in workloads.py.  Every repetition runs in a fresh
interpreter (child.py) with DENDRON_WORKERS=1.  Repetitions run in LANES
lanes side by side, one per CPU: on a shared virtual machine each CPU's
speed drifts on its own, and the median over both lanes is steadier than
one lane's.  The inputs are exhaustive enumerations, so they take nothing
from the seed; the seed only sets the children's PYTHONHASHSEED, which
varies set and dict order and so checks again that reports do not depend
on it.

--trace 0 measures the end-to-end metrics: set-up is sampled several times,
then each lane runs untraced repetitions until the next one would end more
than half a repetition past S seconds (at least one), and medians are
reported.  Their times are converted to a reference CPU speed: each child
probes the CPU's speed during its run (child.Speedometer), and a time is
scaled by REF_PROBE_S over the mean probe duration.  The raw times are on
the environment line.  --trace 1 runs one untraced and one traced repetition side by
side and reports the per-layer metrics of the traced one, its overhead over
the untraced one, and the untraced time of each suite call; the traced
reports must match the untraced ones byte for byte.  The spans of the
traced run are written to .perfbench_out/ in the checkout.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records the run
environment.  Exit code 2, with no result, when the checkout has no
dendron sources.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from tracer import SUITES, layer_metric_names
from workloads import WORKLOADS, checked_items, verdict_problems

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170
# repetitions run side by side, one per CPU, up to two
LANES = min(2, len(os.sched_getaffinity(0)))

# The reference CPU runs child.probe() in 1 millisecond.
REF_PROBE_S = 1e-3

END_TO_END = (("verdict_s", "s"), ("verdict_cpu_s", "s"),
              ("checks_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def at_reference_speed(seconds, probe_s):
    """Convert a time measured while child.probe() took probe_s on average
    to the time it would take on the reference CPU."""
    return seconds * REF_PROBE_S / probe_s


def child_env(root, **pinned):
    """The environment for a child interpreter: the inherited one without
    any PYTHON* or DENDRON_* variable, so none can change the program being
    measured, plus the source path, DENDRON_WORKERS=1 and `pinned`."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "DENDRON_"))}
    env.update(PYTHONPATH=str(Path(root) / "src"), DENDRON_WORKERS="1",
               **pinned)
    return env


def per_layer_units():
    units = {name: unit for name, unit, _ in layer_metric_names()}
    units.update({f"cli.{s}.s": "s" for s in SUITES})
    units["trace.overhead_s"] = "s"
    units["failed_share"] = "ratio"
    return units


def cgroup_cpu_quota():
    """The CPU quota of this process's cgroup, as read-only text, or None."""
    for path, fmt in (("/sys/fs/cgroup/cpu.max", "{}"),
                      ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "quota_us {}")):
        try:
            with open(path) as fh:
                return fmt.format(fh.read().strip())
        except OSError:
            continue
    return None


def environment():
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cgroup_cpu_quota": cgroup_cpu_quota(),
            "DENDRON_WORKERS": "1"}


class Runner:
    """Starts child interpreters for one workload and grades their output."""

    def __init__(self, workload, seed, root=ROOT):
        self.workload = workload
        self.root = Path(root)
        self.env = child_env(root, PYTHONHASHSEED=str(seed % 2**32))
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def spawn(self, mode, spans_path=None):
        """Run child.py once; returns its result plus the set-up time."""
        cmd = [sys.executable, str(HERE / "child.py"),
               json.dumps(self.workload.spec()), mode]
        if spans_path is not None:
            cmd.append(str(spans_path))
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env,
                              cwd=self.root, text=True) as proc:
            try:
                ready = proc.stdout.readline()
                setup_s = time.perf_counter() - t0
                rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if proc.returncode != 0 or ready.strip() != "ready":
            raise RuntimeError(f"child {mode} run exited with "
                               f"{proc.returncode}")
        result = json.loads(rest.splitlines()[-1])
        result["setup_s"] = setup_s
        return result

    def grade(self, result):
        """Count the repetition's verdicts; True when none failed."""
        bad = 0
        for call, report, dig in zip(self.workload.calls, result["reports"],
                                     result["digests"]):
            problems = verdict_problems(call, report, dig)
            self.problems += problems
            bad += bool(problems)
        self.attempted += len(self.workload.calls)
        self.failed += bad
        return bad == 0

    def checked(self, result):
        return sum(checked_items(call.suite, report) for call, report
                   in zip(self.workload.calls, result["reports"]))

    @staticmethod
    def _side_by_side(jobs):
        """Run the jobs LANES at a time; returns their results in order."""
        with ThreadPoolExecutor(max_workers=LANES) as pool:
            return list(pool.map(lambda job: job(), jobs))

    def end_to_end(self, seconds):
        start = time.perf_counter()
        self.spawn("setup")  # writes bytecode caches; not a sample
        setups = [self.spawn("setup") for _ in range(SETUP_SAMPLES)]

        def lane():
            reps = []
            while True:
                t0 = time.perf_counter()
                reps.append(self.spawn("plain"))
                now = time.perf_counter()
                # start another only if it ends within half a repetition
                # of the deadline
                if now - start + (now - t0) / 2 > seconds:
                    return reps

        reps = [r for rs in self._side_by_side([lane] * LANES) for r in rs]
        # a failed verdict is never reported as a timing
        timed = [r for r in reps if self.grade(r)] or reps
        verdicts = [at_reference_speed(r["verdict_s"] - r["probing_s"],
                                       r["probe_s"]) for r in timed]
        return [{k: r[k] for k in ("verdict_s", "probe_s")} for r in reps], {
            "verdict_s": statistics.median(verdicts),
            "verdict_cpu_s": statistics.median(
                at_reference_speed(r["verdict_cpu_s"] - r["probing_s"],
                                   r["probe_s"]) for r in timed),
            "checks_per_s": statistics.median(
                self.checked(r) / v for r, v in zip(timed, verdicts)),
            "setup_s": statistics.median(
                at_reference_speed(r["setup_s"], r["setup_probe_s"])
                for r in setups + reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        }

    def per_layer(self, spans_path):
        plain, traced = self._side_by_side(
            [lambda: self.spawn("plain"),
             lambda: self.spawn("traced", spans_path)])
        self.grade(plain)
        self.grade(traced)
        for call, a, b in zip(self.workload.calls, plain["digests"],
                              traced["digests"]):
            if a != b:
                self.failed += 1
                self.problems.append(f"{call.suite}: tracing changed the "
                                     f"report digest")
        # every time at the reference CPU speed, as in end_to_end
        metrics = {k: (at_reference_speed(v, traced["probe_s"])
                       if k.endswith(".self_s") else v)
                   for k, v in traced["layers"].items()}
        for suite in SUITES:
            metrics[f"cli.{suite}.s"] = at_reference_speed(sum(
                s for call, s in zip(self.workload.calls, plain["suite_s"])
                if call.suite == suite), plain["probe_s"])
        metrics["trace.overhead_s"] = (
            at_reference_speed(traced["verdict_s"] - traced["probing_s"],
                               traced["probe_s"])
            - at_reference_speed(plain["verdict_s"] - plain["probing_s"],
                                 plain["probe_s"]))
        metrics["failed_share"] = self.failed / self.attempted
        return [{k: r[k] for k in ("verdict_s", "probe_s")}
                for r in (plain, traced)], metrics


def measure(workload, seed, seconds, trace, root=ROOT):
    """One benchmark run; returns (result line, environment line).

    The environment line also lists each repetition's measured verdict_s
    and probe_s, the traced one last in a traced run.
    """
    runner = Runner(workload, seed, root)
    if trace:
        spans = Path(root) / ".perfbench_out" / f"spans-{workload.name}.bin"
        reps, values = runner.per_layer(spans)
        units = per_layer_units()
    else:
        reps, values = runner.end_to_end(seconds)
        units = dict(END_TO_END)
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    env = {"environment": environment(), "workload": workload.name,
           "seed": seed, "repetitions": reps,
           "problems": runner.problems}
    return result, env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dendron" / "cli.py").is_file():
        print(f"error: no dendron sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    result, env = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                          args.trace)
    for problem in env["problems"]:
        print(f"verdict failed: {problem}", file=sys.stderr)
    print(json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
