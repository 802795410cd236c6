"""One repetition of a workload in a fresh interpreter.

Usage: child.py SPEC_JSON MODE [SPANS_PATH]

MODE is "setup" (import and group load only), "plain" or "traced".  The
child writes "ready" once `dendron.cli` is imported and the workload's
groups are loaded, so the parent can time set-up from the moment it
started the interpreter; it then writes the CPU speed probed right after
set-up.  After a run it writes one JSON line: timings, the CPU speed probed
during the run, peak RSS, the reports with their digests and, when traced,
the per-layer metrics.  A fresh interpreter per repetition keeps the
process-wide caches of `dendron.substitution` from carrying over between
runs.
"""

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time

PROBE_EVERY_S = 0.1
SETUP_PROBES = 20


def probe():
    """Duration of a fixed piece of pure-Python work: the CPU's speed now.

    Integer arithmetic, then a dict of tuple keys and frozensets, the kinds
    of work the library does most.  It uses no dendron code, so a change to
    the library cannot change it.  The collector is held off so that the
    probe's garbage never triggers a collection of the run's own heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    x = 0
    for i in range(3000):
        x += i * i % 7
    made = {}
    for i in range(800):
        made[(i, "e", (i, 1))] = frozenset((i, i + 1))
    elapsed = time.perf_counter() - t0
    del made
    if collecting:
        gc.enable()
    return elapsed


class Speedometer:
    """Probes the CPU's speed every PROBE_EVERY_S seconds of wall time.

    The probe runs in a SIGALRM handler, between two bytecodes of the run;
    it touches no state of the program.  Probes are evenly spread in wall
    time, so the harmonic mean of their durations is the probe's average
    duration over the run.  One more probe on entry and one on exit cover
    runs shorter than the period; they fall outside the timed run.
    """

    def __init__(self):
        self.during = []
        self.around = []

    def _probe(self, signum, frame):
        self.during.append(probe())

    def __enter__(self):
        self.around.append(probe())
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.around.append(probe())

    def summary(self):
        return {"probe_s": statistics.harmonic_mean(self.during
                                                    + self.around),
                "probes": len(self.during),
                "probing_s": sum(self.during)}


def main():
    spec = json.loads(sys.argv[1])
    mode = sys.argv[2]
    import dendron.cli as cli
    from dendron.groups import builtin_group
    for name in spec["groups"]:
        builtin_group(name)
    print("ready", flush=True)
    setup_probe_s = statistics.harmonic_mean(probe()
                                             for _ in range(SETUP_PROBES))
    if mode == "setup":
        print(json.dumps({"setup_probe_s": setup_probe_s}), flush=True)
        return 0

    from workloads import digest
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    reports, suite_s = [], []
    with Speedometer() as speed:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for suite, bounds in spec["calls"]:
            t0 = time.perf_counter()
            reports.append(getattr(cli, suite)(argparse.Namespace(**bounds)))
            suite_s.append(time.perf_counter() - t0)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    out = {"verdict_s": wall, "verdict_cpu_s": cpu, "suite_s": suite_s,
           "setup_probe_s": setup_probe_s, **speed.summary(),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024,
           "reports": reports, "digests": [digest(r) for r in reports]}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.dump(sys.argv[3])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
