"""One-shot budget report: acceptance criteria C1-C6 against their budgets.

Usage, from the root of a checkout:

    python3 perfbench/budget.py [--output FILE]

Runs each test of tests/test_acceptance.py once, at its own bounds, in a
fresh interpreter with DENDRON_WORKERS=1, and prints one JSON document:
per criterion the wall time the test measured, its budget, the share of
the budget used and whether it passed.  The test's own verdict line is
the source of both numbers, so the budgets live in one place.

The report is not gated and is not one of the repeated workloads:
criterion 4 alone takes 6 to 7.5 minutes on a 2-CPU machine.
"""

import argparse
import json
import re
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, child_env, environment

TESTS = ROOT / "tests" / "test_acceptance.py"
VERDICT = re.compile(r"criterion (\d+) \((.*)\): (PASS|FAIL) "
                     r"\[([\d.]+)s of (\d+)s budget\]")


def criteria():
    return re.findall(r"^def (test_criterion_\d+_\w+)\(", TESTS.read_text(),
                      flags=re.M)


def run_one(test):
    env = child_env(ROOT)
    cmd = [sys.executable, "-m", "pytest", "-q", "-s", "-p",
           "no:cacheprovider", f"{TESTS.relative_to(ROOT)}::{test}"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True)
    process_s = time.perf_counter() - t0
    found = VERDICT.search(proc.stdout)
    if found is None:
        return {"test": test, "status": "ERROR", "process_s": process_s,
                "exit_code": proc.returncode}
    num, label, status, seconds, budget = found.groups()
    return {"test": test, "criterion": int(num), "label": label,
            "status": status, "seconds": float(seconds),
            "budget_s": float(budget),
            "budget_share": float(seconds) / float(budget),
            "process_s": process_s, "exit_code": proc.returncode}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", help="also write the report here")
    args = parser.parse_args(argv)
    rows = []
    for test in criteria():
        rows.append(run_one(test))
        print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    text = json.dumps({"environment": environment(), "criteria": rows},
                      indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
