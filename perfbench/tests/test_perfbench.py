"""Self-tests of the benchmark, at tiny bounds.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS, Call, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _equivariant(group, trees, plain, eq):
    return Call("suite_equivariant",
                {"group": group, "max_edges": 3, "per_stratum": 6},
                {"trees": trees, "plain_homs": plain,
                 "equivariant_homs": eq, "groth_homs": eq}, None)


# The same suite calls as the real workloads, at bounds that run in about
# a second; counts pinned, digests not.
TINY = {w.name: w for w in (
    Workload("plain", (
        Call("suite_factorization", {"max_edges": 3},
             {"trees": 9, "morphisms": 158}, None),
        Call("suite_equivalence", {"max_edges": 3},
             {"trees": 9, "morphisms": 158}, None),
    )),
    Workload("coherence", (
        Call("suite_coherence", {"max_size": 2, "probe_edges": 2},
             {"squares": 1916, "triangles": 158}, None),
    )),
    Workload("equivariant", (
        _equivariant("z4", 10, 177, 137),
        _equivariant("s3", 10, 177, 137),
    )),
    Workload("genuine", (
        Call("suite_genuine",
             {"group": "z2", "max_edges": 2, "per_stratum": None},
             {"forest_check.objects": 8, "forest_check.forest_homs": 84,
              "forest_check.pair_homs": 84,
              "forest_check.triple_homs": 84}, None),
    )),
)}


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_tiny_workloads_mirror_the_real_ones():
    assert sorted(TINY) == sorted(WORKLOADS)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    for name, w in WORKLOADS.items():
        assert [c.suite for c in TINY[name].calls] == \
            [c.suite for c in w.calls]


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result, env = run.measure(TINY[name], seed=1, seconds=0.1, trace=0)
    assert env["problems"] == []
    assert result["correct"] and result["failed"] == 0
    # one verdict per call, for each repetition in each lane
    assert result["attempted"] >= run.LANES * len(TINY[name].calls)
    assert result["attempted"] % len(TINY[name].calls) == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer_metric_and_same_reports(name):
    result, env = run.measure(TINY[name], seed=2, seconds=0.1, trace=1)
    assert env["problems"] == []  # includes traced digest == untraced
    assert result["correct"]
    assert result["attempted"] == 2 * len(TINY[name].calls)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units("per_layer")
    metrics = result["metrics"]
    for call in TINY[name].calls:
        assert metrics[f"cli.{call.suite}.s"]["value"] > 0
    assert metrics["failed_share"]["value"] == 0


def test_layer_call_counts_repeat_across_traced_runs_and_seeds():
    w = TINY["equivariant"]
    runs = [run.measure(w, seed=s, seconds=0.1, trace=1)[0]["metrics"]
            for s in (3, 4)]
    counts = [{k: v["value"] for k, v in m.items()
               if k.endswith((".calls", ".results", ".raised"))}
              for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["gtrees.GTree.calls"] > 0
    assert counts[0]["trees.sort_key.calls"] > 0


def test_wrong_pinned_count_fails_the_verdict():
    good = TINY["coherence"]
    call = good.calls[0]
    wrong = dataclasses.replace(
        good, calls=(dataclasses.replace(
            call, counts={**call.counts, "squares": call.counts["squares"]
                          + 1}),))
    result, env = run.measure(wrong, seed=1, seconds=0.1, trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any("squares" in p for p in env["problems"])


def test_wrong_pinned_digest_fails_the_verdict():
    good = TINY["plain"]
    calls = tuple(dataclasses.replace(c, digest="0" * 64)
                  for c in good.calls)
    result, _ = run.measure(dataclasses.replace(good, calls=calls), seed=1,
                            seconds=0.1, trace=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 4
    assert result["metrics"]["failed_share"]["value"] == 1.0


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "plain", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
