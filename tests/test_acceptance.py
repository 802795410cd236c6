"""End-to-end acceptance runs, one printed verdict line per criterion.

Each test drives the same suite code the command line uses, checks the
mathematical content exhaustively at the stated bounds, and enforces the
wall-clock budget.
"""

import argparse
import json
import os
import time

from dendron import (cyclic_group, symmetric_group_3, subgroups,
                     bh_to_coset_groupoid, diagram_from_gtree,
                     enumerate_gtrees, self_labeled_genuine, genuine_hom,
                     eta_morphism, q_star_genuine_morphism,
                     q_star_diagram_morphism, coset_gset, equivariant_maps,
                     genuine_equivalence_check, equivariant_hom, groth_hom_G,
                     z4_orbit_contraction_sample)
from dendron.cli import (suite_factorization, suite_coherence,
                         suite_equivalence, suite_equivariant, suite_genuine)

Z2 = cyclic_group(2)
S3 = symmetric_group_3()


def verdict(num, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num} ({label}): {status} "
          f"[{elapsed:.1f}s of {budget:.0f}s budget]")
    assert ok, f"criterion {num} ({label}) failed"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"


def ns(**kw):
    return argparse.Namespace(**kw)


def test_criterion_1_factorization_normal_form():
    t0 = time.monotonic()
    report = suite_factorization(ns(max_edges=5))
    elapsed = time.monotonic() - t0
    ok = (report["ok"] and report["trees"] == 59
          and report["morphisms"] == 13133)
    verdict(1, "factorization recomposes and is idempotent, <= 5 edges",
            ok, elapsed, 120)


def test_criterion_2_oplax_coherence():
    t0 = time.monotonic()
    report = suite_coherence(ns(max_size=3, probe_edges=4))
    elapsed = time.monotonic() - t0
    ok = (report["ok"] and report["squares"] == 1847748
          and report["triangles"] == 18164)
    verdict(2, "substitution coherence, label sets <= 3, probes <= 4 edges",
            ok, elapsed, 120)


def test_criterion_3_groth_hom_bijection():
    t0 = time.monotonic()
    report = suite_equivalence(ns(max_edges=5))
    elapsed = time.monotonic() - t0
    ok = (report["ok"] and report["trees"] == 59
          and report["morphisms"] == 13133
          and len(report["hom_sizes"]) == report["pairs"])
    verdict(3, "labeled projection bijective with two-sided lift, <= 5 edges",
            ok, elapsed, 300)


def test_criterion_4_equivariant_suite():
    expect = {"z2": (40, 91996, 52634),
              "z3": (39, 121436, 85802),
              "z4": (40, 56621, 40653)}
    t0 = time.monotonic()
    ok = True
    for name, (trees, plain, eq) in expect.items():
        report = suite_equivariant(ns(group=name, max_edges=8,
                                      per_stratum=6))
        ok = ok and report["ok"] and report["trees"] == trees \
            and report["plain_homs"] == plain \
            and report["equivariant_homs"] == eq \
            and report["groth_homs"] == eq
    sample = z4_orbit_contraction_sample()
    ok = ok and sorted(sample.label_gset.elements) == [
        "-iy", "-y", "ix", "iy", "x", "y"]
    ok = ok and len(equivariant_hom(sample.small.gtree,
                                    sample.big.gtree)) == 8
    ok = ok and len(groth_hom_G(sample.small, sample.big)) == 8
    elapsed = time.monotonic() - t0
    verdict(4, "equivariant filter, replay, and hom bijection, <= 8 edges",
            ok, elapsed, 600)


def test_criterion_5_genuine_suite():
    t0 = time.monotonic()
    report = genuine_equivalence_check(Z2, max_edges=4)
    ok = (report["ok"] and report["objects"] == 52
          and report["forest_homs"] == report["pair_homs"]
          == report["triple_homs"] == 5938)
    for sub in subgroups(S3):
        _, rep = bh_to_coset_groupoid(S3, sub)
        ok = ok and rep.ok
    gts = enumerate_gtrees(Z2, 3)
    x = self_labeled_genuine(diagram_from_gtree(gts[4], Z2, (0, 1)))
    y = self_labeled_genuine(diagram_from_gtree(gts[2], Z2, (0, 1)))
    half = coset_gset(Z2, (0,))
    q = equivariant_maps(half, coset_gset(Z2, (0, 1)))[0]
    squares = 0
    for gm in genuine_hom(x, y):
        left = eta_morphism(q_star_genuine_morphism(q, half, gm))
        right = q_star_diagram_morphism(q, half, eta_morphism(gm))
        ok = ok and left == right
        squares += 1
    ok = ok and squares == 4
    elapsed = time.monotonic() - t0
    verdict(5, "genuine forests: assembly, one-object groupoid, exact "
               "naturality", ok, elapsed, 600)


def test_criterion_6_deterministic_reports():
    t0 = time.monotonic()

    def render(report):
        return json.dumps(report, indent=2, sort_keys=True).encode()

    runs = [
        lambda: suite_factorization(ns(max_edges=3)),
        lambda: suite_coherence(ns(max_size=2, probe_edges=3)),
        lambda: suite_equivalence(ns(max_edges=3)),
        lambda: suite_equivariant(ns(group="z2", max_edges=3,
                                     per_stratum=None)),
        lambda: suite_genuine(ns(group="z2", max_edges=2,
                                 per_stratum=None)),
    ]
    ok = all(render(run()) == render(run()) for run in runs)
    saved = os.environ.get("DENDRON_WORKERS")
    try:
        os.environ["DENDRON_WORKERS"] = "1"
        single = [render(suite_factorization(ns(max_edges=3))),
                  render(suite_equivalence(ns(max_edges=3)))]
        os.environ["DENDRON_WORKERS"] = "3"
        forked = [render(suite_factorization(ns(max_edges=3))),
                  render(suite_equivalence(ns(max_edges=3)))]
    finally:
        if saved is None:
            os.environ.pop("DENDRON_WORKERS", None)
        else:
            os.environ["DENDRON_WORKERS"] = saved
    ok = ok and single == forked
    elapsed = time.monotonic() - t0
    verdict(6, "byte-identical reports across runs and worker counts",
            ok, elapsed, 120)
