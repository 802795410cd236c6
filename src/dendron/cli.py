"""Command line front end: enumeration, verification suites, DOT export.

Exit codes: 0 all checks pass, 1 a check failed (counterexample in the
report), 2 usage or input error.  Reports are JSON with sorted keys and
record the exact bounds used, so reruns produce identical bytes.  The
DENDRON_WORKERS environment variable caps worker processes for the
pair-parallel suites; results are merged in a fixed order, so the worker
count never changes the report.
"""

import argparse
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .trees import (Tree, TreeError, enumerate_trees, enumerate_all_trees,
                    tree_to_json, tree_from_json, tree_to_dot, sort_key)
from .morphisms import hom_set, factorize
from .labels import canonical_labeling
from .substitution import (groth_hom, F_functor, lift_morphism,
                           tree_oplax_data)
from .oplax import check_all_coherence
from .groups import GroupError, builtin_group, group_from_json, subgroups
from .gtrees import (GLabeledTree, NotEquivariant, enumerate_gtrees,
                     equivariant_hom, is_equivariant_morphism,
                     equivariant_factorize, groth_hom_G, F_G, lift_G)
from .forests import (ForestError, bh_to_coset_groupoid, gforest_from_json,
                      gtree_to_gforest, genuine_equivalence_check)

SUITES = ("factorization", "coherence", "equivalence", "equivariant",
          "genuine")

PALETTE = ("#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#d68910",
           "#148f77", "#884ea0", "#2e4053", "#a04000", "#5d6d7e",
           "#7d6608", "#633974")


def _workers():
    raw = os.environ.get("DENDRON_WORKERS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _write_atomic(path, text):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit(report, output):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if output:
        _write_atomic(output, text)
    else:
        sys.stdout.write(text)
    summary = "pass" if report["ok"] else "FAIL"
    print(f"{report['suite']}: {summary}", file=sys.stderr)


def _chunks(total, parts):
    step = -(-total // parts) if total else 1
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _run_chunked(worker, total, args):
    """Map a chunk worker over [0, total) and merge in index order."""
    spans = _chunks(total, _workers())
    if len(spans) <= 1 or _workers() == 1:
        return [worker(*args, lo, hi) for lo, hi in spans]
    with ProcessPoolExecutor(max_workers=_workers()) as pool:
        futs = [pool.submit(worker, *args, lo, hi) for lo, hi in spans]
        return [f.result() for f in futs]


def _mapping_doc(f):
    return {str(k): str(v) for k, v in f.mapping.items()}


# -- factorization suite ----------------------------------------------------

def _factorization_chunk(max_edges, lo, hi):
    trees = enumerate_all_trees(max_edges)
    pairs = list(itertools.product(range(len(trees)), repeat=2))[lo:hi]
    checked = 0
    failures = []
    for i, j in pairs:
        for f in hom_set(trees[i], trees[j]):
            checked += 1
            fact = factorize(f)
            back = fact.composite()
            if back.mapping != f.mapping or factorize(back) != fact:
                failures.append({"src": i, "dst": j, "map": _mapping_doc(f)})
    return checked, failures


def suite_factorization(args):
    trees = enumerate_all_trees(args.max_edges)
    n = len(trees)
    results = _run_chunked(_factorization_chunk, n * n, (args.max_edges,))
    checked = sum(c for c, _ in results)
    failures = sorted((f for _, fs in results for f in fs),
                      key=lambda r: (r["src"], r["dst"],
                                     json.dumps(r["map"], sort_keys=True)))
    return {"suite": "factorization",
            "bounds": {"max_edges": args.max_edges},
            "trees": n, "pairs": n * n, "morphisms": checked,
            "ok": not failures,
            "counterexample": failures[0] if failures else None}


# -- coherence suite --------------------------------------------------------

def suite_coherence(args):
    probes = {}
    for t in enumerate_all_trees(args.probe_edges):
        lab = canonical_labeling(t)
        probes.setdefault(len(lab.label_set), []).append(lab)
    data = tree_oplax_data(args.max_size,
                           {k: tuple(v) for k, v in probes.items()})
    rep = check_all_coherence(data)
    return {"suite": "coherence",
            "bounds": {"max_size": args.max_size,
                       "probe_edges": args.probe_edges},
            "squares": rep.squares, "triangles": rep.triangles,
            "ok": rep.ok,
            "counterexample": repr(rep.failures[0]) if rep.failures else None}


# -- equivalence suite (plain labeled trees) --------------------------------

def _equivalence_chunk(max_edges, lo, hi):
    trees = enumerate_all_trees(max_edges)
    labeled = [canonical_labeling(t) for t in trees]
    pairs = list(itertools.product(range(len(trees)), repeat=2))[lo:hi]
    sizes = []
    failures = []
    for i, j in pairs:
        gh = groth_hom(labeled[i], labeled[j])
        plain = hom_set(trees[i], trees[j])
        sizes.append([i, j, len(gh)])
        images = {tuple(sorted(F_functor(m).mapping.items())) for m in gh}
        target = {tuple(sorted(f.mapping.items())) for f in plain}
        if len(images) != len(gh) or images != target:
            failures.append({"src": i, "dst": j, "reason": "not a bijection"})
            continue
        bad = None
        for f in plain:
            m = lift_morphism(f, labeled[i], labeled[j])
            if F_functor(m).mapping != f.mapping:
                bad = {"src": i, "dst": j, "reason": "lift then project",
                       "map": _mapping_doc(f)}
                break
        for m in gh:
            if bad:
                break
            if lift_morphism(F_functor(m), labeled[i], labeled[j]) != m:
                bad = {"src": i, "dst": j, "reason": "project then lift",
                       "map": _mapping_doc(m.fiber)}
        if bad:
            failures.append(bad)
    return sizes, failures


def suite_equivalence(args):
    trees = enumerate_all_trees(args.max_edges)
    n = len(trees)
    results = _run_chunked(_equivalence_chunk, n * n, (args.max_edges,))
    sizes = sorted((s for ss, _ in results for s in ss))
    failures = sorted((f for _, fs in results for f in fs),
                      key=lambda r: (r["src"], r["dst"], r["reason"]))
    return {"suite": "equivalence",
            "bounds": {"max_edges": args.max_edges},
            "trees": n, "pairs": n * n,
            "morphisms": sum(s[2] for s in sizes),
            "hom_sizes": sizes,
            "ok": not failures,
            "counterexample": failures[0] if failures else None}


# -- equivariant suite ------------------------------------------------------

def suite_equivariant(args):
    group = _load_group(args.group)
    corpus = enumerate_gtrees(group, args.max_edges,
                              per_stratum=args.per_stratum)
    labeled = [GLabeledTree.self_labeled(g) for g in corpus]
    plain = eq_total = groth = 0
    failures = []

    def fail(i, j, reason):
        failures.append({"src": i, "dst": j, "reason": reason})

    for (i, a), (j, b) in itertools.product(enumerate(corpus), repeat=2):
        eq = equivariant_hom(a, b)
        eq_total += len(eq)
        for f in hom_set(a.tree, b.tree):
            plain += 1
            flag = is_equivariant_morphism(a, b, f)
            try:
                replay = (equivariant_factorize(a, b, f).composite().mapping
                          == f.mapping)
            except NotEquivariant:
                replay = False
            if replay != flag:
                fail(i, j, "factorization replay disagrees with the filter")
        pairs = groth_hom_G(labeled[i], labeled[j])
        groth += len(pairs)
        images = {tuple(sorted(F_G(phi, fib, labeled[i]).mapping.items(),
                               key=repr))
                  for phi, fib in pairs}
        target = {tuple(sorted(f.mapping.items(), key=repr)) for f in eq}
        if len(images) != len(pairs) or images != target:
            fail(i, j, "projection is not a bijection")
            continue
        if any(F_G(*lift_G(f, labeled[i], labeled[j]), labeled[i]).mapping
               != f.mapping for f in eq):
            fail(i, j, "lift then project")
        elif any(lift_G(F_G(phi, fib, labeled[i]), labeled[i], labeled[j])
                 != (phi, fib) for phi, fib in pairs):
            fail(i, j, "project then lift")
    failures.sort(key=lambda r: (r["src"], r["dst"], r["reason"]))
    return {"suite": "equivariant",
            "bounds": {"max_edges": args.max_edges,
                       "per_stratum": args.per_stratum},
            "group": args.group, "trees": len(corpus),
            "plain_homs": plain, "equivariant_homs": eq_total,
            "groth_homs": groth,
            "ok": not failures,
            "counterexample": failures[0] if failures else None}


# -- genuine suite ----------------------------------------------------------

def suite_genuine(args):
    group = _load_group(args.group)
    inner = genuine_equivalence_check(group, max_edges=args.max_edges,
                                      per_stratum=args.per_stratum)
    inner = {**inner, "mismatches": [str(m) for m in inner["mismatches"]]}
    bh = {}
    for sub in subgroups(group):
        _, rep = bh_to_coset_groupoid(group, sub)
        bh[",".join(map(str, sub))] = rep.ok
    ok = bool(inner["ok"]) and all(bh.values())
    return {"suite": "genuine",
            "bounds": {"max_edges": args.max_edges,
                       "per_stratum": args.per_stratum},
            "group": args.group, "forest_check": inner,
            "one_object_groupoid_equivalences": bh,
            "ok": ok,
            "counterexample": (inner["mismatches"][0]
                               if inner["mismatches"] else None)}


SUITE_RUNNERS = {"factorization": suite_factorization,
                 "coherence": suite_coherence,
                 "equivalence": suite_equivalence,
                 "equivariant": suite_equivariant,
                 "genuine": suite_genuine}


# -- DOT export -------------------------------------------------------------

def _forest_edge_orbits(gforest):
    pairs = [(i, e) for i in range(gforest.forest.n)
             for e in gforest.forest.components[i].sorted_edges()]
    seen = set()
    orbits = []
    for start in pairs:
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            i, e = frontier.pop()
            for g in gforest.group.elements:
                nxt = (gforest.act_index(g, i), gforest.isos[(g, i)][e])
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        seen |= orbit
        orbits.append(sorted(orbit, key=lambda p: (p[0], sort_key(p[1]))))
    orbits.sort(key=lambda o: (o[0][0], sort_key(o[0][1])))
    return orbits


def forest_to_dot(gforest, color_orbits=False):
    """One digraph per component; orbit coloring spans components."""
    colors = {}
    if color_orbits:
        for k, orbit in enumerate(_forest_edge_orbits(gforest)):
            for pair in orbit:
                colors[pair] = PALETTE[k % len(PALETTE)]
    out = []
    for i, tree in enumerate(gforest.forest.components):
        per_tree = {e: c for (j, e), c in colors.items() if j == i}
        out.append(tree_to_dot(tree, per_tree or None, name=f"tree{i}"))
    return "".join(out)


def cmd_export_dot(args):
    with open(args.file) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and \
            {"group", "components", "action", "isos"} <= set(data):
        gf = gforest_from_json(data)
        text = forest_to_dot(gf, color_orbits=args.color_orbits)
    else:
        tree = tree_from_json(data)
        colors = None
        if args.color_orbits:
            order = tree.canonical_edge_order()
            colors = {e: PALETTE[k % len(PALETTE)]
                      for k, e in enumerate(order)}
        text = tree_to_dot(tree, colors)
    if args.output:
        _write_atomic(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


# -- enumeration ------------------------------------------------------------

def cmd_enumerate(args):
    trees = enumerate_trees(args.leaves, args.max_vertices)
    if args.output:
        docs = [tree_to_json(t) for t in trees]
        _write_atomic(args.output,
                      json.dumps(docs, indent=2, sort_keys=True) + "\n")
    print(len(trees))
    return 0


def cmd_check(args):
    report = SUITE_RUNNERS[args.suite](args)
    _emit(report, args.output)
    return 0 if report["ok"] else 1


def _load_group(ref):
    if os.path.exists(ref):
        with open(ref) as fh:
            return group_from_json(json.load(fh))
    return builtin_group(ref)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dendron",
        description="Enumerate operadic trees, verify the category's "
                    "theorems on small instances, and export DOT drawings.")
    sub = parser.add_subparsers(dest="command", required=True)

    en = sub.add_parser("enumerate",
                        help="count (and optionally write) canonical trees")
    en.add_argument("--leaves", type=int, required=True)
    en.add_argument("--max-vertices", type=int, required=True)
    en.add_argument("--output", help="write the trees as JSON to this path")
    en.set_defaults(run=cmd_enumerate)

    ck = sub.add_parser("check", help="run a verification suite")
    ck.add_argument("suite", choices=SUITES)
    ck.add_argument("--max-edges", type=int, default=4,
                    help="tree size bound for the pairwise suites")
    ck.add_argument("--max-size", type=int, default=2,
                    help="label set bound for the coherence suite")
    ck.add_argument("--probe-edges", type=int, default=4,
                    help="probe trees up to this many edges (coherence)")
    ck.add_argument("--group", default="z2",
                    help="builtin group name or a group JSON file")
    ck.add_argument("--per-stratum", type=int, default=None,
                    help="cap enumerated trees per size stratum")
    ck.add_argument("--output", help="write the JSON report to this path")
    ck.set_defaults(run=cmd_check)

    ex = sub.add_parser("export-dot",
                        help="render a tree or forest JSON file as DOT")
    ex.add_argument("file")
    ex.add_argument("--color-orbits", action="store_true",
                    help="color edges by their orbit under the group action")
    ex.add_argument("--output", help="write DOT here instead of stdout")
    ex.set_defaults(run=cmd_export_dot)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (OSError, json.JSONDecodeError, TreeError, GroupError,
            ForestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
