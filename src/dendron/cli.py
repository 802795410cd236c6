"""Command line front end: the verification suites of `dendron check`.

Exit codes: 0 all checks pass, 1 a check failed (counterexample in the
report), 2 a usage error or outside input that cannot be used (a group
name, a group file, an output path).  A fault raised inside a suite is a
program error and propagates as a traceback.  Reports are JSON with
sorted keys and record the exact bounds used, so reruns produce
identical bytes.  The DENDRON_WORKERS environment variable caps
worker processes, at most one per CPU, for the four pairwise suites
(factorization, equivalence, equivariant, genuine; only coherence runs in
one process); results are merged in a fixed order, so the worker count
never changes the report.  Each worker's stride of pairs owns one memo,
dropped when the stride ends, through which the normal form shares its
stage chains between maps.  The factorization suite shares all three
chains for the whole stride (`morphisms.factorize`).  The equivariant
suite shares the degeneracy and inner-face chains, keyed by the G-trees,
for one source row at a time: it keeps them in the stride memo under the
row index and clears the memo when the row changes
(`gtrees.equivariant_factorize`).  The genuine suite shares no chains and
leaves the stride memo empty: it shares its tree homs within one pair,
through a cached `hom_set` made and dropped by `forests._genuine_pair`.
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager, suppress

from .trees import enumerate_all_trees
from .morphisms import hom_set, factorize
from .labels import canonical_labeling
from .substitution import (groth_hom, F_functor, lift_morphism,
                           tree_oplax_data)
from .oplax import check_all_coherence
from .groups import group_from_ref, subgroups
from .gtrees import (GLabeledTree, NotEquivariant, enumerate_gtrees,
                     is_equivariant_morphism, equivariant_factorize,
                     groth_hom_G, lift_G)
from .forests import bh_to_coset_groupoid, genuine_equivalence_check
from .pairs import _run_pairs


def _emit(report, output):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if output:
        # a reader never sees half a report, and a failed write leaves
        # no temp file behind
        tmp = f"{output}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, output)
        except BaseException:
            with suppress(OSError):
                os.remove(tmp)
            raise
    else:
        sys.stdout.write(text)
    summary = "pass" if report["ok"] else "FAIL"
    print(f"{report['suite']}: {summary}", file=sys.stderr)


def _mapping_doc(f):
    return {str(k): str(v) for k, v in f.mapping.items()}


def _projection_failure(homs, pairs, project, lift):
    """Why projection from pairs onto homs is not a bijection inverse to
    lift, as a partial failure record; None when it is."""
    images = [project(m) for m in pairs]
    found = {frozenset(p.mapping.items()) for p in images}
    if len(found) != len(pairs) or \
            found != {frozenset(f.mapping.items()) for f in homs}:
        return {"reason": "projection is not a bijection"}
    for f in homs:
        if project(lift(f)).mapping != f.mapping:
            return {"reason": "lift then project", "map": _mapping_doc(f)}
    for m, p in zip(pairs, images):
        if lift(p) != m:
            return {"reason": "project then lift", "map": _mapping_doc(p)}
    return None


# -- factorization suite ----------------------------------------------------

def _factorization_pair(trees, i, j, memo=None):
    homs = hom_set(trees[i], trees[j])
    failures = []
    for f in homs:
        fact = factorize(f, memo)
        back = fact.composite()
        if back.mapping != f.mapping or factorize(back, memo) != fact:
            failures.append({"src": i, "dst": j, "map": _mapping_doc(f)})
    return len(homs), failures


def suite_factorization(args):
    trees, counts, failures = _run_pairs(
        enumerate_all_trees, (args.max_edges,), _factorization_pair)
    n = len(trees)
    return {"suite": "factorization",
            "bounds": {"max_edges": args.max_edges},
            "trees": n, "pairs": n * n, "morphisms": sum(counts),
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

def _labeled_trees(max_edges):
    return [(t, canonical_labeling(t)) for t in enumerate_all_trees(max_edges)]


def _equivalence_pair(corpus, i, j, memo=None):
    (a, la), (b, lb) = corpus[i], corpus[j]
    gh = groth_hom(la, lb)
    bad = _projection_failure(hom_set(a, b), gh, F_functor,
                              lambda f: lift_morphism(f, la, lb))
    return len(gh), [{"src": i, "dst": j, **bad}] if bad else []


def suite_equivalence(args):
    corpus, counts, failures = _run_pairs(
        _labeled_trees, (args.max_edges,), _equivalence_pair)
    n = len(corpus)
    return {"suite": "equivalence",
            "bounds": {"max_edges": args.max_edges},
            "trees": n, "pairs": n * n, "morphisms": sum(counts),
            "hom_sizes": [[*divmod(k, n), c] for k, c in enumerate(counts)],
            "ok": not failures,
            "counterexample": failures[0] if failures else None}


# -- equivariant suite ------------------------------------------------------

def _labeled_gtrees(group, max_edges, per_stratum):
    return [(g, GLabeledTree.self_labeled(g))
            for g in enumerate_gtrees(group, max_edges,
                                      per_stratum=per_stratum)]


def _equivariant_pair(corpus, i, j, memo):
    (a, la), (b, lb) = corpus[i], corpus[j]
    if i not in memo:
        # a stride visits the source rows in increasing order, so the
        # chains of a finished row are never read again
        memo.clear()
        memo[i] = {}
    plain = hom_set(a.tree, b.tree)
    eq = []
    failures = []
    for f in plain:
        flag = is_equivariant_morphism(a, b, f)
        if flag:
            eq.append(f)
        try:
            replay = (equivariant_factorize(a, b, f, memo[i])
                      .composite().mapping == f.mapping)
        except NotEquivariant:
            replay = False
        if replay != flag:
            failures.append({"src": i, "dst": j, "map": _mapping_doc(f),
                             "reason": "factorization replay disagrees "
                                       "with the filter"})
    pairs = groth_hom_G(la, lb)
    # the filter above has decided every map lifted here: the maps of eq,
    # and the projections, which are lifted only once they equal eq
    bad = _projection_failure(eq, pairs, F_functor,
                              lambda f: lift_G(f, la, lb, _checked=True))
    if bad:
        failures.append({"src": i, "dst": j, **bad})
    return (len(plain), len(eq), len(pairs)), failures


def suite_equivariant(args):
    corpus, counts, failures = _run_pairs(
        _labeled_gtrees,
        (_load_group(args.group), args.max_edges, args.per_stratum),
        _equivariant_pair)
    plain, eq, groth = (sum(c) for c in zip(*counts))
    return {"suite": "equivariant",
            "bounds": {"max_edges": args.max_edges,
                       "per_stratum": args.per_stratum},
            "group": args.group, "trees": len(corpus),
            "plain_homs": plain, "equivariant_homs": eq,
            "groth_homs": groth,
            "ok": not failures,
            "counterexample": failures[0] if failures else None}


# -- genuine suite ----------------------------------------------------------

def suite_genuine(args):
    group = _load_group(args.group)
    inner = genuine_equivalence_check(group, max_edges=args.max_edges,
                                      per_stratum=args.per_stratum)
    failures = inner["mismatches"]
    bh = {}
    for sub in subgroups(group):
        _, rep = bh_to_coset_groupoid(group, sub)
        bh[",".join(map(str, sub))] = rep.ok
    return {"suite": "genuine",
            "bounds": {"max_edges": args.max_edges,
                       "per_stratum": args.per_stratum},
            "group": args.group, "forest_check": inner,
            "one_object_groupoid_equivalences": bh,
            "ok": inner["ok"] and all(bh.values()),
            "counterexample": failures[0] if failures else None}


# each suite and the bound flags it reads; `check <suite>` takes only these
SUITES = {"factorization": (suite_factorization, ("max_edges",)),
          "coherence": (suite_coherence, ("max_size", "probe_edges")),
          "equivalence": (suite_equivalence, ("max_edges",)),
          "equivariant": (suite_equivariant,
                          ("group", "max_edges", "per_stratum")),
          "genuine": (suite_genuine, ("group", "max_edges", "per_stratum"))}


# -- outside input ----------------------------------------------------------

class InputError(Exception):
    """Outside input that cannot be used: a group name or a group file."""


@contextmanager
def _reading():
    """The one input-error boundary: a reader's ValueError, which is how
    every reader rejects a document, becomes an InputError."""
    try:
        yield
    except ValueError as exc:
        raise InputError(exc) from exc


def _load_group(ref):
    """The group --group names: a builtin name or a group JSON file."""
    with _reading():
        if os.path.exists(ref):
            with open(ref) as fh:
                return group_from_ref(json.load(fh))
        return group_from_ref(ref)


def cmd_check(args):
    report = SUITES[args.suite][0](args)
    _emit(report, args.output)
    return 0 if report["ok"] else 1


def _int_from(low):
    """An argparse type: an integer no smaller than low."""
    def parse(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return int(text)
    parse.__name__ = "int"
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dendron",
        description="Verify the equivalences of categories for trees, "
                    "G-trees and genuine G-trees on small instances, by "
                    "comparing hom-sets exhaustively.")
    sub = parser.add_subparsers(dest="command", required=True)

    bound_flags = {
        "max_edges": dict(type=_int_from(1), default=4,
                          help="trees up to this many edges"),
        "max_size": dict(type=_int_from(0), default=2,
                         help="label sets up to this size"),
        "probe_edges": dict(type=_int_from(1), default=4,
                            help="probe trees up to this many edges"),
        "group": dict(default="z2",
                      help="builtin group name or a group JSON file"),
        "per_stratum": dict(type=_int_from(1), default=None,
                            help="cap enumerated trees per size stratum")}
    ck = sub.add_parser("check", help="run a verification suite")
    suites = ck.add_subparsers(dest="suite", required=True)
    for name, (_, flags) in SUITES.items():
        sp = suites.add_parser(name)
        for flag in flags:
            sp.add_argument("--" + flag.replace("_", "-"), **bound_flags[flag])
        sp.add_argument("--output", help="write the JSON report to this path")
        sp.set_defaults(run=cmd_check, parser=sp)

    return parser


def main(argv=None):
    # leftover arguments are reported by the command's own parser, whose
    # usage line names the flags it takes; argparse would hand them back
    # to the root parser
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.run(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
