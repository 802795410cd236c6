"""The benchmark's workloads: suite calls, the items they check, and pins.

Every input is an exhaustive enumeration at fixed bounds, so no workload
draws anything from the seed.  Each workload is a list of calls to the
public suite functions of `dendron.cli`; a call's report is one verdict.

A verdict fails when the report's `ok` is false, when a pinned count
differs, or when the SHA-256 of the report's bytes (sorted-key JSON, as
`dendron check` writes it) differs from the pinned digest.
"""

import hashlib
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Call:
    suite: str          # name of a suite function in dendron.cli
    bounds: dict        # its argparse arguments
    counts: dict        # dotted report path -> pinned value
    digest: str         # SHA-256 of the report bytes, or None to skip


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple

    def groups(self):
        return sorted({c.bounds["group"] for c in self.calls
                       if "group" in c.bounds})

    def spec(self):
        """JSON-ready form handed to a child process."""
        return {"groups": self.groups(),
                "calls": [[c.suite, c.bounds] for c in self.calls]}


def report_bytes(report):
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


def digest(report):
    return hashlib.sha256(report_bytes(report)).hexdigest()


def lookup(report, path):
    for key in path.split("."):
        report = report[key]
    return report


def checked_items(suite, report):
    """Items one verdict checked: morphisms, cells or homs, by suite."""
    if suite in ("suite_factorization", "suite_equivalence"):
        return report["morphisms"]
    if suite == "suite_coherence":
        return report["squares"] + report["triangles"]
    if suite == "suite_equivariant":
        return report["plain_homs"]
    fc = report["forest_check"]
    return fc["forest_homs"] + fc["pair_homs"] + fc["triple_homs"]


def verdict_problems(call, report, report_digest):
    """Why a verdict fails; empty when it passes."""
    problems = []
    if not report.get("ok"):
        problems.append(f"{call.suite}: ok is false")
    for path, want in call.counts.items():
        got = lookup(report, path)
        if got != want:
            problems.append(f"{call.suite}: {path} is {got}, pinned {want}")
    if call.digest is not None and report_digest != call.digest:
        problems.append(f"{call.suite}: report digest {report_digest} "
                        f"differs from the pinned {call.digest}")
    return problems


def _equivariant(group, trees, plain, eq, digest_):
    return Call("suite_equivariant",
                {"group": group, "max_edges": 6, "per_stratum": 6},
                {"trees": trees, "plain_homs": plain,
                 "equivariant_homs": eq, "groth_homs": eq}, digest_)


# The plain and genuine bounds are those of acceptance criteria 1, 3 and 5,
# so their counts equal the ones frozen in tests/test_acceptance.py.  The
# coherence and equivariant bounds are cut down from criteria 2 and 4 (93 s
# and 448 s) to about 20 s, keeping the same layers busy.
WORKLOADS = {w.name: w for w in (
    # trivial-group path: trees and morphisms do most of the work
    Workload("plain", (
        Call("suite_factorization", {"max_edges": 5},
             {"trees": 59, "morphisms": 13133},
             "250ea7774b388199bf6a84346c5f16e6"
             "f29c6fb447c9d0e7a94db8ad1b7ba3d9"),
        Call("suite_equivalence", {"max_edges": 5},
             {"trees": 59, "morphisms": 13133},
             "e182245ee6b0c0c7062d12667e0d2116"
             "72a43718c1e25dbd630a286b8d82869d"),
    )),
    # substitution, oplax cells and labels; phi_star's cache hits 99.8%
    Workload("coherence", (
        Call("suite_coherence", {"max_size": 3, "probe_edges": 3},
             {"squares": 479894, "triangles": 5442},
             "8586fe9595ea464312b4df453efc669c"
             "8b5c14e19eb4164d0a12f84410324006"),
    )),
    # G-tree construction, equivariant hom and factorization; z4 is the
    # regression group of criterion 4, s3 the largest and non-abelian one
    Workload("equivariant", (
        _equivariant("z4", 28, 6920, 3588,
                     "78cc3ec79fc84ef4e49c196057ca8d12"
                     "a208fb589fb16e6101ac35ab58461946"),
        _equivariant("s3", 28, 7335, 3730,
                     "960706616fa5dc1117575d9d6abcacab"
                     "2808b1fffc796dbc34a498d8f9e8323f"),
    )),
    # groups and forests: G-sets, forest, diagram and genuine homs
    Workload("genuine", (
        Call("suite_genuine",
             {"group": "z2", "max_edges": 4, "per_stratum": None},
             {"forest_check.objects": 52, "forest_check.forest_homs": 5938,
              "forest_check.pair_homs": 5938,
              "forest_check.triple_homs": 5938},
             "d2e853670e9621b0903174a27308c617"
             "a5300210585aaafcc2556c27063fe547"),
    )),
)}
