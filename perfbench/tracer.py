"""Layer boundaries of dendron, traced from outside the package.

`Tracer.install()` wraps the public functions and constructors listed in
BOUNDARIES at run time; nothing under src/ is edited.  A function is
wrapped in its defining module and in every dendron module that imported
the name; a constructor or method is wrapped on the class itself, so every
call site sees it.

Each timed wrapper records a span: boundary id, parent span, start and
end.  A boundary's call count and self time (its spans' durations minus the
part covered by child spans) are derived from the spans when the run ends.
Spans stay in memory in flat arrays and are written out by `Tracer.dump`.

Two boundaries are counted without being timed, because timing them would
distort the run: `trees.sort_key` (about 6M calls on the equivariant
workload, recursing through tuple edge names) and `trees._fresh_layer`
(about 2.9M calls on the coherence workload).  Their time stays in the self
time of whichever boundary called them.
"""

import importlib
import json
import os
import sys
import time
from array import array

MODULES = ("trees", "morphisms", "labels", "substitution", "oplax", "groups",
           "gtrees", "forests", "cli")

# (module, attribute, kind).  kind is "fn" (a module-level function),
# "class" (wrap __init__), "method" (wrap Class.method) or "count"
# (count only).  `_fresh_layer` is traced only where substitution imports
# it, the call site the coherence workload exercises.
BOUNDARIES = (
    ("trees", "Tree", "class"),
    ("trees", "spanned_subtree", "fn"),
    ("trees", "sort_key", "count"),
    ("trees", "_fresh_layer", "count"),
    ("trees", "enumerate_all_trees", "fn"),
    ("morphisms", "hom_set", "fn"),
    ("morphisms", "factorize", "fn"),
    ("morphisms", "compose", "fn"),
    ("morphisms", "TreeMorphism", "class"),
    ("labels", "hom_labeled", "fn"),
    ("labels", "canonical_labeling", "fn"),
    ("substitution", "phi_star", "fn"),
    ("substitution", "groth_hom", "fn"),
    ("substitution", "lift_morphism", "fn"),
    ("oplax", "check_coherence_square", "fn"),
    ("oplax", "check_oplax_units", "fn"),
    ("oplax", "FiniteCategory.compose", "method"),
    ("groups", "coset_gset", "fn"),
    ("groups", "GSet", "class"),
    ("groups", "equivariant_maps", "fn"),
    ("gtrees", "GTree", "class"),
    ("gtrees", "equivariant_hom", "fn"),
    ("gtrees", "equivariant_factorize", "fn"),
    ("gtrees", "groth_hom_G", "fn"),
    ("gtrees", "lift_G", "fn"),
    ("gtrees", "enumerate_gtrees", "fn"),
    ("forests", "forest_hom", "fn"),
    ("forests", "diagram_hom", "fn"),
    ("forests", "genuine_hom", "fn"),
    ("forests", "DiagramMorphism", "class"),
    ("forests", "q_star_diagram", "fn"),
    ("forests", "q_star_genuine", "fn"),
    ("forests", "enumerate_genuine_diagrams", "fn"),
)

SITES = {"_fresh_layer": ("substitution",)}

SUITES = ("suite_factorization", "suite_equivalence", "suite_coherence",
          "suite_equivariant", "suite_genuine")


def layer_metric_names():
    """Every per-layer metric the tracer yields, with its unit and sense."""
    out = []
    for module, attr, kind in BOUNDARIES:
        name = f"{module}.{attr}"
        out.append((f"{name}.calls", "count", "lower"))
        if kind != "count":
            out.append((f"{name}.self_s", "s", "lower"))
    out += [("morphisms.hom_set.results", "count", "lower"),
            ("substitution.phi_star.hit_ratio", "ratio", "higher"),
            ("gtrees.equivariant_hom.kept_ratio", "ratio", "higher"),
            ("gtrees.equivariant_factorize.raised", "count", "lower")]
    return out


class Tracer:
    """Span and call-count store shared by every installed wrapper.

    Spans are kept in flat arrays indexed by opening order: boundary id,
    parent span (-1 at the top), start and end.  Self times and call counts
    of timed boundaries are derived from them when the run ends.
    """

    def __init__(self):
        self.names = []
        self.kinds = []
        self.counts = []      # calls of the count-only boundaries
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._current = [-1]  # innermost open span
        self.hom_results = 0
        self.kept = 0
        self.kept_of = 0
        self.raised = 0
        self._phi_star = None

    def _register(self, name, kind):
        self.names.append(name)
        self.kinds.append(kind)
        self.counts.append(0)
        return len(self.names) - 1

    def timed(self, name, fn):
        bid = self._register(name, "timed")
        ids, parents, starts, ends = (self.ids, self.parents, self.starts,
                                      self.ends)
        current = self._current
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = current[0]
            idx = current[0] = len(ids)
            ids.append(bid)
            parents.append(parent)
            ends.append(0.0)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                current[0] = parent

        return wrapper

    def counted(self, name, fn):
        bid = self._register(name, "count")
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[bid] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _with_counters(self, attr, fn):
        """Add the extra per-boundary counters around an original function."""
        if attr == "hom_set":
            def hom_set(*args, **kwargs):
                homs = fn(*args, **kwargs)
                self.hom_results += len(homs)
                return homs
            return hom_set
        if attr == "equivariant_hom":
            def equivariant_hom(*args, **kwargs):
                before = self.hom_results
                homs = fn(*args, **kwargs)
                self.kept += len(homs)
                self.kept_of += self.hom_results - before
                return homs
            return equivariant_hom
        if attr == "equivariant_factorize":
            from dendron.gtrees import NotEquivariant

            def equivariant_factorize(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except NotEquivariant:
                    self.raised += 1
                    raise
            return equivariant_factorize
        return fn

    def install(self):
        """Wrap every boundary; call once per process, before the run."""
        mods = {m: importlib.import_module(f"dendron.{m}") for m in MODULES}
        everywhere = list(mods.values()) + [importlib.import_module("dendron")]
        self._phi_star = mods["substitution"].phi_star
        for module, attr, kind in BOUNDARIES:
            name = f"{module}.{attr}"
            if kind in ("class", "method"):
                cls_name, _, meth = attr.partition(".")
                cls = getattr(mods[module], cls_name)
                meth = meth or "__init__"
                setattr(cls, meth, self.timed(name, getattr(cls, meth)))
                continue
            orig = getattr(mods[module], attr)
            fn = self._with_counters(attr, orig)
            wrapped = (self.counted(name, fn) if kind == "count"
                       else self.timed(name, fn))
            sites = ([mods[m] for m in SITES[attr]] if attr in SITES
                     else everywhere)
            for site in sites:
                if getattr(site, attr, None) is orig:
                    setattr(site, attr, wrapped)
        cli = mods["cli"]
        for suite in SUITES:
            setattr(cli, suite, self.timed(f"cli.{suite}",
                                           getattr(cli, suite)))

    def totals(self):
        """Calls and self time per boundary name, from the spans and counts.

        A span's self time is its duration minus the durations of the spans
        it directly caused.
        """
        calls = list(self.counts)
        self_s = [0.0] * len(self.names)
        ids, parents, starts, ends = (self.ids, self.parents, self.starts,
                                      self.ends)
        for i in range(len(ids)):
            dur = ends[i] - starts[i]
            calls[ids[i]] += 1
            self_s[ids[i]] += dur
            if parents[i] >= 0:
                self_s[ids[parents[i]]] -= dur
        return ({n: c for n, c in zip(self.names, calls)},
                {n: t for n, t in zip(self.names, self_s)})

    def metrics(self):
        """Per-layer metrics of everything traced so far, by name."""
        calls, self_s = self.totals()
        out = {}
        for module, attr, kind in BOUNDARIES:
            name = f"{module}.{attr}"
            out[f"{name}.calls"] = calls[name]
            if kind != "count":
                out[f"{name}.self_s"] = self_s[name]
        info = self._phi_star.cache_info()
        looked_up = info.hits + info.misses
        out["morphisms.hom_set.results"] = self.hom_results
        out["substitution.phi_star.hit_ratio"] = (info.hits / looked_up
                                                  if looked_up else 0.0)
        out["gtrees.equivariant_hom.kept_ratio"] = (
            self.kept / self.kept_of if self.kept_of else 0.0)
        out["gtrees.equivariant_factorize.raised"] = self.raised
        return out

    def dump(self, path):
        """Write the spans to `path`.

        The file holds one JSON header line (boundary names, span count and
        the layout), then four little-endian arrays of that many entries:
        boundary id (int32), parent span or -1 (int32), start and end
        (float64, perf_counter seconds).  Spans are in the order they
        opened.
        """
        header = {"names": self.names, "spans": len(self.ids),
                  "layout": ["id:int32", "parent:int32", "start:float64",
                             "end:float64"]}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.ids, self.parents, self.starts, self.ends):
                if sys.byteorder != "little":
                    arr = array(arr.typecode, arr)
                    arr.byteswap()
                arr.tofile(fh)
        os.replace(tmp, path)
