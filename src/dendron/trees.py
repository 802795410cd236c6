"""Rooted non-planar trees whose vertices may have any arity, including zero.

A tree is a finite set of edges, one of which is the root, plus a set of
vertices.  Every vertex has a single out-edge (pointing toward the root) and
a finite, possibly empty, set of in-edges.  Edges that are nobody's out-edge
are the leaves; a vertex with no in-edges caps its out-edge, which therefore
does not count as a leaf.  The edge-only tree is both its own root and its
own single leaf.

Edges are names: ints, strings or tuples of names.  Nothing here is
planar: in-edges are sets, and isomorphism is decided through a canonical
code built from sorted child codes.
"""

from __future__ import annotations

import functools
import itertools


class TreeError(ValueError):
    """Base class for malformed-tree errors."""


class DanglingEdge(TreeError):
    """A vertex references an edge that is not in the edge set."""


class MultipleParents(TreeError):
    """An edge is claimed by more than one vertex on the same side."""


class RootHasParent(TreeError):
    """The root appears among some vertex's in-edges."""


class Disconnected(TreeError):
    """Some edge cannot be reached from the root."""


class Cyclic(TreeError):
    """Following out-edges from some edge never reaches the root."""


class SiteNotLeafOrRoot(TreeError):
    """Grafting was requested at an edge that is neither a leaf nor the root."""


@functools.lru_cache(maxsize=1 << 16, typed=True)
def sort_key(edge):
    """Total order on edge names: ints (bools included), strings and
    tuples of names.

    Ints sort before strings before tuples; tuples compare componentwise
    through the same key.  Any other name raises TypeError.  Used
    everywhere iteration order must be reproducible across runs.

    Keys are cached per name: a run meets a few hundred distinct names and
    asks for their keys millions of times.  Names that are equal get equal
    keys, so what the bounded cache returns never depends on what it saw
    first; a tuple equal to a cached one, such as (1, 1.0) to (1, 1), gets
    its key instead of the TypeError.
    """
    if isinstance(edge, int):
        return (0, edge)
    if isinstance(edge, str):
        return (1, edge)
    if isinstance(edge, tuple):
        return (2, tuple(sort_key(x) for x in edge))
    raise TypeError("names are ints, strings or tuples of names, not "
                    f"{type(edge).__name__}")


class Tree:
    """Immutable rooted tree.  Validates its input on construction.

    `_checked=True` is for trees built from an already-validated one by a
    move that keeps it a tree (a collapse, contraction, span or growth): it
    fills the same fields but skips the checks.  tests/test_trusted.py
    pins every such caller against this validating path.

    Derived order data (ancestor chains, codes, canonical order, sorted
    edges, fresh graft layer) is computed on first use and kept, since a
    tree never changes.
    """

    __slots__ = ("edges", "root", "vertices", "leaves", "_children",
                 "_parent", "_ancestors", "_code_cache", "_order_cache",
                 "_sorted", "_fresh")

    def __init__(self, edges, root, vertices, _checked=False):
        self.edges = frozenset(edges)
        self.root = root
        vs = []
        for out, ins in vertices:
            vs.append((out, frozenset(ins)))
        vs.sort(key=lambda v: sort_key(v[0]))
        self.vertices = tuple(vs)
        if _checked:
            self._children = dict(vs)
            self._parent = {e: out for out, ins in vs for e in ins}
        else:
            self._validate()
        self.leaves = tuple(sorted(
            (e for e in self.edges if e not in self._children), key=sort_key))
        self._ancestors = None
        self._code_cache = None
        self._order_cache = None
        self._sorted = None
        self._fresh = None

    def _validate(self):
        if self.root not in self.edges:
            raise DanglingEdge(f"root {self.root!r} is not an edge")
        children = {}
        parent = {}
        for out, ins in self.vertices:
            if out not in self.edges:
                raise DanglingEdge(f"out-edge {out!r} is not an edge")
            if out in children:
                raise MultipleParents(f"edge {out!r} is the out-edge of two vertices")
            children[out] = ins
            for e in ins:
                if e not in self.edges:
                    raise DanglingEdge(f"in-edge {e!r} is not an edge")
                if e in parent:
                    raise MultipleParents(f"edge {e!r} is an in-edge of two vertices")
                parent[e] = out
        if self.root in parent:
            raise RootHasParent(f"root {self.root!r} hangs under a vertex")
        self._children = children
        self._parent = parent
        # walk up from the root; everything must be met exactly once
        seen = {self.root}
        frontier = [self.root]
        while frontier:
            e = frontier.pop()
            for c in children.get(e, ()):
                if c in seen:
                    raise Cyclic(f"edge {c!r} is reachable twice")
                seen.add(c)
                frontier.append(c)
        if seen != self.edges:
            stray = min(self.edges - seen, key=sort_key)
            walked = set()
            e = stray
            while e in parent and e not in walked:
                walked.add(e)
                e = parent[e]
            if e in walked:
                raise Cyclic(f"edge {stray!r} sits on an out-edge cycle")
            raise Disconnected(f"edge {stray!r} never reaches the root")

    def _chains(self):
        """Each edge's path down to the root, inclusive, built on first use:
        most trees never ask for one."""
        if self._ancestors is None:
            anc = {self.root: (self.root,)}
            frontier = [self.root]
            while frontier:
                e = frontier.pop()
                for c in self._children.get(e, ()):
                    anc[c] = (c,) + anc[e]
                    frontier.append(c)
            self._ancestors = anc
        return self._ancestors

    # --- basic geometry -------------------------------------------------

    def children_of(self, edge):
        """In-edges of the vertex atop `edge`, or None if no vertex is there."""
        return self._children.get(edge)

    def parent_of(self, edge):
        """Out-edge of the vertex below `edge`, or None at the root."""
        return self._parent.get(edge)

    def depth(self, edge):
        return len(self._chains()[edge]) - 1

    def le(self, x, y):
        """True iff the path from x to the root passes through y."""
        return y in self._chains()[x]

    def is_leaf(self, edge):
        return edge not in self._children

    def is_inner(self, edge):
        """Inner edges touch a vertex on both ends."""
        return edge in self._children and edge in self._parent

    def sorted_edges(self):
        """The edges in `sort_key` order.  An edge's index here is its rank
        among this tree's edges, so edges of one tree can be ordered by
        position instead of by `sort_key`."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self.edges, key=sort_key))
        return self._sorted

    # --- identity --------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        return (self.root == other.root and self.edges == other.edges
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.root, self.edges, self.vertices))

    def __repr__(self):
        return (f"<Tree root={self.root!r} {len(self.edges)} edges "
                f"{len(self.vertices)} vertices>")

    # --- canonical structure ----------------------------------------------

    def edge_codes(self):
        """Canonical integer-sequence code of the subtree above each edge."""
        if self._code_cache is None:
            # breadth-first from the root, then coded in reverse, so every
            # child is coded before its parent
            order = [self.root]
            for e in order:
                order.extend(self._children.get(e, ()))
            codes = {}
            for e in reversed(order):
                ins = self._children.get(e)
                if ins is None:
                    codes[e] = (0,)
                else:
                    flat = [1, len(ins)]
                    for s in sorted(codes[c] for c in ins):
                        flat.extend(s)
                    codes[e] = tuple(flat)
            self._code_cache = codes
        return self._code_cache

    def canonical_edge_order(self):
        """Deterministic edge listing: preorder, children sorted by code."""
        if self._order_cache is None:
            codes = self.edge_codes()
            pos = {e: i for i, e in enumerate(self.sorted_edges())}
            order = []
            stack = [self.root]
            while stack:
                e = stack.pop()
                order.append(e)
                ins = self._children.get(e)
                if ins:
                    stack.extend(sorted(ins, key=lambda x: (codes[x], pos[x]),
                                        reverse=True))
            self._order_cache = tuple(order)
        return self._order_cache


def canonical_form(tree):
    """Isomorphism-class fingerprint: a flat tuple of small ints."""
    return tree.edge_codes()[tree.root]


def single_edge(name="e"):
    """The tree with one edge, no vertices."""
    return Tree([name], name, [])


def corolla(n, root="r", leaf_prefix="l"):
    """One vertex with n in-edges; n = 0 gives the stump."""
    leaves = [f"{leaf_prefix}{i}" for i in range(n)]
    return Tree([root] + leaves, root, [(root, leaves)])


def linear_tree(k, prefix="e"):
    """k unary vertices stacked over the root; k + 1 edges."""
    edges = [f"{prefix}{i}" for i in range(k + 1)]
    vertices = [(edges[i], [edges[i + 1]]) for i in range(k)]
    return Tree(edges, edges[0], vertices)


def relabel(tree, mapping):
    """Rename edges through a bijection given as a dict."""
    if set(mapping) != tree.edges:
        raise DanglingEdge("relabel mapping must cover the edge set exactly")
    if len(set(mapping.values())) != len(mapping):
        raise MultipleParents("relabel mapping must be injective")
    return Tree([mapping[e] for e in tree.edges], mapping[tree.root],
                [(mapping[o], [mapping[e] for e in ins])
                 for o, ins in tree.vertices])


def relabel_canonical(tree, prefix="e"):
    """Rename edges e0, e1, ... following the canonical edge order."""
    order = tree.canonical_edge_order()
    return relabel(tree, {e: f"{prefix}{i}" for i, e in enumerate(order)})


def all_isomorphisms(src, dst):
    """Yield every root-preserving structure bijection src -> dst as a dict.

    At each matched pair of edges the children fall into classes of equal
    code, taken in code order; each class is matched by a permutation, and
    its children are matched through before the next class is chosen.
    Bijections come in lexicographic order of these choices.  The search
    runs on an explicit stack, so it leaves no reference cycles.
    """
    cs, cd = src.edge_codes(), dst.edge_codes()
    if cs[src.root] != cd[dst.root]:
        return
    spos = {e: i for i, e in enumerate(src.sorted_edges())}
    dpos = {e: i for i, e in enumerate(dst.sorted_edges())}

    def classes(tree, codes, pos):
        out = {}
        for e in tree.edges:
            by_code = {}
            for c in tree.children_of(e) or ():
                by_code.setdefault(codes[c], []).append(c)
            out[e] = [sorted(by_code[k], key=pos.__getitem__)
                      for k in sorted(by_code)]
        return out

    src_classes = classes(src, cs, spos)
    dst_classes = classes(dst, cd, dpos)
    # the key order of every yielded dict: an edge, then the children of
    # its last class, ..., then those of its first, each with its subtree
    order = []
    stack = [src.root]
    while stack:
        e = stack.pop()
        order.append(e)
        stack.extend(c for cls in src_classes[e] for c in reversed(cls))

    # `agenda` is the work still to do, as a linked list (item, rest) so a
    # choice point can keep the agenda below it; an item is (False, es, ed),
    # an edge pair to match, or (True, srcs, dsts), a class to permute.
    # `choices` holds, per open class, its permutations still to try.
    image = {}
    choices = []
    agenda = ((False, src.root, dst.root), None)
    while True:
        while agenda is not None:
            (is_class, a, b), agenda = agenda
            if is_class:
                choices.append((itertools.permutations(b), a, agenda))
                break
            image[a] = b
            pairs = zip(src_classes[a], dst_classes[b])
            for pair in reversed(tuple(pairs)):
                agenda = ((True, *pair), agenda)
        else:
            yield {e: image[e] for e in order}
        # the next permutation of the innermost class that has one left
        while choices:
            perms, a, agenda = choices[-1]
            perm = next(perms, None)
            if perm is not None:
                for pair in reversed(tuple(zip(a, perm))):
                    agenda = ((False, *pair), agenda)
                break
            choices.pop()
        else:
            return


def are_isomorphic(src, dst):
    """One witnessing edge bijection, or None."""
    return next(all_isomorphisms(src, dst), None)


def spanned_subtree(tree, root_edge, leaf_set):
    """The unique subtree with the given root and exact leaf set, or None.

    Growth from the root stops at demanded leaves and otherwise must keep
    climbing, pulling in whole vertices (stumps included).  Failure means no
    such subtree exists.  Success gives (edge set, out-edges of its
    vertices), the out-edges in no particular order.
    """
    leaf_set = frozenset(leaf_set)
    if root_edge not in tree.edges:
        return None
    included = {root_edge}
    vertex_outs = []
    frontier = [root_edge]
    while frontier:
        e = frontier.pop()
        if e in leaf_set:
            continue
        ins = tree.children_of(e)
        if ins is None:
            return None  # forced leaf that was not asked for
        vertex_outs.append(e)
        for c in ins:
            included.add(c)
            frontier.append(c)
    if not leaf_set <= included:
        return None
    # demanded leaves must actually be leaves of the grown subtree
    for e in leaf_set:
        if e in vertex_outs:
            return None
    return frozenset(included), tuple(vertex_outs)


def _fresh_layer(tree):
    """The least graft layer L such that no edge of `tree` is named
    ("graft", L, x); scanned once per tree and kept."""
    if tree._fresh is None:
        taken = set()
        for e in tree.edges:
            if isinstance(e, tuple) and len(e) == 3 and e[0] == "graft" \
                    and isinstance(e[1], int):
                taken.add(e[1])
        layer = 0
        while layer in taken:
            layer += 1
        tree._fresh = layer
    return tree._fresh


def graft(tree, site, arity, below=None):
    """Attach a fresh corolla at a leaf or below the root.

    At a leaf the new vertex gets `arity` fresh in-edges (zero makes a
    stump).  At the root the corolla goes underneath: a fresh root plus
    `arity` - 1 fresh leaves, the old root taking the remaining slot, so
    arity must be at least 1 there.  `below` forces the root-side reading
    when the site is both root and leaf (the edge-only tree).  Returns
    (bigger tree, embedding map), the embedding being identity on the old
    edge names.
    """
    if site not in tree.edges:
        raise DanglingEdge(f"graft site {site!r} is not an edge")
    if below is None:
        below = site == tree.root and not tree.is_leaf(site)
    layer = _fresh_layer(tree)
    edges = set(tree.edges)
    vertices = list(tree.vertices)
    if below:
        if site != tree.root:
            raise SiteNotLeafOrRoot("grafting below is only possible at the root")
        if arity < 1:
            raise SiteNotLeafOrRoot("a root graft needs arity at least 1")
        new_root = ("graft", layer, "root")
        fresh = [("graft", layer, i) for i in range(arity - 1)]
        edges.add(new_root)
        edges.update(fresh)
        vertices.append((new_root, [tree.root] + fresh))
        bigger = Tree(edges, new_root, vertices)
    elif tree.is_leaf(site):
        fresh = [("graft", layer, i) for i in range(arity)]
        edges.update(fresh)
        vertices.append((site, fresh))
        bigger = Tree(edges, tree.root, vertices)
    else:
        raise SiteNotLeafOrRoot(f"cannot graft at {site!r}")
    return bigger, {e: e for e in tree.edges}


def enumerate_all_trees(max_edges):
    """All isomorphism classes with at most `max_edges` edges, as
    canonically named trees ordered by edge count, then canonical code.

    One closure under leaf grafting from the edge-only tree, which reaches
    every class: peeling off an uppermost vertex is the inverse move.  A
    graft never removes edges, so arities stop at the remaining edge
    budget (zero, a stump, always fits).
    """
    if max_edges < 1:
        return []
    start = single_edge("e0")
    seen = {canonical_form(start): start}
    frontier = [start]
    while frontier:
        tree = frontier.pop()
        budget = max_edges - len(tree.edges)
        for site in tree.leaves:
            for arity in range(budget + 1):
                bigger, _ = graft(tree, site, arity)
                key = canonical_form(bigger)
                if key not in seen:
                    seen[key] = bigger
                    frontier.append(bigger)
    found = sorted(seen.items(), key=lambda kv: (len(kv[1].edges), kv[0]))
    return [relabel_canonical(t) for _, t in found]


# --- serialization ---------------------------------------------------------


def _require_str_names(tree):
    for e in tree.edges:
        if not isinstance(e, str):
            return False
    return True


def tree_to_json(tree):
    """Schema: {"edges": [...], "root": ..., "vertices": [{"out","in"}]}.

    Files carry string edge names; trees with generated tuple names are
    renamed canonically first.
    """
    if not _require_str_names(tree):
        tree = relabel_canonical(tree)
    return {
        "edges": list(tree.sorted_edges()),
        "root": tree.root,
        "vertices": [{"out": o, "in": sorted(ins, key=sort_key)}
                     for o, ins in tree.vertices],
    }


def tree_from_json(data):
    """Read a document written by `tree_to_json`, exactly as written: the
    edges and each in-edge list are lists, names are str or int (not
    bool), and no name repeats."""
    try:
        edges = data["edges"]
        root = data["root"]
        vertices = [(v["out"], v["in"]) for v in data["vertices"]]
    except (KeyError, TypeError) as exc:
        raise TreeError(f"malformed tree document: {exc}") from exc
    if not isinstance(edges, list) \
            or not all(isinstance(ins, list) for _, ins in vertices):
        raise TreeError("edges and in-edges must be lists")
    names = [root, *edges, *(e for o, ins in vertices for e in (o, *ins))]
    if not all(type(e) in (str, int) for e in names):
        raise TreeError("edge names must be strings or integers")
    if len(set(edges)) != len(edges):
        raise MultipleParents("duplicate edge name in document")
    if any(len(set(ins)) != len(ins) for _, ins in vertices):
        raise MultipleParents("repeated in-edge in document")
    return Tree(edges, root, vertices)
