"""Trees carrying a finite group action, and their orbit-wise calculus.

A group acts on a tree through root-preserving automorphisms, one edge
permutation per element.  The face and degeneracy generators then come in
orbit-sized packets: an inner face contracts a whole orbit of edges at once,
a degeneracy merges an orbit of unary vertices, and an outer face grafts the
same corolla over every leaf in an orbit.  Every equivariant morphism
factors through such packets, mirroring the plain normal form stage by
stage.

Labeled variants carry a G-set of labels matched equivariantly to the
leaves.  Corolla substitution along an equivariant pointed map lifts from
the unlabeled calculus by acting on the fresh edges through the label
action, and the comparison cells need no equivariant correction at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .trees import (
    Tree,
    TreeError,
    all_isomorphisms,
    canonical_form,
    relabel_canonical,
    single_edge,
    _fresh_layer,
)
from .morphisms import (
    TreeMorphism,
    SourceTargetMismatch,
    NotEquivariant,
    compose,
    split_edge,
    hom_set,
    _contract_edges,
    _edge_orbit,
    _normal_form,
)
from .labels import (
    LabeledTree,
    LabelError,
    PointedMap,
    PLUS,
    compose_pointed,
    hom_labeled,
)
from .substitution import GrothTreeMorphism, phi_star, lift_morphism, \
    _extend_fresh, _oplax_data
from .groups import (
    GSet,
    check_action,
    close_table,
    coset_gset,
    cyclic_group,
    disjoint_union_gsets,
    is_equivariant,
    maps_by_orbit_reps,
    skeletal_gsets,
    subgroup_class_reps,
    trivial_gset,
)


class SiteInvalid(TreeError):
    """Raised when an orbit graft is aimed somewhere it cannot go."""


class GTree:
    """A tree with a group acting by root-preserving automorphisms.

    The action is a full table: one edge permutation per group element,
    composing as the group does.
    """

    __slots__ = ("tree", "group", "action", "_hash")

    def __init__(self, tree, group, action):
        self.tree = tree
        self.group = group
        self.action = {g: dict(row) for g, row in action.items()}
        self._hash = None
        check_action(group, self.action, tree.edges, NotEquivariant)
        if not is_equivariant(group, {tree.root: tree.root}, lambda g, e: e,
                              self.act):
            raise NotEquivariant("a generator's row moves the root")
        # each edge to the in-edges of the vertex atop it, None at a leaf
        ins = {e: tree.children_of(e) for e in tree.edges}
        if not is_equivariant(group, ins, self.act, self._act_on_ins):
            raise NotEquivariant("a generator's row tears a vertex apart")

    @classmethod
    def trivial(cls, tree, group):
        rows = {g: {e: e for e in tree.edges} for g in group.elements}
        return cls(tree, group, rows)

    @classmethod
    def from_generator_rows(cls, tree, group, rows):
        """Close a partial table given on a generating set."""
        have = close_table(group, rows, {e: e for e in tree.edges},
                           lambda a, b: {e: a[b[e]] for e in tree.edges},
                           NotEquivariant)
        return cls(tree, group, have)

    def act(self, g, e):
        return self.action[g][e]

    def _act_on_ins(self, g, ins):
        return None if ins is None else frozenset([self.action[g][e]
                                                   for e in ins])

    def edge_orbit(self, e):
        return _edge_orbit(e, self.action.values())

    def edge_orbits(self):
        gset = GSet(self.group, self.tree.edges, self.action)
        return tuple(o.members for o in gset.orbits())

    def edge_stabilizer(self, e):
        return tuple(g for g in self.group.elements if self.action[g][e] == e)

    def leaf_gset(self):
        leaves = self.tree.leaves
        rows = {g: {e: self.action[g][e] for e in leaves}
                for g in self.group.elements}
        return GSet(self.group, leaves, rows)

    def __eq__(self, other):
        if not isinstance(other, GTree):
            return NotImplemented
        return (self.tree == other.tree and self.group == other.group
                and self.action == other.action)

    def __hash__(self):
        if self._hash is None:
            rows = tuple(tuple(self.action[g][e]
                               for e in self.tree.sorted_edges())
                         for g in self.group.elements)
            self._hash = hash((self.tree, self.group, rows))
        return self._hash

    def __repr__(self):
        return (f"<GTree {len(self.tree.edges)} edges, "
                f"order-{self.group.order} group>")


class GLabeledTree:
    """A GTree whose leaves are labeled, equivariantly, by a G-set."""

    __slots__ = ("gtree", "label_gset", "labeled", "_hash")

    def __init__(self, gtree, label_gset, labels):
        self.gtree = gtree
        self.label_gset = label_gset
        self.labeled = LabeledTree(gtree.tree, labels)
        self._hash = None
        if label_gset.group != gtree.group:
            raise NotEquivariant("labels and tree must share the group")
        leaves = {a: self.labeled.leaf_of(a) for a in label_gset.elements}
        if not is_equivariant(gtree.group, leaves, label_gset.act,
                              gtree.act):
            raise NotEquivariant("labeling does not commute with the action")

    @classmethod
    def self_labeled(cls, gtree):
        """Label every leaf by its own edge name."""
        return cls(gtree, gtree.leaf_gset(),
                   {e: e for e in gtree.tree.leaves})

    @property
    def tree(self):
        return self.gtree.tree

    @property
    def label_set(self):
        return self.labeled.label_set

    def leaf_of(self, a):
        return self.labeled.leaf_of(a)

    def __eq__(self, other):
        if not isinstance(other, GLabeledTree):
            return NotImplemented
        return (self.gtree == other.gtree
                and self.label_gset == other.label_gset
                and self.labeled == other.labeled)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.gtree, self.label_gset, self.labeled))
        return self._hash

    def __repr__(self):
        return f"<GLabeledTree {self.labeled!r}>"


def is_equivariant_morphism(src, dst, f):
    """Does the edge map commute with both actions?"""
    if f.src != src.tree or f.dst != dst.tree:
        raise SourceTargetMismatch("morphism does not match the actions")
    return is_equivariant(src.group, f.mapping, src.act, dst.act)


def equivariant_hom(src, dst):
    """The morphisms src.tree -> dst.tree commuting with the actions."""
    if src.group != dst.group:
        raise NotEquivariant("hom needs a common group")
    return tuple(f for f in hom_set(src.tree, dst.tree)
                 if is_equivariant_morphism(src, dst, f))


def equivariant_isomorphisms(src, dst):
    out = []
    for m in all_isomorphisms(src.tree, dst.tree):
        f = TreeMorphism(src.tree, dst.tree, m, _checked=True)
        if is_equivariant_morphism(src, dst, f):
            out.append(f)
    return tuple(out)


def are_equivariant_isomorphic(src, dst):
    return bool(equivariant_isomorphisms(src, dst))


def equivariant_contract_orbit(gtree, edge):
    """Contract every edge in the orbit of an inner edge.

    Returns (smaller GTree, face map smaller.tree -> gtree.tree); the face
    is the edge inclusion, and equals the composite of the one-edge faces
    taken in any order.
    """
    cur, delta = _contract_edges(gtree.tree, gtree.edge_orbit(edge))
    rows = {g: {e: row[e] for e in cur.edges}
            for g, row in gtree.action.items()}
    return GTree(cur, gtree.group, rows), delta


def equivariant_split_orbit(gtree, edge):
    """Insert a unary vertex along every edge in an orbit.

    Returns (bigger GTree, degeneracy bigger.tree -> gtree.tree) sending
    both halves of each split edge to the original.
    """
    if edge not in gtree.tree.edges:
        raise TreeError(f"{edge!r} is not an edge")
    orbit = gtree.edge_orbit(edge)
    cur = gtree.tree
    upper = {}
    for e in orbit:
        before = set(cur.edges)
        cur, _ = split_edge(cur, e)
        (upper[e],) = set(cur.edges) - before
    rows = {}
    for g in gtree.group.elements:
        row = {e: gtree.act(g, e) for e in gtree.tree.edges}
        for e in orbit:
            row[upper[e]] = upper[gtree.act(g, e)]
        rows[g] = row
    bigger = GTree(cur, gtree.group, rows)
    mapping = {e: e for e in gtree.tree.edges}
    mapping.update({upper[e]: e for e in orbit})
    sigma = TreeMorphism(cur, gtree.tree, mapping)
    return bigger, sigma


def equivariant_graft_orbit(gtree, site, corolla, attach=None):
    """Graft the same corolla over a whole orbit of leaves.

    The corolla is a G-set of fresh leaves.  `attach` maps each corolla
    element, equivariantly, to the orbit member it hangs over (defaulting
    to the site itself when the orbit is a fixed point; empty fibers make
    stumps).  Grafts go at leaves only; `enumerate_gtrees` reaches every
    G-tree that way.  Returns (bigger GTree, face gtree.tree ->
    bigger.tree), the edge inclusion.
    """
    tree = gtree.tree
    if corolla.group != gtree.group:
        raise NotEquivariant("corolla and tree must share the group")
    if not tree.is_leaf(site):
        raise SiteInvalid(f"{site!r} is not a leaf")
    layer = _fresh_layer(tree)
    orbit = gtree.edge_orbit(site)
    if attach is None:
        if orbit != (site,):
            raise SiteInvalid("a graft over a moving orbit needs an "
                              "attach map")
        attach = {c: site for c in corolla.elements}
    attach = dict(attach)
    if set(attach) != set(corolla.elements) \
            or not set(attach.values()) <= set(orbit):
        raise SiteInvalid("attach must map the corolla into the orbit")
    if not is_equivariant(gtree.group, attach, corolla.act, gtree.act):
        raise NotEquivariant("attach map is not equivariant")
    fresh = {c: ("graft", layer, c) for c in corolla.elements}
    edges = set(tree.edges) | set(fresh.values())
    vertices = list(tree.vertices)
    for m in orbit:
        vertices.append((m, [fresh[c] for c in corolla.elements
                             if attach[c] == m]))
    bigger_tree = Tree(edges, tree.root, vertices)
    rows = {}
    for g in gtree.group.elements:
        row = {e: gtree.act(g, e) for e in tree.edges}
        for c in corolla.elements:
            row[fresh[c]] = fresh[corolla.act(g, c)]
        rows[g] = row
    bigger = GTree(bigger_tree, gtree.group, rows)
    delta = TreeMorphism(tree, bigger_tree, {e: e for e in tree.edges})
    return bigger, delta


def equivariant_factorize(src, dst, f, memo=None):
    """Factor an equivariant morphism into orbit-sized stages.

    The plain normal form, computed with the actions' rows: each face or
    degeneracy handles a whole orbit at once.  Raises NotEquivariant when
    the map does not commute with the actions (the stages cannot be
    grouped).

    Without a memo every stage is built afresh; that is the reference
    path.  Maps factored through one memo, a dict the caller owns, share
    two chains (see `morphisms.factorize`): the degeneracies, built once
    per (source G-tree, kernel classes), and the middle subtree with its
    inner faces, once per (target G-tree, image root, image leaves, image
    edges).  A G-tree hashes by its rows, so the keys read the actions.
    The outer faces are built per map: on the equivariant suite they hold
    most of a memo's memory and save little time.  Each map still builds
    and checks its own residual isomorphism and its residual equivariance,
    so a map that is not equivariant raises at the same check, with the
    same message.  The equivariant suite keeps one memo per source row
    (`cli._equivariant_pair`).
    """
    if f.src != src.tree or f.dst != dst.tree:
        raise SourceTargetMismatch("morphism does not match the actions")
    if src.group != dst.group:
        raise NotEquivariant("factorization needs a common group")
    moving = [g for g in src.group.elements if g != src.group.identity]
    return _normal_form(f, [src.action[g] for g in moving],
                        [dst.action[g] for g in moving], memo, (src, dst))


def _pointed_act(gset):
    """The action on gset+, fixing the basepoint."""
    return lambda g, y: PLUS if y == PLUS else gset.act(g, y)


class EquivariantPointedMap(PointedMap):
    """A pointed map between G-set carriers that commutes with the actions.

    The G-sets ride along as attributes; equality stays that of the
    underlying pointed map, so these mix freely with plain ones.
    """

    __slots__ = ("src_gset", "dst_gset")

    def __init__(self, src_gset, dst_gset, mapping):
        super().__init__(src_gset.elements, dst_gset.elements, mapping)
        self.src_gset = src_gset
        self.dst_gset = dst_gset
        if src_gset.group != dst_gset.group:
            raise NotEquivariant("pointed map needs a common group")
        if not is_equivariant(src_gset.group, self.mapping, src_gset.act,
                              _pointed_act(dst_gset)):
            raise NotEquivariant("pointed map does not commute with the "
                                 "actions")


def enumerate_equivariant_pointed_maps(src_gset, dst_gset):
    """All equivariant pointed maps src+ -> dst+, deterministically.

    One image per source orbit representative: the basepoint or any
    target.
    """
    if src_gset.group != dst_gset.group:
        raise NotEquivariant("pointed maps need a common group")
    return tuple(EquivariantPointedMap(src_gset, dst_gset, m)
                 for m in maps_by_orbit_reps(
                     src_gset, lambda r: (PLUS,) + dst_gset.elements,
                     _pointed_act(dst_gset)))


def phi_star_G(phi, glabeled):
    """Corolla substitution along an equivariant pointed map.

    The underlying tree is the plain phi_star; the action extends over the
    fresh leaves through the source G-set and fixes the fresh root.
    """
    if not isinstance(phi, EquivariantPointedMap):
        raise NotEquivariant("substitution needs an equivariant pointed map")
    if phi.dst_gset != glabeled.label_gset:
        raise LabelError("pointed map does not act on this label set")
    bigger = phi_star(phi, glabeled.labeled)
    gtree = glabeled.gtree
    rows = {g: _extend_fresh(bigger, bigger,
                             {e: gtree.act(g, e) for e in gtree.tree.edges},
                             lambda b: phi.src_gset.act(g, b))
            for g in gtree.group.elements}
    gt = GTree(bigger.tree, gtree.group, rows)
    return GLabeledTree(gt, phi.src_gset, bigger.labels)


def groth_hom_G(src, dst):
    """All equivariant Grothendieck morphisms between labeled G-trees.

    phi runs over equivariant pointed maps from the target's labels to the
    source's; the fiber is a label-preserving, equivariant morphism from
    the substituted source.  Each pair is a GrothTreeMorphism between the
    underlying labeled trees, so F_functor projects it.
    """
    out = []
    for phi in enumerate_equivariant_pointed_maps(dst.label_gset,
                                                  src.label_gset):
        mid = phi_star_G(phi, src)
        for fiber in hom_labeled(mid.labeled, dst.labeled):
            if is_equivariant_morphism(mid.gtree, dst.gtree, fiber):
                out.append(GrothTreeMorphism(src.labeled, dst.labeled, phi,
                                             fiber, _checked=True))
    return tuple(out)


def lift_G(f, src, dst, _checked=False):
    """The unique equivariant Grothendieck morphism projecting to f.

    Raises NotEquivariant when f does not commute with the actions.  For
    an equivariant f the plain lift's pointed map and fiber commute with
    the actions too, so the plain lift is returned as it is.  `_checked`
    is for a caller that has already decided f is equivariant.
    """
    if not _checked and not is_equivariant_morphism(src.gtree, dst.gtree, f):
        raise NotEquivariant("morphism does not commute with the actions")
    return lift_morphism(f, src.labeled, dst.labeled)


def equivariant_canonical_key(gtree):
    """A complete invariant: canonical tree code plus the least relabeled
    action table over all canonical renamings."""
    canon = relabel_canonical(gtree.tree)
    order = tuple(canon.sorted_edges())
    best = None
    for m in all_isomorphisms(gtree.tree, canon):
        inv = {v: k for k, v in m.items()}
        table = tuple(tuple(m[gtree.act(g, inv[e])] for e in order)
                      for g in gtree.group.elements)
        if best is None or table < best:
            best = table
    return (canonical_form(gtree.tree), best)


@lru_cache(maxsize=1 << 10)
def _corollas(group, stab, cap):
    """Every multiset of coset G-sets G/K with K inside stab and total size
    at most cap, with its disjoint union: (parts, corolla) pairs, the
    empty multiset (a stump orbit) first.  No tree enters, so the list is
    built once per (group, stabilizer, cap) and shared."""
    types = [part for part in (coset_gset(group, sub) for sub in
                               sorted(subgroup_class_reps(group, within=stab)))
             if part.size <= cap]
    options = [()]

    def build(start, left, chosen):
        for i in range(start, len(types)):
            t = types[i]
            if t.size <= left:
                options.append(tuple(chosen + [t]))
                build(i, left - t.size, chosen + [t])

    build(0, cap, [])
    return tuple((parts, disjoint_union_gsets(list(parts)) if parts
                  else trivial_gset(group, ())) for parts in options)


def _orbit_graft_options(group, gtree, leaf, budget, max_corolla):
    """Corollas available over a leaf orbit: multisets of coset G-sets G/K
    with K inside the stabilizer, attached by translation; sizes bounded
    by the remaining edge budget.  The empty corolla (a stump orbit) is
    always an option."""
    return [(corolla, {(i, x): gtree.act(x, leaf)
                       for i, p in enumerate(parts) for x in p.elements})
            for parts, corolla in _corollas(
                group, gtree.edge_stabilizer(leaf), min(budget, max_corolla))]


def enumerate_gtrees(group, max_edges, max_corolla=4, per_stratum=None):
    """Distinct G-trees reachable by orbit grafts, up to equivariant
    isomorphism.

    Grows from the edge-only tree: each move grafts, over some leaf orbit,
    a corolla G-set assembled from cosets of subgroups of the stabilizer
    (the empty corolla caps the orbit with stumps).  Results keep at most
    max_edges edges.  per_stratum, when given, keeps only the first that
    many trees per edge count, in canonical-key order, after the closure.
    """
    eta = GTree.trivial(single_edge(), group)
    pool = {equivariant_canonical_key(eta): eta}
    frontier = [eta]
    while frontier:
        fresh = []
        for t in frontier:
            budget = max_edges - len(t.tree.edges)
            for site in (o.rep for o in t.leaf_gset().orbits()):
                for corolla, attach in _orbit_graft_options(
                        group, t, site, budget, max_corolla):
                    if corolla.size > 0 and corolla.size > budget:
                        continue
                    bigger, _ = equivariant_graft_orbit(t, site, corolla,
                                                        attach=attach)
                    key = equivariant_canonical_key(bigger)
                    if key not in pool:
                        pool[key] = bigger
                        fresh.append(bigger)
        frontier = fresh
    out = sorted(pool.items(), key=lambda kv: (len(kv[1].tree.edges), kv[0]))
    if per_stratum is None:
        return tuple(t for _, t in out)
    # keep a variety of actions per edge count: bucket each stratum by its
    # orbit-size profile, liveliest first, and deal round-robin
    strata = {}
    for _, t in out:
        strata.setdefault(len(t.tree.edges), []).append(t)
    kept = []
    for n in sorted(strata):
        buckets = {}
        for t in strata[n]:
            profile = tuple(sorted((len(o) for o in t.edge_orbits()),
                                   reverse=True))
            buckets.setdefault(profile, []).append(t)
        ordered = [buckets[p] for p in sorted(buckets, reverse=True)]
        taken = []
        rank = 0
        while len(taken) < per_stratum:
            row = [b[rank] for b in ordered if rank < len(b)]
            if not row:
                break
            taken.extend(row[:per_stratum - len(taken)])
            rank += 1
        kept.extend(taken)
    return tuple(kept)


def gset_pointed_category(group, max_size):
    """Pointed G-sets of bounded size and their equivariant pointed maps.

    Objects are the skeletal G-sets themselves; composition is
    diagrammatic on the underlying pointed maps.
    """
    from .oplax import FiniteCategory

    return FiniteCategory.from_homs(
        skeletal_gsets(group, max_size), enumerate_equivariant_pointed_maps,
        compose_pointed, lambda a: PointedMap.identity_on(a.elements))


def corolla_glabeled(gset):
    """The one-vertex tree whose leaves are the G-set itself."""
    root = ("root",)
    tree = Tree(set(gset.elements) | {root}, root,
                [(root, list(gset.elements))])
    rows = {g: {e: (root if e == root else gset.act(g, e))
                for e in tree.edges}
            for g in gset.group.elements}
    gt = GTree(tree, gset.group, rows)
    return GLabeledTree(gt, gset, {a: a for a in gset.elements})


def standard_probes(gsets, deep=True):
    """A few labeled G-trees per G-set: the corolla, a root split, and a
    split along the first leaf orbit."""
    probes = {}
    for a in gsets:
        plain = corolla_glabeled(a)
        items = [plain]
        if deep:
            rooted, _ = equivariant_split_orbit(plain.gtree,
                                                plain.gtree.tree.root)
            items.append(GLabeledTree(rooted, a, dict(plain.labeled.labels)))
            if a.size:
                first = a.orbits()[0].rep
                split, _ = equivariant_split_orbit(plain.gtree,
                                                   plain.leaf_of(first))
                labels = {}
                for b in a.elements:
                    leaf = plain.leaf_of(b)
                    labels[b] = (("split", leaf)
                                 if b in a.orbit(first) else leaf)
                items.append(GLabeledTree(split, a, labels))
        probes[a] = tuple(items)
    return probes


def gtree_oplax_data(group, max_size, probes, base=None):
    """Equivariant corolla substitution packaged for the coherence checker.

    The plain substitution data with phi_star_G as the action and the
    equivariant label-preserving maps as fiber arrows.  The base category
    defaults to the pointed G-set one of the given size; probes map each
    G-set to labeled G-trees over it.
    """
    if base is None:
        base = gset_pointed_category(group, max_size)

    def fiber_hom(n, x, y):
        return tuple(dict(t.mapping)
                     for t in hom_labeled(x.labeled, y.labeled)
                     if is_equivariant_morphism(x.gtree, y.gtree, t))

    return _oplax_data(base, probes,
                       app_obj=lambda f, x: phi_star_G(f.name, x),
                       fiber_hom=fiber_hom)


@dataclass(frozen=True)
class OrbitContractionSample:
    """A worked cyclic-order-four example: a big labeled G-tree, the
    result of contracting one two-edge orbit, the further contraction of a
    fixed inner edge, and the connecting faces."""

    group: object
    label_gset: GSet
    big: GLabeledTree
    mid: GLabeledTree
    small: GLabeledTree
    face_d: TreeMorphism
    face_b: TreeMorphism
    face: TreeMorphism


def z4_orbit_contraction_sample():
    """Build the cyclic-order-four sample that acceptance criterion 4 and
    the G-tree tests read.

    The big tree has eleven edges; the generator swaps the branches over
    "b" and "e" pairwise and cycles the four leaves "c", "ic", "-c",
    "-ic".  Labels form a G-set with one free orbit and one two-element
    orbit whose stabilizer has order two.  Contracting the orbit {d, id}
    gives the nine-edge mid tree; contracting the fixed edge {b} as well
    gives the eight-edge small tree.
    """
    group = cyclic_group(4)
    labels = GSet.from_generator_rows(group, ["x", "ix", "y", "-y", "iy", "-iy"],
                                      {1: {"x": "ix", "ix": "x",
                                           "y": "iy", "iy": "-y",
                                           "-y": "-iy", "-iy": "y"}})
    big_tree = Tree(
        ["r", "b", "e", "a", "ia", "d", "id", "c", "-c", "ic", "-ic"], "r",
        [("r", ["b", "e"]), ("b", ["a", "ia"]), ("e", ["d", "id"]),
         ("d", ["c", "-c"]), ("id", ["ic", "-ic"])])
    gen = {"r": "r", "b": "b", "e": "e", "a": "ia", "ia": "a",
           "d": "id", "id": "d",
           "c": "ic", "ic": "-c", "-c": "-ic", "-ic": "c"}
    big_g = GTree.from_generator_rows(big_tree, group, {1: gen})
    label_map = {"x": "a", "ix": "ia", "y": "c", "-y": "-c",
                 "iy": "ic", "-iy": "-ic"}
    big = GLabeledTree(big_g, labels, label_map)
    mid_g, face_d = equivariant_contract_orbit(big_g, "d")
    mid = GLabeledTree(mid_g, labels, label_map)
    small_g, face_b = equivariant_contract_orbit(mid_g, "b")
    small = GLabeledTree(small_g, labels, label_map)
    return OrbitContractionSample(group, labels, big, mid, small,
                                  face_d, face_b, compose(face_b, face_d))
