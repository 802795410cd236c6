"""G-forests indexed by a G-set (coset diagrams included), genuine trees,
pullbacks, and the three-way check.

A G-forest is a family of trees indexed by a G-set, with translation
isomorphisms that carry the action along; one whose roots form a single
orbit is the genuine kind.  Indexed by the cosets of a subgroup, the same
data is a diagram over the coset groupoid, and a natural transformation
is a forest morphism over the identity of the cosets: one type serves
both.  The coset G-set base is the only record of the orbit a diagram or
retractive G-set lives over, and the pullbacks along an orbit map q take
the coset G-set q leaves from.  Labeled by a retractive G-set, a diagram
is a genuine tree.  The module checks exhaustively, on small corpora,
that forest homs, pairs (orbit map, transformation) and labeled triples
match up.

On each coset a labeled genuine tree is a plain labeled tree, and the
genuine layer works through those: substitution is the plain phi_star
coset by coset, with the fresh edges named and mapped by substitution.py,
and a genuine morphism's transformation is enumerated from hom_labeled at
an orbit representative, carried to the other cosets by the translations.
"""

from .trees import relabel, tree_to_json, tree_from_json
from .morphisms import TreeMorphism, hom_set, compose
from .labels import PLUS, LabeledTree, PointedMap, LabelError, hom_labeled
from .substitution import phi_star, iota, _extend_fresh
from .oplax import FiniteCategory, FcFunctor, group_category, \
    check_equivalence
from .groups import FiniteGroup, GSet, GSetError, GroupError, \
    check_action, coset_gset, equivariant_maps, group_from_ref, \
    is_equivariant, maps_by_orbit_reps, subgroup_class_reps
from .gtrees import NotEquivariant, enumerate_gtrees
from .pairs import _run_pairs


class ForestError(ValueError):
    pass


class ActionNotFunctorial(ForestError):
    """Component data that fails to compose like the group."""


class ComponentIsoInvalid(ForestError):
    """A component map that is not an isomorphism of trees."""


class GForest:
    """A G-forest: trees indexed by a G-set, with translation isomorphisms.

    base is the G-set of indices, trees[i] the tree at index i and
    isos[(g, i)] the edge bijection from trees[i] to trees[g.i].  The isos
    act trivially at the identity and compose as the group exactly when
    they make the (index, edge) pairs a G-set, and then every iso is a
    composite of generator isos: only those are tested on the trees.
    """

    __slots__ = ("group", "base", "trees", "isos", "_hash")

    def __init__(self, base, trees, isos):
        self.group = group = base.group
        self.base = base
        self.trees = dict(trees)
        self.isos = {k: dict(v) for k, v in dict(isos).items()}
        self._hash = None
        if not self.trees or set(self.trees) != set(base.elements):
            raise ForestError("one tree per index, and at least one")
        if set(self.isos) != {(g, i) for g in group.elements
                              for i in self.trees}:
            raise ActionNotFunctorial("one iso per element and index")
        for (g, i), m in self.isos.items():
            # a bijection matching roots and vertices is a valid edge map
            if set(m) != self.trees[i].edges or g in group.generators and \
                    not TreeMorphism(self.trees[i],
                                     self.trees[base.act(g, i)], m,
                                     _checked=True).is_isomorphism():
                raise ComponentIsoInvalid(f"iso ({g}, {i}) is not a tree "
                                          "isomorphism")
        pairs = [(i, e) for i, t in self.trees.items() for e in t.edges]
        check_action(group, {g: {(i, e): (base.act(g, i),
                                          self.isos[(g, i)][e])
                                 for i, e in pairs}
                             for g in group.elements},
                     pairs, ActionNotFunctorial)

    def __eq__(self, other):
        if not isinstance(other, GForest):
            return NotImplemented
        return (self.base == other.base and self.trees == other.trees
                and self.isos == other.isos)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.base, tuple(self.trees[i]
                                                for i in self.base.elements)))
        return self._hash

    def __repr__(self):
        return f"<{type(self).__name__} of {len(self.trees)} under " \
               f"order-{self.group.order} group>"


class ForestMorphism:
    """A map of G-forests: index_map[i] is the index that i goes to, and
    components[i] the tree map from src.trees[i] to dst.trees[index_map[i]].
    """

    __slots__ = ("src", "dst", "index_map", "components", "_hash")

    def __init__(self, src, dst, index_map, components, _checked=False):
        self.src = src
        self.dst = dst
        self.index_map = dict(index_map)
        self.components = dict(components)
        self._hash = None
        if _checked:
            return
        if src.group != dst.group:
            raise ForestError("forests under different groups")
        if not set(self.index_map) == set(self.components) == set(src.trees):
            raise ForestError("one index and one tree map per index")
        for i, j in self.index_map.items():
            if j not in dst.trees:
                raise ForestError(f"index {i!r} maps outside the target")
            f = self.components[i]
            if f.src != src.trees[i] or f.dst != dst.trees[j]:
                raise ForestError(f"component map {i!r} has wrong endpoints")

    def __eq__(self, other):
        if not isinstance(other, ForestMorphism):
            return NotImplemented
        return (self.src == other.src and self.dst == other.dst
                and self.index_map == other.index_map
                and self.components == other.components)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple((self.index_map[i], self.components[i])
                                    for i in self.src.base.elements))
        return self._hash

    def __repr__(self):
        return f"<{type(self).__name__} over {len(self.components)} indices>"


def is_genuine(gforest):
    """Is the action transitive on the trees, and so on the roots?"""
    return gforest.base.is_transitive()


def is_equivariant_forest_morphism(fm):
    """Does (index map, tree maps) commute with both forest actions?

    The check runs on (index, edge) pairs, so a coincidence of edge names
    between different trees cannot mask an index mismatch.
    """
    src, dst = fm.src, fm.dst
    return is_equivariant(
        src.group, {(i, e): (fm.index_map[i], v)
                    for i, f in fm.components.items()
                    for e, v in f.mapping.items()},
        lambda g, p: (src.base.act(g, p[0]), src.isos[(g, p[0])][p[1]]),
        lambda g, p: (dst.base.act(g, p[0]), dst.isos[(g, p[0])][p[1]]))


def _family_maps(src, dst, targets, hom=None):
    """Every map of G-forests that commutes with the isos, as (index map,
    components) pairs.

    Each index i of src goes to (i, j, f): a j from targets(i) and a tree
    map f from hom(i, j), by default every map from src.trees[i] to
    dst.trees[j], which g carries along the isos at i and j.  hom is asked
    at orbit representatives only, so a constraint it imposes must be one
    the isos carry.  The maps come from the orbit-representative engine.
    """
    if hom is None:
        def hom(i, j):
            return hom_set(src.trees[i], dst.trees[j])

    def choices(i):
        return [(i, j, f) for j in targets(i) for f in hom(i, j)]

    def carry(g, image):
        i, j, f = image
        gi, gj = src.base.act(g, i), dst.base.act(g, j)
        up, over = src.isos[(g, i)], dst.isos[(g, j)]
        moved = {up[e]: over[v] for e, v in f.mapping.items()}
        return gi, gj, TreeMorphism(src.trees[gi], dst.trees[gj], moved,
                                    _checked=True)

    return [({i: j for i, (_, j, _) in m.items()},
             {i: f for i, (_, _, f) in m.items()})
            for m in maps_by_orbit_reps(src.base, choices, carry)]


def forest_hom(src, dst):
    """All equivariant forest morphisms src -> dst.

    An index i can only go to an index j fixed by the stabilizer of i, as
    the index map commutes with the actions; the component map at i must
    commute with the isos of that stabilizer.
    """
    if src.group != dst.group:
        raise ForestError("hom needs a common group")

    def targets(i):
        stab = set(src.base.stabilizer(i))
        return [j for j in dst.base.elements
                if stab <= set(dst.base.stabilizer(j))]

    return tuple(ForestMorphism(src, dst, idx, comps, _checked=True)
                 for idx, comps in _family_maps(src, dst, targets))


# ---------------------------------------------------------------------------
# coset groupoids


def subgroup_group(group, members):
    """A subgroup repackaged as a group of its own, with the embedding.

    Returns the new group and the tuple sending its elements back into
    the ambient one.
    """
    elems = sorted(members)
    pos = {x: i for i, x in enumerate(elems)}
    if group.identity not in pos:
        raise GroupError("a subgroup contains the identity")
    mult = []
    for a in elems:
        row = []
        for b in elems:
            ab = group.mul(a, b)
            if ab not in pos:
                raise GroupError("subgroup is not closed")
            row.append(pos[ab])
        mult.append(tuple(row))
    names = tuple(group.name_of(x) for x in elems) \
        if group.names is not None else None
    return FiniteGroup(tuple(mult), names=names), tuple(elems)


def coset_groupoid(group, sub):
    """Left cosets with translations: one arrow per group element and coset.

    Distinct group elements give distinct arrows even when they move a
    coset the same way, so every hom-set has as many arrows as the
    subgroup has elements.
    """
    base = coset_gset(group, tuple(sub))
    return FiniteCategory.from_homs(
        base.elements,
        lambda c, d: [x for x in group.elements if base.act(x, c) == d],
        lambda x, y: group.mul(y, x), lambda c: group.identity).validate()


def bh_to_coset_groupoid(group, sub):
    """The one-object category of a subgroup, embedded at the identity coset.

    Returns the functor together with the exhaustive equivalence report,
    certifying that the embedding is full, faithful and essentially
    surjective.
    """
    sub = tuple(sorted(sub))
    bh = group_category(sub, group.mul, group.identity)
    gpd = coset_groupoid(group, sub)
    c0 = sub[0]  # cosets are named by their least member
    ob = {"*": c0}
    loops = {a.name: a for a in gpd.hom(c0, c0)}
    functor = FcFunctor(bh, gpd, ob, {m: loops[m.name] for m in bh.morphisms})
    functor.validate()
    return functor, check_equivalence(functor)


def diagram_from_gtree(gtree, group, sub):
    """Spread a tree with a subgroup action over the whole coset groupoid.

    Every coset carries the same underlying tree; a translation arrow acts
    by the subgroup element it represents relative to the minimal coset
    representatives.  The identity coset then carries exactly the given
    action.
    """
    sub = tuple(sorted(sub))
    subset = set(sub)
    hgrp, elems = subgroup_group(group, sub)
    if gtree.group != hgrp:
        raise NotEquivariant("tree action must be over the subgroup")
    pos = {x: i for i, x in enumerate(elems)}
    base = coset_gset(group, sub)
    trees = {c: gtree.tree for c in base.elements}
    isos = {}
    for x in group.elements:
        for c in base.elements:
            d = base.act(x, c)
            h = group.mul(group.inverse(d), group.mul(x, c))
            if h not in subset:
                raise NotEquivariant("coset representatives are broken")
            isos[(x, c)] = gtree.action[pos[h]]
    return GForest(base, trees, isos)


class DiagramMorphism(ForestMorphism):
    """A natural transformation between coset diagrams: the forest
    morphism over the identity of the cosets, one tree map per coset."""

    __slots__ = ()

    def __init__(self, src, dst, components, _checked=False):
        if not _checked and src.base != dst.base:
            raise ForestError("diagrams live over different groupoids")
        super().__init__(src, dst, {c: c for c in src.trees}, components,
                         _checked)
        if not _checked and not is_equivariant_forest_morphism(self):
            raise ForestError("components do not commute with translations")


def diagram_hom(src, dst):
    """All natural transformations src => dst.

    The component at the identity coset determines the rest by
    translation; candidates must commute with the arrows stabilizing that
    coset.  The engine builds them natural, so they are not re-checked.
    """
    if src.base != dst.base:
        raise ForestError("diagrams live over different groupoids")
    return tuple(DiagramMorphism(src, dst, comps, _checked=True)
                 for _, comps in _family_maps(src, dst, lambda c: [c]))


# ---------------------------------------------------------------------------
# retractive G-sets and labeled genuine trees


class RetractiveGSet:
    """A G-set split over an orbit: section and retraction compose to the
    identity of the cosets.

    base is the coset G-set of the orbit.  labels is the carrier minus the
    section image, in carrier order, and fibers[c] the labels over coset
    c; both are built once.
    """

    __slots__ = ("group", "base", "carrier", "section", "retraction",
                 "labels", "fibers", "_hash")

    def __init__(self, base, carrier, section, retraction):
        self.group = group = base.group
        self.base = base
        self.carrier = carrier
        self.section = dict(section)
        self.retraction = dict(retraction)
        self._hash = None
        if carrier.group != group:
            raise ForestError("carrier must be over the same group")
        if set(self.section) != set(base.elements):
            raise ForestError("section must be total on the cosets")
        if set(self.retraction) != set(carrier.elements):
            raise ForestError("retraction must be total on the carrier")
        if not set(self.retraction.values()) <= set(base.elements):
            raise ForestError("retraction must land in the cosets")
        for c in base.elements:
            if self.retraction[self.section[c]] != c:
                raise ForestError("retraction must undo the section")
        if not is_equivariant(group, self.section, base.act, carrier.act):
            raise NotEquivariant("section is not equivariant")
        if not is_equivariant(group, self.retraction, carrier.act,
                              base.act):
            raise NotEquivariant("retraction is not equivariant")
        pts = set(self.section.values())
        self.labels = tuple(x for x in carrier.elements if x not in pts)
        self.fibers = {c: tuple(x for x in self.labels
                                if self.retraction[x] == c)
                       for c in base.elements}

    def fiber(self, c):
        return self.fibers[c]

    def __eq__(self, other):
        if not isinstance(other, RetractiveGSet):
            return NotImplemented
        return (self.base == other.base and self.carrier == other.carrier
                and self.section == other.section
                and self.retraction == other.retraction)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.base, self.carrier))
        return self._hash

    def __repr__(self):
        return f"<RetractiveGSet {len(self.labels)}+ over " \
               f"{len(self.section)} cosets>"


class RetractiveMap:
    """An equivariant map of carriers over and under the orbit."""

    __slots__ = ("src", "dst", "mapping", "_hash")

    def __init__(self, src, dst, mapping):
        if src.base != dst.base:
            raise ForestError("retractive sets live over different orbits")
        self.src = src
        self.dst = dst
        self.mapping = dict(mapping)
        self._hash = None
        if set(self.mapping) != set(src.carrier.elements):
            raise ForestError("map must be total on the source carrier")
        targets = set(dst.carrier.elements)
        for x, v in self.mapping.items():
            if v not in targets:
                raise ForestError(f"image {v!r} is not a target element")
            if dst.retraction[v] != src.retraction[x]:
                raise ForestError("map must live over the orbit")
        for c in src.section:
            if self.mapping[src.section[c]] != dst.section[c]:
                raise ForestError("map must live under the orbit")
        if not is_equivariant(src.group, self.mapping, src.carrier.act,
                              dst.carrier.act):
            raise NotEquivariant("retractive map is not equivariant")

    def __eq__(self, other):
        if not isinstance(other, RetractiveMap):
            return NotImplemented
        return (self.src == other.src and self.dst == other.dst
                and self.mapping == other.mapping)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.mapping.items()))
        return self._hash

    def __repr__(self):
        return f"<RetractiveMap on {len(self.mapping)} elements>"


def enumerate_retractive_maps(src, dst):
    """All maps of retractive sets src -> dst, deterministically.

    Section points are forced; other orbit representatives may go to any
    target over the same coset, the section point included.
    """
    pts = set(src.section.values())

    def choices(r):
        if r in pts:
            return [dst.section[src.retraction[r]]]
        return [x for x in dst.carrier.elements
                if dst.retraction[x] == src.retraction[r]]

    return tuple(RetractiveMap(src, dst, m)
                 for m in maps_by_orbit_reps(src.carrier, choices,
                                             dst.carrier.act))


def fiber_pointed_map(rm, c):
    """Restrict a retractive map to the fiber over one coset.

    Labels landing on the section point go to the basepoint.
    """
    src_fib = rm.src.fiber(c)
    dst_fib = rm.dst.fiber(c)
    pt = rm.dst.section[c]
    mapping = {b: (PLUS if rm.mapping[b] == pt else rm.mapping[b])
               for b in src_fib}
    return PointedMap(src_fib, dst_fib, mapping)


class GenuineTree:
    """A coset diagram with leaves labeled by a retractive G-set.

    The label living over coset c marks a leaf of the tree at c; the
    labeling is an equivariant bijection onto all leaves.  components[c]
    is the tree at c labeled by the fiber over c.
    """

    __slots__ = ("labels", "diagram", "leaf_map", "components", "_hash")

    def __init__(self, labels, diagram, leaf_map):
        if labels.base != diagram.base:
            raise ForestError("labels and diagram over different orbits")
        self.labels = labels
        self.diagram = diagram
        self.leaf_map = dict(leaf_map)
        self._hash = None
        if set(self.leaf_map) != set(labels.labels):
            raise LabelError("one leaf per label")
        self.components = {
            c: LabeledTree(t, {a: self.leaf_map[a] for a in labels.fiber(c)})
            for c, t in diagram.trees.items()}
        if not is_equivariant(
                labels.group, {a: (labels.retraction[a], self.leaf_map[a])
                               for a in labels.labels},
                labels.carrier.act,
                lambda g, p: (diagram.base.act(g, p[0]),
                              diagram.isos[(g, p[0])][p[1]])):
            raise NotEquivariant("labeling is not equivariant")

    def __eq__(self, other):
        if not isinstance(other, GenuineTree):
            return NotImplemented
        return (self.labels == other.labels
                and self.diagram == other.diagram
                and self.leaf_map == other.leaf_map)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.labels, self.diagram))
        return self._hash

    def __repr__(self):
        return f"<GenuineTree {len(self.leaf_map)} labels over " \
               f"{len(self.diagram.trees)} cosets>"


def self_labeled_genuine(diagram):
    """Label a diagram by its own leaves.

    Carrier elements are ("leaf", coset, edge) plus one ("pt", coset)
    section point per coset.
    """
    group = diagram.group
    base = diagram.base
    elems = []
    retraction = {}
    section = {}
    for c in base.elements:
        pt = ("pt", c)
        elems.append(pt)
        section[c] = pt
        retraction[pt] = c
        for e in diagram.trees[c].sorted_edges():
            if diagram.trees[c].is_leaf(e):
                elems.append(("leaf", c, e))
                retraction[("leaf", c, e)] = c
    rows = {}
    for g in group.elements:
        row = {}
        for x in elems:
            if x[0] == "pt":
                row[x] = ("pt", base.act(g, x[1]))
            else:
                _, c, e = x
                row[x] = ("leaf", base.act(g, c), diagram.isos[(g, c)][e])
        rows[g] = row
    carrier = GSet(group, elems, rows)
    ret = RetractiveGSet(base, carrier, section, retraction)
    leaf_map = {lab: lab[2] for lab in ret.labels}
    return GenuineTree(ret, diagram, leaf_map)


def phi_star_genuine(rm, gt):
    """Substitute corollas componentwise along a retractive map.

    Each coset's tree is substituted along the map's fiber restriction;
    translation isos extend over the fresh edges through the label action
    and match the fresh roots up.
    """
    if rm.dst != gt.labels:
        raise ForestError("map must target the tree's labels")
    diagram = gt.diagram
    group = diagram.group
    base = diagram.base
    pieces = {c: phi_star(fiber_pointed_map(rm, c), gt.components[c])
              for c in base.elements}
    isos = {(x, c): _extend_fresh(pieces[c], pieces[base.act(x, c)],
                                  dict(diagram.isos[(x, c)]),
                                  lambda b: rm.src.carrier.act(x, b))
            for x in group.elements for c in base.elements}
    new_diag = GForest(base, {c: out.tree for c, out in pieces.items()}, isos)
    leaf_map = {b: leaf for out in pieces.values()
                for b, leaf in out.labels.items()}
    return GenuineTree(rm.src, new_diag, leaf_map)


class GenuineMorphism:
    """A retractive map together with a root- and label-preserving
    transformation out of the substituted diagram."""

    __slots__ = ("phi", "fiber", "src", "dst", "_hash")

    def __init__(self, phi, fiber, src, dst):
        self.phi = phi
        self.fiber = fiber
        self.src = src
        self.dst = dst
        self._hash = None

    def __eq__(self, other):
        if not isinstance(other, GenuineMorphism):
            return NotImplemented
        return self.phi == other.phi and self.fiber == other.fiber

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.phi, self.fiber))
        return self._hash

    def __repr__(self):
        return f"<GenuineMorphism on {len(self.phi.mapping)} labels>"


def genuine_hom(src, dst):
    """All morphisms between labeled genuine trees over the same orbit.

    A morphism is a retractive map of labels (contravariant) plus a
    transformation from the substituted source that preserves roots and
    leaf labels.  Only such transformations are enumerated: each coset's
    component comes from hom_labeled, whose pins the translations carry.
    """
    out = []
    for phi in enumerate_retractive_maps(dst.labels, src.labels):
        sub = phi_star_genuine(phi, src)
        for _, comps in _family_maps(
                sub.diagram, dst.diagram, lambda c: [c],
                lambda c, _: hom_labeled(sub.components[c],
                                         dst.components[c])):
            fiber = DiagramMorphism(sub.diagram, dst.diagram, comps,
                                    _checked=True)
            out.append(GenuineMorphism(phi, fiber, src, dst))
    return tuple(out)


def eta_morphism(gm):
    """Compose the corolla-attaching inclusions with the fiber map."""
    src = gm.src
    comps = {}
    for c in src.diagram.trees:
        pm = fiber_pointed_map(gm.phi, c)
        inc = iota(pm, src.components[c])
        comps[c] = compose(inc, gm.fiber.components[c])
    return DiagramMorphism(src.diagram, gm.dst.diagram, comps)


# ---------------------------------------------------------------------------
# pullback along orbit maps


def _is_identity_map(q, base, dst_base):
    return base == dst_base and all(v == k for k, v in q.items())


def q_star_diagram(q, base, diagram):
    """Reindex a diagram along an orbit map q out of the coset G-set base;
    the identity map gives back the same object."""
    if _is_identity_map(q, base, diagram.base):
        return diagram
    return GForest(base, {c: diagram.trees[q[c]] for c in base.elements},
                   {(x, c): diagram.isos[(x, q[c])]
                    for x in diagram.group.elements for c in base.elements})


def q_star_diagram_morphism(q, base, dm):
    """Reindex a transformation along an orbit map."""
    src = q_star_diagram(q, base, dm.src)
    dst = q_star_diagram(q, base, dm.dst)
    if src is dm.src:
        return dm
    comps = {c: TreeMorphism(src.trees[c], dst.trees[c],
                             dm.components[q[c]].mapping, _checked=True)
             for c in src.trees}
    return DiagramMorphism(src, dst, comps, _checked=True)


def q_star_retractive(q, base, ret):
    """Pull a retractive set back along an orbit map q out of base.

    Carrier elements are pairs (coset, element over its image); the
    identity map gives back the same object.
    """
    if _is_identity_map(q, base, ret.base):
        return ret
    group = ret.group
    elems = [(c, x) for c in base.elements
             for x in ret.carrier.elements if ret.retraction[x] == q[c]]
    rows = {g: {(c, x): (base.act(g, c), ret.carrier.act(g, x))
                for c, x in elems}
            for g in group.elements}
    carrier = GSet(group, elems, rows)
    section = {c: (c, ret.section[q[c]]) for c in base.elements}
    retraction = {(c, x): c for c, x in elems}
    return RetractiveGSet(base, carrier, section, retraction)


def q_star_retractive_map(q, base, rm):
    src = q_star_retractive(q, base, rm.src)
    dst = q_star_retractive(q, base, rm.dst)
    if src is rm.src:
        return rm
    mapping = {(c, x): (c, rm.mapping[x]) for c, x in src.carrier.elements}
    return RetractiveMap(src, dst, mapping)


def q_star_genuine(q, base, gt):
    """Pull a labeled genuine tree back along an orbit map."""
    if _is_identity_map(q, base, gt.labels.base):
        return gt
    ret = q_star_retractive(q, base, gt.labels)
    diag = q_star_diagram(q, base, gt.diagram)
    leaf_map = {(c, a): gt.leaf_map[a] for c, a in ret.labels}
    return GenuineTree(ret, diag, leaf_map)


def q_star_genuine_morphism(q, base, gm):
    """Pull a genuine morphism back along an orbit map.

    The pulled substitution renames its fresh edges after the pulled-back
    labels, so the fiber components are rewritten through that renaming.
    """
    src = q_star_genuine(q, base, gm.src)
    dst = q_star_genuine(q, base, gm.dst)
    if src is gm.src:
        return gm
    phi = q_star_retractive_map(q, base, gm.phi)
    old_sub = phi_star_genuine(gm.phi, gm.src)
    sub = phi_star_genuine(phi, src)
    comps = {}
    for c in sub.diagram.trees:
        rename = {e: e for e in gm.src.diagram.trees[q[c]].edges}
        rename[sub.diagram.trees[c].root] = old_sub.diagram.trees[q[c]].root
        for lab in dst.labels.fiber(c):
            rename[sub.leaf_map[lab]] = old_sub.leaf_map[lab[1]]
        old = gm.fiber.components[q[c]].mapping
        comps[c] = TreeMorphism(sub.diagram.trees[c],
                                dst.diagram.trees[c],
                                {e: old[rename[e]]
                                 for e in sub.diagram.trees[c].edges},
                                _checked=True)
    fiber = DiagramMorphism(sub.diagram, dst.diagram, comps)
    return GenuineMorphism(phi, fiber, src, dst)


def q_star_compare(p, q, src, mid, ret):
    """The canonical carrier bijection between (p after q)* and q* p*, for
    q out of the coset G-set src and p out of mid.

    Returns (one-step pullback, two-step pullback, dict between their
    carriers).  The two pullbacks differ only by this renaming.
    """
    pq = {c: p[q[c]] for c in q}
    once = q_star_retractive(pq, src, ret)
    inner = q_star_retractive(p, mid, ret)
    twice = q_star_retractive(q, src, inner)
    iso = {}
    for x in once.carrier.elements:
        if twice is inner:
            iso[x] = x
            continue
        c = once.retraction[x]
        a = x if once is ret else x[1]
        iso[x] = (c, a if inner is ret else (q[c], a))
    if set(iso.values()) != set(twice.carrier.elements):
        raise ForestError("pullback comparison is broken")
    return once, twice, iso


# ---------------------------------------------------------------------------
# corpora and the equivalence report


def enumerate_genuine_diagrams(group, max_edges, per_stratum=None):
    """Coset diagrams for every subgroup conjugacy class, one per
    equivariant tree from the bounded corpus."""
    out = []
    for sub in sorted(subgroup_class_reps(group), key=lambda s: (-len(s), s)):
        hgrp, _ = subgroup_group(group, sub)
        for gtree in enumerate_gtrees(hgrp, max_edges,
                                      per_stratum=per_stratum):
            out.append(diagram_from_gtree(gtree, group, sub))
    return tuple(out)


def _genuine_corpus(group, max_edges, per_stratum):
    """(diagram, self-labeled genuine tree) pairs."""
    return [(d, self_labeled_genuine(d))
            for d in enumerate_genuine_diagrams(group, max_edges,
                                                per_stratum=per_stratum)]


def _genuine_pair(corpus, i, j, memo=None):
    """Match up three hom-sets from object i to object j.

    Assembly must be a bijection from pairs (orbit map q, natural
    transformation) onto the forest homs, and forgetting labels one from
    the triples (q, retractive map, fiber transformation) over each q onto
    the transformations over q.  forest_hom picks its index maps by
    stabilizer containment, apart from the orbit maps q run over here.
    """
    (x, lx), (y, ly) = corpus[i], corpus[j]
    fh = set(forest_hom(x, y))
    pair_count = triple_count = 0
    assembled = set()
    failures = []
    for q in equivariant_maps(x.base, y.base):
        alphas = diagram_hom(x, q_star_diagram(q, x.base, y))
        pair_count += len(alphas)
        assembled.update(ForestMorphism(x, y, q, al.components, _checked=True)
                         for al in alphas)
        gms = genuine_hom(lx, q_star_genuine(q, x.base, ly))
        triple_count += len(gms)
        ems = {eta_morphism(gm) for gm in gms}
        if len(ems) != len(gms) or ems != set(alphas):
            failures.append({"src": i, "dst": j,
                             "reason": "forgetting labels is not a bijection",
                             "map": {str(c): str(d) for c, d in q.items()}})
    if assembled != fh or len(assembled) != pair_count:
        failures.append({"src": i, "dst": j, "reason":
                         "assembly is not a bijection onto the forest homs"})
    return (len(fh), pair_count, triple_count), failures


def genuine_equivalence_check(group, max_edges=3, per_stratum=None):
    """Compare the three faces of the bounded genuine-tree category,
    forest homs, pairs and triples, on every ordered pair of diagrams."""
    corpus, counts, failures = _run_pairs(
        _genuine_corpus, (group, max_edges, per_stratum), _genuine_pair)
    forest, pair, triple = (sum(c) for c in zip(*counts))
    return {"group_order": group.order, "objects": len(corpus),
            "pairs": len(counts), "forest_homs": forest, "pair_homs": pair,
            "triple_homs": triple, "mismatches": failures,
            "ok": not failures}


# ---------------------------------------------------------------------------
# serialization


def gforest_to_json(gforest, group_ref=None):
    """Schema: {"group", "components", "action", "isos"}.

    The trees are listed in index order and indices written as positions
    in that list.  Trees are renamed to string edges first, so forests with
    tuple-named edges round trip up to that renaming only.
    """
    from .groups import group_to_json
    index = gforest.base.elements
    pos = {i: k for k, i in enumerate(index)}
    renames = {}
    docs = []
    for i in index:
        t = gforest.trees[i]
        if all(isinstance(e, str) for e in t.edges):
            ren = {e: e for e in t.edges}
        else:
            ren = {e: f"e{k}" for k, e in enumerate(t.canonical_edge_order())}
        renames[i] = ren
        docs.append(tree_to_json(relabel(t, ren)))
    data = {
        "components": docs,
        "action": {str(g): [pos[gforest.base.act(g, i)] for i in index]
                   for g in gforest.group.elements},
        "isos": {str(g): [
            {renames[i][e]: renames[gforest.base.act(g, i)][v]
             for e, v in gforest.isos[(g, i)].items()}
            for i in index]
            for g in gforest.group.elements},
    }
    data["group"] = group_ref if group_ref is not None \
        else group_to_json(gforest.group)
    return data


def gforest_from_json(data):
    """Rebuild a GForest over the indices 0..n-1; "group" is a builtin name
    or an inline table."""
    if not isinstance(data, dict) or not {"group", "action", "isos"} <= \
            set(data) or not isinstance(data.get("components"), list):
        raise ForestError("forest data needs \"group\", \"action\", "
                          "\"isos\" and a \"components\" list")
    group = group_from_ref(data["group"])
    trees = dict(enumerate(tree_from_json(doc) for doc in data["components"]))
    action, isos = data["action"], data["isos"]
    # one key per element: "01" or a non-ASCII digit must not alias "1"
    numbers = {str(g): g for g in group.elements}
    if not (isinstance(action, dict) and isinstance(isos, dict)
            and all(g in numbers for g in [*action, *isos])
            and all(isinstance(row, list) and all(type(j) is int
                                                  for j in row)
                    for row in action.values())
            and all(isinstance(ms, list) and len(ms) == len(trees)
                    and all(isinstance(m, dict) and all(
                        isinstance(v, (str, int)) for v in m.values())
                        for m in ms)
                    for ms in isos.values())):
        raise ForestError("\"action\" must map element numbers to index "
                          "lists, \"isos\" to one edge map per component")

    def edge(i, key):
        found = [e for e in trees[i].edges if str(e) == key]
        if len(found) != 1:
            raise ForestError(f"iso key {key!r} must name exactly one edge "
                              f"of component {i}")
        return found[0]

    maps = {(numbers[g], i): {edge(i, k): v for k, v in ms[i].items()}
            for g, ms in isos.items() for i in trees}
    try:
        base = GSet(group, trees, {numbers[g]: dict(enumerate(row))
                                   for g, row in action.items()})
    except GSetError as err:
        raise ActionNotFunctorial(str(err)) from None
    return GForest(base, trees, maps)
