"""Corolla substitution along pointed maps, and the category it assembles.

A pointed map phi: m+ -> n+ acts on a tree with n labeled leaves by grafting
a corolla over each leaf (one fresh leaf per preimage label, a stump when the
preimage is empty) and one corolla under the root whose extra in-edges pick
up the labels sent to "+".  This action is functorial only up to comparison
maps: tau_id collapses the unary corollas added by an identity, tau_comp
contracts the middle layer created by acting in two steps.

On top of the action sits a category of labeled trees whose morphisms are
pairs (phi, fiber): a pointed map between the label sets, against direction,
and a label-preserving morphism phi_star(phi, src) -> dst.  Projecting such
a pair to fiber . iota recovers an ordinary tree morphism, and every tree
morphism arises uniquely this way once labelings are fixed.
"""

from __future__ import annotations

from functools import lru_cache

from .trees import Tree, _fresh_layer
from .morphisms import (
    TreeMorphism, MorphismError, SourceTargetMismatch, compose,
)
from .labels import (
    PLUS, LabelError, LabeledTree, PointedMap, compose_pointed,
    enumerate_pointed_maps, is_label_preserving, hom_labeled,
)


@lru_cache(maxsize=1 << 16)
def phi_star(phi, labeled):
    """Act on a labeled tree by grafting corollas along a pointed map.

    For each target label i, the leaf labeled i receives a corolla with one
    fresh leaf per source label in the preimage of i; an empty preimage caps
    the leaf with a stump.  The root receives a corolla from below whose
    extra in-edges carry the labels sent to "+", and whose out-edge is the
    new root.  The result is labeled by the source labels of the map.
    """
    if phi.dst_labels != labeled.label_set:
        raise LabelError("pointed map does not act on this label set")
    tree = labeled.tree
    layer = _fresh_layer(tree)

    def fresh(label):
        return ("graft", layer, ("leaf", label))

    edges = set(tree.edges)
    vertices = list(tree.vertices)
    for i in labeled.label_set:
        ins = [fresh(j) for j in phi.src_labels if phi.mapping[j] == i]
        edges.update(ins)
        vertices.append((labeled.leaf_of(i), ins))
    to_plus = [fresh(j) for j in phi.src_labels if phi.mapping[j] == PLUS]
    new_root = ("graft", layer, "root")
    edges.add(new_root)
    edges.update(to_plus)
    vertices.append((new_root, [tree.root] + to_plus))
    bigger = Tree(edges, new_root, vertices)
    return LabeledTree(bigger, {j: fresh(j) for j in phi.src_labels})


def _extend_fresh(big, dst, mapping, move=None):
    """Extend an edge map out of a phi_star result over its fresh edges.

    The fresh leaf of label j goes to the leaf of move(j) in the labeled
    tree dst (of j itself without move), the fresh root to dst's root.
    mapping is updated in place and returned.
    """
    for j in big.label_set:
        mapping[big.leaf_of(j)] = dst.leaf_of(move(j) if move else j)
    mapping[big.tree.root] = dst.tree.root
    return mapping


def _pushed_mapping(phi, f, src_labeled, dst_labeled):
    big_src = phi_star(phi, src_labeled)
    big_dst = phi_star(phi, dst_labeled)
    return big_src, big_dst, _extend_fresh(
        big_src, big_dst, {e: f.mapping[e] for e in src_labeled.tree.edges})


def phi_star_mor(phi, f, src_labeled, dst_labeled):
    """Push a label-preserving morphism through the corolla grafting.

    Acts as f on the edges already present and matches the fresh edges of
    source and target label by label (fresh root to fresh root).
    """
    if f.src != src_labeled.tree or f.dst != dst_labeled.tree:
        raise SourceTargetMismatch("morphism does not match the labelings")
    big_src, big_dst, mapping = _pushed_mapping(phi, f, src_labeled,
                                                dst_labeled)
    return TreeMorphism(big_src.tree, big_dst.tree, mapping)


def tau_id(labeled):
    """Collapse the unary corollas added by the identity map's action.

    The identity pointed map grafts a 1-corolla onto every leaf and one
    under the root; the returned morphism id*(T) -> T is the composite of
    the degeneracies removing them.
    """
    ident = PointedMap.identity_on(labeled.label_set)
    big = phi_star(ident, labeled)
    return TreeMorphism(big.tree, labeled.tree, _extend_fresh(
        big, labeled, {e: e for e in labeled.tree.edges}))


def tau_comp(gamma, phi, labeled):
    """Compare acting by a composite with acting in two steps.

    For gamma: l+ -> m+ and phi: m+ -> n+ acting on a tree labeled by n,
    returns (phi . gamma)*(T) -> gamma*(phi*(T)), the composite of the
    inner faces that contract the middle corolla layer.
    """
    both = compose_pointed(gamma, phi)
    small = phi_star(both, labeled)
    big = phi_star(gamma, phi_star(phi, labeled))
    return TreeMorphism(small.tree, big.tree, _extend_fresh(
        small, big, {e: e for e in labeled.tree.edges}))


@lru_cache(maxsize=1 << 16)
def iota(phi, labeled):
    """The inclusion of a tree into its corolla-grafted image.

    A composite of outer faces T -> phi_star(phi, T), identity on the edge
    names of T.
    """
    big = phi_star(phi, labeled)
    return TreeMorphism(labeled.tree, big.tree,
                        {e: e for e in labeled.tree.edges})


class GrothTreeMorphism:
    """A morphism of labeled trees: a pointed map plus a fiber morphism.

    From src to dst it consists of phi mapping dst's labels to src's
    (against direction) and a label-and-root-preserving fiber
    phi_star(phi, src) -> dst.
    """

    __slots__ = ("src", "dst", "phi", "fiber", "_hash")

    def __init__(self, src, dst, phi, fiber, _checked=False):
        self.src = src
        self.dst = dst
        self.phi = phi
        self.fiber = fiber
        self._hash = None
        if _checked:
            return
        if phi.src_labels != dst.label_set \
                or phi.dst_labels != src.label_set:
            raise LabelError("pointed map must send dst labels to src labels")
        mid = phi_star(phi, src)
        if fiber.src != mid.tree or fiber.dst != dst.tree:
            raise SourceTargetMismatch(
                "fiber must go from the grafted source to the target tree")
        if not is_label_preserving(fiber, mid, dst):
            raise MorphismError("fiber must preserve labels and the root")

    def __eq__(self, other):
        if not isinstance(other, GrothTreeMorphism):
            return NotImplemented
        return (self.src == other.src and self.dst == other.dst
                and self.phi == other.phi
                and self.fiber.mapping == other.fiber.mapping)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.src, self.dst, self.phi, self.fiber))
        return self._hash

    def __repr__(self):
        return f"<GrothTreeMorphism {self.phi!r} with {self.fiber!r}>"


def groth_identity(labeled):
    """The identity pair: identity pointed map with the tau_id fiber."""
    return GrothTreeMorphism(labeled, labeled,
                             PointedMap.identity_on(labeled.label_set),
                             tau_id(labeled), _checked=True)


def compose_groth(first, second):
    """Compose two label-indexed tree morphisms (diagrammatic order).

    The pointed maps compose the other way round; the fiber contracts the
    middle corolla layer, pushes the first fiber through the second map's
    grafting, then applies the second fiber.
    """
    if first.dst != second.src:
        raise SourceTargetMismatch("morphisms do not compose")
    phi, gamma = first.phi, second.phi
    both = compose_pointed(gamma, phi)
    fiber = compose(
        tau_comp(gamma, phi, first.src),
        phi_star_mor(gamma, first.fiber, phi_star(phi, first.src), first.dst),
        second.fiber,
    )
    return GrothTreeMorphism(first.src, second.dst, both, fiber,
                             _checked=True)


def groth_hom(src, dst):
    """All (phi, fiber) morphisms between two labeled trees, sorted."""
    out = []
    for phi in enumerate_pointed_maps(dst.label_set, src.label_set):
        mid = phi_star(phi, src)
        for fiber in hom_labeled(mid, dst):
            out.append(GrothTreeMorphism(src, dst, phi, fiber,
                                         _checked=True))
    return out


def F_functor(gm):
    """Project a (phi, fiber) pair to the plain tree morphism fiber . iota."""
    return compose(iota(gm.phi, gm.src), gm.fiber)


def lift_morphism(f, src_labeled, dst_labeled):
    """The unique (phi, fiber) pair projecting to a given tree morphism.

    phi sends a target label j to the source label i whose leaf image sits
    above j's leaf, and to "+" when there is none; the fiber is forced: it
    agrees with f on old edges and matches fresh leaves and the fresh root
    by label.  The fiber and the pair are built trusted: for a valid f
    they are valid by construction, which tests/test_trusted.py pins.
    """
    if f.src != src_labeled.tree or f.dst != dst_labeled.tree:
        raise SourceTargetMismatch("morphism does not match the labelings")
    dst_tree = dst_labeled.tree
    images = {i: f.mapping[src_labeled.leaf_of(i)]
              for i in src_labeled.label_set}
    mapping = {}
    for j in dst_labeled.label_set:
        leaf = dst_labeled.leaf_of(j)
        hits = [i for i in src_labeled.label_set
                if dst_tree.le(leaf, images[i])]
        if len(hits) > 1:
            raise MorphismError(
                f"leaf {j!r} sits below two incomparable leaf images")
        mapping[j] = hits[0] if hits else PLUS
    phi = PointedMap(dst_labeled.label_set, src_labeled.label_set, mapping)
    mid = phi_star(phi, src_labeled)
    fiber = TreeMorphism(mid.tree, dst_tree, _extend_fresh(
        mid, dst_labeled, {e: f.mapping[e] for e in src_labeled.tree.edges}),
        _checked=True)
    return GrothTreeMorphism(src_labeled, dst_labeled, phi, fiber,
                             _checked=True)


def pointed_category(max_size):
    """The category of pointed label sets 1..n for n up to a bound."""
    from .oplax import FiniteCategory

    return FiniteCategory.from_homs(
        range(max_size + 1),
        lambda m, n: enumerate_pointed_maps(range(1, m + 1), range(1, n + 1)),
        compose_pointed, lambda n: PointedMap.identity_on(range(1, n + 1)))


# entries each memo of `_oplax_data` holds before it is cleared
MEMO_BOUND = 64


def _pushed_key(f, m, x, y):
    """What the data's app_mor reads: f through its source labels alone."""
    return f.name.src_labels, id(m), x, y


def _oplax_data(base, probes, app_obj, fiber_hom):
    """Corolla substitution over a base category of pointed maps, packaged
    for the coherence checker.

    probes maps each base object to the labeled trees used as sample
    objects of its fiber; app_obj acts on them along a base arrow and
    fiber_hom lists the fiber arrows between two of them.  Every probe
    needs `tree`, `label_set` and `leaf_of`, and must be hashable.

    Fiber arrows are passed around as plain edge-mapping dicts rather
    than validated morphism objects, and the comparison cells are
    written down directly: grafted edges are named by label and layer
    alone, so the cell for a composable pair sends layer L to layer
    L+1 label by label, whatever the maps do.  An exhaustive sweep
    over composable triples therefore never materialises the doubly
    and triply substituted trees whose mappings it compares.  The
    shortcut formulas are asserted against the validated builders
    above in the test suite.

    What the callbacks return is shared between calls, and callers must
    not mutate it:

    - app_obj's results on probes are interned through one dict, so
      equal trees reached along different arrows are one object and
      every lookup keyed on them, the cells' included, hits by identity.
      It keeps at most one entry per arrow and probe for as long as the
      data lives, as the cell memo does.  Results on other trees, such
      as g.(h.x), which a sweep builds once per side of a square, are
      not kept.
    - A composition cell depends only on the source labels of its first
      arrow and on the probe, so each is built once, keyed by both.
    - app_mor(f, m, x, y) reads f only through f.name.src_labels, so it
      is memoised under (f.name.src_labels, id(m), x, y) (`_pushed_key`);
      fiber_compose(a, m1, m2) reads only the two dicts, so it is
      memoised under (id(m1), id(m2)).  Each entry holds the arrows its
      key names by id, so no id is reused while the entry lives.  These
      two memos are cleared whenever they reach MEMO_BOUND (64) entries:
      a sweep reuses an entry within one (g, h, x) side, where the
      arrows f into g's source give at most one distinct key per source
      object.  Each memo is the `memo` attribute of its callback.

    Each key is exactly what the data's own function reads, so data
    derived from this one by replacing a callback (a twisted cell, say)
    keeps its own results: nothing is shared on anything coarser than
    the inputs of the function that computed it.
    """
    from .oplax import OplaxFunctorData

    probes = {a: tuple(ts) for a, ts in probes.items()}
    probe_set = {x for ts in probes.values() for x in ts}
    interned = {}

    def data_app_obj(f, x):
        fx = app_obj(f, x)
        return interned.setdefault(fx, fx) if x in probe_set else fx

    pushed_memo = {}

    def app_mor(f, m, x, y):
        key = _pushed_key(f, m, x, y)
        hit = pushed_memo.get(key)
        if hit is not None:
            return hit[1]
        pushed = dict(m)
        src_layer = _fresh_layer(x.tree)
        dst_layer = _fresh_layer(y.tree)
        for j in f.name.src_labels:
            pushed[("graft", src_layer, ("leaf", j))] = \
                ("graft", dst_layer, ("leaf", j))
        pushed[("graft", src_layer, "root")] = ("graft", dst_layer, "root")
        if len(pushed_memo) >= MEMO_BOUND:
            pushed_memo.clear()
        pushed_memo[key] = (m, pushed)
        return pushed

    composites = {}

    def fiber_compose(a, m1, m2):
        key = (id(m1), id(m2))
        hit = composites.get(key)
        if hit is not None:
            return hit[2]
        both = {e: m2[v] for e, v in m1.items()}
        if len(composites) >= MEMO_BOUND:
            composites.clear()
        composites[key] = (m1, m2, both)
        return both

    app_mor.memo = pushed_memo
    fiber_compose.memo = composites

    cells = {}

    def data_tau_comp(f, g, x):
        key = (f.name.src_labels, x)
        cell = cells.get(key)
        if cell is not None:
            return cell
        layer = _fresh_layer(x.tree)
        cell = {e: e for e in x.tree.edges}
        for j in f.name.src_labels:
            cell[("graft", layer, ("leaf", j))] = \
                ("graft", layer + 1, ("leaf", j))
        cell[("graft", layer, "root")] = ("graft", layer + 1, "root")
        cells[key] = cell
        return cell

    def data_tau_id(a, x):
        layer = _fresh_layer(x.tree)
        cell = {e: e for e in x.tree.edges}
        for j in x.label_set:
            cell[("graft", layer, ("leaf", j))] = x.leaf_of(j)
        cell[("graft", layer, "root")] = x.tree.root
        return cell

    return OplaxFunctorData(
        base=base,
        fiber_objects=lambda a: probes.get(a, ()),
        app_obj=data_app_obj,
        app_mor=app_mor,
        tau_comp=data_tau_comp,
        tau_id=data_tau_id,
        fiber_compose=fiber_compose,
        fiber_identity=lambda a, x: {e: e for e in x.tree.edges},
        fiber_hom=fiber_hom,
    )


def tree_oplax_data(max_size, probes):
    """The corolla-substitution action packaged for the coherence checker.

    probes maps a label-set size to the tuple of labeled trees used as
    sample objects of that fiber; labels must be skeletal (1..n).
    """
    return _oplax_data(
        pointed_category(max_size), probes,
        app_obj=lambda f, x: phi_star(f.name, x),
        fiber_hom=lambda n, x, y: tuple(dict(t.mapping)
                                        for t in hom_labeled(x, y)))
