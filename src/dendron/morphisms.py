"""Maps of trees as edge maps, plus the generator calculus.

A map of trees src -> dst is a function on edge sets such that each vertex
(in-edges e1..en, out-edge e0) lands on an actual operation of dst: there
must be a subtree of dst rooted at the image of e0 whose leaf set is exactly
the images of e1..en, taken pairwise distinct.  The single-edge subtree
counts its edge as both root and leaf, which is what makes unary collapses
legal.  `hom_set` generates maps from this description directly: each
vertex takes an ordering of such a leaf set.

Every such map factors as degeneracies, then an isomorphism, then inner
faces, then outer faces; `factorize` computes that normal form and
`Factorization.composite` recomposes it exactly.  Only the isomorphism
reads the map itself: the degeneracy chain reads the source and the kernel
classes, the face chains the target and the image.  So maps factored
through one memo, a dict their caller owns, build each chain once per key.
The factorization suite keeps one memo per pair stride; the equivariant
suite one per source row, which shares the degeneracy and inner-face
chains, keyed by the G-trees, and builds the outer faces per map.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .trees import Tree, sort_key, spanned_subtree


class MorphismError(ValueError):
    """Base class for invalid-map errors."""


class SourceTargetMismatch(MorphismError):
    """Endpoints of composed maps do not agree, or a map is not total."""


class NotMonotone(MorphismError):
    """The edge map does not respect the path-to-root order."""


class VertexConditionFails(MorphismError):
    """Some vertex has no matching subtree in the target."""


class NotInnerEdge(MorphismError):
    """Contraction was requested at an edge not bounded by two vertices."""


class TreeMorphism:
    """An edge map between two trees, validated unless prebuilt internally."""

    __slots__ = ("src", "dst", "mapping", "_hash")

    def __init__(self, src, dst, mapping, _checked=False):
        self.src = src
        self.dst = dst
        self.mapping = dict(mapping)
        if not _checked:
            _check_edge_map(src, dst, self.mapping)
        self._hash = None

    def __call__(self, edge):
        return self.mapping[edge]

    def __eq__(self, other):
        if not isinstance(other, TreeMorphism):
            return NotImplemented
        return (self.src == other.src and self.dst == other.dst
                and self.mapping == other.mapping)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.src, self.dst,
                               frozenset(self.mapping.items())))
        return self._hash

    def __repr__(self):
        return f"<TreeMorphism {len(self.src.edges)}->{len(self.dst.edges)} edges>"

    def is_injective(self):
        return len(set(self.mapping.values())) == len(self.mapping)

    def is_isomorphism(self):
        if not self.is_injective():
            return False
        if set(self.mapping.values()) != self.dst.edges:
            return False
        if self.mapping[self.src.root] != self.dst.root:
            return False
        # bijective + both vertex structures must correspond
        image_vs = {(self.mapping[o], frozenset(self.mapping[e] for e in ins))
                    for o, ins in self.src.vertices}
        return image_vs == set(self.dst.vertices)


def _check_edge_map(src, dst, mapping):
    if set(mapping) != src.edges:
        raise SourceTargetMismatch("edge map must be total on the source edges")
    for v in mapping.values():
        if v not in dst.edges:
            raise SourceTargetMismatch(f"image edge {v!r} is not in the target")
    for e in src.edges:
        p = src.parent_of(e)
        if p is not None and not dst.le(mapping[e], mapping[p]):
            raise NotMonotone(f"{e!r} climbs above its parent under the map")
    for out, ins in src.vertices:
        images = [mapping[e] for e in ins]
        if len(set(images)) != len(images):
            raise VertexConditionFails(
                f"vertex over {out!r} maps two in-edges together")
        if spanned_subtree(dst, mapping[out], frozenset(images)) is None:
            raise VertexConditionFails(
                f"vertex over {out!r} has no matching subtree in the target")


def identity(tree):
    return TreeMorphism(tree, tree, {e: e for e in tree.edges}, _checked=True)


def compose(first, *rest):
    """Diagrammatic composition: compose(f, g) applies f, then g."""
    out = first
    for g in rest:
        if out.dst != g.src:
            raise SourceTargetMismatch("composition endpoints do not match")
        out = TreeMorphism(out.src, g.dst,
                           {e: g.mapping[v] for e, v in out.mapping.items()},
                           _checked=True)
    return out


def contract_edge(tree, edge):
    """Merge the two vertices bounding an inner edge.

    Returns (smaller tree, face map smaller -> tree); the face map is the
    edge inclusion.
    """
    if not tree.is_inner(edge):
        raise NotInnerEdge(f"{edge!r} is not an inner edge")
    above = tree.children_of(edge)
    below_out = tree.parent_of(edge)
    vertices = []
    for o, ins in tree.vertices:
        if o == edge:
            continue
        if o == below_out:
            vertices.append((o, (ins - {edge}) | above))
        else:
            vertices.append((o, ins))
    smaller = Tree(tree.edges - {edge}, tree.root, vertices, _checked=True)
    face = TreeMorphism(smaller, tree, {e: e for e in smaller.edges},
                        _checked=True)
    return smaller, face


def _contract_edges(tree, edges):
    """Contract inner edges one after another.

    Returns (smaller tree, face map smaller -> tree), the edge inclusion.
    """
    face = None
    for e in edges:
        tree, one = contract_edge(tree, e)
        face = one if face is None else compose(one, face)
    return tree, face


def split_edge(tree, edge):
    """Insert a unary vertex along an edge.

    The lower half keeps the name; the upper half is fresh.  Returns
    (bigger tree, collapse map bigger -> tree) sending both halves to the
    original edge.
    """
    upper = ("split", edge)
    while upper in tree.edges:
        upper = ("split", upper)
    vertices = []
    for o, ins in tree.vertices:
        if o == edge:
            vertices.append((upper, ins))
        else:
            vertices.append((o, ins))
    vertices.append((edge, [upper]))
    bigger = Tree(set(tree.edges) | {upper}, tree.root, vertices)
    mapping = {e: e for e in tree.edges}
    mapping[upper] = edge
    return bigger, TreeMorphism(bigger, tree, mapping, _checked=True)


def collapse_unary(tree, out_edge):
    """Remove the unary vertex atop `out_edge`, merging its two edges.

    The rootward name survives.  Returns (smaller tree, collapse map
    tree -> smaller).  Inverse of split_edge up to naming.
    """
    ins = tree.children_of(out_edge)
    if ins is None or len(ins) != 1:
        raise MorphismError(f"no unary vertex atop {out_edge!r}")
    (upper,) = ins
    vertices = []
    for o, vins in tree.vertices:
        if o == out_edge:
            continue
        if o == upper:
            vertices.append((out_edge, vins))
        else:
            vertices.append((o, vins))
    smaller = Tree(tree.edges - {upper}, tree.root, vertices, _checked=True)
    mapping = {e: e for e in smaller.edges}
    mapping[upper] = out_edge
    return smaller, TreeMorphism(tree, smaller, mapping, _checked=True)


def _leaf_sets(tree, y, cuts):
    """The leaf sets of the subtrees of `tree` rooted at y, as tuples: (y,)
    itself, then, when y has a vertex, every union of one leaf set per
    child.  `cuts` memoizes them by root edge for one caller."""
    out = cuts.get(y)
    if out is None:
        out = [(y,)]
        ins = tree.children_of(y)
        if ins is not None:
            unions = [()]
            for c in ins:
                unions = [u + s for u in unions
                          for s in _leaf_sets(tree, c, cuts)]
            out += unions
        cuts[y] = out
    return out


def hom_set(src, dst, pins=None):
    """Every map src -> dst, in a deterministic order.

    A map sends each vertex to a subtree of dst, so the images of a
    vertex's in-edges are exactly the leaf set of a subtree rooted at the
    image of its out-edge.  The root image ranges over all target edges;
    the vertices are then placed depth-first, each taking every ordering
    of every leaf set of its arity below its out-image.  `pins` fixes
    chosen images in advance (used for label-preserving enumeration).
    The results are sorted by the images of src's canonical edge order.
    """
    pins = pins or {}
    dedges = dst.sorted_edges()
    # source vertices by depth, then name; in-edges in name order
    verts = sorted(((o, [e for e in src.sorted_edges() if e in ins])
                    for o, ins in src.vertices), key=lambda v: src.depth(v[0]))
    cuts = {}

    # the images a vertex may take depend only on its out-edge's image
    choices = {}

    def vertex_images(i, base):
        key = (i, base)
        if key not in choices:
            ins = verts[i][1]
            choices[key] = [
                images for leaves in _leaf_sets(dst, base, cuts)
                if len(leaves) == len(ins)
                for images in permutations(leaves)
                if all(pins.get(e, z) == z for e, z in zip(ins, images))]
        return choices[key]

    results = []
    for r in (x for x in dedges if pins.get(src.root, x) == x):
        assignment = {src.root: r}
        if not verts:
            results.append(TreeMorphism(src, dst, assignment, _checked=True))
            continue
        # depth-first over the vertices with an explicit stack; vertex i
        # is placed once its out-edge is, because verts go by depth
        stack = [iter(vertex_images(0, r))]
        while stack:
            images = next(stack[-1], None)
            if images is None:
                stack.pop()
                continue
            i = len(stack) - 1
            assignment.update(zip(verts[i][1], images))
            if i + 1 == len(verts):
                results.append(TreeMorphism(src, dst, assignment,
                                            _checked=True))
            else:
                out = verts[i + 1][0]
                stack.append(iter(vertex_images(i + 1, assignment[out])))
    if len(results) > 1:
        pos = {e: i for i, e in enumerate(dedges)}
        order = src.canonical_edge_order()
        results.sort(key=lambda f: tuple(pos[f.mapping[e]] for e in order))
    return results


@dataclass(frozen=True)
class GeneratorStep:
    """One orbit-sized elementary map in a factorization chain.

    kind: "degeneracy" | "inner" | "outer"; orbit names the merged edges,
    the contracted edges, or the grafted vertices' out-edges, in the
    step's target.  Without a group action every orbit is a 1-tuple.
    """
    kind: str
    orbit: tuple
    morphism: TreeMorphism


@dataclass(frozen=True)
class Factorization:
    degeneracies: tuple
    iso: TreeMorphism
    inner_faces: tuple
    outer_faces: tuple

    def stages(self):
        yield from (s.morphism for s in self.degeneracies)
        yield self.iso
        yield from (s.morphism for s in self.inner_faces)
        yield from (s.morphism for s in self.outer_faces)

    def composite(self):
        out = None
        for m in self.stages():
            out = m if out is None else compose(out, m)
        return out


class FactorizationError(MorphismError):
    """Internal failure of the normal form; indicates a bug if raised."""


class NotEquivariant(ValueError):
    """Raised when a map or an action fails to commute with the group."""


def _kernel_classes(f):
    """The fibers of f with more than one edge, each topmost member first,
    listed in the name order of their images."""
    fibers = {}
    for e in f.src.sorted_edges():
        fibers.setdefault(f.mapping[e], []).append(e)
    classes = []
    for image in f.dst.sorted_edges():
        members = fibers.get(image, ())
        if len(members) > 1:
            members.sort(key=lambda e: -f.src.depth(e))  # topmost first
            classes.append(tuple(members))
    return tuple(classes)


def _class_orbits(classes, rows):
    """Group kernel classes into orbits of the source action.

    Each class must map, member by member, onto another class under every
    row; anything else is a non-equivariant kernel.
    """
    by_key = {frozenset(c): i for i, c in enumerate(classes)}
    orbits = []
    seen = set()
    for i, cls in enumerate(classes):
        members = {i}
        for row in rows:
            mapped = tuple(row[m] for m in cls)
            j = by_key.get(frozenset(mapped))
            if j is None or classes[j] != mapped:
                raise NotEquivariant("kernel classes are not permuted by "
                                     "the action")
            members.add(j)
        if i not in seen:
            seen.update(members)
            orbits.append([classes[j] for j in sorted(members)])
    return orbits


def _edge_orbit(e, rows):
    """The orbit of an edge under the rows, in name order."""
    moved = {row[e] for row in rows}
    moved.discard(e)
    if not moved:
        return (e,)
    moved.add(e)
    return tuple(sorted(moved, key=sort_key))


def _chain(memo, key, build, *args):
    """build(*args), built once per memo for each key.

    The key must determine the result: it stands for the arguments by
    value.  Without a memo every call builds afresh.  A build that raises
    stores nothing, so each map that reaches it raises again, in its own
    turn.
    """
    if memo is None:
        return build(*args)
    key = (build, key)
    out = memo.get(key)
    if out is None:
        out = memo[key] = build(*args)
    return out


def _degeneracy_chain(src, classes, src_rows):
    """Collapse the kernel-class orbits top-down onto their rootward
    representatives: (steps, collapsed source)."""
    steps = []
    work = src
    for orbit in _class_orbits(classes, src_rows):
        for i in range(len(orbit[0]) - 1):
            step = None
            for cls in orbit:
                if work.children_of(cls[i + 1]) != frozenset({cls[i]}):
                    raise FactorizationError(
                        "kernel class is not a unary chain")
                work, one = collapse_unary(work, cls[i + 1])
                step = one if step is None else compose(step, one)
            steps.append(GeneratorStep(
                "degeneracy", _edge_orbit(orbit[0][i + 1], src_rows), step))
    return tuple(steps), work


def _inner_chain(dst, image_root, image_leaves, image_edges, dst_rows):
    """The subtree of dst spanned by an image, and the inner faces that
    contract its edges the image misses, orbit by orbit in canonical edge
    order: (middle, steps in application order, contracted middle)."""
    for row in dst_rows:
        if row[image_root] != image_root:
            raise NotEquivariant("image root is not fixed")
        if not image_leaves.issuperset([row[e] for e in image_leaves]):
            raise NotEquivariant("image leaves are not a stable set")
    grown = spanned_subtree(dst, image_root, image_leaves)
    if grown is None:
        raise FactorizationError("image does not span a subtree")
    span_edges, span_vertex_outs = grown
    middle = Tree(span_edges, image_root,
                  [(o, dst.children_of(o)) for o in span_vertex_outs],
                  _checked=True)

    to_contract = [e for e in middle.canonical_edge_order()
                   if e not in image_edges]
    for row in dst_rows:
        if any(row[e] not in span_edges or row[e] in image_edges
               for e in to_contract):
            raise NotEquivariant("contracted edges are not a stable set")
    inner = []
    seen = set()
    cur = middle
    for e in to_contract:
        if e in seen:
            continue
        orbit = _edge_orbit(e, dst_rows)
        seen.update(orbit)
        cur, face = _contract_edges(cur, orbit)
        inner.append(GeneratorStep("inner", orbit, face))
    inner.reverse()  # list in application order, t2 -> middle
    return middle, tuple(inner), cur


def _outer_chain(dst, middle, dst_rows):
    """The outer faces that grow middle out to the whole of dst, rootward
    first, then leafward by site order."""
    outer = []
    cur = middle
    while cur.edges != dst.edges or set(cur.vertices) != set(dst.vertices):
        if cur.root != dst.root:
            below = dst.parent_of(cur.root)
            orbit = (below,)
            ins = dst.children_of(below)
            bigger = Tree(cur.edges | {below} | ins, below,
                          list(cur.vertices) + [(below, ins)], _checked=True)
        else:
            have = {o for o, _ in cur.vertices}
            sites = {o for o, _ in dst.vertices
                     if o in cur.edges and o not in have}
            if not sites:
                raise FactorizationError("outer growth stalled")
            pick = min((o for o in dst.sorted_edges() if o in sites),
                       key=dst.depth)
            orbit = _edge_orbit(pick, dst_rows)
            if not sites.issuperset(orbit):
                raise NotEquivariant("graft sites are not a stable set")
            edges = cur.edges
            vertices = list(cur.vertices)
            for o in orbit:
                ins = dst.children_of(o)
                edges = edges | ins
                vertices.append((o, ins))
            bigger = Tree(edges, cur.root, vertices, _checked=True)
        step = TreeMorphism(cur, bigger, {e: e for e in cur.edges},
                            _checked=True)
        outer.append(GeneratorStep("outer", orbit, step))
        cur = bigger
    if cur != dst:
        raise FactorizationError("outer growth missed the target")
    return tuple(outer)


def _normal_form(f, src_rows=(), dst_rows=(), memo=None, ends=None):
    """The normal form of f in orbit-sized stages, as a Factorization.

    src_rows and dst_rows are the edge permutations of the non-identity
    group elements on f.src and f.dst, in the same order.  With no rows
    every orbit is a single edge, which is the plain normal form.

    A memo shares the stage chains between maps (see `factorize`).  Its
    keys name f's ends by `ends`: by default f.src and f.dst, which is
    right with no rows; on the G path the G-trees, which hash by their
    rows too.  Given `ends`, only the degeneracies and the inner faces are
    shared, and the outer faces are built per map (see
    `gtrees.equivariant_factorize`).

    Raises NotEquivariant when the stages cannot be grouped into orbits or
    the residual renaming does not commute with the rows.
    """
    src, dst = f.src, f.dst
    src_end, dst_end = ends or (src, dst)
    classes = _kernel_classes(f)
    degeneracies, work = _chain(memo, (src_end, classes), _degeneracy_chain,
                                src, classes, src_rows)
    image = (f.mapping[src.root], frozenset(f.mapping[l] for l in src.leaves),
             frozenset(f.mapping.values()))
    middle, inner, cur = _chain(memo, (dst_end, *image), _inner_chain,
                                dst, *image, dst_rows)

    # what remains of the map is a renaming; a bijection matching roots
    # and vertices is a valid edge map, so the test below covers the
    # validation the constructor would repeat
    iso = TreeMorphism(work, cur, {e: f.mapping[e] for e in work.edges},
                       _checked=True)
    if not iso.is_isomorphism():
        raise FactorizationError("residual stage is not an isomorphism")
    for srow, drow in zip(src_rows, dst_rows):
        if any(iso.mapping[srow[e]] != drow[v]
               for e, v in iso.mapping.items()):
            raise NotEquivariant("residual renaming does not commute")

    outer = _chain(None if ends else memo, (dst, middle), _outer_chain,
                   dst, middle, dst_rows)
    return Factorization(degeneracies, iso, inner, outer)


def factorize(f, memo=None):
    """Normal form: degeneracies, isomorphism, inner faces, outer faces.

    Deterministic stage listing: degeneracy chains collapse top-down per
    kernel class (classes by name order); inner faces contract in canonical
    edge order of the middle subtree; outer faces grow rootward first, then
    leafward by site order.

    Without a memo every stage is built afresh; that is the reference
    path.  A memo is a dict owned by the caller, and the maps factored
    through it share their stage chains: the degeneracies are built once
    per (source, kernel classes), the middle subtree and inner faces once
    per (target, image root, image leaves, image edges), the outer faces
    once per (target, middle subtree).  Each map still builds and checks
    its own residual isomorphism, and the checks raise in the same order.
    The memo holds one entry per distinct key, and its stage objects are
    shared, so no caller may change them.  The factorization suite keeps
    one memo per pair stride (`pairs._pair_stride`);
    `gtrees.equivariant_factorize` takes a memo too, keyed by the G-trees.
    """
    return _normal_form(f, memo=memo)
