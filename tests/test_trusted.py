"""The trusted constructors agree with the validating ones they skip.

`Tree(..., _checked=True)` builds the trees of `collapse_unary`,
`contract_edge` and the normal form's span and growth stages without the
structural checks, and `lift_morphism` builds its fiber and pair without
re-validating them.  Over every map of the plain corpus at 4 edges and of
the z2, z4 and s3 G-tree corpora at 5 edges, each such tree is rebuilt
through the validating constructor and compared field by field, and each
lift is passed through the validating morphism and pair constructors.

`GForest(..., _checked=True)` builds the diagrams of `phi_star_genuine`
and `q_star_diagram`.  Over the z2 and s3 genuine corpora at 3 edges,
every diagram they give the genuine check (each pullback along a
non-identity orbit map, and each substitution along every retractive map
into a pulled-back label set) is rebuilt through the validating `GForest`
and compared field by field.
"""

import itertools

import pytest

from dendron import (Disconnected, GrothTreeMorphism, NotEquivariant, Tree,
                     TreeMorphism, builtin_group, equivariant_factorize,
                     factorize, hom_set, is_equivariant_morphism, lift_G,
                     lift_morphism)
from dendron import forests, morphisms
from dendron.cli import _labeled_gtrees, _labeled_trees
from dendron.forests import (ComponentIsoInvalid, GForest, GenuineTree,
                             enumerate_retractive_maps, q_star_diagram,
                             q_star_genuine)
from dendron.groups import equivariant_maps


def assert_as_validated(t):
    """t equals its rebuild through the validating constructor, and reads
    the same geometry; chains are checked against a walk to the root."""
    ref = Tree(t.edges, t.root, t.vertices)
    assert t == ref
    assert t.leaves == ref.leaves
    for e in t.edges:
        assert t.children_of(e) == ref.children_of(e)
        assert t.parent_of(e) == ref.parent_of(e)
        chain = [e]
        while ref.parent_of(chain[-1]) is not None:
            chain.append(ref.parent_of(chain[-1]))
        assert sorted((x for x in t.edges if t.le(e, x)),
                      key=t.depth, reverse=True) == chain
        assert t.depth(e) == len(chain) - 1


def check_builders(tree):
    """Every collapse and contraction of a tree."""
    for out, ins in tree.vertices:
        if len(ins) == 1:
            assert_as_validated(morphisms.collapse_unary(tree, out)[0])
        if tree.is_inner(out):
            assert_as_validated(morphisms.contract_edge(tree, out)[0])


def check_stages(fact):
    seen = set()
    for m in fact.stages():
        for t in (m.src, m.dst):
            if id(t) not in seen:
                seen.add(id(t))
                assert_as_validated(t)


def check_lift(gm):
    fiber = TreeMorphism(gm.fiber.src, gm.fiber.dst, gm.fiber.mapping)
    assert GrothTreeMorphism(gm.src, gm.dst, gm.phi, fiber) == gm


def check_plain(corpus):
    for _, la in corpus:
        check_builders(la.tree)
    for (a, la), (b, lb) in itertools.product(corpus, repeat=2):
        for f in hom_set(a, b):
            check_stages(factorize(f))
            check_lift(lift_morphism(f, la, lb))


def test_plain_corpus_at_four_edges():
    check_plain(_labeled_trees(4))


@pytest.mark.parametrize("group", ["z2", "z4", "s3"])
def test_gtree_corpus_at_five_edges(group):
    corpus = _labeled_gtrees(builtin_group(group), 5, None)
    for a, _ in corpus:
        check_builders(a.tree)
    lifted = 0
    for (a, la), (b, lb) in itertools.product(corpus, repeat=2):
        for f in hom_set(a.tree, b.tree):
            try:
                fact = equivariant_factorize(a, b, f)
            except NotEquivariant:
                assert not is_equivariant_morphism(a, b, f)
                continue
            check_stages(fact)
            gm = lift_G(f, la, lb)
            assert lift_G(f, la, lb, _checked=True) == gm
            check_lift(gm)
            lifted += 1
    assert lifted


def test_a_trusted_collapse_that_keeps_its_edge_is_caught(monkeypatch):
    real = morphisms.collapse_unary

    def keeps_removed_edge(tree, out_edge):
        smaller, f = real(tree, out_edge)
        kept = Tree(tree.edges, smaller.root, smaller.vertices, _checked=True)
        return kept, TreeMorphism(tree, kept, f.mapping, _checked=True)

    monkeypatch.setattr(morphisms, "collapse_unary", keeps_removed_edge)
    with pytest.raises(Disconnected):
        check_plain(_labeled_trees(4))


def assert_forest_as_validated(d):
    ref = GForest(d.base, d.trees, d.isos)
    assert (ref.group, ref.base, ref.trees, ref.isos) == \
        (d.group, d.base, d.trees, d.isos)


def check_genuine(group, max_edges):
    """Rebuild every trusted diagram the genuine check at these bounds
    derives; returns how many pullbacks and substitutions were rebuilt."""
    corpus = forests._genuine_corpus(builtin_group(group), max_edges, None)
    pulled = substituted = 0
    for (x, lx), (y, ly) in itertools.product(corpus, repeat=2):
        for q in equivariant_maps(x.base, y.base):
            qy = q_star_diagram(q, x.base, y)
            if qy is not y:
                assert_forest_as_validated(qy)
                pulled += 1
            labels = q_star_genuine(q, x.base, ly).labels
            for phi in enumerate_retractive_maps(labels, lx.labels):
                assert_forest_as_validated(
                    forests.phi_star_genuine(phi, lx).diagram)
                substituted += 1
    return pulled, substituted


@pytest.mark.parametrize("group", ["z2", "s3"])
def test_genuine_corpus_at_three_edges(group):
    pulled, substituted = check_genuine(group, 3)
    assert pulled and substituted


def test_a_trusted_substitution_with_a_wrong_iso_is_caught(monkeypatch):
    real = forests.phi_star_genuine

    def swaps_root_at_one_generator(rm, gt):
        """The real result, with one generator iso sending the root where
        an inner edge should go; the leaves, and so the labels, keep
        their images."""
        out = real(rm, gt)
        d = out.diagram
        isos = dict(d.isos)
        for (g, c), m in d.isos.items():
            tree = d.trees[c]
            inner = [e for e in tree.sorted_edges() if tree.is_inner(e)]
            if g in d.group.generators and inner:
                root, e = tree.root, inner[0]
                isos[(g, c)] = {**m, root: m[e], e: m[root]}
                bad = GForest(d.base, d.trees, isos, _checked=True)
                return GenuineTree(out.labels, bad, out.leaf_map)
        return out

    monkeypatch.setattr(forests, "phi_star_genuine",
                        swaps_root_at_one_generator)
    with pytest.raises(ComponentIsoInvalid):
        check_genuine("z2", 3)
