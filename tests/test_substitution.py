import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dendron import (
    PLUS, Tree, LabeledTree, LabelError, PointedMap, canonical_labeling,
    compose_pointed, enumerate_pointed_maps, corolla, single_edge,
    linear_tree, enumerate_all_trees, hom_set, hom_labeled, compose,
    identity, factorize, phi_star, phi_star_mor, tau_id, tau_comp, iota,
    GrothTreeMorphism, groth_identity, compose_groth, groth_hom, F_functor,
    lift_morphism, TreeMorphism, MorphismError, sort_key,
)
from dendron import substitution
from dendron.trees import _fresh_layer

from test_labels import skeletal


def four_leaf_tree():
    t = Tree(["r", "e1", "e2", "l2", "l3", "l4"], "r",
             [("r", ["e1", "e2"]), ("e2", ["l2", "l3", "l4"])])
    return LabeledTree(t, {1: "e1", 2: "l2", 3: "l3", 4: "l4"})


GAMMA = skeletal(3, 5, {1: 1, 2: 1, 3: 4})
PHI = skeletal(5, 4, {1: 1, 2: 2, 3: 2, 4: 3, 5: 3})


def small_labeled(max_edges=4):
    return [canonical_labeling(t) for t in enumerate_all_trees(max_edges)]


class TestPhiStar:
    def test_identity_action_on_corolla(self):
        c2 = canonical_labeling(corolla(2))
        big = phi_star(PointedMap.identity_on((1, 2)), c2)
        assert len(big.tree.edges) == 6
        assert len(big.tree.vertices) == 4

    def test_empty_map_on_edge(self):
        eta = canonical_labeling(single_edge("e"))
        phi = skeletal(0, 1, {})
        out = phi_star(phi, eta)
        # stump on the old leaf plus a unary root corolla
        assert len(out.tree.edges) == 2
        assert len(out.tree.vertices) == 2
        assert out.label_set == ()

    def test_zero_to_zero_on_edge(self):
        t = Tree(["e"], "e", [("e", [])])
        lt = LabeledTree(t, {})
        out = phi_star(skeletal(0, 0, {}), lt)
        assert len(out.tree.edges) == 2
        assert len(out.tree.vertices) == 2

    def test_corolla_arities(self):
        out = phi_star(PHI, four_leaf_tree())
        t, src = out.tree, four_leaf_tree()
        arities = [len(t.children_of(src.leaf_of(i))) for i in (1, 2, 3, 4)]
        arities.append(len(t.children_of(t.root)))
        assert arities == [1, 2, 2, 0, 1]
        assert out.label_set == (1, 2, 3, 4, 5)

    def test_plus_preimage_feeds_root(self):
        c1 = canonical_labeling(corolla(1))
        phi = skeletal(2, 1, {1: 1, 2: PLUS})
        out = phi_star(phi, c1)
        root_ins = out.tree.children_of(out.tree.root)
        assert c1.tree.root in root_ins
        assert out.leaf_of(2) in root_ins
        assert len(root_ins) == 2

    def test_label_set_mismatch(self):
        with pytest.raises(LabelError):
            phi_star(PHI, canonical_labeling(corolla(2)))

    def test_two_step_edge_counts(self):
        src = four_leaf_tree()
        small = phi_star(compose_pointed(GAMMA, PHI), src)
        big = phi_star(GAMMA, phi_star(PHI, src))
        assert len(small.tree.edges) == 10
        assert len(big.tree.edges) == 16
        assert small.tree != big.tree


class TestCachedTreeData:
    """A tree keeps its sorted edges and its fresh graft layer; both must
    equal a recomputation, also under stacked corolla layers."""

    @staticmethod
    def scanned_layer(tree):
        taken = {e[1] for e in tree.edges
                 if isinstance(e, tuple) and len(e) == 3 and e[0] == "graft"
                 and isinstance(e[1], int)}
        return next(k for k in itertools.count() if k not in taken)

    def test_cached_data_matches_a_rescan(self):
        stacks = [small_labeled(2)]
        for _ in range(3):
            stacks.append([phi_star(phi, x) for x in stacks[-1]
                           for phi in enumerate_pointed_maps((1, 2),
                                                             x.label_set)])
        for depth, stack in enumerate(stacks):
            for x in stack:
                assert _fresh_layer(x.tree) == depth
        trees = enumerate_all_trees(5) + [x.tree for s in stacks for x in s]
        for t in trees:
            assert t.sorted_edges() == tuple(sorted(t.edges, key=sort_key))
            assert _fresh_layer(t) == self.scanned_layer(t)


def test_module_caches_are_bounded():
    caches = {name: f for name, f in vars(substitution).items()
              if hasattr(f, "cache_info")}
    assert {"phi_star", "iota"} <= set(caches)
    for f in caches.values():
        assert f.cache_info().maxsize is not None


class TestPhiStarMor:
    def test_identity_pushes_to_identity(self):
        c2 = canonical_labeling(corolla(2))
        phi = skeletal(2, 2, {1: 2, 2: 1})
        out = phi_star_mor(phi, identity(c2.tree), c2, c2)
        assert out == identity(out.src)

    def test_degeneracy_pushes_to_degeneracy(self):
        src = canonical_labeling(linear_tree(1))
        dst = canonical_labeling(single_edge("e0"))
        (f,) = hom_labeled(src, dst)
        phi = PointedMap.identity_on((1,))
        out = phi_star_mor(phi, f, src, dst)
        fact = factorize(out)
        assert len(fact.degeneracies) == 1
        assert not fact.inner_faces and not fact.outer_faces

    def test_functorial_within_fiber(self):
        # chase every label-preserving composite among small 1-leaf trees
        shapes = [lt for lt in small_labeled(3) if len(lt.label_set) == 1]
        phi = skeletal(2, 1, {1: 1, 2: PLUS})
        checked = 0
        for a, b, c in itertools.product(shapes, repeat=3):
            for f in hom_labeled(a, b):
                for g in hom_labeled(b, c):
                    lhs = phi_star_mor(phi, compose(f, g), a, c)
                    rhs = compose(phi_star_mor(phi, f, a, b),
                                  phi_star_mor(phi, g, b, c))
                    assert lhs.mapping == rhs.mapping
                    checked += 1
        assert checked > 10


class TestTauId:
    def test_on_edge(self):
        eta = canonical_labeling(single_edge("e"))
        t = tau_id(eta)
        fact = factorize(t)
        assert len(fact.degeneracies) == 2
        assert not fact.inner_faces and not fact.outer_faces

    def test_retracts_iota(self):
        for lt in small_labeled(4):
            ident = PointedMap.identity_on(lt.label_set)
            back = compose(iota(ident, lt), tau_id(lt))
            assert back == identity(lt.tree)

    def test_natural_against_fiber_maps(self):
        shapes = [lt for lt in small_labeled(4) if len(lt.label_set) == 2]
        for a, b in itertools.product(shapes, repeat=2):
            for f in hom_labeled(a, b):
                ident = PointedMap.identity_on(a.label_set)
                lhs = compose(phi_star_mor(ident, f, a, b), tau_id(b))
                rhs = compose(tau_id(a), f)
                assert lhs.mapping == rhs.mapping


class TestTauComp:
    def test_contracts_middle_layer(self):
        tc = tau_comp(GAMMA, PHI, four_leaf_tree())
        fact = factorize(tc)
        assert len(fact.degeneracies) == 0
        assert fact.iso.is_isomorphism()
        assert len(fact.inner_faces) == 6
        assert len(fact.outer_faces) == 0

    def test_inclusion_square(self):
        src = four_leaf_tree()
        mid = phi_star(PHI, src)
        one = compose(iota(PHI, src), iota(GAMMA, mid))
        two = compose(iota(compose_pointed(GAMMA, PHI), src),
                      tau_comp(GAMMA, PHI, src))
        assert one.mapping == two.mapping

    def test_associativity_square(self):
        src = four_leaf_tree()
        delta = skeletal(2, 3, {1: 1, 2: PLUS})
        gd = compose_pointed(delta, GAMMA)
        pg = compose_pointed(GAMMA, PHI)
        one = compose(tau_comp(gd, PHI, src),
                      tau_comp(delta, GAMMA, phi_star(PHI, src)))
        two = compose(tau_comp(delta, pg, src),
                      phi_star_mor(delta, tau_comp(GAMMA, PHI, src),
                                   phi_star(pg, src),
                                   phi_star(GAMMA, phi_star(PHI, src))))
        assert one.mapping == two.mapping

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_unit_triangles(self, data):
        shapes = [lt for lt in small_labeled(3) if len(lt.label_set) <= 2]
        lt = data.draw(st.sampled_from(shapes))
        maps = enumerate_pointed_maps(range(1, 3), lt.label_set)
        phi = data.draw(st.sampled_from(maps))
        src_id = PointedMap.identity_on(phi.src_labels)
        dst_id = PointedMap.identity_on(phi.dst_labels)
        one = compose(tau_comp(src_id, phi, lt), tau_id(phi_star(phi, lt)))
        assert one == identity(one.src)
        two = compose(tau_comp(phi, dst_id, lt),
                      phi_star_mor(phi, tau_id(lt),
                                   phi_star(dst_id, lt), lt))
        assert two == identity(two.src)


class TestIota:
    def test_counts_outer_faces(self):
        c2 = canonical_labeling(corolla(2))
        inc = iota(PointedMap.identity_on((1, 2)), c2)
        assert set(inc.dst.edges) - set(inc.mapping.values()) \
            == {inc.dst.root} | {e for e in inc.dst.leaves}
        fact = factorize(inc)
        assert not fact.degeneracies and not fact.inner_faces
        assert len(fact.outer_faces) == 3

    def test_injective_and_order_preserving(self):
        for lt in small_labeled(4):
            for phi in enumerate_pointed_maps(range(1, 3), lt.label_set):
                inc = iota(phi, lt)
                assert inc.is_injective()
                big = inc.dst
                for a, b in itertools.product(lt.tree.edges, repeat=2):
                    assert lt.tree.le(a, b) == big.le(inc.mapping[a],
                                                      inc.mapping[b])


class TestGrothCategory:
    def test_fiber_must_preserve_labels(self):
        c2 = canonical_labeling(corolla(2))
        swap = skeletal(2, 2, {1: 2, 2: 1})
        mid = phi_star(swap, c2)
        bad = [f for f in hom_set(mid.tree, c2.tree)
               if not is_ok(f, mid, c2)]
        assert bad
        with pytest.raises(MorphismError):
            GrothTreeMorphism(c2, c2, swap, bad[0])

    def test_identity_and_assoc(self):
        a = canonical_labeling(corolla(2))
        ms = groth_hom(a, a)
        ga = groth_identity(a)
        assert ga in ms
        for m in ms:
            assert compose_groth(ga, m) == m
            assert compose_groth(m, ga) == m
        for x, y, z in itertools.product(ms, repeat=3):
            assert compose_groth(compose_groth(x, y), z) \
                == compose_groth(x, compose_groth(y, z))

    def test_projection_functorial(self):
        a = canonical_labeling(linear_tree(1))
        b = canonical_labeling(corolla(2))
        for f in groth_hom(a, b):
            for g in groth_hom(b, a):
                lhs = F_functor(compose_groth(f, g))
                rhs = compose(F_functor(f), F_functor(g))
                assert lhs.mapping == rhs.mapping

    def test_projection_of_identity(self):
        for lt in small_labeled(3):
            assert F_functor(groth_identity(lt)) == identity(lt.tree)


def is_ok(f, src, dst):
    from dendron import is_label_preserving
    return is_label_preserving(f, src, dst)


class TestLift:
    def test_iso_lift_shape(self):
        c2 = canonical_labeling(corolla(2))
        flip = [f for f in hom_set(c2.tree, c2.tree)
                if f != identity(c2.tree)]
        lifted = lift_morphism(flip[0], c2, c2)
        assert lifted.phi.mapping == {1: 2, 2: 1}
        fact = factorize(lifted.fiber)
        assert not fact.inner_faces and not fact.outer_faces
        assert len(fact.degeneracies) == 3

    def test_outer_face_lift_case_split(self):
        # include the edge into a 2-corolla at the root
        eta = canonical_labeling(single_edge("e"))
        c2 = canonical_labeling(corolla(2))
        f = TreeMorphism(eta.tree, c2.tree, {"e": c2.tree.root})
        lifted = lift_morphism(f, eta, c2)
        assert lifted.phi.mapping == {1: 1, 2: 1}
        # and into a leaf: everything else escapes to the basepoint
        g = TreeMorphism(eta.tree, c2.tree, {"e": c2.labels[1]})
        glift = lift_morphism(g, eta, c2)
        assert sorted(glift.phi.mapping.values(), key=str) == [1, PLUS] \
            or sorted(glift.phi.mapping.values(), key=str) == [PLUS, 1]

    def test_round_trip_small(self):
        shapes = small_labeled(4)
        for src, dst in itertools.product(shapes, repeat=2):
            plain = hom_set(src.tree, dst.tree)
            pairs = groth_hom(src, dst)
            assert len(plain) == len(pairs)
            for h in plain:
                assert F_functor(lift_morphism(h, src, dst)).mapping \
                    == h.mapping
            for p in pairs:
                assert lift_morphism(F_functor(p), src, dst) == p


def test_only_substitution_names_fresh_edges():
    """phi_star invents the fresh-edge names; the other modules extend
    maps over them through substitution._extend_fresh."""
    src = Path(substitution.__file__).parent
    naming = re.compile(r'"graft".*"leaf"')
    hits = sorted(p.name for p in src.glob("*.py")
                  if naming.search(p.read_text()))
    assert hits == ["substitution.py"]
