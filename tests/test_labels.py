import pytest
from hypothesis import given, settings, strategies as st

from dendron import (
    PLUS, LabelError, LabeledTree, canonical_labeling, PointedMap,
    compose_pointed, enumerate_pointed_maps, is_label_preserving, hom_labeled,
    hom_set, corolla, single_edge, linear_tree, Tree, TreeMorphism,
)

from test_trees import random_trees


def skeletal(m, n, mapping):
    """The pointed map 1..m -> 1..n given by mapping."""
    return PointedMap(range(1, m + 1), range(1, n + 1), mapping)


class TestLabeledTree:
    def test_labels_must_cover_leaves(self):
        with pytest.raises(LabelError):
            LabeledTree(corolla(2), {1: "l0"})

    def test_plus_reserved(self):
        with pytest.raises(LabelError):
            LabeledTree(single_edge("e"), {PLUS: "e"})

    def test_canonical_labeling(self):
        lt = canonical_labeling(corolla(2))
        assert lt.label_set == (1, 2)
        assert set(lt.labels.values()) == {"l0", "l1"}

    def test_edge_only_label(self):
        lt = canonical_labeling(single_edge("e"))
        assert lt.labels == {1: "e"}


class TestPointedMap:
    def test_skeletal(self):
        phi = skeletal(2, 1, {1: 1, 2: PLUS})
        assert phi(1) == 1
        assert phi(2) == PLUS
        assert phi(PLUS) == PLUS

    def test_compose_worked_example(self):
        # gamma: 3+ -> 5+ then phi: 5+ -> 4+
        gamma = skeletal(3, 5, {1: 1, 2: 1, 3: 4})
        phi = skeletal(5, 4, {1: 1, 2: 2, 3: 2, 4: 3, 5: 3})
        both = compose_pointed(gamma, phi)
        assert both.mapping == {1: 1, 2: 1, 3: 3}
        assert 2 not in both.mapping.values()

    def test_identity(self):
        ident = PointedMap.identity_on((1, 2))
        assert ident.src_labels == ident.dst_labels == (1, 2)
        assert ident.mapping == {1: 1, 2: 2}
        phi = skeletal(2, 2, {1: 2, 2: 1})
        assert compose_pointed(phi, ident) == phi
        assert compose_pointed(ident, phi) == phi

    def test_enumerate_counts(self):
        # (n+1)^m pointed maps m+ -> n+
        for m in range(4):
            for n in range(4):
                maps = enumerate_pointed_maps(range(1, m + 1),
                                              range(1, n + 1))
                assert len(maps) == (n + 1) ** m
                assert len(set(maps)) == len(maps)

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_compose_associative(self, k, m, n, data):
        fs = enumerate_pointed_maps(range(1, k + 1), range(1, m + 1))
        gs = enumerate_pointed_maps(range(1, m + 1), range(1, n + 1))
        hs = enumerate_pointed_maps(range(1, n + 1), range(1, 2))
        f = data.draw(st.sampled_from(fs))
        g = data.draw(st.sampled_from(gs))
        h = data.draw(st.sampled_from(hs))
        assert compose_pointed(compose_pointed(f, g), h) == \
            compose_pointed(f, compose_pointed(g, h))


class TestHomLabeled:
    def test_corolla_self(self):
        lt = canonical_labeling(corolla(2))
        assert len(hom_labeled(lt, lt)) == 1
        assert len(hom_set(lt.tree, lt.tree)) == 2

    def test_is_subset_of_hom_set(self):
        src = canonical_labeling(linear_tree(2))
        dst = canonical_labeling(linear_tree(1))
        fast = hom_labeled(src, dst)
        slow = [f for f in hom_set(src.tree, dst.tree)
                if is_label_preserving(f, src, dst)]
        assert fast == slow

    @given(random_trees(max_vertices=3), random_trees(max_vertices=3))
    @settings(max_examples=30, deadline=None)
    def test_matches_filter(self, a, b):
        la, lb = canonical_labeling(a), canonical_labeling(b)
        fast = hom_labeled(la, lb)
        slow = [f for f in hom_set(a, b) if is_label_preserving(f, la, lb)]
        assert fast == slow

    def test_label_mismatch_empty(self):
        la = canonical_labeling(corolla(2))
        lb = canonical_labeling(corolla(3))
        assert hom_labeled(la, lb) == []

    def test_edge_only_to_differently_rooted(self):
        # the edge is root and leaf at once; both pins must agree
        le = canonical_labeling(single_edge("e"))
        lc = canonical_labeling(corolla(1))
        assert hom_labeled(le, lc) == []
        # swapping roles: collapse is label-preserving
        back = hom_labeled(lc, le)
        assert len(back) == 1
        TreeMorphism(lc.tree, le.tree, back[0].mapping)
