import itertools
import json
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from dendron import forests
from dendron import (
    ForestMorphism, GForest, ForestError, ActionNotFunctorial,
    ComponentIsoInvalid, is_genuine,
    is_equivariant_forest_morphism, forest_hom, subgroup_group,
    coset_groupoid, bh_to_coset_groupoid, diagram_from_gtree,
    DiagramMorphism, diagram_hom, RetractiveGSet,
    RetractiveMap, enumerate_retractive_maps, fiber_pointed_map,
    self_labeled_genuine, phi_star_genuine, genuine_hom, eta_morphism,
    q_star_diagram, q_star_diagram_morphism, q_star_genuine,
    q_star_genuine_morphism, q_star_compare, enumerate_genuine_diagrams,
    genuine_equivalence_check, gforest_to_json, gforest_from_json, corolla,
    single_edge, linear_tree, are_isomorphic, canonical_form, hom_set,
    identity, compose,
    LabeledTree, phi_star, groth_hom, GTree, GLabeledTree, enumerate_gtrees,
    equivariant_hom, groth_hom_G, cyclic_group, symmetric_group_3,
    trivial_group, subgroups, coset_gset, equivariant_maps, transitive_gsets,
    GSet, GSetError, GenuineTree, GenuineMorphism, LabelError,
    q_star_retractive,
)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
S3 = symmetric_group_3()
TRIV = trivial_group()


def ident_edges(t):
    return {e: e for e in t.edges}


def rows_gforest(group, trees, rows, isos):
    """A G-forest over the indices 0..n-1 of a list of trees, whose index
    action is given as one row tuple per group element."""
    base = GSet(group, range(len(trees)),
                {g: dict(enumerate(row)) for g, row in rows.items()})
    return GForest(base, dict(enumerate(trees)), isos)


def swap_gforest(t):
    """Two copies of one tree swapped by the nontrivial element of Z/2."""
    ident = ident_edges(t)
    return rows_gforest(
        Z2, [t, t],
        {0: (0, 1), 1: (1, 0)},
        {(g, i): dict(ident) for g in range(2) for i in range(2)},
    )


def trivial_gforest(trees, group):
    """The trees at indices 0..n-1, each fixed by every element."""
    return rows_gforest(group, trees,
                        {g: tuple(range(len(trees))) for g in group.elements},
                        {(g, i): ident_edges(t) for g in group.elements
                         for i, t in enumerate(trees)})


@lru_cache(maxsize=None)
def z2_gtrees():
    return tuple(enumerate_gtrees(Z2, 3))


@lru_cache(maxsize=None)
def full_sub_diagrams():
    return tuple(diagram_from_gtree(g, Z2, (0, 1)) for g in z2_gtrees()[:6])


@lru_cache(maxsize=None)
def trivial_sub_diagrams():
    trees = [single_edge("r"), corolla(2), linear_tree(2)]
    return tuple(diagram_from_gtree(GTree.trivial(t, TRIV), Z2, (0,))
                 for t in trees)


def identity_coset_gtree(diagram):
    """The tree at the identity coset with its subgroup action."""
    hgrp, elems = subgroup_group(diagram.group, diagram.base.stabilizer(0))
    c0 = min(diagram.base.elements)
    rows = {i: dict(diagram.isos[(x, c0)]) for i, x in enumerate(elems)}
    return GTree(diagram.trees[c0], hgrp, rows)


def identity_coset_fiber(ret):
    """The labels over the identity coset as a set with a subgroup action."""
    hgrp, elems = subgroup_group(ret.group, ret.base.stabilizer(0))
    fib = ret.fiber(min(ret.base.elements))
    rows = {i: {x: ret.carrier.act(h, x) for x in fib}
            for i, h in enumerate(elems)}
    return GSet(hgrp, fib, rows)


def identity_forest_map(f):
    return ForestMorphism(f, f, {i: i for i in f.trees},
                          {i: identity(t) for i, t in f.trees.items()})


def identity_retractive_map(ret):
    return RetractiveMap(ret, ret, {x: x for x in ret.carrier.elements})


def compose_forest_maps(first, second):
    """Diagrammatic composite of two forest morphisms, built by hand."""
    idx = {i: second.index_map[j] for i, j in first.index_map.items()}
    comps = {i: compose(f, second.components[first.index_map[i]])
             for i, f in first.components.items()}
    return ForestMorphism(first.src, second.dst, idx, comps)


def identity_diagram_map(diagram):
    return DiagramMorphism(diagram, diagram,
                           {c: identity(t) for c, t in diagram.trees.items()})


def fiber_glabeled(gt_obj):
    """The identity-coset component as a labeled tree with a subgroup action."""
    gtree = identity_coset_gtree(gt_obj.diagram)
    fib = identity_coset_fiber(gt_obj.labels)
    c0 = min(gt_obj.diagram.base.elements)
    labels = {a: gt_obj.leaf_map[a] for a in gt_obj.labels.fiber(c0)}
    return GLabeledTree(gtree, fib, labels)


def fiber_labeled(gt_obj):
    c0 = min(gt_obj.diagram.base.elements)
    labels = {a: gt_obj.leaf_map[a] for a in gt_obj.labels.fiber(c0)}
    return LabeledTree(gt_obj.diagram.trees[c0], labels)


class TestForestBasics:
    def test_component_count(self):
        f = trivial_gforest([corolla(2), single_edge("r")], TRIV)
        assert len(f.trees) == 2
        assert f == trivial_gforest([corolla(2), single_edge("r")], TRIV)

    def test_identity_composes_to_itself(self):
        f = trivial_gforest([corolla(2), corolla(3)], TRIV)
        ide = identity_forest_map(f)
        assert compose_forest_maps(ide, ide) == ide

    def test_bad_index_map_rejected(self):
        f = trivial_gforest([corolla(2)], TRIV)
        with pytest.raises(ForestError):
            ForestMorphism(f, f, {0: 3},
                           {0: hom_set(corolla(2), corolla(2))[0]})


class TestGForestValidation:
    def test_single_fixed_tree(self):
        gf = trivial_gforest([corolla(2)], Z2)
        assert gf.base.act(1, 0) == 0

    def test_swapped_pair_of_equal_trees(self):
        gf = swap_gforest(corolla(2))
        assert gf.base.act(1, 0) == 1

    def test_swap_of_nonisomorphic_pair_rejected(self):
        t, s = corolla(2), corolla(3)
        m01 = {"r": "r", "l0": "l0", "l1": "l1"}
        m10 = {"r": "r", "l0": "l0", "l1": "l1", "l2": "l0"}
        with pytest.raises(ComponentIsoInvalid):
            rows_gforest(Z2, [t, s], {0: (0, 1), 1: (1, 0)},
                    {(0, 0): ident_edges(t), (0, 1): ident_edges(s),
                     (1, 0): m01, (1, 1): m10})

    def test_identity_row_must_be_trivial(self):
        t = corolla(2)
        isos = {(g, i): ident_edges(t) for g in range(2) for i in range(2)}
        with pytest.raises(GSetError):
            rows_gforest(Z2, [t, t], {0: (1, 0), 1: (0, 1)}, isos)
        # read from a document, the index rows are the forest's error
        doc = gforest_to_json(swap_gforest(t), group_ref="z2")
        doc["action"] = {"0": [1, 0], "1": [0, 1]}
        with pytest.raises(ActionNotFunctorial):
            gforest_from_json(doc)

    def test_identity_iso_must_be_trivial(self):
        t = corolla(2)
        swap = {t.root: t.root, "l0": "l1", "l1": "l0"}
        with pytest.raises(ActionNotFunctorial):
            rows_gforest(Z2, [t, t], {0: (0, 1), 1: (1, 0)},
                         {(0, 0): swap, (0, 1): ident_edges(t),
                     (1, 0): ident_edges(t), (1, 1): ident_edges(t)})

    def test_rows_must_compose_like_the_group(self):
        t = corolla(2)
        isos = {(g, i): ident_edges(t) for g in range(4) for i in range(2)}
        with pytest.raises(GSetError):
            rows_gforest(Z4, [t, t],
                         {0: (0, 1), 1: (1, 0), 2: (0, 1), 3: (0, 1)}, isos)
        doc = gforest_to_json(trivial_gforest([t, t], Z4), group_ref="z4")
        doc["action"] = {"0": [0, 1], "1": [1, 0], "2": [0, 1], "3": [0, 1]}
        with pytest.raises(ActionNotFunctorial):
            gforest_from_json(doc)

    def test_isos_must_compose_like_the_group(self):
        t = corolla(2)
        swap = {t.root: t.root, "l0": "l1", "l1": "l0"}
        with pytest.raises(ActionNotFunctorial):
            rows_gforest(Z2, [t, t], {0: (0, 1), 1: (1, 0)},
                         {(0, 0): ident_edges(t), (0, 1): ident_edges(t),
                     (1, 0): swap, (1, 1): ident_edges(t)})


class TestGenuineness:
    def test_swap_forest_is_genuine(self):
        gf = swap_gforest(corolla(2))
        assert is_genuine(gf)
        assert gf.base.elements == (0, 1)
        assert gf.base.orbits()[0].members == (0, 1)

    def test_fixed_pair_is_not_genuine(self):
        gf = trivial_gforest([corolla(2), corolla(2)], Z2)
        assert not is_genuine(gf)

    def test_genuine_forests_have_isomorphic_components(self):
        for g in enumerate_gtrees(TRIV, 3)[:6]:
            gf = diagram_from_gtree(g, Z2, (0,))
            assert is_genuine(gf)
            comps = gf.trees.values()
            assert all(are_isomorphic(a, b)
                       for a in comps for b in comps)


class TestForestHom:
    def test_trivial_group_single_tree_matches_plain_homs(self):
        pairs = [(corolla(2), corolla(3), 0),
                 (single_edge("r"), corolla(2), 3),
                 (linear_tree(2), corolla(2), 3),
                 (corolla(2), corolla(2), 2)]
        for s, t, expect in pairs:
            fs = trivial_gforest([s], TRIV)
            ft = trivial_gforest([t], TRIV)
            homs = forest_hom(fs, ft)
            assert len(homs) == len(hom_set(s, t)) == expect

    def test_self_hom_contains_identity(self):
        gf = trivial_gforest([corolla(2)], TRIV)
        homs = forest_hom(gf, gf)
        assert list(homs).count(identity_forest_map(gf)) == 1

    def test_swap_pair_matches_brute_force(self):
        src = swap_gforest(single_edge("e"))
        dst = swap_gforest(corolla(2))
        fast = set(forest_hom(src, dst))
        slow = set(self._brute_force(src, dst))
        assert fast == slow
        assert len(fast) == 6

    def test_swap_self_hom(self):
        gf = swap_gforest(corolla(2))
        homs = forest_hom(gf, gf)
        assert len(homs) == 4
        assert list(homs).count(identity_forest_map(gf)) == 1

    @pytest.mark.parametrize("group, max_edges",
                             [(Z2, 3), (Z4, 2), (S3, 2)],
                             ids=["z2", "z4", "s3"])
    def test_small_corpus_matches_brute_force(self, group, max_edges):
        objs = list(enumerate_genuine_diagrams(group, max_edges))
        objs += [trivial_gforest(pair, group) for pair in
                 [(single_edge("r"), corolla(2)),
                  (linear_tree(2), linear_tree(2))]]
        total = 0
        for src, dst in itertools.product(objs, repeat=2):
            fast = forest_hom(src, dst)
            assert len(set(fast)) == len(fast)
            assert set(fast) == set(self._brute_force(src, dst))
            total += len(fast)
        assert total > 0

    @staticmethod
    def _brute_force(src, dst):
        """Every index map with every choice of component maps that
        commutes with both actions.  An index map that does not commute
        with the index actions is skipped: the full check compares the
        index of every (index, edge) pair, so it fails on such a map."""
        out = []
        ixs, jxs = src.base.elements, dst.base.elements
        pools = {(i, j): hom_set(src.trees[i], dst.trees[j])
                 for i in ixs for j in jxs}
        for images in itertools.product(jxs, repeat=len(ixs)):
            idx = dict(zip(ixs, images))
            if any(idx[src.base.act(g, i)] != dst.base.act(g, idx[i])
                   for g in src.group.elements for i in ixs):
                continue
            for combo in itertools.product(*(pools[(i, idx[i])]
                                             for i in ixs)):
                fm = ForestMorphism(src, dst, idx, dict(zip(ixs, combo)))
                if is_equivariant_forest_morphism(fm):
                    out.append(fm)
        return out

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_sampled_composites_stay_equivariant(self, data):
        objs = [swap_gforest(t) for t in
                (single_edge("e"), corolla(2), linear_tree(2))]
        a = data.draw(st.sampled_from(objs))
        b = data.draw(st.sampled_from(objs))
        c = data.draw(st.sampled_from(objs))
        fst = forest_hom(a, b)
        snd = forest_hom(b, c)
        if not fst or not snd:
            return
        f = data.draw(st.sampled_from(fst))
        g = data.draw(st.sampled_from(snd))
        comp = compose_forest_maps(f, g)
        assert is_equivariant_forest_morphism(comp)
        assert comp in set(forest_hom(a, c))


class TestCosetGroupoid:
    SHAPES = [
        (Z2, (0,), 2, 4, 1),
        (Z2, (0, 1), 1, 2, 2),
        (Z4, (0,), 4, 16, 1),
        (Z4, (0, 2), 2, 8, 2),
        (Z4, (0, 1, 2, 3), 1, 4, 4),
        (S3, (0,), 6, 36, 1),
        (S3, (0, 3, 4), 2, 12, 3),
    ]

    def test_frozen_shapes(self):
        for group, sub, objects, arrows, hom_size in self.SHAPES:
            cat = coset_groupoid(group, sub)
            assert len(cat.objects) == objects
            assert len(cat.morphisms) == arrows
            sizes = {len(cat.hom(a, b))
                     for a in cat.objects for b in cat.objects}
            assert sizes == {hom_size}

    def test_every_hom_set_has_subgroup_order(self):
        for sub in subgroups(S3):
            cat = coset_groupoid(S3, sub)
            for a in cat.objects:
                for b in cat.objects:
                    assert len(cat.hom(a, b)) == len(sub)

    def test_one_point_groupoid_is_equivalent(self):
        for group, sub in [(Z4, (0, 2)), (Z2, (0, 1))]:
            _, report = bh_to_coset_groupoid(group, sub)
            assert report.ok

    def test_all_s3_subgroups_give_equivalences(self):
        for sub in subgroups(S3):
            _, report = bh_to_coset_groupoid(S3, sub)
            assert report.ok

    def test_one_coset_gset_per_embedding(self, monkeypatch):
        calls = []

        def counted(group, sub):
            calls.append(sub)
            return coset_gset(group, sub)

        monkeypatch.setattr(forests, "coset_gset", counted)
        for sub in subgroups(S3):
            functor, report = bh_to_coset_groupoid(S3, sub)
            assert report.ok
            # the coset of the identity is named by its least member
            assert functor.ob["*"] == min(sub)
        assert len(calls) == len(subgroups(S3)) == 6


def orbit_arrow_count(group):
    """Equivariant maps between the transitive G-sets, one per subgroup
    conjugacy class: the arrows of the orbit category."""
    objs = transitive_gsets(group)
    return sum(len(equivariant_maps(a, b)) for a in objs for b in objs)


class TestOrbitCategory:
    def test_z2_shape(self):
        objs = transitive_gsets(Z2)
        assert sorted(len(o.elements) for o in objs) == [1, 2]
        assert orbit_arrow_count(Z2) == 4
        by_size = {len(o.elements): o for o in objs}
        assert len(equivariant_maps(by_size[2], by_size[1])) == 1
        assert len(equivariant_maps(by_size[1], by_size[2])) == 0

    def test_z4_shape(self):
        objs = transitive_gsets(Z4)
        assert sorted(len(o.elements) for o in objs) == [1, 2, 4]
        assert orbit_arrow_count(Z4) == 11

    def test_s3_shape(self):
        objs = transitive_gsets(S3)
        assert sorted(len(o.elements) for o in objs) == [1, 2, 3, 6]
        assert orbit_arrow_count(S3) == 18


class TestDiagramRoundTrips:
    def test_enumeration_is_frozen(self):
        assert len(z2_gtrees()) == 11

    def test_full_subgroup_round_trip(self):
        for g in z2_gtrees():
            d = diagram_from_gtree(g, Z2, (0, 1))
            assert identity_coset_gtree(d) == g

    def test_trivial_subgroup_spreads_over_cosets(self):
        g = GTree.trivial(corolla(2), TRIV)
        d = diagram_from_gtree(g, Z2, (0,))
        assert sorted(d.trees) == [0, 1]
        assert d.trees[0] == d.trees[1] == corolla(2)
        back = identity_coset_gtree(d)
        assert back.tree == corolla(2)
        assert back.group.order == 1

    def test_wrong_subgroup_for_tree_action_rejected(self):
        from dendron import NotEquivariant
        with pytest.raises(NotEquivariant):
            diagram_from_gtree(z2_gtrees()[0], Z2, (0,))

    def test_assembled_trivial_subgroup_forest_is_genuine(self):
        gf = trivial_sub_diagrams()[1]
        assert len(gf.trees) == 2
        assert is_genuine(gf)


class TestCosetDiagramValidation:
    """Two copies of corolla(2) over the cosets of the trivial subgroup of
    Z/2, with translations bent one at a time."""

    BASE = coset_gset(Z2, (0,))
    T = corolla(2)
    SWAP = {"r": "r", "l0": "l1", "l1": "l0"}

    def isos(self, bent=None):
        out = {(x, c): ident_edges(self.T) for x in range(2) for c in range(2)}
        out.update(bent or {})
        return out

    def test_straight_translations_are_accepted(self):
        d = GForest(self.BASE, {0: self.T, 1: self.T}, self.isos())
        assert d.base.elements == (0, 1) and d.base.act(1, 0) == 1

    def test_missing_coset_tree_rejected(self):
        with pytest.raises(ForestError):
            GForest(self.BASE, {0: self.T}, self.isos())

    def test_translation_must_be_a_tree_isomorphism(self):
        folded = {"r": "r", "l0": "l0", "l1": "l0"}
        with pytest.raises(ComponentIsoInvalid):
            GForest(self.BASE, {0: self.T, 1: self.T},
                    self.isos({(1, 0): folded}))

    def test_identity_translation_must_be_trivial(self):
        with pytest.raises(ActionNotFunctorial):
            GForest(self.BASE, {0: self.T, 1: self.T},
                    self.isos({(0, 0): self.SWAP}))

    def test_translations_must_compose_like_the_group(self):
        with pytest.raises(ActionNotFunctorial):
            GForest(self.BASE, {0: self.T, 1: self.T},
                    self.isos({(1, 0): self.SWAP}))

    def test_components_must_commute_with_translations(self):
        d = GForest(self.BASE, {0: self.T, 1: self.T}, self.isos())
        swap = next(f for f in hom_set(self.T, self.T)
                    if f.mapping == self.SWAP)
        assert DiagramMorphism(d, d, {0: swap, 1: swap}).components
        with pytest.raises(ForestError):
            DiagramMorphism(d, d, {0: identity(self.T), 1: swap})


class TestDiagramHom:
    def test_full_subgroup_matches_equivariant_homs(self):
        ds = full_sub_diagrams()
        gs = z2_gtrees()[:6]
        for (da, ga), (db, gb) in itertools.product(zip(ds, gs), repeat=2):
            assert len(diagram_hom(da, db)) == len(equivariant_hom(ga, gb))

    def test_trivial_subgroup_matches_plain_homs(self):
        ds = trivial_sub_diagrams()
        trees = [single_edge("r"), corolla(2), linear_tree(2)]
        for (da, ta), (db, tb) in itertools.product(zip(ds, trees), repeat=2):
            assert len(diagram_hom(da, db)) == len(hom_set(ta, tb))

    @pytest.mark.parametrize("group", [Z4, S3], ids=["z4", "s3"])
    def test_matches_brute_force_up_to_three_edges(self, group):
        ds = enumerate_genuine_diagrams(group, 3)
        total = 0
        for src, dst in itertools.product(ds, repeat=2):
            if src.base != dst.base:
                continue
            fast = diagram_hom(src, dst)
            assert len(set(fast)) == len(fast)
            assert set(fast) == set(self._brute_force(src, dst))
            total += len(fast)
        assert total > 0

    @staticmethod
    def _brute_force(src, dst):
        """Every choice of one hom_set map per coset that DiagramMorphism
        accepts.  Cosets are chosen in turn, and a partial choice is
        dropped as soon as two chosen components fail the translation
        between their cosets, which no later choice can mend."""
        def natural(comps, x, c):
            d = src.base.act(x, c)
            if d not in comps:
                return True
            up, over = src.isos[(x, c)], dst.isos[(x, c)]
            return all(comps[d].mapping[up[e]] == over[v]
                       for e, v in comps[c].mapping.items())

        partial = [{}]
        for c in src.base.elements:
            grown = []
            for comps in partial:
                for f in hom_set(src.trees[c], dst.trees[c]):
                    new = {**comps, c: f}
                    if all(natural(new, x, d) for x in src.group.elements
                           for d in new if c in (d, src.base.act(x, d))):
                        grown.append(new)
            partial = grown
        out = []
        for comps in partial:
            try:
                out.append(DiagramMorphism(src, dst, comps))
            except ForestError:
                pass
        return out

    def test_identity_and_composition(self):
        ds = trivial_sub_diagrams()
        for d in ds:
            assert identity_diagram_map(d) in set(diagram_hom(d, d))
        fst = diagram_hom(ds[0], ds[1])
        snd = diagram_hom(ds[1], ds[2])
        allowed = set(diagram_hom(ds[0], ds[2]))
        for f in fst:
            for g in snd:
                comps = {c: compose(f.components[c], g.components[c])
                         for c in f.components}
                assert DiagramMorphism(ds[0], ds[2], comps) in allowed


class TestRetractive:
    BASE = coset_gset(Z2, (0,))

    def carrier(self):
        elems = ["p0", "p1", "a0", "a1"]
        rows = {0: {x: x for x in elems},
                1: {"p0": "p1", "p1": "p0", "a0": "a1", "a1": "a0"}}
        return GSet(Z2, elems, rows)

    def test_fibers_and_labels(self):
        ret = RetractiveGSet(self.BASE, self.carrier(), {0: "p0", 1: "p1"},
                             {"p0": 0, "p1": 1, "a0": 0, "a1": 1})
        assert sorted(ret.labels) == ["a0", "a1"]
        assert sorted(ret.fiber(0)) == ["a0"]
        fib = identity_coset_fiber(ret)
        assert set(fib.elements) == {"a0"}

    def test_labels_and_fibers_are_built_once(self):
        """On a pullback, the stored labels and fibers are what the carrier,
        section and retraction give, computed from scratch."""
        assert "labels" in RetractiveGSet.__slots__
        x = self_labeled_genuine(diagram_from_gtree(z2_gtrees()[4], Z2,
                                                    (0, 1)))
        half = coset_gset(Z2, (0,))
        q = equivariant_maps(half, x.labels.base)[0]
        ret = q_star_retractive(q, half, x.labels)
        assert ret is not x.labels
        pts = set(ret.section.values())
        labels = tuple(a for a in ret.carrier.elements if a not in pts)
        assert ret.labels == labels and len(labels) == 2
        for c in ret.base.elements:
            assert ret.fiber(c) == tuple(a for a in labels
                                         if ret.retraction[a] == c)
            assert len(ret.fiber(c)) == 1

    def test_retraction_must_split_the_section(self):
        with pytest.raises(ForestError):
            RetractiveGSet(self.BASE, self.carrier(), {0: "a0", 1: "p1"},
                           {"p0": 0, "p1": 1, "a0": 1, "a1": 0})

    def test_identity_map_and_enumeration(self):
        ret = RetractiveGSet(self.BASE, self.carrier(), {0: "p0", 1: "p1"},
                             {"p0": 0, "p1": 1, "a0": 0, "a1": 1})
        ide = identity_retractive_map(ret)
        maps = enumerate_retractive_maps(ret, ret)
        assert ide in set(maps)
        pm = fiber_pointed_map(ide, 0)
        assert pm.mapping == {"a0": "a0"}


class TestGenuineTrees:
    def x_and_y(self):
        gts = z2_gtrees()
        x = self_labeled_genuine(diagram_from_gtree(gts[4], Z2, (0, 1)))
        y = self_labeled_genuine(diagram_from_gtree(gts[2], Z2, (0, 1)))
        return x, y

    def test_self_labeling_marks_the_leaves(self):
        x, _ = self.x_and_y()
        assert sorted(x.labels.labels) == [("leaf", 0, ("graft", 1, (0, 0)))]
        for lab in x.labels.labels:
            assert x.diagram.trees[lab[1]].is_leaf(x.leaf_map[lab])

    def test_identity_substitution_grows_graft_collars(self):
        x, _ = self.x_and_y()
        out = phi_star_genuine(identity_retractive_map(x.labels), x)
        assert {c: len(t.edges) for c, t in out.diagram.trees.items()} == {0: 5}
        assert {c: len(t.edges) for c, t in x.diagram.trees.items()} == {0: 3}

    def test_components_are_the_labeled_cosets(self):
        x, _ = self.x_and_y()
        assert x.components == {0: fiber_labeled(x)}

    @staticmethod
    def two_leaves_per_coset():
        """corolla(2) over both cosets of the trivial subgroup of Z/2,
        labeled by its own leaves."""
        return self_labeled_genuine(trivial_sub_diagrams()[1])

    def test_a_missed_leaf_is_rejected(self):
        x = self.two_leaves_per_coset()
        t = x.diagram.trees[0]
        second = max(t.leaves)
        # the translations are identities on edge names, so sending the
        # second leaf's labels to the root at every coset stays equivariant
        bent = {a: t.root if e == second else e
                for a, e in x.leaf_map.items()}
        with pytest.raises(LabelError):
            GenuineTree(x.labels, x.diagram, bent)

    def test_two_labels_on_one_leaf_are_rejected(self):
        x = self.two_leaves_per_coset()
        first = min(x.diagram.trees[0].leaves)
        with pytest.raises(LabelError):
            GenuineTree(x.labels, x.diagram,
                        {a: first for a in x.leaf_map})

    def test_substitution_agrees_with_componentwise_plain_version(self):
        x, y = self.x_and_y()
        maps = enumerate_retractive_maps(y.labels, x.labels)
        assert len(maps) == 2
        for rm in maps:
            out = phi_star_genuine(rm, x)
            plain = phi_star(fiber_pointed_map(rm, 0), fiber_labeled(x))
            assert out.diagram.trees[0] == plain.tree
            assert all(out.leaf_map[b] == plain.labels[b]
                       for b in rm.src.fiber(0))


class TestGenuineHom:
    def test_frozen_count(self):
        gts = z2_gtrees()
        x = self_labeled_genuine(diagram_from_gtree(gts[4], Z2, (0, 1)))
        y = self_labeled_genuine(diagram_from_gtree(gts[2], Z2, (0, 1)))
        assert len(genuine_hom(x, y)) == 4

    def test_full_subgroup_fiber_restriction_is_a_bijection(self):
        xs = [self_labeled_genuine(diagram_from_gtree(g, Z2, (0, 1)))
              for g in z2_gtrees()[:5]]
        for a in xs:
            for b in xs:
                c0 = min(a.diagram.base.elements)
                restricted = {(fiber_pointed_map(gm.phi, c0),
                               gm.fiber.components[c0])
                              for gm in genuine_hom(a, b)}
                target = {(g.phi, g.fiber)
                          for g in groth_hom_G(fiber_glabeled(a),
                                               fiber_glabeled(b))}
                assert restricted == target

    @pytest.mark.parametrize("group, max_edges", [(Z2, 3), (Z3, 3), (S3, 2)],
                             ids=["z2", "z3", "s3"])
    def test_matches_filtered_diagram_homs(self, group, max_edges):
        xs = [self_labeled_genuine(d)
              for d in enumerate_genuine_diagrams(group, max_edges)]
        total = 0
        for src, dst in itertools.product(xs, repeat=2):
            if src.labels.base != dst.labels.base:
                continue
            fast = genuine_hom(src, dst)
            assert fast == self._brute_force(src, dst)
            total += len(fast)
        assert total > 0

    @staticmethod
    def _brute_force(src, dst):
        """Every transformation out of each substituted source, rebuilt
        through the validating constructor, kept when it sends roots to
        roots and each label's leaf to its leaf."""
        out = []
        for phi in enumerate_retractive_maps(dst.labels, src.labels):
            sub = phi_star_genuine(phi, src)
            for f in diagram_hom(sub.diagram, dst.diagram):
                f = DiagramMorphism(f.src, f.dst, f.components)
                roots = all(f.components[c].mapping[t.root]
                            == dst.diagram.trees[c].root
                            for c, t in sub.diagram.trees.items())
                leaves = all(f.components[dst.labels.retraction[b]]
                             .mapping[sub.leaf_map[b]] == dst.leaf_map[b]
                             for b in dst.labels.labels)
                if roots and leaves:
                    out.append(GenuineMorphism(phi, f, src, dst))
        return tuple(out)

    def test_trivial_subgroup_fiber_restriction_is_a_bijection(self):
        xs = [self_labeled_genuine(d) for d in trivial_sub_diagrams()]
        for a in xs:
            for b in xs:
                restricted = {(fiber_pointed_map(gm.phi, 0),
                               gm.fiber.components[0])
                              for gm in genuine_hom(a, b)}
                target = {(g.phi, g.fiber)
                          for g in groth_hom(fiber_labeled(a),
                                             fiber_labeled(b))}
                assert restricted == target


class TestEta:
    def test_forgetting_labels_is_bijective_full_subgroup(self):
        xs = [self_labeled_genuine(diagram_from_gtree(g, Z2, (0, 1)))
              for g in z2_gtrees()[:4]]
        for a in xs:
            for b in xs:
                gms = genuine_hom(a, b)
                images = {eta_morphism(gm) for gm in gms}
                assert len(images) == len(gms)
                assert images == set(diagram_hom(a.diagram, b.diagram))

    def test_forgetting_labels_is_bijective_trivial_subgroup(self):
        xs = [self_labeled_genuine(d) for d in trivial_sub_diagrams()]
        for a in xs:
            for b in xs:
                gms = genuine_hom(a, b)
                images = {eta_morphism(gm) for gm in gms}
                assert len(images) == len(gms)
                assert images == set(diagram_hom(a.diagram, b.diagram))


class TestOrbitPullbacks:
    def fixtures(self):
        gts = z2_gtrees()
        d = diagram_from_gtree(gts[4], Z2, (0, 1))
        x = self_labeled_genuine(d)
        y = self_labeled_genuine(diagram_from_gtree(gts[2], Z2, (0, 1)))
        ge = coset_gset(Z2, (0,))
        gg = coset_gset(Z2, (0, 1))
        return d, x, y, ge, gg

    def test_the_unique_collapse_map(self):
        _, _, _, ge, gg = self.fixtures()
        assert equivariant_maps(ge, gg) == ({0: 0, 1: 0},)

    def test_identity_pullback_is_the_same_object(self):
        d, x, _, _, gg = self.fixtures()
        idq = {c: c for c in gg.elements}
        assert q_star_diagram(idq, gg, d) is d
        assert q_star_genuine(idq, gg, x) is x

    def test_pulled_components_copy_the_original_tree(self):
        d, x, _, ge, gg = self.fixtures()
        q = equivariant_maps(ge, gg)[0]
        xq = q_star_genuine(q, ge, x)
        assert sorted(xq.diagram.trees) == [0, 1]
        assert all(t == d.trees[0] for t in xq.diagram.trees.values())
        assert all(lab[0] in (0, 1) for lab in xq.labels.labels)

    def test_pulled_morphisms_fill_the_pulled_hom(self):
        _, x, y, ge, gg = self.fixtures()
        q = equivariant_maps(ge, gg)[0]
        gms = genuine_hom(x, y)
        xq = q_star_genuine(q, ge, x)
        yq = q_star_genuine(q, ge, y)
        pulled = {q_star_genuine_morphism(q, ge, gm) for gm in gms}
        for gm in pulled:
            assert gm.src == xq and gm.dst == yq
        full = set(genuine_hom(xq, yq))
        assert pulled <= full
        assert len(pulled) == len(gms) == 4

    def test_forgetting_labels_commutes_with_pullback(self):
        _, x, y, ge, gg = self.fixtures()
        q = equivariant_maps(ge, gg)[0]
        for gm in genuine_hom(x, y):
            left = eta_morphism(q_star_genuine_morphism(q, ge, gm))
            right = q_star_diagram_morphism(q, ge, eta_morphism(gm))
            assert left == right

    def test_composite_pullbacks_differ_by_a_recorded_iso(self):
        _, x, _, ge, gg = self.fixtures()
        p = equivariant_maps(ge, gg)[0]
        ide = {c: c for c in ge.elements}
        swap = [m for m in equivariant_maps(ge, ge) if m != ide][0]
        for q in (ide, swap):
            once, twice, iso = q_star_compare(p, q, ge, ge, x.labels)
            assert set(iso) == set(once.carrier.elements)
            assert set(iso.values()) == set(twice.carrier.elements)


class TestEquivalenceReports:
    def test_trivial_group(self):
        report = genuine_equivalence_check(TRIV, max_edges=3)
        assert report["ok"]
        assert report["objects"] == 9
        assert report["pairs"] == 81
        assert (report["forest_homs"] == report["pair_homs"]
                == report["triple_homs"] == 158)
        assert report["mismatches"] == []

    def test_z2_small(self):
        report = genuine_equivalence_check(Z2, max_edges=2)
        assert report["ok"]
        assert report["objects"] == 8
        assert (report["forest_homs"] == report["pair_homs"]
                == report["triple_homs"] == 84)

    def test_z2_three_edges(self):
        report = genuine_equivalence_check(Z2, max_edges=3)
        assert report["ok"]
        assert report["objects"] == 20
        assert (report["forest_homs"] == report["pair_homs"]
                == report["triple_homs"] == 694)

    def test_hom_set_calls_stay_bounded(self, monkeypatch):
        # the count when forest_hom took only stabilizer-fixed targets
        calls = []

        def counted(src, dst):
            calls.append((src, dst))
            return hom_set(src, dst)

        monkeypatch.setenv("DENDRON_WORKERS", "1")
        monkeypatch.setattr(forests, "hom_set", counted)
        report = genuine_equivalence_check(Z2, max_edges=3)
        assert report["ok"] and report["forest_homs"] == 694
        assert len(calls) <= 1350

    def test_enumeration_is_deterministic(self):
        assert (enumerate_genuine_diagrams(Z2, 3)
                == enumerate_genuine_diagrams(Z2, 3))
        assert len(enumerate_genuine_diagrams(Z2, 3)) == 20
        assert len(enumerate_genuine_diagrams(Z3, 3)) == 18


def isomorphic_pairs(diagrams):
    """Index pairs i < j of diagrams that are isomorphic G-forests: some
    map between them has a bijective index map and every component an
    isomorphism.  Pairs whose component shapes differ cannot be, and are
    not searched."""
    def shapes(d):
        return sorted(canonical_form(t) for t in d.trees.values())
    return [(i, j) for (i, a), (j, b)
            in itertools.combinations(enumerate(diagrams), 2)
            if shapes(a) == shapes(b) and any(
                set(fm.index_map.values()) == set(b.trees)
                and all(f.is_isomorphism() for f in fm.components.values())
                for fm in forest_hom(a, b))]


class TestGenuineCorpusIsIrredundant:
    """No two objects of the genuine corpus are isomorphic, so each class
    is checked once."""

    @pytest.mark.parametrize("group, max_edges, objects", [
        (Z2, 3, 20), (Z3, 3, 18), (Z4, 3, 31), (S3, 3, 40), (Z2, 4, 52)],
        ids=["z2", "z3", "z4", "s3", "z2-4"])
    def test_no_two_diagrams_are_isomorphic(self, group, max_edges, objects):
        diagrams = enumerate_genuine_diagrams(group, max_edges)
        assert len(diagrams) == objects
        assert isomorphic_pairs(diagrams) == []

    def test_a_repeated_diagram_is_found(self):
        diagrams = list(enumerate_genuine_diagrams(Z2, 3))
        assert isomorphic_pairs(diagrams + [diagrams[5]]) == [(5, 20)]


def forest_roundtrip(gforest, group_ref=None):
    text = json.dumps(gforest_to_json(gforest, group_ref=group_ref))
    return gforest_from_json(json.loads(text))


class TestForestJson:
    def test_string_named_round_trip_is_exact(self):
        d = diagram_from_gtree(GTree.trivial(corolla(2), TRIV), Z2, (0,))
        gf = d
        assert forest_roundtrip(gf, group_ref="z2") == gf
        assert sorted(gforest_to_json(gf)) == [
            "action", "components", "group", "isos"]

    def test_generated_names_round_trip_up_to_renaming(self):
        gf = diagram_from_gtree(z2_gtrees()[4], Z2, (0, 1))
        back = forest_roundtrip(gf, group_ref="z2")
        assert len(back.trees) == len(gf.trees)
        assert all(are_isomorphic(back.trees[i], gf.trees[i])
                   for i in gf.trees)
        assert back.base == gf.base

    def test_inline_group_round_trip(self):
        gf = swap_gforest(corolla(2))
        back = forest_roundtrip(gf)
        assert back == gf
