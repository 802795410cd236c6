import functools
import itertools
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from dendron.cli import _labeled_gtrees
from dendron import (
    PLUS, Tree, TreeError, NotInnerEdge, corolla, single_edge, relabel,
    all_isomorphisms, hom_set, hom_labeled, compose, contract_edge,
    factorize, identity, TreeMorphism, PointedMap, compose_pointed,
    tau_id, tau_comp, phi_star, phi_star_mor, GrothTreeMorphism, F_functor,
    NotEquivariant, SiteInvalid, RootGraftLeafNotFixed, GTree, GLabeledTree,
    is_equivariant_morphism, equivariant_hom, equivariant_isomorphisms,
    are_equivariant_isomorphic, equivariant_contract_orbit,
    equivariant_split_orbit, equivariant_graft_orbit, equivariant_factorize,
    EquivariantPointedMap, enumerate_equivariant_pointed_maps, phi_star_G,
    groth_hom_G, lift_G, equivariant_canonical_key, enumerate_gtrees,
    gset_pointed_category, corolla_glabeled, standard_probes,
    gtree_oplax_data, z4_orbit_contraction_sample,
    cyclic_group, trivial_group, symmetric_group_3, coset_gset,
    skeletal_gsets, GSet,
    enumerate_all_trees, builtin_group,
    FcMor, FiniteCategory, check_all_coherence, check_coherence_square,
    check_oplax_units,
)

SAMPLE = z4_orbit_contraction_sample()
Z2 = cyclic_group(2)
Z4 = SAMPLE.group


def two_corollas():
    t = Tree(["r", "m1", "m2", "a", "b", "c"], "r",
             [("r", ["m1", "m2"]), ("m1", ["a"]), ("m2", ["b", "c"])])
    return t


S3 = symmetric_group_3()
# symmetric_group_3 lists the permutations of 0, 1, 2 in this order; element
# 1 swaps the points 1 and 2, element 2 swaps the points 0 and 1
PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def s3_rows(tree):
    """S3 permuting the edges p0, p1, p2 as points and fixing the rest."""
    return {g: {e: (f"p{p[int(e[1])]}" if e[0] == "p" else e)
                for e in tree.edges}
            for g, p in enumerate(PERMS)}


class TestSecondGenerator:
    """Failures that only the second generator of S3 exposes: the first
    generator's row is fine in each."""

    def test_generators(self):
        assert S3.generators == (1, 2)

    def test_row_of_element_two_moves_the_root(self):
        t = Tree(["p0", "p1", "p2"], "p0", [("p0", ["p1", "p2"])])
        with pytest.raises(NotEquivariant, match="root"):
            GTree(t, S3, s3_rows(t))

    def test_row_of_element_two_tears_a_vertex(self):
        t = Tree(["r", "p0", "q", "p1", "p2"], "r",
                 [("r", ["p0", "q"]), ("q", ["p1", "p2"])])
        with pytest.raises(NotEquivariant, match="vertex"):
            GTree(t, S3, s3_rows(t))

    def test_map_commuting_with_element_one_only(self):
        t = Tree(["r", "p0", "p1", "p2"], "r", [("r", ["p0", "p1", "p2"])])
        gt = GTree(t, S3, s3_rows(t))
        swap = {"r": "r", "p0": "p0", "p1": "p2", "p2": "p1"}
        f = TreeMorphism(t, t, swap)
        assert all(swap[gt.act(1, e)] == gt.act(1, v)
                   for e, v in swap.items())
        assert not is_equivariant_morphism(gt, gt, f)
        assert f not in equivariant_hom(gt, gt)
        points = GSet(S3, (0, 1, 2), {g: dict(enumerate(p))
                                       for g, p in enumerate(PERMS)})
        with pytest.raises(NotEquivariant):
            EquivariantPointedMap(points, points, {0: 0, 1: 2, 2: 1})


class TestGTreeValidation:
    def test_row_tears_vertex(self):
        t = two_corollas()
        row = {"r": "r", "m1": "m2", "m2": "m1", "a": "b", "b": "a", "c": "c"}
        with pytest.raises(NotEquivariant):
            GTree(t, Z2, {0: {e: e for e in t.edges}, 1: row})

    def test_root_must_be_fixed(self):
        t = Tree(["r", "m", "l"], "r", [("r", ["m"]), ("m", ["l"])])
        row = {"r": "m", "m": "r", "l": "l"}
        with pytest.raises(NotEquivariant):
            GTree(t, Z2, {0: {e: e for e in t.edges}, 1: row})

    def test_identity_row_must_be_trivial(self):
        t = corolla(2)
        swap = {t.root: t.root, "l0": "l1", "l1": "l0"}
        with pytest.raises(NotEquivariant):
            GTree(t, Z2, {0: swap, 1: swap})

    def test_rows_must_compose(self):
        t = corolla(2)
        ident = {e: e for e in t.edges}
        swap = {t.root: t.root, "l0": "l1", "l1": "l0"}
        g4 = cyclic_group(4)
        with pytest.raises(NotEquivariant):
            GTree(t, g4, {0: ident, 1: swap, 2: swap, 3: ident})

    def test_generator_closure(self):
        t = corolla(2)
        swap = {t.root: t.root, "l0": "l1", "l1": "l0"}
        a = GTree.from_generator_rows(t, Z2, {1: swap})
        assert a == GTree(t, Z2, {0: {e: e for e in t.edges}, 1: swap})

    def test_generators_must_generate(self):
        t = corolla(2)
        ident = {e: e for e in t.edges}
        with pytest.raises(NotEquivariant):
            GTree.from_generator_rows(t, cyclic_group(4), {2: ident})

    def test_orbit_and_stabilizer(self):
        big = SAMPLE.big.gtree
        assert big.edge_orbit("c") == ("-c", "-ic", "c", "ic")
        assert big.edge_stabilizer("c") == (0,)
        assert big.edge_stabilizer("b") == (0, 1, 2, 3)
        assert big.edge_orbit("a") == ("a", "ia")
        assert set(big.edge_stabilizer("a")) == {0, 2}


class TestWorkedSample:
    def test_edge_counts(self):
        assert len(SAMPLE.big.gtree.tree.edges) == 11
        assert len(SAMPLE.mid.gtree.tree.edges) == 9
        assert len(SAMPLE.small.gtree.tree.edges) == 8

    def test_edge_orbits(self):
        assert SAMPLE.big.gtree.edge_orbits() == (
            ("-c", "-ic", "c", "ic"), ("a", "ia"), ("b",),
            ("d", "id"), ("e",), ("r",))
        assert SAMPLE.small.gtree.edge_orbits() == (
            ("-c", "-ic", "c", "ic"), ("a", "ia"), ("e",), ("r",))

    def test_label_orbits(self):
        orbs = {o.members: len(o.stabilizer)
                for o in SAMPLE.label_gset.orbits()}
        assert orbs == {("-iy", "-y", "iy", "y"): 1, ("ix", "x"): 2}

    def test_labeling_is_equivariant(self):
        lab = SAMPLE.big.labeled.labels
        assert lab["x"] == "a" and lab["y"] == "c" and lab["-iy"] == "-ic"
        for g in Z4.elements:
            for a in SAMPLE.label_gset.elements:
                assert lab[SAMPLE.label_gset.act(g, a)] \
                    == SAMPLE.big.gtree.act(g, lab[a])

    def test_automorphisms(self):
        plain = list(all_isomorphisms(SAMPLE.big.gtree.tree,
                                      SAMPLE.big.gtree.tree))
        eq = list(equivariant_isomorphisms(SAMPLE.big.gtree,
                                           SAMPLE.big.gtree))
        assert len(plain) == 16
        assert len(eq) == 8

    def test_single_orbit_face(self):
        fact = equivariant_factorize(SAMPLE.mid.gtree, SAMPLE.big.gtree,
                                     SAMPLE.face_d)
        assert [s.orbit for s in fact.inner_faces] == [("d", "id")]
        assert not fact.degeneracies and not fact.outer_faces
        assert fact.iso == identity(fact.iso.src)
        assert fact.composite().mapping == SAMPLE.face_d.mapping

    def test_two_orbit_face(self):
        fact = equivariant_factorize(SAMPLE.small.gtree, SAMPLE.big.gtree,
                                     SAMPLE.face)
        assert [s.orbit for s in fact.inner_faces] == [("d", "id"), ("b",)]
        assert not fact.degeneracies and not fact.outer_faces
        assert fact.iso == identity(fact.iso.src)
        assert fact.composite().mapping == SAMPLE.face.mapping

    def test_hom_counts(self):
        plain = hom_set(SAMPLE.small.gtree.tree, SAMPLE.big.gtree.tree)
        eq = equivariant_hom(SAMPLE.small.gtree, SAMPLE.big.gtree)
        assert len(plain) == 48
        assert len(eq) == 8
        assert all(any(f.mapping == p.mapping for p in plain) for f in eq)

    def test_contraction_stages_are_the_sample_trees(self):
        mid, _ = equivariant_contract_orbit(SAMPLE.big.gtree, "d")
        assert mid == SAMPLE.mid.gtree
        small, _ = equivariant_contract_orbit(mid, "b")
        assert small == SAMPLE.small.gtree

    def test_not_isomorphic_across_stages(self):
        assert not are_equivariant_isomorphic(SAMPLE.big.gtree,
                                              SAMPLE.mid.gtree)
        assert not are_equivariant_isomorphic(SAMPLE.mid.gtree,
                                              SAMPLE.small.gtree)


class TestOrbitContraction:
    def test_equals_single_faces_in_either_order(self):
        big = SAMPLE.big.gtree
        _, orbit_face = equivariant_contract_orbit(big, "d")
        for order in (("d", "id"), ("id", "d")):
            t1, m1 = contract_edge(big.tree, order[0])
            _, m2 = contract_edge(t1, order[1])
            assert compose(m2, m1).mapping == orbit_face.mapping

    def test_orbit_faces_commute(self):
        big = SAMPLE.big.gtree
        one, f1 = equivariant_contract_orbit(big, "d")
        two, f2 = equivariant_contract_orbit(one, "b")
        other, g1 = equivariant_contract_orbit(big, "b")
        final, g2 = equivariant_contract_orbit(other, "d")
        assert two == final
        assert compose(f2, f1).mapping == compose(g2, g1).mapping

    def test_rejects_leaves_and_root(self):
        with pytest.raises(NotInnerEdge):
            equivariant_contract_orbit(SAMPLE.big.gtree, "c")
        with pytest.raises(NotInnerEdge):
            equivariant_contract_orbit(SAMPLE.big.gtree, "r")


class TestOrbitSplit:
    def test_adds_one_edge_per_orbit_member(self):
        bigger, degen = equivariant_split_orbit(SAMPLE.big.gtree, "c")
        assert len(bigger.tree.edges) == 15
        fresh = set(bigger.tree.edges) - set(SAMPLE.big.gtree.tree.edges)
        assert fresh == {("split", e) for e in ("c", "-c", "ic", "-ic")}
        fact = factorize(degen)
        assert len(fact.degeneracies) == 4
        assert not fact.inner_faces and not fact.outer_faces

    def test_contracting_back_is_isomorphic(self):
        bigger, degen = equivariant_split_orbit(SAMPLE.big.gtree, "c")
        back, face = equivariant_contract_orbit(bigger, "c")
        assert are_equivariant_isomorphic(back, SAMPLE.big.gtree)
        assert compose(face, degen).is_isomorphism()

    def test_missing_edge(self):
        with pytest.raises(TreeError):
            equivariant_split_orbit(SAMPLE.big.gtree, "zz")

    def test_inner_orbit_split(self):
        bigger, _ = equivariant_split_orbit(SAMPLE.big.gtree, "d")
        assert len(bigger.tree.edges) == 13
        assert bigger.edge_orbit(("split", "d")) \
            == (("split", "d"), ("split", "id"))


class TestOrbitGraft:
    def setup_method(self):
        self.base = GTree.trivial(single_edge("r"), Z4)
        self.two = coset_gset(Z4, (0, 2))

    def test_fixed_site_default_attach(self):
        grown, inc = equivariant_graft_orbit(self.base, "r", self.two)
        assert len(grown.tree.edges) == 3
        assert grown.edge_orbits() == (
            ("r",), (("graft", 0, 0), ("graft", 0, 1)))
        assert all(k == v for k, v in inc.mapping.items())
        TreeMorphism(inc.src, inc.dst, inc.mapping)

    def test_moving_site_needs_attach(self):
        grown, _ = equivariant_graft_orbit(self.base, "r", self.two)
        leaf = ("graft", 0, 0)
        with pytest.raises(SiteInvalid):
            equivariant_graft_orbit(grown, leaf, coset_gset(Z4, (0, 1, 2, 3)))

    def test_stumps_over_moving_orbit(self):
        grown, _ = equivariant_graft_orbit(self.base, "r", self.two)
        empty = GSet(Z4, [], {g: {} for g in Z4.elements})
        capped, inc = equivariant_graft_orbit(grown, ("graft", 0, 0), empty,
                                              attach={})
        assert len(capped.tree.edges) == 3
        assert len(capped.tree.vertices) == 3

    def test_translation_attach_over_moving_orbit(self):
        grown, _ = equivariant_graft_orbit(self.base, "r", self.two)
        reg = coset_gset(Z4, (0,))
        leaf = ("graft", 0, 0)
        att = {x: grown.act(x, leaf) for x in reg.elements}
        big2, _ = equivariant_graft_orbit(grown, leaf, reg, attach=att)
        assert len(big2.tree.edges) == 7
        assert len(big2.edge_orbit(("graft", 1, 0))) == 4

    def test_non_equivariant_attach(self):
        grown, _ = equivariant_graft_orbit(self.base, "r", self.two)
        reg = coset_gset(Z4, (0,))
        leaf = ("graft", 0, 0)
        att = {x: grown.act(x, leaf) for x in reg.elements}
        att[1], att[2] = att[2], att[1]
        with pytest.raises(NotEquivariant):
            equivariant_graft_orbit(grown, leaf, reg, attach=att)

    def test_root_graft_needs_fixed_merge_leaf(self):
        free = coset_gset(Z4, (0,))
        with pytest.raises(RootGraftLeafNotFixed):
            equivariant_graft_orbit(SAMPLE.big.gtree, "r", free,
                                    merge=free.elements[0])

    def test_root_graft(self):
        cor = coset_gset(Z4, (0, 1, 2, 3))
        rooted, inc = equivariant_graft_orbit(SAMPLE.big.gtree, "r", cor,
                                              merge=cor.elements[0])
        assert len(rooted.tree.edges) == 12
        assert rooted.tree.root == ("graft", 0, "root")
        assert not rooted.tree.is_leaf("r")
        assert all(k == v for k, v in inc.mapping.items())

    def test_inner_site_rejected(self):
        cor = coset_gset(Z4, (0, 1, 2, 3))
        with pytest.raises(SiteInvalid):
            equivariant_graft_orbit(SAMPLE.big.gtree, "b", cor)


# builtin group: (max_edges, (trees, plain maps, equivariant maps))
CORPORA = {"z2": (3, (11, 219, 173)),
           "z3": (4, (24, 1523, 1322)),
           "z4": (5, (94, 31647, 15613)),
           "s3": (4, (32, 2463, 1504))}


@functools.lru_cache(maxsize=None)
def corpus_maps(group):
    """A builtin group's G-trees at its CORPORA bound, and every plain map
    between two of them as (src, dst, map, is it equivariant)."""
    corpus = enumerate_gtrees(builtin_group(group), CORPORA[group][0])
    maps = [(a, b, f, is_equivariant_morphism(a, b, f))
            for a, b in itertools.product(corpus, repeat=2)
            for f in hom_set(a.tree, b.tree)]
    return corpus, maps


class TestEquivarianceFilter:
    def test_hom_is_the_equivariant_subset(self):
        plain = hom_set(SAMPLE.small.gtree.tree, SAMPLE.big.gtree.tree)
        eq = equivariant_hom(SAMPLE.small.gtree, SAMPLE.big.gtree)
        flags = [is_equivariant_morphism(SAMPLE.small.gtree,
                                         SAMPLE.big.gtree, f)
                 for f in plain]
        assert sum(flags) == len(eq) == 8

    def test_factorize_rejects_non_equivariant(self):
        plain = hom_set(SAMPLE.small.gtree.tree, SAMPLE.big.gtree.tree)
        bad = next(f for f in plain
                   if not is_equivariant_morphism(SAMPLE.small.gtree,
                                                  SAMPLE.big.gtree, f))
        with pytest.raises(NotEquivariant):
            equivariant_factorize(SAMPLE.small.gtree, SAMPLE.big.gtree, bad)

    @pytest.mark.parametrize("group", CORPORA)
    def test_replay_matches_filter_on_small_corpus(self, group):
        corpus, maps = corpus_maps(group)
        replay = 0
        for a, b, f, flag in maps:
            try:
                fact = equivariant_factorize(a, b, f)
                ok = fact.composite().mapping == f.mapping
            except NotEquivariant:
                ok = False
            assert ok == flag
            replay += ok
        tot_eq = sum(flag for *_, flag in maps)
        assert (len(corpus), len(maps), tot_eq) == CORPORA[group][1]
        assert replay == tot_eq

    @pytest.mark.parametrize("group", CORPORA)
    def test_stage_morphisms_are_equivariant(self, group):
        """Each stage commutes with the actions restricted to its ends,
        built as validated GTrees: the source's rows for the degeneracies
        (and the isomorphism's source), the target's for the rest.  Each
        orbit a stage names is an orbit of its target."""
        def view(origin, tree):
            return GTree(tree, origin.group,
                         {g: {e: row[e] for e in tree.edges}
                          for g, row in origin.action.items()})

        def check(src_g, dst_g, step):
            assert is_equivariant_morphism(src_g, dst_g, step.morphism)
            assert dst_g.edge_orbit(step.orbit[0]) == step.orbit

        stages = 0
        for a, b, f, flag in corpus_maps(group)[1]:
            if not flag:
                continue
            fact = equivariant_factorize(a, b, f)
            for step in fact.degeneracies:
                check(view(a, step.morphism.src), view(a, step.morphism.dst),
                      step)
            assert is_equivariant_morphism(view(a, fact.iso.src),
                                           view(b, fact.iso.dst), fact.iso)
            for step in fact.inner_faces + fact.outer_faces:
                check(view(b, step.morphism.src), view(b, step.morphism.dst),
                      step)
            stages += len(fact.degeneracies + fact.inner_faces
                          + fact.outer_faces)
        assert stages > 0

    def test_trivial_group_gives_the_plain_normal_form(self):
        one = trivial_group()
        trees = enumerate_all_trees(4)
        for a, b in itertools.product(trees, repeat=2):
            ga, gb = GTree.trivial(a, one), GTree.trivial(b, one)
            for f in hom_set(a, b):
                plain = factorize(f)
                assert equivariant_factorize(ga, gb, f) == plain

    @pytest.mark.parametrize("group, counts", [
        ("z2", (96, 162, 92, 318)),
        ("s3", (132, 258, 140, 429)),
    ], ids=["z2", "s3"])
    def test_which_check_rejects_each_map(self, group, counts):
        """The NotEquivariant message for every plain map between trees of
        the 4-edge corpus, counted.  Dropping any of these raises moves a
        count.  The graft-site check never fires first: once the image
        root is fixed and the image leaves are stable, every grown subtree
        is stable."""
        corpus = enumerate_gtrees(builtin_group(group), 4)
        raised = Counter()
        for a, b in itertools.product(corpus, repeat=2):
            for f in hom_set(a.tree, b.tree):
                try:
                    equivariant_factorize(a, b, f)
                except NotEquivariant as err:
                    raised[str(err)] += 1
        assert raised == dict(zip(
            ["image root is not fixed", "image leaves are not a stable set",
             "contracted edges are not a stable set",
             "residual renaming does not commute"], counts))


class TestEnumeration:
    def test_strata_counts(self):
        out = enumerate_gtrees(Z2, 4)
        strata = Counter(len(t.tree.edges) for t in out)
        assert dict(strata) == {1: 2, 2: 2, 3: 7, 4: 19}
        moving = sum(1 for t in out
                     if any(t.action[g][e] != e
                            for g in Z2.elements for e in t.tree.edges))
        assert moving == 8

    def test_strata_counts_z3(self):
        out = enumerate_gtrees(cyclic_group(3), 4)
        assert len(out) == 24
        moving = sum(1 for t in out
                     if any(t.action[g][e] != e
                            for g in t.group.elements for e in t.tree.edges))
        assert moving == 2

    def test_results_pairwise_distinct(self):
        out = enumerate_gtrees(Z2, 4)
        keys = {equivariant_canonical_key(t) for t in out}
        assert len(keys) == len(out)

    def test_per_stratum_cap(self):
        capped = enumerate_gtrees(Z2, 6, per_stratum=3)
        strata = Counter(len(t.tree.edges) for t in capped)
        assert all(n <= 3 for n in strata.values())
        assert set(strata) == {1, 2, 3, 4, 5, 6}
        moving = sum(1 for t in capped
                     if any(t.action[g][e] != e
                            for g in Z2.elements for e in t.tree.edges))
        assert moving == 8

    def test_deterministic(self):
        one = enumerate_gtrees(Z2, 5, per_stratum=2)
        two = enumerate_gtrees(Z2, 5, per_stratum=2)
        assert [equivariant_canonical_key(t) for t in one] \
            == [equivariant_canonical_key(t) for t in two]


def brute_force_gtree_keys(group, max_edges):
    """The key of every action of group on every tree of at most max_edges
    edges: each assignment of automorphisms to the generators that closes
    to an action."""
    keys = set()
    for tree in enumerate_all_trees(max_edges):
        autos = list(all_isomorphisms(tree, tree))
        for rows in itertools.product(autos, repeat=len(group.generators)):
            try:
                gtree = GTree.from_generator_rows(
                    tree, group, dict(zip(group.generators, rows)))
            except NotEquivariant:
                continue
            keys.add(equivariant_canonical_key(gtree))
    return keys


def isomorphic_pairs(corpus):
    """The index pairs of corpus trees, of equal size, that are
    equivariantly isomorphic: an oracle that reads no canonical key."""
    by_size = defaultdict(list)
    for i, t in enumerate(corpus):
        by_size[len(t.tree.edges)].append(i)
    return [(i, j) for same in by_size.values()
            for i, j in itertools.combinations(same, 2)
            if are_equivariant_isomorphic(corpus[i], corpus[j])]


def renamed(gtree):
    """A copy of gtree with every edge renamed."""
    ren = {e: ("n", e) for e in gtree.tree.edges}
    return GTree(relabel(gtree.tree, ren), gtree.group,
                 {g: {ren[e]: ren[v] for e, v in row.items()}
                  for g, row in gtree.action.items()})


class TestEnumerationIsComplete:
    """enumerate_gtrees holds every G-tree up to isomorphism, once."""

    @pytest.mark.parametrize("group", ["trivial", "z2", "z3", "z4", "s3"])
    def test_no_two_trees_are_isomorphic_at_five_edges(self, group):
        assert isomorphic_pairs(enumerate_gtrees(builtin_group(group), 5)) \
            == []

    def test_a_renamed_copy_is_caught(self):
        corpus = list(enumerate_gtrees(Z2, 5))
        moving = max(i for i, t in enumerate(corpus)
                     if any(row[e] != e for row in t.action.values()
                            for e in row))
        corpus.append(renamed(corpus[moving]))
        assert isomorphic_pairs(corpus) == [(moving, len(corpus) - 1)]

    @pytest.mark.parametrize("group, classes", [
        ("trivial", 59), ("z2", 92), ("z3", 67), ("z4", 94), ("s3", 100)])
    def test_matches_brute_force_at_five_edges(self, group, classes):
        g = builtin_group(group)
        keys = [equivariant_canonical_key(t) for t in enumerate_gtrees(g, 5)]
        assert len(set(keys)) == len(keys) == classes
        assert set(keys) == brute_force_gtree_keys(g, 5)

    # max_corolla=4 never grafts a vertex of arity 5: 6 of 167 classes
    # (trivial) and 20 of 287 (z2) are missing
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="enumerate_gtrees caps corollas at 4 leaves")
    @pytest.mark.parametrize("group", ["trivial", "z2"])
    def test_matches_brute_force_at_six_edges(self, group):
        g = builtin_group(group)
        keys = {equivariant_canonical_key(t) for t in enumerate_gtrees(g, 6)}
        assert keys == brute_force_gtree_keys(g, 6)


class TestCanonicalKey:
    def test_invariant_under_renaming(self):
        big = SAMPLE.big.gtree
        ren = {e: ("n", e) for e in big.tree.edges}
        rows = {g: {("n", e): ("n", big.action[g][e])
                    for e in big.tree.edges}
                for g in Z4.elements}
        copy = GTree(relabel(big.tree, ren), Z4, rows)
        assert equivariant_canonical_key(copy) == equivariant_canonical_key(big)

    def test_separates_non_isomorphic(self):
        assert equivariant_canonical_key(SAMPLE.big.gtree) \
            != equivariant_canonical_key(SAMPLE.mid.gtree)

    def test_separates_same_tree_different_action(self):
        t = corolla(2)
        triv = GTree.trivial(t, Z2)
        swap = GTree.from_generator_rows(
            t, Z2, {1: {t.root: t.root, "l0": "l1", "l1": "l0"}})
        assert equivariant_canonical_key(triv) \
            != equivariant_canonical_key(swap)


class TestEquivariantPointedMaps:
    def test_fixture_count(self):
        maps = enumerate_equivariant_pointed_maps(SAMPLE.label_gset,
                                                  SAMPLE.label_gset)
        assert len(maps) == 21
        assert len(set(maps)) == 21

    def test_all_enumerated_are_equivariant(self):
        a = SAMPLE.label_gset
        for m in enumerate_equivariant_pointed_maps(a, a):
            for g in Z4.elements:
                for x in a.elements:
                    lhs = m.mapping[a.act(g, x)]
                    rhs = m.mapping[x]
                    assert lhs == (PLUS if rhs == PLUS else a.act(g, rhs))

    def test_rejects_non_equivariant_mapping(self):
        a = SAMPLE.label_gset
        bad = {x: "x" for x in a.elements}
        with pytest.raises(NotEquivariant):
            EquivariantPointedMap(a, a, bad)

    def test_composites_stay_equivariant(self):
        a = SAMPLE.label_gset
        maps = enumerate_equivariant_pointed_maps(a, a)
        for m1, m2 in itertools.islice(itertools.product(maps, repeat=2), 50):
            pm = compose_pointed(m1, m2)
            EquivariantPointedMap(a, a, pm.mapping)

    def test_mixes_with_plain_pointed_maps(self):
        a = SAMPLE.label_gset
        ident = EquivariantPointedMap(a, a, {x: x for x in a.elements})
        assert ident == PointedMap.identity_on(a.elements)


class TestSubstitutionG:
    def collapse_free_orbit(self):
        a = SAMPLE.label_gset
        mapping = {x: (x if x in ("x", "ix") else PLUS) for x in a.elements}
        return EquivariantPointedMap(a, a, mapping)

    def test_phi_star_shape(self):
        out = phi_star_G(self.collapse_free_orbit(), SAMPLE.big)
        assert len(out.gtree.tree.edges) == 18
        assert out.labeled.label_set == SAMPLE.big.labeled.label_set
        assert len(out.gtree.edge_orbits()) == 9

    def test_fresh_leaves_inherit_the_label_action(self):
        out = phi_star_G(self.collapse_free_orbit(), SAMPLE.big)
        layer = next(e[1] for e in out.gtree.tree.edges
                     if isinstance(e, tuple) and e and e[0] == "graft")
        assert out.gtree.act(1, ("graft", layer, ("leaf", "y"))) \
            == ("graft", layer, ("leaf", "iy"))
        assert out.gtree.act(1, ("graft", layer, "root")) \
            == ("graft", layer, "root")

    def test_requires_equivariant_map(self):
        plain = PointedMap.identity_on(SAMPLE.label_gset.elements)
        with pytest.raises(NotEquivariant):
            phi_star_G(plain, SAMPLE.big)

    def test_tau_cells_are_equivariant(self):
        a = SAMPLE.label_gset
        ident = EquivariantPointedMap(a, a, {x: x for x in a.elements})
        idstar = phi_star_G(ident, SAMPLE.big)
        cell = tau_id(SAMPLE.big.labeled)
        assert is_equivariant_morphism(idstar.gtree, SAMPLE.big.gtree, cell)
        phi = self.collapse_free_orbit()
        comp = tau_comp(ident, phi, SAMPLE.big.labeled)
        both = compose_pointed(ident, phi)
        lo = phi_star_G(EquivariantPointedMap(a, a, both.mapping), SAMPLE.big)
        hi = phi_star_G(ident, phi_star_G(phi, SAMPLE.big))
        assert is_equivariant_morphism(lo.gtree, hi.gtree, comp)

    def test_groth_hom_counts(self):
        pairs = groth_hom_G(SAMPLE.small, SAMPLE.big)
        assert len(pairs) == 8

    def test_projection_is_a_bijection(self):
        pairs = groth_hom_G(SAMPLE.small, SAMPLE.big)
        eq = equivariant_hom(SAMPLE.small.gtree, SAMPLE.big.gtree)
        images = {tuple(sorted(F_functor(gm).mapping.items()))
                  for gm in pairs}
        assert len(images) == len(pairs)
        assert images == {tuple(sorted(f.mapping.items())) for f in eq}

    def test_lift_round_trips(self):
        pairs = groth_hom_G(SAMPLE.small, SAMPLE.big)
        for f in equivariant_hom(SAMPLE.small.gtree, SAMPLE.big.gtree):
            gm = lift_G(f, SAMPLE.small, SAMPLE.big)
            assert F_functor(gm).mapping == f.mapping
            EquivariantPointedMap(SAMPLE.big.label_gset,
                                  SAMPLE.small.label_gset, gm.phi.mapping)
        for gm in pairs:
            assert lift_G(F_functor(gm), SAMPLE.small, SAMPLE.big) == gm

    def test_hom_pairs_pass_the_validating_constructor(self):
        for gm in groth_hom_G(SAMPLE.small, SAMPLE.big):
            assert GrothTreeMorphism(gm.src, gm.dst, gm.phi, gm.fiber) == gm

    def test_lift_rejects_non_equivariant(self):
        plain = hom_set(SAMPLE.small.gtree.tree, SAMPLE.big.gtree.tree)
        bad = next(f for f in plain
                   if not is_equivariant_morphism(SAMPLE.small.gtree,
                                                  SAMPLE.big.gtree, f))
        with pytest.raises(NotEquivariant):
            lift_G(bad, SAMPLE.small, SAMPLE.big)
        # every non-equivariant map of the self-labeled suite corpora
        for group, rejected in (("z2", 668), ("s3", 959)):
            corpus = _labeled_gtrees(builtin_group(group), 4, None)
            bad = 0
            for (a, la), (b, lb) in itertools.product(corpus, repeat=2):
                for f in hom_set(a.tree, b.tree):
                    if not is_equivariant_morphism(a, b, f):
                        bad += 1
                        with pytest.raises(NotEquivariant):
                            lift_G(f, la, lb)
            assert bad == rejected


def generated_category(maps):
    """Close a few equivariant pointed maps under composition.

    Objects are the G-sets the maps touch; chains may revisit a G-set, so
    the closure runs over every endpoint-matching pair, not just the
    chain order.
    """
    uniq = []
    for m in maps:
        for o in (m.src_gset, m.dst_gset):
            if o not in uniq:
                uniq.append(o)
    idents = {o: FcMor(EquivariantPointedMap(o, o,
                                             {x: x for x in o.elements}),
                       o, o)
              for o in uniq}
    mors = list(idents.values())
    for m in maps:
        fm = FcMor(m, m.src_gset, m.dst_gset)
        if fm not in mors:
            mors.append(fm)
    table = {}
    grew = True
    while grew:
        grew = False
        for a, b in itertools.product(list(mors), repeat=2):
            if a.dst != b.src or (a, b) in table:
                continue
            pm = compose_pointed(a.name, b.name)
            comp = FcMor(EquivariantPointedMap(a.src, b.dst, pm.mapping),
                         a.src, b.dst)
            if comp not in mors:
                mors.append(comp)
            table[(a, b)] = comp
            grew = True
    return FiniteCategory(tuple(uniq), tuple(mors), table, idents)


class TestOplaxCoherenceG:
    def test_pointed_gset_category_laws(self):
        cat = gset_pointed_category(Z2, 2)
        assert len(cat.objects) == 4
        assert len(cat.morphisms) == 35
        for f, g in cat.composable_pairs():
            for h in cat.morphisms:
                if h.src != g.dst:
                    continue
                assert cat.compose(cat.compose(f, g), h) \
                    == cat.compose(f, cat.compose(g, h))
        for m in cat.morphisms:
            assert cat.compose(cat.identity(m.src), m) == m
            assert cat.compose(m, cat.identity(m.dst)) == m

    def test_cells_match_the_validated_builders(self):
        probes = standard_probes(skeletal_gsets(Z2, 2), deep=False)
        data = gtree_oplax_data(Z2, 2, probes)
        seen = 0
        for f, g in data.base.composable_pairs():
            if data.base.identity(f.src) in (f, g):
                continue
            for x in data.fiber_objects(g.dst):
                assert data.tau_comp(f, g, x) \
                    == tau_comp(f.name, g.name, x.labeled).mapping
                assert data.tau_id(g.dst, x) == tau_id(x.labeled).mapping
                gx = data.app_obj(g, x)
                assert gx.labeled == phi_star(g.name, x.labeled)
                seen += 1
            if seen > 40:
                break
        assert seen > 10

    def test_app_mor_matches_pushed_morphism(self):
        probes = standard_probes(skeletal_gsets(Z2, 2), deep=True)
        data = gtree_oplax_data(Z2, 2, probes)
        arrows = [m for m in data.base.morphisms
                  if m != data.base.identity(m.src)]
        checked = 0
        for f in arrows:
            xs = data.fiber_objects(f.dst)
            for x, y in itertools.product(xs, repeat=2):
                for m in data.fiber_hom(f.dst, x, y):
                    tm = TreeMorphism(x.gtree.tree, y.gtree.tree, m)
                    real = phi_star_mor(f.name, tm, x.labeled, y.labeled)
                    assert data.app_mor(f, m, x, y) == real.mapping
                    checked += 1
            if checked > 30:
                break
        assert checked > 10

    def test_exhaustive_sweep_small(self):
        probes = standard_probes(skeletal_gsets(Z2, 2), deep=False)
        data = gtree_oplax_data(Z2, 2, probes)
        report = check_all_coherence(data)
        assert report.ok
        assert report.squares == 4144
        assert report.triangles == 408

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_sampled_chains_up_to_size_four(self, data):
        gsets = skeletal_gsets(Z2, 4)
        objs = [data.draw(st.sampled_from(gsets))]
        maps = []
        for _ in range(3):
            nxt = data.draw(st.sampled_from(gsets))
            options = enumerate_equivariant_pointed_maps(objs[-1], nxt)
            maps.append(data.draw(st.sampled_from(options)))
            objs.append(nxt)
        cat = generated_category(maps)
        probes = standard_probes(list(cat.objects), deep=False)
        fdata = gtree_oplax_data(Z2, 4, probes, base=cat)
        for f, g, h in cat.composable_triples():
            for x in fdata.fiber_objects(h.dst):
                assert check_coherence_square(fdata, f, g, h, x)
                assert check_oplax_units(fdata, h, x)
                assert check_oplax_units(fdata, g, fdata.app_obj(h, x))
                assert check_oplax_units(
                    fdata, f, fdata.app_obj(cat.compose(g, h), x))


class TestCorollaProbes:
    def test_corolla_shape(self):
        a = skeletal_gsets(Z2, 2)[-1]
        c = corolla_glabeled(a)
        assert c.gtree.tree.root == ("root",)
        assert set(c.labeled.labels.values()) == set(a.elements)
        for g in Z2.elements:
            for x in a.elements:
                assert c.gtree.act(g, x) == a.act(g, x)

    def test_probe_sets_cover_each_gset(self):
        gsets = skeletal_gsets(Z2, 2)
        probes = standard_probes(gsets, deep=True)
        assert set(probes) == set(gsets)
        for a, items in probes.items():
            assert len(items) >= 1
            for x in items:
                assert x.label_gset == a
