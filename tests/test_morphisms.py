import gc
import itertools
import weakref
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from dendron import (
    Tree, TreeMorphism, SourceTargetMismatch, NotMonotone,
    VertexConditionFails, NotInnerEdge, MorphismError, identity, compose,
    contract_edge, split_edge, collapse_unary, hom_set, factorize,
    single_edge, corolla, linear_tree, canonical_form, enumerate_all_trees,
    all_isomorphisms, canonical_labeling, hom_labeled, is_label_preserving,
    spanned_subtree, equivariant_factorize, enumerate_gtrees, builtin_group,
    GTree, NotEquivariant, sort_key,
)

from dendron import morphisms
from dendron.cli import _equivariant_pair, _factorization_pair, _labeled_gtrees
from dendron.pairs import _pair_stride
from test_trees import random_trees


def sort_signature(f):
    """The order hom_set lists its maps in: the images of the source's
    edges in canonical order, compared by sort_key."""
    return tuple(sort_key(f.mapping[e]) for e in f.src.canonical_edge_order())


def brute_force_homs(src, dst):
    """Independent oracle: try every edge map and keep the valid ones."""
    src_edges = src.sorted_edges()
    found = []
    for images in itertools.product(dst.sorted_edges(), repeat=len(src_edges)):
        mapping = dict(zip(src_edges, images))
        try:
            found.append(TreeMorphism(src, dst, mapping))
        except MorphismError:
            pass
    return found


def oracle_disagreements(trees):
    """Pairs of `trees` on which hom_set and the brute force differ, as
    ordered lists of maps (the brute force in hom_set's sort order)."""
    bad = 0
    for src in trees:
        for dst in trees:
            fast = [f.mapping for f in hom_set(src, dst)]
            slow = [f.mapping for f in sorted(brute_force_homs(src, dst),
                                              key=sort_signature)]
            bad += fast != slow
    return bad


def lax_spanned_subtree(tree, root_edge, leaf_set):
    """Mutant: a demanded edge below another demanded edge passes as a
    leaf, so an inner edge of the subtree is accepted among its leaves."""
    leaf_set = frozenset(leaf_set)
    tops = {e for e in leaf_set
            if not any(l != e and tree.le(l, e) for l in leaf_set)}
    return spanned_subtree(tree, root_edge, tops)


class TestValidate:
    def test_identity(self):
        t = corolla(2)
        f = identity(t)
        assert f.src is f.dst is t
        assert f.mapping == {e: e for e in t.edges}

    def test_collapse_to_edge_only_fails(self):
        c2, eta = corolla(2), single_edge("e")
        with pytest.raises((VertexConditionFails, NotMonotone)):
            TreeMorphism(c2, eta, {"r": "e", "l0": "e", "l1": "e"})

    def test_degeneracy_is_valid(self):
        lin = linear_tree(1)  # e0 under e1
        eta = single_edge("e")
        f = TreeMorphism(lin, eta, {"e0": "e", "e1": "e"})
        assert not f.is_injective()

    def test_not_monotone(self):
        lin = linear_tree(2)
        with pytest.raises(NotMonotone):
            TreeMorphism(lin, lin, {"e0": "e0", "e1": "e2", "e2": "e1"})

    def test_partial_map_rejected(self):
        t = corolla(1)
        with pytest.raises(SourceTargetMismatch):
            TreeMorphism(t, t, {"r": "r"})

    def test_stray_image_rejected(self):
        t = single_edge("e")
        with pytest.raises(SourceTargetMismatch):
            TreeMorphism(t, t, {"e": "nope"})

    def test_stump_needs_leafless_subtree(self):
        stump = corolla(0)
        c2 = corolla(2)
        with pytest.raises(VertexConditionFails):
            TreeMorphism(stump, c2, {"r": "r"})
        assert len(hom_set(stump, stump)) == 1


class TestHomSets:
    def test_frozen_counts(self):
        eta, c2 = single_edge(), corolla(2)
        assert len(hom_set(eta, eta)) == 1
        assert len(hom_set(eta, c2)) == 3
        assert len(hom_set(c2, c2)) == 2
        assert len(hom_set(c2, eta)) == 0

    def test_matches_brute_force_small(self):
        shapes = [single_edge(), corolla(0), corolla(1), corolla(2),
                  linear_tree(2),
                  Tree(["r", "a", "b"], "r", [("r", ["a", "b"]), ("a", [])])]
        for src in shapes:
            for dst in shapes:
                fast = hom_set(src, dst)
                slow = brute_force_homs(src, dst)
                assert sorted(sort_signature(f) for f in fast) == \
                    sorted(sort_signature(f) for f in slow), (src, dst)
                assert len(fast) == len(set(fast))

    def test_matches_brute_force_at_four_edges(self):
        assert oracle_disagreements(enumerate_all_trees(4)) == 0

    def test_oracle_kills_a_lax_vertex_condition(self, monkeypatch):
        # the validator alone reads the mutant: hom_set builds its images
        # from the target's leaf sets, not through spanned_subtree
        monkeypatch.setattr(morphisms, "spanned_subtree", lax_spanned_subtree)
        assert oracle_disagreements(enumerate_all_trees(4)) > 0

    def test_labeled_matches_filtered_brute_force(self):
        trees = [canonical_labeling(t) for t in enumerate_all_trees(4)]
        total = 0
        for src in trees:
            for dst in trees:
                fast = [f.mapping for f in hom_labeled(src, dst)]
                slow = [f.mapping for f in sorted(
                    brute_force_homs(src.tree, dst.tree),
                    key=sort_signature)
                    if is_label_preserving(f, src, dst)]
                assert fast == slow, (src, dst)
                total += len(fast)
        assert total == 336

    def test_deterministic_order(self):
        a = [f.mapping for f in hom_set(corolla(2), corolla(3))]
        b = [f.mapping for f in hom_set(corolla(2), corolla(3))]
        assert a == b

    @given(random_trees(max_vertices=3), random_trees(max_vertices=3))
    @settings(max_examples=25, deadline=None)
    def test_all_results_validate(self, src, dst):
        for f in hom_set(src, dst):
            TreeMorphism(src, dst, f.mapping)

    @given(random_trees(max_vertices=3))
    @settings(max_examples=25, deadline=None)
    def test_identity_found(self, t):
        assert identity(t) in hom_set(t, t)

    def test_linear_trees_give_the_simplex_category(self):
        # Δ is the full subcategory of Ω on the linear trees, and its maps
        # [m] -> [n] are the C(m+n+1, m+1) monotone functions; this oracle
        # shares no code with the validator
        for m in range(6):
            for n in range(6):
                assert len(hom_set(linear_tree(m), linear_tree(n))) == \
                    comb(m + n + 1, m + 1), (m, n)

    def test_order_is_the_sort_signature(self):
        trees = enumerate_all_trees(4)
        for src in trees:
            for dst in trees:
                sigs = [sort_signature(f) for f in hom_set(src, dst)]
                assert sigs == sorted(set(sigs))

    def test_leaves_no_reference_cycles(self):
        trees = enumerate_all_trees(4)
        src, dst = max(((a, b) for a in trees for b in trees),
                       key=lambda p: len(hom_set(*p)))
        gc.collect()
        gc.disable()
        try:
            hom_set(src, dst)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_isomorphisms_leave_no_reference_cycles(self):
        trees = enumerate_all_trees(4)
        gc.collect()
        gc.disable()
        try:
            for src in trees:
                for dst in trees:
                    for _ in all_isomorphisms(src, dst):
                        pass
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestGenerators:
    def test_contract_requires_inner(self):
        with pytest.raises(NotInnerEdge):
            contract_edge(corolla(2), "l0")

    def test_contract_top_edge_rejected(self):
        # e1 tops a unary vertex with nothing above, so it is not inner
        with pytest.raises(NotInnerEdge):
            contract_edge(linear_tree(1), "e1")

    def test_contract_into_stump(self):
        t = Tree(["r", "a", "b"], "r", [("r", ["a", "b"]), ("a", [])])
        smaller, face = contract_edge(t, "a")
        assert canonical_form(smaller) == canonical_form(corolla(1))
        assert face.mapping == {"r": "r", "b": "b"}

    def test_contract_merges_vertices(self):
        t = Tree(["r", "m", "x", "y", "z"], "r",
                 [("r", ["m", "z"]), ("m", ["x", "y"])])
        smaller, face = contract_edge(t, "m")
        assert canonical_form(smaller) == canonical_form(corolla(3))
        TreeMorphism(face.src, face.dst, face.mapping)

    def test_split_edge_only(self):
        bigger, collapse = split_edge(single_edge("e"), "e")
        assert len(bigger.edges) == 2
        assert bigger.root == "e"
        assert len(bigger.vertices) == 1
        assert set(collapse.mapping.values()) == {"e"}

    def test_split_then_collapse(self):
        t = corolla(2)
        bigger, sigma = split_edge(t, "l0")
        smaller, sigma2 = collapse_unary(bigger, "l0")
        assert smaller == t
        assert sigma == sigma2

    def test_split_inner(self):
        t = Tree(["r", "m", "x"], "r", [("r", ["m"]), ("m", ["x"])])
        bigger, sigma = split_edge(t, "m")
        assert len(bigger.edges) == 4
        TreeMorphism(bigger, t, sigma.mapping)


class TestCompose:
    def test_endpoint_mismatch(self):
        f = identity(corolla(2))
        g = identity(corolla(3))
        with pytest.raises(SourceTargetMismatch):
            compose(f, g)

    @given(random_trees(max_vertices=2), random_trees(max_vertices=2),
           st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_composites_validate(self, a, b, i, j):
        fs = hom_set(a, b)
        gs = hom_set(b, b)
        if not fs or not gs:
            return
        f = fs[i % len(fs)]
        g = gs[j % len(gs)]
        h = compose(f, g)
        TreeMorphism(h.src, h.dst, h.mapping)


def contract_fixture():
    big = Tree(["r", "a", "b", "c"], "r", [("r", ["a"]), ("a", ["b", "c"])])
    _, face = contract_edge(big, "a")
    return face


class TestFactorize:
    def test_edge_to_corolla_root(self):
        eta, c2 = single_edge("e"), corolla(2)
        f = TreeMorphism(eta, c2, {"e": "r"})
        fact = factorize(f)
        assert len(fact.degeneracies) == 0
        assert fact.iso.is_isomorphism()
        assert len(fact.inner_faces) == 0
        assert len(fact.outer_faces) == 1
        assert fact.composite() == f

    def test_edge_to_corolla_leaf(self):
        eta, c2 = single_edge("e"), corolla(2)
        f = TreeMorphism(eta, c2, {"e": "l0"})
        fact = factorize(f)
        assert [s.kind for s in fact.outer_faces] == ["outer"]
        assert fact.composite() == f

    def test_pure_degeneracy(self):
        lin = linear_tree(2)
        eta = single_edge("e")
        f = TreeMorphism(lin, eta, {"e0": "e", "e1": "e", "e2": "e"})
        fact = factorize(f)
        assert len(fact.degeneracies) == 2
        assert len(fact.inner_faces) == 0
        assert len(fact.outer_faces) == 0
        assert fact.composite() == f

    def test_pure_inner_face(self):
        f = contract_fixture()
        fact = factorize(f)
        assert len(fact.degeneracies) == 0
        assert [s.orbit for s in fact.inner_faces] == [("a",)]
        assert len(fact.outer_faces) == 0
        assert fact.composite() == f

    def test_factorize_lands_through_stump_completion(self):
        # unary tree into a corolla whose other branch is capped
        src = corolla(1)
        dst = Tree(["r", "a", "b"], "r", [("r", ["a", "b"]), ("a", [])])
        f = TreeMorphism(src, dst, {"r": "r", "l0": "b"})
        fact = factorize(f)
        assert len(fact.outer_faces) == 0
        assert [s.orbit for s in fact.inner_faces] == [("a",)]
        assert fact.composite() == f

    def test_exhaustive_small(self):
        shapes = enumerate_all_trees(3)
        for src in shapes:
            for dst in shapes:
                for f in hom_set(src, dst):
                    fact = factorize(f)
                    assert fact.composite() == f
                    again = factorize(fact.composite())
                    assert [s.orbit for s in again.inner_faces] == \
                        [s.orbit for s in fact.inner_faces]
                    assert [s.orbit for s in again.outer_faces] == \
                        [s.orbit for s in fact.outer_faces]
                    assert [s.orbit for s in again.degeneracies] == \
                        [s.orbit for s in fact.degeneracies]

    def test_stage_trees_chain(self):
        f = contract_fixture()
        fact = factorize(f)
        prev = f.src
        for m in fact.stages():
            assert m.src == prev
            prev = m.dst
        assert prev == f.dst


def stage_view(fact):
    """Each stage's kind, orbit, source, target and mapping."""
    steps = [(s.kind, s.orbit, s.morphism) for s in fact.degeneracies]
    steps.append(("iso", None, fact.iso))
    steps += [(s.kind, s.orbit, s.morphism)
              for s in fact.inner_faces + fact.outer_faces]
    return [(kind, orbit, m.src, m.dst, m.mapping)
            for kind, orbit, m in steps]


def corpus_maps(max_edges):
    trees = enumerate_all_trees(max_edges)
    return [f for src in trees for dst in trees for f in hom_set(src, dst)]


def memo_disagreements(maps):
    """Maps whose factorization through one shared memo differs from the
    reference, or raises."""
    memo = {}
    bad = 0
    for f in maps:
        try:
            shared = stage_view(factorize(f, memo))
        except (MorphismError, KeyError):
            bad += 1
            continue
        bad += shared != stage_view(factorize(f))
    return bad


def g_outcome(a, b, f, memo=None):
    """The stages of equivariant_factorize(a, b, f, memo), or the type and
    message of what it raised."""
    try:
        return stage_view(equivariant_factorize(a, b, f, memo))
    except (ValueError, KeyError) as err:
        return type(err), str(err)


def g_memo_disagreements(corpus):
    """(maps, maps that raise, disagreements) over every map between the
    G-trees of corpus, each factored through a memo its source's maps
    share, as the equivariant suite does, and without one."""
    maps = raised = bad = 0
    for a in corpus:
        memo = {}
        for b in corpus:
            for f in hom_set(a.tree, b.tree):
                fresh = g_outcome(a, b, f)
                maps += 1
                raised += isinstance(fresh, tuple)
                bad += g_outcome(a, b, f, memo) != fresh
    return maps, raised, bad


def wrong_key(memo, key, build, *args):
    """A broken `_chain`: once a build has two keys, it answers each with
    another key's chain."""
    if memo is None:
        return build(*args)
    key = (build, key)
    if key not in memo:
        memo[key] = build(*args)
    return next((v for k, v in memo.items() if k[0] is build and k != key),
                memo[key])


class TestChainMemo:
    """factorize and equivariant_factorize with a memo share their stage
    chains between maps, and must build exactly the stages of the
    reference path."""

    def test_memo_matches_the_reference_on_the_c1_corpus(self):
        maps = corpus_maps(5)
        assert len(maps) == 13133
        assert memo_disagreements(maps) == 0

    def test_a_memo_returning_another_keys_chain_is_caught(self,
                                                           monkeypatch):
        monkeypatch.setattr(morphisms, "_chain", wrong_key)
        assert memo_disagreements(corpus_maps(3)) > 0

    @pytest.mark.parametrize("group, maps, raised", [
        ("z2", 29596, 14010), ("z4", 31647, 16034), ("s3", 36056, 20274)])
    def test_g_memo_matches_the_reference_at_five_edges(self, group, maps,
                                                        raised):
        corpus = enumerate_gtrees(builtin_group(group), 5)
        assert g_memo_disagreements(corpus) == (maps, raised, 0)

    def test_a_g_memo_returning_another_keys_chain_is_caught(self,
                                                             monkeypatch):
        monkeypatch.setattr(morphisms, "_chain", wrong_key)
        corpus = enumerate_gtrees(builtin_group("z2"), 3)
        assert g_memo_disagreements(corpus)[2] > 0

    def test_the_g_memo_keys_read_the_actions(self):
        # one tree under two actions: m1 is fixed by the first and moved by
        # the second, so a chain shared by tree would skip the second's
        # "image root is not fixed" and raise at the residual check instead
        z2 = builtin_group("z2")
        dst = Tree(["r", "m1", "m2", "a", "b"], "r",
                   [("r", ["m1", "m2"]), ("m1", ["a"]), ("m2", ["b"])])
        fixed = GTree.trivial(dst, z2)
        swapped = GTree.from_generator_rows(dst, z2, {1: {
            "r": "r", "m1": "m2", "m2": "m1", "a": "b", "b": "a"}})
        src = GTree.trivial(single_edge("s"), z2)
        f = TreeMorphism(src.tree, dst, {"s": "m1"})
        memo = {}
        assert g_outcome(src, fixed, f, memo) == g_outcome(src, fixed, f)
        assert g_outcome(src, swapped, f, memo) \
            == g_outcome(src, swapped, f) \
            == (NotEquivariant, "image root is not fixed")

    def test_the_g_memo_holds_no_outer_chain_and_dies_with_its_row(self):
        builds = set()
        refs = {}

        def check(corpus, i, j, memo):
            out = _equivariant_pair(corpus, i, j, memo)
            assert list(memo) == [i]
            builds.update(k[0] for k in memo[i])
            refs.setdefault(i, set()).update(
                weakref.ref(s) for chain in memo[i].values()
                for part in chain if isinstance(part, tuple) for s in part)
            if j == 0 and i > 0:
                # the chains hold no reference cycle, so they die as soon
                # as the memo drops them, without a collection
                assert all(r() is None for r in refs[i - 1])
            return out

        counts, failures = _pair_stride(
            _labeled_gtrees, (builtin_group("z2"), 4, None), check, 0, 1)
        assert failures == [] and len(counts) == 30 ** 2
        assert builds == {morphisms._degeneracy_chain,
                          morphisms._inner_chain}
        assert sum(map(bool, list(refs.values())[:-1])) > 10

    def test_the_memo_dies_with_its_pair_stride(self):
        refs = []

        def check(trees, i, j, memo):
            for f in hom_set(trees[i], trees[j]):
                fact = factorize(f, memo)
                refs.extend(weakref.ref(s) for s in fact.degeneracies
                            + fact.inner_faces + fact.outer_faces)
            return _factorization_pair(trees, i, j, memo)

        counts, failures = _pair_stride(enumerate_all_trees, (3,), check,
                                        0, 1)
        assert failures == [] and sum(counts) > 0
        assert refs
        gc.collect()
        assert all(r() is None for r in refs)
