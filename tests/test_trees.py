import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from dendron import (
    Tree, DanglingEdge, MultipleParents, RootHasParent, Disconnected, Cyclic,
    SiteNotLeafOrRoot, canonical_form, single_edge, corolla, linear_tree,
    relabel, relabel_canonical, all_isomorphisms, are_isomorphic,
    spanned_subtree, graft, enumerate_all_trees, tree_to_json,
    tree_from_json, sort_key, PLUS, PointedMap,
    canonical_labeling, phi_star, builtin_group, enumerate_gtrees,
)


@st.composite
def random_trees(draw, max_vertices=4, max_arity=3):
    t = single_edge("e0")
    steps = draw(st.integers(min_value=0, max_value=max_vertices))
    for _ in range(steps):
        if t.leaves and draw(st.booleans()):
            site = draw(st.sampled_from(sorted(t.leaves, key=str)))
            arity = draw(st.integers(min_value=0, max_value=max_arity))
            t, _ = graft(t, site, arity)
        else:
            arity = draw(st.integers(min_value=1, max_value=max_arity))
            t, _ = graft(t, t.root, arity, below=True)
    return t


class TestValidation:
    def test_edge_only_tree(self):
        t = single_edge("e")
        assert t.leaves == ("e",)
        assert t.root == "e"
        assert t.children_of("e") is None

    def test_equality_is_by_value_not_identity(self):
        a = Tree(["r", "a", "b"], "r", [("r", ["a", "b"]), ("a", [])])
        b = Tree(["b", "a", "r"], "r", [("a", []), ("r", ["b", "a"])])
        assert a is not b
        assert a == b and not a != b and hash(a) == hash(b)
        assert a == a and not a != a and a != corolla(2)

    def test_stump_has_no_leaves(self):
        t = corolla(0)
        assert t.leaves == ()

    def test_root_missing(self):
        with pytest.raises(DanglingEdge):
            Tree(["a"], "r", [])

    def test_dangling_in_edge(self):
        with pytest.raises(DanglingEdge):
            Tree(["r"], "r", [("r", ["ghost"])])

    def test_two_vertices_share_out(self):
        with pytest.raises(MultipleParents):
            Tree(["r", "a", "b"], "r", [("r", ["a"]), ("r", ["b"])])

    def test_edge_under_two_vertices(self):
        with pytest.raises(MultipleParents):
            Tree(["r", "a", "b"], "r", [("r", ["b"]), ("a", ["b"])])

    def test_root_has_parent(self):
        with pytest.raises(RootHasParent):
            Tree(["r", "a"], "r", [("a", ["r"])])

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            Tree(["r", "a"], "r", [])

    def test_cycle(self):
        with pytest.raises((Cyclic, RootHasParent)):
            Tree(["r", "a", "b"], "r", [("a", ["b"]), ("b", ["a"])])

    def test_self_loop(self):
        with pytest.raises((Cyclic, MultipleParents, RootHasParent)):
            Tree(["r", "a"], "r", [("r", ["a"]), ("a", ["a"])])

    def test_dangling_out_edge_with_the_root_present(self):
        with pytest.raises(DanglingEdge, match="out-edge 'ghost'"):
            Tree(["r", "a"], "r", [("r", ["a"]), ("ghost", [])])

    def test_shared_out_edge_where_one_copy_dangles(self):
        # vertices sharing an out-edge are met in input order
        with pytest.raises(DanglingEdge, match="in-edge 'ghost'"):
            Tree(["r", "a"], "r", [("r", ["ghost"]), ("r", ["a"])])
        with pytest.raises(MultipleParents, match="out-edge of two"):
            Tree(["r", "a"], "r", [("r", ["a"]), ("r", ["ghost"])])


def stacked_phi_star(max_edges=4, layers=3):
    """Every tree of phi_star applied `layers` times over, starting from
    each canonically labeled tree; each map has two source labels, sent to
    the first and last target labels, or to "+" when there are none."""
    out = []
    for t in enumerate_all_trees(max_edges):
        lt = canonical_labeling(t)
        for _ in range(layers):
            ends = lt.label_set or (PLUS,)
            lt = phi_star(PointedMap((1, 2), lt.label_set,
                                     {1: ends[0], 2: ends[-1]}), lt)
            out.append(lt)
    return out


def gtree_corpus(max_edges=6):
    return [gt.tree for name in ("z4", "s3")
            for gt in enumerate_gtrees(builtin_group(name), max_edges)]


class TestSortKeyCache:
    def test_cached_keys_equal_computed_ones(self):
        trees = enumerate_all_trees(6) + gtree_corpus()
        stacked = stacked_phi_star()
        names = {e for t in trees + [lt.tree for lt in stacked]
                 for e in t.edges}
        names |= {a for lt in stacked for a in lt.label_set}
        # names nest: ("graft", layer, ("leaf", label))
        assert any(isinstance(e, tuple) and any(isinstance(x, tuple)
                                                for x in e)
                   for e in names)
        for e in names:
            assert sort_key(e) == sort_key.__wrapped__(e)

    def test_pinned_keys(self):
        assert sort_key(True) == (0, 1)
        assert sort_key(1) == (0, 1)
        assert sort_key("1") == (1, "1")
        assert sort_key((1, "a")) == (2, ((0, 1), (1, "a")))

    def test_cache_is_bounded(self):
        assert sort_key.cache_info().maxsize is not None

    @pytest.mark.parametrize("name", [1.0, None, (1, 1.0)],
                             ids=["float", "none", "float-in-tuple"])
    def test_other_names_are_rejected(self, name):
        # the cache answers for an equal name it holds, (1, 1) for (1, 1.0)
        sort_key.cache_clear()
        with pytest.raises(TypeError):
            sort_key(name)

    def test_tree_with_a_float_edge_is_rejected(self):
        with pytest.raises(TypeError):
            Tree(["r", 1.0], "r", [("r", [1.0])])


class TestTreeOrders:
    """A tree's vertices, leaves and sorted edges are in `sort_key` order,
    whatever order its vertices are given in."""

    @pytest.mark.parametrize("source", ["all_trees", "phi_star", "gtrees"])
    def test_orders_match_separate_sorts(self, source):
        trees = {"all_trees": lambda: enumerate_all_trees(6),
                 "phi_star": lambda: [lt.tree for lt in stacked_phi_star()],
                 "gtrees": gtree_corpus}[source]()
        for t in trees:
            given_order = t.vertices[::-1]
            rebuilt = Tree(t.edges, t.root, given_order)
            assert rebuilt.vertices == tuple(sorted(
                ((o, frozenset(ins)) for o, ins in given_order),
                key=lambda v: sort_key(v[0])))
            assert rebuilt.leaves == tuple(sorted(
                (e for e in t.edges if t.children_of(e) is None),
                key=sort_key))
            assert rebuilt.sorted_edges() == tuple(sorted(t.edges,
                                                          key=sort_key))


class TestCanonical:
    def test_corolla_vs_linear(self):
        assert canonical_form(corolla(2)) != canonical_form(linear_tree(2))

    def test_leaf_vs_stump_distinct(self):
        # C1 (2 edges, top is a leaf) vs C1 capped by a stump
        open_top = corolla(1)
        capped = Tree(["r", "l0"], "r", [("r", ["l0"]), ("l0", [])])
        assert canonical_form(open_top) != canonical_form(capped)

    def test_relabel_invariance(self):
        t = corolla(3)
        r = relabel(t, {"r": 10, "l0": 11, "l1": 12, "l2": 13})
        assert canonical_form(t) == canonical_form(r)
        assert are_isomorphic(t, r) is not None

    @given(random_trees(), random_trees())
    @settings(max_examples=60, deadline=None)
    def test_code_matches_isomorphism(self, a, b):
        # the canonical code agrees with the existence of an isomorphism
        same = canonical_form(a) == canonical_form(b)
        assert (are_isomorphic(a, b) is not None) == same

    def test_c3_has_six_automorphisms(self):
        # oracle: count edge bijections preserving root and vertex structure
        t = corolla(3)
        assert sum(1 for _ in all_isomorphisms(t, t)) == 6

    def test_isomorphism_witness_is_structural(self):
        t = corolla(2)
        s = relabel(t, {"r": "x", "l0": "y", "l1": "z"})
        w = are_isomorphic(t, s)
        assert w["r"] == "x"
        assert {w["l0"], w["l1"]} == {"y", "z"}


class TestPoset:
    def test_relations(self):
        t = corolla(2)
        assert t.le("l0", "r") and not t.le("r", "l0")
        assert not t.le("l0", "l1") and not t.le("l1", "l0")
        assert t.le("r", "r")

    @given(random_trees())
    @settings(max_examples=40, deadline=None)
    def test_lower_bounds_are_chains(self, t):
        # if z sits below both x and y, then x and y are comparable
        edges = t.sorted_edges()
        for z in edges:
            anc = [x for x in edges if t.le(z, x)]
            for x in anc:
                for y in anc:
                    assert t.le(x, y) or t.le(y, x)

    @given(random_trees())
    @settings(max_examples=40, deadline=None)
    def test_root_is_maximum(self, t):
        for e in t.edges:
            assert t.le(e, t.root)


class TestSubtree:
    def test_spanned_subtree_grows_through_stumps(self):
        # target keeps its stump branch when growing root -> {b}
        t = Tree(["r", "a", "b"], "r", [("r", ["a", "b"]), ("a", [])])
        got = spanned_subtree(t, "r", frozenset({"b"}))
        assert got is not None
        edges, vertex_outs = got
        assert edges == frozenset({"r", "a", "b"})
        assert set(vertex_outs) == {"r", "a"}

    def test_spanned_subtree_rejects_wrong_leaves(self):
        t = corolla(2)
        assert spanned_subtree(t, "r", frozenset({"l0"})) is None
        assert spanned_subtree(t, "r", frozenset()) is None
        assert spanned_subtree(t, "r", frozenset({"l0", "l1"})) is not None

    def test_spanned_subtree_matches_the_edge_order(self):
        # oracle: the edges at or above the root edge and not strictly above
        # a demanded leaf; each of them but the demanded leaves needs a
        # vertex on top
        for t in enumerate_all_trees(4):
            for root in t.edges:
                for k in range(len(t.edges) + 1):
                    for leaves in itertools.combinations(t.sorted_edges(), k):
                        keep = {e for e in t.edges if t.le(e, root)
                                and not any(e != l and t.le(e, l)
                                            for l in leaves)}
                        outs = keep - set(leaves)
                        got = spanned_subtree(t, root, leaves)
                        if set(leaves) <= keep and not any(
                                t.is_leaf(e) for e in outs):
                            assert (got[0], set(got[1])) == (keep, outs)
                        else:
                            assert got is None

    def test_spanned_subtree_single_edge(self):
        t = corolla(2)
        assert spanned_subtree(t, "l0", frozenset({"l0"})) is not None
        assert spanned_subtree(t, "r", frozenset({"r"})) is not None


class TestGraft:
    def test_leaf_graft_adds_corolla(self):
        t, emb = graft(corolla(2), "l0", 3)
        assert len(t.edges) == 6
        assert len(t.leaves) == 4
        assert emb == {"r": "r", "l0": "l0", "l1": "l1"}

    def test_stump_graft(self):
        t, _ = graft(single_edge(), "e", 0)
        assert canonical_form(t) == canonical_form(corolla(0))

    def test_root_graft_merges_old_root(self):
        base = corolla(2)
        t, _ = graft(base, "r", 3, below=True)
        assert len(t.edges) == 3 + 1 + 2
        assert t.root != "r"
        assert not t.is_leaf("r")

    def test_root_graft_arity_zero_rejected(self):
        with pytest.raises(SiteNotLeafOrRoot):
            graft(corolla(1), "r", 0, below=True)

    def test_inner_site_rejected(self):
        t, _ = graft(corolla(2), "l0", 1)
        with pytest.raises(SiteNotLeafOrRoot):
            graft(t, "l0", 2)

    def test_four_leaf_example(self):
        # two-vertex tree with 4 leaves; grafting a 3-corolla on a plain
        # leaf gives the 9-edge tree with 6 leaves
        base = Tree(["r", "e1", "e2", "e3", "e4", "e5"], "r",
                    [("r", ["e1", "e2", "e3"]), ("e1", ["e4", "e5"])])
        assert len(base.leaves) == 4
        t, _ = graft(base, "e3", 3)
        assert len(t.edges) == 9
        assert len(t.leaves) == 6
        direct = Tree(
            ["r", "e1", "e2", "e3", "e4", "e5", "f0", "f1", "f2"], "r",
            [("r", ["e1", "e2", "e3"]), ("e1", ["e4", "e5"]),
             ("e3", ["f0", "f1", "f2"])])
        assert canonical_form(t) == canonical_form(direct)


def shapes(leaves, max_vertices):
    """The corpus trees with this many leaves and at most this many
    vertices: a tree's edges are its leaves and its vertices' out-edges."""
    return [t for t in enumerate_all_trees(leaves + max_vertices)
            if len(t.leaves) == leaves and len(t.vertices) <= max_vertices]


class TestEnumerate:
    def test_single_leaf_no_vertices(self):
        ts = shapes(1, 0)
        assert len(ts) == 1
        assert canonical_form(ts[0]) == canonical_form(single_edge())

    def test_corollas(self):
        for n in [0, 2, 3, 4]:
            ts = shapes(n, 1)
            assert [canonical_form(t) for t in ts] == [canonical_form(corolla(n))]

    def test_one_leaf_one_vertex(self):
        # both the edge-only tree and the unary corolla qualify
        ts = shapes(1, 1)
        assert len(ts) == 2

    def test_two_leaves_two_vertices_oracle(self):
        # oracle: brute-force count of shapes with 2 leaves, <= 2 vertices:
        # C2; unary under C2; unary on a C2 leaf; C3 with one stump
        assert len(shapes(2, 2)) == 4

    def test_no_duplicates(self):
        ts = enumerate_all_trees(4)
        codes = [canonical_form(t) for t in ts]
        assert len(codes) == len(set(codes))

    def test_counts_small(self):
        by_edges = {}
        for t in enumerate_all_trees(4):
            by_edges.setdefault(len(t.edges), 0)
            by_edges[len(t.edges)] += 1
        assert by_edges[1] == 2  # edge-only, stump
        assert by_edges[2] == 2  # unary open, unary capped
        assert by_edges[3] == 5

    def test_deterministic(self):
        a = enumerate_all_trees(4)
        b = enumerate_all_trees(4)
        assert a == b

    @pytest.mark.parametrize("max_edges", range(7))
    def test_ordered_by_edge_count_then_code(self, max_edges):
        keys = [(len(t.edges), canonical_form(t))
                for t in enumerate_all_trees(max_edges)]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("max_edges", range(7))
    def test_named_canonically(self, max_edges):
        for t in enumerate_all_trees(max_edges):
            assert t == relabel_canonical(t)

    def test_counts_by_edge_budget(self):
        assert [len(enumerate_all_trees(m)) for m in range(7)] == \
            [0, 2, 4, 9, 22, 59, 167]


def roundtrip(tree):
    return tree_from_json(json.loads(json.dumps(tree_to_json(tree))))


class TestSerialization:
    def test_roundtrip(self):
        t = Tree(["r", "a", "b"], "r", [("r", ["a", "b"]), ("a", [])])
        assert roundtrip(t) == t

    @given(random_trees())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_random(self, t):
        back = roundtrip(t)
        assert are_isomorphic(t, back) is not None


class TestRelabel:
    def test_canonical_relabel_names(self):
        t = relabel_canonical(corolla(2), prefix="x")
        assert t.root == "x0"
        assert t.edges == frozenset({"x0", "x1", "x2"})
