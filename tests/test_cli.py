import argparse
import copy
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dendron import (cyclic_group, group_to_json, single_edge, tree_to_json,
                     tree_from_json, enumerate_gtrees,
                     is_equivariant_morphism, TreeMorphism, identity,
                     factorize, builtin_group, enumerate_genuine_diagrams,
                     gforest_to_json, gforest_from_json, enumerate_all_trees,
                     BUILTIN_GROUPS, DanglingEdge)
from dendron import cli, forests, morphisms
from dendron.cli import main, SUITES
from dendron.pairs import _workers


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_module(*argv, **env):
    """`python argv` in a fresh process that imports dendron from this
    checkout and runs one worker."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src, "DENDRON_WORKERS": "1", **env}
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


class TestCheckSuites:
    def test_factorization(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        code, _, err = run(capsys, "check", "factorization",
                           "--max-edges", "3", "--output", str(path))
        report = json.loads(path.read_text())
        assert code == 0 and "pass" in err
        assert (report["trees"], report["pairs"],
                report["morphisms"]) == (9, 81, 158)
        assert report["ok"] and report["counterexample"] is None

    def test_coherence(self, capsys):
        code, out, _ = run(capsys, "check", "coherence", "--max-size", "2",
                           "--probe-edges", "3")
        report = json.loads(out)
        assert code == 0 and report["ok"]
        assert (report["squares"], report["triangles"]) == (5331, 401)

    def test_equivalence_lists_hom_sizes(self, capsys):
        code, out, _ = run(capsys, "check", "equivalence",
                           "--max-edges", "3")
        report = json.loads(out)
        assert code == 0 and report["ok"]
        assert report["morphisms"] == 158
        assert report["hom_sizes"][0] == [0, 0, 1]
        assert len(report["hom_sizes"]) == report["pairs"] == 81

    def test_equivariant(self, capsys):
        code, out, _ = run(capsys, "check", "equivariant",
                           "--group", "z2", "--max-edges", "3")
        report = json.loads(out)
        assert code == 0 and report["ok"]
        assert report["trees"] == 11
        assert report["plain_homs"] == 219
        assert report["equivariant_homs"] == report["groth_homs"] == 173

    def test_equivariant_s3_counts(self, capsys):
        t0 = time.monotonic()
        code, out, _ = run(capsys, "check", "equivariant",
                           "--group", "s3", "--max-edges", "4")
        elapsed = time.monotonic() - t0
        report = json.loads(out)
        assert code == 0 and report["ok"]
        assert report["bounds"] == {"max_edges": 4, "per_stratum": None}
        assert report["trees"] == 32
        assert report["plain_homs"] == 2463
        assert report["equivariant_homs"] == report["groth_homs"] == 1504
        assert elapsed < 30, f"s3 equivariant took {elapsed:.1f}s"

    def test_genuine(self, capsys):
        code, out, _ = run(capsys, "check", "genuine", "--group", "z2",
                           "--max-edges", "2")
        report = json.loads(out)
        assert code == 0 and report["ok"]
        assert report["forest_check"]["objects"] == 8
        assert report["forest_check"]["triple_homs"] == 84
        assert report["one_object_groupoid_equivalences"] == {
            "0": True, "0,1": True}

    def test_genuine_s3_counts(self, capsys):
        t0 = time.monotonic()
        code, out, _ = run(capsys, "check", "genuine",
                           "--group", "s3", "--max-edges", "3")
        elapsed = time.monotonic() - t0
        report = json.loads(out)
        assert code == 0 and report["ok"]
        fc = report["forest_check"]
        assert (fc["objects"], fc["pairs"]) == (40, 1600)
        assert fc["forest_homs"] == fc["pair_homs"] == fc["triple_homs"] \
            == 3124
        bh = report["one_object_groupoid_equivalences"]
        assert len(bh) == 6 and all(bh.values())
        assert elapsed < 120, f"s3 genuine took {elapsed:.1f}s"

    def test_genuine_s3_four_edges(self, capsys, monkeypatch):
        monkeypatch.setenv("DENDRON_WORKERS", "2")
        t0 = time.monotonic()
        code, out, _ = run(capsys, "check", "genuine",
                           "--group", "s3", "--max-edges", "4")
        elapsed = time.monotonic() - t0
        report = json.loads(out)
        assert code == 0 and report["ok"]
        fc = report["forest_check"]
        assert (fc["objects"], fc["pairs"]) == (108, 11664)
        assert fc["forest_homs"] == fc["pair_homs"] == fc["triple_homs"] \
            == 27366
        bh = report["one_object_groupoid_equivalences"]
        assert len(bh) == 6 and all(bh.values())
        assert hashlib.sha256(out.encode()).hexdigest().startswith(
            "9241120e")
        assert elapsed < 60, f"s3 genuine at 4 edges took {elapsed:.1f}s"

    @pytest.mark.parametrize("group, objects, homs, groupoids, budget", [
        ("z3", 18, 790, {"0", "0,1,2"}, 20),
        ("z4", 31, 1971, {"0", "0,1,2,3", "0,2"}, 30),
    ], ids=["z3", "z4"])
    def test_genuine_cyclic_counts(self, capsys, group, objects, homs,
                                   groupoids, budget):
        t0 = time.monotonic()
        code, out, _ = run(capsys, "check", "genuine",
                           "--group", group, "--max-edges", "3")
        elapsed = time.monotonic() - t0
        report = json.loads(out)
        assert code == 0 and report["ok"]
        fc = report["forest_check"]
        assert (fc["objects"], fc["pairs"]) == (objects, objects ** 2)
        assert fc["forest_homs"] == fc["pair_homs"] == fc["triple_homs"] \
            == homs
        bh = report["one_object_groupoid_equivalences"]
        assert set(bh) == groupoids and all(bh.values())
        assert elapsed < budget, f"{group} genuine took {elapsed:.1f}s"

    @pytest.mark.parametrize("name", ["v4", "q8"])
    def test_groups_past_s3(self, capsys, name):
        # no tree with at most 4 edges has Q8 among its automorphisms, so
        # every Q8 action on one factors through the quotient V4 and the
        # two groups give the same counts
        path = pathlib.Path(__file__).parent / "groups" / f"{name}.json"
        code, out, _ = run(capsys, "check", "equivariant",
                           "--group", str(path), "--max-edges", "4")
        report = json.loads(out)
        assert code == 0 and report["ok"]
        assert (report["trees"], report["plain_homs"]) == (46, 4637)
        assert report["equivariant_homs"] == report["groth_homs"] == 1865

    @pytest.mark.parametrize("name, objects, homs, subgroups, budget", [
        ("v4", 57, 4107, 5, 15), ("q8", 68, 7780, 6, 30)])
    def test_genuine_past_s3(self, capsys, name, objects, homs, subgroups,
                             budget):
        path = pathlib.Path(__file__).parent / "groups" / f"{name}.json"
        t0 = time.monotonic()
        code, out, _ = run(capsys, "check", "genuine",
                           "--group", str(path), "--max-edges", "3")
        elapsed = time.monotonic() - t0
        report = json.loads(out)
        assert code == 0 and report["ok"]
        fc = report["forest_check"]
        assert (fc["objects"], fc["pairs"]) == (objects, objects ** 2)
        assert fc["forest_homs"] == fc["pair_homs"] == fc["triple_homs"] \
            == homs
        bh = report["one_object_groupoid_equivalences"]
        assert len(bh) == subgroups and all(bh.values())
        assert elapsed < budget, f"{name} genuine took {elapsed:.1f}s"

    def test_group_file_input(self, capsys, tmp_path):
        path = tmp_path / "z3.json"
        path.write_text(json.dumps(group_to_json(cyclic_group(3))))
        code, out, _ = run(capsys, "check", "equivariant",
                           "--group", str(path), "--max-edges", "2")
        report = json.loads(out)
        assert code == 0 and report["ok"]
        assert report["group"] == str(path)


class TestDeterminism:
    def test_reports_are_byte_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "check", "equivalence", "--max-edges", "3",
            "--output", str(a))
        run(capsys, "check", "equivalence", "--max-edges", "3",
            "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_never_changes_the_bytes(self, capsys, tmp_path,
                                                  monkeypatch):
        outs = []
        for workers in ("1", "3"):
            monkeypatch.setenv("DENDRON_WORKERS", workers)
            path = tmp_path / f"w{workers}.json"
            code, _, _ = run(capsys, "check", "factorization",
                             "--max-edges", "3", "--output", str(path))
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_equivariant_bytes_do_not_depend_on_workers(self, capsys,
                                                        tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        outs = []
        for workers in ("1", "3"):
            monkeypatch.setenv("DENDRON_WORKERS", workers)
            path = tmp_path / f"w{workers}.json"
            code, _, _ = run(capsys, "check", "equivariant", "--group", "z2",
                             "--max-edges", "3", "--output", str(path))
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_genuine_bytes_do_not_depend_on_workers(self, capsys, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        outs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("DENDRON_WORKERS", workers)
            path = tmp_path / f"w{workers}.json"
            code, _, _ = run(capsys, "check", "genuine", "--group", "z2",
                             "--max-edges", "3", "--output", str(path))
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("argv", [
        ["coherence", "--max-size", "2", "--probe-edges", "3"],
        ["factorization", "--max-edges", "3"]],
        ids=["coherence", "factorization"])
    def test_hash_seed_never_changes_the_bytes(self, argv):
        # string hashes, and so set orders, vary with the seed; the worker
        # count tests above run in one process under one seed
        outs = []
        for seed in ("0", "1"):
            proc = run_module("-m", "dendron.cli", "check", *argv,
                              PYTHONHASHSEED=seed)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_worker_count_is_clamped_to_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for raw, want in (("1000000", 4), ("3", 3), ("0", 1), ("x", 1)):
            monkeypatch.setenv("DENDRON_WORKERS", raw)
            assert _workers() == want


def _replayed(tree_src, tree_dst, doc):
    """The tree map a counterexample's string-keyed "map" names."""
    src = {str(e): e for e in tree_src.edges}
    dst = {str(e): e for e in tree_dst.edges}
    return TreeMorphism(tree_src, tree_dst,
                        {src[k]: dst[v] for k, v in doc.items()})


class TestInjectedFaults:
    """A broken layer under a pairwise suite gives exit 1 and a
    counterexample naming the failing pair."""

    @pytest.fixture(autouse=True)
    def in_process(self, monkeypatch):
        # a patched name reaches the calling process, not spawned workers
        monkeypatch.setenv("DENDRON_WORKERS", "1")

    def test_factorization_reports_the_map_that_does_not_replay(
            self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "factorize",
                            lambda f, memo=None: factorize(identity(f.src)))
        code, out, err = run(capsys, "check", "factorization",
                             "--max-edges", "2")
        report = json.loads(out)
        assert code == 1 and "FAIL" in err and not report["ok"]
        ce = report["counterexample"]
        trees = cli.enumerate_all_trees(2)
        f = _replayed(trees[ce["src"]], trees[ce["dst"]], ce["map"])
        assert factorize(f).composite() == f
        assert factorize(identity(f.src)).composite() != f

    def test_a_fault_inside_a_suite_is_not_an_input_error(self,
                                                          monkeypatch):
        def broken(tree, out_edge):
            raise DanglingEdge("injected")
        monkeypatch.setattr(morphisms, "collapse_unary", broken)
        with pytest.raises(DanglingEdge, match="injected"):
            main(["check", "factorization", "--max-edges", "3"])

    def test_equivalence_reports_a_projection_that_is_not_a_bijection(
            self, capsys, monkeypatch):
        fixed = identity(single_edge())
        monkeypatch.setattr(cli, "F_functor", lambda m: fixed)
        code, out, _ = run(capsys, "check", "equivalence",
                           "--max-edges", "2")
        report = json.loads(out)
        assert code == 1 and not report["ok"]
        assert report["counterexample"]["reason"] == \
            "projection is not a bijection"

    def test_equivariant_reports_the_map_the_filter_misjudged(
            self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "is_equivariant_morphism",
                            lambda a, b, f: True)
        code, out, _ = run(capsys, "check", "equivariant", "--group", "z2",
                           "--max-edges", "3")
        report = json.loads(out)
        assert code == 1 and not report["ok"]
        ce = report["counterexample"]
        assert ce["reason"] == \
            "factorization replay disagrees with the filter"
        corpus = enumerate_gtrees(cyclic_group(2), 3)
        a, b = corpus[ce["src"]], corpus[ce["dst"]]
        assert not is_equivariant_morphism(
            a, b, _replayed(a.tree, b.tree, ce["map"]))

    def _genuine_counterexample(self, capsys, monkeypatch, name, fake):
        """The counterexample of the genuine suite with forests.name
        patched to fake; _genuine_pair replays it only while the patch
        holds."""
        monkeypatch.setattr(forests, name, fake)
        code, out, _ = run(capsys, "check", "genuine", "--group", "z2",
                           "--max-edges", "2")
        report = json.loads(out)
        assert code == 1 and not report["ok"]
        ce = report["counterexample"]
        assert {"src", "dst", "reason"} <= set(ce)
        corpus = forests._genuine_corpus(cyclic_group(2), 2, None)
        _, bad = forests._genuine_pair(corpus, ce["src"], ce["dst"])
        assert ce in bad
        monkeypatch.undo()
        assert forests._genuine_pair(corpus, ce["src"], ce["dst"])[1] == []
        return ce, corpus

    def test_genuine_reports_assembly_that_misses_forest_homs(
            self, capsys, monkeypatch):
        ce, _ = self._genuine_counterexample(
            capsys, monkeypatch, "forest_hom", lambda src, dst: ())
        assert ce["reason"] == \
            "assembly is not a bijection onto the forest homs"

    def test_genuine_reports_the_orbit_map_label_forgetting_breaks(
            self, capsys, monkeypatch):
        ce, corpus = self._genuine_counterexample(
            capsys, monkeypatch, "eta_morphism", lambda gm: None)
        assert ce["reason"] == "forgetting labels is not a bijection"
        x, y = corpus[ce["src"]][0], corpus[ce["dst"]][0]
        assert set(ce["map"]) == set(map(str, x.base.elements))
        assert set(ce["map"].values()) <= set(map(str, y.base.elements))


@lru_cache(maxsize=None)
def _forest_docs():
    """Documents of small coset diagrams."""
    return tuple(gforest_to_json(d, group_ref=name)
                 for name in ("z2", "z4", "s3")
                 for d in enumerate_genuine_diagrams(builtin_group(name), 3,
                                                     per_stratum=2))


def _containers(node):
    """node and every dict or list below it."""
    yield node
    for child in (node.values() if isinstance(node, dict) else node):
        if isinstance(child, (dict, list)):
            yield from _containers(child)


def _mutate(draw, roots, names, values):
    """Set, delete or swap entries of the containers under roots, one to
    three times; a set may add a key drawn from names."""
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from([c for root in roots
                                     for c in _containers(root)]))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(("set", "delete", "swap")))
        if op == "set":
            fresh = names if isinstance(node, dict) else [len(node)]
            key = draw(st.sampled_from(keys + fresh))
            if key == len(node) and isinstance(node, list):
                node.append(None)
            node[key] = draw(values)
        elif keys and op == "delete":
            del node[draw(st.sampled_from(keys))]
        elif keys:
            a, b = draw(st.sampled_from(keys)), draw(st.sampled_from(keys))
            node[a], node[b] = node[b], node[a]


@st.composite
def _mutated_forest_docs(draw):
    """A forest document with entries under "action" and "isos" set,
    deleted or swapped."""
    doc = copy.deepcopy(draw(st.sampled_from(_forest_docs())))
    names = sorted({v for ms in doc["isos"].values() for m in ms
                    for v in m.values()}) + ["x", "7"]
    values = st.one_of(st.integers(-1, 6), st.sampled_from(names))
    _mutate(draw, [doc["action"], doc["isos"]], names, values)
    return doc


@st.composite
def _mutated_tree_docs(draw):
    """A tree document with any of its entries set, deleted or swapped;
    a value may be a name, a string of names, a list, a bool or null."""
    doc = tree_to_json(draw(st.sampled_from(enumerate_all_trees(4))))
    names = sorted(doc["edges"]) + ["edges", "root", "vertices", "in",
                                    "out", "x"]
    values = st.one_of(st.integers(-1, 3), st.booleans(), st.none(),
                       st.sampled_from(names + ["".join(doc["edges"])]),
                       st.lists(st.sampled_from(names), max_size=3))
    _mutate(draw, [doc], names, values)
    return doc


@st.composite
def _mutated_group_docs(draw):
    """A builtin group's document, some with element names, with any of
    its entries set, deleted or swapped."""
    doc = group_to_json(builtin_group(draw(st.sampled_from(
        sorted(BUILTIN_GROUPS)))))
    if draw(st.booleans()):
        doc["names"] = [f"g{k}" for k in range(doc["order"])]
    keys = ["order", "mult", "names", "x"]
    values = st.one_of(st.integers(-1, 6), st.booleans(), st.none(),
                       st.sampled_from(keys),
                       st.lists(st.integers(-1, 6), max_size=3))
    _mutate(draw, [doc], keys, values)
    return doc


def _assert_reads_or_rejects(reader, doc):
    """The document, as a file would give it, reads; or the reader rejects
    it with a ValueError, which `cli._reading` turns into exit 2.  Any
    other exception fails the test."""
    try:
        reader(json.loads(json.dumps(doc)))
    except ValueError as exc:
        assert "\n" not in str(exc)


class TestForestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_mutated_forest_docs())
    def test_mutated_forests_exit_cleanly(self, doc):
        _assert_reads_or_rejects(gforest_from_json, doc)


def _assert_clean_exit(code, out, err, head):
    assert code in (0, 2)
    if code == 0:
        assert out.startswith(head)
    else:
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


# tree documents an earlier reader took for something else: a string of
# in-edges, a repeated in-edge, a string of edges, a bool edge name
MISREAD_TREES = [
    {"edges": ["r", "x", "y"], "root": "r",
     "vertices": [{"out": "r", "in": "xy"}]},
    {"edges": ["r", "b"], "root": "r",
     "vertices": [{"out": "r", "in": ["b", "b"]}]},
    {"edges": "rb", "root": "r", "vertices": [{"out": "r", "in": ["b"]}]},
    {"edges": ["r", True], "root": "r",
     "vertices": [{"out": "r", "in": [True]}]},
]


class TestTreeFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_mutated_tree_docs())
    @example(MISREAD_TREES[0])
    @example(MISREAD_TREES[1])
    @example(MISREAD_TREES[2])
    @example(MISREAD_TREES[3])
    def test_mutated_trees_exit_cleanly(self, doc):
        _assert_reads_or_rejects(tree_from_json, doc)


class TestDocuments:
    """The tree and forest readers reject what they cannot read with a
    ValueError: one line, which `cli._reading` turns into exit 2."""

    @staticmethod
    def z2_forest(edges, isos):
        """A one-component Z/2 forest document whose root carries the other
        edges; isos are the iso of the non-identity element."""
        return {"group": "z2", "components": [
            {"edges": edges, "root": edges[0],
             "vertices": [{"out": edges[0], "in": edges[1:]}]}],
            "action": {"0": [0], "1": [0]},
            "isos": {"0": [{str(e): e for e in edges}], "1": [isos]}}

    def test_integer_edge_names_read_back(self):
        doc = self.z2_forest([0, 1], {"0": 0, "1": 1})
        forest = gforest_from_json(json.loads(json.dumps(doc)))
        assert forest.trees[0].edges == {0, 1}
        assert forest.isos[(1, 0)] == {0: 0, 1: 1}

    @pytest.mark.parametrize("edges,isos", [
        ([0, 1], {"0": 0, "7": 1}),
        ([0, 1, "1"], {"0": 0, "1": 1})])
    def test_iso_key_must_name_one_edge(self, edges, isos):
        doc = json.loads(json.dumps(self.z2_forest(edges, isos)))
        with pytest.raises(ValueError, match="exactly one edge"):
            gforest_from_json(doc)

    @pytest.mark.parametrize("alias", [None, "01", "\u0661"])
    def test_one_key_per_element(self, alias):
        # the "1" row is no isomorphism; a valid row under another
        # spelling of 1 must not replace it
        doc = self.z2_forest(["r", "a", "b"], {"r": "r", "a": "a", "b": "a"})
        if alias is not None:
            doc["isos"][alias] = [{"r": "r", "a": "a", "b": "b"}]
        with pytest.raises(ValueError):
            gforest_from_json(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("reader, doc", [
        (gforest_from_json,
         {"group": "z2", "components": [tree_to_json(single_edge("e"))],
          "action": {"x": [0]}, "isos": {"0": [{"e": "e"}]}}),
        (gforest_from_json,
         {"group": "z2", "components": [tree_to_json(single_edge("e"))],
          "action": {"0": [0], "1" * 5000: [0]},
          "isos": {"0": [{"e": "e"}], "1": [{"e": "e"}]}}),
        *((tree_from_json, doc) for doc in [
            {"edges": [["x"]], "root": "x", "vertices": []},
            *MISREAD_TREES])])
    def test_malformed_document_is_a_value_error(self, reader, doc):
        with pytest.raises(ValueError) as exc:
            reader(json.loads(json.dumps(doc)))
        assert "\n" not in str(exc.value)


class TestGroupFuzz:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_mutated_group_docs())
    def test_mutated_groups_exit_cleanly(self, capsys, tmp_path,
                                         monkeypatch, doc):
        monkeypatch.setenv("DENDRON_WORKERS", "1")
        path = tmp_path / "group.json"
        path.write_text(json.dumps(doc))
        _assert_clean_exit(*run(capsys, "check", "equivariant", "--group",
                                str(path), "--max-edges", "1"), "{")


class TestExitCodes:
    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--leaves", "2", "--max-vertices", "1"],
        ["export-dot", "tree.json"]], ids=["enumerate", "export-dot"])
    def test_check_is_the_only_command(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_output_in_a_missing_directory_is_an_io_error(self, capsys,
                                                          tmp_path):
        code, _, err = run(capsys, "check", "factorization", "--max-edges",
                           "1", "--output", str(tmp_path / "no" / "r.json"))
        assert code == 2 and err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_output_onto_a_directory_leaves_no_file(self, capsys, tmp_path):
        target = tmp_path / "out"
        target.mkdir()
        code, _, err = run(capsys, "check", "factorization", "--max-edges",
                           "1", "--output", str(target))
        assert code == 2 and err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []

    def test_unknown_group_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "equivariant",
                           "--group", "z9", "--max-edges", "2")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("doc", [{"order": 2},
                                     {"order": 2, "mult": 5},
                                     {"order": 0, "mult": []},
                                     {"order": 1, "mult": [[False]]},
                                     {"order": 2, "mult": [[0, 1], [1, 0]],
                                      "names": [[1], [2]]},
                                     {"order": 2, "mult": [[0, 1], [1, 0]],
                                      "names": ["a", "a"]},
                                     {"order": 2, "mult": [[0, 1], [1, 0]],
                                      "names": [None, {}]}])
    def test_malformed_group_file_is_a_usage_error(self, capsys, tmp_path,
                                                   doc):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", "equivariant",
                           "--group", str(path), "--max-edges", "2")
        assert code == 2 and err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["check", "factorization", "--max-edges", "0"],
        ["check", "factorization", "--max-edges", "-2"],
        ["check", "coherence", "--max-size", "-1"],
        ["check", "coherence", "--probe-edges", "0"],
        ["check", "equivariant", "--per-stratum", "0"]])
    def test_vacuous_bounds_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setitem(
            SUITES, "coherence",
            (lambda args: {"suite": "coherence", "ok": False,
                           "counterexample": "forced"},
             SUITES["coherence"][1]))
        code, out, err = run(capsys, "check", "coherence")
        assert code == 1 and "FAIL" in err
        assert json.loads(out)["counterexample"] == "forced"


# every bound flag of `check`, at its smallest value
SMALLEST = {"max_edges": "1", "max_size": "0", "probe_edges": "1",
            "group": "trivial", "per_stratum": "1"}


def _flag_argv(flags):
    return [a for f in flags for a in ("--" + f.replace("_", "-"),
                                       SMALLEST[f])]


class _ReadRecorder(argparse.Namespace):
    """A namespace that records which of its attributes are read."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


class TestSuiteFlags:
    """`check <suite>` takes exactly the bound flags the suite reads."""

    @pytest.mark.parametrize("suite, flag", [
        (suite, flag) for suite, (_, flags) in SUITES.items()
        for flag in SMALLEST if flag not in flags])
    def test_a_flag_the_suite_does_not_read_is_a_usage_error(
            self, capsys, suite, flag):
        with pytest.raises(SystemExit) as exc:
            main(["check", suite, *_flag_argv([flag])])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command, argv", [
        ("check factorization", ["--max-edges", "1", "--group", "x"])])
    def test_a_stray_flag_gets_the_commands_own_usage(self, capsys, command,
                                                       argv):
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: dendron {command} [-h]")
        assert f"dendron {command}: error: unrecognized arguments: " \
               "--group x" in err

    @pytest.mark.parametrize("suite", SUITES)
    def test_the_suite_reads_every_flag_it_takes(self, monkeypatch, suite):
        monkeypatch.setenv("DENDRON_WORKERS", "1")
        runner, flags = SUITES[suite]
        args = cli.build_parser().parse_args(
            ["check", suite, *_flag_argv(flags)])
        recorder = _ReadRecorder(**vars(args))
        assert runner(recorder)["ok"]
        assert recorder._reads == set(flags)


class TestModuleEntryPoint:
    def test_runs_without_import_order_warnings(self):
        proc = run_module("-W", "error", "-m", "dendron.cli", "check",
                          "genuine", "--max-edges", "1")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ok"]
