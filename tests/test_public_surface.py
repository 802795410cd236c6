"""Every exported name, and every public method and property of an
exported class, is reached by the library or by the acceptance tests.

A name that only its own unit tests call is dead surface: it costs lines
and review, and nothing the verifier reports depends on it.  Names kept on
purpose are listed below, each with its reason, and some other test module
loads each of them.

A name counts as reached when a chain of loads leads to it from a root.
The roots are the `dendron check` entry point, `cli.main`, and the names
that the acceptance tests load.  From a reached name, every name that its
top-level definition loads is reached in turn.  A name on the keep-list is
not a root: a name that only a kept name loads needs its own entry.

A method or property counts as reached when its name is read as an
attribute in those sources, outside a function of the same name: a method
that calls its namesake on its parts does not reach itself.  When two or
more exported classes define the name, a read counts for one class only
when it is attributed to that class: `self.<name>` or `cls.<name>` inside
it, or `<Class>.<name>`, resolved along the method resolution order.  So
one class's readers cannot hide another class's dead method.
"""

import ast
import collections
import inspect
import pathlib

import dendron

KEEP = {
    "are_equivariant_isomorphic": "decides G-tree isomorphism, a paper "
                                  "notion the unit tests check",
    "are_isomorphic": "test fixture: compares trees up to renaming",
    "check_tau_naturality": "naturality of the tree comparison cells",
    "compose_groth": "functoriality of F, checked on the Grothendieck "
                     "construction",
    "corolla": "test fixture: the corolla with n leaves",
    "corolla_glabeled": "a fixture of TestOplaxCoherenceG: the corolla "
                        "probes of standard_probes (kept)",
    "discrete_category": "the only builder of check_equivalence test inputs",
    "equivariant_isomorphisms": "the isomorphisms behind "
                                "are_equivariant_isomorphic (kept)",
    "equivariant_split_orbit": "the orbit degeneracy generator; "
                               "standard_probes (kept) builds its unary "
                               "probes with it",
    "groth_identity": "functoriality of F, checked on the Grothendieck "
                      "construction",
    "group_to_json": "the fixture that writes the group files that "
                     "--group FILE and TestGroupFuzz read",
    "gset_pointed_category": "the base category of gtree_oplax_data (kept)",
    "gtree_oplax_data": "the Omega^G oplax data whose coherence "
                        "TestOplaxCoherenceG checks on z2",
    "identity": "test fixture: the identity morphism of a tree",
    "is_genuine": "decides genuineness, a paper notion the unit tests check",
    "linear_tree": "test fixture: the linear tree with k edges",
    "phi_star_mor": "F on morphisms: the reference that the shortcut "
                    "cells are checked against",
    "q_star_compare": "composite pullbacks along orbit maps",
    "skeletal_gsets": "the objects of gset_pointed_category (kept)",
    "split_edge": "the degeneracy generator; equivariant_split_orbit (kept) "
                  "splits each edge of an orbit with it",
    "standard_probes": "a fixture of TestOplaxCoherenceG: the probes whose "
                       "oplax data it checks",
    "tau_comp": "the composition comparison cell: the reference that the "
                "shortcut cells are checked against",
    "tau_id": "the unit comparison cell: the reference that the shortcut "
              "cells are checked against",
    "transitive_gsets": "the orbit types skeletal_gsets (kept) is built from",
}

# "Class.name" of a public method or property kept on purpose -> reason
METHODS_KEEP = {
    "CoherenceReport.ok": "the coherence verdict, read by suite_coherence",
    "EquivalenceReport.ok": "the one-object groupoid verdict, read by "
                            "suite_genuine",
    "FcFunctor.validate": "the functor laws; bh_to_coset_groupoid checks "
                          "the functor it builds",
    "FiniteCategory.validate": "the category laws; coset_groupoid checks "
                               "the category it builds",
    "FiniteGroup.identity": "the neutral element, read as group.identity "
                            "in groups, gtrees and forests",
    "GLabeledTree.leaf_of": "the leaf a label names, read on values of "
                            "either labeled class",
    "GSet.act": "the action of one element on one point, read on G-set "
                "values in groups, gtrees and forests",
    "LabeledTree.leaf_of": "the leaf a label names, read on values of "
                           "either labeled class",
}


def _definitions(source):
    """Each top-level function, class and assignment target of a module
    source -> the names its definition loads.  A definition's references to
    itself, and to names it binds (parameters and assignment targets), are
    not loads."""
    out = collections.defaultdict(set)
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names, body = [stmt.name], stmt
        elif isinstance(stmt, ast.Assign):
            names = [n.id for t in stmt.targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
            body = stmt.value
        else:
            continue
        nodes = list(ast.walk(body))
        bound = {n.arg for n in nodes if isinstance(n, ast.arg)} | {
            n.id for n in nodes
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        loads = {n.id for n in nodes
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for name in names:
            out[name] |= loads - bound - {name}
    return out


def _reached(library, roots):
    """The names reached from roots by following, name by name, the loads
    of the definitions in the library sources."""
    loads = collections.defaultdict(set)
    for source in library:
        for name, names in _definitions(source).items():
            loads[name] |= names
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(loads[name])
    return reached


def _attribute_reads(source, classes):
    """(owner, name) for each attribute read in a module source, except
    reads inside a function called `name`.  The owner is the enclosing
    class for `self.<name>` and `cls.<name>`, the named class for
    `<Class>.<name>` with Class in `classes`, and None otherwise."""
    reads = set()

    def visit(node, owner, functions):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions = functions | {node.name}
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load) and node.attr not in functions:
            on = node.value.id if isinstance(node.value, ast.Name) else None
            reads.add((owner if on in ("self", "cls")
                       else on if on in classes else None, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, functions)

    visit(ast.parse(source), None, frozenset())
    return reads


def _library():
    package = pathlib.Path(dendron.__file__).parent
    return [p.read_text() for p in package.glob("*.py")
            if p.name != "__init__.py"]


def _acceptance():
    return (pathlib.Path(__file__).parent / "test_acceptance.py").read_text()


def _sources():
    return _library() + [_acceptance()]


def _unreached():
    # main is the console script `dendron` (pyproject.toml)
    roots = {"main"}.union(*_definitions(_acceptance()).values())
    reached = _reached(_library(), roots)
    return {n for n in dendron.__all__
            if not inspect.ismodule(getattr(dendron, n)) and n not in reached}


def _classes():
    return {c: getattr(dendron, c) for c in dendron.__all__
            if inspect.isclass(getattr(dendron, c))}


def _public_members():
    """(class, name) for each public method and property that an exported
    class defines itself."""
    return {(c, name) for c, cls in _classes().items()
            for name, v in vars(cls).items()
            if not name.startswith("_") and (
                inspect.isfunction(v) or isinstance(
                    v, (property, classmethod, staticmethod)))}


def _definer(cls, name):
    """The class whose definition `cls.<name>` finds."""
    return next((k.__name__ for k in cls.__mro__ if name in vars(k)),
                cls.__name__)


def _unread_members():
    classes = _classes()
    members = _public_members()
    definers = collections.Counter(name for _, name in members)
    reads = set().union(*(_attribute_reads(s, classes) for s in _sources()))
    attributed = {(_definer(classes[owner], name), name)
                  for owner, name in reads if owner in classes}
    anywhere = {name for _, name in reads}
    return {f"{c}.{name}" for c, name in members
            if (c, name) not in attributed
            and (definers[name] > 1 or name not in anywhere)}


def test_every_export_is_reached_or_kept_on_purpose():
    assert sorted(_unreached() - set(KEEP)) == []


def test_the_keep_list_holds_only_unreached_exports():
    assert sorted(set(KEEP) - _unreached()) == []


def _test_loads():
    """The names the other test modules load, a name imported under an
    alias counting as loaded when the alias is."""
    loaded = set()
    here = pathlib.Path(__file__)
    for path in here.parent.glob("test_*.py"):
        if path == here:
            continue
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = {n.id for n in nodes
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        aliases = {a.asname: a.name for n in nodes
                   if isinstance(n, ast.ImportFrom) for a in n.names
                   if a.asname}
        loaded |= names | {aliases[n] for n in names & set(aliases)}
    return loaded


def test_every_kept_name_is_loaded_by_a_test():
    assert sorted(set(KEEP) - _test_loads()) == []


def test_names_a_definition_binds_are_not_uses():
    source = (
        "def close(identity, rows):\n"
        "    corolla = rows[0]\n"
        "    return identity, corolla, graft\n"
        "def again():\n"
        "    return again, hom_set\n"
        "TABLE = {k: hom_set for k in keys}\n")
    assert _definitions(source) == {"close": {"graft"}, "again": {"hom_set"},
                                    "TABLE": {"hom_set", "keys"}}


def test_reach_starts_from_the_roots_only():
    source = (
        "def main():\n"
        "    return run()\n"
        "def run():\n"
        "    return SUITES\n"
        "SUITES = {'a': suite}\n"
        "def suite():\n"
        "    pass\n"
        "def kept():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return suite\n")
    assert _reached([source], {"main"}) == {"main", "run", "SUITES", "suite"}


def test_every_public_member_is_read_or_kept_on_purpose():
    assert sorted(_unread_members() - set(METHODS_KEEP)) == []


def test_the_member_keep_list_holds_only_unread_members():
    assert sorted(set(METHODS_KEEP) - _unread_members()) == []


def test_reads_are_attributed_to_a_class():
    source = (
        "class A:\n"
        "    def is_identity(self):\n"
        "        return all(f.is_identity() for f in self.parts)\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls.unit, B.unit, x.size\n"
        "def use(a):\n"
        "    return a.is_identity()\n")
    assert _attribute_reads(source, {"A", "B"}) == {
        ("A", "parts"), ("A", "unit"), ("B", "unit"), (None, "size"),
        (None, "is_identity")}


def test_members_cover_methods_and_properties():
    members = _public_members()
    assert {("Tree", "le"), ("Tree", "depth"), ("GSet", "size"),
            ("GSet", "from_generator_rows")} <= members
    assert not any(name.startswith("_") for _, name in members)
