"""Every exported name, and every public method and property of an
exported class, is reached by the library or by the acceptance tests.

A name that only its own unit tests call is dead surface: it costs lines
and review, and nothing the verifier reports depends on it.  Names kept on
purpose are listed below, each with its reason.  A method or property
counts as reached when its name is read as an attribute anywhere in those
sources, on whatever object.
"""

import ast
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
    "discrete_category": "the only builder of check_equivalence test inputs",
    "gforest_to_json": "the CLI tests write forest files with it",
    "groth_identity": "functoriality of F, checked on the Grothendieck "
                      "construction",
    "gtree_oplax_data": "the Omega^G oplax data a coherence suite will run",
    "gtree_to_gforest": "test fixture: one-component forests for export-dot",
    "identity": "test fixture: the identity morphism of a tree",
    "is_genuine": "decides genuineness, a paper notion the unit tests check",
    "linear_tree": "test fixture: the linear tree with k edges",
    "q_star_compare": "composite pullbacks along orbit maps",
    "standard_probes": "the probes a G-coherence suite will run",
}

# "Class.name" of a public method or property kept on purpose -> reason
METHODS_KEEP = {}


def _used_names(source):
    """Names loaded in a module source.  A top-level definition's references
    to itself, and to names it binds (parameters and assignment targets),
    are not counted."""
    used = set()
    for stmt in ast.parse(source).body:
        nodes = list(ast.walk(stmt))
        bound = {n.arg for n in nodes if isinstance(n, ast.arg)} | {
            n.id for n in nodes
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        names = {n.id for n in nodes
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        used |= names - bound
    return used


def _sources():
    package = pathlib.Path(dendron.__file__).parent
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources.append(pathlib.Path(__file__).parent / "test_acceptance.py")
    return [p.read_text() for p in sources]


def _unreached():
    used = set().union(*map(_used_names, _sources()))
    return {n for n in dendron.__all__
            if not inspect.ismodule(getattr(dendron, n)) and n not in used}


def _public_members():
    """(class, name) for each public method and property that an exported
    class defines itself."""
    return {(c, name) for c in dendron.__all__
            if inspect.isclass(getattr(dendron, c))
            for name, v in vars(getattr(dendron, c)).items()
            if not name.startswith("_") and (
                inspect.isfunction(v) or isinstance(
                    v, (property, classmethod, staticmethod)))}


def _unread_members():
    read = {n.attr for source in _sources()
            for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return {f"{c}.{name}" for c, name in _public_members() if name not in read}


def test_every_export_is_reached_or_kept_on_purpose():
    assert sorted(_unreached() - set(KEEP)) == []


def test_the_keep_list_holds_only_unreached_exports():
    assert sorted(set(KEEP) - _unreached()) == []


def test_names_a_definition_binds_are_not_uses():
    source = (
        "def close(identity, rows):\n"
        "    corolla = rows[0]\n"
        "    return identity, corolla, graft\n"
        "def again():\n"
        "    return again, hom_set\n")
    assert _used_names(source) == {"graft", "hom_set"}


def test_every_public_member_is_read_or_kept_on_purpose():
    assert sorted(_unread_members() - set(METHODS_KEEP)) == []


def test_the_member_keep_list_holds_only_unread_members():
    assert sorted(set(METHODS_KEEP) - _unread_members()) == []


def test_members_cover_methods_and_properties():
    members = _public_members()
    assert {("Tree", "le"), ("Tree", "depth"), ("GSet", "size"),
            ("GSet", "from_generator_rows")} <= members
    assert not any(name.startswith("_") for _, name in members)
