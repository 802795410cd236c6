"""Finite categories, Cat-valued oplax functors, and Grothendieck gluings.

A FiniteCategory is a composition table over named morphisms; it is the
carrier both for small base categories and for toy fiber categories.  An
oplax functor into Cat is represented by callbacks (apply to an object,
apply to a morphism, comparison cells) plus a finite probe set per base
object, so that fibers may well be infinite while every check stays finite.

Two Grothendieck constructions are provided.  The first glues an oplax
functor with fiber arrows F(f)(x) -> y and base arrows running against the
pair direction; the second needs invertible comparison cells and uses fiber
arrows x -> F(f)(y) with base arrows running along it.  Both can be
materialized as finite categories from the probe sets, and a checker
verifies functors between finite categories for fullness, faithfulness and
essential surjectivity, reporting witnesses for whatever fails.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .trees import sort_key


class CategoryError(ValueError):
    pass


class NotComposable(CategoryError):
    pass


class EndpointMismatch(CategoryError):
    pass


class TauNotInvertible(CategoryError):
    pass


@dataclass(frozen=True)
class FcMor:
    """A named arrow of a finite category.

    The hash is computed on first use and kept, so an arrow whose name
    cannot be hashed can still be built.
    """

    name: object
    src: object
    dst: object

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.name, self.src, self.dst))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        # a copy rebuilds its hash: another process may seed str hashes
        # differently
        return FcMor, (self.name, self.src, self.dst)

    def __repr__(self):
        return f"{self.name!r}: {self.src!r}->{self.dst!r}"


class FiniteCategory:
    """Objects, arrows, identities and an explicit composition table.

    The table maps (f, g) to the diagrammatic composite "f then g"; only
    composable pairs may appear.
    """

    def __init__(self, objects, morphisms, table, identities):
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self.table = dict(table)
        self.identities = dict(identities)
        self._hom = {}
        self._by_src = {}
        for m in self.morphisms:
            self._hom.setdefault((m.src, m.dst), []).append(m)
            self._by_src.setdefault(m.src, []).append(m)

    def hom(self, a, b):
        return tuple(self._hom.get((a, b), ()))

    def identity(self, a):
        return self.identities[a]

    def compose(self, f, g):
        """Diagrammatic: first f, then g."""
        if f.dst != g.src:
            raise NotComposable(f"{f!r} then {g!r}")
        return self.table[(f, g)]

    def composable_pairs(self):
        for f in self.morphisms:
            yield from ((f, g) for g in self._by_src.get(f.dst, ()))

    def composable_triples(self):
        for f, g in self.composable_pairs():
            for h in self._by_src.get(g.dst, ()):
                yield f, g, h

    def is_identity_mor(self, f):
        return f.src == f.dst and self.identities.get(f.src) == f

    def inverse(self, f):
        """Two-sided inverse, or None."""
        for g in self.hom(f.dst, f.src):
            if self.compose(f, g) == self.identity(f.src) \
                    and self.compose(g, f) == self.identity(f.dst):
                return g
        return None

    def is_iso(self, f):
        return self.inverse(f) is not None

    def isos(self, a, b):
        return tuple(f for f in self.hom(a, b) if self.is_iso(f))

    def validate(self):
        objs = set(self.objects)
        for m in self.morphisms:
            if m.src not in objs or m.dst not in objs:
                raise CategoryError(f"dangling endpoint on {m!r}")
        mors = set(self.morphisms)
        if len(mors) != len(self.morphisms):
            raise CategoryError("duplicate morphisms")
        for a in self.objects:
            i = self.identities.get(a)
            if i is None or i.src != a or i.dst != a or i not in mors:
                raise CategoryError(f"bad identity at {a!r}")
        for f, g in self.composable_pairs():
            h = self.table.get((f, g))
            if h is None or h not in mors:
                raise CategoryError(f"missing composite {f!r};{g!r}")
            if h.src != f.src or h.dst != g.dst:
                raise CategoryError(f"composite endpoints wrong for {f!r};{g!r}")
        for (f, g) in self.table:
            if f.dst != g.src:
                raise CategoryError("table entry for a non-composable pair")
        for m in self.morphisms:
            if self.compose(self.identity(m.src), m) != m \
                    or self.compose(m, self.identity(m.dst)) != m:
                raise CategoryError(f"unit law fails at {m!r}")
        for f, g, h in self.composable_triples():
            if self.compose(self.compose(f, g), h) \
                    != self.compose(f, self.compose(g, h)):
                raise CategoryError(f"associativity fails at {f!r};{g!r};{h!r}")
        return self

    def opposite(self):
        flip = {m: FcMor(m.name, m.dst, m.src) for m in self.morphisms}
        table = {(flip[g], flip[f]): flip[h]
                 for (f, g), h in self.table.items()}
        idents = {a: flip[i] for a, i in self.identities.items()}
        return FiniteCategory(self.objects, flip.values(), table, idents)

    def __repr__(self):
        return (f"<FiniteCategory {len(self.objects)} objects "
                f"{len(self.morphisms)} morphisms>")


def discrete_category(objects):
    objects = tuple(objects)
    idents = {a: FcMor(("id", a), a, a) for a in objects}
    table = {(i, i): i for i in idents.values()}
    return FiniteCategory(objects, idents.values(), table, idents)


def group_category(elements, mul, unit, obj="*"):
    """A group as a one-object category; arrows composed diagrammatically."""
    mors = {e: FcMor(e, obj, obj) for e in elements}
    table = {(mors[a], mors[b]): mors[mul(b, a)]
             for a in elements for b in elements}
    return FiniteCategory([obj], mors.values(), table, {obj: mors[unit]})


class FcFunctor:
    """A functor between finite categories, given by explicit tables."""

    def __init__(self, src_cat, dst_cat, ob, mor):
        self.src_cat = src_cat
        self.dst_cat = dst_cat
        self.ob = dict(ob)
        self.mor = dict(mor)

    def __call__(self, x):
        if isinstance(x, FcMor):
            return self.mor[x]
        return self.ob[x]

    def validate(self):
        if set(self.ob) != set(self.src_cat.objects):
            raise CategoryError("object map must be total")
        if set(self.mor) != set(self.src_cat.morphisms):
            raise CategoryError("morphism map must be total")
        for a, fa in self.ob.items():
            if fa not in self.dst_cat.objects:
                raise CategoryError(f"object image {fa!r} not in the target")
        for m, fm in self.mor.items():
            if fm.src != self.ob[m.src] or fm.dst != self.ob[m.dst]:
                raise CategoryError(f"image of {m!r} has wrong endpoints")
        for a in self.src_cat.objects:
            if self.mor[self.src_cat.identity(a)] \
                    != self.dst_cat.identity(self.ob[a]):
                raise CategoryError(f"identity at {a!r} not preserved")
        for f, g in self.src_cat.composable_pairs():
            if self.mor[self.src_cat.compose(f, g)] \
                    != self.dst_cat.compose(self.mor[f], self.mor[g]):
                raise CategoryError(f"composition not preserved at {f!r};{g!r}")
        return self


def identity_functor(cat):
    return FcFunctor(cat, cat, {a: a for a in cat.objects},
                     {m: m for m in cat.morphisms})


def compose_functors(first, second):
    """Diagrammatic: first, then second."""
    if first.dst_cat is not second.src_cat:
        raise EndpointMismatch("functors do not compose")
    return FcFunctor(first.src_cat, second.dst_cat,
                     {a: second.ob[fa] for a, fa in first.ob.items()},
                     {m: second.mor[fm] for m, fm in first.mor.items()})


def is_natural(first, second, components):
    """Check a family of arrows as a natural transformation first => second."""
    cat = first.src_cat
    for a in cat.objects:
        c = components[a]
        if c.src != first.ob[a] or c.dst != second.ob[a]:
            return False
    dst = first.dst_cat
    return all(dst.compose(first.mor[m], components[m.dst])
               == dst.compose(components[m.src], second.mor[m])
               for m in cat.morphisms)


def whisker_functor_nat(functor, components):
    """Precompose: the component at a is the original one at functor(a)."""
    return {a: components[functor.ob[a]] for a in functor.src_cat.objects}


def whisker_nat_functor(components, functor):
    """Postcompose: apply the functor to every component."""
    return {a: functor.mor[c] for a, c in components.items()}


@dataclass
class OplaxFunctorData:
    """An oplax assignment of categories to a finite base, via callbacks.

    For an arrow f: a -> b of the base, app_obj(f, x) applies the induced
    functor F(f): F(b) -> F(a) to a fiber object and app_mor(f, m, x, y)
    applies it to a fiber arrow m: x -> y.  tau_comp(f, g, x) is the
    comparison F(gf)(x) -> F(f)(F(g)(x)) for x over g.dst, and
    tau_id(a, x) the comparison F(id_a)(x) -> x.  fiber_objects(a) yields
    the finite probe set used by exhaustive checks.
    """

    base: FiniteCategory
    fiber_objects: callable
    app_obj: callable
    app_mor: callable
    tau_comp: callable
    tau_id: callable
    fiber_compose: callable
    fiber_identity: callable
    fiber_hom: callable
    tau_comp_inv: callable = None

    def tau_inverse(self, f, g, x):
        """Invert the comparison cell at x, searching if no inverse given."""
        if self.tau_comp_inv is not None:
            return self.tau_comp_inv(f, g, x)
        fwd = self.tau_comp(f, g, x)
        a = f.src
        gf = self.base.compose(f, g)
        lo = self.app_obj(gf, x)
        hi = self.app_obj(f, self.app_obj(g, x))
        for cand in self.fiber_hom(a, hi, lo):
            if self.fiber_compose(a, fwd, cand) == self.fiber_identity(a, lo) \
                    and self.fiber_compose(a, cand, fwd) \
                    == self.fiber_identity(a, hi):
                return cand
        raise TauNotInvertible(f"no inverse for tau at {f!r},{g!r},{x!r}")


def strict_oplax_data(base, fibers, ob_maps, mor_maps):
    """Wrap a strict Cat-valued functor: all comparison cells identities.

    fibers: base object -> FiniteCategory; ob_maps/mor_maps: base arrow ->
    dict giving the functor F(f): fibers[f.dst] -> fibers[f.src].
    """
    def app_obj(f, x):
        return ob_maps[f][x]

    def app_mor(f, m, x=None, y=None):
        return mor_maps[f][m]

    return OplaxFunctorData(
        base=base,
        fiber_objects=lambda a: tuple(fibers[a].objects),
        app_obj=app_obj,
        app_mor=app_mor,
        tau_comp=lambda f, g, x: fibers[f.src].identity(
            app_obj(f, app_obj(g, x))),
        tau_id=lambda a, x: fibers[a].identity(x),
        fiber_compose=lambda a, m1, m2: fibers[a].compose(m1, m2),
        fiber_identity=lambda a, x: fibers[a].identity(x),
        fiber_hom=lambda a, x, y: fibers[a].hom(x, y),
    )


def check_oplax_units(F, f, x):
    """Both unit triangles for an arrow f: a -> b, at a probe x over b."""
    a, b = f.src, f.dst
    base = F.base
    fx = F.app_obj(f, x)
    ident = F.fiber_identity(a, fx)
    left = F.fiber_compose(a, F.tau_comp(base.identity(a), f, x),
                           F.tau_id(a, fx))
    if left != ident:
        return False
    idb = base.identity(b)
    right = F.fiber_compose(a, F.tau_comp(f, idb, x),
                            F.app_mor(f, F.tau_id(b, x),
                                      F.app_obj(idb, x), x))
    return right == ident


def check_coherence_square(F, f, g, h, x):
    """The associativity square for a composable triple, at a probe x.

    f: a -> b, g: b -> c, h: c -> d; x lives over d.  Compares collapsing
    the outer pair first against collapsing the inner pair first.
    """
    if f.dst != g.src or g.dst != h.src:
        raise NotComposable("triple does not compose")
    base = F.base
    a = f.src
    gf = base.compose(f, g)
    hg = base.compose(g, h)
    hx = F.app_obj(h, x)
    one = F.fiber_compose(a, F.tau_comp(gf, h, x), F.tau_comp(f, g, hx))
    cell = F.tau_comp(g, h, x)
    lo = F.app_obj(hg, x)
    hi = F.app_obj(g, hx)
    two = F.fiber_compose(a, F.tau_comp(f, hg, x),
                          F.app_mor(f, cell, lo, hi))
    return one == two


def check_oplax_coherence(F, f, g, h, x):
    """The coherence square for f,g,h plus unit triangles for all three.

    f: a -> b, g: b -> c, h: c -> d must be composable; x is a probe over d.
    The triangles are taken at the objects the square itself visits: x for
    h, the image of x under h for g, and the image under the composite of
    g and h for f.
    """
    if not check_coherence_square(F, f, g, h, x):
        return False
    hx = F.app_obj(h, x)
    lo = F.app_obj(F.base.compose(g, h), x)
    return (check_oplax_units(F, h, x)
            and check_oplax_units(F, g, hx)
            and check_oplax_units(F, f, lo))


@dataclass
class CoherenceReport:
    squares: int = 0
    triangles: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def check_all_coherence(F, max_failures=20):
    """Check every unit triangle and every associativity square.

    Triangles are checked for each arrow at each probe over its target
    and at each object a square visits; identical triangles shared by
    many triples are checked once.  Squares are checked for every
    composable triple at every probe over the triple's target.
    """
    report = CoherenceReport()
    base = F.base
    seen = set()

    def units(f, x):
        if (f, x) in seen:
            return
        seen.add((f, x))
        report.triangles += 1
        if not check_oplax_units(F, f, x):
            if len(report.failures) < max_failures:
                report.failures.append(("triangle", f, x))

    for f in base.morphisms:
        for x in F.fiber_objects(f.dst):
            units(f, x)
    for f, g, h in base.composable_triples():
        probes = F.fiber_objects(h.dst)
        if not probes:
            continue
        hg = base.compose(g, h)
        for x in probes:
            report.squares += 1
            units(h, x)
            units(g, F.app_obj(h, x))
            units(f, F.app_obj(hg, x))
            if not check_coherence_square(F, f, g, h, x):
                if len(report.failures) < max_failures:
                    report.failures.append(("square", f, g, h, x))
    return report


def check_tau_naturality(F, f, g, m, x, y):
    """The naturality square of the comparison cell against m: x -> y."""
    a = f.src
    gf = F.base.compose(f, g)
    gm = F.app_mor(g, m, x, y)
    one = F.fiber_compose(a, F.app_mor(gf, m, x, y),
                          F.tau_comp(f, g, y))
    two = F.fiber_compose(a, F.tau_comp(f, g, x),
                          F.app_mor(f, gm, F.app_obj(g, x), F.app_obj(g, y)))
    return one == two


@dataclass(frozen=True)
class GrothMorphism:
    """An arrow of a glued category: a base arrow plus a fiber arrow."""

    src: tuple
    dst: tuple
    base: FcMor
    fiber: object


def groth_identity(F, a, x):
    """Identity on (a, x): the identity base arrow with the tau_id fiber."""
    return GrothMorphism((a, x), (a, x), F.base.identity(a), F.tau_id(a, x))


def groth_compose(F, first, second):
    """Glued composition, fiber arrows pointing F(f)(x) -> y.

    The base arrows run against the pair direction, so the composite's base
    arrow is second.base then first.base; the fiber is the comparison cell
    followed by the pushed first fiber, followed by the second fiber.
    """
    if first.dst != second.src:
        raise EndpointMismatch("glued morphisms do not compose")
    (a, x), (b, y) = first.src, first.dst
    c, z = second.dst
    f, g = first.base, second.base
    fg = F.base.compose(g, f)
    cell = F.tau_comp(g, f, x)
    pushed = F.app_mor(g, first.fiber, F.app_obj(f, x), y)
    fiber = F.fiber_compose(c, F.fiber_compose(c, cell, pushed), second.fiber)
    return GrothMorphism((a, x), (c, z), fg, fiber)


def groth_identity_pseudo(F, a, x):
    """Identity on (a, x) in the along-direction gluing.

    The fiber arrow must run x -> F(id_a)(x), so it is the inverse of the
    tau_id component; for a strict-on-identities functor that is id_x.
    """
    ida = F.base.identity(a)
    fwd = F.tau_id(a, x)
    lo = F.app_obj(ida, x)
    if fwd == F.fiber_identity(a, x) and lo == x:
        return GrothMorphism((a, x), (a, x), ida, fwd)
    for cand in F.fiber_hom(a, x, lo):
        if F.fiber_compose(a, fwd, cand) == F.fiber_identity(a, lo) \
                and F.fiber_compose(a, cand, fwd) == F.fiber_identity(a, x):
            return GrothMorphism((a, x), (a, x), ida, cand)
    raise TauNotInvertible(f"identity cell not invertible at {a!r},{x!r}")


def groth_compose_pseudo(F, first, second):
    """Glued composition, fiber arrows pointing x -> F(f)(y)."""
    if first.dst != second.src:
        raise EndpointMismatch("glued morphisms do not compose")
    (a, x), (b, y) = first.src, first.dst
    c, z = second.dst
    f, g = first.base, second.base
    gf = F.base.compose(f, g)
    gz = F.app_obj(g, z)
    pushed = F.app_mor(f, second.fiber, y, gz)
    back = F.tau_inverse(f, g, z)
    fiber = F.fiber_compose(a, F.fiber_compose(a, first.fiber, pushed), back)
    return GrothMorphism((a, x), (c, z), gf, fiber)


def _materialize(F, objects, arrows, identity_of, compose_raw):
    by_name = {}
    mors = []
    for gm in arrows:
        m = FcMor((gm.base, gm.fiber), gm.src, gm.dst)
        if m.name in by_name:
            raise CategoryError(f"duplicate glued arrow {m!r}")
        by_name[m.name] = m
        mors.append(m)
    table = {}
    for m1 in mors:
        for m2 in mors:
            if m1.dst != m2.src:
                continue
            g1 = GrothMorphism(m1.src, m1.dst, m1.name[0], m1.name[1])
            g2 = GrothMorphism(m2.src, m2.dst, m2.name[0], m2.name[1])
            out = compose_raw(F, g1, g2)
            key = (out.base, out.fiber)
            if key not in by_name:
                raise CategoryError(
                    f"composite {key!r} missing from the glued arrows")
            table[(m1, m2)] = by_name[key]
    idents = {}
    for ob in objects:
        gm = identity_of(F, *ob)
        idents[ob] = by_name[(gm.base, gm.fiber)]
    return FiniteCategory(objects, mors, table, idents)


def groth_objects(F):
    return tuple((a, x) for a in F.base.objects for x in F.fiber_objects(a))


def groth_category(F):
    """Materialize the against-direction gluing over the probe objects."""
    objects = groth_objects(F)
    arrows = []
    for (a, x) in objects:
        for (b, y) in objects:
            for f in F.base.hom(b, a):
                for alpha in F.fiber_hom(b, F.app_obj(f, x), y):
                    arrows.append(GrothMorphism((a, x), (b, y), f, alpha))
    return _materialize(F, objects, arrows, groth_identity, groth_compose)


def groth_category_pseudo(F):
    """Materialize the along-direction gluing over the probe objects."""
    objects = groth_objects(F)
    arrows = []
    for (a, x) in objects:
        for (b, y) in objects:
            for f in F.base.hom(a, b):
                for alpha in F.fiber_hom(a, x, F.app_obj(f, y)):
                    arrows.append(GrothMorphism((a, x), (b, y), f, alpha))
    return _materialize(F, objects, arrows, groth_identity_pseudo,
                        groth_compose_pseudo)


def precompose_oplax(F, G):
    """Pull an oplax assignment back along a base functor G: J -> I."""
    return OplaxFunctorData(
        base=G.src_cat,
        fiber_objects=lambda j: F.fiber_objects(G.ob[j]),
        app_obj=lambda f, x: F.app_obj(G.mor[f], x),
        app_mor=lambda f, m, x=None, y=None: F.app_mor(G.mor[f], m, x, y),
        tau_comp=lambda f, g, x: F.tau_comp(G.mor[f], G.mor[g], x),
        tau_id=lambda j, x: F.tau_id(G.ob[j], x),
        fiber_compose=lambda j, m1, m2: F.fiber_compose(G.ob[j], m1, m2),
        fiber_identity=lambda j, x: F.fiber_identity(G.ob[j], x),
        fiber_hom=lambda j, x, y: F.fiber_hom(G.ob[j], x, y),
        tau_comp_inv=None if F.tau_comp_inv is None else
        (lambda f, g, x: F.tau_comp_inv(G.mor[f], G.mor[g], x)),
    )


def reindex(G, F):
    """The change-of-base functor between glued categories.

    Sends (j, x) to (G(j), x) and keeps the fiber arrow; returns the
    functor from the gluing of the pullback to the gluing of F.
    """
    pulled = precompose_oplax(F, G)
    src = groth_category(pulled)
    dst = groth_category(F)
    ob = {(j, x): (G.ob[j], x) for (j, x) in src.objects}
    mor = {}
    for m in src.morphisms:
        f, alpha = m.name
        mor[m] = FcMor((G.mor[f], alpha), ob[m.src], ob[m.dst])
    missing = set(mor.values()) - set(dst.morphisms)
    if missing:
        raise CategoryError(f"reindexed arrows missing: {sorted(missing, key=repr)[:3]}")
    return FcFunctor(src, dst, ob, mor)


@dataclass
class EquivalenceReport:
    full: bool
    faithful: bool
    essentially_surjective: bool
    witnesses: dict

    @property
    def ok(self):
        return self.full and self.faithful and self.essentially_surjective


def check_equivalence(functor):
    """Exhaustively test a functor between finite categories."""
    src, dst = functor.src_cat, functor.dst_cat
    witnesses = {}
    full = faithful = True
    for a, b in itertools.product(src.objects, repeat=2):
        fa, fb = functor.ob[a], functor.ob[b]
        images = [functor.mor[m] for m in src.hom(a, b)]
        if len(set(images)) != len(images) and faithful:
            faithful = False
            witnesses["faithful"] = (a, b)
        if set(images) != set(dst.hom(fa, fb)) and full:
            full = False
            witnesses["full"] = (a, b)
    ess = True
    hit = set(functor.ob.values())
    for d in dst.objects:
        if d in hit:
            continue
        if not any(dst.isos(functor.ob[c], d) for c in src.objects):
            ess = False
            witnesses["essentially_surjective"] = d
            break
    return EquivalenceReport(full, faithful, ess, witnesses)
