"""Finite categories and Cat-valued oplax functors.

A FiniteCategory is a composition table over named morphisms; it is the
carrier both for small base categories and for toy fiber categories.  An
oplax functor into Cat is represented by callbacks (apply to an object,
apply to a morphism, comparison cells) plus a finite probe set per base
object, so that fibers may well be infinite while every check stays finite.
A checker verifies functors between finite categories for fullness,
faithfulness and essential surjectivity, reporting witnesses for whatever
fails.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

# failures a coherence report keeps; it counts every cell it checks
MAX_FAILURES = 20


class CategoryError(ValueError):
    pass


class NotComposable(CategoryError):
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

    @classmethod
    def from_homs(cls, objects, hom, then, identity):
        """The category whose arrows a -> b are named by hom(a, b).

        Arrows are listed by source, then target, then name in the order
        hom gives.  then(p, q) names the composite "p then q" of arrows
        named p and q, and identity(a) names the identity at a; table
        values and identities are the listed arrows themselves.
        """
        objects = tuple(objects)
        mors = [FcMor(name, a, b) for a in objects for b in objects
                for name in hom(a, b)]
        canon = {m: m for m in mors}

        def listed(name, a, b):
            m = FcMor(name, a, b)
            if m not in canon:
                raise CategoryError(f"{m!r} is not a listed arrow")
            return canon[m]

        table = {(f, g): listed(then(f.name, g.name), f.src, g.dst)
                 for f in mors for g in mors if f.dst == g.src}
        return cls(objects, mors, table,
                   {a: listed(identity(a), a, a) for a in objects})

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

    def __repr__(self):
        return (f"<FiniteCategory {len(self.objects)} objects "
                f"{len(self.morphisms)} morphisms>")


def discrete_category(objects):
    return FiniteCategory.from_homs(
        objects, lambda a, b: [("id", a)] if a == b else [],
        lambda p, q: p, lambda a: ("id", a))


def group_category(elements, mul, unit, obj="*"):
    """A group as a one-object category; arrows composed diagrammatically."""
    return FiniteCategory.from_homs(
        [obj], lambda a, b: elements, lambda p, q: mul(q, p), lambda a: unit)


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


@dataclass
class OplaxFunctorData:
    """An oplax assignment of categories to a finite base, via callbacks.

    For an arrow f: a -> b of the base, app_obj(f, x) applies the induced
    functor F(f): F(b) -> F(a) to a fiber object and app_mor(f, m, x, y)
    applies it to a fiber arrow m: x -> y.  tau_comp(f, g, x) is the
    comparison F(gf)(x) -> F(f)(F(g)(x)) for x over g.dst, and
    tau_id(a, x) the comparison F(id_a)(x) -> x.  fiber_objects(a) yields
    the finite probe set used by exhaustive checks.  Every callback is
    treated as pure: a checker may reuse what it returned for the same
    arguments.  The fiber arrows the callbacks return may be shared
    between calls (the tree data memoises them), so no caller may mutate
    one, nor an arrow it has passed in.
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


def _side(F, g, h, x):
    """What squares at (g, h, x) share: hg, h.x, (hg).x, g.(h.x), the cell."""
    hg = F.base.compose(g, h)
    hx = F.app_obj(h, x)
    return hg, hx, F.app_obj(hg, x), F.app_obj(g, hx), F.tau_comp(g, h, x)


def check_coherence_square(F, f, g, h, x, gf=None, side=None):
    """The associativity square for a composable triple, at a probe x.

    f: a -> b, g: b -> c, h: c -> d; x lives over d.  Compares collapsing
    the outer pair first against collapsing the inner pair first.  A caller
    may pass gf = f;g and `_side(F, g, h, x)`.
    """
    if f.dst != g.src or g.dst != h.src:
        raise NotComposable("triple does not compose")
    hg, hx, lo, hi, cell = side or _side(F, g, h, x)
    a = f.src
    one = F.fiber_compose(a, F.tau_comp(gf or F.base.compose(f, g), h, x),
                          F.tau_comp(f, g, hx))
    two = F.fiber_compose(a, F.tau_comp(f, hg, x), F.app_mor(f, cell, lo, hi))
    return one == two


@dataclass
class CoherenceReport:
    squares: int = 0
    triangles: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def check_all_coherence(F):
    """Check every unit triangle and every associativity square.

    Triangles come first.  For each object b they are checked for each
    arrow f into b at each distinct y among the probes over b and the
    k.x for k out of b and x over k.dst: every (f, y) a square's sides
    reach, since every arrow out of b is some g;h.  Squares are checked
    for every composable triple f, g, h at each probe x over h.dst,
    visited g, h, x, f: `_side` runs once per (g, h, x) and f;g once per
    (f, g).  Failures list the triangles before the squares.
    """
    report = CoherenceReport()
    base = F.base

    def fail(*failure):
        if len(report.failures) < MAX_FAILURES:
            report.failures.append(failure)

    for b in base.objects:
        ys = dict.fromkeys([*F.fiber_objects(b), *(
            F.app_obj(k, x) for k in base._by_src.get(b, ())
            for x in F.fiber_objects(k.dst))])
        for a in base.objects:
            for f in base.hom(a, b):
                for y in ys:
                    report.triangles += 1
                    if not check_oplax_units(F, f, y):
                        fail("triangle", f, y)
    for g in base.morphisms:
        into = [(f, base.compose(f, g))
                for a in base.objects for f in base.hom(a, g.src)]
        for h in base._by_src.get(g.dst, ()):
            for x in F.fiber_objects(h.dst):
                side = _side(F, g, h, x)
                for f, gf in into:
                    report.squares += 1
                    if not check_coherence_square(F, f, g, h, x, gf, side):
                        fail("square", f, g, h, x)
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
