import dataclasses
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from dendron import (
    CategoryError, FcMor, FiniteCategory, discrete_category, group_category,
    FcFunctor, OplaxFunctorData, check_oplax_units, check_coherence_square,
    check_all_coherence, check_tau_naturality, check_equivalence,
    pointed_category, tree_oplax_data, canonical_labeling,
    enumerate_all_trees, hom_labeled, phi_star_mor,
    tau_comp as built_tau_comp, tau_id as built_tau_id,
    cyclic_group, gset_pointed_category, coset_groupoid, coset_gset,
    subgroups, symmetric_group_3, skeletal_gsets, PointedMap,
    compose_pointed, enumerate_pointed_maps, EquivariantPointedMap,
    enumerate_equivariant_pointed_maps, gtree_oplax_data, standard_probes,
    TreeMorphism,
)
from dendron import oplax, substitution


def cyclic_cat(n, obj="*"):
    return group_category(range(n), lambda a, b: (a + b) % n, 0, obj=obj)


def walking_iso():
    i0, i1 = FcMor(("id", 0), 0, 0), FcMor(("id", 1), 1, 1)
    u, v = FcMor("u", 0, 1), FcMor("v", 1, 0)
    table = {(i0, i0): i0, (i1, i1): i1, (i0, u): u, (u, i1): u,
             (i1, v): v, (v, i0): v, (u, v): i0, (v, u): i1}
    return FiniteCategory([0, 1], [i0, i1, u, v], table, {0: i0, 1: i1})


def tree_probes(max_edges):
    probes = {}
    for t in enumerate_all_trees(max_edges):
        lab = canonical_labeling(t)
        probes.setdefault(len(lab.label_set), []).append(lab)
    return {n: tuple(v) for n, v in probes.items()}


class TestFiniteCategory:
    def test_pointed_category_validates(self):
        cat = pointed_category(2)
        cat.validate()
        assert len(cat.morphisms) == sum((n + 1) ** m
                                         for m in range(3) for n in range(3))

    def test_pointed_category_size_three_counts(self):
        cat = pointed_category(3)
        assert len(cat.morphisms) == 144
        assert sum(1 for _ in cat.composable_pairs()) == 9866

    def test_discrete(self):
        cat = discrete_category("abc")
        cat.validate()
        assert len(cat.morphisms) == 3
        assert cat.hom("a", "b") == ()

    def test_cyclic_group_category(self):
        cat = cyclic_cat(4)
        cat.validate()
        assert all(cat.is_iso(m) for m in cat.morphisms)
        one = next(m for m in cat.morphisms if m.name == 1)
        assert cat.inverse(one).name == 3

    def test_pointed_isos(self):
        cat = pointed_category(2)
        assert len(cat.hom(2, 2)) == 9
        assert len(cat.isos(2, 2)) == 2

    def test_validate_rejects_bad_identity(self):
        a = FcMor("a", 0, 0)
        ghost = FcMor("ghost", 0, 0)
        cat = FiniteCategory([0], [a], {(a, a): a}, {0: ghost})
        with pytest.raises(CategoryError):
            cat.validate()

    def test_validate_rejects_wrong_composite_endpoints(self):
        i0, i1 = FcMor(("id", 0), 0, 0), FcMor(("id", 1), 1, 1)
        u = FcMor("u", 0, 1)
        table = {(i0, i0): i0, (i1, i1): i1, (i0, u): u, (u, i1): i1}
        cat = FiniteCategory([0, 1], [i0, i1, u], table, {0: i0, 1: i1})
        with pytest.raises(CategoryError):
            cat.validate()


class TestCanonicalArrows:
    BUILDERS = {"pointed": lambda: pointed_category(3),
                "gset_z2": lambda: gset_pointed_category(cyclic_group(2), 2),
                "coset_s3": lambda: coset_groupoid(symmetric_group_3(), (0,)),
                "group_z4": lambda: cyclic_cat(4)}

    @pytest.mark.parametrize("which", sorted(BUILDERS))
    def test_table_and_identities_hold_the_listed_arrows(self, which):
        cat = self.BUILDERS[which]()
        listed = {id(m) for m in cat.morphisms}
        assert all(id(h) in listed for h in cat.table.values())
        assert all(id(i) in listed for i in cat.identities.values())
        cat.validate()

    @pytest.mark.parametrize("which", sorted(BUILDERS))
    def test_equal_arrows_hash_equal(self, which):
        first = self.BUILDERS[which]().morphisms
        second = self.BUILDERS[which]().morphisms
        for a, b in zip(first, second):
            assert a == b and a is not b
            assert hash(a) == hash(b) == hash(a)
        clone = pickle.loads(pickle.dumps(first[-1]))
        assert clone == first[-1] and hash(clone) == hash(first[-1])

    def test_an_unhashable_name_still_builds(self):
        m = FcMor([1], 0, 0)
        assert m == FcMor([1], 0, 0)
        assert repr(m) == "[1]: 0->0"
        with pytest.raises(TypeError):
            hash(m)


def reference_category(objects, mors, then, identity):
    """A finite category built by hand: list the arrows, make them
    canonical, tabulate every composite, then look up the identities.
    then(f, g) and identity(a) build FcMor values."""
    canon = {m: m for m in mors}
    table = {}
    for f in mors:
        for g in mors:
            if f.dst == g.src:
                table[(f, g)] = canon[then(f, g)]
    idents = {a: canon[identity(a)] for a in objects}
    return FiniteCategory(objects, mors, table, idents)


def old_pointed_category(max_size):
    sizes = range(max_size + 1)
    return reference_category(
        sizes,
        [FcMor(p, m, n) for m in sizes for n in sizes
         for p in enumerate_pointed_maps(range(1, m + 1), range(1, n + 1))],
        lambda f, g: FcMor(compose_pointed(f.name, g.name), f.src, g.dst),
        lambda n: FcMor(PointedMap.identity_on(range(1, n + 1)), n, n))


def old_gset_pointed_category(group, max_size):
    objects = skeletal_gsets(group, max_size)
    return reference_category(
        objects,
        [FcMor(pm, a, b) for a in objects for b in objects
         for pm in enumerate_equivariant_pointed_maps(a, b)],
        lambda f, g: FcMor(EquivariantPointedMap(
            f.src, g.dst, compose_pointed(f.name, g.name).mapping),
            f.src, g.dst),
        lambda a: FcMor(EquivariantPointedMap(
            a, a, {x: x for x in a.elements}), a, a))


def old_coset_groupoid(group, sub):
    base = coset_gset(group, tuple(sub))
    return reference_category(
        base.elements,
        [FcMor(x, c, base.act(x, c)) for x in group.elements
         for c in base.elements],
        lambda f, g: FcMor(group.mul(g.name, f.name), f.src, g.dst),
        lambda c: FcMor(group.identity, c, c))


def old_group_category(elements, mul, unit, obj="*"):
    return reference_category(
        [obj], [FcMor(e, obj, obj) for e in elements],
        lambda f, g: FcMor(mul(g.name, f.name), obj, obj),
        lambda a: FcMor(unit, obj, obj))


def old_discrete_category(objects):
    return reference_category(
        objects, [FcMor(("id", a), a, a) for a in objects],
        lambda f, g: f, lambda a: FcMor(("id", a), a, a))


class TestFromHoms:
    """Each builder against the same category built by hand."""

    @staticmethod
    def assert_same(new, old, ordered=True):
        if ordered:
            assert new.morphisms == old.morphisms
        else:
            assert len(set(new.morphisms)) == len(new.morphisms)
            assert set(new.morphisms) == set(old.morphisms)
        assert new.objects == old.objects
        assert new.table == old.table
        assert new.identities == old.identities

    def test_pointed_category(self):
        new = pointed_category(3)
        self.assert_same(new, old_pointed_category(3))
        assert len(new.morphisms) == 144 and len(new.table) == 9866

    @pytest.mark.parametrize("group", [cyclic_group(2), cyclic_group(3),
                                       symmetric_group_3()])
    def test_gset_pointed_category(self, group):
        self.assert_same(gset_pointed_category(group, 2),
                         old_gset_pointed_category(group, 2))

    @pytest.mark.parametrize("group", [cyclic_group(4), symmetric_group_3()])
    def test_coset_groupoid(self, group):
        for sub in subgroups(group):
            self.assert_same(coset_groupoid(group, sub),
                             old_coset_groupoid(group, sub), ordered=False)

    def test_group_and_discrete_categories(self):
        s3 = symmetric_group_3()
        self.assert_same(group_category(s3.elements, s3.mul, s3.identity),
                         old_group_category(s3.elements, s3.mul,
                                            s3.identity))
        self.assert_same(cyclic_cat(4, obj=0),
                         old_group_category(range(4),
                                            lambda a, b: (a + b) % 4, 0,
                                            obj=0))
        self.assert_same(discrete_category("abc"),
                         old_discrete_category(tuple("abc")))

    def test_unlisted_composite_is_a_category_error(self):
        with pytest.raises(CategoryError, match="'ghost': 0->0"):
            FiniteCategory.from_homs([0], lambda a, b: ["e"],
                                     lambda p, q: "ghost", lambda a: "e")

    def test_unlisted_identity_is_a_category_error(self):
        with pytest.raises(CategoryError, match="'ghost': 0->0"):
            FiniteCategory.from_homs([0], lambda a, b: ["e"],
                                     lambda p, q: "e", lambda a: "ghost")


class TestFunctorsAndNaturality:
    def test_identity_functor_validates(self):
        cat = walking_iso().validate()
        FcFunctor(cat, cat, {a: a for a in cat.objects},
                  {m: m for m in cat.morphisms}).validate()

    def test_swap_functor_and_involution(self):
        cat = walking_iso().validate()
        swap = swap_functor(cat)
        swap.validate()
        assert all(swap(swap(a)) == a for a in cat.objects)
        assert all(swap(swap(m)) == m for m in cat.morphisms)


def swap_functor(cat):
    by_name = {m.name: m for m in cat.morphisms}
    mor = {by_name[("id", 0)]: by_name[("id", 1)],
           by_name[("id", 1)]: by_name[("id", 0)],
           by_name["u"]: by_name["v"], by_name["v"]: by_name["u"]}
    return FcFunctor(cat, cat, {0: 1, 1: 0}, mor)


def twisted_data(base_order, fiber_order, cocycle):
    """One object downstairs, a cyclic group of automorphisms upstairs.

    Every base arrow acts as the identity functor; the comparison cell for
    a pair of base arrows is the fiber element cocycle[(f, g)] (default 0).
    """
    base = cyclic_cat(base_order, obj="b")
    fiber = cyclic_cat(fiber_order, obj="f")
    arrows = {m.name: m for m in fiber.morphisms}
    return OplaxFunctorData(
        base=base,
        fiber_objects=lambda a: ("f",),
        app_obj=lambda f, x: x,
        app_mor=lambda f, m, x=None, y=None: m,
        tau_comp=lambda f, g, x: arrows[cocycle.get((f.name, g.name), 0)],
        tau_id=lambda a, x: fiber.identity(x),
        fiber_compose=lambda a, m1, m2: fiber.compose(m1, m2),
        fiber_identity=lambda a, x: fiber.identity(x),
        fiber_hom=lambda a, x, y: fiber.hom(x, y),
    )


class TestTwistedGluing:
    @given(st.integers(min_value=0, max_value=3))
    @settings(max_examples=4, deadline=None)
    def test_any_single_twist_is_coherent(self, k):
        F = twisted_data(2, 4, {(1, 1): k})
        rep = check_all_coherence(F)
        assert rep.ok
        assert rep.squares == 8

    def test_unit_corruption_is_detected(self):
        F = twisted_data(2, 4, {(0, 1): 1})
        rep = check_all_coherence(F)
        assert not rep.ok
        assert any(fail[0] == "triangle" for fail in rep.failures)

    def test_square_corruption_is_detected(self):
        F = twisted_data(4, 2, {(1, 2): 1})
        rep = check_all_coherence(F)
        assert not rep.ok
        tags = {fail[0] for fail in rep.failures}
        assert tags == {"square"}

    def test_naturality_holds_on_the_twist(self):
        F = twisted_data(2, 4, {(1, 1): 1})
        s = next(m for m in F.base.morphisms if m.name == 1)
        fiber_arrow = F.tau_comp(s, s, "f")
        assert check_tau_naturality(F, s, s, fiber_arrow, "f", "f")


def strict_swap_data():
    """Z/2 acting on the walking isomorphism by the swap, strictly: every
    comparison cell is an identity."""
    base = cyclic_cat(2, obj="*")
    cat = walking_iso()
    swap = swap_functor(cat)

    def app_obj(f, x):
        return swap(x) if f.name else x

    return OplaxFunctorData(
        base=base,
        fiber_objects=lambda a: cat.objects,
        app_obj=app_obj,
        app_mor=lambda f, m, x=None, y=None: swap(m) if f.name else m,
        tau_comp=lambda f, g, x: cat.identity(app_obj(f, app_obj(g, x))),
        tau_id=lambda a, x: cat.identity(x),
        fiber_compose=lambda a, m1, m2: cat.compose(m1, m2),
        fiber_identity=lambda a, x: cat.identity(x),
        fiber_hom=lambda a, x, y: cat.hom(x, y),
    )


class TestStrictGluingBothDirections:
    def test_strict_data_is_coherent(self):
        rep = check_all_coherence(strict_swap_data())
        assert rep.ok and rep.squares == 8 * 2


class TestTreeDataAgreesWithBuilders:
    """The sweep's shortcut cells against the validated constructions."""

    def test_tau_comp_matches_exhaustively_small(self):
        probes = tree_probes(4)
        F = tree_oplax_data(2, probes)
        checked = 0
        for f, g in F.base.composable_pairs():
            for x in probes.get(g.dst, ()):
                built = built_tau_comp(f.name, g.name, x)
                assert F.tau_comp(f, g, x) == built.mapping
                checked += 1
        assert checked > 500

    def test_tau_id_matches_on_every_probe(self):
        probes = tree_probes(4)
        F = tree_oplax_data(2, probes)
        for n, xs in probes.items():
            for x in xs:
                assert F.tau_id(n, x) == built_tau_id(x).mapping

    def test_pushed_arrows_match_exhaustively_small(self):
        probes = tree_probes(3)
        F = tree_oplax_data(2, probes)
        checked = 0
        for f in F.base.morphisms:
            for x in probes.get(f.dst, ()):
                for y in probes.get(f.dst, ()):
                    for m in hom_labeled(x, y):
                        built = phi_star_mor(f.name, m, x, y)
                        got = F.app_mor(f, dict(m.mapping), x, y)
                        assert got == built.mapping
                        checked += 1
        assert checked > 100

    def test_tau_comp_matches_on_a_size_three_sample(self):
        probes = tree_probes(4)
        F = tree_oplax_data(3, probes)
        rng = random.Random(0)
        pairs = [(f, g) for f, g in F.base.composable_pairs()
                 if probes.get(g.dst)]
        for _ in range(150):
            f, g = rng.choice(pairs)
            x = rng.choice(probes[g.dst])
            built = built_tau_comp(f.name, g.name, x)
            assert F.tau_comp(f, g, x) == built.mapping

    def test_every_cell_at_the_coherence_bounds(self):
        # after a full sweep, so a wrong memo key or a shared cell mutated
        # during the sweep would show
        probes = tree_probes(4)
        F = tree_oplax_data(3, probes)
        assert check_all_coherence(F).ok
        cells = 0
        for f, g in F.base.composable_pairs():
            for x in probes.get(g.dst, ()):
                built = built_tau_comp(f.name, g.name, x)
                assert F.tau_comp(f, g, x) == built.mapping
                cells += 1
        assert cells == 25978
        maps = 0
        for f in F.base.morphisms:
            for x in probes.get(f.dst, ()):
                for y in probes.get(f.dst, ()):
                    for m in hom_labeled(x, y):
                        built = phi_star_mor(f.name, m, x, y)
                        assert F.app_mor(f, dict(m.mapping), x, y) \
                            == built.mapping
                        maps += 1
        assert maps == 3131
        for n, xs in probes.items():
            for x in xs:
                assert F.tau_id(n, x) == built_tau_id(x).mapping

    def test_naturality_of_the_cells_on_samples(self):
        probes = tree_probes(4)
        F = tree_oplax_data(3, probes)
        rng = random.Random(1)
        pairs = [(f, g) for f, g in F.base.composable_pairs()
                 if probes.get(g.dst)]
        checked = 0
        for _ in range(80):
            f, g = rng.choice(pairs)
            x = rng.choice(probes[g.dst])
            y = rng.choice(probes[g.dst])
            for m in hom_labeled(x, y)[:2]:
                assert check_tau_naturality(F, f, g, dict(m.mapping), x, y)
                checked += 1
        assert checked > 20


def twisted_cells(F, only=None):
    """F with the images of two fresh edges swapped in every composition
    cell whose first arrow is `only` (every cell when only is None)."""
    good = F.tau_comp

    def bad(f, g, x):
        cell = good(f, g, x)
        if only is not None and f != only:
            return cell
        cell = dict(cell)
        fresh = sorted(k for k in cell
                       if isinstance(k, tuple) and k[0] == "graft"
                       and isinstance(k[2], tuple))
        if len(fresh) >= 2:
            a, b = fresh[0], fresh[1]
            cell[a], cell[b] = cell[b], cell[a]
        return cell

    return dataclasses.replace(F, tau_comp=bad)


def reference_sweep(F):
    """Every composable triple at every probe, each square checked on its
    own with all three of its unit calls, nothing shared between squares:
    (squares, triangles, failures), the failures uncapped."""
    seen, failures = set(), []
    squares = 0

    def units(f, x):
        if (f, x) not in seen:
            seen.add((f, x))
            if not check_oplax_units(F, f, x):
                failures.append(("triangle", f, x))

    for f in F.base.morphisms:
        for x in F.fiber_objects(f.dst):
            units(f, x)
    for f, g, h in F.base.composable_triples():
        hg = F.base.compose(g, h)
        for x in F.fiber_objects(h.dst):
            squares += 1
            units(h, x)
            units(g, F.app_obj(h, x))
            units(f, F.app_obj(hg, x))
            if not check_coherence_square(F, f, g, h, x):
                failures.append(("square", f, g, h, x))
    return squares, len(seen), failures


REFERENCE_CASES = {
    "tree": lambda: tree_oplax_data(2, tree_probes(3)),
    "tree_twisted": lambda: twisted_cells(tree_oplax_data(2, tree_probes(3))),
    "cocycle_coherent": lambda: twisted_data(2, 4, {(1, 1): 3}),
    "cocycle_unit": lambda: twisted_data(2, 4, {(0, 1): 1}),
    "cocycle_square": lambda: twisted_data(4, 2, {(1, 2): 1}),
    "strict_swap": strict_swap_data,
    "gtree_z2": lambda: gtree_oplax_data(
        cyclic_group(2), 2,
        standard_probes(skeletal_gsets(cyclic_group(2), 2), deep=False)),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_sweep_matches_the_reference_sweep(case, monkeypatch):
    monkeypatch.setattr(oplax, "MAX_FAILURES", 10 ** 9)
    F = REFERENCE_CASES[case]()
    squares, triangles, failures = reference_sweep(F)
    rep = check_all_coherence(F)
    assert (rep.squares, rep.triangles) == (squares, triangles)
    assert rep.ok == (not failures)
    assert Counter(rep.failures) == Counter(failures)
    assert squares > 0


class TestTreeDataCoherence:
    def test_small_base_fully_coherent(self):
        probes = tree_probes(3)
        F = tree_oplax_data(1, probes)
        rep = check_all_coherence(F)
        assert rep.ok
        assert rep.squares > 0 and rep.triangles > 0

    def test_single_square_and_units_api(self):
        probes = tree_probes(3)
        F = tree_oplax_data(2, probes)
        f, g, h = next(iter(F.base.composable_triples()))
        for x in F.fiber_objects(h.dst):
            assert check_coherence_square(F, f, g, h, x)
            assert check_oplax_units(F, h, x)
            assert check_oplax_units(F, g, F.app_obj(h, x))
            assert check_oplax_units(
                F, f, F.app_obj(F.base.compose(g, h), x))

    def test_twisted_cell_is_detected(self):
        probes = tree_probes(3)
        F = tree_oplax_data(2, probes)
        rep = check_all_coherence(twisted_cells(F))
        assert not rep.ok

    def test_a_twist_at_one_arrow_is_detected(self, monkeypatch):
        # the swap of 1..2 is one of nine arrows 2 -> 2, all with the same
        # source labels, so a result shared on anything coarser than the
        # arrow would hide its twist or spread it to another arrow
        monkeypatch.setattr(oplax, "MAX_FAILURES", 10 ** 9)
        clean = tree_oplax_data(2, tree_probes(3))
        swap = next(m for m in clean.base.hom(2, 2)
                    if m.name.mapping == {1: 2, 2: 1})
        F = twisted_cells(clean, swap)
        rep = check_all_coherence(F)
        squares = [fail for fail in rep.failures if fail[0] == "square"]
        assert squares and not rep.ok
        for _, f, g, h, x in squares:
            assert swap in (f, F.base.compose(f, g))
        assert all(fail[1] == swap for fail in rep.failures
                   if fail[0] == "triangle")
        assert Counter(rep.failures) == Counter(reference_sweep(F)[2])

    def test_app_obj_calls_per_side_triangle_and_arrow_probe(self):
        F = tree_oplax_data(2, tree_probes(2))
        app_obj = F.app_obj
        calls = 0

        def counted(f, x):
            nonlocal calls
            calls += 1
            return app_obj(f, x)

        rep = check_all_coherence(dataclasses.replace(F, app_obj=counted))
        assert rep.ok and (rep.squares, rep.triangles) == (1916, 158)
        sides = sum(len(F.fiber_objects(h.dst))
                    for g, h in F.base.composable_pairs())
        probes = sum(len(F.fiber_objects(k.dst)) for k in F.base.morphisms)
        assert calls == 3 * sides + 2 * rep.triangles + probes == 888

    def test_tree_cells_are_not_invertible(self):
        probes = tree_probes(3)
        F = tree_oplax_data(1, probes)
        ident = F.base.identity(1)
        eta = probes[1][0]
        cell = F.tau_comp(ident, ident, eta)
        lo = F.app_obj(ident, eta)
        hi = F.app_obj(ident, lo)
        assert cell != F.fiber_identity(1, lo)
        assert not any(
            F.fiber_compose(1, cell, inv) == F.fiber_identity(1, lo)
            and F.fiber_compose(1, inv, cell) == F.fiber_identity(1, hi)
            for inv in F.fiber_hom(1, hi, lo))


def twisted_pushes(F, only):
    """F with the images of the two fresh leaves that app_mor adds swapped
    in every arrow pushed along `only`, an arrow with two source labels."""
    good = F.app_mor

    def bad(f, m, x, y):
        pushed = good(f, m, x, y)
        if f != only:
            return pushed
        pushed = dict(pushed)
        a, b = sorted(k for k in pushed if k not in m and k[2] != "root")
        pushed[a], pushed[b] = pushed[b], pushed[a]
        return pushed

    return dataclasses.replace(F, app_mor=bad)


def memo_disagreements(F):
    """(pushed arrows, composites, disagreements) over every app_mor and
    fiber_compose call a sweep of F makes: each result, as the data's
    memos hand it back mid-sweep, against a fresh phi_star_mor mapping or
    a fresh dict composite of the same arguments.  A wrong pushed arrow
    is counted and replaced by the fresh one, so the sweep goes on."""
    app_mor, fiber_compose = F.app_mor, F.fiber_compose
    counts = Counter()

    def checked_mor(f, m, x, y):
        got = app_mor(f, m, x, y)
        x, y = getattr(x, "labeled", x), getattr(y, "labeled", y)
        fresh = phi_star_mor(f.name, TreeMorphism(x.tree, y.tree, m), x, y)
        counts["pushed"] += 1
        if got == fresh.mapping:
            return got
        counts["bad"] += 1
        return fresh.mapping

    def checked_compose(a, m1, m2):
        got = fiber_compose(a, m1, m2)
        counts["composites"] += 1
        counts["bad"] += got != {e: m2[v] for e, v in m1.items()}
        return got

    rep = check_all_coherence(dataclasses.replace(
        F, app_mor=checked_mor, fiber_compose=checked_compose))
    # one pushed arrow and two composites per square and per triangle
    assert counts["pushed"] == rep.squares + rep.triangles
    assert counts["composites"] == 2 * counts["pushed"]
    return counts["pushed"], counts["composites"], counts["bad"]


class TestSweepMemos:
    """The tree data memoises app_mor and fiber_compose; what they hand
    back mid-sweep must be what a fresh build gives."""

    @pytest.mark.parametrize("case, pushed", [
        ("gtree_z2", 4552), ("tree", 5732)])
    def test_memoised_results_match_fresh_builds(self, case, pushed):
        F = REFERENCE_CASES[case]()
        assert memo_disagreements(F) == (pushed, 2 * pushed, 0)

    def test_a_key_without_the_source_labels_is_caught(self, monkeypatch):
        monkeypatch.setattr(substitution, "_pushed_key",
                            lambda f, m, x, y: (id(m), x, y))
        assert memo_disagreements(REFERENCE_CASES["tree"]())[2] > 0

    def test_a_push_twisted_at_one_arrow_is_detected(self, monkeypatch):
        # the memo keys app_mor by source labels, which the swap of 1..2
        # shares with eight other arrows 2 -> 2; the twist must still
        # fail exactly the squares and triangles that push along it
        monkeypatch.setattr(oplax, "MAX_FAILURES", 10 ** 9)
        clean = tree_oplax_data(2, tree_probes(3))
        swap = next(m for m in clean.base.hom(2, 2)
                    if m.name.mapping == {1: 2, 2: 1})
        F = twisted_pushes(clean, swap)
        rep = check_all_coherence(F)
        assert not rep.ok
        assert {fail[1] for fail in rep.failures} == {swap}
        assert {fail[0] for fail in rep.failures} == {"square", "triangle"}
        assert Counter(rep.failures) == Counter(reference_sweep(F)[2])

    def test_equal_results_on_probes_are_one_object(self):
        # a stump over one label and a two-label tree with the second
        # label sent to "+" graft to the same tree, among others
        F = tree_oplax_data(3, tree_probes(3))
        results = [F.app_obj(k, x) for k in F.base.morphisms
                   for x in F.fiber_objects(k.dst)]
        assert len({id(r) for r in results}) == len(set(results)) \
            < len(results)

    @pytest.mark.parametrize("bound", [1, 3])
    def test_memos_stay_within_their_bound(self, bound, monkeypatch):
        assert f"MEMO_BOUND ({substitution.MEMO_BOUND})" \
            in substitution._oplax_data.__doc__
        monkeypatch.setattr(substitution, "MEMO_BOUND", bound)
        F = tree_oplax_data(3, tree_probes(2))
        memos = F.app_mor.memo, F.fiber_compose.memo
        peak = [0, 0]

        def watched(call):
            def run(*args):
                out = call(*args)
                peak[:] = [max(p, len(m)) for p, m in zip(peak, memos)]
                return out
            return run

        rep = check_all_coherence(dataclasses.replace(
            F, app_mor=watched(F.app_mor),
            fiber_compose=watched(F.fiber_compose)))
        assert rep.ok
        assert peak == [bound, bound]


class TestEquivalenceChecker:
    def test_chaotic_pair_is_equivalent_to_the_point(self):
        pair = chaotic_pair()
        point = discrete_category(["*"])
        ob = {0: "*", 1: "*"}
        mor = {m: point.identity("*") for m in pair.morphisms}
        report = check_equivalence(FcFunctor(pair, point, ob, mor).validate())
        assert report.ok

    def test_missing_arrows_break_fullness(self):
        two = discrete_category([0, 1])
        point = discrete_category(["*"])
        mor = {m: point.identity("*") for m in two.morphisms}
        report = check_equivalence(
            FcFunctor(two, point, {0: "*", 1: "*"}, mor).validate())
        assert not report.full and "full" in report.witnesses
        assert report.faithful and report.essentially_surjective

    def test_missed_component_breaks_essential_surjectivity(self):
        two = discrete_category([0, 1])
        point = discrete_category(["*"])
        functor = FcFunctor(point, two, {"*": 0},
                            {point.identity("*"): two.identity(0)}).validate()
        report = check_equivalence(functor)
        assert not report.essentially_surjective
        assert report.witnesses["essentially_surjective"] == 1

    def test_collapsed_arrows_break_faithfulness(self):
        z2 = cyclic_cat(2)
        point = discrete_category(["*"])
        mor = {m: point.identity("*") for m in z2.morphisms}
        report = check_equivalence(
            FcFunctor(z2, point, {"*": "*"}, mor).validate())
        assert not report.faithful and "faithful" in report.witnesses


def chaotic_pair():
    arrows = {}
    for a in (0, 1):
        for b in (0, 1):
            arrows[(a, b)] = FcMor(("c", a, b), a, b)
    table = {}
    for (a, b), f in arrows.items():
        for (c, d), g in arrows.items():
            if b == c:
                table[(f, g)] = arrows[(a, d)]
    idents = {a: arrows[(a, a)] for a in (0, 1)}
    return FiniteCategory([0, 1], arrows.values(), table, idents).validate()
