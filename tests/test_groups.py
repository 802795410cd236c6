import itertools
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from dendron import (
    GroupError, GSetError, FiniteGroup, trivial_group, cyclic_group,
    symmetric_group_3, subgroups, conjugate_subgroup, subgroup_conjugacy_key,
    GSet, trivial_gset, coset_gset, disjoint_union_gsets, transitive_gsets,
    skeletal_gsets, equivariant_maps, BUILTIN_GROUPS, builtin_group,
    group_to_json, group_from_json, PLUS, enumerate_equivariant_pointed_maps,
)
from dendron.groups import (check_action, group_from_ref, is_equivariant,
                            mulclose)


def regular(group):
    """The group acting on itself: the cosets of the trivial subgroup."""
    return coset_gset(group, (group.identity,))


class TestGroupValidation:
    def test_not_square(self):
        with pytest.raises(GroupError):
            FiniteGroup(((0, 1), (1,)))

    def test_zero_not_identity(self):
        with pytest.raises(GroupError):
            FiniteGroup(((1, 0), (0, 1)))

    def test_missing_inverse(self):
        # a row that never hits the identity
        with pytest.raises(GroupError):
            FiniteGroup(((0, 1, 2), (1, 1, 1), (2, 2, 2)))

    def test_not_associative(self):
        # a quasigroup table on 5 points that fails associativity
        table = (
            (0, 1, 2, 3, 4),
            (1, 0, 3, 4, 2),
            (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1),
            (4, 3, 1, 2, 0),
        )
        with pytest.raises(GroupError):
            FiniteGroup(table)


class TestBuiltinGroups:
    def test_orders(self):
        orders = {name: builtin_group(name).order for name in BUILTIN_GROUPS}
        assert orders == {"trivial": 1, "z2": 2, "z3": 3, "z4": 4, "s3": 6}

    def test_cyclic_law(self):
        g = cyclic_group(5)
        for a, b in itertools.product(g.elements, repeat=2):
            assert g.mul(a, b) == (a + b) % 5
        assert all(g.mul(a, g.inverse(a)) == 0 for a in g.elements)

    def test_s3_not_abelian(self):
        g = symmetric_group_3()
        assert any(g.mul(a, b) != g.mul(b, a)
                   for a, b in itertools.product(g.elements, repeat=2))
        assert g.name_of(0) == "012"

    def test_unknown_builtin(self):
        with pytest.raises(GroupError):
            builtin_group("q8")


class TestGroupFiles:
    """The tables under tests/groups are the groups they are named for:
    among the groups of its order, each is the one with these element
    orders."""

    @pytest.mark.parametrize("name, orders", [
        ("v4", [1, 2, 2, 2]), ("q8", [1, 2, 4, 4, 4, 4, 4, 4])])
    def test_element_orders(self, name, orders):
        path = pathlib.Path(__file__).parent / "groups" / f"{name}.json"
        g = group_from_json(json.loads(path.read_text()))

        def order(a):
            k, x = 1, a
            while x != g.identity:
                k, x = k + 1, g.mul(x, a)
            return k
        assert sorted(map(order, g.elements)) == orders


class TestSubgroups:
    def test_s3_has_six(self):
        g = symmetric_group_3()
        subs = subgroups(g)
        assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 3, 6]

    def test_z4_chain(self):
        subs = subgroups(cyclic_group(4))
        assert sorted(sorted(s) for s in subs) == [[0], [0, 1, 2, 3], [0, 2]]

    def test_order_two_subgroups_conjugate_in_s3(self):
        g = symmetric_group_3()
        twos = [s for s in subgroups(g) if len(s) == 2]
        keys = {subgroup_conjugacy_key(g, s) for s in twos}
        assert len(twos) == 3 and len(keys) == 1

    def test_conjugate_is_subgroup(self):
        g = symmetric_group_3()
        for s in subgroups(g):
            for h in g.elements:
                c = conjugate_subgroup(g, h, s)
                assert mulclose(g, c) == set(c)

    def test_mulclose_generates(self):
        g = cyclic_group(6)
        assert mulclose(g, [2]) == {0, 2, 4}
        assert mulclose(g, [1]) == set(g.elements)


class TestGSetValidation:
    def test_row_not_permutation(self):
        g = cyclic_group(2)
        with pytest.raises(GSetError):
            GSet(g, ["a", "b"], {0: {"a": "a", "b": "b"},
                                 1: {"a": "a", "b": "a"}})

    def test_identity_must_fix(self):
        g = cyclic_group(2)
        with pytest.raises(GSetError):
            GSet(g, ["a", "b"], {0: {"a": "b", "b": "a"},
                                 1: {"a": "a", "b": "b"}})

    def test_composition_law(self):
        g = cyclic_group(4)
        swap = {0: "a", 1: "b", 2: "a", 3: "b"}
        rows = {k: {"a": swap[k], "b": ("a" if swap[k] == "b" else "b")}
                for k in g.elements}
        # g=1 swaps, but then 2 = 1*1 must be trivial, not swap again
        rows[2] = rows[1]
        with pytest.raises(GSetError):
            GSet(g, ["a", "b"], rows)

    def test_from_generator_rows(self):
        g = cyclic_group(4)
        a = GSet.from_generator_rows(g, ["w", "x", "y", "z"],
                                     {1: {"w": "x", "x": "y",
                                          "y": "z", "z": "w"}})
        assert a.act(2, "w") == "y"
        assert a.act(3, "x") == "w"
        assert a.is_transitive()

    def test_equality_is_by_value_not_identity(self):
        g = cyclic_group(4)
        a, b = coset_gset(g, (0, 2)), coset_gset(g, (0, 2))
        assert a is not b
        assert a == b and not a != b and hash(a) == hash(b)
        assert a == a and a != coset_gset(g, (0,))


def check_action_on_all_pairs(group, action, carrier, error):
    """`check_action` with composition checked for every pair (a, b)."""
    carrier = set(carrier)
    if set(action) != set(group.elements):
        raise error("need one action row per group element")
    for g, row in action.items():
        if set(row) != carrier or set(row.values()) != carrier:
            raise error(f"row of {g} is not a permutation")
    if any(action[group.identity][x] != x for x in carrier):
        raise error("identity must act trivially")
    for a, b in itertools.product(group.elements, repeat=2):
        if any(action[group.mul(a, b)][x] != action[a][action[b][x]]
               for x in carrier):
            raise error("rows do not compose as the group")


def verdict(check, group, action, carrier):
    try:
        check(group, action, carrier, GSetError)
    except GSetError as exc:
        return str(exc)
    return None


KLEIN_FOUR = {"order": 4, "mult": [[0, 1, 2, 3], [1, 0, 3, 2],
                                   [2, 3, 0, 1], [3, 2, 1, 0]]}


class TestActionOnGenerators:
    @pytest.mark.parametrize("name", ["trivial", "z2", "z3", "z4", "s3"])
    def test_generator_check_is_the_full_check(self, name):
        group = builtin_group(name)
        rejected = 0
        for gset in skeletal_gsets(group, 3):
            tables = [gset.action]
            for g in group.elements[1:]:
                for x, y in itertools.combinations(gset.elements, 2):
                    row = dict(gset.action[g])
                    row[x], row[y] = row[y], row[x]
                    tables.append({**gset.action, g: row})
            for table in tables:
                got = verdict(check_action, group, table, gset.elements)
                assert got == verdict(check_action_on_all_pairs, group,
                                      table, gset.elements)
                rejected += got is not None
        assert rejected > 0 or name == "trivial"

    @pytest.mark.parametrize("name,homs", [("z2", 4), ("z3", 3), ("z4", 4),
                                           ("s3", 10)])
    def test_generator_check_is_the_full_check_on_three_points(self, name,
                                                                homs):
        # every table with the identity row trivial and any permutation of
        # three points in each other row; the accepted ones are the
        # homomorphisms into S3
        group = builtin_group(name)
        carrier = ("x", "y", "z")
        perms = [dict(zip(carrier, p))
                 for p in itertools.permutations(carrier)]
        accepted = 0
        for rows in itertools.product(perms, repeat=group.order - 1):
            table = dict(zip(group.elements, (perms[0], *rows)))
            got = verdict(check_action, group, table, carrier)
            assert got == verdict(check_action_on_all_pairs, group, table,
                                  carrier)
            accepted += got is None
        assert accepted == homs

    @pytest.mark.parametrize("group", [f() for f in BUILTIN_GROUPS.values()]
                             + [group_from_json(KLEIN_FOUR)])
    def test_generators_generate(self, group):
        assert mulclose(group, group.generators) == set(group.elements)

    def test_generator_counts(self):
        counts = {name: len(builtin_group(name).generators)
                  for name in BUILTIN_GROUPS}
        assert counts == {"trivial": 0, "z2": 1, "z3": 1, "z4": 1, "s3": 2}
        assert group_from_json(KLEIN_FOUR).generators == (1, 2)

    def test_derived_fields_stay_out_of_equality(self):
        g = group_from_json(group_to_json(symmetric_group_3()))
        assert g == symmetric_group_3()
        assert hash(g) == hash(symmetric_group_3())
        assert g.elements == tuple(range(6))


class TestOrbitsAndStabilizers:
    def test_regular_is_free(self):
        g = symmetric_group_3()
        a = regular(g)
        assert a.is_transitive()
        assert all(a.stabilizer(x) == (0,) for x in a.elements)

    def test_coset_orbit_sizes(self):
        g = cyclic_group(4)
        a = coset_gset(g, (0, 2))
        assert a.elements == (0, 1)
        assert set(a.stabilizer(0)) == {0, 2}
        (orb,) = a.orbits()
        assert set(orb.members) == {0, 1}

    def test_disjoint_union_orbits(self):
        g = cyclic_group(2)
        u = disjoint_union_gsets([regular(g), coset_gset(g, (0, 1))])
        sizes = sorted(len(o.members) for o in u.orbits())
        assert sizes == [1, 2]

    def test_signature_separates(self):
        g = cyclic_group(4)
        free = regular(g)
        halves = disjoint_union_gsets([coset_gset(g, (0, 2))] * 2)
        assert free.size == halves.size == 4
        assert free.orbit_signature() != halves.orbit_signature()


class TestSkeleta:
    def test_transitive_z4(self):
        sizes = [len(a.elements) for a in transitive_gsets(cyclic_group(4))]
        assert sizes == [4, 2, 1]

    def test_skeletal_z2(self):
        sizes = [len(a.elements) for a in skeletal_gsets(cyclic_group(2), 2)]
        assert sizes == [0, 1, 2, 2]

    def test_skeletal_s3(self):
        sizes = [len(a.elements) for a in skeletal_gsets(symmetric_group_3(), 3)]
        assert sizes == [0, 1, 2, 2, 3, 3, 3]

    def test_skeletal_no_repeats_up_to_iso(self):
        out = skeletal_gsets(cyclic_group(4), 4)
        for a, b in itertools.combinations(out, 2):
            assert a.orbit_signature() != b.orbit_signature()


class TestEquivariantMaps:
    def test_counts_z2(self):
        g = cyclic_group(2)
        free = regular(g)
        point = coset_gset(g, (0, 1))
        assert len(equivariant_maps(free, free)) == 2
        assert len(equivariant_maps(free, point)) == 1
        assert len(equivariant_maps(point, free)) == 0
        assert sum(len(set(m.values())) == free.size
                   for m in equivariant_maps(free, free)) == 2

    def test_every_map_is_equivariant(self):
        g = cyclic_group(3)
        free = regular(g)
        both = disjoint_union_gsets([free, coset_gset(g, (0, 1, 2))])
        for m in equivariant_maps(both, free):
            for h in g.elements:
                for x in both.elements:
                    assert m[both.act(h, x)] == free.act(h, m[x])

    @given(st.integers(min_value=2, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_burnside_count(self, n):
        # maps G/H -> X correspond to H-fixed points of X
        g = cyclic_group(n)
        x = disjoint_union_gsets([regular(g),
                                  coset_gset(g, tuple(g.elements))])
        for sub in subgroups(g):
            fixed = [p for p in x.elements
                     if all(x.act(h, p) == p for h in sub)]
            hom = equivariant_maps(coset_gset(g, tuple(sub)), x)
            assert len(hom) == len(fixed)


def commutes_with_every_element(group, f, src_act, dst_act):
    """`is_equivariant` with every group element tried, not the generators."""
    return all(f[src_act(g, x)] == dst_act(g, y)
               for g in group.elements for x, y in f.items())


def all_functions(src, targets):
    for images in itertools.product(targets, repeat=src.size):
        yield dict(zip(src.elements, images))


def as_set(maps):
    return {frozenset(m.items()) for m in maps}


def spread_over_every_element(src, choices, act):
    """The orbit-representative enumeration with every group element
    tried: a candidate is kept when the whole stabilizer fixes it, and each
    member x takes act(g, y) for every g with g.rep = x, the last one
    winning."""
    orbits = src.orbits()
    kept = [[y for y in choices(o.rep)
             if all(act(s, y) == y for s in o.stabilizer)] for o in orbits]
    return [{src.act(g, o.rep): act(g, y)
             for o, y in zip(orbits, pick) for g in src.group.elements}
            for pick in itertools.product(*kept)]


@pytest.mark.parametrize("name", ["trivial", "z2", "z3", "z4", "s3"])
class TestEquivarianceOnGenerators:
    """The generator predicate and the orbit-wise enumerators against the
    all-elements filter of every function, on every pair of small G-sets."""

    def test_predicate_is_the_all_elements_check(self, name):
        group = builtin_group(name)
        gsets = skeletal_gsets(group, 3)
        accepted = rejected = 0
        for src, dst in itertools.product(gsets, repeat=2):
            for f in all_functions(src, dst.elements):
                got = is_equivariant(group, f, src.act, dst.act)
                assert got == commutes_with_every_element(group, f, src.act,
                                                          dst.act)
                accepted += got
                rejected += not got
        assert accepted > 0 and (rejected > 0 or name == "trivial")

    def test_enumerators_are_the_brute_force_filter(self, name):
        group = builtin_group(name)
        gsets = skeletal_gsets(group, 3)
        for src, dst in itertools.product(gsets, repeat=2):
            want = [f for f in all_functions(src, dst.elements)
                    if commutes_with_every_element(group, f, src.act,
                                                   dst.act)]
            assert as_set(equivariant_maps(src, dst)) == as_set(want)

            def pointed(g, y):
                return PLUS if y == PLUS else dst.act(g, y)

            want = [f for f in all_functions(src, dst.elements + (PLUS,))
                    if commutes_with_every_element(group, f, src.act,
                                                   pointed)]
            got = enumerate_equivariant_pointed_maps(src, dst)
            assert len(got) == len(want)
            assert as_set(pm.mapping for pm in got) == as_set(want)

    def test_enumerators_match_the_spread_over_every_element(self, name):
        group = builtin_group(name)
        gsets = skeletal_gsets(group, 3)
        for src, dst in itertools.product(gsets, repeat=2):
            want = spread_over_every_element(src, lambda r: dst.elements,
                                             dst.act)
            got = equivariant_maps(src, dst)
            assert [list(m.items()) for m in got] == \
                [list(m.items()) for m in want]

            def pointed(g, y):
                return PLUS if y == PLUS else dst.act(g, y)

            want = spread_over_every_element(
                src, lambda r: (PLUS,) + dst.elements, pointed)
            got = enumerate_equivariant_pointed_maps(src, dst)
            assert [list(pm.mapping.items()) for pm in got] == \
                [list(m.items()) for m in want]


class TestSerialization:
    def test_group_round_trip(self):
        for name in sorted(BUILTIN_GROUPS):
            g = builtin_group(name)
            assert group_from_json(group_to_json(g)) == g

    def test_group_bad_keys(self):
        with pytest.raises(GroupError):
            group_from_json({"order": 1, "mult": [[0]], "extra": True})

    def test_unknown_group_ref(self):
        assert group_from_ref("z2") == cyclic_group(2)
        with pytest.raises(GroupError):
            group_from_ref("nope")


class TestTrivialGroup:
    def test_everything_collapses(self):
        g = trivial_group()
        assert g.order == 1
        assert [len(s) for s in subgroups(g)] == [1]
        a = trivial_gset(g, ["x", "y"])
        assert len(equivariant_maps(a, a)) == 4
