"""Finite groups and finite G-sets, given by explicit tables.

Everything in sight is small, so groups are multiplication tables over the
elements 0..n-1 (0 the identity) and G-sets are full action tables, one row
per group element.  Subgroups come from closure searches, orbits from direct
sweeps, and equivariant maps from an orbit-by-orbit choice of images.  The
layers above ask only this module, which looks at the generators' rows
alone, whether a table is an action (`check_action`) and whether a map
commutes with two actions (`is_equivariant`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .trees import sort_key


class GroupError(ValueError):
    """Raised when a multiplication table breaks the group laws."""


class GSetError(ValueError):
    """Raised when an action table is not a group action."""


@dataclass(frozen=True)
class FiniteGroup:
    """A group structure on 0..n-1 encoded by its multiplication table.

    mult[a][b] is the product a*b and index 0 is the identity.  The optional
    names are display sugar only; they do not take part in equality.  The
    elements and a generating set (each element, in order, that the ones
    kept before it do not generate) are derived once, on construction.
    """

    mult: tuple
    names: tuple = field(default=None, compare=False)
    elements: tuple = field(init=False, repr=False, compare=False)
    generators: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.mult)
        object.__setattr__(self, "mult", tuple(tuple(r) for r in self.mult))
        if n == 0:
            raise GroupError("a group needs at least its identity")
        rng = range(n)
        for row in self.mult:
            if len(row) != n or any(v not in rng for v in row):
                raise GroupError("table is not square over 0..n-1")
        for a in rng:
            if self.mult[0][a] != a or self.mult[a][0] != a:
                raise GroupError("0 is not an identity")
        for a in rng:
            if 0 not in self.mult[a]:
                raise GroupError(f"{a} has no inverse")
        for a in rng:
            for b in rng:
                for c in rng:
                    if (self.mult[self.mult[a][b]][c]
                            != self.mult[a][self.mult[b][c]]):
                        raise GroupError("table is not associative")
        if self.names is not None and len(self.names) != n:
            raise GroupError("one name per element, please")
        object.__setattr__(self, "elements", tuple(rng))
        gens, reached = [], {0}
        for a in rng:
            if a not in reached:
                gens.append(a)
                reached = mulclose(self, gens)
        object.__setattr__(self, "generators", tuple(gens))

    @property
    def order(self):
        return len(self.mult)

    @property
    def identity(self):
        return 0

    def mul(self, a, b):
        return self.mult[a][b]

    def inverse(self, a):
        return self.mult[a].index(0)

    def name_of(self, a):
        return self.names[a] if self.names is not None else str(a)

    def conjugate(self, g, a):
        """g a g^-1."""
        return self.mul(self.mul(g, a), self.inverse(g))

    def __repr__(self):
        return f"<FiniteGroup of order {self.order}>"


def trivial_group():
    return FiniteGroup(((0,),), names=("1",))


def cyclic_group(n):
    """Z/n with generator 1."""
    mult = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return FiniteGroup(mult)


def symmetric_group_3():
    """All permutations of three points, identity first, lexicographic."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}
    mult = tuple(tuple(index[tuple(p[q[i]] for i in range(3))] for q in perms)
                 for p in perms)
    return FiniteGroup(mult, names=tuple("".join(map(str, p)) for p in perms))


def mulclose(group, gens):
    """Smallest subset containing the identity and gens, closed under mul."""
    closed = {group.identity}
    frontier = set(gens)
    while frontier:
        closed |= frontier
        frontier = {group.mul(a, b)
                    for a in closed for b in closed} - closed
    return frozenset(closed)


def subgroups(group):
    """Every subgroup, as sorted element tuples, smallest first.

    Closure search: grow each known subgroup by one extra generator until
    nothing new appears.  Fine for the desk-scale orders used here.
    """
    seen = {frozenset({group.identity})}
    frontier = list(seen)
    while frontier:
        base = frontier.pop()
        for g in group.elements:
            bigger = mulclose(group, base | {g})
            if bigger not in seen:
                seen.add(bigger)
                frontier.append(bigger)
    return tuple(sorted((tuple(sorted(s)) for s in seen),
                        key=lambda s: (len(s), s)))


def conjugate_subgroup(group, g, sub):
    return frozenset(group.conjugate(g, a) for a in sub)


def subgroup_conjugacy_key(group, sub, within=None):
    """Canonical representative of the conjugacy class of a subgroup under
    conjugation by `within` (by default the whole group)."""
    return min(tuple(sorted(conjugate_subgroup(group, g, sub)))
               for g in (group.elements if within is None else within))


def subgroup_class_reps(group, within=None):
    """The least subgroup of each conjugacy class, smallest first.

    With a subgroup `within`, only its subgroups count, and only its
    elements conjugate.
    """
    inside = set(group.elements if within is None else within)
    reps = {}
    for sub in subgroups(group):
        if inside.issuperset(sub):
            reps.setdefault(subgroup_conjugacy_key(group, sub, within), sub)
    return tuple(sorted(reps.values(), key=lambda s: (len(s), s)))


def check_action(group, action, carrier, error):
    """Raise `error` unless action holds one permutation of the carrier
    per group element, composing as the group with the identity trivial.

    Composition is checked for a in the group's generators and every b:
    with the identity row trivial, the a for which row(a*b) = row(a) o
    row(b) holds for every b are closed under products, so they are the
    whole group, and this accepts exactly what the check over all pairs
    accepts.
    """
    carrier = set(carrier)
    if set(action) != set(group.elements):
        raise error("need one action row per group element")
    for g, row in action.items():
        if set(row) != carrier or set(row.values()) != carrier:
            raise error(f"row of {g} is not a permutation")
    ident = action[group.identity]
    for x in carrier:
        if ident[x] != x:
            raise error("identity must act trivially")
    for a in group.generators:
        row_a = action[a]
        for b in group.elements:
            row_ab, row_b = action[group.mul(a, b)], action[b]
            for x in carrier:
                if row_ab[x] != row_a[row_b[x]]:
                    raise error("rows do not compose as the group")


def is_equivariant(group, mapping, src_act, dst_act):
    """Does mapping commute with the actions: f(g.x) == g.f(x) everywhere?

    mapping is total on a carrier that src_act preserves.  Only the group's
    generators are tried: when both sides are actions, the g for which the
    equation holds at every x contain the identity and are closed under
    products, as f(ab.x) = a.f(b.x) = ab.f(x), so they form a subgroup.  A
    point is fixed when its map to itself out of a trivial point commutes.
    """
    return all(mapping[src_act(g, x)] == dst_act(g, y)
               for g in group.generators for x, y in mapping.items())


def close_table(group, rows, identity, product, error):
    """Close an action table given on a generating set.

    rows maps some group elements to their data, identity is the data of
    the identity, and product(a, b) is the data of a*b from those of a and
    b.  Returns a table over every element; raises `error` when the rows do
    not generate the whole group.
    """
    have = {group.identity: identity, **rows}
    grew = True
    while grew:
        grew = False
        for a in list(have):
            for b in list(have):
                ab = group.mul(a, b)
                if ab not in have:
                    have[ab] = product(have[a], have[b])
                    grew = True
    if set(have) != set(group.elements):
        raise error("rows do not generate the whole group")
    return have


def maps_by_orbit_reps(src, choices, act):
    """Every equivariant map out of a G-set, by one image per orbit.

    choices(rep) lists candidate images for a representative and act(g, y)
    carries one along g.  Only those fixed by the representative's
    stabilizer spread over its orbit and are kept; the maps come in product
    order of the kept candidates, representatives in orbit order.

    A kept y needs one carry per orbit member x: every g with g.rep = x is
    g0 s for the first such g0 and some s in the stabilizer, and act(g0 s,
    y) = act(g0, act(s, y)) = act(g0, y).  The identity, first in element
    order, fixes every y: the stabilizer check skips it, the representative
    takes y itself, and members come in the order elements first reach them.
    """
    ident = src.group.identity
    orbits = src.orbits()
    kept = [[y for y in choices(o.rep)
             if all(act(s, y) == y for s in o.stabilizer if s != ident)]
            for o in orbits]
    moves = []
    for o in orbits:
        first = {}
        for g in src.group.elements:
            first.setdefault(src.act(g, o.rep), g)
        moves.append(first.items())
    return [{x: y if g == ident else act(g, y)
             for y, move in zip(pick, moves) for x, g in move}
            for pick in product(*kept)]


@dataclass(frozen=True)
class Orbit:
    rep: object
    members: tuple
    stabilizer: tuple


class GSet:
    """A finite left G-set as a full action table.

    action[g][x] is g.x, with one complete row per group element.  A G-set
    never changes after construction, so its orbits are computed once.
    """

    __slots__ = ("group", "elements", "action", "_hash", "_orbits")

    def __init__(self, group, elements, action):
        self.group = group
        self.elements = tuple(sorted(elements, key=sort_key))
        self.action = {g: dict(row) for g, row in action.items()}
        self._hash = None
        self._orbits = None
        if len(set(self.elements)) != len(self.elements):
            raise GSetError("carrier has repeated elements")
        check_action(group, self.action, self.elements, GSetError)

    @classmethod
    def from_generator_rows(cls, group, elements, rows):
        """Close partial data: rows maps some generating set to its action."""
        have = close_table(group, rows, {x: x for x in elements},
                           lambda a, b: {x: a[b[x]] for x in elements},
                           GSetError)
        return cls(group, elements, have)

    @property
    def size(self):
        return len(self.elements)

    def act(self, g, x):
        return self.action[g][x]

    def orbit(self, x):
        return tuple(sorted({self.action[g][x] for g in self.group.elements},
                            key=sort_key))

    def stabilizer(self, x):
        return tuple(g for g in self.group.elements
                     if self.action[g][x] == x)

    def orbits(self):
        """Orbit partition with a stabilizer per (minimal) representative."""
        if self._orbits is None:
            seen = set()
            out = []
            for x in self.elements:
                if x in seen:
                    continue
                members = self.orbit(x)
                seen.update(members)
                out.append(Orbit(x, members, self.stabilizer(x)))
            self._orbits = tuple(out)
        return self._orbits

    def is_transitive(self):
        return len(self.orbits()) <= 1 and self.size > 0

    def orbit_signature(self):
        """Multiset of (size, stabilizer class) pairs; an isomorphism
        invariant that is complete for finite G-sets."""
        sig = [(len(o.members),
                subgroup_conjugacy_key(self.group, frozenset(o.stabilizer)))
               for o in self.orbits()]
        return tuple(sorted(sig))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, GSet):
            return NotImplemented
        return (self.group == other.group and self.elements == other.elements
                and self.action == other.action)

    def __hash__(self):
        if self._hash is None:
            rows = tuple(tuple(self.action[g][x] for x in self.elements)
                         for g in self.group.elements)
            self._hash = hash((self.group, self.elements, rows))
        return self._hash

    def __repr__(self):
        shape = "+".join(str(len(o.members)) for o in self.orbits()) or "0"
        return f"<GSet {shape} under order-{self.group.order} group>"


def trivial_gset(group, elements):
    rows = {g: {x: x for x in elements} for g in group.elements}
    return GSet(group, elements, rows)


def coset_gset(group, sub):
    """Left cosets of a subgroup under left translation.

    Cosets are named by their minimal member, so the carrier is a sorted
    tuple of integers with 0 naming the subgroup itself.
    """
    subset = frozenset(sub)
    if mulclose(group, subset) != subset:
        raise GroupError("cosets need a subgroup")
    name = {}
    for g in group.elements:
        coset = frozenset(group.mul(g, h) for h in subset)
        name[g] = min(coset)
    carrier = sorted(set(name.values()))
    rows = {g: {x: name[group.mul(g, x)] for x in carrier}
            for g in group.elements}
    return GSet(group, carrier, rows)


def disjoint_union_gsets(parts):
    """Tag-and-union: element x of part i becomes (i, x)."""
    if not parts:
        raise GSetError("need at least one part")
    group = parts[0].group
    elements = [(i, x) for i, p in enumerate(parts) for x in p.elements]
    rows = {g: {(i, x): (i, p.act(g, x))
                for i, p in enumerate(parts) for x in p.elements}
            for g in group.elements}
    return GSet(group, elements, rows)


def transitive_gsets(group):
    """One coset G-set per conjugacy class of subgroups, biggest first."""
    return tuple(coset_gset(group, s) for s in subgroup_class_reps(group))


def skeletal_gsets(group, max_size):
    """All G-sets of size <= max_size, one per isomorphism class.

    Each is a disjoint union of coset G-sets; carriers are pairs (i, coset
    name) so distinct objects never share elements by accident.
    """
    types = [t for t in transitive_gsets(group) if t.size <= max_size]
    out = [trivial_gset(group, ())]

    def build(start, left, chosen):
        if chosen:
            out.append(disjoint_union_gsets(chosen))
        for i in range(start, len(types)):
            t = types[i]
            if t.size <= left:
                build(i, left - t.size, chosen + [t])

    build(0, max_size, [])
    out.sort(key=lambda a: (a.size, a.orbit_signature()))
    return tuple(out)


def equivariant_maps(src, dst):
    """Every equivariant function between two G-sets over the same group,
    by one image choice per orbit representative."""
    if src.group != dst.group:
        raise GSetError("maps need a common group")
    return tuple(maps_by_orbit_reps(src, lambda r: dst.elements, dst.act))


BUILTIN_GROUPS = {
    "trivial": trivial_group,
    "z2": lambda: cyclic_group(2),
    "z3": lambda: cyclic_group(3),
    "z4": lambda: cyclic_group(4),
    "s3": symmetric_group_3,
}


def builtin_group(name):
    try:
        return BUILTIN_GROUPS[name]()
    except KeyError:
        raise GroupError(f"unknown group {name!r}; have "
                         + ", ".join(sorted(BUILTIN_GROUPS))) from None


def group_to_json(group):
    return {"order": group.order, "mult": [list(r) for r in group.mult]}


def group_from_json(data):
    if not isinstance(data, dict):
        raise GroupError("group data must be a JSON object")
    if set(data) - {"order", "mult", "names"}:
        raise GroupError("unexpected keys in group data")
    if not {"order", "mult"} <= set(data):
        raise GroupError("group data needs \"order\" and \"mult\"")
    mult, names = data["mult"], data.get("names")
    if type(data["order"]) is not int:
        raise GroupError("\"order\" must be an integer")
    if not isinstance(mult, list) or not all(
            isinstance(r, list) and all(type(v) is int for v in r)
            for r in mult):
        raise GroupError("\"mult\" must be a list of integer rows")
    if names is not None and (
            not isinstance(names, list) or len(names) != data["order"]
            or not all(type(n) is str for n in names)
            or len(set(names)) != len(names)):
        raise GroupError(f"\"names\" must be a list of {data['order']} "
                         "distinct strings")
    g = FiniteGroup(tuple(tuple(r) for r in mult),
                    names=tuple(names) if names is not None else None)
    if g.order != data["order"]:
        raise GroupError("declared order does not match the table")
    return g


def group_from_ref(ref):
    """The one group reader: a builtin name, or an inline table."""
    return builtin_group(ref) if isinstance(ref, str) else group_from_json(ref)
