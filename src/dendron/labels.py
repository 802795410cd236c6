"""Leaf-labeled trees and pointed maps between label sets.

Labels are arbitrary hashable names, one per leaf; "+" is reserved as the
basepoint that stands for the root side of a pointed map.  The skeletal
case labels leaves 1..n.
"""

from __future__ import annotations

import itertools

from .trees import sort_key
from .morphisms import hom_set

PLUS = "+"


class LabelError(ValueError):
    pass


class LabeledTree:
    """A tree plus a bijection from a label set onto its leaves."""

    __slots__ = ("tree", "labels", "label_set", "_hash")

    def __init__(self, tree, labels):
        self.tree = tree
        self.labels = dict(labels)
        if PLUS in self.labels:
            raise LabelError("'+' is reserved for the basepoint")
        if set(self.labels.values()) != set(tree.leaves) \
                or len(self.labels) != len(tree.leaves):
            raise LabelError("labels must biject onto the leaves")
        self.label_set = tuple(sorted(self.labels, key=sort_key))
        self._hash = None

    def leaf_of(self, label):
        return self.labels[label]

    def __eq__(self, other):
        if not isinstance(other, LabeledTree):
            return NotImplemented
        return self.tree == other.tree and self.labels == other.labels

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.tree, frozenset(self.labels.items())))
        return self._hash

    def __repr__(self):
        return f"<LabeledTree {len(self.label_set)} labels on {self.tree!r}>"


def canonical_labeling(tree):
    """Labels 1..n assigned along the canonical edge order of the leaves."""
    order = [e for e in tree.canonical_edge_order() if tree.is_leaf(e)]
    return LabeledTree(tree, {i + 1: e for i, e in enumerate(order)})


class PointedMap:
    """A basepoint-preserving map src+ -> dst+ between finite label sets.

    Only the unpointed part is stored; the basepoint "+" is implicitly sent
    to itself, and labels may be sent to "+".
    """

    __slots__ = ("src_labels", "dst_labels", "mapping", "_hash")

    def __init__(self, src_labels, dst_labels, mapping):
        self.src_labels = tuple(sorted(src_labels, key=sort_key))
        self.dst_labels = tuple(sorted(dst_labels, key=sort_key))
        if PLUS in self.src_labels or PLUS in self.dst_labels:
            raise LabelError("'+' is reserved for the basepoint")
        self.mapping = dict(mapping)
        if set(self.mapping) != set(self.src_labels):
            raise LabelError("pointed map must be total on the source labels")
        allowed = set(self.dst_labels) | {PLUS}
        for v in self.mapping.values():
            if v not in allowed:
                raise LabelError(f"label image {v!r} is not a target label")
        self._hash = None

    @classmethod
    def identity_on(cls, labels):
        return cls(labels, labels, {a: a for a in labels})

    def __call__(self, label):
        if label == PLUS:
            return PLUS
        return self.mapping[label]

    def __eq__(self, other):
        if not isinstance(other, PointedMap):
            return NotImplemented
        return (self.src_labels == other.src_labels
                and self.dst_labels == other.dst_labels
                and self.mapping == other.mapping)

    def __hash__(self):
        if self._hash is None:
            items = tuple(self.mapping[a] for a in self.src_labels)
            self._hash = hash((self.src_labels, self.dst_labels, items))
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{a!r}>{self.mapping[a]!r}" for a in self.src_labels)
        return f"<PointedMap {body}>"

    def sort_signature(self):
        return tuple(sort_key(self.mapping[a]) for a in self.src_labels)


def compose_pointed(first, second):
    """Apply `first`, then `second`."""
    if first.dst_labels != second.src_labels:
        raise LabelError("pointed maps do not compose")
    return PointedMap(first.src_labels, second.dst_labels,
                      {a: second(first.mapping[a]) for a in first.src_labels})


def enumerate_pointed_maps(src_labels, dst_labels):
    """All pointed maps src+ -> dst+ in a deterministic order."""
    src = tuple(sorted(src_labels, key=sort_key))
    targets = tuple(sorted(dst_labels, key=sort_key)) + (PLUS,)
    out = []
    for images in itertools.product(targets, repeat=len(src)):
        out.append(PointedMap(src, dst_labels, dict(zip(src, images))))
    out.sort(key=PointedMap.sort_signature)
    return out


def is_label_preserving(f, src_labeled, dst_labeled):
    """True iff f matches leaves label by label and sends root to root."""
    if f.src != src_labeled.tree or f.dst != dst_labeled.tree:
        return False
    if src_labeled.label_set != dst_labeled.label_set:
        return False
    if f.mapping[f.src.root] != f.dst.root:
        return False
    return all(f.mapping[src_labeled.labels[a]] == dst_labeled.labels[a]
               for a in src_labeled.label_set)


def hom_labeled(src_labeled, dst_labeled):
    """All label-and-root-preserving maps between two labeled trees."""
    if src_labeled.label_set != dst_labeled.label_set:
        return []
    pins = {src_labeled.tree.root: dst_labeled.tree.root}
    for a in src_labeled.label_set:
        leaf = src_labeled.labels[a]
        want = dst_labeled.labels[a]
        if leaf in pins and pins[leaf] != want:
            return []  # the root doubles as a differently-pinned leaf
        pins[leaf] = want
    return hom_set(src_labeled.tree, dst_labeled.tree, pins=pins)
