"""Prefix-resolved surjections onto finite point sets.

A ``PrefixMap`` reads the first ``depth`` values of a branch: stems over
its finite alphabet resolve through an explicit table, and any stem that
leaves the alphabet resolves to the default point.  Such a map is a
continuous surjection from the Baire space onto its point set, and the
image of a cylinder is exactly computable on finitely many stem classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .seq import Seq, seq_to_text


@dataclass(frozen=True)
class PrefixMap:
    points: tuple[int, ...]
    depth: int
    alphabet: tuple[int, ...]
    table: tuple[tuple[Seq, int], ...]
    default: int

    def __post_init__(self):
        lookup = dict(self.table)
        stems = set(product(self.alphabet, repeat=self.depth))
        if set(lookup) != stems:
            raise ValueError("table must cover exactly the alphabet stems")
        if set(lookup.values()) | {self.default} != set(self.points):
            raise ValueError("map must reach every point")
        object.__setattr__(self, "_lookup", lookup)

    def resolve(self, stem: Seq) -> int:
        """The point of any branch extending ``stem`` (length >= depth)."""
        if len(stem) < self.depth:
            raise ValueError(f"stem shorter than the map depth: {stem}")
        key = stem[: self.depth]
        return self._lookup.get(key, self.default)

    def image(self, a: Seq) -> frozenset[int]:
        """The exact point image of the cylinder at ``a``."""
        head = a[: self.depth]
        if any(v not in self.alphabet for v in head):
            return frozenset((self.default,))
        if len(a) >= self.depth:
            return frozenset((self._lookup[head],))
        completions = {self._lookup[head + tail]
                       for tail in product(self.alphabet,
                                           repeat=self.depth - len(a))}
        return frozenset(completions | {self.default})

    def to_json(self) -> dict:
        return {"points": list(self.points), "depth": self.depth,
                "entries": [{"stem": seq_to_text(s), "point": p}
                            for s, p in self.table],
                "default": self.default}

    @classmethod
    def build(cls, points, depth, alphabet, assignment, default) -> "PrefixMap":
        table = tuple(sorted((stem, assignment[stem])
                             for stem in product(alphabet, repeat=depth)))
        return cls(tuple(points), depth, tuple(alphabet), table, default)


def _stem_class_words(pm: PrefixMap, a: Seq) -> Iterator[Seq]:
    """One word per stem class of the branches through ``a``: ``a`` extended
    to the map depth over the alphabet, the values of ``a`` and one fresh
    letter, enough to decide any statement about branches through ``a``."""
    letters = sorted(set(pm.alphabet) | set(a))
    letters.append(max(letters) + 1 if letters else 0)
    for tail in product(letters, repeat=max(pm.depth - len(a), 0)):
        yield a + tail


def stem_class_image(pm: PrefixMap, a: Seq) -> frozenset[int]:
    """The points of the branches through ``a``, enumerated by brute force
    over stem classes rather than read from ``PrefixMap.image``."""
    return frozenset(pm.resolve(w) for w in _stem_class_words(pm, a))


def basic_members(pm: PrefixMap, u: frozenset[int], stem: Seq) -> frozenset[Seq]:
    """Stem classes (at resolution length) realizing membership in the basic
    open of the topology joining target preimages with cylinders: the
    preimage of ``u`` intersected with the cylinder at ``stem``."""
    return frozenset(w for w in _stem_class_words(pm, stem)
                     if pm.resolve(w) in u)


def pi_space_probe(pm: PrefixMap, u: frozenset[int], stem: Seq) -> Seq:
    """The least member word of the basic at ``(u, stem)``.  It extends
    ``stem`` and is at least the map depth long, so its cylinder maps onto
    the one point it resolves to, which lies in ``u``: the cylinder is
    inside the basic."""
    members = basic_members(pm, u, stem)
    if not members:
        raise ValueError("probe target is empty")
    return min(members)


def preset_maps() -> dict[str, PrefixMap]:
    two = PrefixMap.build([0, 1], 1, (0,), {(0,): 0}, 1)
    three = PrefixMap.build([0, 1, 2], 2, (0, 1),
                            {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 0}, 1)
    four = PrefixMap.build([0, 1, 2, 3], 2, (0, 1),
                           {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}, 0)
    return {"two": two, "three": three, "four": four}
