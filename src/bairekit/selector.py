"""Prefix-resolved surjections onto finite point sets, and their image laws.

A ``PrefixMap`` reads the first ``depth`` values of a branch: stems over
its finite alphabet resolve through an explicit table, and any stem that
leaves the alphabet resolves to the default point.  Such a map is a
continuous surjection from the Baire space onto its point set, and every
identity about images of cylinders under it is exactly computable on a
finite window of stem classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

from .scheme import Report, Scheme, VERIFIED, VIOLATED, Window
from .seq import Seq, seq_at, seq_from_text, seq_to_text
from .spaces import FiniteSpaceModel


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
        if self.default not in self.points:
            raise ValueError("default point unknown")
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

    def stem_alphabet(self, a: Seq) -> tuple[int, ...]:
        """Alphabet values, values of ``a``, and one fresh representative;
        enough letters to evaluate any statement about branches through
        ``a`` exactly."""
        base = sorted(set(self.alphabet) | set(a))
        return tuple(base) + ((max(base) + 1) if base else 0,)

    def to_json(self) -> dict:
        return {"points": list(self.points), "depth": self.depth,
                "entries": [{"stem": seq_to_text(s), "point": p}
                            for s, p in self.table],
                "default": self.default}

    @classmethod
    def from_json(cls, data: dict) -> "PrefixMap":
        entries = tuple((seq_from_text(e["stem"]), e["point"])
                        for e in data["entries"])
        alphabet = tuple(sorted({v for s, _ in entries for v in s}))
        return cls(tuple(data["points"]), data["depth"], alphabet, entries,
                   data["default"])

    @classmethod
    def build(cls, points, depth, alphabet, assignment, default) -> "PrefixMap":
        table = tuple(sorted((stem, assignment[stem])
                             for stem in product(alphabet, repeat=depth)))
        return cls(tuple(points), depth, tuple(alphabet), table, default)


def pushforward_scheme(pm: PrefixMap) -> Scheme:
    """The scheme of exact cylinder images, over the discrete model of the
    target points."""
    space = FiniteSpaceModel.discrete(pm.points)
    return Scheme(space, lambda a: space.mask_of(pm.image(a)),
                  label="pushforward")


def check_selector_identity(pm: PrefixMap, scheme: Scheme,
                            window: Window) -> Report:
    """Exact equality of the map's cylinder images with the scheme nodes,
    each image enumerated by brute force over stem classes rather than read
    from ``PrefixMap.image``, which the pushforward scheme is built from."""
    rep = Report("selector-identity")
    space = scheme.space
    for a in window.nodes():
        expected = space.mask_of(
            {pm.resolve(w) for w in _stem_class_words(pm, a)})
        key = seq_to_text(a)
        if space.equal(scheme.node(a), expected):
            rep.add(key, VERIFIED)
        else:
            rep.add(key, VIOLATED,
                    f"node {space.describe(scheme.node(a))} is not the image")
    return rep


def _stem_class_words(pm: PrefixMap, a: Seq) -> Iterator[Seq]:
    """One word per stem class of the branches through ``a``: ``a`` extended
    to the map depth over ``stem_alphabet(a)``."""
    letters = pm.stem_alphabet(a)
    for tail in product(letters, repeat=max(pm.depth - len(a), 0)):
        yield a + tail


def check_image_identity(pm: PrefixMap, u: frozenset[int], a: Seq) -> bool:
    """Image of (preimage of ``u``) meet the cylinder at ``a`` versus ``u``
    meet the cylinder image: the left side by brute enumeration of stem
    classes, the right side through ``PrefixMap.image``."""
    seen = {pm.resolve(w) for w in _stem_class_words(pm, a)}
    return u & seen == u & pm.image(a)


@dataclass(frozen=True)
class SigmaBasic:
    """A basic open of the topology joining target preimages with cylinders:
    preimage of ``u`` intersected with the cylinder at ``stem``."""

    u: frozenset[int]
    stem: Seq


def basic_members(pm: PrefixMap, b: SigmaBasic) -> frozenset[Seq]:
    """Stem classes (at resolution length) realizing membership in the basic."""
    return frozenset(w for w in _stem_class_words(pm, b.stem)
                     if pm.resolve(w) in b.u)


def basic_is_empty(pm: PrefixMap, b: SigmaBasic) -> bool:
    return not basic_members(pm, b)


def pi_space_probe(pm: PrefixMap, b: SigmaBasic, budget: int) -> Optional[Seq]:
    """First stem extending the basic's stem whose whole image lands in the
    basic's open; its cylinder then sits inside the basic set."""
    if basic_is_empty(pm, b):
        raise ValueError("probe target is empty")
    for k in range(budget):
        c = b.stem + seq_at(k)
        if pm.image(c) <= b.u:
            return c
    return None


def preset_maps() -> dict[str, PrefixMap]:
    two = PrefixMap.build([0, 1], 1, (0,), {(0,): 0}, 1)
    three = PrefixMap.build([0, 1, 2], 2, (0, 1),
                            {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 0}, 1)
    four = PrefixMap.build([0, 1, 2, 3], 2, (0, 1),
                           {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}, 0)
    return {"two": two, "three": three, "four": four}
