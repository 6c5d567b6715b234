"""Space models: the abstract topology interface and its two instances.

A space model provides the whole space, exact set predicates on its open
sets, and for every nonempty open a fair countable enumeration of a
pi-base of that open, whose element 0 is the open itself (the convention
the scheme-extraction recursion relies on).

``FiniteSpaceModel`` stores opens as bitmasks over at most 64 points and
decides everything exactly.  ``BaireSpaceModel`` uses cylinder expressions
as opens and delegates to the exact cylinder decision procedures.
"""

from __future__ import annotations

from itertools import count, cycle, product
from typing import Iterable, Iterator, Protocol

from . import cylinder
from .cylinder import Atom, Expr, Inter, minimal_antichain
from .grammar import expr_to_text
from .seq import BranchRule, seq_at

# FiniteSpaceModel checks every pair of opens, so it rejects larger families
MAX_OPENS = 2048


class LazySeq:
    """An indexable view of an infinite iterator, materialized on demand."""

    def __init__(self, iterable: Iterable):
        self._it = iter(iterable)
        self._cache: list = []

    def __getitem__(self, i: int):
        while len(self._cache) <= i:
            self._cache.append(next(self._it))
        return self._cache[i]


class SpaceModel(Protocol):
    """What schemes, games and checks need of a space; the two models
    below provide it."""

    tag: str

    def whole(self): ...
    def is_empty(self, o) -> bool: ...
    def is_open(self, o) -> bool: ...
    def intersect(self, a, b): ...
    def subset(self, a, b) -> bool: ...
    def equal(self, a, b) -> bool: ...
    def contains(self, o, x) -> bool: ...

    def family(self, node, children: list, pairs: bool
               ) -> tuple[list[int], bool, list[tuple[int, int]]]:
        """How ``children`` sit in ``node``: the indices, ascending, of the
        children not inside it; whether it is inside their union; and,
        when ``pairs`` is asked, the index pairs ``(n, m)``, ``n < m``
        ascending, of children that meet (else none)."""

    def uncovered(self, opens: list, cover: list) -> list[int]:
        """The indices ``n``, ascending, of ``opens[n]`` not inside the
        union of ``cover``."""

    def pi_base_enum(self, o) -> LazySeq:
        """Fair enumeration of nonempty opens forming a pi-base of ``o``.

        Element 0 is ``o`` itself; every listed open is nonempty and
        contained in ``o``; every nonempty open inside ``o`` contains a
        listed element.
        """

    def describe(self, o) -> str: ...
    def open_to_json(self, o): ...


class FiniteSpaceModel:
    """An explicit topology on at most 64 points; opens are bitmasks.

    Closure under union and intersection and the presence of the empty and
    whole sets are verified exhaustively at construction.
    """

    tag = "finite"

    def __init__(self, points: Iterable[int], opens: Iterable[Iterable[int] | int]):
        self.points: tuple[int, ...] = tuple(sorted(set(points)))
        if not self.points:
            raise ValueError("a space needs at least one point")
        if len(self.points) > 64:
            raise ValueError("finite model supports at most 64 points")
        self._index = {p: i for i, p in enumerate(self.points)}
        masks = set()
        for o in opens:
            masks.add(o if isinstance(o, int) else self.mask_of(o))
        if len(masks) > MAX_OPENS:
            raise ValueError(f"finite model supports at most {MAX_OPENS} opens")
        self.opens: frozenset[int] = frozenset(masks)
        self._full = (1 << len(self.points)) - 1
        self._validate()

    def _validate(self) -> None:
        if 0 not in self.opens or self._full not in self.opens:
            raise ValueError("opens must contain the empty set and the whole set")
        ordered = sorted(self.opens)
        inside: dict[int, list[int]] = {a: [] for a in ordered}
        for i, a in enumerate(ordered):
            if a & ~self._full:
                raise ValueError(f"open {a:b} mentions unknown points")
            # b >= a suffices and fills each sub-open table in ascending order
            for b in ordered[i:]:
                if a | b not in self.opens or a & b not in self.opens:
                    raise ValueError("opens not closed under union/intersection")
                if a and a & ~b == 0:
                    inside[b].append(a)
        self._inside = {a: tuple(sub) for a, sub in inside.items()}

    def mask_of(self, pts: Iterable[int]) -> int:
        m = 0
        for p in pts:
            if p not in self._index:
                raise ValueError(f"unknown point {p!r}")
            m |= 1 << self._index[p]
        return m

    def points_of(self, mask: int) -> tuple[int, ...]:
        return tuple(p for i, p in enumerate(self.points) if mask >> i & 1)

    def whole(self) -> int:
        return self._full

    def is_empty(self, o: int) -> bool:
        return o == 0

    def is_open(self, o) -> bool:
        return isinstance(o, int) and o in self.opens

    def intersect(self, a: int, b: int) -> int:
        return a & b

    def subset(self, a: int, b: int) -> bool:
        return a & ~b == 0

    def equal(self, a: int, b: int) -> bool:
        return a == b

    def contains(self, o: int, x: int) -> bool:
        return bool(o >> self._index[x] & 1)

    def family(self, node: int, children: list[int], pairs: bool
               ) -> tuple[list[int], bool, list[tuple[int, int]]]:
        met = [(n, m) for n in range(len(children))
               for m in range(n + 1, len(children))
               if children[n] & children[m]] if pairs else []
        return (self.uncovered(children, [node]),
                not self.uncovered([node], children), met)

    def uncovered(self, opens: list[int], cover: list[int]) -> list[int]:
        union = 0
        for c in cover:
            union |= c
        return [n for n, o in enumerate(opens) if o & ~union]

    def nonempty_opens_inside(self, o: int) -> tuple[int, ...]:
        return self._inside[o]

    def pi_base_enum(self, o: int) -> LazySeq:
        if o == 0:
            raise ValueError("no pi-base of the empty set")
        # o is the largest submask of itself, so it ends the ascending table
        return LazySeq(cycle((o,) + self.nonempty_opens_inside(o)[:-1]))

    def describe(self, o: int) -> str:
        return "{" + ",".join(str(p) for p in self.points_of(o)) + "}"

    def open_to_json(self, o: int) -> list[int]:
        return list(self.points_of(o))

    def to_json(self) -> dict:
        return {"points": list(self.points),
                "opens": [list(self.points_of(m)) for m in sorted(self.opens)]}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteSpaceModel":
        """A space from its JSON form: a list of distinct integer points and
        a list of opens, each a list of those points."""
        if not isinstance(data, dict) or "points" not in data or "opens" not in data:
            raise ValueError("space file must carry 'points' and 'opens'")
        points, opens = data["points"], data["opens"]
        if not (isinstance(points, list) and all(map(_is_point, points))):
            raise ValueError("points must be a list of integers")
        if len(set(points)) != len(points):
            raise ValueError("points must be distinct")
        if not (isinstance(opens, list)
                and all(isinstance(o, list) and all(map(_is_point, o))
                        for o in opens)):
            raise ValueError("opens must be lists of points")
        return cls(points, opens)

    @classmethod
    def sierpinski(cls) -> "FiniteSpaceModel":
        """Two points, one proper open set ``{1}``; no library code calls it,
        it stays public as the example space shared by many tests."""
        return cls([0, 1], [[], [1], [0, 1]])

    @classmethod
    def discrete(cls, points: tuple[int, ...]) -> "FiniteSpaceModel":
        """Every set of ``points`` open; no library code calls it, it stays
        public for the tests and the CI runs that build discrete spaces."""
        return cls(points, range(1 << len(points)))


def _is_point(p) -> bool:
    # JSON true and false load as bool, a subclass of int
    return isinstance(p, int) and not isinstance(p, bool)


class BaireSpaceModel:
    """The Baire space with cylinder expressions as its open sets."""

    tag = "baire"

    def whole(self) -> Expr:
        return cylinder.FULL

    def is_empty(self, o: Expr) -> bool:
        return cylinder.is_empty(o)

    def is_open(self, o) -> bool:
        return isinstance(o, Expr)

    def intersect(self, a: Expr, b: Expr) -> Expr:
        return Inter(a, b)

    def subset(self, a: Expr, b: Expr) -> bool:
        return cylinder.subset(a, b)

    def equal(self, a: Expr, b: Expr) -> bool:
        return cylinder.equal(a, b)

    def contains(self, o: Expr, x: BranchRule) -> bool:
        return cylinder.contains_branch(o, x)

    def family(self, node: Expr,
               children: list[Expr] | cylinder.Extensions, pairs: bool
               ) -> tuple[list[int], bool, list[tuple[int, int]]]:
        return cylinder.family(node, children, pairs)

    def uncovered(self, opens: list[Expr], cover: list[Expr]) -> list[int]:
        return cylinder.uncovered(opens, cover)

    def pi_base_enum(self, o: Expr) -> LazySeq:
        """All cylinders inside ``o``: fair extensions of its minimal antichain."""
        if cylinder.is_empty(o):
            raise ValueError("no pi-base of the empty set")

        def gen() -> Iterator[Expr]:
            yield o
            chain = minimal_antichain(o)
            for k in count():
                member, j = chain.extension(k)
                candidate = Atom(member + seq_at(j))
                if not cylinder.equal(candidate, o):
                    yield candidate

        return LazySeq(gen())

    def describe(self, o: Expr) -> str:
        return expr_to_text(o)

    def open_to_json(self, o: Expr) -> str:
        return expr_to_text(o)


BAIRE = BaireSpaceModel()


def all_topologies(n: int) -> list[list[int]]:
    """Every topology on ``n`` labelled points, as sorted lists of masks.
    Each is fixed by its points' least open neighbourhoods (Alexandroff):
    ``hoods[i]`` holds ``i`` and the hood of every point in it, and a mask
    is open when it holds the hood of each of its points."""
    # five points would try 16**5 hood tuples
    if not 1 <= n <= 4:
        raise ValueError("exhaustive enumeration supported for 1..4 points")
    masks, points = range(1 << n), range(n)
    out = []
    for hoods in product(*([m for m in masks if m >> i & 1] for i in points)):
        if all(hoods[j] & ~h == 0 for h in hoods for j in points if h >> j & 1):
            out.append([m for m in masks if all(
                hoods[i] & ~m == 0 for i in points if m >> i & 1)])
    # each family's rank as a bit set over its masks other than 0 and full
    out.sort(key=lambda fam: sum(1 << m for m in fam[1:-1]))
    return out
