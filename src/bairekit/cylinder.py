"""Exact algebra of basic clopen cylinders of the Baire space.

An expression is a finite boolean combination of atoms ``S(a)``, where the
atom denotes the set of branches extending the finite sequence ``a``.
Every such set is the symmetric difference of the cylinders of a unique
finite set ``F`` of sequences, its ring normal form: a branch lies in the
set exactly when an odd number of its prefixes lie in ``F``.  The form is
unique because two different forms ``F`` and ``F'`` differ on a branch:
take a shortest ``g`` in ``F Δ F'`` and extend it by a value that no
member uses at that position; that branch has exactly one prefix in
``F Δ F'``.  Emptiness is ``F == ∅``, equality is ``F == F'``, and every
membership question counts prefixes in ``F``.

``F`` only holds mentioned sequences (and the empty one).  Witnesses and
antichains still take their candidate order and fresh values from all
mentions, including those that cancel out of ``F``: ``S(0) | S(0,0)`` has
the normal form ``{(0,)}`` and the witness ``(0, 1)``, not ``(0, 0)``.
Reports record these outputs, so this rule is part of the report format.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import itemgetter
from typing import Callable, Optional

from .seq import BranchRule, Seq, unpair


class EmptySetError(ValueError):
    """Raised when an operation requires a nonempty set."""


class WindowError(ValueError):
    """Raised when a window is too small to evaluate an expression."""


class Expr:
    """Base class for cylinder expressions.  Values are immutable."""

    __slots__ = ()

    def __or__(self, other: "Expr") -> "Expr":
        return Union(self, other)

    def __and__(self, other: "Expr") -> "Expr":
        return Inter(self, other)

    def __sub__(self, other: "Expr") -> "Expr":
        return Diff(self, other)


@dataclass(frozen=True, slots=True)
class Atom(Expr):
    entries: Seq


@dataclass(frozen=True, slots=True)
class Union(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Inter(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Diff(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class _FullExpr(Expr):
    pass


@dataclass(frozen=True, slots=True)
class _EmptyExpr(Expr):
    pass


FULL = _FullExpr()
EMPTY = _EmptyExpr()


def cyl(*entries: int) -> Atom:
    """Sugar for a basic cylinder atom."""
    return Atom(tuple(entries))


@lru_cache(maxsize=1024)
def mentions(e: Expr) -> frozenset[Seq]:
    """All atom sequences occurring in the expression."""
    match e:
        case Atom(a):
            return frozenset((a,))
        case Union(l, r) | Inter(l, r) | Diff(l, r):
            return mentions(l) | mentions(r)
        case _FullExpr() | _EmptyExpr():
            return frozenset()
    raise TypeError(f"not a cylinder expression: {e!r}")


def normal_form(e: Expr) -> frozenset[Seq]:
    """The unique finite set of sequences whose cylinders XOR to ``e``."""
    match e:
        case Atom(a):
            return frozenset((a,))
        case Union(l, r):
            f, g = normal_form(l), normal_form(r)
            return f ^ g ^ _meet(f, g)
        case Inter(l, r):
            return _meet(normal_form(l), normal_form(r))
        case Diff(l, r):
            f = normal_form(l)
            return f ^ _meet(f, normal_form(r))
        case _FullExpr():
            return frozenset(((),))
        case _EmptyExpr():
            return frozenset()
    raise TypeError(f"not a cylinder expression: {e!r}")


def _meet(f: frozenset[Seq], g: frozenset[Seq]) -> frozenset[Seq]:
    # XOR of the pairwise meets; comparable stems meet in the longer one
    out: set[Seq] = set()
    for s in f:
        for t in g:
            short, long = (s, t) if len(s) <= len(t) else (t, s)
            if long[: len(short)] == short:
                out ^= {long}
    return frozenset(out)


def _odd_below(f: frozenset[Seq], c: Seq) -> bool:
    """Whether an odd number of members of ``f`` are prefixes of ``c``."""
    return sum(c[: len(s)] == s for s in f) % 2 == 1


def is_empty(e: Expr) -> bool:
    return not normal_form(e)


def subset(e1: Expr, e2: Expr) -> bool:
    return is_empty(Diff(e1, e2))


def equal(e1: Expr, e2: Expr) -> bool:
    return e1 is e2 or normal_form(e1) == normal_form(e2)


def intersects(e1: Expr, e2: Expr) -> bool:
    return not is_empty(Inter(e1, e2))


def contains_branch(e: Expr, p: BranchRule) -> bool:
    """Exact membership; reads ``p`` only up to the longest mention."""
    f = normal_form(e)
    return _odd_below(f, p.prefix(max(map(len, f), default=0)))


def enclosing_stem(e: Expr) -> Optional[Seq]:
    """The longest ``c`` with ``e`` inside ``S(c)``, or None if ``e`` is empty.

    It is the longest common prefix of the normal form: every branch of
    ``e`` extends a member, and ``e`` inside ``S(c)`` makes every member
    extend ``c``, because ``e`` and its meet with ``S(c)`` share one form.
    """
    f = normal_form(e)
    if not f:
        return None
    lo, hi = min(f), max(f)
    n = 0
    while n < min(len(lo), len(hi)) and lo[n] == hi[n]:
        n += 1
    return lo[:n]


def fresh_value(ms: frozenset[Seq], position: int, start: int = 0) -> int:
    """Smallest natural from ``start`` on that no mention long enough uses
    at ``position``."""
    used = {m[position] for m in ms if len(m) > position}
    v = start
    while v in used:
        v += 1
    return v


def witness_cylinder(e: Expr) -> Optional[Seq]:
    """A sequence ``w`` with cylinder ``S(w)`` inside ``e``, or None if empty.

    Canonical rule: take the first candidate ``c`` (the empty sequence,
    then the mentions in (length, lex) order) with an odd number of
    normal-form prefixes and extend it by the smallest fresh value at that
    position.  No member of the form extends the result, so every branch
    through it has the same prefixes in the form as ``c``.
    """
    f = normal_form(e)
    if not f:
        return None
    ms = mentions(e)
    candidates = [()] + sorted(ms, key=lambda s: (len(s), s))
    c = next(c for c in candidates if _odd_below(f, c))
    return c + (fresh_value(ms, len(c)),)


def strict_witness(e: Expr) -> Optional[Seq]:
    """A sequence ``c`` with ``S(c)`` inside ``e`` and different from ``e``.

    Appending one more value to a witness is enough: the result is a
    proper subset of the witness cylinder, which is itself inside ``e``.
    """
    w = witness_cylinder(e)
    return None if w is None else w + (0,)


# -- minimal antichains -------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Family:
    """All one-step extensions of ``stem`` whose last value avoids ``excluded``."""

    stem: Seq
    excluded: frozenset[int]


@dataclass(frozen=True, slots=True)
class Antichain:
    """The minimal cylinders inside an expression.

    Concrete members are listed outright; each family stands for the
    infinitely many fresh one-step extensions of its stem.  The fair
    member order lists concrete members first and then interleaves the
    families round-robin.
    """

    concrete: tuple[Seq, ...]
    families: tuple[Family, ...]

    @property
    def is_infinite(self) -> bool:
        """Whether the antichain has a family, hence infinitely many
        members.  Public API: the library itself does not ask."""
        return bool(self.families)

    def member(self, i: int) -> Seq:
        if i < len(self.concrete):
            return self.concrete[i]
        if not self.families:
            raise IndexError(i)
        k = i - len(self.concrete)
        fam = self.families[k % len(self.families)]
        return fam.stem + (_allowed_value(fam.excluded, k // len(self.families)),)

    def extension(self, n: int) -> tuple[Seq, int]:
        """The ``n``-th ``(member, j)`` pair of the fair order of extensions:
        Cantor unpairing for an infinite antichain, round-robin over the
        members for a finite one."""
        if self.families:
            i, j = unpair(n)
        else:
            i, j = n % len(self.concrete), n // len(self.concrete)
        return self.member(i), j

    def denotes(self, s: Seq) -> bool:
        if s in self.concrete:
            return True
        if not s:
            return False
        return any(f.stem == s[:-1] and s[-1] not in f.excluded
                   for f in self.families)


def _allowed_value(excluded: frozenset[int], j: int) -> int:
    v = 0
    while True:
        if v not in excluded:
            if j == 0:
                return v
            j -= 1
        v += 1


def minimal_antichain(e: Expr) -> Antichain:
    """The set of cylinders inside ``e`` whose parent cylinder is not inside.

    Descends the tree of mention prefixes from ``enclosing_stem(e)``; at a
    node either the node cylinder is inside (emit and stop), or disjoint
    (prune), or the node splits: the finitely many values mentioned at
    that position are explored explicitly and all remaining values behave
    identically, so one representative decides the whole fresh family.
    Starting at the stem drops no member: a node strictly above it is not
    inside ``e``, its fresh child misses the stem's own entry (a mention),
    and every sibling of the path to the stem is disjoint from ``e``.

    An atom ``S(c)`` is its own antichain ``{c}`` and takes no form.  The
    descent keeps an explicit stack, children pushed in reverse so that
    members come out in the recursive order; a stem thousands of entries
    long cannot exhaust the interpreter stack.
    """
    if isinstance(e, Atom):
        return Antichain((e.entries,), ())
    stem = enclosing_stem(e)
    if stem is None:
        raise EmptySetError("no antichain for the empty set")
    ms = mentions(e)
    concrete: list[Seq] = []
    families: list[Family] = []
    stack = [stem]
    while stack:
        c = stack.pop()
        here = Atom(c)
        if subset(here, e):
            concrete.append(c)
            continue
        if not intersects(here, e):
            continue
        pos = len(c)
        explicit = sorted({m[pos] for m in ms if len(m) > pos and m[:pos] == c})
        if subset(Atom(c + (fresh_value(ms, pos),)), e):
            families.append(Family(c, frozenset(explicit)))
        stack.extend(c + (v,) for v in reversed(explicit))
    return Antichain(tuple(concrete), tuple(families))


class Extensions:
    """The atoms ``S(stem + t)`` for the tails ``t`` in order, each built
    only when it is read: an int index gives an ``Atom``, a slice a list
    of them.  ``family`` decides such a family on ``stem`` and ``tails``
    and builds no atom."""

    __slots__ = ("stem", "tails")

    def __init__(self, stem: Seq, tails: list[Seq]):
        self.stem = stem
        self.tails = tails

    def __len__(self) -> int:
        return len(self.tails)

    def __getitem__(self, i):
        if isinstance(i, slice):
            stem = self.stem
            return [Atom(stem + t) for t in self.tails[i]]
        return Atom(self.stem + self.tails[i])


def family(node: Expr, children: list[Expr] | Extensions, pairs: bool
           ) -> tuple[list[int], bool, list[tuple[int, int]]]:
    """The children not inside ``node``, whether ``node`` is inside their
    union, and, when ``pairs`` is asked, the pairs ``n < m`` that meet.

    ``children`` is a list of expressions or an ``Extensions``.  The
    node's form ``N`` and each child's form ``f`` are taken once; a child
    is inside the node exactly when ``f ∧ N == f``.  When the pairs were
    asked and none meets, the union's form is the XOR of the child forms,
    because a disjoint union is a symmetric difference; otherwise it is
    folded as ``U ^ f ^ (U ∧ f)``.  A family of atoms alone takes no form:
    its stems decide it (``_stem_family``).

    The extensions of a stem ``p`` that extends the atom node's stem ``c``
    all lie inside the node.  ``S(p + t)`` lies around the node only when
    ``p + t`` is a prefix of ``c``, that is when ``p == c`` and ``t`` is
    empty; and ``S(p + t)`` meets ``S(p + u)`` exactly when ``t`` and
    ``u`` are comparable.  So such a family is decided on its tails.
    """
    if isinstance(children, Extensions):
        stem, tails = children.stem, children.tails
        if isinstance(node, Atom) and \
                stem[: len(node.entries)] == node.entries:
            return ([], stem == node.entries and () in tails,
                    _meeting(tails) if pairs else [])
        children = children[:]
    if isinstance(node, Atom):
        stems = [c.entries for c in children if isinstance(c, Atom)]
        if len(stems) == len(children):
            return _stem_family(node.entries, stems, pairs)
    top = normal_form(node)
    forms = [normal_form(c) for c in children]
    escaped = [n for n, f in enumerate(forms) if _meet(f, top) != f]
    met = [(n, m) for n in range(len(forms)) for m in range(n + 1, len(forms))
           if _meet(forms[n], forms[m])] if pairs else []
    u: frozenset[Seq] = frozenset()
    for f in forms:
        u = u ^ f if pairs and not met else u ^ f ^ _meet(u, f)
    return escaped, _meet(top, u) == top, met


def _stem_family(stem: Seq, stems: list[Seq], pairs: bool
                 ) -> tuple[list[int], bool, list[tuple[int, int]]]:
    """``family`` for the node ``S(stem)`` and the children ``S(s)``.

    A child is inside the node exactly when ``stem`` is a prefix of ``s``.
    The node is inside the union exactly when some ``s`` is a prefix of
    ``stem``, which no ``s`` longer than ``stem`` is: finitely many
    cylinders that strictly extend the node or are incomparable with it
    all miss the branches through ``stem`` followed by a value none of the
    extensions uses there.  Two cylinders meet exactly when their stems
    are comparable (``_meeting``).
    """
    k = len(stem)
    if list(map(itemgetter(slice(0, k)), stems)).count(stem) == len(stems):
        escaped = []
    else:
        escaped = [n for n, s in enumerate(stems) if s[:k] != stem]
    covered = min(map(len, stems), default=k) <= k and \
        any(stem[: len(s)] == s for s in stems)
    return escaped, covered, _meeting(stems) if pairs else []


def _meeting(stems: list[Seq]) -> list[tuple[int, int]]:
    """The pairs ``n < m`` whose stems are comparable.

    No two distinct stems of one length are.  The extensions of a stem
    form one interval of the lexicographic order, so some two stems are
    comparable exactly when two neighbours in the sorted list are; only
    then are the pairs listed.
    """
    lengths = set(map(len, stems))
    if len(lengths) <= 1 and len(set(stems)) == len(stems):
        return []
    ordered = sorted(stems)
    if not any(t[: len(s)] == s for s, t in zip(ordered, ordered[1:])):
        return []
    return [(n, m) for n, s in enumerate(stems)
            for m, t in enumerate(stems[n + 1:], n + 1)
            if s[: len(t)] == t or t[: len(s)] == s]


def uncovered(opens: list[Expr], cover: list[Expr]) -> list[int]:
    """The indices ``n``, ascending, whose ``opens[n]`` is not inside the
    union of ``cover``.

    An open that is one of the cover's own objects is inside it.  For the
    others the union's form ``U`` is folded once, each open's form ``f``
    is taken once, and the open is inside exactly when ``f ∧ U == f``.
    """
    members = {id(c) for c in cover}
    rest = [n for n, o in enumerate(opens) if id(o) not in members]
    if not rest:
        return []
    u: frozenset[Seq] = frozenset()
    for c in cover:
        f = normal_form(c)
        u = u ^ f ^ _meet(u, f)
    out = []
    for n in rest:
        f = normal_form(opens[n])
        if _meet(f, u) != f:
            out.append(n)
    return out


# -- window oracle ------------------------------------------------------------

def trace_window(e: Expr, depth: int, breadth: int) -> frozenset[Seq]:
    """All length-``depth`` words over ``{0..breadth}`` whose extensions satisfy ``e``.

    The value ``breadth`` stands for the whole class of values no mention
    uses; under the precondition (mentions no longer than ``depth`` with
    entries below ``breadth``) this finite trace determines the expression.
    Each subterm is evaluated once as a set of words: an atom is the words
    with its prefix, and ``|``, ``&`` and ``-`` are the set operations.
    """
    for m in mentions(e):
        if len(m) > depth or any(x >= breadth for x in m):
            raise WindowError(f"window d={depth}, b={breadth} too small for {m}")
    alphabet = range(breadth + 1)

    def words(t: Expr) -> frozenset[Seq]:
        match t:
            case Atom(a):
                return frozenset(a + tail for tail in
                                 product(alphabet, repeat=depth - len(a)))
            case Union(l, r):
                return words(l) | words(r)
            case Inter(l, r):
                return words(l) & words(r)
            case Diff(l, r):
                return words(l) - words(r)
            case _FullExpr():
                return frozenset(product(alphabet, repeat=depth))
            case _EmptyExpr():
                return frozenset()
        raise TypeError(f"not a cylinder expression: {t!r}")

    return words(e)


# -- finitely branching trees and nowhere-dense avoidance ---------------------

@dataclass(frozen=True)
class NdTree:
    """A downward-closed, finitely branching set of finite sequences.

    ``branching`` bounds every entry of every member; with the infinite
    alphabet this makes the branch set closed and nowhere dense.  The
    shape conditions are checked exhaustively up to ``depth_bound``.
    """

    member: Callable[[Seq], bool]
    branching: int
    depth_bound: int = 6

    def check_shape(self) -> None:
        """Raise ValueError unless the tree meets the shape conditions up to
        ``depth_bound``.  Public API for callers that build their own trees;
        the library itself does not call it."""
        if self.branching < 1:
            raise ValueError("branching bound must be positive")
        alphabet = range(self.branching + 1)
        for length in range(1, self.depth_bound + 1):
            for w in product(alphabet, repeat=length):
                if not self.member(w):
                    continue
                if any(x >= self.branching for x in w):
                    raise ValueError(f"member {w} breaks the branching bound")
                if not self.member(w[:-1]):
                    raise ValueError(f"tree not downward closed at {w}")

    @staticmethod
    def full(branching: int, depth_bound: int = 6) -> "NdTree":
        return NdTree(lambda w: all(x < branching for x in w), branching,
                      depth_bound)

    @staticmethod
    def level_capped(caps: Seq, depth_bound: int = 6) -> "NdTree":
        """Members bounded per level by ``caps`` (last cap repeats)."""
        if not caps or any(c < 1 for c in caps):
            raise ValueError("caps must be positive")

        def member(w: Seq) -> bool:
            return all(w[i] < caps[min(i, len(caps) - 1)] for i in range(len(w)))

        return NdTree(member, max(caps), depth_bound)


def nd_witness(u: Expr, tree: NdTree) -> Seq:
    """A cylinder inside ``u`` whose branches all leave the tree.

    The witness is extended by one value at least the branching bound (and
    fresh to the mentions of ``u``): the resulting stem is not a tree
    member, and downward closure keeps every branch through it out of the
    tree's branch set.
    """
    w = witness_cylinder(u)
    if w is None:
        raise EmptySetError("cannot avoid a tree inside the empty set")
    return w + (fresh_value(mentions(u), len(w), tree.branching),)
